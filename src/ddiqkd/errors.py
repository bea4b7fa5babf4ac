"""Exception types shared across the simulator."""


class DdiQkdError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DdiQkdError):
    """A value or state violates a documented invariant (range, shape)."""


class ConfigError(ValidationError):
    """A configuration document is malformed; the message names the field path."""


class InfeasibleRateError(DdiQkdError):
    """The requested covert reporting rate exceeds what the detection rate allows."""


class NoViablePlanError(DdiQkdError):
    """No (wavelength, power) grid point yields a usable blinding pulse."""
