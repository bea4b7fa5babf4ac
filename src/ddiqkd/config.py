"""The session model and its JSON form: parsing with field-path errors,
canonical serialization, and the config digest stamped into every output.

The dataclasses below are the schema. A field's JSON key is its name, and
its kind (how one JSON value is checked, converted and written back) follows
from its annotation text through _KINDS. Each class's (name, kind) list is
resolved once, at import, so an annotation with no kind fails there.
parse_config reads the keys a document has and leaves every absent field to
its dataclass default; serialize_config writes every field. So
parse(serialize(c)) reproduces c by construction, and a new field is one
annotated line on its dataclass.

Every number must be finite. The detectors field takes one block shared
by all four detectors or a list of four; serialize_config writes four. A
wavelength table given as a number, like an absent one (the DetectorSpec
default), is a one-entry table at DEFAULT_WAVELENGTH_NM. A one-entry table
gives its value at every wavelength, so that key shows only in the
canonical form.

Detectors respond in two regimes. In quantum mode a single photon is
projected onto the Bell basis and the matching detector fires subject to
its efficiency; dark counts fire independently. In blinded (linear) mode the
detectors ignore single photons and click only when the classical optical
power they receive meets a per-detector threshold; blinding.click_table
tabulates that response for the 16 pulse/receiver pairs. A detector's
position in SessionConfig.detectors is the Bell outcome it serves.
Efficiencies and thresholds are wavelength-indexed tables; a lookup at an
unlisted wavelength uses the nearest listed entry (the lower on ties).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, NamedTuple, Union, get_args

from .errors import ConfigError, ValidationError

DEFAULT_WAVELENGTH_NM = 1550.0


@dataclass(frozen=True)
class ChannelSpec:
    """Lossy quantum channel; a photon survives with probability transmittance."""

    transmittance: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValidationError(f"transmittance must be in [0,1], got {self.transmittance}")


@dataclass(frozen=True)
class TrojanProbe:
    """Encoder-readout oracle inside the measurement unit: reveals the
    receiver's exact (basis, bit) setting with probability
    readout_success_prob per slot."""

    readout_success_prob: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.readout_success_prob <= 1.0:
            raise ValidationError(
                f"readout_success_prob must be in [0,1], got {self.readout_success_prob}"
            )


def _nearest(table: Mapping[float, float], wavelength: float) -> float:
    return table[min(table, key=lambda wl: (abs(wl - wavelength), wl))]


@dataclass(frozen=True)
class DetectorSpec:
    """One single-photon detector: its wavelength-indexed quantum
    efficiency, per-slot dark-count probability, and the wavelength-indexed
    classical power threshold it obeys when blinded (mW)."""

    efficiency: Mapping[float, float] = field(default_factory=lambda: {DEFAULT_WAVELENGTH_NM: 0.2})
    dark_count_prob: float = 0.0
    blind_threshold: Mapping[float, float] = field(default_factory=lambda: {DEFAULT_WAVELENGTH_NM: 1.0})

    def __post_init__(self) -> None:
        for name, table in (("efficiency", self.efficiency), ("blind_threshold", self.blind_threshold)):
            if not table:
                raise ValidationError(f"{name} table must not be empty")
            if min(table) <= 0.0:
                raise ValidationError(f"{name} wavelengths must be > 0 nm, got {min(table)}")
        for wl, eta in self.efficiency.items():
            if not 0.0 <= eta <= 1.0:
                raise ValidationError(f"efficiency at {wl} nm must be in [0,1], got {eta}")
        for wl, p_th in self.blind_threshold.items():
            if p_th <= 0.0:
                raise ValidationError(f"blind_threshold at {wl} nm must be > 0, got {p_th}")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValidationError(f"dark_count_prob must be in [0,1], got {self.dark_count_prob}")

    def efficiency_at(self, wavelength: float) -> float:
        return _nearest(self.efficiency, wavelength)

    def threshold_at(self, wavelength: float) -> float:
        return _nearest(self.blind_threshold, wavelength)


@dataclass(frozen=True)
class HonestMode:
    """No adversary; the measurement unit announces what it measures."""

    kind: ClassVar[str] = "honest"


@dataclass(frozen=True)
class CovertAttackMode:
    """Malicious measurement unit leaking receiver bits through gap parity.

    The unit's real detectors have efficiency eta_true, typically far above
    the eta_expected the receiver was sold; the surplus detections are the
    silence budget the encoding spends; the encoder readout probe tells the
    unit the bits it leaks. target_report_rate defaults to the rate the
    receiver expects, transmittance * eta_expected.
    """

    kind: ClassVar[str] = "covert"
    eta_true: float = 0.9
    key_seed: int = 0
    keyed: bool = True
    target_report_rate: float | None = None
    trojan: TrojanProbe = field(default_factory=TrojanProbe)

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_true <= 1.0:
            raise ValidationError(f"eta_true must be in (0,1], got {self.eta_true}")
        if not 0 <= self.key_seed < 2**64:
            raise ValidationError(f"key_seed must be a 64-bit unsigned integer, got {self.key_seed}")
        if self.target_report_rate is not None and self.target_report_rate <= 0.0:
            raise ValidationError(
                f"target_report_rate must be > 0, got {self.target_report_rate}"
            )


@dataclass(frozen=True)
class BlindingMode:
    """Bright-pulse intercept-resend against blinded detectors.

    Either a fixed (wavelength_nm, pulse_power) working point, or
    optimize=True to grid-search one. An attack-off run is an honest session.
    """

    kind: ClassVar[str] = "blinding"
    pulse_power: float = 2.0
    wavelength_nm: float = DEFAULT_WAVELENGTH_NM
    optimize: bool = False
    wavelength_grid: tuple[float, ...] = ()
    power_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.optimize:
            if len(self.wavelength_grid) == 0 or len(self.power_grid) == 0:
                raise ValidationError("optimize=True needs non-empty wavelength and power grids")
            if min(self.wavelength_grid) <= 0.0:
                raise ValidationError(f"wavelength_grid entries must be > 0, got {min(self.wavelength_grid)}")
            if min(self.power_grid) <= 0.0:
                raise ValidationError(f"power_grid entries must be > 0, got {min(self.power_grid)}")
        else:
            if self.pulse_power <= 0.0:
                raise ValidationError(f"pulse_power must be > 0, got {self.pulse_power}")
            if self.wavelength_nm <= 0.0:
                raise ValidationError(f"wavelength_nm must be > 0, got {self.wavelength_nm}")


@dataclass(frozen=True)
class InterceptResendMode:
    """Textbook single-photon intercept-resend on the sender-receiver link;
    the error-rate baseline the covert and blinding attacks are measured
    against."""

    kind: ClassVar[str] = "intercept_resend"


Mode = Union[HonestMode, CovertAttackMode, BlindingMode, InterceptResendMode]
_MODES = {cls.kind: cls for cls in get_args(Mode)}


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session run depends on; hash of this plus the seed pins
    the outputs byte for byte.

    basis_choice_prob is each party's probability of picking the diagonal
    basis; bob_bit_bias is the receiver's probability of encoding bit 1 (0.5
    unless exercising degenerate scenarios); eta_expected is the efficiency
    the receiver believes his measurement unit has.
    """

    n_slots: int = 10_000
    seed: int = 0
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    detectors: tuple[DetectorSpec, ...] = field(default_factory=lambda: (DetectorSpec(),) * 4)
    eta_expected: float = 0.2
    basis_choice_prob: float = 0.5
    bob_bit_bias: float = 0.5
    signal_wavelength_nm: float = DEFAULT_WAVELENGTH_NM
    alpha: float = 0.01
    mode: Mode = field(default_factory=HonestMode)

    def __post_init__(self) -> None:
        if not 1 <= self.n_slots < 2**63:
            raise ValidationError(f"n_slots must be >= 1 and < 2**63, got {self.n_slots}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if len(self.detectors) != 4:
            raise ValidationError(f"need exactly 4 detectors, got {len(self.detectors)}")
        for name in ("eta_expected", "basis_choice_prob", "bob_bit_bias"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0,1], got {v}")
        if self.signal_wavelength_nm <= 0.0:
            raise ValidationError(f"signal_wavelength_nm must be > 0, got {self.signal_wavelength_nm}")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0,1), got {self.alpha}")

    def expected_report_rate(self) -> float:
        """Announcements per slot the receiver expects from an honest unit."""
        return self.channel.transmittance * self.eta_expected


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _build(cls: type, path: str, kwargs: Mapping[str, Any]) -> Any:
    """cls(**kwargs); a range error the dataclass raises names path."""
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise _fail(path, str(exc)) from None


def _default(cls: type, attr: str) -> Any:
    """The default a dataclass gives attribute attr."""
    f = next(f for f in dataclasses.fields(cls) if f.name == attr)
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


class _Kind(NamedTuple):
    """How one field's JSON value is checked and converted (parse, given the
    value and its path), and written back (dump)."""

    parse: Callable[[Any, str], Any]
    dump: Callable[[Any], Any] = lambda value: value


def _parse_number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _fail(path, f"expected a number, got {v!r}")
    try:
        number = float(v)
    except OverflowError:
        raise _fail(path, "integer too large for a float") from None
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {v!r}")
    return number


def _parse_integer(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _fail(path, f"expected an integer, got {v!r}")
    return v


def _parse_boolean(v: Any, path: str) -> bool:
    if not isinstance(v, bool):
        raise _fail(path, f"expected true/false, got {v!r}")
    return v


def _parse_numbers(v: Any, path: str) -> tuple[float, ...]:
    if not isinstance(v, Sequence) or isinstance(v, str):
        raise _fail(path, f"expected a list of numbers, got {v!r}")
    return tuple(_parse_number(x, f"{path}[{i}]") for i, x in enumerate(v))


def _wavelength_table(value: Any, path: str) -> dict[float, float]:
    """A {wavelength_nm: value} mapping, or a number: the one-entry table at
    DEFAULT_WAVELENGTH_NM."""
    if not isinstance(value, Mapping):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _fail(path, f"expected a number or wavelength table, got {value!r}")
        return {DEFAULT_WAVELENGTH_NM: _parse_number(value, path)}
    if not value:
        raise _fail(path, "wavelength table must not be empty")
    table = {}
    for k, v in value.items():
        try:
            wl = float(k)
        except (TypeError, ValueError):
            raise _fail(path, f"wavelength key {k!r} is not a number") from None
        if not math.isfinite(wl):
            raise _fail(path, f"wavelength key {k!r} is not finite")
        if wl in table:
            raise _fail(path, f"wavelength key {k!r} repeats wavelength {wl} nm")
        table[wl] = _parse_number(v, f"{path}[{k!r}]")
    return table


def _table_dict(table: Mapping[float, float]) -> dict[str, float]:
    return {str(float(k)): float(table[k]) for k in sorted(table)}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _parse_fields(data: Any, cls: type, path: str, extra: Sequence[str] = ()) -> dict[str, Any]:
    """Constructor arguments of cls for the fields data holds; an absent
    field is left to the dataclass default. extra names keys handled by the
    caller."""
    if not isinstance(data, Mapping):
        raise _fail(path, f"expected an object, got {data!r}")
    fields = _SCHEMA[cls]
    known = [*extra, *(name for name, _ in fields)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise _fail(path or "config", f"unknown field(s) {unknown}; known fields: {sorted(known)}")
    return {name: kind.parse(data[name], _join(path, name)) for name, kind in fields if name in data}


def _dump_fields(obj: Any) -> dict[str, Any]:
    return {name: kind.dump(getattr(obj, name)) for name, kind in _SCHEMA[type(obj)]}


def _object(cls: type) -> _Kind:
    """A nested JSON object holding one dataclass."""
    return _Kind(lambda v, path: _build(cls, path, _parse_fields(v, cls, path)), _dump_fields)


def _parse_mode(data: Any, path: str) -> Mode:
    if not isinstance(data, Mapping):
        raise _fail(path, f"expected an object with a 'kind' field, got {data!r}")
    kind = data.get("kind", _default(SessionConfig, "mode").kind)
    if not isinstance(kind, str) or kind not in _MODES:
        raise _fail(f"{path}.kind", f"unknown mode {kind!r}; valid kinds: {list(_MODES)}")
    cls = _MODES[kind]
    return _build(cls, path, _parse_fields(data, cls, path, extra=("kind",)))


_DETECTOR = _object(DetectorSpec)


def _parse_detectors(data: Any, path: str) -> tuple[DetectorSpec, ...]:
    """Four detectors, from one block shared by all four or a list of four."""
    if isinstance(data, Mapping):
        return (_DETECTOR.parse(data, path),) * 4
    if not isinstance(data, Sequence) or isinstance(data, str):
        raise _fail(path, f"expected an object or a list of 4 objects, got {data!r}")
    if len(data) != 4:
        raise _fail(path, f"need 1 shared or 4 per-detector blocks, got {len(data)}")
    return tuple(_DETECTOR.parse(b, f"{path}[{i}]") for i, b in enumerate(data))


# a field's kind, by its annotation text
_KINDS: dict[str, _Kind] = {
    "int": _Kind(_parse_integer),
    "float": _Kind(_parse_number),
    "bool": _Kind(_parse_boolean),
    "float | None": _Kind(lambda v, path: None if v is None else _parse_number(v, path)),
    "tuple[float, ...]": _Kind(_parse_numbers, list),
    "Mapping[float, float]": _Kind(_wavelength_table, _table_dict),
    "ChannelSpec": _object(ChannelSpec),
    "TrojanProbe": _object(TrojanProbe),
    "tuple[DetectorSpec, ...]": _Kind(_parse_detectors, lambda detectors: [_DETECTOR.dump(d) for d in detectors]),
    "Mode": _Kind(_parse_mode, lambda mode: {"kind": mode.kind, **_dump_fields(mode)}),
}


def _schema(cls: type) -> tuple[tuple[str, _Kind], ...]:
    """The (name, kind) of each field of cls."""
    try:
        return tuple((f.name, _KINDS[f.type]) for f in dataclasses.fields(cls))
    except KeyError as exc:
        raise TypeError(f"{cls.__name__}: no config kind for annotation {exc.args[0]!r}") from None


_SCHEMA = {cls: _schema(cls) for cls in (ChannelSpec, TrojanProbe, DetectorSpec, *_MODES.values(), SessionConfig)}


def parse_config(data: Mapping[str, Any], seed: int | None = None) -> SessionConfig:
    """Build a validated SessionConfig from a JSON-shaped mapping.

    An explicit `seed` argument (the CLI flag) overrides the document's seed
    field. Every out-of-range, non-finite or unknown field raises
    ConfigError naming the offending path: each nested object and each
    detector is built under its own path, the top level under `config`.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"config root must be an object, got {data!r}")
    if seed is not None:
        data = {**data, "seed": seed}
    return _build(SessionConfig, "config", _parse_fields(data, SessionConfig, ""))


def read_json(path: str, what: str) -> Any:
    """Load one JSON document; any failure is a ConfigError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path: str, seed: int | None = None) -> SessionConfig:
    return parse_config(read_json(path, "config"), seed=seed)


def serialize_config(config: SessionConfig) -> dict[str, Any]:
    """Canonical JSON-shaped form: defaults spelled out, detectors as four
    explicit blocks, wavelength tables keyed by stringified nm values."""
    return _dump_fields(config)


def config_digest(config: SessionConfig) -> str:
    """SHA-256 over the canonical serialization with the seed zeroed out, so
    the digest identifies the scenario and the seed stays a separate knob."""
    doc = serialize_config(config)
    doc["seed"] = 0
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
