"""Simulator for detector-device-independent QKD sessions and two attacks on
the untrusted measurement unit: a gap-parity covert channel in the
announcement timing, and bright-light detector blinding."""

__version__ = "0.1.0"
