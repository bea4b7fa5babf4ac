"""JSON configuration: parsing with field-path errors, canonical
serialization, and the config digest stamped into every output.

One schema drives both directions. Each config object (the SessionConfig
top level, ChannelSpec, TrojanProbe, a detector block, and each of the four
modes) has a field table of (JSON key, dataclass attribute, kind) rows. A
kind checks and converts one JSON value and writes it back. parse_config
reads the keys a document has and leaves every absent field to its
dataclass default; serialize_config writes every field. So parse(serialize(c))
reproduces c by construction, and a new field takes one table row.

Every number must be finite. The one case a dataclass default cannot
express is the detector tables: the parser accepts one detector block
applied to all four detectors, and a scalar efficiency/threshold, which
becomes a single-entry table at signal_wavelength_nm (as does an absent
one). A detector's position in the list is the Bell outcome it serves.
serialize_config emits the canonical form: four explicit detector blocks
with wavelength-keyed tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from typing import Any, Callable, NamedTuple

from .channel import ChannelSpec, TrojanProbe
from .devices import DetectorSpec
from .errors import ConfigError, ValidationError
from .protocol import (
    BlindingMode,
    CovertAttackMode,
    HonestMode,
    InterceptResendMode,
    Mode,
    SessionConfig,
)


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


# a field table row: (JSON key, dataclass attribute, kind)
_Fields = Sequence[tuple[str, str, _Kind]]


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


def _wavelength_table(value: Any, path: str) -> float | dict[float, float]:
    """A {wavelength_nm: value} mapping, or a number that the detector
    builder places at the signal wavelength."""
    if not isinstance(value, Mapping):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _fail(path, f"expected a number or wavelength table, got {value!r}")
        return _parse_number(value, path)
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


def _parse_fields(data: Any, fields: _Fields, path: str, extra: Sequence[str] = ()) -> dict[str, Any]:
    """Constructor arguments for the fields data holds; an absent field is
    left to the dataclass default. extra names keys handled by the caller."""
    if not isinstance(data, Mapping):
        raise _fail(path, f"expected an object, got {data!r}")
    known = [*extra, *(key for key, _, _ in fields)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise _fail(path or "config", f"unknown field(s) {unknown}; known fields: {sorted(known)}")
    return {attr: kind.parse(data[key], _join(path, key)) for key, attr, kind in fields if key in data}


def _dump_fields(obj: Any, fields: _Fields) -> dict[str, Any]:
    return {key: kind.dump(getattr(obj, attr)) for key, attr, kind in fields}


def _object(cls: type, fields: _Fields) -> _Kind:
    """A nested JSON object holding one dataclass."""
    return _Kind(
        lambda v, path: _build(cls, path, _parse_fields(v, fields, path)),
        lambda obj: _dump_fields(obj, fields),
    )


_NUMBER = _Kind(_parse_number)
_INTEGER = _Kind(_parse_integer)
_BOOLEAN = _Kind(_parse_boolean)
_OPTIONAL_NUMBER = _Kind(lambda v, path: None if v is None else _parse_number(v, path))
_NUMBERS = _Kind(_parse_numbers, list)
_TABLE = _Kind(_wavelength_table, _table_dict)

_CHANNEL: _Fields = (("transmittance", "transmittance", _NUMBER),)

_TROJAN: _Fields = (("readout_success_prob", "readout_success_prob", _NUMBER),)

_DETECTOR: _Fields = (
    ("efficiency", "efficiency", _TABLE),
    ("dark_count_prob", "dark_count_prob", _NUMBER),
    ("blind_threshold", "blind_threshold", _TABLE),
)
# the dataclass default of each table, read once
_TABLE_DEFAULTS = {attr: _default(DetectorSpec, attr) for _, attr, kind in _DETECTOR if kind is _TABLE}

_MODES: dict[str, tuple[type, _Fields]] = {
    cls.kind: (cls, fields)
    for cls, fields in (
        (HonestMode, ()),
        (CovertAttackMode, (
            ("eta_true", "eta_true", _NUMBER),
            ("key_seed", "key_seed", _INTEGER),
            ("keyed", "keyed", _BOOLEAN),
            ("target_report_rate", "target_report_rate", _OPTIONAL_NUMBER),
            ("trojan", "trojan", _object(TrojanProbe, _TROJAN)),
        )),
        (BlindingMode, (
            ("pulse_power", "pulse_power", _NUMBER),
            ("wavelength_nm", "wavelength", _NUMBER),
            ("optimize", "optimize", _BOOLEAN),
            ("wavelength_grid", "wavelength_grid", _NUMBERS),
            ("power_grid", "power_grid", _NUMBERS),
        )),
        (InterceptResendMode, ()),
    )
}


def _parse_mode(data: Any, path: str) -> Mode:
    if not isinstance(data, Mapping):
        raise _fail(path, f"expected an object with a 'kind' field, got {data!r}")
    kind = data.get("kind", _default(SessionConfig, "mode").kind)
    if not isinstance(kind, str) or kind not in _MODES:
        raise _fail(f"{path}.kind", f"unknown mode {kind!r}; valid kinds: {list(_MODES)}")
    cls, fields = _MODES[kind]
    return _build(cls, path, _parse_fields(data, fields, path, extra=("kind",)))


def _dump_mode(mode: Mode) -> dict[str, Any]:
    return {"kind": mode.kind, **_dump_fields(mode, _MODES[mode.kind][1])}


def _parse_detector_blocks(data: Any, path: str) -> tuple[tuple[str, dict[str, Any]], ...]:
    """The path and parsed fields of four detector blocks, from one shared
    block or a list of four; _detector builds each detector from them."""
    if isinstance(data, Mapping):
        return ((path, _parse_fields(data, _DETECTOR, path)),) * 4
    if not isinstance(data, Sequence) or isinstance(data, str):
        raise _fail(path, f"expected an object or a list of 4 objects, got {data!r}")
    if len(data) != 4:
        raise _fail(path, f"need 1 shared or 4 per-detector blocks, got {len(data)}")
    return tuple((f"{path}[{i}]", _parse_fields(b, _DETECTOR, f"{path}[{i}]")) for i, b in enumerate(data))


def _detector(path: str, block: Mapping[str, Any], anchor_nm: float) -> DetectorSpec:
    """A table given as a number becomes a single-entry table at the signal
    wavelength; so does an absent one, with the value of the dataclass
    default's single entry."""
    kwargs = dict(block)
    for attr, default in _TABLE_DEFAULTS.items():
        if attr not in kwargs:
            (kwargs[attr],) = default.values()
        if not isinstance(kwargs[attr], Mapping):
            kwargs[attr] = {anchor_nm: kwargs[attr]}
    return _build(DetectorSpec, path, kwargs)


_DETECTORS = _Kind(
    _parse_detector_blocks,
    lambda detectors: [_dump_fields(d, _DETECTOR) for d in detectors],
)

_SESSION: _Fields = (
    ("n_slots", "n_slots", _INTEGER),
    ("seed", "seed", _INTEGER),
    ("channel", "channel", _object(ChannelSpec, _CHANNEL)),
    ("detectors", "detectors", _DETECTORS),
    ("eta_expected", "eta_expected", _NUMBER),
    ("basis_choice_prob", "basis_choice_prob", _NUMBER),
    ("bob_bit_bias", "bob_bit_bias", _NUMBER),
    ("signal_wavelength_nm", "signal_wavelength_nm", _NUMBER),
    ("alpha", "alpha", _NUMBER),
    ("mode", "mode", _Kind(_parse_mode, _dump_mode)),
)


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
    kwargs = _parse_fields(data, _SESSION, "")
    anchor_nm = kwargs.get("signal_wavelength_nm", _default(SessionConfig, "signal_wavelength_nm"))
    blocks = kwargs.get("detectors", (("detectors", {}),) * 4)
    kwargs["detectors"] = tuple(_detector(path, block, anchor_nm) for path, block in blocks)
    return _build(SessionConfig, "config", kwargs)


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
    return _dump_fields(config, _SESSION)


def config_digest(config: SessionConfig) -> str:
    """SHA-256 over the canonical serialization with the seed zeroed out, so
    the digest identifies the scenario and the seed stays a separate knob."""
    doc = serialize_config(config)
    doc["seed"] = 0
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
