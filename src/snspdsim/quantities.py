"""Parsing of unit-suffixed physical quantities ("0.1ms", "25 uA", "15 MHz").

Config files and CLI flags accept either a bare number, interpreted in the
SI base unit of the field, or a string with an SI-prefixed unit suffix. The
dimension "number" is a dimensionless value and takes no suffix.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

_PREFIXES = {
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "µ": 1e-6,
    "m": 1e-3,
    "": 1.0,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
}

# base-unit spellings accepted for each dimension; a bare number takes none
_UNITS = {
    "number": (),
    "time": ("s",),
    "frequency": ("Hz",),
    "current": ("A",),
    "voltage": ("V",),
    "resistance": ("ohm", "Ohm", "Ω"),
    "inductance": ("H",),
    "gain": ("dB",),
}

_NUMBER = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S*)\s*$")


def parse_quantity(value, dimension: str, field: str = "value") -> float:
    """Return `value` in the SI base unit of `dimension`.

    Bare numbers are taken as already being in the base unit.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = str(value)  # the exact decimal form; "inf" and "nan" do not parse
    if not isinstance(value, str):
        raise ConfigError(f"{field}: expected a number or quantity string, got {value!r}")
    m = _NUMBER.match(value)
    if m is None:
        raise ConfigError(f"{field}: cannot parse {value!r}")
    number, suffix = float(m.group(1)), m.group(2)
    if not math.isfinite(number):  # "1e999", or an integer beyond float range
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    if suffix == "":
        return number
    try:
        units = _UNITS[dimension]
    except KeyError:
        raise ConfigError(f"{field}: unknown dimension {dimension!r}") from None
    for unit in units:
        if suffix.endswith(unit):
            prefix = suffix[: -len(unit)]
            if prefix in _PREFIXES:
                if unit == "dB" and prefix:
                    break  # prefixed decibels are never intended
                return number * _PREFIXES[prefix]
    raise ConfigError(
        f"{field}: unit {suffix!r} does not match expected dimension "
        f"{dimension!r} (base units: {', '.join(units) or 'none'})"
    )
