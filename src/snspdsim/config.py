"""Run configuration: a YAML file with `circuit`, `rates`, `kernel`,
`detector`, `stimulus` and `run` sections.

Every physical value is either a bare number in SI base units or a string
with an SI-prefixed unit ("25 uA", "180 ns", "0.5 MHz"). Unknown keys are
rejected so typos cannot silently fall back to defaults.

Each section builds one object: every key goes, parsed by its value rule,
to the constructor argument of the same name. A key left out is left out of
the call, so the defaults are the constructors' own and a key is required
exactly when its argument has no default.

Example:

    circuit:
      kinetic_inductance: 500 nH
      hotspot_resistance: 5 kohm
      load_resistance: 25 ohm
      bias_current: 25.0 uA
      critical_current: 25.3 uA
      amplifier_gain_db: 56
      hotspot_duration: 1 ns
    rates:
      dark_rate_ref: 3200 Hz
      dark_rate_slope_per_amp: 2.0934e6
      efficiency_max: 0.025
      efficiency_slope_per_amp: 1.2e7
      reference_bias: 25.0 uA
    kernel:
      type: gaussian            # gaussian | from-filter | none
      amplitude: 3.2 uA
      center: 180 ns
      width: 40 ns
    detector:
      shunt_enabled: true
      latch_policy: none        # none | permanent-until-reset
    stimulus:
      mode: none                # none | periodic | double-pulse
    run:
      duration: 3 s
      seed: 1
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
from dataclasses import dataclass

import yaml

from . import circuit as circ
from .errors import ConfigError
from .quantities import parse_quantity
from .simulation import DetectorModel, RateModel, StimulusConfig

# Value rules: each takes the raw YAML value and the `section.key` field
# name, and returns the constructor's value or raises ConfigError.


def _quantity(dimension: str):
    return lambda value, field: parse_quantity(value, dimension, field)


_NUMBER, _TIME, _CURRENT, _FREQUENCY = map(_quantity, ("number", "time", "current", "frequency"))


def parse_count(value, field: str = "value") -> int:
    """A non-negative integer: a YAML integer or a string of digits."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    if isinstance(value, str) and re.fullmatch(r"\s*\+?[0-9]+\s*", value):
        return int(value)
    raise ConfigError(f"{field}: expected a non-negative integer, got {value!r}")


def _instance(kind: type, expected: str):
    def rule(value, field: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{field}: expected {expected}, got {value!r}")
        return value
    return rule


_FLAG, _TEXT = _instance(bool, "true or false"), _instance(str, "a string")


@dataclass(frozen=True)
class RunConfig:
    model: DetectorModel
    stimulus: StimulusConfig
    digest: str
    duration: float
    seed: int = 0
    output: str | None = None


def _from_filter(circuit, passband_low, passband_high, order=4, **scale):
    spec = circ.FilterSpec(order, passband_low, passband_high)
    return circ.amplifier_kernel(circuit, spec, **scale)


# A schema is (constructor, {config key: value rule}); a kernel type or a
# stimulus mode picks one of several.
_CIRCUIT = (circ.CircuitParams, {
    "kinetic_inductance": _quantity("inductance"),
    "hotspot_resistance": _quantity("resistance"),
    "load_resistance": _quantity("resistance"),
    "bias_current": _CURRENT,
    "critical_current": _CURRENT,
    "amplifier_gain_db": _quantity("gain"),
    "hotspot_duration": _TIME,
})
_RATES = (RateModel, {
    "dark_rate_ref": _FREQUENCY,
    "dark_rate_slope_per_amp": _NUMBER,
    "efficiency_max": _NUMBER,
    "efficiency_slope_per_amp": _NUMBER,
    "reference_bias": _CURRENT,
})
_KERNELS = {
    "none": (lambda: None, {}),
    "gaussian": (circ.gaussian_kernel, {"amplitude": _CURRENT, "center": _TIME, "width": _TIME}),
    "from-filter": (_from_filter, {
        "order": parse_count,
        "passband_low": _FREQUENCY,
        "passband_high": _FREQUENCY,
        "sample_period": _TIME,
        "pulse_duration": _TIME,
        "peak_amplitude": _CURRENT,
        "amps_per_volt": _NUMBER,
        "time_offset": _TIME,
    }),
}
_DETECTOR = (DetectorModel, {"shunt_enabled": _FLAG, "latch_policy": _TEXT})
_STIMULI = {
    "none": (StimulusConfig.none, {}),
    "periodic": (StimulusConfig.periodic, {"rate": _FREQUENCY, "mean_photons": _NUMBER}),
    "double-pulse": (StimulusConfig.double_pulse,
                     {"separation": _TIME, "mean_photons": _NUMBER, "window": _TIME}),
}
_RUN = (RunConfig, {"duration": _TIME, "seed": parse_count, "output": _TEXT})
_SECTIONS = ("circuit", "rates", "kernel", "detector", "stimulus", "run")

# the config keys named apart from their constructor argument
_ARGUMENT = {"dark_rate_slope_per_amp": "dark_rate_slope",
             "efficiency_slope_per_amp": "efficiency_slope"}


def _mapping(name: str, raw) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a mapping of keys, got {raw!r}")
    return dict(raw)


def _variant(name: str, raw, selector: str, default: str, variants: dict):
    """The keys of a section whose `selector` key picks its schema; an
    empty section picks "none"."""
    section = _mapping(name, raw)
    kind = section.pop(selector, default if section else "none")
    kind = _TEXT(kind, f"{name}.{selector}").lower()
    if kind not in variants:
        raise ConfigError(f"{name}: unknown {selector} {kind!r}")
    return section, variants[kind]


def _read(name: str, raw, schema, **built):
    """Build one section: convert each key the file gives by its rule and
    call the constructor with them, plus those objects of `built` (the
    sections read before) that the constructor takes."""
    build, rules = schema
    section = _mapping(name, raw)
    params = inspect.signature(build).parameters
    kwargs = {key: value for key, value in built.items() if key in params}
    for key, value in section.items():
        if key not in rules:
            raise ConfigError(f"{name}: unknown key {key!r}")
        kwargs[_ARGUMENT.get(key, key)] = rules[key](value, f"{name}.{key}")
    for key in rules:
        param = params.get(_ARGUMENT.get(key, key))
        if param is not None and param.default is param.empty and param.name not in kwargs:
            raise ConfigError(f"{name}: missing required key {key!r}")
    try:
        return build(**kwargs)
    except ValueError as exc:  # a ConfigError, or a foreign ValueError under the constructor
        raise ConfigError(f"{name}: {exc}") from None


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r") as fh:
            raw = yaml.safe_load(fh)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer of over 4300 digits
        raise ConfigError(f"{path}: not a valid YAML file: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping of sections")
    try:
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str)
    except TypeError:  # keys of mixed types cannot be sorted
        raise ConfigError("config keys must be strings") from None
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section {sorted(unknown)[0]!r}")

    circuit = _read("circuit", raw.get("circuit"), _CIRCUIT)
    rates = _read("rates", raw.get("rates"), _RATES)
    kernel_keys = _variant("kernel", raw.get("kernel"), "type", "gaussian", _KERNELS)
    kernel = _read("kernel", *kernel_keys, circuit=circuit)
    model = _read("detector", raw.get("detector"), _DETECTOR,
                  circuit=circuit, rates=rates, kernel=kernel)
    stimulus = _read("stimulus", *_variant("stimulus", raw.get("stimulus"), "mode", "none", _STIMULI))
    return _read("run", raw.get("run"), _RUN, model=model, stimulus=stimulus, digest=digest)
