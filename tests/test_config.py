"""Quantity parsing and YAML run-configuration loading."""

import hashlib
import inspect
import json

import pytest

from snspdsim import config
from snspdsim.config import load_run_config
from snspdsim.errors import ConfigError
from snspdsim.quantities import parse_quantity

BASE = """
circuit:
  kinetic_inductance: 500 nH
  hotspot_resistance: 5 kohm
  load_resistance: 25 ohm
  bias_current: 25.0 uA
  critical_current: 25.3 uA
rates:
  dark_rate_ref: 3200 Hz
  dark_rate_slope_per_amp: 2.0934e6
  efficiency_max: 0.025
  efficiency_slope_per_amp: 1.2e7
  reference_bias: 25.0 uA
run:
  duration: 0.5 s
  seed: 7
"""


PEAK_FILTER = BASE + """
kernel:
  type: from-filter
  passband_low: 15 MHz
  passband_high: 580 MHz
  peak_amplitude: 3.7 uA
  time_offset: 160 ns
"""

COUPLING_FILTER = BASE + """
kernel:
  type: from-filter
  order: 2
  passband_low: 10 MHz
  passband_high: 500 MHz
  amps_per_volt: 1.5e-6
  pulse_duration: 1.5 us
  time_offset: 100 ns
"""

LASER = "stimulus:\n  mode: periodic\n  rate: 0.5 MHz\n  mean_photons: 10\n"


def write_config(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return path


def parsed_digest(cfg):
    """SHA-256 of everything the config sets, kernel samples aside."""
    parsed = {
        "model": cfg.model.describe(),
        "stimulus": cfg.stimulus.describe(),
        "duration": cfg.duration,
        "seed": cfg.seed,
        "output": cfg.output,
    }
    return hashlib.sha256(json.dumps(parsed, sort_keys=True).encode()).hexdigest()


class TestQuantities:
    @pytest.mark.parametrize(
        "raw,dimension,expected",
        [
            ("0.1ms", "time", 1e-4),
            ("180 ns", "time", 180e-9),
            ("25 uA", "current", 25e-6),
            ("25 µA", "current", 25e-6),
            ("15 MHz", "frequency", 15e6),
            ("0.5 MHz", "frequency", 0.5e6),
            ("5 kohm", "resistance", 5000.0),
            ("500 nH", "inductance", 500e-9),
            ("-150 mV", "voltage", -0.15),
            ("56 dB", "gain", 56.0),
            (3200, "frequency", 3200.0),
            (2.5e-8, "time", 2.5e-8),
            ("1.2e7", "number", 1.2e7),
        ],
    )
    def test_accepted(self, raw, dimension, expected):
        assert parse_quantity(raw, dimension) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "raw,dimension",
        [
            ("25 uA", "time"),       # wrong unit for the dimension
            ("ten ns", "time"),      # not a number
            ("5 zops", "resistance"),
            (True, "time"),
            ("2 MHz", "number"),     # a bare number takes no unit
            (float("inf"), "time"),
            (float("nan"), "current"),
            ("1e999 s", "time"),
            (10**400, "time"),
        ],
    )
    def test_rejected(self, raw, dimension):
        with pytest.raises(ConfigError):
            parse_quantity(raw, dimension)


class TestRunConfig:
    def test_minimal_config(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, BASE))
        assert cfg.model.circuit.bias_current == pytest.approx(25e-6)
        assert cfg.model.kernel is None  # no kernel section -> no kernel
        assert cfg.stimulus.mode == "none"
        assert cfg.duration == 0.5
        assert cfg.seed == 7
        assert len(cfg.digest) == 16

    def test_gaussian_kernel_section(self, tmp_path):
        text = BASE + "kernel:\n  type: gaussian\n  amplitude: 3.7 uA\n  width: 15 ns\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.model.kernel is not None
        assert cfg.model.kernel.peak == pytest.approx(3.7e-6, rel=1e-9)

    def test_from_filter_kernel_section(self, tmp_path):
        text = BASE + (
            "kernel:\n"
            "  type: from-filter\n"
            "  passband_low: 15 MHz\n"
            "  passband_high: 580 MHz\n"
            "  peak_amplitude: 3.7 uA\n"
            "  time_offset: 160 ns\n"
        )
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.model.kernel.peak == pytest.approx(3.7e-6, rel=1e-9)

    def test_stimulus_sections(self, tmp_path):
        text = BASE + "stimulus:\n  mode: periodic\n  rate: 0.5 MHz\n  mean_photons: 10\n"
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.stimulus.rate == pytest.approx(0.5e6)
        text = BASE + (
            "stimulus:\n  mode: double-pulse\n  separation: 180 ns\n  mean_photons: 1\n"
        )
        cfg = load_run_config(write_config(tmp_path, text))
        assert cfg.stimulus.separation == pytest.approx(180e-9)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        text = BASE.replace("  seed: 7", "  seed: 7\n  sede: 8")
        with pytest.raises(ConfigError, match="run.*sede"):
            load_run_config(write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="lazer"):
            load_run_config(write_config(tmp_path, BASE + "lazer: {}\n"))

    def test_missing_required_key_named(self, tmp_path):
        text = BASE.replace("  bias_current: 25.0 uA\n", "")
        with pytest.raises(ConfigError, match="bias_current"):
            load_run_config(write_config(tmp_path, text))

    def test_missing_section_rejected(self, tmp_path):
        text = BASE.replace("run:\n  duration: 0.5 s\n  seed: 7\n", "")
        with pytest.raises(ConfigError, match="run"):
            load_run_config(write_config(tmp_path, text))

    def test_digest_tracks_content(self, tmp_path):
        a = load_run_config(write_config(tmp_path, BASE))
        b = load_run_config(write_config(tmp_path, BASE.replace("seed: 7", "seed: 8")))
        assert a.digest != b.digest

    def test_example_configs_load(self):
        for name in (
            "dark_counts_25p0uA.yaml",
            "laser_0p5MHz.yaml",
            "double_pulse_180ns.yaml",
        ):
            cfg = load_run_config(f"configs/{name}")
            assert cfg.duration > 0

    def test_docstring_example_loads(self, tmp_path):
        example = inspect.cleandoc(config.__doc__.split("Example:", 1)[1])
        cfg = load_run_config(write_config(tmp_path, example))
        assert cfg.model.kernel.peak == pytest.approx(3.2e-6, rel=1e-9)
        assert cfg.duration == 3.0 and cfg.seed == 1

    # digests taken before the config schema was table-driven; the Gaussian
    # kernel's since its samples come from math.exp, one bit pattern at
    # every SIMD level
    @pytest.mark.parametrize(
        "source, parsed, kernel",
        [
            ("configs/dark_counts_25p0uA.yaml",
             "3b9afb42cbfaca2bcad9e2084267ec5a982dd07b5add63d522579845d0e076a5",
             "c16df0f1f5d51f0adf04c522b53bedac3f82cedf1465d73e2ad85891cf9224f7"),
            ("configs/laser_0p5MHz.yaml",
             "a96ae4f672aa3fc95bf467832d620873245c44d6bbc79395cbabd614407269ba",
             "c16df0f1f5d51f0adf04c522b53bedac3f82cedf1465d73e2ad85891cf9224f7"),
            ("configs/double_pulse_180ns.yaml",
             "84d76d130ec92679e513f8808fcb18e7bdf7f29f23b6fae97ea952329606623e",
             "c16df0f1f5d51f0adf04c522b53bedac3f82cedf1465d73e2ad85891cf9224f7"),
            (PEAK_FILTER,
             "a2c7a649f94a84bae181d2d54ae92bb951111fd7c6febfb80133468b286d30e4",
             "18cde52f6767a997d044440ba2a2fc1f3fd9961f835d0917bede79916f624944"),
            (COUPLING_FILTER,
             "97ea89dccd8e4a2a85da3f52c3c566586c43466b8f29bc0b7af10a67ed9bea68",
             "7c5e284eecdc84c8acb641710f52dcd35895f6ac3e3b2e2dcd5e18b3e5cc4c97"),
        ],
        ids=["dark", "laser", "double-pulse", "from-filter-peak", "from-filter-coupling"],
    )
    def test_parsed_model_pinned(self, tmp_path, source, parsed, kernel):
        path = source if source.startswith("configs/") else write_config(tmp_path, source)
        cfg = load_run_config(path)
        assert parsed_digest(cfg) == parsed
        assert hashlib.sha256(cfg.model.kernel.samples.tobytes()).hexdigest() == kernel

    @pytest.mark.parametrize(
        "text, match",
        [
            pytest.param(BASE.replace("seed: 7", "seed: seven"), r"run\.seed", id="seed-word"),
            pytest.param(BASE.replace("seed: 7", "seed: -1"), r"run\.seed", id="seed-negative"),
            pytest.param(BASE.replace("seed: 7", "seed: 1.9"), r"run\.seed", id="seed-fraction"),
            pytest.param(BASE.replace("max: 0.025", "max: high"), r"rates\.efficiency_max",
                         id="efficiency-word"),
            pytest.param(BASE.replace("2.0934e6", "2 MHz"), r"rates\.dark_rate_slope_per_amp",
                         id="slope-with-unit"),
            pytest.param(BASE + LASER.replace("photons: 10", "photons: ten"),
                         r"stimulus\.mean_photons", id="photons-word"),
            pytest.param(PEAK_FILTER + "  order: four\n", r"kernel\.order", id="order-word"),
            pytest.param("circuit: 5\n" + BASE[BASE.index("rates:"):], "circuit",
                         id="section-not-mapping"),
            pytest.param(BASE.replace("2.0934e6", ".inf"), r"rates\.dark_rate_slope_per_amp",
                         id="slope-infinite"),
            pytest.param(BASE.replace("25 ohm", "-25 ohm"), "circuit: load_resistance",
                         id="negative-resistance"),
            # names no key: the empty readout pulse is rejected by `Waveform`
            pytest.param(PEAK_FILTER + "  pulse_duration: 0 s\n", "kernel",
                         id="zero-pulse-duration"),
            pytest.param(BASE + "detector:\n  shunt_enabled: \"false\"\n",
                         r"detector\.shunt_enabled", id="flag-string"),
            pytest.param(BASE.replace("seed: 7", "seed: [7"), "YAML", id="malformed-yaml"),
            pytest.param(BASE.replace("seed: 7", "seed: " + "9" * 5000), "YAML",
                         id="integer-too-long"),
            pytest.param(BASE.replace("  seed: 7", "  seed: 7\n  5: 1"), "keys must be strings",
                         id="key-types-mixed"),
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            load_run_config(write_config(tmp_path, text))
