"""One benchmark set-up in a fresh process.

Imports snspdsim and builds what every workload starts from: the
calibrated models and their kernel tables, the band-pass filters with the
readout pulse and its overshoot kernel, and a run config parsed through the
CLI and config layers. Prints one JSON line with the import time, the self
time of each layer, the set-up checks and two timings of the reference loop
(clock.py), taken before and after the set-up on this process's core.
run.py starts this several times per run and reports the median scaled
wall time of the whole process as setup_s.

    python3 perfbench/setup_probe.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from clock import reference_loop  # noqa: E402

references = [reference_loop()]

import json  # noqa: E402

import spans  # noqa: E402

tracer = spans.Tracer()
with tracer.span("setup.import"):
    import numpy as np
    import snspdsim  # noqa: F401
    from snspdsim import circuit, cli, config, presets
    from workloads import DARK_BIAS, DOUBLE_BIAS

models = [tracer.call("presets.profile_model", presets.profile_model, b) for b in (DARK_BIAS, DOUBLE_BIAS)]
for model in models:
    tracer.call("circuit.max_remaining", model.kernel.max_remaining)
tracer.call("presets.nominal_detection_probability", presets.nominal_detection_probability, DOUBLE_BIAS, 1.0)
tracer.call("presets.subseed", presets.subseed, 0, 1, 0)

sp = circuit.DEFAULT_SAMPLE_PERIOD
params = tracer.call("presets.profile_circuit", presets.profile_circuit)
narrow = tracer.call("circuit.design_bandpass", circuit.design_bandpass, presets.NARROW_BAND, sp)
pulse = tracer.call("circuit.readout_pulse", circuit.readout_pulse, params, sp, 2e-6, cascade=narrow)
overshoot = tracer.call("circuit.overshoot_kernel", circuit.overshoot_kernel, pulse, amps_per_volt=1.0)
tracer.call("circuit.design_bandpass", circuit.design_bandpass, presets.WIDE_BAND, sp)

parser = tracer.call("cli.build_parser", cli.build_parser)
args = tracer.call(
    "cli.parse_args", parser.parse_args,
    ["simulate", "--config", os.path.join(HERE, "profile_25p2uA.yaml")],
)
cfg = tracer.call("config.load_run_config", config.load_run_config, args.config)

checks = [
    ("setup/config-matches-profile", cfg.model.describe() == models[0].describe()),
    ("setup/config-kernel-matches-profile", np.array_equal(cfg.model.kernel.samples, models[0].kernel.samples)),
    ("setup/narrow-band-overshoot", overshoot.peak > 0.0),
]
self_times = tracer.self_times()
references.append(reference_loop())
print(json.dumps({
    "import_s": self_times["setup.import"],
    "layers": spans.by_layer(self_times),
    "checks": checks,
    "references": references,
}))
