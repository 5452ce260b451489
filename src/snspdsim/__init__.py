"""Event-level SNSPD detection-chain simulator and time-tag analysis toolkit."""

from .circuit import (
    BiquadCascade,
    CircuitParams,
    FilterSpec,
    PerturbationKernel,
    Waveform,
    amplifier_kernel,
    apply_filter,
    design_bandpass,
    gaussian_kernel,
    nanowire_current,
    overshoot_kernel,
    readout_pulse,
)
from .errors import (
    ConfigError,
    FitError,
    FormatError,
    PrecisionError,
    SimulationError,
    SnspdSimError,
    StreamValidationError,
)
from .simulation import (
    DetectorModel,
    RateModel,
    StimulusConfig,
    TimeTagStream,
    branching_probability,
    effective_bias,
    make_stimulus,
    simulate,
)
from .analysis import (
    ExpFit,
    Histogram,
    RecoveryCurve,
    TrainDistribution,
    afterpulse_probability,
    classify_trains,
    conditional_histogram,
    corrected_dcr,
    fit_exponential,
    interarrival_histogram,
    recovery_curve,
)
from .timetags import read_stream, write_stream, write_stream_csv

__version__ = "0.1.0"
