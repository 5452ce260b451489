"""Host time scaled to a fixed machine speed.

A shared host drifts in speed: on the 2-core Xeon VM this benchmark was
built on, by up to 1.7x over seconds to minutes. A fixed pure-Python reference loop is timed
before and after every step and, while a step runs, every SAMPLE_PERIOD_S
from a timer signal (a set-up probe times it in its own process instead).
A step's scaled time is its host time, less the reference loops inside it,
times REFERENCE_S over the mean reference timing: host seconds at the
speed at which the loop takes REFERENCE_S. The workloads, like the loop,
are bound by the interpreter, so the scaling cancels most of the drift.
The clock keeps the start and end of each loop it ran inside the last step
(`pauses`), so span durations can leave them out too.
"""

import math
import signal
import statistics
import time

# duration of reference_loop() on an idle core of an Intel Xeon at 2.1 GHz
# with CPython 3.11; a fixed scale, never re-measured
REFERENCE_S = 0.009
SAMPLE_PERIOD_S = 0.25


def reference_loop() -> float:
    """Host seconds for a fixed piece of interpreter-bound work: float math,
    branches and list appends, like the engine loop and the record loops."""
    t0 = time.perf_counter()
    total, kept = 0.0, []
    for j in range(40_000):
        x = math.exp(-j * 1e-5) * 0.5
        if x > 0.25:
            kept.append(j)
        total += math.log(1.0 + x)
    return time.perf_counter() - t0


class Clock:
    """Times steps and how fast the host runs meanwhile.

    Consecutive steps share the reference timing between them."""

    def __init__(self):
        self.last_reference = reference_loop()
        self._inside = []
        self.pauses: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._inside.append(reference_loop())
        self.pauses.append((start, time.perf_counter()))

    def add_references(self, timings):
        """Reference timings taken inside the running step by a child process."""
        self._inside.extend(timings)

    def time(self, step, in_process=True):
        """Run step(); return (its result, host seconds, scaled seconds).
        A step that waits for a child process is not sampled by the timer:
        the loop would run beside the child, not instead of it."""
        self._inside = []
        self.pauses = []
        if in_process:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = step()
        finally:
            raw = time.perf_counter() - t0
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        if in_process:
            raw -= sum(end - start for start, end in self.pauses)
        else:
            raw -= sum(self._inside)
        before, self.last_reference = self.last_reference, reference_loop()
        references = [before, *self._inside, self.last_reference]
        return result, raw, raw * REFERENCE_S / statistics.mean(references)
