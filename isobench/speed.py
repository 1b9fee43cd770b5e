"""References that track the momentary speed of a shared machine.

On a shared host the same work can take 50% longer from one half-minute to
the next, which would drown any change to the program.  So every timed
region is interleaved with a reference that is part of the benchmark,
never of the program under test, and each time is reported as calibrated
seconds:

    calibrated = measured * nominal / (median time of the reference nearby)

A calibrated time is the time the work would take while the reference
takes its nominal time.  A change to the program moves the measured time
and not the reference, so it moves the calibrated time by the same factor.
Work inside one process is calibrated by a fixed integer loop; whole
processes (set-up probes, CLI commands) by the start of a bare interpreter
(``python -c pass``), which tracks process creation far better than the
loop does.  run.py prints the raw medians beside the calibrated ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

REF_ITERATIONS = 200_000
# About the loop's and a bare interpreter's times on a 2-core Intel Xeon
# sandbox under CPython 3.11 when the host is quiet.  Any fixed values
# work: they only set the scale.
NOMINAL_LOOP_S = 0.015
NOMINAL_START_S = 0.03
SAMPLE_EVERY_S = 0.25


def interpreter_start(env: dict, cwd) -> float:
    """Seconds from spawning ``python -c pass`` until it has exited."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
    return time.perf_counter() - start


def reference_loop() -> float:
    """Seconds taken by a fixed integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Speedometer:
    """Samples a reference between operations, at most every SAMPLE_EVERY_S
    seconds, and calibrates each operation by the samples taken just before
    and just after it."""

    def __init__(self, reference=reference_loop, nominal: float = NOMINAL_LOOP_S):
        self.reference, self.nominal = reference, nominal
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> float:
        value = self.reference()
        self.samples.append(value)
        self._last = time.perf_counter()
        return value

    def mark(self) -> int:
        """Call before an operation; pass the marks to ``factors``."""
        if not self.samples:
            self.sample()
        return len(self.samples)

    def maybe_sample(self) -> None:
        """Call after an operation."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factors(self, marks: list[int]) -> list[float]:
        """Per operation, the factor that calibrates its measured time."""
        if len(self.samples) <= marks[-1]:
            self.sample()
        return [self.nominal / ((self.samples[m - 1] + self.samples[m]) / 2) for m in marks]
