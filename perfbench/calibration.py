"""A fixed reference computation that measures how fast the machine runs
right now.

The 2-core sandbox this benchmark was written on changes speed by 20-50%
in phases lasting from seconds to minutes, driven by load outside the
container; process CPU time tracks wall time, so the slowdown is in
execution speed, not in scheduling.  Raw durations of the same work then
spread far wider than any useful regression bound.  The timed run therefore
samples this kernel between cells and rescales each cell's time by the
kernel time around it: time x REFERENCE_S / kernel time, the time the work
would take on a machine where the kernel takes REFERENCE_S.

The kernel is plain interpreter work: function calls, small objects and
float arithmetic.  Over 150 s of alternating runs on that machine, cell
times divided by it varied across 8 s windows by a coefficient of
variation of 0.05-0.08, against 0.18-0.24 for the raw times and 0.09-0.11
for a kernel of small NumPy and random-draw calls.  It imports nothing from
vsqn and must never change, or every calibrated time changes with it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# the kernel's duration on the 2-core sandbox in its fast phase; fixed, so
# calibrated times stay comparable between commits and between runs
REFERENCE_S = 1.5e-3


@dataclass
class _Item:
    index: int
    value: float
    weight: float


def _step(x, y):
    return x * y + 1.0


def kernel() -> float:
    acc = 0.0
    items = []
    for i in range(3000):
        acc += _step(i, 0.5)
        items.append(_Item(i, acc, 1.0))
    return acc + sum(item.weight for item in items)


class Calibrator:
    """Kernel samples whose length follows the work timed between them.

    Besides slow phases the machine's speed jitters by 10-20% within
    fractions of a second, and a 5 ms kernel sample catches that jitter,
    not the phase: with such samples cell times scattered more after
    calibration than before.  Each sample therefore repeats the kernel for
    SHARE of the time since the previous sample ended (at least MINIMUM_S
    and three runs) and returns the mean run time.
    """

    SHARE = 0.25
    MINIMUM_S = 0.01

    def __init__(self):
        self.samples: list = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        budget = max(self.MINIMUM_S, self.SHARE * (time.perf_counter() - self._last))
        runs = 0
        t0 = time.perf_counter()
        while True:
            kernel()
            runs += 1
            elapsed = time.perf_counter() - t0
            if runs >= 3 and elapsed >= budget:
                break
        self.samples.append(elapsed / runs)
        self._last = time.perf_counter()

    def rescale(self, times: list) -> list:
        """The last len(times) + 1 samples bracket ``times``; each time is
        rescaled by the mean of the samples just before and after it."""
        cal = self.samples[-len(times) - 1:]
        return [t * REFERENCE_S / ((a + b) / 2.0) for t, a, b in zip(times, cal, cal[1:])]
