"""Host-speed calibration.

The benchmark host is shared, and its single-thread speed drifts with the
neighbours' load: one fixed planar op measured 54 ms in a quiet minute and
85-126 ms (5 s window medians) in a busy one, with CPU time tracking wall
time, so the slowdown is in execution speed, not in scheduling.  Raw wall
times of separate runs therefore disagree by 20-30 %, more than any usable
regression bound.

The fix is a fixed calibration kernel timed next to every op.  It mixes
interpreted float arithmetic, dict lookups and small numpy calls, which is
the per-call-overhead profile of the program, and allocates no tracked
objects, so the program's heap state does not change its speed.  An op's
wall time multiplied by REFERENCE_MS / kernel time is its time on a host
that runs the kernel in REFERENCE_MS: host drift cancels, program changes do
not (the kernel calls no program code).  In sets of ten seeded runs per
workload it cut the run-to-run spread (IQR over median) of ops per second
from 0.10-0.30 to 0.025-0.057.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Kernel time that defines the reference speed: about the typical kernel
#: time on a loaded 2-core Xeon VM with Python 3.11.  Only ratios matter.
REFERENCE_MS = 4.0
#: Kernel samples (centred) whose median calibrates one op.
WINDOW = 7

_TABLE = {i: 1.0 + i / 256.0 for i in range(256)}
_ARRAY = np.linspace(0.0, 1.0, 64)


def _kernel() -> float:
    acc = 0.0
    table = _TABLE
    for i in range(6000):
        acc += math.sqrt(i + 1.0) * table[i & 255]
        if i % 10 == 0:
            acc += float(np.sum(_ARRAY * 1.5))
    return acc


def kernel_ms() -> float:
    """One timed run of the calibration kernel, in ms."""
    t0 = time.perf_counter()
    _kernel()
    return 1e3 * (time.perf_counter() - t0)


def factors(samples) -> list:
    """Per-op speed factors REFERENCE_MS / (centred running median of samples)."""
    half = WINDOW // 2
    return [REFERENCE_MS / statistics.median(samples[max(0, i - half): i + half + 1])
            for i in range(len(samples))]
