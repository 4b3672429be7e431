"""Machine-speed calibration shared by the benchmark's parent and worker.

The VM the bounds were set on shares its host: for minutes at a time it runs
20-40 % slower, in CPU time as well as in wall time. ``calibration()`` times a
fixed mix of interpreter work and small numpy calls that shares no code with
the program, so only the speed of the machine moves it. A time measured just
before it is scaled to the nominal speed by ``scaled()``.
"""

from __future__ import annotations

import time

import numpy as np

# Typical calibration() time on the machine the bounds were set on (a 2-vCPU
# Xeon VM, Python 3.11, numpy 2.4) in its faster spells.
NOMINAL_S = 4.2e-4
_ROWS = np.random.default_rng(0).standard_normal((16, 8))


def _kernel() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(60):
        v = _ROWS[i % 16]
        total += float((np.abs(v) ** 1.5).sum() ** (1 / 1.5))
        total += float(np.einsum("i,i->", v, v))
        total += sum(k * k for k in range(30))
    return time.perf_counter() - t0


def calibration() -> float:
    """One warm-up run refills the caches the measured work evicted; then
    the lower of two runs."""
    _kernel()
    return min(_kernel(), _kernel())


def scaled(elapsed: float, calibration_s: float) -> float:
    """``elapsed`` expressed at the nominal machine speed."""
    return elapsed * NOMINAL_S / calibration_s
