"""The sign vectors that every exact real enumeration runs, and their count.
What is enumerated is even in each ±1 slot, bit for bit (|A(x)| and norms;
IEEE negation is exact), so the 2^(n-1) sign vectors of length n with first
sign +1 take every value that all 2^n take."""

from __future__ import annotations

import functools

import numpy as np

# the work any exact computation may do: the kernel's enumeration,
# dim(free) * prod(candidate counts), and exact Rademacher patterns
_ENUM_BUDGET = 1 << 22


def sign_count(n: int) -> int:
    """How many sign vectors of length n >= 1 an exact enumeration runs: 2^(n-1)."""
    return 1 << (n - 1)


def sign_rows(n: int, start: int = 0, count: int | None = None) -> np.ndarray:
    """Rows ``start .. start+count`` (to the last by default) of the ``sign_count(n)``
    sign vectors of length n with first sign +1, read-only. Row b, column j is
    +1 when bit (n-1-j) of b is 0: lexicographic order, +1 before -1."""
    stop = sign_count(n) if count is None else start + count
    return _table(n)[start:stop] if n <= 12 else _block(n, start, stop)


@functools.lru_cache(maxsize=None)  # n <= 12: tables of at most 2^11 rows are kept
def _table(n: int) -> np.ndarray:
    return _block(n, 0, sign_count(n))


def _block(n: int, start: int, stop: int) -> np.ndarray:
    b = np.arange(start, stop, dtype=np.uint64)[:, None]
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)[None, :]
    rows = 1.0 - 2.0 * ((b >> shifts) & np.uint64(1)).astype(np.float64)
    rows.setflags(write=False)
    return rows
