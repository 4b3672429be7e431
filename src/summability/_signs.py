"""Sign-vector enumeration shared by exact norms and Rademacher averaging."""

from __future__ import annotations

import numpy as np

# the work any exact computation may do: the kernel's enumeration,
# dim(free) * prod(candidate counts), and exact Rademacher patterns, 2^n
_ENUM_BUDGET = 1 << 22


def sign_block(n: int, start: int, count: int) -> np.ndarray:
    """Rows ``start .. start+count`` of the 2^n sign matrix.

    Row b, column j is +1 when bit (n-1-j) of b is 0, so increasing row index
    enumerates sign vectors in lexicographic order with +1 before -1.
    """
    b = np.arange(start, start + count, dtype=np.uint64)[:, None]
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)[None, :]
    bits = (b >> shifts) & np.uint64(1)
    return 1.0 - 2.0 * bits.astype(np.float64)


def sign_matrix(n: int) -> np.ndarray:
    """All 2^n sign vectors of length n, lexicographic."""
    return sign_block(n, 0, 1 << n)
