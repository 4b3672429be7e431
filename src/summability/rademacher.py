"""Rademacher averages of finite vector sequences, exact or Monte Carlo.

For a finite sequence the defining supremum collapses to a single term, so
the exact value is the plain average over all 2^n sign patterns (each dyadic
cell of the unit interval realizes one pattern with equal weight). Monte
Carlo sampling draws seeded patterns from a counter-based generator. Both
modes reduce the pattern norms the same way: the maximum for p = inf, an
exactly rounded sum of the p-th powers otherwise. An average that over- or
underflowed is computed again on rescaled items, which the positive
homogeneity of the norm allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from ._signs import sign_block
from .norms import _SAFE_HIGH, _SAFE_LOW, VectorSeq, _axis_norms, _rescaled
from .spaces import Exponent, ExponentLike

__all__ = [
    "SignPattern",
    "rad_p_norm",
    "rademacher_average",
    "contraction_check",
    "ContractionCheck",
    "kahane_ratio",
]

_BLOCK = 1 << 10


@dataclass(frozen=True)
class SignPattern:
    """One realization of n independent signs."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def from_index(cls, index: int, n: int) -> "SignPattern":
        row = sign_block(n, index, 1)[0]
        return cls(tuple(int(s) for s in row))


def rademacher_average(
    items: np.ndarray,
    norm_fn: Callable[[np.ndarray], np.ndarray],
    p: ExponentLike,
    mode: str = "exact",
    *,
    samples: int = 100_000,
    seed: int = 0,
    budget: int = 1 << 22,
) -> float:
    """(E ||sum_j eps_j v_j||^p)^(1/p) for arbitrary items and norm.

    ``items`` has one summand per leading index; ``norm_fn`` maps a batch of
    sign combinations (same trailing shape) to their norms and must be
    positively homogeneous, norm_fn(c v) = c norm_fn(v) for c > 0: a result
    that over- or underflowed is computed again on the items scaled by a
    power of two and scaled back (``norms._rescaled``). Exact mode runs
    all 2^n patterns, mc mode ``samples`` seeded patterns, in blocks. For
    p = inf the result is the largest norm; otherwise the norm^p terms go
    into one exactly rounded sum, so the block size cannot change it.
    """
    v = np.asarray(items)
    n = v.shape[0]
    if n == 0:
        raise ValueError("empty sequence")
    pe = Exponent.of(p)
    flat = v.reshape(n, -1)

    if mode == "exact":
        count = 1 << n
        if count > budget:
            raise ValueError(
                f"exact mode needs 2^{n} patterns, over the budget {budget}"
            )

        def block(start, size):
            return sign_block(n, start, size)
    elif mode == "mc":
        if samples < 1:
            raise ValueError("mc mode needs at least one sample")
        count = samples
        gen = np.random.Generator(np.random.Philox(key=seed))

        def block(start, size):
            return 1.0 - 2.0 * gen.integers(0, 2, size=(size, n)).astype(np.float64)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def block_norms():
        for start in range(0, count, _BLOCK):
            signs = block(start, min(_BLOCK, count - start))
            combos = (signs @ flat).reshape((len(signs),) + v.shape[1:])
            yield np.asarray(norm_fn(combos))

    if pe.is_inf:
        value = max(0.0, *(float(norms.max()) for norms in block_norms()))
    else:
        pv = pe.value
        try:
            mean = math.fsum(chain.from_iterable(
                (norms ** pv).tolist() for norms in block_norms())) / count
            value = mean ** (1.0 / pv)
        except OverflowError:  # the exact sum or the root leaves the float range
            value = math.inf
    if _SAFE_LOW <= value <= _SAFE_HIGH:
        return value
    return _rescaled(value, lambda w: rademacher_average(
        w, norm_fn, p, mode, samples=samples, seed=seed, budget=budget), v)


def rad_p_norm(
    seq: VectorSeq,
    p: ExponentLike = 2,
    mode: str = "exact",
    *,
    samples: int = 100_000,
    seed: int = 0,
    budget: int = 1 << 22,
) -> float:
    """Rad_p norm of a vector sequence in its own space norm.

    Exact mode averages over all 2^n sign patterns (n = sequence length and
    2^n <= budget); for p = inf it is the worst-case sign combination. mc
    mode is the empirical mean over ``samples`` seeded patterns.
    """
    s = seq.space.exponent

    def norm_fn(rows: np.ndarray) -> np.ndarray:
        return _axis_norms(np.abs(rows), s, axis=1)

    return rademacher_average(
        seq.vectors, norm_fn, p, mode, samples=samples, seed=seed, budget=budget
    )


@dataclass(frozen=True)
class ContractionCheck:
    passed: bool
    scaled: float
    unscaled: float

    def __bool__(self) -> bool:
        return self.passed


def contraction_check(
    seq: VectorSeq,
    alphas,
    p: ExponentLike,
    mode: str = "exact",
    *,
    tol: float = 1e-12,
    **kwargs,
) -> ContractionCheck:
    """Rad_p of (alpha_j x_j) against Rad_p of (x_j) for |alpha_j| <= 1."""
    a = np.asarray(alphas)
    if a.shape != (seq.length,):
        raise ValueError("need one multiplier per vector")
    if np.abs(a).max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError("multipliers must satisfy |alpha_j| <= 1")
    if mode == "exact" and np.iscomplexobj(a):
        raise ValueError("exact mode expects real multipliers")
    scaled = rad_p_norm(seq.scaled(a), p, mode, **kwargs)
    unscaled = rad_p_norm(seq, p, mode, **kwargs)
    return ContractionCheck(scaled <= unscaled + tol, scaled, unscaled)


def kahane_ratio(seq: VectorSeq, p: ExponentLike, q: ExponentLike,
                 mode: str = "exact", **kwargs) -> float:
    """Rad_p / Rad_q for the same sequence; reported, not asserted."""
    denom = rad_p_norm(seq, q, mode, **kwargs)
    if denom == 0.0:
        raise ValueError("Rad_q vanishes; all vectors are zero")
    return rad_p_norm(seq, p, mode, **kwargs) / denom
