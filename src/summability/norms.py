"""Sequence p-norms, mixed matrix norms, and weak norms of vector sequences.

A weak-l_p norm (p >= 1) is the operator norm of the sequence's coefficient
matrix on l_p' x l_s', computed by the supremum-over-balls kernel of
``forms``: exact where all but one slot has a finite norming set, for
weak-l_2 in l_2 and for sequences with at most one nonzero per vector or
per coordinate (unit vectors among them), and a multi-start alternating
lower bound otherwise. Every result carries an
``exact`` flag so downstream inequality checks know whether they hold a
certified value or a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ._codec import decode_values, encode_values
from ._signs import _ENUM_BUDGET, sign_count, sign_rows
from .spaces import INF, Exponent, ExponentLike, ScalarField, SpaceSpec

__all__ = ["lp_norm", "mixed_norm", "weak_lp_norm", "NormEstimate", "VectorSeq"]

# the l_1 and l_2 exponents, which the package tells by identity, and
# Littlewood's 4/3, made once: Exponent.of parses with Fraction arithmetic
_L1, _L2, _FOUR_THIRDS = Exponent.of(1), Exponent.of(2), Exponent.of("4/3")


def lp_norm(v, p: ExponentLike) -> float:
    """(sum |v_i|^p)^(1/p); max |v_i| for p = inf: :func:`_lp_rows` of the
    moduli of ``v`` in memory order, as one row.

    Defined for every p > 0; values with 0 < p < 1 are the usual p-norm
    expression (no triangle inequality implied).
    """
    a = np.abs(np.asarray(v)).astype(np.float64, copy=False)
    if a.size == 0:
        return 0.0
    return float(_lp_rows(a.ravel(order="K")[None], Exponent.of(p))[0])


@np.errstate(over="ignore", under="ignore", invalid="ignore")  # see _unit_scaled
def _lp_rows(a: np.ndarray, e: Exponent) -> np.ndarray:
    """The l_e norm of each row of a 2-d float64 array of moduli, the one l_p
    rule of sequences: the maximum or the sum of a row for e = inf or 1,
    otherwise the row scaled by its own power of two (:func:`_unit_scaled`),
    its powers summed by numpy's reduction, the root taken on a numpy float64
    scalar (numpy's array power differs in the last bit on some rows) and
    scaled back. Each is exact under scaling of the row by a power of two,
    barring under- and overflow."""
    if e.is_inf:
        return np.maximum.reduce(a, axis=1)
    if (pv := e.value) == 1.0:  # the general formula at p = 1, without the powers
        return np.add.reduce(a, axis=1)
    a, k = _unit_scaled(a, np.maximum.reduce(a, axis=1, keepdims=True, initial=0.0))
    return np.ldexp([s ** (1.0 / pv) for s in np.add.reduce(a ** pv, axis=1)], k[:, 0])


def _sum_class(n: int):
    """The lengths an axis of n entries can be zero-padded to without
    changing a bit of a numpy reduction along it: numpy adds fewer than 128
    entries in 8 interleaved partial sums over the first 8 * (n // 8), then
    the rest one by one, so the lengths n < 128 of one n // 8 form a class
    (a sequential sum, as along the middle axis of a stack, keeps its bits
    under any zero padding). A longer axis is a class of its own: numpy
    splits it in halves at a multiple of 8."""
    return n // 8 if n < 128 else (n,)


def _axis_norms(a: np.ndarray, e: Exponent, axis: int) -> np.ndarray:
    """l_e norms along ``axis`` of an array of moduli, for the kernel: roots
    by numpy's array power."""
    # the ufunc reductions, which a.max/a.sum wrap: this runs once per weak norm
    if e.is_inf:
        return np.maximum.reduce(a, axis=axis)
    pv = e.value
    if pv == 1.0:  # the general formula at pv = 1, without the powers
        return np.add.reduce(a, axis=axis)
    return np.add.reduce(a ** pv, axis=axis) ** (1.0 / pv)


def mixed_norm(M, p: ExponentLike, q: ExponentLike) -> float:
    """Outer p-norm over columns k of the inner q-norms over rows j.

    For a matrix m_jk this is (sum_k (sum_j |m_jk|^q)^(p/q))^(1/p), with the
    infinite exponents handled as suprema: :func:`_mixed_rows` of the moduli
    of ``M``, as a stack of one.
    """
    A = np.abs(np.asarray(M)).astype(np.float64, copy=False)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("mixed_norm expects a nonempty 2-d matrix")
    return float(_mixed_rows(A[None], Exponent.of(p), Exponent.of(q))[0])


@np.errstate(over="ignore", under="ignore", invalid="ignore")  # see _unit_scaled
def _mixed_rows(a: np.ndarray, p: Exponent, q: Exponent) -> np.ndarray:
    """The mixed norm of each matrix of a (T, rows, columns) float64 stack of
    moduli, the one mixed-norm rule: the matrix scaled by its own power of two
    (:func:`_unit_scaled`), its inner q-norms down each column, their
    :func:`_lp_rows` p-norm, scaled back. So a matrix keeps its bits in any
    stack, and under scaling by a power of two, barring under- and overflow."""
    a, k = _unit_scaled(a, np.maximum.reduce(a, axis=(1, 2), keepdims=True, initial=0.0))
    return np.ldexp(_lp_rows(_axis_norms(a, q, axis=1), p), k[:, 0, 0])


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with its provenance.

    Exact values come from norming-set or extreme-point enumeration and from
    closed forms (the largest singular value, Hölder's equality case).
    ``exact=False`` marks a lower bound by alternating maximization from grid
    or random starts, up to a few ulps of rounding: it is not certified.
    """

    value: float
    exact: bool
    witness: Any = None

    def __float__(self) -> float:
        return self.value


def _ldexp(a: np.ndarray, k) -> np.ndarray:
    """a * 2^k, exact for both parts of complex entries (barring underflow)."""
    if a.dtype.kind == "c":
        return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    return np.ldexp(a, k)


def _unit_scaled(a: np.ndarray, top):
    """``a`` divided by 2^k, the power of two that brings ``top`` into
    [1/2, 1), and k: ``top`` is the largest modulus of ``a``, or an array of
    them that broadcasts against it (one per row). k is 0 where ``top`` is 0,
    not finite or already in range. A positively homogeneous norm,
    f(c a) = c f(a) for c > 0, computed once on the scaled ``a`` and
    multiplied back by ``np.ldexp(value, k)`` (inf where that overflows) is
    exact under scaling of ``a`` by powers of two, barring underflow, and
    its largest powers and their sums stay far inside the float range."""
    k = np.frexp(top)[1]
    return _ldexp(a, -k), k


# lhs <= rhs * _SLACK passes a check lhs <= c * ||A|| (summing._status), a
# relative margin of 2^-46, 64 ulps of 1, that holds for every scale. With
# u = 2^-53 and ||A|| taken as computed, a true lhs <= rhs is computed at most
# (D + 20) u above rhs, relatively:
# - the l_p sum: each power |a_i|^p taken within 4 ulps (8 u); numpy's
#   reduction of N terms along a contiguous axis takes each through at most
#   D additions, D = 26 up to 128 terms (8 interleaved partial sums of up to
#   16 terms, 3 additions to join them, up to 7 left over, the first term
#   last) and one more per halving above, each within u of a sum of
#   nonnegative terms: (D + 8) u;
# - its root to 1/p <= 1 (p >= 1): that error times 1/p, and 4 ulps of its
#   own: (D + 16) u;
# - rhs = c * ||A||: c within 1 ulp (2 u), one product and the product by
#   _SLACK (u each): 4 u.
# 128 u covers an l_p sum of any length that fits in memory (D <= 66 for
# N <= 2^47). A mixed norm adds the errors of its two sums, and its inner
# sums run down the columns one row at a time (D = rows - 1): 128 u covers
# up to 64 rows and 128 columns. As the norms scale their input by a power
# of two before the powers (_unit_scaled), the computed lhs and rhs, and so
# the verdict, do not depend on the scale of the coefficients.
_SLACK = 1.0 + 2.0 ** -46


@dataclass
class VectorSeq:
    """A finite sequence of vectors in a common space; one vector per row."""

    vectors: np.ndarray
    space: SpaceSpec

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.vectors))
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        if arr.ndim != 2:
            raise ValueError("vectors must form a 2-d array (one vector per row)")
        if arr.shape[1] != self.space.dim:
            raise ValueError(
                f"vector length {arr.shape[1]} does not match space dimension "
                f"{self.space.dim}"
            )
        self.vectors = arr

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.vectors)

    @property
    def field(self) -> ScalarField:
        return ScalarField.COMPLEX if self.is_complex else ScalarField.REAL

    def scaled(self, coefficients) -> "VectorSeq":
        """Row-wise scaling (alpha_j x_j)_j."""
        c = np.asarray(coefficients)
        if c.shape != (self.length,):
            raise ValueError("need one coefficient per vector")
        return VectorSeq(self.vectors * c[:, None], self.space)

    def to_json(self) -> dict:
        return {
            "field": str(self.field),
            "dim": self.dim,
            "exponent": self.space.exponent.to_json(),
            "vectors": encode_values(self.vectors),
        }

    @classmethod
    def from_json(cls, data: dict) -> "VectorSeq":
        field = ScalarField(data["field"])
        space = SpaceSpec(int(data["dim"]), Exponent.of(data["exponent"]))
        vectors = decode_values(data["vectors"], field.is_complex)
        # at the file boundary only: the search loop builds sequences per trial
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors must be finite")
        return cls(vectors, space)


def weak_lp_norm(seq: VectorSeq, p: ExponentLike) -> NormEstimate:
    """sup over the dual unit ball of (sum_j |phi(x_j)|^p)^(1/p).

    For p >= 1 this is the norm of the coefficient matrix X (one row per
    vector) as a bilinear form on l_p'^J x l_s'^m, so the operator-norm
    kernel of ``forms`` computes it: exact on sup-norm spaces (coordinate
    functionals), on real l_1 spaces (sign functionals), for weak-l_1 in any
    real space (signs over the J slot), for weak-l_inf, for single vectors,
    for weak-l_2 in l_2 (the spectral norm) and for sequences with at most
    one nonzero in each vector or in each coordinate (Hölder's equality
    case: the unit vectors of l_s^m have weak-l_p norm
    m^max(0, 1/p - 1/s')); otherwise an alternating-maximization lower
    bound, started from the kernel's roots-of-unity grid for complex
    sequences where it fits and from the kernel's fixed random starts
    elsewhere. Weak norms carry no witness.

    For p < 1 (no longer a bilinear norm) the value is the best over the
    coordinate functionals of sup-norm spaces and the sign functionals of
    real l_1 spaces, or ||x||_s for a single vector, and is flagged exact
    although the supremum can lie off those vertices; in other spaces it is
    taken at the functional that maximizes the weak-l_1 norm and flagged as
    a lower bound.
    """
    pe = Exponent.of(p)
    X = seq.vectors
    if seq.length == 0:
        raise ValueError("empty sequence")
    s = seq.space.exponent

    if pe.recip.numerator <= pe.recip.denominator:  # p >= 1
        return forms._one(forms._ball_sup(X[None], (pe.dual, s.dual), witness=False))

    if s.is_inf or (s is _L1 and not seq.is_complex
                    and sign_count(seq.dim) <= _ENUM_BUDGET):
        V = X if s.is_inf else forms._contract_rows(X.T[None], sign_rows(seq.dim))[0]
        return NormEstimate(float(_axis_norms(np.abs(V), pe, axis=0).max()), True)
    if seq.length == 1:
        return NormEstimate(lp_norm(X[0], s), True)
    phi = forms._one(forms._ball_sup(X[None], (INF, s.dual))).witness[1]
    return NormEstimate(lp_norm(X @ phi, pe), False)


# The kernel lives in forms, which imports this module: bind it last, once
# the names forms needs exist (a per-call import costs a tenth of a weak norm).
from . import forms  # noqa: E402
