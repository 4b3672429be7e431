"""Sequence p-norms, mixed matrix norms, and weak norms of vector sequences.

A weak-l_p norm (p >= 1) is the operator norm of the sequence's coefficient
matrix on l_p' x l_s', computed by the supremum-over-balls kernel of
``forms``: exact where all but one slot has a finite norming set, and a
multi-start alternating lower bound otherwise. Every result carries an
``exact`` flag so downstream inequality checks know whether they hold a
certified value or a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ._codec import decode_values, encode_values
from .spaces import INF, Exponent, ExponentLike, ScalarField, SpaceSpec

__all__ = ["lp_norm", "mixed_norm", "weak_lp_norm", "NormEstimate", "VectorSeq"]


def lp_norm(v, p: ExponentLike) -> float:
    """(sum |v_i|^p)^(1/p); max |v_i| for p = inf.

    Defined for every p > 0; values with 0 < p < 1 are the usual p-norm
    expression (no triangle inequality implied).
    """
    a = np.abs(np.asarray(v))
    if a.size == 0:
        return 0.0
    return float(_axis_norms(a.astype(np.float64, copy=False), Exponent.of(p), None))


def _axis_norms(a: np.ndarray, e: Exponent, axis: int | None) -> np.ndarray:
    """l_e norms along ``axis`` (all axes for None) of an array of moduli.

    Every l_s norm of the package is taken here.
    """
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
    infinite exponents handled as suprema.
    """
    pe, qe = Exponent.of(p), Exponent.of(q)
    A = np.abs(np.asarray(M))
    if A.ndim != 2 or A.size == 0:
        raise ValueError("mixed_norm expects a nonempty 2-d matrix")
    inner = _axis_norms(A.astype(np.float64), qe, axis=0)
    return lp_norm(inner, pe)


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with its provenance.

    ``exact=False`` marks a certified lower bound obtained by alternating
    maximization; exact values come from norming-set or extreme-point
    enumeration.
    """

    value: float
    exact: bool
    witness: Any = None

    def __float__(self) -> float:
        return self.value


# results outside [2^-500, 2^500] may have lost digits to over- or underflow
_SAFE_LOW, _SAFE_HIGH = 2.0 ** -500, 2.0 ** 500


def _ldexp(a: np.ndarray, k: int) -> np.ndarray:
    """a * 2^k, exact for both parts of complex entries (barring underflow)."""
    if a.dtype.kind == "c":
        return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
    return np.ldexp(a, k)


def _rescaled(result, fn, a: np.ndarray):
    """``result`` = fn(a), computed again on ``a`` scaled by a power of two.

    Callers pass a result that is 0, not finite or outside [2^-500, 2^500]:
    for a nonzero finite ``a`` it may have lost its digits to over- or
    underflow in an intermediate step. fn must be positively homogeneous,
    fn(c a) = c fn(a) for c > 0, as every norm of a form or of a sum of
    vectors is. It runs on ``a`` times the power of two that brings max |a|
    into [1/2, 1), and its value is scaled back (to inf if it does not fit
    in a float). Results are floats or NormEstimates.
    """
    a = np.asarray(a)
    # the exponent is 0 for a zero, non-finite or already scaled array
    shift = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    if shift == 0:
        return result
    result = fn(_ldexp(a, -shift))
    try:
        value = math.ldexp(getattr(result, "value", result), shift)
    except OverflowError:
        value = math.inf
    if isinstance(result, NormEstimate):
        return NormEstimate(value, result.exact, result.witness)
    return value


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


def weak_lp_norm(
    seq: VectorSeq,
    p: ExponentLike,
    *,
    starts: int = 32,
    seed: int = 0,
    method: str = "auto",
) -> NormEstimate:
    """sup over the dual unit ball of (sum_j |phi(x_j)|^p)^(1/p).

    For p >= 1 this is the norm of the coefficient matrix X (one row per
    vector) as a bilinear form on l_p'^J x l_s'^m, so the operator-norm
    kernel of ``forms`` computes it: exact on sup-norm spaces (coordinate
    functionals), on real l_1 spaces (sign functionals), for weak-l_1 in any
    real space (signs over the J slot), for weak-l_inf and for single
    vectors; otherwise an alternating-maximization lower bound.
    ``method="ascent"`` forces the alternating path. Weak norms carry no
    witness.

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
    if method not in ("auto", "ascent"):
        raise ValueError(f"unknown method {method!r}")
    s = seq.space.exponent
    budget = forms._ENUM_BUDGET if method == "auto" else 0

    if pe.recip.numerator <= pe.recip.denominator:  # p >= 1
        return forms._ball_sup(X, (pe.dual, s.dual), budget=budget,
                               starts=starts, seed=seed, witness=False)

    if method == "auto":
        if s.is_inf or (s.recip == 1 and not seq.is_complex
                        and (1 << seq.dim) <= budget):
            V = X if s.is_inf else forms._contract_signs(X.T)
            return NormEstimate(float(_axis_norms(np.abs(V), pe, axis=0).max()), True)
        if seq.length == 1:
            return NormEstimate(lp_norm(X[0], s), True)
    phi = forms._ball_sup(X, (INF, s.dual), budget=budget, starts=starts,
                          seed=seed).witness[1]
    return NormEstimate(lp_norm(X @ phi, pe), False)


# The kernel lives in forms, which imports this module: bind it last, once
# the names forms needs exist (a per-call import costs a tenth of a weak norm).
from . import forms  # noqa: E402
