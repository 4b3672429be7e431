"""Dense multilinear forms: evaluation, operator norms, composition, currying.

A form is held as its coefficient tensor A(e_i1, ..., e_in). One kernel,
``_ball_sup``, computes the supremum of |form| over a product of unit balls;
it serves operator norms here and weak norms in ``norms`` (the weak-l_p norm
of a sequence in l_s is the norm of its coefficient matrix on l_p' x l_s').
It is exact when all slots but one have a finite norming set (basis vectors
of dim-1 and l_1 balls, sign vectors of real sup balls) and the remaining
slot is solved in closed form; otherwise multi-start alternating maximization
gives a lower bound. Every result is flagged with its provenance, and a
result that over- or underflowed is redone on rescaled coefficients.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass

import numpy as np

from ._codec import decode_values, encode_values
from ._signs import sign_matrix
from .norms import _SAFE_HIGH, _SAFE_LOW, NormEstimate, _axis_norms, _rescaled
from .spaces import Exponent, ScalarField, SpaceSpec

__all__ = ["FormTensor", "CurriedForm", "evaluate", "op_norm", "compose_beta", "curry"]

# default bound on the kernel's exact work, dim(free) * prod(candidate counts)
_ENUM_BUDGET = 1 << 22
# alternating-maximization sweeps per run
_SWEEPS = 200


@dataclass
class FormTensor:
    """An n-linear form on finite sequence spaces, as its coefficient tensor."""

    coeffs: np.ndarray
    domains: tuple[SpaceSpec, ...]
    field: ScalarField = ScalarField.REAL

    def __post_init__(self):
        self.domains = tuple(self.domains)
        arr = np.asarray(self.coeffs)
        if self.field.is_complex:
            arr = arr.astype(np.complex128)
        else:
            if np.iscomplexobj(arr):
                raise ValueError("real form with complex coefficients")
            arr = arr.astype(np.float64)
        if arr.shape != tuple(d.dim for d in self.domains):
            raise ValueError(
                f"coefficient shape {arr.shape} does not match domains "
                f"{tuple(d.dim for d in self.domains)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        self.coeffs = arr

    @property
    def order(self) -> int:
        return len(self.domains)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.coeffs.shape

    @classmethod
    def on_linf(cls, coeffs, field: ScalarField = ScalarField.REAL) -> "FormTensor":
        """Form on a product of sup-norm spaces sized from the array."""
        arr = np.asarray(coeffs)
        return cls(arr, tuple(SpaceSpec.linf(m) for m in arr.shape), field)

    def to_json(self) -> dict:
        return {
            "field": str(self.field),
            "dims": list(self.dims),
            "domain_exponents": [d.exponent.to_json() for d in self.domains],
            "coeffs": encode_values(self.coeffs.reshape(-1)),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FormTensor":
        field = ScalarField(data["field"])
        dims = [int(m) for m in data["dims"]]
        exponents = data.get("domain_exponents", ["inf"] * len(dims))
        if len(exponents) != len(dims):
            raise ValueError("domain_exponents must match dims")
        domains = tuple(
            SpaceSpec(m, Exponent.of(s)) for m, s in zip(dims, exponents)
        )
        flat = decode_values(data["coeffs"], field.is_complex)
        if flat.shape != (math.prod(dims),):
            raise ValueError("coeffs length does not match dims")
        return cls(flat.reshape(dims), domains, field)


def _contract_head(A: FormTensor, xs, count: int) -> np.ndarray:
    """Contract the first ``count`` slots of ``A`` with the vectors ``xs``."""
    if len(xs) != count:
        raise ValueError(f"expected {count} vectors, got {len(xs)}")
    t = A.coeffs
    for i, x in enumerate(xs):
        v = np.asarray(x)
        if v.shape != (A.dims[i],):
            raise ValueError(f"slot {i}: vector shape {v.shape} != ({A.dims[i]},)")
        t = np.tensordot(t, v, axes=([0], [0]))
    return t


def evaluate(A: FormTensor, xs) -> float | complex:
    """Contract the coefficient tensor with one vector per slot."""
    t = _contract_head(A, xs, A.order)
    return complex(t) if np.iscomplexobj(t) else float(t)


def compose_beta(beta, a) -> np.ndarray:
    """Matrix product (beta o a)_jk = sum_l beta_jl a_lk."""
    b = np.asarray(beta)
    m = np.asarray(a)
    if b.ndim != 2 or m.ndim != 2:
        raise ValueError("compose_beta expects two matrices")
    if b.shape[1] != m.shape[0]:
        raise ValueError(f"inner dimensions disagree: {b.shape} vs {m.shape}")
    return b @ m


def op_norm(
    A: FormTensor,
    *,
    budget: int = _ENUM_BUDGET,
    starts: int = 32,
    seed: int = 0,
    allow_heuristic: bool = True,
) -> NormEstimate:
    """Supremum of |A(x1, ..., xn)| over the product of unit balls.

    Exact when every slot but one has a finite norming set (see
    :func:`_ball_sup`) and the enumeration fits in ``budget``; otherwise
    multi-start alternating maximization, flagged ``exact=False``.
    """
    balls = tuple(d.exponent for d in A.domains)
    return _ball_sup(A.coeffs, balls, budget=budget, starts=starts, seed=seed,
                     allow_heuristic=allow_heuristic)


def _candidate_count(dim: int, ball: Exponent, is_complex: bool) -> int | None:
    """Extreme points enumerated for one slot, or None when it has no finite set.

    Basis vectors (count ``dim``) norm a dim-1 ball and an l_1 ball of either
    field, their phases being absorbed by |.|; sign vectors (count 2^dim)
    norm a real sup ball.
    """
    if dim == 1 or ball.recip == 1:
        return dim
    if ball.is_inf and not is_complex:
        return 1 << dim
    return None


def _contract_signs(t: np.ndarray) -> np.ndarray:
    """Contract axis 0 of ``t`` with every sign vector; the sign axis goes last."""
    dim = t.shape[0]
    signs = _sign_rows(dim)
    moved = t.transpose(tuple(range(1, t.ndim)) + (0,))
    return (moved.reshape(-1, dim) @ signs.T).reshape(moved.shape[:-1] + (len(signs),))


def _sign_rows(dim: int) -> np.ndarray:
    """All 2^dim sign vectors; the small tables are kept, read-only."""
    return _small_sign_rows(dim) if dim <= 12 else sign_matrix(dim)


@functools.lru_cache(maxsize=None)
def _small_sign_rows(dim: int) -> np.ndarray:
    rows = sign_matrix(dim)
    rows.setflags(write=False)
    return rows


def _candidate(dim: int, count: int, k: int) -> np.ndarray:
    """Extreme point ``k`` of a slot with ``count`` of them: a basis or sign vector."""
    if count == dim:
        e = np.zeros(dim)
        e[k] = 1.0
        return e
    return _sign_rows(dim)[k].copy()


def _ball_sup(
    coeffs: np.ndarray,
    balls: tuple[Exponent, ...],
    *,
    budget: int = _ENUM_BUDGET,
    starts: int = 32,
    seed: int = 0,
    allow_heuristic: bool = True,
    witness: bool = True,
) -> NormEstimate:
    """sup |sum a_(i1..in) x1_i1 ... xn_in| over x_k in the unit ball of l_(balls[k]).

    Exact path: every slot but one ("free") is enumerated over its extreme
    points (:func:`_candidate_count`), and the free slot contributes the
    dual norm of the partial contraction in closed form. The free slot is
    the one with the least work, dim(free) * prod(candidate counts of the
    others), the lowest index on ties. Contraction with basis vectors is
    indexing, so only sign slots are contracted. Without such a plan inside
    ``budget``, multi-start alternating maximization returns a lower bound.
    The witness is the tuple of maximizing vectors, one per slot; callers
    that do not need it pass ``witness=False`` and get None.
    The field is that of the array: forms and sequences hold complex data as
    complex128 exactly when their field is complex. A value that is 0, not
    finite or outside [2^-500, 2^500] is computed again on the coefficients
    scaled by a power of two (:func:`norms._rescaled`); in range that costs
    one comparison.
    """
    est = _ball_sup_unscaled(coeffs, balls, budget, starts, seed, allow_heuristic,
                             witness)
    if _SAFE_LOW <= est.value <= _SAFE_HIGH:
        return est
    return _rescaled(est, lambda c: _ball_sup_unscaled(
        c, balls, budget, starts, seed, allow_heuristic, witness), coeffs)


def _ball_sup_unscaled(coeffs, balls, budget, starts, seed, allow_heuristic,
                       witness) -> NormEstimate:
    is_complex = coeffs.dtype.kind == "c"
    dims = coeffs.shape
    counts = [_candidate_count(m, b, is_complex) for m, b in zip(dims, balls)]
    free, least = None, budget + 1
    for i, m in enumerate(dims):
        rest = counts[:i] + counts[i + 1:]
        if None not in rest:
            work = m * math.prod(rest)
            if work < least:
                free, least = i, work
    if free is None:
        if not allow_heuristic:
            raise ValueError("no exact enumeration within the budget and "
                             "heuristic fallback disabled")
        est = _ball_sup_alternating(coeffs, balls, is_complex, starts=starts,
                                    seed=seed)
        return est if witness else NormEstimate(est.value, False)

    basis, signed = [], []
    for i, k in enumerate(counts):
        if i != free:
            (basis if k == dims[i] else signed).append(i)
    # (the order is already the identity when slot 0 is free and no slot
    # needs signs, the usual weak-norm case)
    t = coeffs.transpose(signed + [free] + basis) if signed or free else coeffs
    for _ in signed:
        t = _contract_signs(t)
    # t now has shape (m_free, basis dims..., sign counts...); the free slot
    # is closed form
    values = _axis_norms(np.abs(t), balls[free].dual, axis=0)
    flat = int(values.argmax())
    if not witness:
        return NormEstimate(values.item(flat), True)

    combo = np.unravel_index(flat, values.shape) if values.ndim else ()
    vectors = [None] * len(dims)
    for slot, k in zip(basis + signed, combo):
        vectors[slot] = _candidate(dims[slot], counts[slot], int(k))
    partial = t[(slice(None),) + tuple(combo)]
    vectors[free] = _dual_step(partial[None, :], balls[free])[0]
    return NormEstimate(values.item(flat), True, witness=tuple(vectors))


def _gaussian(rng: np.random.Generator, shape, is_complex: bool) -> np.ndarray:
    """Standard normal entries; complex ones draw all real parts, then all imaginary parts."""
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if is_complex else g


def _polar(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|a|, u) with a = |a| u and |u| = 1: u = 1 where a = 0; real u is -1
    where a < 0 and +1 elsewhere."""
    mag = np.abs(a)
    if a.dtype.kind == "c":
        return mag, np.where(mag == 0, 1.0 + 0j, a / np.where(mag == 0, 1.0, mag))
    return mag, np.where(a < 0, -1.0, 1.0)


def _batch_contract(coeffs: np.ndarray, vectors, keep=()) -> np.ndarray:
    """Contract slot i with the batch vectors[i] of shape (S, m_i) for every
    i not in ``keep``; the result has shape (S, m_k for k in keep)."""
    subs, contracted = _contraction(coeffs.ndim, tuple(keep))
    return np.einsum(subs, coeffs, *[vectors[i] for i in contracted])


@functools.lru_cache(maxsize=None)
def _contraction(n: int, keep: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """einsum subscripts of :func:`_batch_contract`, and the contracted slots."""
    ls = string.ascii_lowercase[:n]
    contracted = tuple(i for i in range(n) if i not in keep)
    inputs = ",".join([ls] + ["S" + ls[i] for i in contracted])
    return inputs + "->S" + "".join(ls[k] for k in keep), contracted


def _dual_step(c: np.ndarray, s: Exponent) -> np.ndarray:
    """Batched closed-form maximizer of |<c, x>| over the l_s unit ball, per row."""
    mag, phase = _polar(c)
    if c.dtype.kind == "c":
        phase = np.conj(phase)
    if s.is_inf:
        return phase
    if s.recip == 1:
        out = np.zeros_like(c)
        rows = np.arange(c.shape[0])
        cols = np.argmax(mag, axis=1)
        out[rows, cols] = phase[rows, cols]
        return out
    sd = s.dual
    w = mag ** (sd.value / s.value)
    nrm = _axis_norms(w, s, axis=1)
    nrm = np.where(nrm == 0, 1.0, nrm)
    out = phase * w / nrm[:, None]
    dead = (mag.sum(axis=1) == 0)
    if np.any(dead):
        out[dead] = 0
        out[dead, 0] = 1.0
    return out


def _ball_sup_alternating(coeffs: np.ndarray, balls: tuple[Exponent, ...],
                          is_complex: bool, *, starts: int, seed: int) -> NormEstimate:
    rng = np.random.default_rng(seed)
    S = max(2, starts)

    vectors = []
    argmax_idx = np.unravel_index(int(np.argmax(np.abs(coeffs))), coeffs.shape)
    for i, (m, s) in enumerate(zip(coeffs.shape, balls)):
        V = _gaussian(rng, (S, m), is_complex)
        V[0] = 1.0  # flat start
        V[1] = 0.0
        V[1, argmax_idx[i]] = 1.0  # largest-coefficient start
        nrm = np.maximum(_axis_norms(np.abs(V), s, axis=1), 1e-300)
        vectors.append(V / nrm[:, None])

    prev = np.zeros(S)
    values = prev
    for _ in range(_SWEEPS):
        for i, s in enumerate(balls):
            c = _batch_contract(coeffs, vectors, keep=(i,))
            vectors[i] = _dual_step(c, s)
        values = np.abs(_batch_contract(coeffs, vectors))
        gain = float((values - prev).max())
        prev = np.maximum(prev, values)
        if gain <= 1e-12 * max(float(prev.max()), 1e-300):
            break
    k = int(np.argmax(prev))
    witness = tuple(v[k] for v in vectors)
    return NormEstimate(float(prev[k]), False, witness=witness)


@dataclass
class CurriedForm:
    """A form viewed as a k-linear map into the forms on the remaining slots."""

    base: FormTensor
    k: int

    @property
    def tail_domains(self) -> tuple[SpaceSpec, ...]:
        return self.base.domains[self.k:]

    def apply(self, xs) -> FormTensor:
        """Evaluate the head on k vectors; the result is the tail form."""
        t = _contract_head(self.base, xs, self.k)
        field = ScalarField.COMPLEX if np.iscomplexobj(t) else self.base.field
        return FormTensor(t, self.tail_domains, field)

    def uncurry(self) -> FormTensor:
        """The inverse view; currying is a lossless reshape."""
        return self.base


def curry(A: FormTensor, k: int) -> CurriedForm:
    """Split the first k slots off as the head of an operator-valued map."""
    if not 1 <= k < A.order:
        raise ValueError(f"k must satisfy 1 <= k < {A.order}, got {k}")
    return CurriedForm(A, k)
