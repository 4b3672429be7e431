"""Dense multilinear forms: evaluation, operator norms, composition, currying.

A form is held as its coefficient tensor A(e_i1, ..., e_in). One kernel,
``_ball_sup``, computes the supremum of |form| over a product of unit balls;
it serves operator norms here and weak norms in ``norms`` (the weak-l_p norm
of a sequence in l_s is the norm of its coefficient matrix on l_p' x l_s').
It is exact when all slots but one have a finite norming set (basis vectors
of dim-1 and l_1 balls, sign vectors of real sup balls) and the remaining
slot is solved in closed form; otherwise multi-start alternating maximization
gives a lower bound. Every result is flagged with its provenance.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass

import numpy as np

from ._codec import decode_exponent, decode_values, encode_exponent, encode_values
from ._signs import sign_matrix
from .norms import NormEstimate, _axis_norms
from .spaces import Exponent, ScalarField, SpaceSpec

__all__ = ["FormTensor", "CurriedForm", "evaluate", "op_norm", "compose_beta", "curry"]


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
            "domain_exponents": [encode_exponent(d.exponent) for d in self.domains],
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
            SpaceSpec(m, decode_exponent(s)) for m, s in zip(dims, exponents)
        )
        flat = decode_values(data["coeffs"], field.is_complex)
        if flat.shape[0] != int(np.prod(dims)):
            raise ValueError("coeffs length does not match dims")
        return cls(flat.reshape(dims), domains, field)


def evaluate(A: FormTensor, xs) -> float | complex:
    """Contract the coefficient tensor with one vector per slot."""
    if len(xs) != A.order:
        raise ValueError(f"expected {A.order} vectors, got {len(xs)}")
    t = A.coeffs
    for i, x in enumerate(xs):
        v = np.asarray(x)
        if v.shape != (A.dims[i],):
            raise ValueError(f"slot {i}: vector shape {v.shape} != ({A.dims[i]},)")
        t = np.tensordot(t, v, axes=([0], [0]))
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
    budget: int = 1 << 22,
    starts: int = 32,
    seed: int = 0,
    sweeps: int = 200,
    allow_heuristic: bool = True,
) -> NormEstimate:
    """Supremum of |A(x1, ..., xn)| over the product of unit balls.

    Exact when every slot but one has a finite norming set (see
    :func:`_ball_sup`) and the enumeration fits in ``budget``; otherwise
    multi-start alternating maximization, flagged ``exact=False``.
    """
    balls = tuple(d.exponent for d in A.domains)
    return _ball_sup(A.coeffs, balls, budget=budget, starts=starts, seed=seed,
                     sweeps=sweeps, allow_heuristic=allow_heuristic)


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
    budget: int = 1 << 22,
    starts: int = 32,
    seed: int = 0,
    sweeps: int = 200,
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
    complex128 exactly when their field is complex.
    """
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
                                    seed=seed, sweeps=sweeps)
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
    vectors[free] = _dual_step(partial[None, :], balls[free], is_complex)[0]
    return NormEstimate(values.item(flat), True, witness=tuple(vectors))


def _letters(n: int) -> list[str]:
    return list(string.ascii_lowercase[:n])


def _batch_contract(coeffs: np.ndarray, vectors: list[np.ndarray],
                    skip: int | None = None) -> np.ndarray:
    """Contract every slot except ``skip`` with batched vectors (S, m_i)."""
    n = coeffs.ndim
    ls = _letters(n)
    operands = [coeffs]
    subs = ["".join(ls)]
    for i in range(n):
        if i == skip:
            continue
        operands.append(vectors[i])
        subs.append("S" + ls[i])
    out = "S" if skip is None else "S" + ls[skip]
    return np.einsum(",".join(subs) + "->" + out, *operands)


def _dual_step(c: np.ndarray, s: Exponent, is_complex: bool) -> np.ndarray:
    """Batched closed-form maximizer of |<c, x>| over the l_s unit ball, per row."""
    mag = np.abs(c)
    if is_complex:
        phase = np.where(mag == 0, 1.0 + 0j, np.conj(c) / np.where(mag == 0, 1.0, mag))
    else:
        phase = np.where(c >= 0, 1.0, -1.0)
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
    nrm = (w ** s.value).sum(axis=1) ** (1.0 / s.value)
    nrm = np.where(nrm == 0, 1.0, nrm)
    out = phase * w / nrm[:, None]
    dead = (mag.sum(axis=1) == 0)
    if np.any(dead):
        out[dead] = 0
        out[dead, 0] = 1.0
    return out


def _ball_sup_alternating(coeffs: np.ndarray, balls: tuple[Exponent, ...],
                          is_complex: bool, *, starts: int, seed: int,
                          sweeps: int) -> NormEstimate:
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if is_complex else np.float64
    S = max(2, starts)

    vectors = []
    argmax_idx = np.unravel_index(int(np.argmax(np.abs(coeffs))), coeffs.shape)
    for i, (m, s) in enumerate(zip(coeffs.shape, balls)):
        V = rng.standard_normal((S, m))
        if is_complex:
            V = V + 1j * rng.standard_normal((S, m))
        V = V.astype(dtype)
        V[0] = 1.0  # flat start
        V[1] = 0.0
        V[1, argmax_idx[i]] = 1.0  # largest-coefficient start
        nrm = np.array([max(_ball_norm(v, s), 1e-300) for v in V])
        vectors.append(V / nrm[:, None])

    prev = np.zeros(S)
    values = prev
    for _ in range(sweeps):
        for i, s in enumerate(balls):
            c = _batch_contract(coeffs, vectors, skip=i)
            vectors[i] = _dual_step(c, s, is_complex)
        values = np.abs(_batch_contract(coeffs, vectors))
        gain = float((values - prev).max())
        prev = np.maximum(prev, values)
        if gain <= 1e-12 * max(float(prev.max()), 1e-300):
            break
    k = int(np.argmax(prev))
    witness = tuple(v[k] for v in vectors)
    return NormEstimate(float(prev[k]), False, witness=witness)


def _ball_norm(v: np.ndarray, s: Exponent) -> float:
    a = np.abs(v)
    if s.is_inf:
        return float(a.max())
    return float((a ** s.value).sum() ** (1.0 / s.value))


@dataclass
class CurriedForm:
    """A form viewed as a k-linear map into the forms on the remaining slots."""

    base: FormTensor
    k: int

    @property
    def head_domains(self) -> tuple[SpaceSpec, ...]:
        return self.base.domains[: self.k]

    @property
    def tail_domains(self) -> tuple[SpaceSpec, ...]:
        return self.base.domains[self.k:]

    def apply(self, xs) -> FormTensor:
        """Evaluate the head on k vectors; the result is the tail form."""
        if len(xs) != self.k:
            raise ValueError(f"expected {self.k} head vectors, got {len(xs)}")
        t = self.base.coeffs
        for i, x in enumerate(xs):
            v = np.asarray(x)
            if v.shape != (self.base.dims[i],):
                raise ValueError(f"head slot {i}: bad vector shape {v.shape}")
            t = np.tensordot(t, v, axes=([0], [0]))
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
