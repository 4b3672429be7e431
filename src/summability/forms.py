"""Dense multilinear forms: evaluation, operator norms, composition, currying.

A form is held as its coefficient tensor A(e_i1, ..., e_in). One kernel,
``_ball_sup``, computes the supremum of |form| over a product of unit balls
for a batch of arrays, of one shape or of several; it serves operator norms
here and weak norms in ``norms`` (the weak-l_p norm of a sequence in l_s is
the norm of its coefficient matrix on l_p' x l_s'). One plan per shape and
field (:func:`_plan`) names the method that solves it: ``enumeration`` of
finite norming sets and ``l2-pair`` (the largest singular value) are exact;
``grid``, the best points of a roots-of-unity grid on complex sup slots, and
``random``, random starts, are lower bounds polished by alternating
maximization. Under the last two, a two-slot array with at most one nonzero
in every row, or every column, is exact all the same (Hölder's equality
case), as for the unit vectors of the search's structured families. The
alternating maximization of all inexact items of a call runs on one batch
axis, and each item gets the bits it gets alone. An item stops after the
first sweep in which its running best over all its starts gains at most
1e-12 relative, however much a lower start still climbs; an item given a
floor stops early once its grid maximum or its running best reaches it. Its
sweeps contract each slot by one batched matmul with the starts as the
output columns, and take a sweep's value as the dual norm of its last
partial contraction (see :func:`_ascend`). Every result is flagged with its
provenance, and a result that over- or underflowed is redone on rescaled
coefficients.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

try:  # np.einsum without its dispatch layer, which costs as much as a small contraction
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    _einsum = np.einsum

from ._codec import decode_values, encode_values
from ._signs import _ENUM_BUDGET, sign_count, sign_rows
from .norms import _L1, _L2, NormEstimate, _axis_norms, _ldexp, _sum_class, _unit_scaled
from .spaces import Exponent, ScalarField, SpaceSpec

__all__ = ["FormTensor", "CurriedForm", "evaluate", "op_norm", "compose_beta", "curry"]

# alternating-maximization sweeps per run
_SWEEPS = 200
# a complex sup slot is enumerated over the vectors of _PHASES-th roots of unity
_PHASES = 8
# the most work, dim(free) * prod(candidate counts), of a grid plan
_GRID_CAP = 1 << 17
# the best grid points of each item that start the alternating maximizer
_GRID_STARTS = 8
# the random starts, drawn from seed 0, of an inexact item of a random plan
_STARTS = 32
# 1 / |a| overflows at and below this modulus
_PHASE_LOW = 2.0 ** -1024
# a value outside [2^-500, 2^500] may have lost digits to over- or underflow
_SAFE_LOW, _SAFE_HIGH = 2.0 ** -500, 2.0 ** 500
# the most S * prod(dims) of a padded batch of the alternating maximizer:
# beyond it padding costs more arithmetic than the calls it saves
_PAD_WORK = 1 << 12
# einsum subscripts of the slots; S is the batch axis of _batch_contract
_SLOTS = string.ascii_letters.replace("S", "")
_NONE = np.empty(0, int)


@dataclass
class FormTensor:
    """An n-linear form on finite sequence spaces, as its coefficient tensor."""

    coeffs: np.ndarray
    domains: tuple[SpaceSpec, ...]
    field: ScalarField = ScalarField.REAL

    def __post_init__(self):
        self.domains = tuple(self.domains)
        if not self.domains:
            raise ValueError("a form needs at least one slot")
        if len(self.domains) > len(_SLOTS):
            raise ValueError(f"a form has at most {len(_SLOTS)} slots, got {len(self.domains)}")
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
    """Contract the first ``count`` slots of ``A`` with the vectors ``xs``,
    one per slot and of its dim, as a batch of one (:func:`_batch_contract`)."""
    if len(xs) != count:
        raise ValueError(f"expected {count} vectors, got {len(xs)}")
    for i, x in enumerate(xs):
        if np.shape(x) != (A.dims[i],):
            raise ValueError(f"slot {i}: vector shape {np.shape(x)} != ({A.dims[i]},)")
    return _batch_contract(A.coeffs, [np.asarray(x)[None] for x in xs],
                           keep=range(count, A.order))[0]


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


def op_norm(A: FormTensor) -> NormEstimate:
    """Supremum of |A(x1, ..., xn)| over the product of unit balls.

    Exact where the plan of its shape (:func:`_plan`) is ``enumeration`` or
    ``l2-pair``, and for two slots with at most one nonzero in every row or
    every column (:func:`_closed_form`); otherwise, under ``grid`` or
    ``random``, a lower bound flagged ``exact=False``.
    """
    balls = tuple(d.exponent for d in A.domains)
    return _one(_ball_sup(A.coeffs[None], balls))


def _contract_rows(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Contract axis 1 of a stack ``t`` with every row of ``rows``; the row axis goes last."""
    dim = t.shape[1]
    moved = t.transpose((0,) + tuple(range(2, t.ndim)) + (1,))
    return (moved.reshape(-1, dim) @ rows.T).reshape(moved.shape[:-1] + (len(rows),))


def _rows(dim: int, is_complex: bool) -> np.ndarray:
    """The enumerated vectors of a sup slot: phase vectors for complex, sign vectors for real."""
    return _phase_rows(dim) if is_complex else sign_rows(dim)


@functools.lru_cache(maxsize=None)  # _GRID_CAP bounds the dims
def _phase_rows(dim: int) -> np.ndarray:
    """All _PHASES^(dim-1) vectors (1, w_2, ..., w_dim) of _PHASES-th roots of
    unity, the last coordinate fastest; read-only."""
    roots = np.exp(2j * np.pi * np.arange(_PHASES) / _PHASES)
    powers = np.indices((_PHASES,) * (dim - 1)).reshape(dim - 1, -1).T
    rows = np.concatenate([np.ones((len(powers), 1), complex), roots[powers]], axis=1)
    rows.setflags(write=False)
    return rows


class _Plan(NamedTuple):
    """How :func:`_ball_sup` solves arrays of one shape and field (see
    :func:`_plan`); the enumeration fields are those of ``enumeration`` and
    ``grid`` plans."""

    method: str
    dims: tuple[int, ...]
    free: int | None = None
    basis: tuple[int, ...] = ()
    contracted: tuple[int, ...] = ()
    order: tuple[int, ...] = ()
    chunk: int = 0
    stack_key: tuple | None = None


@np.errstate(over="ignore", under="ignore", invalid="ignore")  # see the range check
def _ball_sup(
    items,
    balls: tuple[Exponent, ...],
    *,
    witness: bool = True,
) -> tuple[np.ndarray, list[bool], list | None]:
    """sup |sum a_(i1..in) x1_i1 ... xn_in| over x_k in the unit ball of
    l_(balls[k]), for each array a of ``items``: a stack of shape (T, *dims),
    a list of T arrays of one order whose shapes and dtypes may differ, or a
    list of such stacks, whose T items are those of the first stack, then of
    the second, and so on. A stack is solved as it is, without a copy (the
    seeded verify suites pass a chunk's stacks, one per shape); the arrays
    of a list are stacked per shape and dtype first.

    Each shape and field is solved by the method of its plan (:func:`_plan`).
    ``enumeration`` runs on the items of a stack together, at most
    ``_ENUM_BUDGET`` units of work at a time, and ``l2-pair`` in one SVD
    call. Under ``grid`` and ``random`` the items that :func:`_closed_form`
    solves are exact; each other item gets its starts and, under ``grid``,
    its grid maximum as the value to beat. The alternating maximization of
    all inexact items runs on one batch axis (:func:`_polish`), one batched
    matmul per slot and sweep (:func:`_ascend`); a sweep's value is the dual
    norm of its last partial contraction, so a polished value equals
    |A(witness)| up to a few ulps. Each item gets the value it gets alone.
    Returns the T values, per item whether its value is exact, and per item
    the maximizing vectors (None for ``witness=False``). An item's field is
    its dtype's (complex128 exactly for complex data). It runs with numpy's
    over-, underflow and invalid-value warnings off: a value that is 0, not
    finite or outside [2^-500, 2^500] is computed again, alone, on its item
    scaled by a power of two (:func:`norms._unit_scaled`) and scaled back.
    The two halves, :func:`_ball_sup_start` and :func:`_ball_sup_end`, let a
    caller read each item's exact value or grid maximum (:func:`_lower_bounds`)
    before it sets floors.
    """
    return _ball_sup_end(_ball_sup_start(items, balls, witness))


class _Started(NamedTuple):
    """A batch of :func:`_ball_sup` up to the alternating maximizer: its
    items as :func:`_by_shape` groups them, its other arguments, its result
    (values, exact flags, witnesses), which holds every exact value and grid
    maximum and 0 for the other items, and a job (index, array, start
    vectors) per inexact item."""

    groups: tuple
    balls: tuple
    witness: bool
    result: tuple
    jobs: list


def _ball_sup_start(items, balls, witness=True) -> _Started:
    """The first half of :func:`_ball_sup`: per shape its plan, then the
    values of the exact methods and of the closed forms, and the starts of
    every other item. It runs in the caller's numpy error state, which should
    be that of :func:`_ball_sup`."""
    T, groups = _by_shape(items, len(balls))
    result, jobs = (np.zeros(T), [True] * T, [None] * T), []
    for idx, stack in groups:
        plan = _plan(stack.shape[1:], balls, stack.dtype.kind == "c")
        if plan.method == "enumeration":
            for lo in range(0, len(stack), plan.chunk):  # at most _ENUM_BUDGET work at a time
                t, points = _enumerate(stack[lo:lo + plan.chunk], balls, plan)
                _put(result, idx[lo:lo + plan.chunk], np.maximum.reduce(points, axis=1), [
                    tuple(v[0] for v in _grid_points(tk, [flat], plan, balls))
                    for tk, flat in zip(t, points.argmax(axis=1))] if witness else None)
        elif plan.method == "l2-pair":
            found = None
            if witness:
                u, _, vh = np.linalg.svd(stack)
                found = list(zip(u[:, :, 0].conj(), vh[:, 0].conj()))
            _put(result, idx, np.linalg.svd(stack, compute_uv=False)[:, 0], found)
        else:
            at, values, found = _closed_form(stack, balls, witness)
            if len(at):
                _put(result, idx[at], values, found)
                rest = np.ones(len(stack), bool)
                rest[at] = False
                idx, stack = idx[rest], stack[rest]
            for k, a in zip(idx.tolist(), stack):
                result[1][k] = False
                vectors, result[0][k], result[2][k] = _starts(a, balls, plan)
                jobs.append((k, a, vectors))
    return _Started(groups, balls, witness, result, jobs)


def _put(result, idx, values, found) -> None:
    """Write the values and witnesses (None for ``witness=False``) of the
    items ``idx`` (an index array) into a result."""
    result[0][idx] = values
    for k, w in zip(idx.tolist(), found or ()):
        result[2][k] = w


def _lower_bounds(started: _Started) -> np.ndarray:
    """Per item of a started batch, a number that its :func:`_ball_sup_end`
    value is at least, whatever the floors: its exact value, or the grid
    maximum of an inexact item of a ``grid`` plan (:func:`_plan`); 0 for an
    inexact item of a ``random`` plan and where that number is outside
    [2^-500, 2^500], as the value may be computed again on rescaled
    coefficients."""
    values = started.result[0]
    return np.where(_out_of_range(values), 0.0, values)


def _out_of_range(values: np.ndarray) -> np.ndarray:
    """Per value, whether it lies outside [2^-500, 2^500] or is NaN: whether
    clamping it to that range (which keeps a NaN) changes it."""
    return np.minimum(np.maximum(values, _SAFE_LOW), _SAFE_HIGH) != values


def _ball_sup_end(started: _Started, floors=None):
    """The second half of :func:`_ball_sup`: the alternating maximization of
    the started batch, with ``floors``, then the rescaled computation of every
    value out of range, without them; it fills the batch's result, so a
    batch is ended once. It runs in the caller's numpy error state, which
    should be that of :func:`_ball_sup`.

    ``floors`` (one per item, or None) lets an item whose value only matters
    below some level stop early: an inexact item leaves the alternating
    maximizer after the first sweep whose running best reaches its floor
    (:func:`_ascend`), and a ``grid`` item whose grid maximum reaches it is
    not polished. An item that stops early gets a value at least its floor
    and at most its value without one. Exact methods and closed forms ignore
    floors, and so does the computation again of a value out of range, by
    :func:`_ball_sup`; that item, and an item that never reaches its floor,
    keeps every bit. A floor that is not finite and positive is none."""
    groups, balls, witness, (values, exact, witnesses), jobs = started
    if floors is not None:
        floors = np.asarray(floors, float)
        floors = np.where((floors > 0) & (floors < math.inf), floors, math.nan)
        if np.isnan(floors).all():
            floors = None
        else:
            jobs = [job for job in jobs if not values[job[0]] >= floors[job[0]]]
    # an item keeps its grid maximum when that reaches its floor or beats the
    # polished value; a random item holds 0 until it is polished, so
    # both rules hold for every job
    polished = _polish([job[1:] for job in jobs], balls,
                       None if floors is None else [floors[k] for k, *_ in jobs])
    for (k, *_), (value, vectors) in zip(jobs, polished):
        if value >= values[k]:
            values[k], witnesses[k] = value, vectors
    redo = _out_of_range(values).nonzero()[0]
    for idx, stack in groups if len(redo) else ():
        for j in np.flatnonzero(np.isin(idx, redo)).tolist():
            # the exponent is 0 for a zero, non-finite or already scaled item
            c, shift = _unit_scaled(stack[j], np.abs(stack[j]).max(initial=0.0))
            if shift:
                k = idx[j]
                redone = _one(_ball_sup(c[None], balls, witness=witness))
                values[k], witnesses[k] = np.ldexp(redone.value, shift), redone.witness
    return values, exact, witnesses if witness else None


def _one(result, k: int = 0) -> NormEstimate:
    """Item ``k`` of a :func:`_ball_sup` result."""
    values, exact, witnesses = result
    return NormEstimate(values.item(k), exact[k], witnesses and witnesses[k])


@functools.lru_cache(maxsize=None)
def _plan(dims: tuple[int, ...], balls: tuple[Exponent, ...], is_complex: bool) -> _Plan:
    """How :func:`_ball_sup` solves arrays of shape ``dims``: the first of
    four methods that applies.

    - ``enumeration``, exact: every slot but one ("free") has a finite
      norming set, enumerated within ``_ENUM_BUDGET`` units of work,
      dim(free) * prod(counts of the others); the free slot of each point is
      the dual norm of its partial contraction. The sets are the basis
      vectors of a dim-1 or l_1 ball of either field, and the 2^(dim-1) sign
      vectors with first sign +1 of a real sup ball; |.| absorbs a common
      sign or phase.
    - ``l2-pair``, exact: two slots on l_2 balls; the value is the largest
      singular value, with the top singular pair (conj(u), v) as witness.
    - ``grid``, a lower bound within sec(pi/8)^k of the supremum: as
      enumeration within ``_GRID_CAP``, but each of the k complex sup
      ("phase") slots runs over the _PHASES^(dim-1) vectors (1, w_2, ...,
      w_dim) of 8th roots of unity, whose convex hull holds the ball shrunk
      by cos(pi/8). The ``_GRID_STARTS`` best grid points start alternating
      maximization, and the item's value is the larger of the polished value
      and the grid maximum.
    - ``random``: alternating maximization from ``_STARTS`` random starts
      drawn from seed 0, a lower bound.

    In the last two an item of two slots whose every row, or every column,
    has at most one nonzero is exact all the same (:func:`_closed_form`).
    The record holds the method and the dims; for ``enumeration`` and
    ``grid`` also the free slot (the least work, the lowest index on ties),
    the basis slots, which are indexed, the sign or phase slots, which are
    contracted, the axis order of a stack that puts the contracted slots
    first, then the free and the basis slots, and how many items it
    enumerates at once within ``_ENUM_BUDGET``. ``enumeration`` plans also
    hold a ``stack_key`` (None for the others): arrays of one key,
    zero-padded to common dims, get every bit of their values and exact flags
    in one kernel call. The key holds the free and basis slots, the dims of
    the contracted (sign) slots, whose enumeration padding would change, and
    the summation class (:func:`norms._sum_class`) of every other dim: along
    the free slot the values are norms and over a basis slot maxima, which
    padding leaves alone."""
    # a basis slot is told by the ball, as a real sup slot of dim 2 also has 2 candidates
    is_basis = [m == 1 or b is _L1 for m, b in zip(dims, balls)]
    counts = [m if at else None if not b.is_inf else _PHASES ** (m - 1) if is_complex
              else sign_count(m) for m, b, at in zip(dims, balls, is_basis)]
    exact_counts = [c if at or not is_complex else None for c, at in zip(counts, is_basis)]
    method, free = "enumeration", _cheapest_free(dims, exact_counts, _ENUM_BUDGET)
    if free is not None:
        counts = exact_counts
    elif len(dims) == 2 and balls[0] is balls[1] is _L2:
        return _Plan("l2-pair", dims)
    else:
        method, free = "grid", _cheapest_free(dims, counts, _GRID_CAP)
        if free is None:
            return _Plan("random", dims)
    others = [i for i in range(len(dims)) if i != free]
    basis = tuple(i for i in others if is_basis[i])
    contracted = tuple(i for i in others if not is_basis[i])
    order = (0,) + tuple(1 + i for i in contracted + (free,) + basis)
    work = dims[free] * math.prod(counts[i] for i in others)
    key = None if method == "grid" else (free, basis, tuple(
        m if i in contracted else _sum_class(m) for i, m in enumerate(dims)))
    return _Plan(method, dims, free, basis, contracted, order, max(1, _ENUM_BUDGET // work), key)


def _cheapest_free(dims, counts, budget: int) -> int | None:
    """The free slot of least work within ``budget``, or None."""
    free, least = None, budget + 1
    for i, m in enumerate(dims):
        rest = counts[:i] + counts[i + 1:]
        if None not in rest and m * math.prod(rest) < least:
            free, least = i, m * math.prod(rest)
    return free


def _closed_form(stack: np.ndarray, balls, witness: bool):
    """The items of a ``grid`` or ``random`` stack (:func:`_plan`) that are
    exact all the same: of two slots, with at most one nonzero in every row,
    or every column, they take :func:`_monomial_sup`. Returns their positions
    in the stack (ascending), their values and their witnesses (None for
    ``witness=False``). A stack without a zero entry costs one count of
    nonzeros."""
    if stack.ndim != 3:
        return _NONE, None, None
    if min(stack.shape[1:]) > 1 and np.count_nonzero(stack) == stack.size:
        return _NONE, None, None  # every item dense
    nonzero = stack != 0
    by_rows = np.count_nonzero(nonzero, axis=2).max(axis=1) <= 1
    by_cols = np.count_nonzero(nonzero, axis=1).max(axis=1) <= 1
    at = np.flatnonzero(by_rows | by_cols)
    by_rows = by_rows[at]
    values = np.empty(len(at))
    found = [None] * len(at) if witness else None
    for rows in (True, False):
        part = np.flatnonzero(by_rows == rows)
        if not len(part):
            continue
        sub = stack[at[part]]
        v, w = (_monomial_sup(sub, balls, witness) if rows else
                _monomial_sup(sub.transpose(0, 2, 1), balls[::-1], witness))
        values[part] = v
        for j, pair in zip(part.tolist(), w or ()):
            found[j] = pair if rows else pair[::-1]
    return at, values, found


def _monomial_sup(stack: np.ndarray, balls, witness: bool):
    """sup |x^T a y| over the balls of each array a of a (T, m0, m1) stack
    whose every row has at most one nonzero, and the maximizing (x, y) (None
    for ``witness=False``). With q the dual of slot 0's ball, b slot 1's
    ball and N_k the l_q norm of column k, the value is sup over y of
    (sum_k N_k^q |y_k|^q)^(1/q), which Hölder's equality case makes ||N||_t
    with 1/t = max(0, 1/q - 1/b): max_k N_k for q >= b, attained at y = e_k;
    else at y proportional to N^(t/b). Slot 0 is then set by
    :func:`_dual_step`."""
    q, b = balls[0].dual, balls[1]
    t = Exponent(max(Fraction(0), q.recip - b.recip))
    cols = _axis_norms(np.abs(stack), q, axis=1)
    values = _axis_norms(cols, t, axis=1)
    if not witness:
        return values, None
    m1 = stack.shape[2]
    if t.is_inf:
        y = np.eye(m1)[np.argmax(cols, axis=1)]
    else:
        top = np.maximum.reduce(cols, axis=1)
        zero = top == 0
        # scaled to max 1 so that the power neither over- nor underflows
        y = (cols / np.where(zero, 1.0, top)[:, None]) ** (t.value / b.value)
        y[zero] = np.eye(m1)[0]  # a zero array: any unit vector
        y /= _axis_norms(y, b, axis=1)[:, None]
    y = y.astype(stack.dtype)
    x = _dual_step((stack @ y[:, :, None])[:, :, 0], balls[0])[0]
    return values, list(zip(x, y))


def _by_shape(items, order: int) -> tuple:
    """The number of the items of :func:`_ball_sup`, arrays of ``order``
    axes, and per group of them its indices (an index array) and its stack:
    a stack is one group as it is, and so is each stack of a list of them;
    the arrays of a list of arrays are grouped by shape and dtype and
    stacked."""
    if isinstance(items, np.ndarray):
        return len(items), ((np.arange(len(items)), items),)
    if items and items[0].ndim > order:
        heads = np.cumsum([0] + [len(stack) for stack in items]).tolist()
        return heads[-1], tuple((np.arange(lo, hi), stack)
                                for lo, hi, stack in zip(heads, heads[1:], items) if hi > lo)
    groups: dict = {}
    for k, a in enumerate(items):
        groups.setdefault((a.shape, a.dtype), []).append(k)
    return len(items), tuple((np.array(idx), np.stack([items[k] for k in idx]))
                             for idx in groups.values())


def _enumerate(stack, balls, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """The stack contracted with the candidates of the enumerated slots, with
    axes (T, m_free, basis dims..., candidate counts...), and the values of
    every enumerated point, the free slot in closed form, shape (T, points)."""
    t = stack.transpose(plan.order)
    for slot in plan.contracted:
        t = _contract_rows(t, _rows(plan.dims[slot], stack.dtype.kind == "c"))
    return t, _axis_norms(np.abs(t), balls[plan.free].dual, axis=1).reshape(len(t), -1)


def _starts(a: np.ndarray, balls, plan: _Plan) -> tuple[list, float, tuple | None]:
    """The start vectors of one array of a ``grid`` or ``random`` plan, as
    (S, m_i) vectors per slot, and the value and vectors it holds until it is
    polished: the ``_GRID_STARTS`` best grid points, the grid maximum and its
    vectors; or :func:`_random_starts`, 0 and None."""
    if plan.method == "random":
        return _random_starts(a, balls, a.dtype.kind == "c"), 0.0, None
    t, values = (r[0] for r in _enumerate(a[None], balls, plan))
    top = np.argpartition(-values, min(_GRID_STARTS, len(values)) - 1)[:_GRID_STARTS]
    points = _grid_points(t, top, plan, balls)
    k = int(np.argmax(values[top]))
    return points, values[top[k]], tuple(v[k] for v in points)


def _grid_points(t: np.ndarray, flats, plan: _Plan, balls) -> list[np.ndarray]:
    """Per slot, the (K, m) vectors of the K enumerated points ``flats`` of one
    contracted item ``t`` (axes as in :func:`_enumerate`), the free slot set
    by :func:`_dual_step`."""
    flats = np.asarray(flats)
    combo = np.unravel_index(flats, t.shape[1:]) if t.ndim > 1 else ()
    vectors = [None] * len(plan.dims)
    for slot, c in zip(plan.basis, combo):
        vectors[slot] = np.eye(plan.dims[slot])[c]
    for slot, c in zip(plan.contracted, combo[len(plan.basis):]):
        vectors[slot] = _rows(plan.dims[slot], t.dtype.kind == "c")[c]
    partial = t[(slice(None),) + combo].reshape(len(t), -1).T
    vectors[plan.free] = _dual_step(np.ascontiguousarray(partial), balls[plan.free])[0]
    return vectors


def _gaussian(rng: np.random.Generator, shape, is_complex: bool) -> np.ndarray:
    """Standard normal entries; complex ones draw all real parts, then all imaginary parts."""
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if is_complex else g


def _polar(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|a|, u) with a = |a| u and |u| = 1: u = 1 where a = 0; real u is -1
    where a < 0 and +1 elsewhere. Without entries of |a| <= 2^-1024 u is
    a * (1/|a|), the zeros (of padded coordinates, say) multiplied by 1 and
    then set to 1: a product by a real. numpy's a / |a| would cast |a| to
    complex and divide, which also multiplies by 1/|a|, so the two agree in
    value; only the sign of a zero part may differ. 1/|a| overflows
    for |a| <= 2^-1024, so the phase of such an entry is taken on 2^600 a."""
    mag = np.abs(a)
    if a.dtype.kind != "c":
        return mag, np.where(a < 0, -1.0, 1.0)
    if mag.size:
        low = np.minimum.reduce(mag, axis=None)
        if low > _PHASE_LOW:
            return mag, a * (1 / mag)
        if low == 0:
            zero = mag == 0
            safe = mag + zero
            if np.minimum.reduce(safe, axis=None) > _PHASE_LOW:
                u = a * (1 / safe)
                np.copyto(u, 1, where=zero)
                return mag, u
    u = np.empty_like(a)
    u.fill(1)
    large = mag > _PHASE_LOW
    np.divide(a, mag, out=u, where=large)
    small = (mag != 0) & ~large
    if small.any():
        scaled = _ldexp(a[small], 600)
        u[small] = scaled / np.abs(scaled)
    return mag, u


def _batch_contract(coeffs: np.ndarray, vectors, keep=()) -> np.ndarray:
    """Contract slot i with the batch vectors[i] of shape (..., S, m_i) for
    every i not in ``keep``; coeffs has shape (..., m_1, ..., m_n), the
    leading axes shared by all operands, and the result has shape
    (..., S, m_k for k in keep)."""
    subs, contracted = _contraction(coeffs.ndim + 2 - vectors[0].ndim, tuple(keep))
    return _einsum(subs, coeffs, *[vectors[i] for i in contracted])


@functools.lru_cache(maxsize=None)
def _contraction(n: int, keep: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """einsum subscripts of :func:`_batch_contract`, and the contracted slots."""
    ls = _SLOTS[:n]
    contracted = tuple(i for i in range(n) if i not in keep)
    inputs = ",".join(["..." + ls] + ["...S" + ls[i] for i in contracted])
    return inputs + "->...S" + "".join(ls[k] for k in keep), contracted


def _dual_step(c: np.ndarray, s: Exponent) -> tuple[np.ndarray, np.ndarray]:
    """Batched closed-form maximizer x of |<c, x>| over the l_s unit ball,
    along the last axis, and |c|: the maximum is the l_s' norm of |c|."""
    mag, phase = _polar(c)
    if c.dtype.kind == "c":
        np.conjugate(phase, out=phase)
    if s.is_inf:
        return phase, mag
    power = s.dual.value / s.value
    if power == math.inf:  # s = 1: the largest entry of each row
        rows = mag.reshape(-1, c.shape[-1])
        at = (np.arange(len(rows)), np.argmax(rows, axis=1))
        out = np.zeros(rows.shape, c.dtype)
        out[at] = phase.reshape(rows.shape)[at]
        return out.reshape(c.shape), mag
    w = mag ** power
    nrm = _axis_norms(w, s, axis=-1)
    zero = nrm == 0
    if True not in zero.ravel().tolist():
        return phase * w / nrm[..., None], mag
    out = phase * w / np.where(zero, 1.0, nrm)[..., None]
    dead = np.add.reduce(mag, axis=-1) == 0  # rows of zeros, not only of underflows
    out[dead] = 0
    out[dead, 0] = 1.0
    return out, mag


def _random_starts(coeffs: np.ndarray, balls: tuple[Exponent, ...],
                   is_complex: bool) -> list[np.ndarray]:
    """``_STARTS`` start vectors per slot: the flat vectors, the basis vectors
    of the largest coefficient, then Gaussian vectors drawn from seed 0."""
    if _STARTS * sum(coeffs.shape) > _ENUM_BUDGET:
        raise ValueError(f"{_STARTS} starts on dims {coeffs.shape} exceed the budget of "
                         f"{_ENUM_BUDGET} start coordinates")
    rng = np.random.default_rng(0)

    vectors = []
    argmax_idx = np.unravel_index(int(np.argmax(np.abs(coeffs))), coeffs.shape)
    for i, (m, s) in enumerate(zip(coeffs.shape, balls)):
        V = _gaussian(rng, (_STARTS, m), is_complex)
        V[0] = 1.0  # flat start
        V[1] = 0.0
        V[1, argmax_idx[i]] = 1.0  # largest-coefficient start
        nrm = np.maximum(_axis_norms(np.abs(V), s, axis=1), 1e-300)
        vectors.append(V / nrm[:, None])
    return vectors


def _polish(jobs, balls, floors=None) -> list[tuple[float, tuple]]:
    """Alternating maximization (:func:`_ascend`) of each (array, start
    vectors) job, all on one batch axis: jobs whose padding keeps every bit
    (:func:`_pad_key`) are zero-padded to common dims, within ``_PAD_WORK``
    and ``_ENUM_BUDGET``. ``floors`` holds one floor per job (NaN for none)
    or is None. Returns per job its value and its vectors."""
    groups: dict = {}
    for j, (a, vectors) in enumerate(jobs):
        S = len(vectors[0])
        groups.setdefault((S, a.dtype, _pad_key(a.shape)), []).append(j)
    out = [None] * len(jobs)
    for (S, dtype, _), members in groups.items():
        members.sort(key=lambda j: jobs[j][0].shape)
        for run, dims in _runs([jobs[j][0].shape for j in members], S):
            batch = [jobs[members[r]] for r in run]
            coeffs = np.zeros((len(batch),) + dims, dtype)
            vectors = [np.zeros((len(batch), S, m), dtype) for m in dims]
            for b, (a, starts) in enumerate(batch):
                coeffs[(b,) + tuple(map(slice, a.shape))] = a
                for V, v in zip(vectors, starts):
                    V[b, :, :v.shape[1]] = v
            values, best = _ascend(coeffs, balls, vectors, None if floors is None else
                                   np.array([floors[members[r]] for r in run]))
            for r, (a, _), value, w in zip(run, batch, values.tolist(), best):
                out[members[r]] = (value, tuple(x[:m] for x, m in zip(w, a.shape)))
    return out


def _pad_key(dims):
    """Jobs of one key can be zero-padded to common dims without changing a
    bit of their results: each axis stays in its summation class
    (:func:`norms._sum_class`), the rule of numpy's pairwise sums, and
    :func:`_ascend` adds every padded axis in BLAS or in order. A job with an
    axis of length 1 keeps its shape: numpy's matmul leaves gemm for gemv or
    its own loop where an operand has an axis of length 1."""
    if 1 in dims:
        return "shape", dims
    return "class", tuple(map(_sum_class, dims))


def _runs(shapes, S: int):
    """Split jobs sorted by shape into runs padded to common dims: a run's
    dims grow only while S * prod(dims) stays within ``_PAD_WORK``, and a run
    holds at most ``_ENUM_BUDGET`` coefficients and vector entries. Yields
    each run's positions and dims."""
    run, dims = [], ()
    for k, shape in enumerate(shapes):
        grown = tuple(map(max, dims, shape)) if run else shape
        size = math.prod(grown) + S * sum(grown)
        if run and ((grown != dims and S * math.prod(grown) > _PAD_WORK)
                    or (len(run) + 1) * size > _ENUM_BUDGET):
            yield run, dims
            run, grown = [], shape
        run.append(k)
        dims = grown
    if run:
        yield run, dims


def _ascend(coeffs: np.ndarray, balls: tuple[Exponent, ...], vectors: list, floors=None):
    """Alternating maximization of each array of a (T, *M) stack from its
    (T, S, M_i) start vectors of each slot, which it overwrites: a sweep sets
    each slot in turn to its closed-form maximizer. An item stops after the
    first sweep in which its running best over all its starts gains at most
    1e-12 relative, after a sweep whose running best reaches its entry of
    ``floors`` (T floors, NaN for none, or None), or after _SWEEPS, and
    leaves the batch: each item stops at the sweep it stops at alone.
    Returns the T values and per item the vectors of its best start.

    The stop rule looks at the best start only: a lower start that still
    climbs does not keep the item sweeping. The value is a lower bound
    either way; waiting for every start to stop gaining took about twice
    the sweeps and raised no value of the seeded verify suites by more than
    1.1e-11 relative.

    Slot i is contracted against a copy of the stack with slot i first and
    the last other slot last, made once per call: one batched matmul
    (T, rows, m_last) @ (T, m_last, S), the starts as the output columns,
    then per further slot a product and a sum over its middle axis, which
    numpy adds in order. Both keep the bits of a zero-padded item; with the
    starts as the output rows, V @ A^T, BLAS changed them in 145 of 223
    complex and 8 of 217 real random padded pairs (OpenBLAS 0.3.31, SkylakeX
    kernels). A sweep's value is the l_s' norm of the moduli of its last partial
    contraction, the maximum of its closed-form step."""
    T, S = vectors[0].shape[:2]
    values, best = np.empty(T), [None] * T
    live = np.arange(T)
    prev, last = np.zeros((T, S)), np.zeros(T)
    others = [[j for j in range(len(balls)) if j != i] for i in range(len(balls))]
    stacks = [coeffs.transpose([0, 1 + i] + [1 + j for j in rest]).reshape(
        T, -1, coeffs.shape[1 + rest[-1]]) for i, rest in enumerate(others)]
    for sweep in range(_SWEEPS):
        for i, s in enumerate(balls):
            t = stacks[i] @ vectors[others[i][-1]].transpose(0, 2, 1)
            for j in reversed(others[i][:-1]):  # sequential sums over a middle axis
                v = vectors[j].transpose(0, 2, 1)
                t = np.add.reduce(t.reshape(len(t), -1, *v.shape[1:]) * v[:, None], axis=2)
            vectors[i], mag = _dual_step(t.transpose(0, 2, 1), s)
        now = _axis_norms(mag, balls[-1].dual, axis=-1)
        prev = np.maximum(prev, now)
        top = np.maximum.reduce(prev, axis=1)
        done = top - last <= 1e-12 * np.maximum(top, 1e-300)
        last = top
        if floors is not None:
            done |= top >= floors
        if sweep == _SWEEPS - 1:
            done[:] = True
        flags = done.tolist()
        if True not in flags:
            continue
        finished = [r for r, f in enumerate(flags) if f]
        for r in finished:
            k = int(np.argmax(prev[r]))
            values[live[r]] = prev[r, k]
            best[live[r]] = tuple(v[r, k] for v in vectors)
        if len(finished) == len(live):
            break
        keep = ~done
        live, prev, last = live[keep], prev[keep], last[keep]
        stacks = [a[keep] for a in stacks]
        if floors is not None:
            floors = floors[keep]
        vectors = [v[keep] for v in vectors]
    return values, best


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
