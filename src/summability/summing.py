"""Summing-norm lower bounds, inclusion machinery, and inequality verifiers.

A test family (one finite vector sequence per slot) witnesses a ratio
lhs / prod(weak norms) that certifies a lower bound on the corresponding
summing norm whenever every weak norm on the right is exact or an
over-estimate. One scorer (:func:`_scores`) computes the lhs and the weak
norms of every such certificate: the search's, :func:`summing_lower_bound`'s
and the lifts'. The coefficient verifiers (the 4/3 inequality, its general
and mixed-norm forms, Bohnenblust-Hille) compute their coefficient side and
hand it to one check against their fixed row of ``_CONSTANTS`` times the
operator norm. A check fails only when the operator norm is exact; a
violation against a heuristic lower bound of the norm is "inconclusive".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from ._signs import _ENUM_BUDGET, sign_count, sign_rows
from .forms import (FormTensor, _ball_sup, _ball_sup_end, _ball_sup_start, _batch_contract,
                    _gaussian, _lower_bounds, _plan, _polar, compose_beta, curry, op_norm)
from .norms import (_L1, _L2, _SLACK, NormEstimate, VectorSeq, _axis_norms, _lp_rows,
                    _sum_class, lp_norm, mixed_norm, weak_lp_norm)
from .rademacher import rad_p_norm, rademacher_average
from .spaces import (
    Exponent,
    ExponentLike,
    ExponentTuple,
    INF,
    ScalarField,
    SpaceSpec,
)

__all__ = [
    "TestFamily",
    "RatioCertificate",
    "VerificationReport",
    "summing_lower_bound",
    "random_family_search",
    "factor_sequence",
    "lift_family",
    "LiftResult",
    "verify_littlewood_43",
    "verify_general_littlewood",
    "verify_extended_littlewood",
    "verify_bh",
    "verify_defant_voigt",
    "verify_almost_summing",
    "tensor_weak_norm_estimate",
    "coincidence_region",
    "summing_experiment",
    "random_form",
]


# ---------------------------------------------------------------------------
# test families and certificates


@dataclass
class TestFamily:
    """n parallel vector sequences of common length, one per form slot."""

    __test__ = False  # despite the name, not a pytest class

    columns: tuple[VectorSeq, ...]

    def __post_init__(self):
        self.columns = tuple(self.columns)
        if not self.columns:
            raise ValueError("a family needs at least one column")
        lengths = {c.length for c in self.columns}
        if len(lengths) != 1:
            raise ValueError(f"columns have differing lengths {sorted(lengths)}")

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def length(self) -> int:
        return self.columns[0].length

    def check_against(self, A: FormTensor) -> None:
        """Refuse a family that does not feed every slot of ``A`` (:meth:`_fits`)."""
        self._fits(A.domains)

    def _fits(self, domains) -> None:
        """Refuse a family whose columns are not, one for one, in ``domains``."""
        if self.n != len(domains):
            raise ValueError(f"family has {self.n} columns for {len(domains)} slots")
        for i, (col, dom) in enumerate(zip(self.columns, domains)):
            if col.space != dom:
                raise ValueError(f"column {i} lives in {col.space}, form slot needs {dom}")

    def values(self, A: FormTensor) -> np.ndarray:
        """The value sequence (A(x_j^1, ..., x_j^n))_j."""
        self.check_against(A)
        return _batch_contract(A.coeffs, [c.vectors for c in self.columns])

    def to_json(self) -> dict:
        return {"columns": [c.to_json() for c in self.columns]}

    @classmethod
    def from_json(cls, data: dict) -> "TestFamily":
        return cls(tuple(VectorSeq.from_json(c) for c in data["columns"]))


@dataclass
class RatioCertificate:
    """Witnessed summing-norm lower bound: ratio = lhs / prod(weak norms)."""

    lhs: float
    rhs_norms: tuple[NormEstimate, ...]
    family: TestFamily
    exponents: ExponentTuple
    lhs_exact: bool = True
    denominator: float = dataclass_field(init=False)
    ratio: float = dataclass_field(init=False)

    def __post_init__(self):
        self.denominator = math.prod(r.value for r in self.rhs_norms)
        # a vanishing weak norm certifies nothing
        self.ratio = self.lhs / self.denominator if self.denominator > 0 else 0.0

    @property
    def exact(self) -> bool:
        return self.lhs_exact and all(r.exact for r in self.rhs_norms)

    def to_dict(self) -> dict:
        return {
            "exponents": str(self.exponents),
            "lhs": self.lhs,
            "weak_norms": [r.value for r in self.rhs_norms],
            "weak_norms_exact": [r.exact for r in self.rhs_norms],
            "ratio": self.ratio,
            "exact": self.exact,
            "family": self.family.to_json(),
        }


def summing_lower_bound(
    A: FormTensor,
    exps: ExponentTuple,
    fam: TestFamily,
) -> RatioCertificate:
    """Evaluate one family: lhs at the outer exponent over weak norms at the inner ones."""
    _require_slots(A, exps)
    return _certificates([fam], [fam.values(A)], exps)[0]


def _require_slots(A: FormTensor, exps: ExponentTuple) -> None:
    if exps.n != A.order:
        raise ValueError(f"exponent tuple has {exps.n} slots, form has {A.order}")


def _structured_families(A: FormTensor, j_max: int) -> list[list[np.ndarray]]:
    """The columns, one real (J, m) array per slot, of the structured families
    of a search: the spike at the largest coefficient, the basis diagonal,
    the basis grid (up to 4096 vectors), and the flat vector once and
    min(4, j_max) times.

    The columns are real arrays in either field, so their weak norms are
    taken over the reals, and a search scores them with its first chunk
    (:func:`_family_ratios`). In complex spaces that is the complex value
    only because unit and flat vectors meet Hölder's equality case over
    either field: d unit vectors of l_s^m have weak-l_q norm
    d^max(0, 1/q - 1/s'), and ``reps`` flat vectors reps^(1/q) * m^(1/s).
    Real vectors in general do not: three unit vectors of l_2^2 at 120
    degrees have weak-l_1 norm 2 over the reals and sqrt(4.5) ~ 2.12 over
    the complex numbers."""
    dims = A.dims
    idx = np.unravel_index(int(np.argmax(np.abs(A.coeffs))), dims)
    eyes = [np.eye(m) for m in dims]
    families = [
        [e[[k]] for e, k in zip(eyes, idx)],  # spike at the largest coefficient
        [e[:min(dims)] for e in eyes],  # basis diagonal
    ]
    if math.prod(dims) <= 4096:  # full basis grid, capped
        grid = np.indices(dims).reshape(A.order, -1)
        families.append([e[g] for e, g in zip(eyes, grid)])
    for reps in (1, min(4, max(1, j_max))):  # repeated flat vector
        families.append([np.ones((reps, m)) for m in dims])
    return families


def random_form(
    rng: np.random.Generator,
    dims,
    field: ScalarField = ScalarField.REAL,
    exponents=None,
) -> FormTensor:
    """Gaussian-coefficient form; sup-norm domains unless exponents given."""
    shape = tuple(int(m) for m in dims)
    coeffs = _gaussian(rng, shape, field.is_complex)
    exponents = (INF,) * len(shape) if exponents is None else tuple(map(Exponent.of, exponents))
    return FormTensor(coeffs, _domains(shape, exponents), field)


@functools.lru_cache(maxsize=1 << 8)
def _domains(shape: tuple[int, ...], exponents: tuple[Exponent, ...]) -> tuple[SpaceSpec, ...]:
    """The spaces l_s^m of a form's slots, shared between forms (they are frozen)."""
    return tuple(SpaceSpec(m, s) for m, s in zip(shape, exponents))


def _entry_draws(field: ScalarField) -> tuple[int, type]:
    """How a search draws each entry of a family: the normal numbers it takes
    (a real part, then for complex forms an imaginary part), and the dtype
    they are read as."""
    return (2, complex) if field.is_complex else (1, float)


def _columns(A: FormTensor, lengths, starts, flat) -> list[np.ndarray]:
    """Per slot, the columns of the draws of ``lengths`` one after another,
    as one (sum of the lengths, m) array: draw t holds its columns from
    ``flat[starts[t]]`` on, slot by slot, each column's entries (real parts,
    then imaginary parts for complex forms), the order in which drawing the
    columns one at a time consumes the stream."""
    draws, dtype = _entry_draws(A.field)
    at = starts  # per draw, where its next column starts in flat
    columns = []
    for m in A.dims:
        sizes = lengths * m  # per draw, the entries of the column (their real parts)
        # per entry, where it is in flat: its draw's column start plus its place in it
        idx = np.repeat(at - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
        at = at + sizes
        if draws == 2:  # (real, imaginary) pairs, the imaginary parts a column later
            idx = np.stack([idx, idx + np.repeat(sizes, sizes)], axis=1)
            at = at + sizes
        columns.append(flat[idx].view(dtype).reshape(-1, m))
    return columns


def _as_family(A: FormTensor, columns) -> TestFamily:
    return TestFamily(tuple(VectorSeq(c, d) for c, d in zip(columns, A.domains)))


def _random_family(rng: np.random.Generator, A: FormTensor, j_max: int) -> TestFamily:
    """A random family's length J, then all its entries from one normal draw."""
    J = int(rng.integers(1, j_max + 1))
    flat = rng.standard_normal(_entry_draws(A.field)[0] * J * sum(A.dims))
    return _as_family(A, _columns(A, np.array([J]), np.array([0]), flat))


_SEARCH_CHUNK = 1 << 10  # random trials scored at once
_SEARCH_BUDGET = _ENUM_BUDGET  # trials; a search holds 24 bytes a trial before scoring any


def _chunks(items, size, budget: int):
    """Consecutive items, in chunks whose ``size`` adds up to at most
    ``budget``, and of at least one item."""
    chunk, total = [], 0
    for item in items:
        n = size(item)
        if chunk and total + n > budget:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += n
    if chunk:
        yield chunk


def random_family_search(
    A: FormTensor,
    exps: ExponentTuple,
    budget: int = 512,
    seed: int = 0,
    *,
    j_max: int = 16,
) -> RatioCertificate:
    """Best ratio certificate over structured plus seeded random families.

    One generator seeded by ``seed`` draws the lengths of all ``budget``
    trials, then their entries (:func:`_chunks_drawn`). The structured
    families (:func:`_structured_families`) are tried first, then the trials
    in the order drawn, and the first maximal ratio wins, so the result
    depends only on the form, the exponents, the seed, the budget and
    ``j_max``, not on how the trials are chunked. A budget over
    ``_SEARCH_BUDGET`` trials, and a ``j_max`` at which one trial may draw
    more than ``_ENUM_BUDGET`` normal numbers (j_max * sum(dims), doubled
    for complex forms), are refused before any draw. The trials are scored
    in chunks of at most ``_SEARCH_CHUNK`` trials and ``_ENUM_BUDGET`` drawn
    numbers (:func:`_family_ratios`, by the passes of the scorer
    :func:`_scores`), and the structured families join the first chunk.
    Heuristic ascents stop at a floor set from the best ratio so far, the
    incumbent (in the first chunk, that of the structured families), once a
    trial's ratio can no longer exceed it: such a trial scores below the
    incumbent, and since a chunk's best replaces the incumbent only when
    strictly greater, it never wins, and the result is the one full ascents
    give.

    The certificate is the winner's score: its lhs, weak norms and exact
    flags are those the scorer computed, and its ratio is the score to the
    bit. They are those of :func:`summing_lower_bound` on the winning family,
    except the lhs of a drawn bilinear family of one or two vectors, which
    einsum sums alone in another order than in the scorer's stack (up to 12
    ulps, for shapes such as (2, 2) and (2, 3)).
    """
    per = _entry_draws(A.field)[0] * sum(A.dims)  # numbers per vector of a family
    _refuse_search(budget, j_max, per)
    _require_slots(A, exps)
    structured = _structured_families(A, j_max)
    best = None  # the certificate of the first maximal ratio so far
    for lengths, starts, flat in _chunks_drawn(seed, budget, j_max, per):
        ratios, lhs, weak, exact = _family_ratios(
            A, exps, lengths, starts, flat, -math.inf if best is None else best.ratio, structured)
        k = int(np.argmax(np.where(np.isnan(ratios), -np.inf, ratios)))  # NaN never wins
        if best is None or ratios[k] > best.ratio:
            t = k - len(structured)  # the families scored come first, then the trials
            columns = structured[k] if t < 0 else _columns(A, lengths[[t]], starts[[t]], flat)
            best = RatioCertificate(lhs.item(k), tuple(map(NormEstimate, weak[:, k].tolist(),
                                                           exact[:, k].tolist())),
                                    _as_family(A, columns), exps)
        structured = []  # scored with the first chunk
    return best


def _refuse_search(budget: int, j_max: int, per: int) -> None:
    """Refuse, before any draw, a search of over ``_SEARCH_BUDGET`` trials
    or one whose trial may draw more than ``_ENUM_BUDGET`` normal numbers,
    ``per`` a vector."""
    if not 1 <= budget <= _SEARCH_BUDGET:
        raise ValueError(f"--budget {budget}: a search takes 1 to {_SEARCH_BUDGET} trials")
    if j_max * per > _ENUM_BUDGET:
        raise ValueError(f"--jmax {j_max}: a trial may draw {j_max * per} normal numbers, "
                         f"over the budget {_ENUM_BUDGET}")


def _chunks_drawn(seed: int, budget: int, j_max: int, per: int):
    """The random trials in chunks (lengths, starts, flat) of at most ``_SEARCH_CHUNK``
    trials and ``_ENUM_BUDGET`` numbers, one trial at least, from one generator: the
    lengths of all trials in one call, then each chunk's numbers in one call. How calls
    split a draw moves no number, so a trial's numbers do not depend on the chunks."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, j_max + 1, size=budget)
    ends = np.concatenate(([0], np.cumsum(lengths) * per))  # trial t: ends[t]:ends[t + 1]
    lo = 0
    while lo < budget:
        hi = int(np.searchsorted(ends, ends[lo] + _ENUM_BUDGET, "right")) - 1
        hi = max(lo + 1, min(hi, lo + _SEARCH_CHUNK))
        at = ends[lo:hi + 1] - ends[lo]  # the chunk's trials in flat
        yield lengths[lo:hi], at[:-1], rng.standard_normal(int(at[-1]))
        lo = hi


@np.errstate(over="ignore", under="ignore", invalid="ignore")  # ratios may over- or underflow
def _family_ratios(A: FormTensor, exps: ExponentTuple, lengths, starts, flat,
                   incumbent: float, structured=()) -> tuple[np.ndarray, ...]:
    """The ratio lhs / prod(weak norms) of each of the ``structured``
    families (the column arrays of :func:`_structured_families`), then of
    each family drawn (:func:`_columns`), in the order drawn, or, for a drawn
    family whose ratio cannot exceed the incumbent, the larger of
    ``incumbent`` and the structured families' ratios, possibly a number
    below the incumbent instead; with them, per family, its lhs, its weak
    norms and their exact flags (one row per column), those of
    :func:`_scores`.

    A ratio is computed as :class:`RatioCertificate` computes it from the
    lhs and weak norms, the weak norms multiplied into the denominator in
    column order, so a certificate built from them has the ratio to the bit.
    The trials are taken in order of length, and each column of all of them
    is gathered once. Their values come from one contraction of at least
    three rows, as einsum sums a stack of one or two vectors in another
    order than a longer one for some shapes (the rule :func:`forms._pad_key`
    names), so a trial's values do not depend on the other trials of its
    chunk. Each structured family is contracted alone, as
    :func:`summing_lower_bound` contracts it, and joins the trials' stacks
    of its length class in the scorer, whose ascents of its weak norms,
    without floors, set the incumbent. The trials' heuristic weak norms end here, the
    columns with the fewest lower bounds (random starts) first, each item
    with the floor of :func:`_floors`. A family with an item that stopped at
    its floor (a retired family) gets a number below the incumbent in place
    of its ratio, and its ratio without floors is no larger, as every weak
    norm without floors is at least the one with; every other family gets
    its ratio as above."""
    S, order = len(structured), np.argsort(lengths, kind="stable")
    lengths = lengths[order]  # the trials by length; their scores follow the S structured ones
    columns = _columns(A, lengths, starts[order], flat)
    rows = int(lengths.sum())
    # one contraction of at least three rows: einsum sums a stack of one or two
    # vectors in another order than a longer one, for some shapes
    moduli = np.abs(_batch_contract(A.coeffs, [np.pad(c, ((0, 2), (0, 0))) if rows < 3
                                               else c for c in columns])[:rows])
    lhs, weak, exact, started = _scores(
        exps, tuple(d.exponent for d in A.domains), lengths, moduli, columns,
        [(np.abs(_batch_contract(A.coeffs, family)), family) for family in structured])

    def ratios(at):
        """The ratios of the families at ``at`` among the scores."""
        denominator = math.prod(weak[:, at])  # the rows, in the certificate's order
        return np.divide(lhs[at], denominator, out=np.zeros(len(lhs[at])),
                         where=denominator > 0)

    if started and S:  # the structured families, scored by now, set the trials' floors
        incumbent = max(incumbent, float(np.max(ratios(slice(0, S)))))
    low = weak.copy()  # per trial and column, what its weak norm will be at least
    for i, (idx, st) in started.items():
        low[i, idx] = _lower_bounds(st)
    for i in sorted(started, key=lambda i: np.count_nonzero(low[i, started[i][0]])):
        idx, st = started[i]
        floors = _floors(lhs[idx], low[:, idx], i, incumbent)
        values, exact[i, idx], _ = _ball_sup_end(st, floors)
        low[i, idx] = weak[i, idx] = values
    back = np.concatenate((np.arange(S), S + np.argsort(order)))  # the trials in draw order
    return ratios(back), lhs[back], weak[:, back], exact[:, back]


def _scores(exps: ExponentTuple, exponents, lengths, moduli, columns, extra=()) -> tuple:
    """The one scorer of ratio certificates: per family its lhs, its weak
    norms and their exact flags (one row per column), the ``extra``
    families first, then the trials, and the started kernel batches of the
    trials' weak norms whose lengths take no ``enumeration`` plan
    (:func:`forms._plan`), {column: (positions, batch)},
    whose entries of the weak norms and flags the caller fills when it ends
    them (:func:`forms._ball_sup_end`). The trials' lengths are ``lengths``,
    in ascending order, and their rows lie one after another in ``moduli``,
    the moduli of their values, and in ``columns``, one (rows, m) array per
    slot (all empty for no trials); an extra family is a pair (moduli,
    columns). Slot i's space is l_s^m, s = ``exponents[i]`` and m read off
    each array. It runs in the caller's numpy error state, which should be
    that of :func:`forms._ball_sup`.

    The lhs is the rule of :func:`lp_norm` (:func:`norms._lp_rows`) on the
    moduli, and a weak norm and its flag are those :func:`weak_lp_norm`
    gives the column, to the bit. The lhs take one :func:`_lp_rows` call per
    length class (:func:`norms._sum_class`), the families of the class
    zero-padded to the longest length present, and the trials' weak norms
    (q >= 1) one kernel call per column and run of lengths of one stacking
    key (the ``stack_key`` of each length's :func:`forms._plan`, the field
    read off the column's dtype; only ``enumeration`` plans have one);
    padding keeps every bit. An extra family joins such a stack of its
    lengths, whose column sizes it has; a real column joins a complex stack only where the
    plan has a basis slot and no phase slot, the plan the real kernel takes,
    and |x + 0j| = |x|. The other weak norms of the extra families take one
    kernel call per column, of any shapes and dtypes, without floors, and
    those of the trials one started batch per column, whose ascents pad
    within the classes of :func:`forms._pad_key`; for q < 1, each column's
    weak norm is :func:`weak_lp_norm`'s."""
    # per column, the balls of the kernel's weak norms (None for q < 1, not a kernel norm)
    balls = [(q.dual, e.dual) if q.recip <= 1 else None for q, e in zip(exps.qs, exponents)]
    S, T = len(extra), len(lengths)
    heads = np.concatenate(([0], np.cumsum(lengths))).tolist()  # each trial's first row
    own = [len(m) for m, _ in extra]
    distinct = sorted(set(lengths.tolist()).union(own))
    # the trials of length distinct[k] are bounds[k]:bounds[k + 1]
    bounds = np.searchsorted(lengths, distinct).tolist() + [T]
    classes = [distinct.index(J) for J in own]

    def runs(keys):
        """Per run of consecutive distinct lengths of one key (``keys`` holds
        one per length): the key, the run's trials lo:hi, its extra
        families and its longest length."""
        at = 0
        for k, key in enumerate(keys):
            if k + 1 == len(keys) or key != keys[k + 1]:
                members = [s for s, c in enumerate(classes) if at <= c <= k]
                yield key, bounds[at], bounds[k + 1], members, distinct[k]
                at = k + 1

    def padded(rows, lo, hi, L, joined):
        """The rows of trials lo:hi, then the arrays of ``joined``, as one
        stack (hi - lo + len(joined), L, ...), zero-padded to length L."""
        shape = (hi - lo, L) + rows.shape[1:]
        full = hi == lo or lengths[lo] == L  # no trial to pad
        if full and not joined:
            return rows.reshape(shape)
        out = np.zeros((hi - lo + len(joined),) + shape[1:], rows.dtype)
        if full:
            out[:hi - lo] = rows.reshape(shape)
        else:
            w = math.prod(rows.shape[1:])
            out[:hi - lo].reshape(hi - lo, L * w)[
                np.arange(L * w) < w * lengths[lo:hi, None]] = rows.ravel()
        for item, a in zip(out[hi - lo:], joined):
            item[:len(a)] = a
        return out

    def put(scores, lo, hi, members, values):
        """Write the values of a stack of :func:`padded` into ``scores``."""
        scores[S + lo:S + hi] = values[:hi - lo]
        if members:
            scores[members] = values[hi - lo:]

    lhs = np.empty(S + T)
    for _, lo, hi, members, L in runs([_sum_class(J) for J in distinct]):
        put(lhs, lo, hi, members, _lp_rows(padded(moduli[heads[lo]:heads[hi]], lo, hi, L,
                                                  [extra[s][0] for s in members]), exps.p))
    weak, exact = np.empty((exps.n, S + T)), np.ones((exps.n, S + T), bool)
    pending = [([], []) for _ in balls]  # per column: trial positions, inexact items
    ahead = [[] for _ in balls]  # per column: extra families in no stack of trials
    for i, (ball, q, e) in enumerate(zip(balls, exps.qs, exponents)):
        if ball is None:
            norms = [weak_lp_norm(VectorSeq(X, _domains(X.shape[1:], (e,))[0]), q) for X in
                     [family[i] for _, family in extra]
                     + [columns[i][a:b] for a, b in zip(heads, heads[1:])]]
            weak[i], exact[i] = [w.value for w in norms], [w.exact for w in norms]
            continue
        keys = [_plan((J, columns[i].shape[1]), ball, columns[i].dtype.kind == "c").stack_key
                if T else None for J in distinct]
        for key, lo, hi, members, L in runs(keys):
            if key is not None and lo < hi:
                put(weak[i], lo, hi, members, _ball_sup(
                    padded(columns[i][heads[lo]:heads[hi]], lo, hi, L,
                           [extra[s][1][i] for s in members]), ball, witness=False)[0])
                continue
            ahead[i].extend(members)  # no stack: the trials (key None) go to the ascent
            pending[i][0].extend(range(S + lo, S + hi))
            pending[i][1].extend(columns[i][a:b] for a, b in zip(heads[lo:hi], heads[lo + 1:]))
    for i, members in enumerate(ahead):  # the extra families end first, unfloored
        if members:
            weak[i, members], exact[i, members], _ = _ball_sup(
                [extra[s][1][i] for s in members], balls[i], witness=False)
    started = {i: (idx, _ball_sup_start(items, balls[i], witness=False))
               for i, (idx, items) in enumerate(pending) if items}
    return lhs, weak, exact, started


@np.errstate(divide="ignore")  # no bound known gives an infinite floor, i.e. none
def _floors(lhs: np.ndarray, low: np.ndarray, i: int, incumbent: float) -> np.ndarray:
    """Per trial, a floor on its column-i weak norm: if that weak norm is at
    least its floor and every other one at least its entry of ``low`` (rows
    in column order, 0 where nothing is known), the ratio that
    :func:`_family_ratios` computes is below ``incumbent``. The floor is
    lhs / (incumbent * the other bounds) * (1 + 2^-20), NaN (none) where
    that is not finite and positive or where the ratio of the bounds
    themselves, computed in the same order, does not come out below
    ``incumbent``: rounded products and quotients are monotone in each
    operand, so larger weak norms give a ratio at most that one."""
    floors = lhs / (incumbent * math.prod(np.delete(low, i, axis=0))) * (1 + 2.0 ** -20)
    bounds = low.copy()
    bounds[i] = floors
    denominator = math.prod(bounds)
    safe = ((floors > 0) & (floors < math.inf) & (denominator > 0)
            & (lhs / denominator < incumbent))
    return np.where(safe, floors, math.nan)


# ---------------------------------------------------------------------------
# inclusion machinery


def factor_sequence(alpha, r: ExponentLike, rs) -> list[np.ndarray]:
    """Split a scalar sequence into a pointwise product of n sequences.

    With sum_k 1/r_k = 1/r the factors are |alpha_j|^(r/r_k), the phase going
    entirely to the first factor, so that the product recovers alpha and
    ||alpha^k||_{r_k} = ||alpha||_r^(r/r_k), whence the norms multiply back
    to ||alpha||_r.
    """
    re = Exponent.of(r)
    res = [Exponent.of(x) for x in rs]
    if not res:
        raise ValueError("need at least one factor exponent")
    total = sum(x.recip for x in res)
    if total != re.recip and abs(float(total - re.recip)) > 1e-12:
        raise ValueError(
            f"exponent identity violated: sum 1/r_k = {total} but 1/r = {re.recip}"
        )
    mag, phase = _polar(np.asarray(alpha))
    mag = mag.astype(np.float64)
    if re.recip == 0:
        shares = [Fraction(1)] + [Fraction(0)] * (len(res) - 1)
    else:
        shares = [x.recip / re.recip for x in res]
    factors = []
    for k, share in enumerate(shares):
        exp = float(share)
        f = np.ones_like(mag) if exp == 0.0 else mag ** exp
        if k == 0:
            f = f * phase
        factors.append(f)
    return factors


@dataclass
class LiftResult:
    family: TestFamily
    source: RatioCertificate
    derived: RatioCertificate
    monotone: bool


def lift_family(
    A: FormTensor,
    fam: TestFamily,
    source: ExponentTuple,
    target: ExponentTuple,
) -> LiftResult:
    """Transport a ratio certificate from a weaker exponent tuple to a
    stronger one: :func:`lift_families` of the one pair (A, fam)."""
    return lift_families([(A, fam)], source, target)[0]


def lift_families(pairs, source: ExponentTuple, target: ExponentTuple) -> list[LiftResult]:
    """Transport the ratio certificate of each (form, family) pair of
    ``pairs`` from a weaker exponent tuple to a stronger one.

    Requires that the class at ``target`` embeds in the one at ``source``
    (:func:`_embeds`, the rule of ``coincidence_region("inclusion")``):
    componentwise target <= source and a target defect no larger than the
    source defect, else a ValueError names both tuples. A pair's value
    sequence is turned into a unit-norm scalar sequence alpha with
    ||(alpha_j A_j)||_q = ||(A_j)||_p, alpha is factored across the slots,
    and the scaled family certifies a ratio at the target tuple at least the
    source ratio (up to a rounding slack of 1e-10). A pair whose values are
    all zero keeps its family. An ArithmeticError names the first pair, in
    order, whose lift is smaller with every weak norm exact.

    Each pair gets the result it gets alone. The checks and the exponent
    arithmetic run once per call. Each family's values come from its own
    contraction (einsum sums a stack of one or two vectors in another order
    than a longer one). The phases, alpha and its factors are elementwise,
    so they are taken on the concatenated values of the pairs whose values
    have the same dtype, and each pair's columns are scaled by its own rows
    of the factors; the norm that scales alpha is the source lhs. The
    certificates take their lhs and weak norms from :func:`_certificates`,
    through the search's scorer.
    """
    pairs = list(pairs)
    if source.n != target.n or any(A.order != source.n for A, _ in pairs):
        raise ValueError("exponent tuples must match the form order")
    if not _embeds(target, source):
        raise ValueError(f"inadmissible lift: the class at {target} does not embed in "
                         f"the one at {source}")
    recip_r = target.p.recip - source.p.recip
    slot_recips = [qt.recip - qs_.recip for qt, qs_ in zip(target.qs, source.qs)]
    total = sum(slot_recips)
    split = None  # the factor exponents, None where alpha goes to the first slot whole
    if recip_r != 0 and total != 0:
        scale = recip_r / total
        split = [Exponent(rc * scale) for rc in slot_recips]
    p_over_r = None if recip_r == 0 or source.p.is_inf else float(recip_r / source.p.recip)
    if not pairs:
        return []

    families = [fam for _, fam in pairs]
    values = [fam.values(A) for A, fam in pairs]
    sources = _certificates(families, values, source)
    lengths = np.array([len(v) for v in values], int)
    live = np.logical_or.reduceat(np.abs(np.concatenate(values)) > 0, _heads(lengths))
    derived = list(families)  # the families of the target certificates
    groups: dict = {}  # the live pairs by the dtype of their values
    for k, v in enumerate(values):
        if live[k]:
            groups.setdefault(v.dtype, []).append(k)
    for at in groups.values():
        J = lengths[at]
        rows = list(zip(_heads(J).tolist(), np.cumsum(J).tolist()))  # each pair's, in order
        mag, phase = _polar(np.concatenate([values[k] for k in at]))
        align = np.conj(phase)
        if recip_r == 0:
            alpha = np.ones_like(mag)
        elif source.p.is_inf:
            alpha = np.zeros(len(mag), dtype=align.dtype)
            for lo, hi in rows:
                j = lo + int(np.argmax(mag[lo:hi]))  # the pair's first largest value
                alpha[j] = align[j]
        else:
            norm_p = np.repeat([sources[k].lhs for k in at], J)
            alpha = align * (mag / norm_p) ** p_over_r
        if split is None:
            factors = [alpha] + [np.ones_like(mag)] * (source.n - 1)
        else:
            factors = factor_sequence(alpha, Exponent(recip_r), split)
        for k, (lo, hi) in zip(at, rows):
            derived[k] = TestFamily(tuple(VectorSeq(c.vectors * f[lo:hi, None], c.space)
                                          for c, f in zip(families[k].columns, factors)))
    targets = _certificates(derived, [fam.values(A) if live[k] else values[k]
                                      for k, ((A, _), fam) in enumerate(zip(pairs, derived))],
                            target)
    results = []
    for k, (fam, src, tgt) in enumerate(zip(derived, sources, targets)):
        monotone = not live[k] or tgt.ratio >= src.ratio - 1e-10
        if not monotone and src.exact and tgt.exact:
            raise ArithmeticError(
                f"the lift of pair {k} produced a smaller ratio with exact weak norms: "
                f"{tgt.ratio} < {src.ratio}"
            )
        results.append(LiftResult(fam, src, tgt, monotone))
    return results


def _heads(lengths: np.ndarray) -> np.ndarray:
    """The first row of each of consecutive runs of ``lengths`` rows."""
    return np.cumsum(lengths) - lengths


@np.errstate(over="ignore", under="ignore", invalid="ignore")  # that of forms._ball_sup
def _certificates(families, values, exps: ExponentTuple) -> list[RatioCertificate]:
    """The ratio certificate of each family, given its value sequence, from
    :func:`_scores`: the lhs is :func:`lp_norm` of the values and each weak
    norm :func:`weak_lp_norm`'s, to the bit. The families of one tuple of
    column exponents, whatever their column sizes and fields, are the extra
    families of one scorer call without trials, so their heuristic weak
    norms end there, without floors."""
    if any(len(v) == 0 for v in values):
        raise ValueError("empty sequence")
    groups: dict = {}
    for k, fam in enumerate(families):
        groups.setdefault(tuple(c.space.exponent for c in fam.columns), []).append(k)
    certificates = [None] * len(families)
    for exponents, at in groups.items():
        lhs, weak, exact, _ = _scores(exps, exponents, np.empty(0, int), np.empty(0), (), [
            (np.abs(values[k]), [c.vectors for c in families[k].columns]) for k in at])
        for k, x, w, e in zip(at, lhs.tolist(), weak.T.tolist(), exact.T.tolist()):
            certificates[k] = RatioCertificate(x, tuple(map(NormEstimate, w, e)), families[k],
                                               exps)
    return certificates


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerificationReport:
    """Per-instance record of one inequality check."""

    check: str
    field: str
    p: str | None
    q: str | None
    lhs: float
    rhs: float | None
    ratio: float | None
    bound: float | None
    exact_norm: bool
    status: str
    witness: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "field": self.field,
            "p": self.p,
            "q": self.q,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "bound": self.bound,
            "exact_norm": self.exact_norm,
            "status": self.status,
            "witness": self.witness,
        }


def _status(lhs: float, rhs: float, exact: bool) -> str:
    """The verdict of lhs <= rhs up to the relative margin 2^-46 that covers
    the rounding of the l_p sum, its root and the product rhs = c * ||A||
    (``norms._SLACK``, derived there), at every scale. ``exact`` says that
    rhs rests on exact norms: otherwise rhs may lie below its true value and
    a violation is not certified."""
    if lhs <= rhs * _SLACK:
        return "pass"
    return "fail" if exact else "inconclusive"


def _ratio(lhs: float, denom: float) -> float:
    if denom > 0:
        return lhs / denom
    return 0.0 if lhs == 0 else math.inf


def _require_sup_bilinear(A: FormTensor, who: str) -> None:
    if A.order != 2:
        raise ValueError(f"{who} expects a bilinear form, got order {A.order}")
    if not all(d.is_sup for d in A.domains):
        raise ValueError(f"{who} expects sup-norm domains")


# a module constant: Exponent.of parses with Fraction arithmetic on every call,
# though the object it returns for a value is always the same one
_FOUR_THIRDS = Exponent(Fraction(3, 4))

# The constant each coefficient check asserts, by (check, field): sqrt(2), the
# optimal real 4/3 constant, attained by [[1, 1], [1, -1]], and the published
# upper bounds of the Grothendieck constant, pi / (2 ln(1 + sqrt(2))) cut to
# 1.78221 real (Krivine 1979) and 1.40491 complex (Haagerup 1987). The
# Bohnenblust-Hille rows are for order 2; above it nothing is asserted.
_CONSTANTS = {
    ("littlewood_43", ScalarField.REAL): math.sqrt(2.0),
    ("littlewood_43", ScalarField.COMPLEX): 1.40491,
    ("general_littlewood", ScalarField.REAL): 1.78221,
    ("general_littlewood", ScalarField.COMPLEX): 1.40491,
    ("extended_littlewood", ScalarField.REAL): 1.78221,
    ("extended_littlewood", ScalarField.COMPLEX): 1.40491,
    ("bohnenblust_hille", ScalarField.REAL): math.sqrt(2.0),
    ("bohnenblust_hille", ScalarField.COMPLEX): 1.40491,
}


def _versus_op_norm(
    check: str,
    A: FormTensor,
    opn: NormEstimate | None,
    lhs: float,
    const: float | None,
    p: str,
    q: str | None,
    *,
    factor: float = 1.0,
    **witness,
) -> VerificationReport:
    """Report lhs <= const * ||A|| * factor, the shape of every coefficient check.

    ``opn`` is ``op_norm(A)``, computed here when None. ``const=None``
    asserts no bound: the report fails only if lhs or the ratio is not
    finite. ``witness`` entries follow the operator norm.
    """
    opn = op_norm(A) if opn is None else opn
    ratio = _ratio(lhs, opn.value * factor)
    if const is None:
        rhs = None
        status = "pass" if math.isfinite(lhs) and math.isfinite(ratio) else "fail"
    else:
        rhs = const * opn.value * factor
        status = _status(lhs, rhs, opn.exact)
    return VerificationReport(
        check=check,
        field=str(A.field),
        p=p,
        q=q,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        bound=const,
        exact_norm=opn.exact,
        status=status,
        witness={"op_norm": opn.value, **witness},
    )


# Each coefficient verifier takes ``opn``, the operator norm of A, and
# computes it when None: the seeded suites of the CLI compute the norms of a
# chunk of instances in one kernel call (``forms._op_norms``).


def verify_littlewood_43(
    A: FormTensor,
    *,
    opn: NormEstimate | None = None,
) -> VerificationReport:
    """(sum |a_jk|^{4/3})^{3/4} <= c ||A|| with c = sqrt(2) real, K_G complex."""
    _require_sup_bilinear(A, "verify_littlewood_43")
    lhs = lp_norm(A.coeffs.reshape(-1), _FOUR_THIRDS)
    return _versus_op_norm("littlewood_43", A, opn, lhs,
                           _CONSTANTS["littlewood_43", A.field], "4/3", None)


def verify_general_littlewood(
    A: FormTensor,
    *,
    opn: NormEstimate | None = None,
) -> VerificationReport:
    """sum_k (sum_j |a_jk|^2)^{1/2} <= K_G ||A|| (the p = 1, q = 2 case)."""
    _require_sup_bilinear(A, "verify_general_littlewood")
    lhs = mixed_norm(A.coeffs, _L1, _L2)
    return _versus_op_norm("general_littlewood", A, opn, lhs,
                           _CONSTANTS["general_littlewood", A.field], "1", "2")


def verify_extended_littlewood(
    A: FormTensor,
    beta,
    p: ExponentLike,
    *,
    opn: NormEstimate | None = None,
) -> VerificationReport:
    """Mixed-norm bound ||beta o a||_{l_p(l_q)} <= K_G ||A|| ||beta||_{l_inf(l_2)}.

    Stated for complex scalars with 1 <= p <= 2 and 1/q = 1/2 + 1/p'. Real
    instances are reported, but nothing is asserted for them: their reports
    always come back "inconclusive".
    """
    _require_sup_bilinear(A, "verify_extended_littlewood")
    pe = Exponent.of(p)
    if not Fraction(1, 2) <= pe.recip <= 1:
        raise ValueError(f"p must lie in [1, 2], got {pe}")
    qe = Exponent(Fraction(1, 2) + (1 - pe.recip))
    b = np.asarray(beta)
    lhs = mixed_norm(compose_beta(b, A.coeffs), pe, qe)
    beta_norm = mixed_norm(b, INF, _L2)
    report = _versus_op_norm("extended_littlewood", A, opn, lhs,
                             _CONSTANTS["extended_littlewood", A.field], str(pe), str(qe),
                             factor=beta_norm, beta_norm=beta_norm)
    if not A.field.is_complex:
        report.status = "inconclusive"
    return report


def verify_bh(
    A: FormTensor,
    *,
    opn: NormEstimate | None = None,
) -> VerificationReport:
    """Coefficient sum at exponent 2n/(n+1) against the operator norm.

    For n = 2 the classical constants are asserted; for n >= 3 only the
    existence of a constant is known, so the ratio is reported without a
    bound (the report fails only if the ratio is not finite).
    """
    n = A.order
    if n < 2:
        raise ValueError("needs a form of order at least 2")
    if not all(d.is_sup for d in A.domains):
        raise ValueError("verify_bh expects sup-norm domains")
    t = Exponent(Fraction(n + 1, 2 * n))
    lhs = lp_norm(A.coeffs.reshape(-1), t)
    const = _CONSTANTS["bohnenblust_hille", A.field] if n == 2 else None
    return _versus_op_norm("bohnenblust_hille", A, opn, lhs, const, str(t), None,
                           order=n)


def verify_defant_voigt(
    A: FormTensor,
    fam: TestFamily,
    *,
    opn: NormEstimate | None = None,
) -> VerificationReport:
    """sum_j |A(x_j^1, ..., x_j^n)| <= ||A|| prod_i Rad_2(column_i).

    Also records the weaker classical bound with weak-l_1 norms on the right
    (the worst-case sign combination equals the weak-l_1 norm). Linear forms
    are refused: for them the Rad_2 bound is false (e_1* on J copies of e_1
    gives J on the left and sqrt(J) on the right).
    """
    if A.order < 2:
        raise ValueError("verify_defant_voigt needs a form of order at least 2")
    lhs = float(np.abs(fam.values(A)).sum())
    rads = [rad_p_norm(col, _L2, "exact") for col in fam.columns]
    report = _versus_op_norm("defant_voigt", A, opn, lhs, 1.0, "1", "2",
                             factor=math.prod(rads), rad2_norms=rads)
    weak1 = [weak_lp_norm(col, _L1) for col in fam.columns]
    weak_rhs = report.witness["op_norm"] * math.prod(w.value for w in weak1)
    weak_exact = report.exact_norm and all(w.exact for w in weak1)
    report.witness["weak_l1_rhs"] = weak_rhs
    report.witness["weak_l1_status"] = _status(lhs, weak_rhs, weak_exact)
    return report


def verify_almost_summing(
    A: FormTensor,
    fam: TestFamily,
    *,
    k: int | None = None,
) -> RatioCertificate:
    """Rad_2 of the value sequence over weak-l_2 norms of the inputs.

    The ratio is a certified lower bound on the almost-summing norm when the
    weak norms are exact. With ``k`` set, the form is curried after slot k,
    the family feeds the head, and the values are the tail forms measured in
    their operator norm. Without it every slot is in the head and the values
    are scalars measured by |.|.
    """
    k = A.order if k is None else curry(A, k).k  # curry checks 1 <= k < order
    fam._fits(A.domains[:k])
    tails = _batch_contract(A.coeffs, [c.vectors for c in fam.columns],
                            keep=range(k, A.order))
    balls = tuple(d.exponent for d in A.domains[k:])
    if not balls:  # the values are scalars, and |.| is the norm of l_inf^1
        tails, balls = tails[:, None], (INF,)
    flags = []

    def norm_fn(rows: np.ndarray) -> np.ndarray:
        values, exact, _ = _ball_sup(rows, balls, witness=False)
        flags.append(all(exact))
        return values

    rad = rademacher_average(tails, norm_fn, _L2, "exact")
    rhs = tuple(weak_lp_norm(col, _L2) for col in fam.columns)
    exps = ExponentTuple(_L2, (_L2,) * fam.n)
    return RatioCertificate(rad, rhs, fam, exps, lhs_exact=all(flags))


# ---------------------------------------------------------------------------
# weak norms of elementary tensors in the projective tensor product


def _projective_norm(s1: Exponent, s2: Exponent):
    """The norm of l_s1 (x)_pi l_s2 on a stack of coefficient matrices, where it
    has a closed form, else None: l_1(l_s2) takes the l_1 sum of the rows'
    norms, l_s1 (x) l_1 that of the columns', l_2 (x) l_2 the nuclear norm."""
    if s1 is _L1:
        return lambda U: _axis_norms(np.abs(U), s2, axis=2).sum(axis=1)
    if s2 is _L1:
        return lambda U: _axis_norms(np.abs(U), s1, axis=1).sum(axis=1)
    if s1 is s2 is _L2:
        return lambda U: np.linalg.svd(U, compute_uv=False).sum(axis=1)
    return None


# the largest dimension product m1 * m2 of a tensor weak norm
_TENSOR_DIMS = 64


def tensor_weak_norm_estimate(seq1: VectorSeq, seq2: VectorSeq,
                              p: ExponentLike) -> NormEstimate:
    """Weak-l_p norm of (x_j (x) y_j)_j in the projective tensor product.

    The dual unit ball is the set of bilinear forms B with ||B|| <= 1, so the
    value is sup_B (sum_j |B(x_j, y_j)|^p)^(1/p), for m1 * m2 up to
    ``_TENSOR_DIMS``. What the result certifies:

    - p = inf or J = 1, either field: exact, max_j ||x_j|| ||y_j||, since the
      projective norm is a cross norm.
    - real data, p = 1, a pair with a closed-form projective norm (l_1 (x) F,
      F (x) l_1 or l_2 (x) l_2, see :func:`_projective_norm`) and 2^(J-1)
      within ``_ENUM_BUDGET``: exact, the largest ||sum_j eps_j x_j (x) y_j||_pi
      over all sign vectors eps.
    - otherwise a lower bound, ``exact=False`` (:func:`_candidate_bound`).
    """
    if seq1.length != seq2.length:
        raise ValueError("sequences must have a common length")
    if seq1.length == 0:
        raise ValueError("empty sequence")
    m1, m2 = seq1.dim, seq2.dim
    if m1 * m2 > _TENSOR_DIMS:
        raise ValueError(
            f"dimension product {m1 * m2} exceeds the budget {_TENSOR_DIMS}")
    pe = Exponent.of(p)
    balls = (seq1.space.exponent, seq2.space.exponent)
    X1, X2 = seq1.vectors, seq2.vectors
    if pe.is_inf or seq1.length == 1:
        cross = (_axis_norms(np.abs(X1), balls[0], axis=1)
                 * _axis_norms(np.abs(X2), balls[1], axis=1))
        return NormEstimate(float(cross.max()), True)
    U = X1[:, :, None] * X2[:, None, :]  # the tensors x_j (x) y_j as matrices
    norm = None if U.dtype.kind == "c" or pe is not _L1 else _projective_norm(*balls)
    if norm is not None and sign_count(seq1.length) <= _ENUM_BUDGET:
        return NormEstimate(rademacher_average(U, norm, INF, "exact"), True)
    return NormEstimate(_candidate_bound(U, balls, pe), False)


def _candidate_bound(U: np.ndarray, balls: tuple[Exponent, Exponent],
                     pe: Exponent) -> float:
    """The best (sum_j |B(U_j)|^p)^(1/p) / N(B) over seeded bilinear forms B:
    the basis matrices, every sign matrix with first entry +1 (B and -B tie;
    256 random ones above 16 entries), the identity and 64 Gaussian matrices.
    N(B) >= ||B|| is the kernel's norm where its plan is ``enumeration``
    (:func:`forms._plan`), else the coefficient sum."""
    J, m1, m2 = U.shape
    is_complex = U.dtype.kind == "c"
    rng = np.random.default_rng(0)
    if m1 * m2 <= 16:
        signs = sign_rows(m1 * m2).reshape(-1, m1, m2)
    else:
        signs = [rng.choice([-1.0, 1.0], size=(m1, m2)) for _ in range(256)]
    B = np.concatenate([np.eye(m1 * m2).reshape(-1, m1, m2), signs, np.eye(m1, m2)[None],
                        [_gaussian(rng, (m1, m2), is_complex) for _ in range(64)]])
    if _plan((m1, m2), balls, is_complex).method == "enumeration":
        norms = _ball_sup(B, balls, witness=False)[0]
    else:  # the coefficient sum bounds the norm on any domains
        norms = np.abs(B).sum(axis=(1, 2))
    values = _axis_norms(np.abs(B.reshape(len(B), -1) @ U.reshape(J, -1).T), pe, axis=1)
    return float(np.divide(values, norms, out=np.zeros(len(B)), where=norms > 0).max())


# ---------------------------------------------------------------------------
# coincidence arithmetic


def _inner(qs, count) -> tuple[Exponent, ...]:
    """The inner exponents ``qs``, refused unless there are ``count`` of them."""
    qes = tuple(Exponent.of(q) for q in qs)
    if len(qes) != count:
        raise ValueError(f"expected {count} inner exponents, got {len(qes)}")
    return qes


def _as_exponent_tuple(x, n: int) -> ExponentTuple:
    p, qs = (x.p, x.qs) if isinstance(x, ExponentTuple) else x
    return ExponentTuple(Exponent.of(p), _inner(qs, n))


def _embeds(source: ExponentTuple, target: ExponentTuple) -> bool:
    """Whether the summing class at ``source`` embeds in the one at
    ``target``: source <= target componentwise, and the defect sum 1/q_i -
    1/p does not decrease."""
    return (source.p <= target.p and all(a <= b for a, b in zip(source.qs, target.qs))
            and source.defect() <= target.defect())


# the arguments each rule of coincidence_region reads
_RULE_ARGS = {
    "dv2": ("p", "qs"),
    "inclusion": ("source", "target"),
    "cotype2": ("k", "p", "q", "qs"),
    "even_odd": ("r", "p", "qs"),
}


def coincidence_region(
    rule: str,
    n: int,
    *,
    p: ExponentLike | None = None,
    q: ExponentLike | None = None,
    qs=None,
    k: int | None = None,
    r: ExponentLike | None = None,
    source=None,
    target=None,
) -> bool:
    """Pure exponent arithmetic for the admissibility rules.

    dv2:       every form is (p; q_1, ..., q_n)-summing when
               sum 1/q_i - 1/p >= n - 1 (floors: p, q_i >= 1).
    inclusion: the summing class at ``source`` embeds in the one at
               ``target`` (:func:`_embeds`) when source <= target
               componentwise and the defect sum 1/q_i - 1/p does not decrease;
               each is an :class:`ExponentTuple` or a pair (p, qs).
    cotype2:   exchange identity on k cotype-2 slots,
               sum_{i<=k} 1/q_i - 1/q = k - 1/p with 1 <= q_i <= 2 and
               1 <= k <= n; as 1/q_i <= 1 it forces p <= q.
    even_odd:  lifted tuple of a bilinear (1; r, r) coincidence, 1 <= r <= 2:
               (1; r, ..., r) for even n and (r; r, ..., r) for odd n >= 3.

    A rule refuses a call without one of the arguments it reads, and one with
    other than k inner exponents (cotype2) or n (every other rule).
    """
    names = _RULE_ARGS.get(rule) if isinstance(rule, str) else None
    if names is None:
        raise ValueError(f"unknown rule {rule!r}")
    given = {"p": p, "q": q, "qs": qs, "k": k, "r": r, "source": source, "target": target}
    if any(given[name] is None for name in names):
        raise ValueError(f"{rule} needs {', '.join(names[:-1])} and {names[-1]}")
    if rule == "inclusion":
        return _embeds(_as_exponent_tuple(source, n), _as_exponent_tuple(target, n))
    if rule == "cotype2" and not 1 <= k <= n:
        raise ValueError("k must lie in 1..n")
    r, p, q = (Exponent.of(given[name]) if name in names else None for name in ("r", "p", "q"))
    qes = _inner(qs, k if rule == "cotype2" else n)
    total = sum(x.recip for x in qes)
    if rule == "dv2":
        if p.recip > 1 or any(x.recip > 1 for x in qes):
            raise ValueError("dv2 applies for exponents >= 1")
        return total - p.recip >= n - 1
    if rule == "cotype2":
        if any(not _L2.recip <= x.recip <= 1 for x in qes):
            raise ValueError("cotype2 applies for 1 <= q_i <= 2")
        return total - q.recip == k - p.recip
    if not _L2.recip <= r.recip <= 1:
        raise ValueError("even_odd applies for 1 <= r <= 2")
    if n < 2:
        raise ValueError("even_odd needs n >= 2")
    return all(x is r for x in qes) and (p is _L1 if n % 2 == 0 else p is r)


# ---------------------------------------------------------------------------
# mixed-domain ratio experiment


def summing_experiment(
    domain_p: ExponentLike,
    domain_q: ExponentLike,
    *,
    m: int = 3,
    count: int = 5,
    budget: int = 200,
    seed: int = 0,
    j_max: int = 8,
    field: ScalarField = ScalarField.COMPLEX,
) -> list[dict]:
    """Empirical (p; 2, 1) ratios for bilinear forms on l_p x l_q domains.

    No bound is asserted; the records report the best witnessed ratio, the
    (heuristic) operator norm, and their quotient, deterministically per seed.
    A ``budget`` or ``j_max`` that the searches refuse (:func:`random_family_search`)
    is refused before any form is drawn.
    """
    _refuse_search(budget, j_max, _entry_draws(field)[0] * 2 * m)
    dp, dq = Exponent.of(domain_p), Exponent.of(domain_q)
    exps = ExponentTuple(dp, (_L2, _L1))
    seeds = np.random.SeedSequence(seed).spawn(count)
    records = []
    for i in range(count):
        rng = np.random.default_rng(seeds[i])
        A = random_form(rng, (m, m), field, exponents=(dp, dq))
        cert = random_family_search(
            A, exps, budget=budget, seed=seed + 7919 * i, j_max=j_max,
        )
        opn = op_norm(A)
        records.append(
            {
                "instance": i,
                "domains": f"l_{dp}^{m} x l_{dq}^{m}",
                "exponents": str(exps),
                "best_ratio": cert.ratio,
                "weak_norms_exact": cert.exact,
                "op_norm": opn.value,
                "op_norm_exact": opn.exact,
                "normalized_ratio": _ratio(cert.ratio, opn.value),
            }
        )
    return records
