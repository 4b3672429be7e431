import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from summability import (
    Exponent,
    ExponentTuple,
    FormTensor,
    NormEstimate,
    ScalarField,
    SpaceSpec,
    TestFamily,
    VectorSeq,
    coincidence_region,
    factor_sequence,
    lift_family,
    lp_norm,
    op_norm,
    random_family_search,
    random_form,
    summing_experiment,
    summing_lower_bound,
    tensor_weak_norm_estimate,
    verify_almost_summing,
    verify_bh,
    verify_defant_voigt,
    verify_extended_littlewood,
    verify_general_littlewood,
    verify_littlewood_43,
    weak_lp_norm,
)
from summability.forms import _gaussian
from summability.norms import _sum_class
from summability.rademacher import rademacher_average
from summability import forms, summing
from summability.summing import _structured_families
from conftest import basis_family

SQRT2 = math.sqrt(2)


# ---------------------------------------------------------------------------
# certificates


def test_lower_bound_single_basis_column(littlewood):
    fam = TestFamily(tuple(
        VectorSeq(np.eye(2)[k][None, :], SpaceSpec.linf(2)) for k in (1, 0)
    ))
    cert = summing_lower_bound(littlewood, ExponentTuple(1, (2, 2)), fam)
    assert cert.ratio == pytest.approx(abs(littlewood.coeffs[1, 0]), abs=1e-15)


def test_lower_bound_littlewood_diagonal(littlewood, diag_family):
    cert = summing_lower_bound(littlewood, ExponentTuple(1, (2, 2)), diag_family)
    assert cert.lhs == 2.0
    assert all(r.exact and r.value == 1.0 for r in cert.rhs_norms)
    assert cert.ratio == 2.0


def test_lower_bound_identity_dv_witness(diag_family):
    A = FormTensor.on_linf(np.eye(2))
    cert = summing_lower_bound(A, ExponentTuple(1, (1, 1)), diag_family)
    est = op_norm(A)
    assert cert.ratio == pytest.approx(est.value, abs=1e-15) == 2.0


def test_lower_bound_shape_errors(littlewood, diag_family):
    with pytest.raises(ValueError):
        summing_lower_bound(littlewood, ExponentTuple(1, (2, 2, 2)), basis_family(3))
    bad = TestFamily((diag_family.columns[0],))
    with pytest.raises(ValueError):
        summing_lower_bound(littlewood, ExponentTuple(1, (2, 2)), bad)
    wrong = TestFamily((diag_family.columns[0], VectorSeq(np.eye(2), SpaceSpec.lp(2, 2))))
    with pytest.raises(ValueError, match=r"^column 1 lives in l_2\^2, form slot needs l_inf\^2$"):
        summing_lower_bound(littlewood, ExponentTuple(1, (2, 2)), wrong)


@pytest.mark.parametrize("qs", [(2, 2), (1, "inf"), ("1/2", "1/2"), (2, "1/2")])
def test_lower_bound_of_an_empty_family_is_refused(littlewood, qs):
    # a family of no vectors has no weak norm, at q >= 1 (a kernel norm) and
    # at q < 1 alike
    empty = TestFamily(tuple(VectorSeq(np.zeros((0, 2)), SpaceSpec.linf(2)) for _ in qs))
    with pytest.raises(ValueError, match="^empty sequence$"):
        summing_lower_bound(littlewood, ExponentTuple(1, qs), empty)


def test_family_validation():
    space = SpaceSpec.linf(2)
    with pytest.raises(ValueError):
        TestFamily(())
    with pytest.raises(ValueError):
        TestFamily((VectorSeq(np.eye(2), space), VectorSeq(np.eye(2)[:1], space)))


def test_search_littlewood(littlewood):
    best = random_family_search(littlewood, ExponentTuple(1, (2, 2)),
                                budget=64, seed=0)
    assert best.ratio >= 2.0 - 1e-12


def test_search_zero_form():
    Z = FormTensor.on_linf(np.zeros((2, 2)))
    best = random_family_search(Z, ExponentTuple(1, (2, 2)), budget=16, seed=0)
    assert best.ratio == 0.0


def test_search_identity_scaling():
    for m in (2, 3):
        A = FormTensor.on_linf(np.eye(m))
        best = random_family_search(A, ExponentTuple(1, (1, 1)), budget=32, seed=0)
        assert best.ratio >= m - 1e-12


def test_search_deterministic(littlewood):
    exps = ExponentTuple(1, (2, 2))
    a = random_family_search(littlewood, exps, budget=40, seed=9)
    b = random_family_search(littlewood, exps, budget=40, seed=9)
    assert a.ratio == b.ratio
    assert a.to_dict() == b.to_dict()


def test_search_golden_certificate():
    # a drawn family of one vector per slot beats the best structured one,
    # the flat family of length 1
    A = random_form(np.random.default_rng(1), (2, 2, 2), ScalarField.COMPLEX)
    exps = ExponentTuple(2, (2, 2, 2))
    cert = random_family_search(A, exps, budget=37, seed=9)
    assert cert.ratio.hex() == "0x1.d5a77a4f5c36ap+0"
    assert cert.family.length == 1 and cert.exact
    flat = summing_lower_bound(A, exps, _structured(A, 16)[3])
    assert flat.ratio.hex() == "0x1.a7346ff5267aap+0"


def _structured(A, j_max):
    """The structured families of a search, as test families."""
    return [summing._as_family(A, columns) for columns in _structured_families(A, j_max)]


def _reference_search(A, exps, budget, seed, j_max):
    """The search as a plain loop: one generator draws the lengths of all
    trials, then each family column by column, certified through
    summing_lower_bound, the structured families first, then the trials in
    order; the first maximal ratio wins."""
    rng = np.random.default_rng(seed)

    def families():
        yield from _structured(A, j_max)
        for J in rng.integers(1, j_max + 1, size=budget).tolist():
            columns = []
            for d in A.domains:
                x = rng.standard_normal((J, d.dim))
                if A.field.is_complex:
                    x = x + 1j * rng.standard_normal((J, d.dim))
                columns.append(VectorSeq(x, d))
            yield TestFamily(tuple(columns))

    best = None
    for fam in families():
        cert = summing_lower_bound(A, exps, fam)
        if best is None or cert.ratio > best.ratio:
            best = cert
    return best


def _assert_is_the_loops(got, ref):
    """The search's certificate is the reference loop's: the same family,
    weak norms and flags, and the same lhs and ratio, within 16 ulps for a
    bilinear family of one or two vectors, which einsum sums alone in
    another order than in the scorer's stack."""
    assert got.family.length == ref.family.length
    for a, b in zip(got.family.columns, ref.family.columns):
        assert a.space == b.space and np.array_equal(a.vectors, b.vectors)
    assert [(w.value, w.exact) for w in got.rhs_norms] == \
        [(w.value, w.exact) for w in ref.rhs_norms]
    assert got.lhs_exact == ref.lhs_exact and got.exponents == ref.exponents
    ulps = 16 if ref.family.n == 2 and ref.family.length <= 2 else 0
    assert abs(got.lhs - ref.lhs) <= ulps * math.ulp(ref.lhs)
    assert abs(got.ratio - ref.ratio) <= ulps * math.ulp(ref.ratio)


_SEARCH_FORMS = [
    # (field, dims, domain exponents, p, qs, scale)
    (ScalarField.REAL, (3, 4), ("inf", "inf"), 1, (2, 2), 1.0),
    (ScalarField.COMPLEX, (3, 3), ("inf", "inf"), 1, (2, 2), 1.0),
    (ScalarField.REAL, (2, 3, 2), ("inf",) * 3, 1, (2, 2, 2), 1.0),
    (ScalarField.REAL, (2, 3, 2), ("inf",) * 3, 1, (1, 2, 1), 2.0 ** 600),
    (ScalarField.COMPLEX, (2, 2, 3), ("inf",) * 3, 2, (2, 2, 2), 1.0),
    (ScalarField.REAL, (3, 4), (1, 2), 1, (2, 1), 1.0),
    (ScalarField.COMPLEX, (3, 3), (1, "inf"), 1, (1, 2), 1.0),
    (ScalarField.COMPLEX, (3, 3), ("4/3", 2), "4/3", (2, 1), 1.0),
    (ScalarField.REAL, (2, 3, 2), (1, 2, "inf"), 1, (2, "inf", 1), 1.0),
    # exact columns around a heuristic one: pins the column order of the product
    (ScalarField.COMPLEX, (2, 3, 2), ("inf", "4/3", "inf"), 1, (2, 2, 2), 1.0),
    # q < 1: weak norms that are not kernel norms
    (ScalarField.REAL, (3, 3), ("inf", "inf"), "1/2", ("1/2", 2), 1.0),
    # l_2 x l_2: the spectral norm closes every column without an exact plan
    (ScalarField.REAL, (3, 3), (2, 2), 1, (2, 2), 1.0),
    (ScalarField.COMPLEX, (3, 3), (2, 2), 2, (2, 2), 1.0),
    # the sign matrix: the diagonal and flat families tie at exactly 2, the grid scores less
    (ScalarField.REAL, (2, 2), ("inf", "inf"), 1, (2, 2), [[1, 1], [1, -1]]),
    # a slot of dim 1: einsum orders its loops by it
    (ScalarField.REAL, (3, 1, 2), ("inf", 2, 1), 1, (2, 1, 2), 1.0),
    # real l_3 x l_3: heuristic columns, the structured families among them
    (ScalarField.REAL, (3, 3), (3, 3), 1, (2, 2), 1.0),
    # shapes (2, 2) and (2, 3): einsum sums one or two vectors alone in another order
    (ScalarField.COMPLEX, (2, 2), ("inf", "inf"), 1, (2, 2), 1.0),
    (ScalarField.REAL, (2, 3), (1, 2), "4/3", (2, 1), 1.0),
]


def _search_case(case):
    """The form and exponent tuple of _SEARCH_FORMS[case]: Gaussian coefficients
    seeded by the case, times the scale, or the coefficients given in its place."""
    field, dims, domains, p, qs, scale = _SEARCH_FORMS[case]
    A = random_form(np.random.default_rng(case), dims, field, exponents=domains)
    coeffs = A.coeffs * scale if np.ndim(scale) == 0 else np.array(scale, float)
    return FormTensor(coeffs, A.domains, field), ExponentTuple(p, qs)


@pytest.mark.parametrize("budget,j_max", [(1, 16), (5, 1), (8, 16), (37, 16), (37, 1)])
@pytest.mark.parametrize("case", range(len(_SEARCH_FORMS)))
def test_search_matches_the_family_loop(case, budget, j_max):
    A, exps = _search_case(case)
    seed = 100 * case + budget + j_max
    got = random_family_search(A, exps, budget=budget, seed=seed, j_max=j_max)
    _assert_is_the_loops(got, _reference_search(A, exps, budget, seed, j_max))


@pytest.mark.parametrize("case", [0, 4, 7])
def test_search_chunks_keep_the_first_maximum(case, monkeypatch):
    # 37 trials in chunks of 4: the best is carried from chunk to chunk
    monkeypatch.setattr(summing, "_SEARCH_CHUNK", 4)
    A, exps = _search_case(case)
    got = random_family_search(A, exps, budget=37, seed=case, j_max=6)
    _assert_is_the_loops(got, _reference_search(A, exps, 37, case, 6))


@pytest.mark.parametrize("case", [0, 7])
def test_search_chunks_cut_at_the_draw_budget_keep_the_first_maximum(case, monkeypatch):
    # chunks of at most 64 drawn numbers (and at least one trial); the
    # structured families join the first chunk
    monkeypatch.setattr(summing, "_ENUM_BUDGET", 64)
    A, exps = _search_case(case)
    chunks = []
    ratios = summing._family_ratios
    monkeypatch.setattr(summing, "_family_ratios",
                        lambda A, exps, lengths, starts, flat, best, structured:
                        chunks.append((lengths, flat, len(structured))) or
                        ratios(A, exps, lengths, starts, flat, best, structured))
    got = random_family_search(A, exps, budget=37, seed=case, j_max=5)
    assert len(chunks) > 4 and sum(len(lengths) for lengths, _, _ in chunks) == 37
    assert all(len(lengths) == 1 or flat.size <= 64 for lengths, flat, _ in chunks)
    structured = [count for _, _, count in chunks]
    assert structured == [5] + [0] * (len(chunks) - 1)
    _assert_is_the_loops(got, _reference_search(A, exps, 37, case, 5))


class _RecordingGenerator:
    """A generator that records, per call, the method and how many numbers it drew."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.calls.append((name, np.size(out)))
            return out
        return call


@pytest.mark.parametrize("budget", [3, 37, 300])
@pytest.mark.parametrize("case", [0, 7])
def test_search_draws_each_stream_in_few_bounded_calls(case, budget, monkeypatch):
    # one generator from the seed, one integers call for the lengths of all
    # trials, then one normal draw per chunk, of at most 64 numbers (the
    # draw budget) or one trial, whichever is more
    A, exps = _search_case(case)
    seed = 100 + case  # the kernel's random starts draw from seed 0
    ref = _reference_search(A, exps, budget, seed, 5)
    lengths = np.random.default_rng(seed).integers(1, 6, size=budget)
    monkeypatch.setattr(summing, "_ENUM_BUDGET", 64)
    made, make = [], np.random.default_rng

    def recording(seed_given=None):
        rng = make(seed_given)
        if isinstance(seed_given, int) and seed_given == seed:  # the search's generator
            made.append(_RecordingGenerator(rng))
            return made[-1]
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    got = random_family_search(A, exps, budget=budget, seed=seed, j_max=5)
    per = (2 if A.field.is_complex else 1) * sum(A.dims)
    generator, = made
    (first, trials), *normal = generator.calls
    assert (first, trials) == ("integers", budget)
    assert {name for name, _ in normal} == {"standard_normal"}
    assert all(size <= max(64, 5 * per) for _, size in normal)
    assert sum(size for _, size in normal) == lengths.sum() * per
    _assert_is_the_loops(got, ref)


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_search_refuses_a_jmax_over_the_draw_budget(field):
    A = random_form(np.random.default_rng(0), (2, 2), field)
    with pytest.raises(ValueError, match="--jmax"):
        random_family_search(A, ExponentTuple(1, (2, 2)), budget=1, j_max=2 ** 50)
    # 2^22 numbers per trial at most: j_max * sum(dims), doubled for complex forms
    j_max = 2 ** 20 // (2 if field.is_complex else 1)
    with pytest.raises(ValueError, match="--jmax"):
        random_family_search(A, ExponentTuple(1, (2, 2)), budget=1, j_max=j_max + 1)


def _starts(A, lengths):
    """Where each of the families of ``lengths``, drawn one after another,
    starts in the numbers drawn."""
    sizes = (2 if A.field.is_complex else 1) * sum(A.dims) * lengths
    return np.cumsum(sizes) - sizes


def _draws(rng, A, j_max, count):
    """``count`` families drawn one after another, each its length and then
    its entries: (lengths, starts, flat)."""
    lengths, flat = [], []
    for _ in range(count):
        lengths.append(int(rng.integers(1, j_max + 1)))
        flat.append(rng.standard_normal((2 if A.field.is_complex else 1) * lengths[-1]
                                        * sum(A.dims)))
    lengths = np.array(lengths)
    return lengths, _starts(A, lengths), np.concatenate(flat)


@pytest.mark.parametrize("p", ["4/3", "3/2", 3])
@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
@pytest.mark.parametrize("dims,domains", [
    ((3, 4), ("inf", "inf")),
    ((4, 3), (2, 2)),
    ((2, 3, 2), ("inf",) * 3),
    ((2, 2, 3), (2, "inf", 1)),
])
def test_search_scores_are_the_certificate_ratios(dims, domains, field, p):
    # one l_p rule for both, and the weak norms and flags of weak_lp_norm;
    # bilinear families of one or two vectors are left out, as einsum sums
    # their values alone in another order than in the scorer's stack
    rng = np.random.default_rng([*dims, int(field.is_complex), Exponent.of(p).recip.numerator])
    A = random_form(rng, dims, field, exponents=domains)
    exps = ExponentTuple(p, (2,) * len(dims))
    lengths, starts, flat = _draws(rng, A, 8, 300)
    keep = (lengths >= 3) | (len(dims) > 2)
    lengths, starts = lengths[keep], starts[keep]
    # an incumbent of 0 sets no floors
    ratios, lhs, weak, exact = summing._family_ratios(A, exps, lengths, starts, flat, 0.0)
    for k in range(len(lengths)):
        fam = summing._as_family(A, summing._columns(A, lengths[[k]], starts[[k]], flat))
        cert = summing_lower_bound(A, exps, fam)
        assert (ratios[k], lhs[k]) == (cert.ratio, cert.lhs)
        assert weak[:, k].tolist() == [w.value for w in cert.rhs_norms]
        assert exact[:, k].tolist() == [w.exact for w in cert.rhs_norms]


def _kernel_calls(A, exps, monkeypatch):
    """Per call of the kernel a search of 64 trials makes from summing: which
    entry (the whole kernel or its first half; exact columns enter it whole,
    the rest by halves), the balls, whether the items are a list, and their
    lengths."""
    calls = []

    def counting(name, entry):
        def call(items, balls, *args, **kwargs):
            calls.append((name, balls, isinstance(items, list), [len(a) for a in items]))
            return entry(items, balls, *args, **kwargs)
        return call

    monkeypatch.setattr(summing, "_ball_sup", counting("whole", summing._ball_sup))
    monkeypatch.setattr(summing, "_ball_sup_start", counting("start", summing._ball_sup_start))
    random_family_search(A, exps, budget=64, seed=3, j_max=6)
    return calls


@pytest.mark.parametrize("field,domains,qs", [
    (ScalarField.REAL, ("4/3", 3), (2, 2)),
    (ScalarField.COMPLEX, ("4/3", 2), (2, 1)),
], ids=["real", "complex"])
def test_search_sends_each_heuristic_column_to_the_kernel_once(field, domains, qs, monkeypatch):
    # l_4/3 x l_3 at (4/3; 2, 2) and complex l_4/3 x l_2 at (4/3; 2, 1): both
    # columns are heuristic from length 2 on. The structured families join
    # the first chunk's kernel calls, and those without an exact plan take
    # one call of their own per column before the trials' ascents start, as
    # they set the trials' floors
    A = random_form(np.random.default_rng(7), (3, 3), field, exponents=domains)
    exps = ExponentTuple("4/3", qs)
    calls = _kernel_calls(A, exps, monkeypatch)
    for q, d in zip(exps.qs, A.domains):
        column = [c for c in calls if c[1] == (q.dual, d.exponent.dual)]
        lists = [(name, lengths) for name, _, is_list, lengths in column if is_list]
        assert [name for name, _ in lists] == ["whole", "start"]
        assert len(set(lists[1][1])) > 1 and min(lists[1][1]) >= 2
        # every trial and every structured family
        assert sum(len(lengths) for *_, lengths in column) == 64 + 5


def _assert_structured_scores_are_their_certificates_ratios(A, exps, seed, budget, j_max):
    # scored with the first chunk's trials, each structured family gets its
    # certificate's ratio to the bit, in complex spaces too: its real columns
    # either join a complex stack of an exact plan, the plan the real kernel
    # takes, or go to the kernel on their own
    per = (2 if A.field.is_complex else 1) * sum(A.dims)
    chunk = next(summing._chunks_drawn(seed, budget, j_max, per))
    structured = _structured_families(A, j_max)
    scores = summing._family_ratios(A, exps, *chunk, -math.inf, structured)[0]
    assert len(scores) == len(structured) + len(chunk[0])
    want = [summing_lower_bound(A, exps, fam).ratio for fam in _structured(A, j_max)]
    assert scores[:len(structured)].tolist() == want


@pytest.mark.parametrize("j_max", [1, 16])
@pytest.mark.parametrize("case", range(len(_SEARCH_FORMS)))
def test_structured_scores_are_their_certificates_ratios(case, j_max):
    A, exps = _search_case(case)
    _assert_structured_scores_are_their_certificates_ratios(A, exps, case, 37, j_max)


@pytest.mark.parametrize("seed", range(48))
def test_structured_scores_of_random_forms_are_their_certificates_ratios(seed):
    # two complex forms in three: orders 2 and 3, dims 1 to 6, mixed domains,
    # inner exponents from 1/2 to infinity
    rng = np.random.default_rng([24, seed])
    order = int(rng.integers(2, 4))
    dims = rng.integers(1, 7, size=order).tolist()
    exponents = ["1", "4/3", "2", "3", "inf"]
    domains = rng.choice(exponents, size=order).tolist()
    qs = rng.choice(["1/2"] + exponents, size=order).tolist()
    total = sum(Exponent.of(q).recip for q in qs)
    p = str(rng.choice([p for p in exponents if Exponent.of(p).recip <= total]))
    field = ScalarField.COMPLEX if seed % 3 else ScalarField.REAL
    A = random_form(rng, dims, field, exponents=domains)
    _assert_structured_scores_are_their_certificates_ratios(
        A, ExponentTuple(p, qs), seed, 16, int(rng.choice([1, 4, 16])))


def test_sign_matrix_ties_go_to_the_diagonal():
    # the diagonal and flat families tie at exactly 2 = ||A||, the grid scores
    # one ulp less; a trial of one vector pair scores at most ||A||, so the
    # first of the tied families, the diagonal, wins
    A = FormTensor.on_linf([[1.0, 1.0], [1.0, -1.0]])
    exps = ExponentTuple(1, (2, 2))
    chunk = next(summing._chunks_drawn(0, 37, 4, 4))
    scores = summing._family_ratios(A, exps, *chunk, -math.inf, _structured_families(A, 4))[0]
    assert scores[:5].tolist() == [1.0, 2.0, 1.9999999999999996, 2.0, 2.0]
    cert = random_family_search(A, exps, budget=37, seed=0, j_max=1)
    assert cert.ratio == 2.0
    assert all(np.array_equal(c.vectors, np.eye(2)) for c in cert.family.columns)


@pytest.mark.parametrize("case", range(len(_SEARCH_FORMS)))
def test_search_certificate_is_the_winners_score(case, monkeypatch):
    # the scorer's lhs, weak norms and flags make the certificate: no
    # certificate is computed again, and no weak norm after scoring (for
    # q < 1 the scorer calls weak_lp_norm, once per family and column)
    A, exps = _search_case(case)
    calls, scores, ratios = [], [], summing._family_ratios
    for name in ("weak_lp_norm", "summing_lower_bound"):
        entry = getattr(summing, name)
        monkeypatch.setattr(summing, name, lambda *a, entry=entry, name=name, **k:
                            calls.append(name) or entry(*a, **k))
    monkeypatch.setattr(summing, "_family_ratios", lambda *a: scores.append(
        scored := ratios(*a)) or calls.append("scored") or scored)
    cert = random_family_search(A, exps, budget=37, seed=case, j_max=6)
    weak_calls = (len(_structured_families(A, 6)) + 37) * sum(q.recip > 1 for q in exps.qs)
    assert calls == ["weak_lp_norm"] * weak_calls + ["scored"]
    # its ratio is the best score to the bit
    best = np.concatenate([ratio for ratio, *_ in scores])
    assert cert.ratio == np.max(np.where(np.isnan(best), -np.inf, best))
    # its lhs is that of independent numpy, its weak norms those of weak_lp_norm
    letters = "abc"[:A.order]
    values = np.einsum(f"{letters},{','.join('j' + c for c in letters)}->j", A.coeffs,
                       *[c.vectors for c in cert.family.columns])
    p = float(exps.p.recip) ** -1
    assert math.isclose(cert.lhs, float((np.abs(values) ** p).sum() ** (1 / p)), rel_tol=1e-9)
    assert [(w.value, w.exact) for w in cert.rhs_norms] == [
        (w.value, w.exact) for w in map(weak_lp_norm, cert.family.columns, exps.qs)]


# (case, budget, seed) where the winner, a drawn bilinear family of one or two
# vectors, scored otherwise alone in its chunk while the scorer contracted the
# trials of lengths 1 and 2 apart from the longer ones
_CHUNK_SENSITIVE = [(13, 37, 35), (16, 37, 12), (17, 37, 7), (17, 5, 34)]


@pytest.mark.parametrize("case,budget,seed", [
    (case, budget, 10 * case + budget)
    for case in range(len(_SEARCH_FORMS)) for budget in (1, 5, 8, 37)] + _CHUNK_SENSITIVE)
def test_search_results_do_not_depend_on_the_chunks(case, budget, seed, monkeypatch):
    # chunks of one trial, of four and of at most 64 drawn numbers move the
    # incumbent and the stacks the scorer contracts, not the certificate
    A, exps = _search_case(case)
    want = random_family_search(A, exps, budget=budget, seed=seed, j_max=4).to_dict()
    for name, value in [("_SEARCH_CHUNK", 1), ("_SEARCH_CHUNK", 4), ("_ENUM_BUDGET", 64)]:
        with monkeypatch.context() as patched:
            patched.setattr(summing, name, value)
            got = random_family_search(A, exps, budget=budget, seed=seed, j_max=4)
            assert got.to_dict() == want, (name, value)


def test_first_chunk_floors_are_set_from_the_structured_families(monkeypatch):
    # real l_3 x l_3: the structured families' heuristic weak norms end
    # first, without floors, and the trials' floors are set from their best
    # ratio, their best certificate's ratio
    case = next(k for k, form in enumerate(_SEARCH_FORMS)
                if form[:3] == (ScalarField.REAL, (3, 3), (3, 3)))
    A, exps = _search_case(case)
    incumbents, floors = [], summing._floors
    monkeypatch.setattr(summing, "_floors", lambda lhs, low, i, incumbent:
                        incumbents.append(incumbent) or floors(lhs, low, i, incumbent))
    got = random_family_search(A, exps, budget=64, seed=5, j_max=6)
    best = max(summing_lower_bound(A, exps, fam).ratio for fam in _structured(A, 6))
    assert incumbents == [best, best]  # two heuristic columns, one chunk
    _assert_is_the_loops(got, _reference_search(A, exps, 64, 5, 6))


@pytest.mark.parametrize("case", [k for k, form in enumerate(_SEARCH_FORMS)
                                  if form[0] == ScalarField.COMPLEX])
def test_structured_weak_norms_in_complex_spaces_are_the_closed_forms(case):
    # the structured columns are real, so their weak norms are taken over the
    # reals; unit and flat vectors meet Hoelder's equality case over either
    # field, so that is the complex value: d distinct unit vectors of l_s^m
    # have weak-l_q norm d^max(0, 1/q - 1/s'), R^(1/q) times that when each
    # is repeated R times, and reps flat vectors reps^(1/q) m^(1/s)
    A, exps = _search_case(case)
    spike, diagonal, grid, flat1, flat4 = _structured(A, 16)
    for i, (q, d) in enumerate(zip(exps.qs, A.domains)):
        s, m = d.exponent, d.dim
        R = math.prod(A.dims) // m  # the grid's copies of each unit vector
        for fam, want in [
            (spike, 1.0),
            (diagonal, min(A.dims) ** max(0.0, float(q.recip - s.dual.recip))),
            (grid, R ** float(q.recip) * m ** max(0.0, float(q.recip - s.dual.recip))),
            (flat1, m ** float(s.recip)),
            (flat4, 4 ** float(q.recip) * m ** float(s.recip)),
        ]:
            col = fam.columns[i]
            assert col.vectors.dtype == float
            assert weak_lp_norm(col, q).value == pytest.approx(want, rel=1e-12), (i, want)
    # real vectors at 120 degrees: over the complex numbers the weak-l_1 norm
    # is sqrt(4.5) ~ 2.12 (a lower bound here), over the reals 2
    x = np.array([[1.0, 0.0], [-0.5, 0.75 ** 0.5], [-0.5, -0.75 ** 0.5]])
    assert weak_lp_norm(VectorSeq(x, SpaceSpec.lp(2, 2)), 1).value == pytest.approx(2.0)
    assert weak_lp_norm(VectorSeq(x + 0j, SpaceSpec.lp(2, 2)), 1).value > 2.1


# the padding of the scorer: the lengths of one class share one pass


def _padded(rows: np.ndarray, L: int) -> np.ndarray:
    """rows (T, J, ...) zero-padded along axis 1 to length L."""
    out = np.zeros((rows.shape[0], L) + rows.shape[2:], rows.dtype)
    out[:, :rows.shape[1]] = rows
    return out


def _class_lengths(J: int) -> range:
    """J and every longer length of its class, up to 20 for J >= 16."""
    return range(J, 8 * (J // 8) + 8 if J < 16 else 21)


@pytest.mark.parametrize("p", ["1", "4/3", "2", "3", "inf"])
def test_zero_padding_within_a_length_class_keeps_the_lp_bits(p):
    # moduli of every J <= 20, some rows at 2^600 and 2^-600 (rescaled)
    e = Exponent.of(p)
    rng = np.random.default_rng(int(e.recip.numerator * 10 + e.recip.denominator))
    for J in range(1, 21):
        rows = np.abs(rng.standard_normal((64, J))) * 2.0 ** rng.integers(-3, 4, (64, 1))
        rows[:4] *= 2.0 ** 600
        rows[4:8] *= 2.0 ** -600
        want = summing._lp_rows(rows, e)
        for L in _class_lengths(J):
            assert _sum_class(L) == _sum_class(J)
            assert np.array_equal(summing._lp_rows(_padded(rows, L), e), want), (J, L)
    # the class is no wider than it must be: 7 -> 8 and 128 -> 129 move bits
    # of a pairwise sum
    for J in (7, 128):
        rows = np.abs(np.random.default_rng(0).standard_normal((500, J)))
        assert _sum_class(J) != _sum_class(J + 1)
        assert not np.array_equal(summing._lp_rows(_padded(rows, J + 1), Exponent.of(2)),
                                  summing._lp_rows(rows, Exponent.of(2))), J


# (field, dims, domain exponents, p, qs, j_max): the scorer's forms
_SCORER_FORMS = [
    (ScalarField.REAL, (3, 4), ("inf", "inf"), 1, (2, 2), 20),
    (ScalarField.COMPLEX, (3, 3), ("inf", "inf"), 1, (2, 2), 20),
    (ScalarField.REAL, (2, 3, 2), ("inf",) * 3, 1, (2, 2, 2), 20),
    (ScalarField.COMPLEX, (2, 2, 3), ("inf",) * 3, 2, (2, 2, 2), 20),
    (ScalarField.COMPLEX, (3, 3), ("inf", "inf"), 1, (2, 2), 2),  # lengths 1-2 only
    # dims (2, 2): einsum sums a stack of one or two vectors in another order
    (ScalarField.COMPLEX, (2, 2), ("inf", "inf"), 1, (2, 2), 20),
    (ScalarField.REAL, (2, 2), (1, 2), 1, (2, 1), 9),
    # weak-l_1 in real l_2: the kernel enumerates signs along the length slot
    (ScalarField.REAL, (3, 2), ("inf", 2), 1, (2, 1), 12),
    (ScalarField.REAL, (3, 3), (1, 2), 2, (2, "inf"), 20),  # signs, and a basis length slot
    (ScalarField.COMPLEX, (3, 3), ("4/3", 2), "4/3", (2, 1), 9),  # heuristic columns
    (ScalarField.REAL, (3, 3), ("inf", "inf"), "1/2", ("1/2", 2), 20),  # q < 1
]


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _reference_ratios(A, exps, lengths, starts, flat, incumbent):
    """The scorer one pass per distinct length: each length's draws split
    into (trials, J, m) columns, one contraction of at least three rows
    (einsum sums one or two in another order), one lp rule and, per column,
    one kernel call where the kernel is exact; the other items of each
    column in one call, in two halves, with the floors of _floors."""
    balls = [(q.dual, d.exponent.dual) if q.recip <= 1 else None
             for q, d in zip(exps.qs, A.domains)]
    lhs, weak = np.empty(len(lengths)), np.empty((A.order, len(lengths)))
    pending = [([], []) for _ in A.domains]
    size = (2 if A.field.is_complex else 1) * sum(A.dims)
    for J in np.unique(lengths).tolist():
        idx = np.flatnonzero(lengths == J)
        g, stacks, at = np.stack([flat[s:s + size * J] for s in starts[idx]]), [], 0
        for m in A.dims:
            col = g[:, at:at + J * m].reshape(len(idx), J, m)
            at += J * m
            if A.field.is_complex:
                col = col + 1j * g[:, at:at + J * m].reshape(len(idx), J, m)
                at += J * m
            stacks.append(col)
        rows = [np.pad(s.reshape(-1, s.shape[2]), ((0, 2), (0, 0))) for s in stacks]
        values = forms._batch_contract(A.coeffs, rows)[:len(idx) * J]
        lhs[idx] = summing._lp_rows(np.abs(values.reshape(len(idx), J)), exps.p)
        for i, (stack, q, d) in enumerate(zip(stacks, exps.qs, A.domains)):
            if balls[i] is None:
                weak[i, idx] = [summing.weak_lp_norm(VectorSeq(X, d), q).value for X in stack]
            elif forms._plan(stack.shape[1:], balls[i], A.field.is_complex).stack_key is not None:
                weak[i, idx] = forms._ball_sup(stack, balls[i], witness=False)[0]
            else:
                pending[i][0].extend(idx.tolist())
                pending[i][1].extend(stack)
    started = {i: (idx, forms._ball_sup_start(items, balls[i], witness=False))
               for i, (idx, items) in enumerate(pending) if items}
    low = weak.copy()
    for i, (idx, st) in started.items():
        low[i, idx] = forms._lower_bounds(st)
    for i in sorted(started, key=lambda i: np.count_nonzero(low[i, started[i][0]])):
        idx, st = started[i]
        floors = summing._floors(lhs[idx], low[:, idx], i, incumbent)
        low[i, idx] = weak[i, idx] = forms._ball_sup_end(st, floors)[0]
    denominator = math.prod(weak)
    return np.divide(lhs, denominator, out=np.zeros(len(lengths)), where=denominator > 0)


def _scorer_case(case):
    field, dims, domains, p, qs, j_max = _SCORER_FORMS[case]
    rng = np.random.default_rng(40 + case)
    A = random_form(rng, dims, field, exponents=domains)
    return A, ExponentTuple(p, qs), _draws(rng, A, j_max, 160)


@pytest.mark.parametrize("case", range(len(_SCORER_FORMS)))
def test_scores_are_those_of_one_pass_per_length(case, monkeypatch):
    A, exps, draws = _scorer_case(case)
    kernel, calls = summing._ball_sup, []
    monkeypatch.setattr(summing, "_ball_sup", lambda items, balls, **kwargs:
                        calls.append(balls) or kernel(items, balls, **kwargs))
    want = _reference_ratios(A, exps, *draws, 0.0)
    finite = float(np.median(want))
    assert 0 < finite < math.inf
    for incumbent in (0.0, finite):
        calls.clear()
        got = summing._family_ratios(A, exps, *draws, incumbent)[0]
        assert got.tobytes() == _reference_ratios(A, exps, *draws, incumbent).tobytes()
        if all(d.exponent.is_inf for d in A.domains):  # every column exact, one key per class
            classes = {_sum_class(J) for J in draws[0].tolist()}
            assert len(calls) == sum(q.recip <= 1 for q in exps.qs) * len(classes)
    lengths, starts, flat = draws
    for lo in range(0, len(lengths), 4):  # chunks of 4: stacks of one or two vectors
        chunk = lengths[lo:lo + 4], starts[lo:lo + 4], flat
        assert summing._family_ratios(A, exps, *chunk, 0.0)[0].tobytes() == \
            _reference_ratios(A, exps, *chunk, 0.0).tobytes()


@pytest.mark.parametrize("case", range(len(_SCORER_FORMS)))
def test_scorer_pads_only_within_a_class(case, monkeypatch):
    # every stack the scorer hands the kernel or the lp rule: the nonzero
    # rows of an item are its length, padded only within the length's class,
    # and never along a length slot the kernel enumerates
    A, exps, draws = _scorer_case(case)
    kernel, lp_rows, seen = summing._ball_sup, summing._lp_rows, []

    def check(rows: np.ndarray, balls=None):
        L = rows.shape[1]
        lengths = np.count_nonzero(rows.reshape(len(rows), L, -1).any(axis=2), axis=1)
        assert (np.arange(L) < lengths[:, None]).tolist() == \
            rows.reshape(len(rows), L, -1).any(axis=2).tolist()  # the zeros are trailing
        for J in set(lengths.tolist()):
            assert _sum_class(J) == _sum_class(L)
            if balls is not None:
                plan = forms._plan((L, rows.shape[2]), balls, A.field.is_complex)
                assert plan.method == "enumeration" and (J == L or 0 not in plan.contracted)
        seen.append(L > lengths.min())

    monkeypatch.setattr(summing, "_ball_sup", lambda items, balls, **kwargs:
                        check(items, balls) or kernel(items, balls, **kwargs))
    monkeypatch.setattr(summing, "_lp_rows", lambda a, e: check(a) or lp_rows(a, e))
    summing._family_ratios(A, exps, *draws, 0.0)
    assert any(seen)


def test_scores_across_the_length_128_are_their_certificates_ratios():
    # weak-l_2 norms in complex l_1^2 ascend from the phase grid, in one batch
    # per column; numpy sums 128 entries in 8 partial sums and 129 or more
    # in two halves, so no item of length 128 is padded to a longer one
    rng = np.random.default_rng(44)
    A = random_form(rng, (2, 2), ScalarField.COMPLEX, exponents=(1, 1))
    exps = ExponentTuple(1, (2, 2))
    lengths = np.array(list(range(120, 136)) * 2)
    starts = _starts(A, lengths)
    flat = rng.standard_normal(2 * sum(A.dims) * lengths.sum())
    ratios = summing._family_ratios(A, exps, lengths, starts, flat, 0.0)[0]
    for k, ratio in enumerate(ratios.tolist()):
        fam = summing._as_family(A, summing._columns(A, lengths[[k]], starts[[k]], flat))
        assert ratio == summing_lower_bound(A, exps, fam).ratio, lengths[k]


# lengths on either side of the class boundaries 8, 16 and 128 (norms._sum_class)
_CROSSING_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 127, 128, 130]


@pytest.mark.parametrize("q", ["1/2", 1, "4/3", 2])
def test_certificates_across_length_classes_are_those_of_single_norms(q):
    # the families of one tuple of column exponents are scored in one
    # scorer call, their lhs padded within their length classes and their
    # weak norms grouped by shape and dtype; each lhs is lp_norm's and each
    # weak norm weak_lp_norm's to the bit, with its flag: sup and l_1 slots
    # (exact), l_2 and l_3 slots (closed forms and ascents), real, complex
    # and mixed columns
    recip = Exponent.of(q).recip
    rng = np.random.default_rng([13, recip.numerator, recip.denominator])
    exps = ExponentTuple("4/3", (q, q))
    families, values = [], []
    for spaces in [(SpaceSpec(2, "inf"), SpaceSpec(3, 1)), (SpaceSpec(4, 2), SpaceSpec(3, 3))]:
        for kinds in [(False, False), (True, True), (False, True)]:
            field = ScalarField.COMPLEX if any(kinds) else ScalarField.REAL
            A = FormTensor(_gaussian(rng, [d.dim for d in spaces], field.is_complex), spaces,
                           field)
            for J in rng.permutation(_CROSSING_LENGTHS).tolist():
                fam = TestFamily(tuple(VectorSeq(_gaussian(rng, (J, d.dim), c), d)
                                       for d, c in zip(spaces, kinds)))
                families.append(fam)
                values.append(fam.values(A))
    certs = summing._certificates(families, values, exps)
    for fam, v, cert in zip(families, values, certs):
        assert _bits(cert.lhs) == _bits(lp_norm(v, exps.p)), fam.length
        assert [(_bits(w.value), w.exact) for w in cert.rhs_norms] == [
            (_bits(w.value), w.exact) for w in (weak_lp_norm(c, q) for c in fam.columns)], \
            fam.length
    assert not all(cert.exact for cert in certs)


# (field, dims, domain exponents, p, qs, seed) with heuristic columns where a
# random family beats the structured ones
_RANDOM_WINS = [
    (ScalarField.COMPLEX, (3, 3), ("4/3", 2), "4/3", (2, 1), 13),  # random-start, grid
    (ScalarField.REAL, (3, 3), ("4/3", 2), "4/3", (2, 1), 22),  # random-start, exact
    (ScalarField.COMPLEX, (2, 3, 2), ("inf", "4/3", "inf"), 1, (2, 2, 2), 2),
    (ScalarField.REAL, (3, 3), (3, 3), 1, (2, 2), 2),  # two random-start columns
    (ScalarField.COMPLEX, (2, 3), (3, "4/3"), 2, (2, 1), 1),
]


@pytest.mark.parametrize("chunk", [4, summing._SEARCH_CHUNK])
@pytest.mark.parametrize("case", range(len(_RANDOM_WINS)))
def test_search_with_floors_keeps_a_random_winner(case, chunk, monkeypatch):
    # trials that cannot beat the incumbent stop at a floor; the winner, a
    # random family, is the loop's, also when the incumbent moves between
    # chunks of 4
    monkeypatch.setattr(summing, "_SEARCH_CHUNK", chunk)
    field, dims, domains, p, qs, seed = _RANDOM_WINS[case]
    A = random_form(np.random.default_rng(seed), dims, field, exponents=domains)
    exps = ExponentTuple(p, qs)
    got = random_family_search(A, exps, budget=37, seed=seed, j_max=6)
    ref = _reference_search(A, exps, 37, seed, 6)
    structured = max(summing_lower_bound(A, exps, fam).ratio for fam in _structured(A, 6))
    assert ref.ratio > structured
    _assert_is_the_loops(got, ref)


def test_search_retires_most_floored_trials_at_their_floor(monkeypatch):
    # complex l_4/3 x l_2 at (4/3; 2, 1): the l_4/3 column ascends from random
    # starts with floors set from the grid maxima of the l_2 column
    A = random_form(np.random.default_rng(7), (3, 3), ScalarField.COMPLEX,
                    exponents=("4/3", 2))
    exps = ExponentTuple("4/3", (2, 1))
    floored, retired, ascend = [], [], forms._ascend

    def counting(coeffs, balls, vectors, floors=None):
        values, best = ascend(coeffs, balls, vectors, floors)
        if floors is not None:
            at = ~np.isnan(floors)
            floored.append(int(np.count_nonzero(at)))
            retired.append(int(np.count_nonzero(values[at] >= floors[at])))
        return values, best

    monkeypatch.setattr(forms, "_ascend", counting)
    cert = random_family_search(A, exps, budget=64, seed=3, j_max=6)
    assert sum(floored) >= 32 and sum(retired) > 0.9 * sum(floored)
    _assert_is_the_loops(cert, _reference_search(A, exps, 64, 3, 6))


# ---------------------------------------------------------------------------
# inclusion machinery


def test_factor_examples():
    f1, f2 = factor_sequence([1.0, 0.0, 0.0], 1, [2, 2])
    assert np.array_equal(f1, [1, 0, 0]) and np.array_equal(f2, [1, 0, 0])

    f1, f2 = factor_sequence([1.0, 1.0], 1, [2, 2])
    assert np.allclose(f1, [1, 1]) and np.allclose(f2, [1, 1])
    assert lp_norm(f1, 2) * lp_norm(f2, 2) == pytest.approx(2.0, abs=1e-12)

    f1, f2 = factor_sequence([4.0, 0.0], 1, [2, 2])
    assert np.allclose(f1, [2, 0]) and np.allclose(f2, [2, 0])


def test_factor_identities_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        nfac = int(rng.integers(1, 5))
        recips = [Fraction(int(rng.integers(1, 25)), 12) for _ in range(nfac)]
        r = Exponent(sum(recips))
        rs = [Exponent(rc) for rc in recips]
        alpha = rng.standard_normal(int(rng.integers(1, 9)))
        if rng.random() < 0.4:
            alpha = alpha * np.exp(1j * rng.uniform(0, 2 * np.pi, alpha.shape))
        factors = factor_sequence(alpha, r, rs)
        prod = np.ones_like(np.asarray(alpha))
        for f in factors:
            prod = prod * f
        assert np.abs(prod - alpha).max() < 1e-12
        norm_prod = math.prod(lp_norm(f, x) for f, x in zip(factors, rs))
        assert norm_prod == pytest.approx(lp_norm(alpha, r), rel=1e-12, abs=1e-12)


def test_factor_phase_on_first_factor():
    alpha = np.array([-2.0, 3.0])
    f1, f2 = factor_sequence(alpha, 1, [2, 2])
    assert f1[0] < 0 < f2[0]
    assert np.allclose(f1 * f2, alpha)


def test_factor_of_an_infinite_exponent_puts_alpha_in_the_first_factor():
    alpha = np.array([3.0, -2j, 0.0])
    f1, f2 = factor_sequence(alpha, "inf", ["inf", "inf"])
    assert np.array_equal(f1, alpha) and np.array_equal(f2, np.ones(3))


def test_factor_identity_violation():
    with pytest.raises(ValueError):
        factor_sequence([1.0], 1, [2, 3])


def test_factor_refuses_no_factor_exponents():
    with pytest.raises(ValueError, match="at least one factor exponent"):
        factor_sequence([1.0], 1, [])


def test_lift_alpha_arithmetic(diag_family):
    # identity form, basis diagonal, p=2 -> q=1 gives r=2,
    # alpha = (1/sqrt2, 1/sqrt2) and ||(alpha_j A_j)||_1 = ||(A_j)||_2
    A = FormTensor.on_linf(np.eye(2))
    res = lift_family(A, diag_family, ExponentTuple(2, (2, 2)),
                      ExponentTuple(1, (2, 2)))
    assert res.derived.lhs == pytest.approx(SQRT2, abs=1e-12)
    assert res.monotone
    assert res.derived.ratio >= res.source.ratio - 1e-10


def test_lift_zero_values(diag_family):
    Z = FormTensor.on_linf(np.zeros((2, 2)))
    res = lift_family(Z, diag_family, ExponentTuple(2, (2, 2)),
                      ExponentTuple(1, (1, 2)))
    assert res.source.ratio == res.derived.ratio == 0.0
    assert res.family is diag_family


def test_lift_of_no_pairs_is_empty():
    assert summing.lift_families([], ExponentTuple(2, (2, 2)), ExponentTuple(1, (2, 2))) == []


def test_lift_families_refuse_tuples_of_another_order(littlewood, diag_family):
    three = ExponentTuple(2, (2, 2, 2))
    with pytest.raises(ValueError, match="must match the form order"):
        summing.lift_families([(littlewood, diag_family)], three, ExponentTuple(1, (2, 2, 2)))
    with pytest.raises(ValueError, match="must match the form order"):
        summing.lift_families([(littlewood, diag_family)], ExponentTuple(2, (2, 2)), three)


def test_lift_monotone_random_exact_domains():
    rng = np.random.default_rng(18)
    src = ExponentTuple(2, (2, 2))
    tgt = ExponentTuple(1, (1, 2))  # defects 1/2 = 1/2
    for i in range(60):
        dims = tuple(int(rng.integers(2, 4)) for _ in range(2))
        doms = tuple(
            SpaceSpec.linf(m) if rng.random() < 0.7 else SpaceSpec.lp(m, 1)
            for m in dims
        )
        A = FormTensor(rng.standard_normal(dims), doms)
        J = int(rng.integers(1, 6))
        fam = TestFamily(tuple(
            VectorSeq(rng.standard_normal((J, d.dim)), d) for d in doms
        ))
        res = lift_family(A, fam, src, tgt)
        assert res.source.exact and res.derived.exact
        assert res.monotone


def test_lift_rejects_inadmissible(littlewood, diag_family):
    with pytest.raises(ValueError):
        # defect grows from 1/2 to 1
        lift_family(littlewood, diag_family, ExponentTuple(2, (2, 2)),
                    ExponentTuple(1, (1, 1)))
    with pytest.raises(ValueError):
        # target outer exponent above the source
        lift_family(littlewood, diag_family, ExponentTuple(1, (2, 2)),
                    ExponentTuple(2, (2, 2)))
    with pytest.raises(ValueError):
        lift_family(littlewood, diag_family, ExponentTuple(1, (1, 1)),
                    ExponentTuple(1, (2, 2)))


def _lift_chunk(seed: int, order: int) -> list:
    """Seeded (form, family) pairs of one order: dims 2 to 4, lengths 1 to 4,
    sup, l_1 and l_2 slots, real and complex forms and columns, and one
    all-zero family."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(12):
        dims = tuple(int(rng.integers(2, 5)) for _ in range(order))
        doms = tuple(SpaceSpec(m, ["inf", "inf", 1, 2][int(rng.integers(0, 4))]) for m in dims)
        field = ScalarField.COMPLEX if rng.random() < 0.4 else ScalarField.REAL
        A = FormTensor(_gaussian(rng, dims, field.is_complex), doms, field)
        J = int(rng.integers(1, 5))
        fam = TestFamily(tuple(VectorSeq(_gaussian(rng, (J, d.dim), rng.random() < 0.3), d)
                               for d in doms))
        if k == 5:
            fam = TestFamily(tuple(VectorSeq(np.zeros((J, d.dim)), d) for d in doms))
        pairs.append((A, fam))
    return pairs


def _bits(x: float) -> str:
    return float(x).hex()


@pytest.mark.parametrize("source,target", [
    (ExponentTuple(2, (2, 2)), ExponentTuple(1, (1, 2))),
    (ExponentTuple("inf", (2, 2)), ExponentTuple(2, (1, 2))),  # source p = inf
    (ExponentTuple(2, (2, 2)), ExponentTuple(2, (2, 2))),  # 1/r = 0
    (ExponentTuple(1, (1, 1)), ExponentTuple("1/2", ("1/2", 1))),  # a weak norm at q < 1
    (ExponentTuple(2, (2, 2, 2)), ExponentTuple(1, (1, 2, 2))),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_lift_families_give_each_pair_its_lift_alone(source, target, seed):
    pairs = _lift_chunk(seed, source.n)
    whole = summing.lift_families(pairs, source, target)
    assert len(whole) == len(pairs)
    for (A, fam), res in zip(pairs, whole):
        alone = lift_family(A, fam, source, target)
        for got, want in ((res.source, alone.source), (res.derived, alone.derived)):
            assert _bits(got.lhs) == _bits(want.lhs)
            assert _bits(got.ratio) == _bits(want.ratio)
            assert [(_bits(w.value), w.exact) for w in got.rhs_norms] == \
                [(_bits(w.value), w.exact) for w in want.rhs_norms]
            assert got.exact is want.exact
        assert res.monotone is alone.monotone
        for got, want in zip(res.family.columns, alone.family.columns):
            assert got.vectors.dtype == want.vectors.dtype
            assert got.vectors.tobytes() == want.vectors.tobytes()
    assert whole[5].family is pairs[5][1] and whole[5].monotone  # the all-zero family


def test_lift_families_score_each_certificate_batch_in_one_scorer_call(monkeypatch):
    # 20 real pairs on sup-norm slots of dims 2 to 4: one scorer call per
    # batch of certificates, whatever the column sizes, and each pair its
    # lift alone
    rng = np.random.default_rng(34)
    pairs = []
    for _ in range(20):
        A = random_form(rng, rng.integers(2, 5, size=2))
        J = int(rng.integers(1, 5))
        pairs.append((A, TestFamily(tuple(VectorSeq(rng.standard_normal((J, d.dim)), d)
                                          for d in A.domains))))
    assert len({A.dims for A, _ in pairs}) > 4
    source, target = ExponentTuple(2, (2, 2)), ExponentTuple(1, (1, 2))
    alone = [lift_family(A, fam, source, target) for A, fam in pairs]
    calls, scores, certificates = [], summing._scores, summing._certificates
    monkeypatch.setattr(summing, "_scores", lambda *args: calls.append("scores")
                        or scores(*args))
    monkeypatch.setattr(summing, "_certificates", lambda *args: calls.append("certificates")
                        or certificates(*args))
    whole = summing.lift_families(pairs, source, target)
    assert calls == ["certificates", "scores"] * 2
    for res, want in zip(whole, alone):
        for got, cert in ((res.source, want.source), (res.derived, want.derived)):
            assert _bits(got.lhs) == _bits(cert.lhs) and _bits(got.ratio) == _bits(cert.ratio)
            assert [(_bits(w.value), w.exact) for w in got.rhs_norms] == \
                [(_bits(w.value), w.exact) for w in cert.rhs_norms]


def test_lift_families_name_the_first_pair_whose_exact_lift_is_smaller(monkeypatch):
    # zeroed factors give the lifted families ratio 0 with exact (sup-norm)
    # weak norms; the pairs of a zero form keep their families and pass
    zero = FormTensor.on_linf(np.zeros((2, 3)))
    forms_ = [zero, zero, FormTensor.on_linf(np.ones((2, 2))),
              FormTensor.on_linf(np.arange(1.0, 5.0).reshape(2, 2))]
    pairs = [(A, basis_family(2, A.dims[0])) if A.dims[0] == A.dims[1] else
             (A, TestFamily((VectorSeq(np.eye(2), SpaceSpec.linf(2)),
                             VectorSeq(np.eye(3)[:2], SpaceSpec.linf(3)))))
             for A in forms_]
    source, target = ExponentTuple(2, (2, 2)), ExponentTuple(1, (1, 2))
    assert all(res.monotone for res in summing.lift_families(pairs, source, target))
    split = summing.factor_sequence
    monkeypatch.setattr(summing, "factor_sequence",
                        lambda *args: [np.zeros_like(f) for f in split(*args)])
    with pytest.raises(ArithmeticError, match="pair 2 "):
        summing.lift_families(pairs, source, target)
    with pytest.raises(ArithmeticError, match="pair 0 "):
        lift_family(*pairs[3], source, target)


# ---------------------------------------------------------------------------
# verifiers


def test_littlewood_extremal_equality(littlewood):
    rep = verify_littlewood_43(littlewood)
    assert rep.status == "pass" and rep.exact_norm
    assert rep.ratio == pytest.approx(SQRT2, abs=1e-12)


def test_littlewood_further_examples():
    rep = verify_littlewood_43(FormTensor.on_linf(np.ones((2, 2))))
    assert rep.status == "pass"
    assert rep.ratio == pytest.approx(4 ** 0.75 / 4, abs=1e-12)
    rep = verify_littlewood_43(FormTensor.on_linf(np.eye(2)))
    assert rep.ratio == pytest.approx(2 ** 0.75 / 2, abs=1e-12)


def test_littlewood_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_littlewood_43(FormTensor.on_linf(np.ones((2, 2, 2))))
    A = FormTensor(np.eye(2), (SpaceSpec.lp(2, 2), SpaceSpec.linf(2)))
    with pytest.raises(ValueError):
        verify_littlewood_43(A)


def test_general_littlewood_examples(littlewood):
    rep = verify_general_littlewood(littlewood)
    assert rep.status == "pass"
    assert rep.lhs == pytest.approx(2 * SQRT2, abs=1e-12)
    assert rep.ratio == pytest.approx(SQRT2, abs=1e-12)
    rep = verify_general_littlewood(FormTensor.on_linf(np.ones((2, 2))))
    assert rep.status == "pass" and rep.rhs == pytest.approx(SQRT2 * 4)
    rep = verify_general_littlewood(FormTensor.on_linf(np.eye(2)))
    assert rep.lhs == pytest.approx(2.0, abs=1e-14)


def test_extended_littlewood_identity_beta(littlewood_complex):
    rep = verify_extended_littlewood(littlewood_complex, np.eye(2), "4/3")
    assert rep.status == "pass"
    assert rep.q == "4/3"
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)  # equality case

    rep = verify_extended_littlewood(littlewood_complex, np.eye(2), 1)
    assert rep.status == "pass" and rep.q == "2"
    assert rep.lhs == pytest.approx(2 * SQRT2, abs=1e-12)
    assert rep.rhs == pytest.approx(1.40491 * 2 * SQRT2, abs=1e-6)


def test_extended_littlewood_zero_beta(littlewood_complex):
    rep = verify_extended_littlewood(littlewood_complex, np.zeros((2, 2)), "3/2")
    assert rep.lhs == 0.0 and rep.status == "pass"


def test_extended_littlewood_p_range(littlewood_complex):
    for bad in ("1/2", 3):
        with pytest.raises(ValueError):
            verify_extended_littlewood(littlewood_complex, np.eye(2), bad)


def test_extended_littlewood_real_gate(littlewood, monkeypatch):
    # nothing is asserted for real scalars, even for a constant no form meets
    row = ("extended_littlewood", ScalarField.REAL)
    for kg in (summing._CONSTANTS[row], 1e-3):
        monkeypatch.setitem(summing._CONSTANTS, row, kg)
        rep = verify_extended_littlewood(littlewood, np.eye(2), "4/3")
        assert rep.bound == kg and rep.exact_norm and rep.status == "inconclusive"


def test_bh_examples():
    rep = verify_bh(FormTensor.on_linf(np.ones((2, 2, 2))))
    assert rep.p == "3/2"
    assert rep.ratio == pytest.approx(0.5, rel=1e-9)
    assert rep.status == "pass" and rep.bound is None

    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = diag[1, 1, 1] = 1.0
    rep = verify_bh(FormTensor.on_linf(diag))
    assert rep.ratio == pytest.approx(2 ** (-1 / 3), rel=1e-9)


def test_bh_refuses_a_linear_form():
    with pytest.raises(ValueError, match="order at least 2"):
        verify_bh(FormTensor.on_linf([1.0, 2.0]))


def test_bh_order_two_matches_littlewood_exponent(littlewood):
    rep = verify_bh(littlewood)
    assert rep.p == "4/3"
    assert rep.bound == pytest.approx(SQRT2)
    assert rep.ratio == pytest.approx(SQRT2, abs=1e-12)
    assert rep.status == "pass"


def test_constants_table_holds_the_published_values():
    # sqrt(2), the optimal real 4/3 and mixed constant; 2/sqrt(pi), 1/A_1 for
    # Steinhaus variables, complex; the Grothendieck upper bounds of Krivine
    # (real) and Haagerup (complex) for the extended check
    R, C = ScalarField.REAL, ScalarField.COMPLEX
    steinhaus = 2 / math.sqrt(math.pi)
    assert summing._CONSTANTS == {
        ("littlewood_43", R): SQRT2, ("littlewood_43", C): steinhaus,
        ("general_littlewood", R): SQRT2, ("general_littlewood", C): steinhaus,
        ("extended_littlewood", R): 1.78221, ("extended_littlewood", C): 1.40491,
        ("bohnenblust_hille", R): SQRT2, ("bohnenblust_hille", C): steinhaus,
    }
    assert 1.78221 == pytest.approx(math.pi / (2 * math.log(1 + SQRT2)), abs=1e-5)
    assert steinhaus == pytest.approx(1.1283791670955126, abs=1e-15)
    assert steinhaus < 1.40491 < SQRT2  # each sharp row is below the bound it replaced


_VERIFIERS = {  # check -> its verifier on a bilinear form
    "littlewood_43": verify_littlewood_43,
    "general_littlewood": verify_general_littlewood,
    "extended_littlewood": lambda A: verify_extended_littlewood(A, np.eye(2), "4/3"),
    "bohnenblust_hille": verify_bh,
}


@pytest.mark.parametrize("row", list(summing._CONSTANTS),
                         ids=lambda row: f"{row[0]}-{row[1]}")
def test_each_verifier_reads_its_own_row(row, monkeypatch):
    check, field = row
    A = FormTensor.on_linf([[1.0, 1.0], [1.0, -1.0]], field)
    before = {name: verify(A).bound for name, verify in _VERIFIERS.items()}
    assert before[check] == summing._CONSTANTS[row]
    monkeypatch.setitem(summing._CONSTANTS, row, 0.25)
    after = {name: verify(A).bound for name, verify in _VERIFIERS.items()}
    assert after == {**before, check: 0.25}


def test_real_43_constant_is_pinned_at_its_equality_case(littlewood):
    # [[1, 1], [1, -1]] meets sqrt(2) exactly: it passes with lhs == rhs,
    # and a constant lower by a relative 1e-9 fails it
    for verify in (verify_littlewood_43, verify_bh):
        rep = verify(littlewood)
        assert rep.bound == SQRT2 and rep.exact_norm
        assert rep.status == "pass" and rep.lhs == rep.rhs and rep.ratio == SQRT2
        assert summing._status(rep.lhs, rep.rhs * (1 - 1e-9), True) == "fail"


def test_sharp_mixed_constant_is_pinned_at_its_equality_case(littlewood):
    # [[1, 1], [1, -1]] meets the real mixed (l_1, l_2) constant sqrt(2)
    # exactly, and a constant lower by a relative 1e-9 fails it
    rep = verify_general_littlewood(littlewood)
    assert rep.bound == SQRT2 and rep.exact_norm
    assert rep.status == "pass" and rep.lhs == rep.rhs and rep.ratio == SQRT2
    assert summing._status(rep.lhs, rep.rhs * (1 - 1e-9), True) == "fail"


def test_a_certified_violation_fails_at_every_scale(littlewood, monkeypatch):
    # T_2 meets the real 4/3 constant sqrt(2) with equality, and violates it
    # by a factor 2.83 on an exact norm with the constant lowered to 0.5: the
    # verdicts are pass and fail whatever the scale. An absolute slack of
    # 1e-12 * max(1, |rhs|) read pass at 2^-900 and 2^-45 on the lowered one
    scaled = [FormTensor.on_linf(np.ldexp(littlewood.coeffs, k)) for k in (-900, -45, 0, 45, 900)]
    assert [verify_littlewood_43(A).status for A in scaled] == ["pass"] * 5
    monkeypatch.setitem(summing._CONSTANTS, ("littlewood_43", ScalarField.REAL), 0.5)
    assert [verify_littlewood_43(A).status for A in scaled] == ["fail"] * 5


def test_bh_coefficient_sum_monotone_in_exponent():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.standard_normal((2, 3))
        vals = [lp_norm(a.reshape(-1), t) for t in (1, "4/3", "3/2", 2)]
        for hi, lo in zip(vals, vals[1:]):
            assert lo <= hi + 1e-12


def test_dv_equality_witness(littlewood, diag_family):
    rep = verify_defant_voigt(littlewood, diag_family)
    assert rep.status == "pass"
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)
    assert rep.witness["weak_l1_status"] == "pass"


def test_fail_only_on_an_exact_norm(littlewood, diag_family, monkeypatch):
    # a shortfall against a heuristic lower bound of the norm certifies nothing
    assert summing._status(1.0, 1.0, False) == "pass"
    assert summing._status(2.0, 1.0, True) == "fail"
    assert summing._status(2.0, 1.0, False) == "inconclusive"
    low = NormEstimate(1.0, False)  # below ||A|| = 2
    rep = verify_defant_voigt(littlewood, diag_family, opn=low)
    assert rep.status == rep.witness["weak_l1_status"] == "inconclusive"
    rep = verify_defant_voigt(littlewood, diag_family, opn=NormEstimate(1.0, True))
    assert rep.status == rep.witness["weak_l1_status"] == "fail"
    rng = np.random.default_rng(22)
    A = random_form(rng, (6, 6), ScalarField.COMPLEX)
    monkeypatch.setitem(summing._CONSTANTS, ("general_littlewood", ScalarField.COMPLEX), 0.1)
    rep = verify_general_littlewood(A)
    assert not rep.exact_norm and rep.lhs > rep.rhs and rep.status == "inconclusive"


def test_dv_zero_form(diag_family):
    rep = verify_defant_voigt(FormTensor.on_linf(np.zeros((2, 2))), diag_family)
    assert rep.lhs == 0.0 and rep.status == "pass"


def test_dv_random_trilinear():
    rng = np.random.default_rng(20)
    for i in range(10):
        A = random_form(rng, (2, 2, 2), ScalarField.REAL)
        J = 4
        fam = TestFamily(tuple(
            VectorSeq(rng.standard_normal((J, d.dim)), d) for d in A.domains
        ))
        rep = verify_defant_voigt(A, fam)
        assert rep.exact_norm and rep.status == "pass"


def test_dv_budget_gate(littlewood):
    # the exact Rad_2 norms of a column of 24 vectors need 2^23 patterns
    space = SpaceSpec.linf(2)
    fam = TestFamily(tuple(
        VectorSeq(np.ones((24, 2)), space) for _ in range(2)
    ))
    with pytest.raises(ValueError, match="over the budget"):
        verify_defant_voigt(littlewood, fam)


def test_dv_refuses_linear_forms():
    # e_1* on four copies of e_1: 4 on the left, Rad_2 = 2 on the right
    space = SpaceSpec.linf(2)
    fam = TestFamily((VectorSeq(np.tile([1.0, 0.0], (4, 1)), space),))
    with pytest.raises(ValueError, match="order at least 2"):
        verify_defant_voigt(FormTensor.on_linf([1.0, 0.0]), fam)


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_verifiers_given_the_op_norm_report_as_without_it(field):
    # the seeded CLI suites pass the norm of a batched kernel call as opn
    rng = np.random.default_rng(21)
    A = random_form(rng, (3, 4), field)
    B = random_form(rng, (2, 3, 2), field)
    fam = TestFamily(tuple(VectorSeq(rng.standard_normal((3, d.dim)), d) for d in B.domains))
    beta = rng.standard_normal((2, 3))
    checks = [
        (verify_littlewood_43, A, ()), (verify_general_littlewood, A, ()),
        (verify_bh, A, ()), (verify_bh, B, ()), (verify_defant_voigt, B, (fam,)),
        (verify_extended_littlewood, A, (beta, "4/3")),
    ]
    for verify, form, args in checks:
        assert (verify(form, *args, opn=op_norm(form)).to_dict()
                == verify(form, *args).to_dict()), verify


def test_almost_summing_scalar(diag_family):
    cert = verify_almost_summing(FormTensor.on_linf(np.eye(2)), diag_family)
    assert cert.ratio == pytest.approx(SQRT2, abs=1e-12)
    assert cert.exact


def test_almost_summing_zero(diag_family):
    cert = verify_almost_summing(FormTensor.on_linf(np.zeros((2, 2))), diag_family)
    assert cert.ratio == 0.0


def test_almost_summing_curried(littlewood):
    head = TestFamily((VectorSeq(np.eye(2), SpaceSpec.linf(2)),))
    cert = verify_almost_summing(littlewood, head, k=1)
    # rows (1,1) and (1,-1); every sign combination has tail norm 2
    assert cert.lhs == pytest.approx(2.0, abs=1e-12)
    assert cert.ratio == pytest.approx(2.0, abs=1e-12)


def test_almost_summing_curried_order3():
    rng = np.random.default_rng(21)
    A = FormTensor.on_linf(rng.standard_normal((2, 2, 2)))
    head = TestFamily((VectorSeq(np.eye(2), SpaceSpec.linf(2)),))
    cert = verify_almost_summing(A, head, k=1)
    assert cert.lhs_exact and cert.ratio > 0


@pytest.mark.parametrize("field,scale", [
    (ScalarField.REAL, 1.0),  # exact tails, sign slots
    (ScalarField.REAL, 2.0 ** 600),  # every tail norm is rescaled
    (ScalarField.COMPLEX, 1.0),  # heuristic tails
])
def test_almost_summing_tails_match_a_loop(field, scale):
    rng = np.random.default_rng(22)
    A = random_form(rng, (3, 3, 4), field)
    A = FormTensor(A.coeffs * scale, A.domains, field)
    head = TestFamily((VectorSeq(rng.standard_normal((4, 3)), SpaceSpec.linf(3)),))
    cert = verify_almost_summing(A, head, k=1)
    # Rad_2 of the tail forms, each sign combination measured alone by op_norm
    flags = []

    def loop(rows):
        norms = [op_norm(FormTensor(row, A.domains[1:], field)) for row in rows]
        flags.extend(n.exact for n in norms)
        return np.array([n.value for n in norms])

    tails = np.einsum("abc,ja->jbc", A.coeffs, head.columns[0].vectors)
    assert cert.lhs == rademacher_average(tails, loop, 2, "exact")
    assert cert.lhs_exact == all(flags) == (not field.is_complex)


def test_almost_summing_head_mismatch(littlewood, diag_family):
    with pytest.raises(ValueError):
        verify_almost_summing(littlewood, diag_family, k=1)
    head = TestFamily((VectorSeq(np.eye(2), SpaceSpec.lp(2, 1)),))
    with pytest.raises(ValueError, match="^column 0 "):
        verify_almost_summing(littlewood, head, k=1)


# ---------------------------------------------------------------------------
# tensor weak norm


def test_tensor_weak_single_pair():
    e1 = np.array([1.0, 0.0])
    est = tensor_weak_norm_estimate(
        VectorSeq(e1, SpaceSpec.linf(2)), VectorSeq(e1, SpaceSpec.linf(2)), 1
    )
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.exact


def test_tensor_weak_zero():
    z = VectorSeq(np.zeros((2, 2)), SpaceSpec.linf(2))
    assert tensor_weak_norm_estimate(z, z, 1).value == 0.0


def test_tensor_weak_l1_basis_pairs():
    space = SpaceSpec.lp(2, 1)
    seq = VectorSeq(np.eye(2), space)
    est = tensor_weak_norm_estimate(seq, seq, 1)
    assert est.value == 2.0  # the sign sum e_1 (x) e_1 + e_2 (x) e_2
    assert est.exact


def test_tensor_weak_budget():
    seq = VectorSeq(np.zeros((1, 9)), SpaceSpec.linf(9))
    with pytest.raises(ValueError):
        tensor_weak_norm_estimate(seq, seq, 1)


def test_tensor_weak_refuses_unequal_lengths():
    space = SpaceSpec.linf(2)
    with pytest.raises(ValueError, match="common length"):
        tensor_weak_norm_estimate(VectorSeq(np.eye(2), space), VectorSeq(np.eye(2)[:1], space), 1)


def test_tensor_weak_refuses_empty_sequences():
    empty = VectorSeq(np.empty((0, 2)), SpaceSpec.linf(2))
    assert empty.length == 0
    with pytest.raises(ValueError, match="empty sequence"):
        tensor_weak_norm_estimate(empty, empty, 1)


def _worst_sign_sum(X, Y, norm):
    """max over every sign vector eps of norm(sum_j eps_j x_j (x) y_j), by a plain loop."""
    return max(norm(sum(e * np.outer(x, y) for e, x, y in zip(eps, X, Y)))
               for eps in itertools.product((1.0, -1.0), repeat=len(X)))


# projective norms with a closed form, written out independently of the package
_PROJECTIVE = {
    (1, 2): lambda M: np.linalg.norm(M, axis=1).sum(),  # l_1(l_2), by rows
    (1, 3): lambda M: np.linalg.norm(M, 3, axis=1).sum(),
    (2, 1): lambda M: np.linalg.norm(M, axis=0).sum(),  # by columns
    ("inf", 1): lambda M: np.abs(M).max(axis=0).sum(),
    (2, 2): lambda M: np.linalg.norm(M, "nuc"),
}


def _pair(X, Y, s1, s2):
    return (VectorSeq(X, SpaceSpec.lp(X.shape[1], s1)),
            VectorSeq(Y, SpaceSpec.lp(Y.shape[1], s2)))


@pytest.mark.parametrize("s1, s2", sorted(_PROJECTIVE, key=str))
@pytest.mark.parametrize("J, m1, m2, seed", [(2, 2, 3, 1), (5, 3, 2, 2), (7, 3, 3, 3)])
def test_tensor_weak_l1_real_matches_sign_loop(s1, s2, J, m1, m2, seed):
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((J, m1)), rng.standard_normal((J, m2))
    est = tensor_weak_norm_estimate(*_pair(X, Y, s1, s2), 1)
    assert est.exact
    want = _worst_sign_sum(X, Y, _PROJECTIVE[s1, s2])
    assert est.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s, want", [(2, 15.224635313639135), (1, 27.206665708243243)])
def test_tensor_weak_l1_six_pairs_in_dimension_three(s, want):
    h = np.random.default_rng(101).standard_normal((6, 6))
    X, Y = h[:, :3], h[:, 3:]
    est = tensor_weak_norm_estimate(*_pair(X, Y, s, s), 1)
    assert est.exact
    assert est.value == pytest.approx(want, rel=1e-12)
    norm = _PROJECTIVE[2, 2] if s == 2 else (lambda M: np.abs(M).sum())
    assert est.value == pytest.approx(_worst_sign_sum(X, Y, norm), rel=1e-12)


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("s1, s2", [("inf", "inf"), (2, "4/3"), (1, 3)])
def test_tensor_weak_linf_and_single_pairs_are_cross_norms(s1, s2, is_complex):
    rng = np.random.default_rng(4)
    X, Y = (_gaussian(rng, (4, m), is_complex) for m in (3, 2))
    lengths = [lp_norm(x, s1) * lp_norm(y, s2) for x, y in zip(X, Y)]
    est = tensor_weak_norm_estimate(*_pair(X, Y, s1, s2), "inf")
    assert est.exact
    assert est.value == pytest.approx(max(lengths), rel=1e-12)
    single = tensor_weak_norm_estimate(*_pair(X[1:2], Y[1:2], s1, s2), 2)
    assert single.exact
    assert single.value == pytest.approx(lengths[1], rel=1e-12)


def test_tensor_weak_l1_complex_is_a_lower_bound():
    rng = np.random.default_rng(6)
    X, Y = _gaussian(rng, (4, 2), True), _gaussian(rng, (4, 3), True)
    est = tensor_weak_norm_estimate(*_pair(X, Y, 2, 2), 1)
    assert not est.exact
    # the triangle inequality bounds the weak-l_1 norm by the sum of the cross norms
    assert 0 < est.value <= sum(lp_norm(x, 2) * lp_norm(y, 2) for x, y in zip(X, Y))


@pytest.mark.parametrize("s1, s2", sorted(_PROJECTIVE, key=str))
def test_tensor_candidate_bound_stays_below_the_exact_value(s1, s2):
    rng = np.random.default_rng(8)
    for J, m1, m2 in [(2, 2, 2), (4, 3, 2), (6, 3, 3)]:
        X, Y = rng.standard_normal((J, m1)), rng.standard_normal((J, m2))
        seq1, seq2 = _pair(X, Y, s1, s2)
        exact = tensor_weak_norm_estimate(seq1, seq2, 1)
        U = X[:, :, None] * Y[:, None, :]
        bound = summing._candidate_bound(U, (seq1.space.exponent, seq2.space.exponent),
                                         Exponent.of(1))
        assert exact.exact
        assert 0 < bound <= exact.value * (1 + 1e-12)


def test_tensor_candidate_bound_with_random_sign_matrices():
    # 3 * 6 > 16 entries: 256 random sign matrices instead of every one
    rng = np.random.default_rng(9)
    X, Y = rng.standard_normal((5, 3)), rng.standard_normal((5, 6))
    seq1, seq2 = _pair(X, Y, "inf", "inf")
    est = tensor_weak_norm_estimate(seq1, seq2, 2)
    assert not est.exact
    assert tensor_weak_norm_estimate(seq1, seq2, 2) == est
    # the basis matrices have norm 1 on l_inf x l_inf, and each |B(x_j, y_j)|
    # is at most ||B|| ||x_j||_inf ||y_j||_inf
    basis = max(lp_norm(X[:, a] * Y[:, b], 2) for a in range(3) for b in range(6))
    assert basis <= est.value
    assert est.value <= lp_norm(np.abs(X).max(axis=1) * np.abs(Y).max(axis=1), 2)


# ---------------------------------------------------------------------------
# coincidence arithmetic


def test_coincidence_examples():
    assert coincidence_region("dv2", 2, p=1, qs=[1, 1])
    assert not coincidence_region("dv2", 2, p=1, qs=[2, 2])
    assert coincidence_region(
        "inclusion", 2, source=(1, (2, 2)), target=(2, (2, 2))
    )
    assert not coincidence_region(
        "inclusion", 2, source=(2, (2, 2)), target=(1, (2, 2))
    )


def test_coincidence_malformed():
    with pytest.raises(ValueError):
        coincidence_region("dv2", 2, p=1, qs=[1, 1, 1])
    with pytest.raises(ValueError):
        coincidence_region("dv2", 2, p="1/2", qs=[1, 1])
    with pytest.raises(ValueError):
        coincidence_region("cotype2", 2, k=2, p=1, q=1, qs=[3, 1])
    with pytest.raises(ValueError):
        coincidence_region("nonsense", 2, p=1, qs=[1, 1])
    with pytest.raises(ValueError):
        coincidence_region("even_odd", 2, r=3, p=1, qs=[3, 3])


@pytest.mark.parametrize("rule, kwargs", [
    ("dv2", dict(p=1, qs=[1, 1])),
    ("inclusion", dict(source=(1, (2, 2)), target=(2, (2, 2)))),
    ("cotype2", dict(k=2, p=1, q=1, qs=[1, 1])),
    ("even_odd", dict(r=2, p=1, qs=[2, 2])),
])
def test_coincidence_refuses_each_missing_argument(rule, kwargs):
    assert coincidence_region(rule, 2, **kwargs) is True
    for name in kwargs:
        rest = {key: value for key, value in kwargs.items() if key != name}
        with pytest.raises(ValueError, match=f"^{rule} needs "):
            coincidence_region(rule, 2, **rest)


def test_coincidence_cotype2_refusals_and_p_above_q():
    for k in (0, 3):
        with pytest.raises(ValueError, match="k must lie in 1..n"):
            coincidence_region("cotype2", 2, k=k, p=1, q=1, qs=[1] * max(k, 1))
    with pytest.raises(ValueError, match="expected 2 inner exponents"):
        coincidence_region("cotype2", 3, k=2, p=1, q=1, qs=[1, 1, 1])
    # 1/q_i <= 1 makes sum 1/q_i - k <= 0, so the identity needs 1/q <= 1/p
    assert coincidence_region("cotype2", 2, k=1, p=1, q=1, qs=[1]) is True
    assert coincidence_region("cotype2", 2, k=1, p=2, q=1, qs=[1]) is False
    assert coincidence_region("cotype2", 2, k=1, p=4, q=2, qs=["4/3"]) is False


def test_coincidence_even_odd_refusals_and_unequal_inner_exponents():
    with pytest.raises(ValueError, match="expected 3 inner exponents"):
        coincidence_region("even_odd", 3, r=2, p=2, qs=[2, 2])
    with pytest.raises(ValueError, match="even_odd needs n >= 2"):
        coincidence_region("even_odd", 1, r=2, p=2, qs=[2])
    assert coincidence_region("even_odd", 3, r="4/3", p="4/3", qs=["4/3"] * 3) is True
    assert coincidence_region("even_odd", 3, r=2, p=2, qs=[2, 2, 1]) is False
    assert coincidence_region("even_odd", 2, r=2, p=1, qs=[1, 2]) is False


def test_coincidence_inclusion_takes_exponent_tuples_of_n_inner_exponents():
    source, target = ExponentTuple(1, (2, 2)), ExponentTuple(2, (2, 2))
    assert coincidence_region("inclusion", 2, source=source, target=target) is True
    assert coincidence_region("inclusion", 2, source=target, target=source) is False
    with pytest.raises(ValueError, match="expected 3 inner exponents"):
        coincidence_region("inclusion", 3, source=source, target=(2, (2, 2, 2)))
    with pytest.raises(ValueError, match="expected 2 inner exponents"):
        coincidence_region("inclusion", 2, source=(1, (2, 2, 2)), target=target)


# ---------------------------------------------------------------------------
# certified bounds stay consistent


def test_certified_lower_bounds_respect_dv_upper():
    # ratio at (1;1,...,1) never exceeds ||A|| times the Rad_2 slack of the
    # witnessing family
    rng = np.random.default_rng(22)
    for i in range(15):
        order = 2 + (i % 2)
        A = random_form(rng, (2,) * order, ScalarField.REAL)
        best = random_family_search(
            A, ExponentTuple(1, (1,) * order), budget=24, seed=i, j_max=6
        )
        rep = verify_defant_voigt(A, best.family)
        assert rep.status == "pass"


def test_experiment_deterministic():
    a = summing_experiment("4/3", 2, m=2, count=2, budget=12, seed=3)
    b = summing_experiment("4/3", 2, m=2, count=2, budget=12, seed=3)
    assert a == b
    assert all(np.isfinite(rec["best_ratio"]) for rec in a)
