"""The supremum-over-balls kernel behind op_norm and weak_lp_norm, checked
against brute force that does not share its code: dense grids on the unit
circle of the free slot, explicit sign and basis loops, and witness vectors
evaluated directly."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from summability import (
    FormTensor,
    ScalarField,
    SpaceSpec,
    VectorSeq,
    evaluate,
    lp_norm,
    op_norm,
    weak_lp_norm,
)
from summability.forms import (_ascend, _ball_sup, _ball_sup_end, _ball_sup_start, _dual_step,
                               _gaussian, _lower_bounds, _one, _op_norms, _pad_key, _plan, _polar,
                               _polish, _random_starts, _runs)
from summability.spaces import Exponent


def circle(s, n=200_001):
    """Points of the unit sphere of l_s^2, dense in angle."""
    theta = np.linspace(0.0, 2 * math.pi, n)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return pts / np.linalg.norm(pts, ord=Exponent.of(s).value, axis=1)[:, None]


def signs(n):
    return np.array(list(itertools.product([1.0, -1.0], repeat=n)))


# ---------------------------------------------------------------------------
# newly exact cases


@pytest.mark.parametrize("s", ["4/3", 2, 3])
def test_weak_l1_in_real_ls_matches_dual_circle_grid(s):
    # weak-l_1 = sup over phi in the l_s' unit ball of sum_j |phi(x_j)|
    rng = np.random.default_rng(11)
    sd = Exponent.of(s).dual
    phis = circle(sd)
    for _ in range(5):
        X = rng.standard_normal((int(rng.integers(2, 6)), 2))
        est = weak_lp_norm(VectorSeq(X, SpaceSpec.lp(2, s)), 1)
        grid = float(np.abs(X @ phis.T).sum(axis=0).max())
        assert est.exact
        assert grid - 1e-12 <= est.value <= grid * (1 + 1e-6)


@pytest.mark.parametrize("s", [1, "4/3", 2, "inf"])
@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_weak_linf_is_largest_vector_norm(s, field):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((4, 3))
    if field.is_complex:
        X = X + 1j * rng.standard_normal((4, 3))
    est = weak_lp_norm(VectorSeq(X, SpaceSpec.lp(3, s)), "inf")
    want = max(lp_norm(x, s) for x in X)
    assert est.exact
    assert est.value == pytest.approx(want, rel=1e-14)


def test_real_l1_by_l2_operator_norm_matches_circle_grid():
    # sup over basis vectors e_i (l_1 slot) and the l_2 circle (free slot)
    rng = np.random.default_rng(13)
    ys = circle(2)
    for _ in range(5):
        a = rng.standard_normal((int(rng.integers(2, 5)), 2))
        est = op_norm(FormTensor(a, (SpaceSpec.lp(len(a), 1), SpaceSpec.lp(2, 2))))
        grid = float(np.abs(a @ ys.T).max())
        assert est.exact
        assert grid - 1e-12 <= est.value <= grid * (1 + 1e-9)


def test_real_sup_by_l2_operator_norm_matches_signs_and_circle_grid():
    # sup over sign vectors x (sup slot) and the l_2 circle y (free slot)
    rng = np.random.default_rng(21)
    ys = circle(2)
    for _ in range(5):
        a = rng.standard_normal((3, 2))
        est = op_norm(FormTensor(a, (SpaceSpec.linf(3), SpaceSpec.lp(2, 2))))
        grid = max(float(np.abs(x @ a @ ys.T).max()) for x in signs(3))
        assert est.exact
        assert grid - 1e-12 <= est.value <= grid * (1 + 1e-9)


# ---------------------------------------------------------------------------
# complex l_1 slots


def test_complex_l1_by_sup_operator_norm_matches_phase_grid():
    # |sum_k a_ik z_k| over |z_k| <= 1, maximized over the basis vectors e_i
    rng = np.random.default_rng(14)
    phases = np.exp(1j * np.linspace(0.0, 2 * math.pi, 4001))
    for _ in range(5):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        A = FormTensor(a, (SpaceSpec.lp(3, 1), SpaceSpec.linf(2)), ScalarField.COMPLEX)
        est = op_norm(A)
        grid = max(float(np.abs(a[i, 0] + a[i, 1] * phases).max()) for i in range(3))
        assert est.exact
        assert grid - 1e-12 <= est.value <= grid * (1 + 1e-6)


def test_complex_l1_by_l1_operator_norm_is_largest_coefficient():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    A = FormTensor(a, (SpaceSpec.lp(3, 1), SpaceSpec.lp(4, 1)), ScalarField.COMPLEX)
    est = op_norm(A)
    assert est.exact and est.value == float(np.abs(a).max())


def test_complex_l1_space_weak_linf_is_exact():
    z = np.array([[1 + 1j, -2.0], [0.5j, 0.25]])
    est = weak_lp_norm(VectorSeq(z, SpaceSpec.lp(2, 1)), "inf")
    assert est.exact and est.value == pytest.approx(math.sqrt(2) + 2, rel=1e-15)


# ---------------------------------------------------------------------------
# complex sup slots on the grid of 8th roots of unity


ROOTS = np.exp(2j * np.pi * np.arange(8) / 8)


def phase_grid_max(a):
    """Best |A| over vectors (1, w, ...) of 8th roots of unity in every slot but
    the free one, which is solved in closed form (the l_1 norm of the partial
    contraction). The free slot is the one of least work dim * prod(8^(dim-1)
    of the others), the lowest index on ties."""
    dims = a.shape
    work = [m * math.prod(8 ** (d - 1) for j, d in enumerate(dims) if j != i)
            for i, m in enumerate(dims)]
    free = work.index(min(work))
    moved = np.moveaxis(a, free, -1)
    best = 0.0
    grids = [itertools.product(ROOTS, repeat=d - 1)
             for j, d in enumerate(dims) if j != free]
    for combo in itertools.product(*grids):
        c = moved
        for w in combo:
            c = np.tensordot(np.array((1.0,) + w), c, axes=([0], [0]))
        best = max(best, float(np.abs(c).sum()))
    return best


@pytest.mark.parametrize("dims", [(2, 2), (2, 5), (3, 4), (5, 5), (4, 3),
                                  (2, 2, 2), (3, 3, 3), (2, 3, 5), (2, 4, 4)])
def test_complex_sup_op_norm_is_within_the_roots_of_unity_bounds(dims):
    # the 8-gon through the roots contains the disc of radius cos(pi/8), so
    # grid <= ||A|| <= sec(pi/8)^k grid with k = order - 1 enumerated slots
    rng = np.random.default_rng(sum(dims) + 100 * len(dims))
    a = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    A = FormTensor.on_linf(a, ScalarField.COMPLEX)
    est = op_norm(A)
    grid = phase_grid_max(a)
    assert not est.exact
    assert grid * (1 - 1e-12) <= est.value
    assert est.value <= grid / math.cos(math.pi / 8) ** (len(dims) - 1) * (1 + 1e-12)
    for x in est.witness:
        assert lp_norm(x, "inf") <= 1 + 1e-12
    assert abs(evaluate(A, est.witness)) == pytest.approx(est.value, rel=1e-12)


def test_complex_sup_by_l1_form_keeps_its_exact_plan():
    # basis vectors of the l_1 slot, the sup slot in closed form: the value is
    # the largest column l_1 norm, the same bits as before the grid existed
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    A = FormTensor(a, (SpaceSpec.linf(5), SpaceSpec.lp(4, 1)), ScalarField.COMPLEX)
    est = op_norm(A)
    assert est.exact
    assert est.value == 7.569359507528324
    assert est.value == float(np.abs(a).sum(axis=0).max())
    assert abs(evaluate(A, est.witness)) == pytest.approx(est.value, rel=1e-12)


METHODS = [  # (dims, exponents, field, the method of its plan)
    ((4, 5), ("inf", "inf"), ScalarField.REAL, "enumeration"),
    ((5, 4), ("inf", 1), ScalarField.COMPLEX, "enumeration"),
    ((1, 5), (2, 2), ScalarField.COMPLEX, "enumeration"),
    ((4, 5), ("inf", "inf"), ScalarField.COMPLEX, "grid"),
    ((3, 2, 3), ("inf", "inf", "inf"), ScalarField.COMPLEX, "grid"),
    ((7, 7), ("inf", "inf"), ScalarField.COMPLEX, "random"),
    ((3, 3), (3, 3), ScalarField.REAL, "random"),
    ((3, 4, 3), (2, 2, 2), ScalarField.REAL, "random"),
    ((3, 4), (2, 2), ScalarField.REAL, "l2-pair"),
    ((3, 4), (2, 2), ScalarField.COMPLEX, "l2-pair"),
]


@pytest.mark.parametrize("dims,exps,field,method", METHODS)
def test_plan_names_the_method_that_solves_its_shape(dims, exps, field, method):
    # a dense item is exact only under the exact methods; an item with one
    # nonzero per row is exact under every method when it has two slots
    balls = tuple(Exponent.of(s) for s in exps)
    plan = _plan(dims, balls, field.is_complex)
    assert plan.method == method
    assert (plan.stack_key is None) == (method != "enumeration")
    rng = np.random.default_rng(53)
    dense = _gaussian(rng, dims, field.is_complex)
    sparse = np.zeros_like(dense)
    for i in range(dims[0]):
        at = (i, i % dims[1]) + (0,) * (len(dims) - 2)
        sparse[at] = dense[at]
    _, exact, _ = _ball_sup(np.stack([dense, sparse]), balls)
    exact_method = method in ("enumeration", "l2-pair")
    assert exact == [exact_method, exact_method or len(dims) == 2]


def test_planning_compares_no_fractions(monkeypatch):
    # exponents are told by identity: a plan made afresh never runs Fraction.__eq__
    cases = [(dims, tuple(Exponent.of(s) for s in exps), field.is_complex, method)
             for dims, exps, field, method in METHODS]

    def refuse(self, other):
        raise AssertionError("a plan compared two fractions")
    _plan.cache_clear()
    monkeypatch.setattr(Fraction, "__eq__", refuse)
    assert [_plan(dims, balls, c).method for dims, balls, c, _ in cases] == \
        [method for *_, method in cases]


# ---------------------------------------------------------------------------
# witnesses attain the value


@pytest.mark.parametrize("domains,field", [
    ((SpaceSpec.linf(4), SpaceSpec.linf(3)), ScalarField.REAL),
    ((SpaceSpec.linf(3), SpaceSpec.lp(3, 1), SpaceSpec.linf(2)), ScalarField.REAL),
    ((SpaceSpec.lp(3, 1), SpaceSpec.lp(2, "4/3")), ScalarField.REAL),
    ((SpaceSpec.lp(3, 1), SpaceSpec.linf(3)), ScalarField.COMPLEX),
    ((SpaceSpec.linf(3), SpaceSpec.linf(3)), ScalarField.COMPLEX),
    ((SpaceSpec.lp(3, 2), SpaceSpec.lp(3, 3)), ScalarField.REAL),
])
def test_op_norm_witness_attains_value(domains, field):
    rng = np.random.default_rng(16)
    shape = tuple(d.dim for d in domains)
    a = rng.standard_normal(shape)
    if field.is_complex:
        a = a + 1j * rng.standard_normal(shape)
    A = FormTensor(a, domains, field)
    est = op_norm(A)
    assert len(est.witness) == A.order
    for x, d in zip(est.witness, domains):
        assert lp_norm(x, d.exponent) <= 1 + 1e-12
    assert abs(evaluate(A, est.witness)) == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("dims,exps,grid", [
    ((4, 5), ("inf", "inf"), True),
    ((7, 7), ("inf", "inf"), False),
    ((3, 2, 3), ("inf", "inf", "inf"), True),
    ((5, 4, 5), ("inf", "inf", "inf"), False),
    ((5, 4), ("4/3", 2), False),
    ((3, 4, 3), ("4/3", 2, "4/3"), False),
])
def test_ascent_value_is_its_witness_value_within_16_ulps(dims, exps, grid):
    # a sweep's value is the dual norm of its last partial contraction, not
    # |A(x)| of its vectors: the two agree up to the rounding of each, which
    # stayed within 13 ulps on 300 items of each case
    rng = np.random.default_rng(37)
    balls = tuple(Exponent.of(s) for s in exps)
    assert (_plan(dims, balls, True).method == "grid") == grid
    stack = rng.standard_normal((8,) + dims) + 1j * rng.standard_normal((8,) + dims)
    values, exact, witnesses = _ball_sup(stack, balls)
    for a, value, flag, w in zip(stack, values.tolist(), exact, witnesses):
        assert not flag
        A = FormTensor(a, tuple(SpaceSpec.lp(m, s) for m, s in zip(dims, exps)),
                       ScalarField.COMPLEX)
        attained = abs(evaluate(A, w)) / math.prod(lp_norm(x, b) for x, b in zip(w, balls))
        assert abs(attained - value) <= 16 * math.ulp(value)


@pytest.mark.parametrize("space,p,J", [
    (SpaceSpec.linf(4), 2, 5),
    (SpaceSpec.lp(3, 1), "4/3", 4),
    (SpaceSpec.lp(3, 2), 1, 4),
    (SpaceSpec.lp(3, 2), "inf", 4),
    (SpaceSpec.lp(3, "4/3"), 2, 1),
    (SpaceSpec.lp(3, 2), 2, 3),
])
def test_weak_norm_kernel_witness_attains_value(space, p, J):
    # the weak norm is the kernel on X over the balls of l_p'^J and l_s'^m;
    # its witness is (alpha, phi), and phi alone attains ||X phi||_p >= value
    rng = np.random.default_rng(17)
    X = rng.standard_normal((J, space.dim))
    pe, sd = Exponent.of(p), space.exponent.dual
    est = _one(_ball_sup(X[None], (pe.dual, sd)))
    assert est.value == weak_lp_norm(VectorSeq(X, space), p).value
    alpha, phi = est.witness
    assert lp_norm(alpha, pe.dual) <= 1 + 1e-12
    assert lp_norm(phi, sd) <= 1 + 1e-12
    assert abs(alpha @ X @ phi) == pytest.approx(est.value, rel=1e-12)
    attained = lp_norm(X @ phi, pe)
    if est.exact:
        assert attained == pytest.approx(est.value, rel=1e-12)
    else:
        assert attained >= est.value * (1 - 1e-12)


# ---------------------------------------------------------------------------
# the norming-set formulas on sup-norm and real l_1 spaces


@pytest.mark.parametrize("p", [1, "4/3", 2, 3, "inf"])
def test_sup_space_weak_norm_is_best_coordinate(p):
    rng = np.random.default_rng(18)
    for _ in range(40):
        J, m = (int(k) for k in rng.integers(1, 8, size=2))
        X = rng.standard_normal((J, m))
        if rng.random() < 0.5:
            X = X + 1j * rng.standard_normal((J, m))
        est = weak_lp_norm(VectorSeq(X, SpaceSpec.linf(m)), p)
        want = max(lp_norm(X[:, k], p) for k in range(m))
        assert est.exact
        assert est.value == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("p", [1, "4/3", 2, 3, "inf"])
def test_real_l1_space_weak_norm_is_best_sign_functional(p):
    rng = np.random.default_rng(19)
    for _ in range(40):
        J, m = (int(k) for k in rng.integers(1, 7, size=2))
        X = rng.standard_normal((J, m))
        est = weak_lp_norm(VectorSeq(X, SpaceSpec.lp(m, 1)), p)
        want = max(lp_norm(X @ phi, p) for phi in signs(m))
        assert est.exact
        assert est.value == pytest.approx(want, rel=1e-14)


def test_real_sup_operator_norm_is_best_sign_pair():
    rng = np.random.default_rng(20)
    for _ in range(20):
        a = rng.standard_normal(tuple(int(k) for k in rng.integers(1, 6, size=2)))
        est = op_norm(FormTensor.on_linf(a))
        want = max(abs(x @ a @ y) for x in signs(a.shape[0]) for y in signs(a.shape[1]))
        assert est.exact
        assert est.value == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# p < 1


@pytest.mark.xfail(strict=True, reason="known defect: for p < 1 the weak value "
                   "comes from the vertex functionals only and is flagged exact, "
                   "but the supremum can lie between vertices")
@pytest.mark.parametrize("space,X,phi", [
    # e_1, e_2 in l_inf^2: vertices give 1, phi = (1/2, 1/2) gives 2
    (SpaceSpec.linf(2), [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    # (1, 1), (1, -1) in real l_1^2: sign vectors give 2, phi = (1, 0) gives 4
    (SpaceSpec.lp(2, 1), [[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0]),
])
def test_weak_norm_below_one_exact_flag_is_a_supremum(space, X, phi):
    seq = VectorSeq(X, space)
    p = Exponent.of("1/2")
    est = weak_lp_norm(seq, p)
    assert lp_norm(phi, space.exponent.dual) <= 1.0
    assert est.exact
    assert est.value >= lp_norm(seq.vectors @ np.asarray(phi), p) - 1e-12


@pytest.mark.xfail(strict=True, reason="known defect: the phases and l_p maximizers of "
                   "the ascent have norms of 1 plus rounding, so a lower bound can exceed "
                   "the norm by a few ulps")
def test_ascent_on_rank_one_forms_stays_at_or_below_the_closed_form():
    # 400 complex rank-one forms a (x) b, dims 3-6, on l_s x l_t: the norm is
    # ||a||_s' ||b||_t'. Every value is a heuristic lower bound; 367 of them
    # lie above it, by up to 1.1e-15 relative
    rng = np.random.default_rng(0)
    over = 0
    for _ in range(400):
        m1, m2 = rng.integers(3, 7, size=2).tolist()
        s = Exponent.of(rng.choice(["3/2", "2", "3", "4"]))
        t = Exponent.of(rng.choice(["3/2", "3", "4"]))
        a = rng.standard_normal(m1) + 1j * rng.standard_normal(m1)
        b = rng.standard_normal(m2) + 1j * rng.standard_normal(m2)
        est = op_norm(FormTensor(np.outer(a, b), (SpaceSpec(m1, s), SpaceSpec(m2, t)),
                                 ScalarField.COMPLEX))
        assert not est.exact
        over += est.value > lp_norm(a, s.dual) * lp_norm(b, t.dual)
    assert over == 0


# ---------------------------------------------------------------------------
# closed forms of two-slot arrays without an exact plan


def monomial(rng, dims, is_complex, by_columns=False):
    """A Gaussian array with at most one nonzero in each row (each column for
    ``by_columns``), about a fifth of them zero rows."""
    m0, m1 = dims[::-1] if by_columns else dims
    a = rng.standard_normal((m0, m1))
    if is_complex:
        a = a + 1j * rng.standard_normal((m0, m1))
    keep = np.zeros((m0, m1), bool)
    keep[np.arange(m0), rng.integers(0, m1, m0)] = rng.random(m0) > 0.2
    a = np.where(keep, a, 0)
    return a.T.copy() if by_columns else a


@pytest.mark.parametrize("s", ["4/3", 2, 3])
@pytest.mark.parametrize("q", [1, "4/3", 2, 4])
@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_weak_norm_of_unit_vectors_is_the_identity_norm(s, q, field):
    # weak-l_q of e_1..e_m in l_s^m is the norm of id: l_s'^m -> l_q^m
    m = 5
    X = np.eye(m, dtype=complex if field.is_complex else float)
    est = weak_lp_norm(VectorSeq(X, SpaceSpec.lp(m, s)), q)
    want = m ** max(0.0, float(Exponent.of(q).recip - Exponent.of(s).dual.recip))
    assert est.exact
    assert est.value == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("exps", [("4/3", 2), (2, "4/3"), (3, "3/2"), ("5/4", 4), (4, 3),
                                  ("3/2", 3), ("inf", 3), (3, "inf")])
@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
@pytest.mark.parametrize("by_columns", [False, True])
def test_monomial_array_matches_the_alternating_maximizer(exps, field, by_columns):
    rng = np.random.default_rng(34)
    balls = tuple(Exponent.of(s) for s in exps)
    for _ in range(12):
        a = monomial(rng, tuple(rng.integers(2, 7, size=2)), field.is_complex, by_columns)
        est = _one(_ball_sup(a[None], balls))
        value, witness = est.value, est.witness
        (ascent, _), = _polish([(a, _random_starts(a, balls, field.is_complex))], balls)
        assert est.exact
        assert value >= ascent * (1 - 1e-14)
        assert value == pytest.approx(ascent, rel=1e-9, abs=0)
        for x, b in zip(witness, balls):
            assert lp_norm(x, b) <= 1 + 1e-12
        attained = abs(np.einsum("jk,j,k->", a, *witness))
        assert attained == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1e308, 1e-200])
@pytest.mark.parametrize("by_columns", [False, True])
def test_monomial_array_of_extreme_scale(scale, by_columns):
    rng = np.random.default_rng(35)
    balls = (Exponent.of("4/3"), Exponent.of(3))
    a = monomial(rng, (4, 3), True, by_columns)
    a /= np.abs(a).max()
    est = _one(_ball_sup((scale * a)[None], balls))
    value, witness = est.value, est.witness
    assert est.exact
    assert value == pytest.approx(scale * _one(_ball_sup(a[None], balls)).value,
                                  rel=1e-12, abs=0)
    attained = abs(np.einsum("jk,j,k->", scale * a, *witness))
    assert attained == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_l2_pair_is_the_spectral_norm(field):
    rng = np.random.default_rng(36)
    stack = rng.standard_normal((5, 4, 3))
    if field.is_complex:
        stack = stack + 1j * rng.standard_normal((5, 4, 3))
    l2 = Exponent.of(2)
    values, exact, witnesses = _ball_sup(stack, (l2, l2))
    assert all(exact)
    for a, value, (x, y) in zip(stack, values, witnesses):
        assert value == pytest.approx(np.linalg.norm(a, 2), rel=1e-14, abs=0)
        assert lp_norm(x, 2) == pytest.approx(1, rel=1e-14)
        assert lp_norm(y, 2) == pytest.approx(1, rel=1e-14)
        assert abs(x @ a @ y) == pytest.approx(value, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# values whose intermediate sums over- or underflow


@pytest.mark.parametrize("scale", [1e308, 1e-200])
def test_op_norm_of_scaled_identity_on_l2(scale):
    l2 = SpaceSpec.lp(2, 2)
    est = op_norm(FormTensor(scale * np.eye(2), (l2, l2)))
    assert est.value == pytest.approx(scale, rel=1e-9, abs=0)


def test_exact_op_norm_with_underflowing_free_slot():
    # sup x l_2 is enumerated over signs; the l_2 slot squares 1e-200
    A = FormTensor(1e-200 * np.array([[1.0, 1.0], [1.0, -1.0]]),
                   (SpaceSpec.linf(2), SpaceSpec.lp(2, 2)))
    est = op_norm(A)
    assert est.exact
    assert est.value == pytest.approx(2e-200, rel=1e-12, abs=0)
    assert abs(evaluate(A, est.witness)) == pytest.approx(est.value, rel=1e-12, abs=0)


def test_weak_l2_norm_with_overflowing_products():
    seq = VectorSeq(np.full((2, 2), 1e300), SpaceSpec.lp(2, 2))
    assert weak_lp_norm(seq, 2).value == pytest.approx(2e300, rel=1e-9)


# ---------------------------------------------------------------------------
# the batch axis


@pytest.mark.parametrize("dims,exps,field", [
    ((3, 4), ("inf", "inf"), ScalarField.REAL),  # sign slot, free sup slot
    ((2, 3, 3), ("inf", 1, 2), ScalarField.REAL),  # basis and sign slots
    ((4, 3), (1, "inf"), ScalarField.COMPLEX),  # basis slot only
    ((3, 3), (2, "4/3"), ScalarField.REAL),  # a random plan: alternating
    ((2, 3), ("inf", "inf"), ScalarField.COMPLEX),  # phase slot: grid starts
    ((3, 2, 3), ("inf", "inf", "inf"), ScalarField.COMPLEX),  # two phase slots
    ((3, 2, 3), (1, "inf", "inf"), ScalarField.COMPLEX),  # basis and phase slots
    ((2, 3), ("inf", 2), ScalarField.COMPLEX),  # phase slot, free l_2 slot
    ((7, 7), ("inf", "inf"), ScalarField.COMPLEX),  # grid too large: alternating
])
def test_batch_gives_each_item_its_value_alone(dims, exps, field):
    # items at 2^600 and 2^-600 are rescaled one by one, the rest not at all
    rng = np.random.default_rng(31)
    stack = rng.standard_normal((6,) + dims)
    if field.is_complex:
        stack = stack + 1j * rng.standard_normal((6,) + dims)
    stack[1] *= 2.0 ** 600
    stack[4] *= 2.0 ** -600
    balls = tuple(Exponent.of(s) for s in exps)
    values, exact, witnesses = _ball_sup(stack, balls)
    for k, item in enumerate(stack):
        alone = op_norm(FormTensor(item, tuple(SpaceSpec.lp(m, s)
                                               for m, s in zip(dims, balls)), field))
        assert values[k] == alone.value
        assert exact[k] == alone.exact
        assert all(np.array_equal(w, a) for w, a in zip(witnesses[k], alone.witness))
    assert values[1] > 2.0 ** 500 and values[4] < 2.0 ** -500
    quiet, _, none = _ball_sup(stack, balls, witness=False)
    assert np.array_equal(quiet, values) and none is None


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_polish_splits_a_group_past_the_pad_work(field):
    # one pad key, but 32 * 13 * 12 > _PAD_WORK: two runs, each job as alone
    balls = (Exponent.of("4/3"), Exponent.of(2))
    shapes = [(12, 12), (13, 12)]
    assert [run for run, _ in _runs(shapes, 32)] == [[0], [1]]
    rng = np.random.default_rng(34)
    items = [rng.standard_normal(dims) + (1j * rng.standard_normal(dims)
                                          if field.is_complex else 0) for dims in shapes]
    assert len({_pad_key(a.shape) for a in items}) == 1

    def job(a):
        return a, _random_starts(a, balls, field.is_complex)

    together = _polish([job(a) for a in items], balls)
    for a, (value, vectors) in zip(items, together):
        (alone, best), = _polish([job(a)], balls)
        assert value == alone
        assert all(np.array_equal(x, y) for x, y in zip(vectors, best))


def test_ascent_stops_when_its_best_start_stops_gaining(monkeypatch):
    # on l_2 x l_2 a sweep is a step of the power method: start 0 lies near the
    # top singular vector of diag(2, 1) and converges within a few sweeps, start
    # 1 near the lower one, and it still climbs then. The item leaves after the
    # first sweep in which the running best over its starts gains at most 1e-12
    # of itself, though its lower start has not stopped gaining.
    balls = (Exponent.of(2), Exponent.of(2))
    last = []

    def step(c, s):
        x, mag = _dual_step(c, s)
        last.append(mag)
        return x, mag
    monkeypatch.setattr("summability.forms._dual_step", step)
    starts = np.array([[1.0, 1e-3], [1e-3, 1.0]])
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    values, best = _ascend(np.diag([2.0, 1.0])[None], balls, [starts[None], starts[None]])
    assert len(last) % 2 == 0
    now = np.linalg.norm(np.concatenate(last[1::2]), axis=-1)  # (sweeps, starts)
    top = np.maximum.accumulate(now.max(axis=1))
    still = np.diff(top, prepend=0.0) > 1e-12 * top
    stop = int(np.argmin(still))
    assert not still[stop] and still[:stop].all() and stop >= 2
    assert len(last) == 2 * (stop + 1)
    assert now[stop, 1] < top[stop] and now[stop, 1] - now[stop - 1, 1] > 1e-12 * top[stop]
    assert values[0] == top[stop] == now[:, 0].max()
    assert np.allclose(np.abs(best[0]), [[1, 0], [1, 0]], atol=1e-6)


@pytest.mark.parametrize("shapes", [[(5, 5), (6, 6)], [(3, 2, 3), (3, 3, 3)]])
@pytest.mark.parametrize("S", [8, 32])
@pytest.mark.parametrize("sup", [False, True])
@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_padded_jobs_of_other_output_dims_get_their_bits_alone(shapes, S, sup, field):
    # the smaller job is zero-padded to the larger one's dims, which changes
    # the rows of every slot's matmul and its inner length; BLAS keeps each
    # job's bits with the starts as the output columns, (T, rows, m) @ (T, m, S).
    # With the starts as the output rows, V @ A^T, the complex order-3 cases
    # fail (OpenBLAS 0.3.31, SkylakeX kernels)
    order = len(shapes[0])
    balls = tuple(Exponent.of("inf" if sup else ("4/3", 2)[i % 2]) for i in range(order))
    rng = np.random.default_rng(36)

    def draw(shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if field.is_complex else g

    jobs = [(draw(dims), [draw((S, m)) for m in dims]) for dims in shapes]
    assert len({_pad_key(dims) for dims in shapes}) == 1
    assert [run for run, _ in _runs(shapes, S)] == [[0, 1]]
    together = _polish(jobs, balls)
    for job, (value, vectors) in zip(jobs, together):
        (alone, best), = _polish([job], balls)
        assert value == alone
        assert all(np.array_equal(x, y) for x, y in zip(vectors, best))


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
@pytest.mark.parametrize("s", ["inf", 1, 2])
def test_zero_padding_within_a_stack_key_keeps_the_kernel_bits(s, field):
    # weak norms of columns of every J <= 20 in l_s^3 at q in {1, 4/3, 2, 3,
    # inf}, wherever the kernel is exact, against the columns zero-padded to
    # each longer length L <= 20 of the same key
    rng = np.random.default_rng([int(field.is_complex), 0 if s == "inf" else s])
    dual = Exponent.of(s).dual
    padded_any = 0
    for q in ["1", "4/3", "2", "3", "inf"]:
        balls = (Exponent.of(q).dual, dual)
        for J in range(1, 21):
            key = _plan((J, 3), balls, field.is_complex).stack_key
            if key is None:
                continue
            stack = _gaussian(rng, (12, J, 3), field.is_complex)
            stack[:2] *= 2.0 ** 600
            stack[2:4] *= 2.0 ** -600
            want, exact, _ = _ball_sup(stack, balls, witness=False)
            for L in range(J + 1, 21):
                if _plan((L, 3), balls, field.is_complex).stack_key != key:
                    continue
                padded = np.pad(stack, ((0, 0), (0, L - J), (0, 0)))
                got, got_exact, _ = _ball_sup(padded, balls, witness=False)
                assert np.array_equal(got, want) and got_exact == exact, (q, J, L)
                padded_any += 1
    assert padded_any > 20


R, C = ScalarField.REAL, ScalarField.COMPLEX
RAGGED = [  # (dims, exponents, field, scale) of one _op_norms call
    ((3, 4), ("inf", "inf"), R, 1.0),  # real exact plans
    ((5, 2), ("inf", "inf"), R, 2.0 ** 600),
    ((2, 3, 3), ("inf", "inf", "inf"), R, 1.0),
    ((2, 3), ("inf", "inf"), C, 1.0),  # complex grid plans
    ((2, 3), ("inf", "inf"), R, 1.0),  # the shape of a complex item: sign vectors, exact
    ((4, 5), ("inf", "inf"), C, 2.0 ** -600),
    ((5, 4), ("inf", "inf"), C, 1.0),
    ((3, 2, 3), ("inf", "inf", "inf"), C, 1.0),
    ((2, 3, 2), ("inf", "inf", "inf"), C, 2.0 ** 600),
    ((7, 7), ("inf", "inf"), C, 1.0),  # over _GRID_CAP: random starts
    ((7, 8), ("inf", "inf"), C, 1.0),
    ((3, 3), ("4/3", 2), C, 1.0),  # l_4/3 x l_2, order 2
    ((2, 5), ("4/3", 2), C, 2.0 ** -600),
    ((4, 3), ("4/3", 2), R, 1.0),
    ((7, 3), ("4/3", 2), C, 1.0),  # the l_4/3 dims straddle 8
    ((9, 3), ("4/3", 2), C, 1.0),
    ((3, 2, 2), ("4/3", 2, "4/3"), C, 1.0),  # order 3
    ((2, 3, 4), ("4/3", 2, "4/3"), C, 1.0),
    ((3, 1, 3), ("4/3", 2, "4/3"), C, 1.0),  # a slot of dim 1
    ((4, 3), (2, 2), R, 1.0),  # l_2 x l_2: the spectral norm
    ((3, 3), (2, 2), C, 2.0 ** 600),
]
MONOMIAL_RAGGED = [  # (dims, exponents, field, scale, by columns): closed forms
    ((3, 3), ("4/3", 2), C, 1.0, False),  # in a group with dense items
    ((3, 3), ("4/3", 2), C, 1.0, True),
    ((7, 3), ("4/3", 2), C, 2.0 ** 600, False),
    ((4, 3), ("4/3", 2), R, 1.0, True),
    ((6, 2), ("4/3", 2), C, 2.0 ** -600, True),  # a shape of its own
    ((5, 4), ("inf", "inf"), C, 1.0, False),  # in a group of grid plans
    ((7, 7), ("inf", "inf"), C, 1.0, True),  # in a group of a random plan
]


def test_ragged_batch_gives_each_item_its_value_alone():
    rng = np.random.default_rng(32)
    forms = []
    for dims, exps, field, scale in RAGGED:
        a = rng.standard_normal(dims)
        if field.is_complex:
            a = a + 1j * rng.standard_normal(dims)
        forms.append(FormTensor(scale * a, tuple(SpaceSpec.lp(m, s)
                                                 for m, s in zip(dims, exps)), field))
    for dims, exps, field, scale, by_columns in MONOMIAL_RAGGED:
        a = monomial(rng, dims, field.is_complex, by_columns)
        forms.append(FormTensor(scale * a, tuple(SpaceSpec.lp(m, s)
                                                 for m, s in zip(dims, exps)), field))
    for A, est in zip(forms, _op_norms(forms)):
        alone = op_norm(A)
        assert est.value == alone.value and est.exact == alone.exact
        assert est.witness is None
    # the kernel asked for witnesses gives each item those it gets alone,
    # on the ragged batches _op_norms makes (one per exponents, both fields)
    groups = {}
    for A in forms:
        groups.setdefault(tuple(d.exponent for d in A.domains), []).append(A)
    for balls, group in groups.items():
        result = _ball_sup([A.coeffs for A in group], balls, witness=True)
        for j, A in enumerate(group):
            est, alone = _one(result, j), op_norm(A)
            assert est.value == alone.value and est.exact == alone.exact
            assert [w.shape for w in est.witness] == [(m,) for m in A.dims]
            assert all(np.array_equal(w, a) for w, a in zip(est.witness, alone.witness))


def test_ragged_batch_across_the_length_128_gives_each_item_its_value_alone():
    # numpy sums 128 entries in 8 partial sums and 129 or more in two halves:
    # an item of length 128 is not padded to a longer one
    rng = np.random.default_rng(35)
    balls = (Exponent.of(2), Exponent.of("inf"))
    items = [rng.standard_normal((J, 2)) + 1j * rng.standard_normal((J, 2))
             for J in list(range(120, 136)) * 3]
    values, exact, _ = _ball_sup(items, balls, witness=False)
    for a, value, flag in zip(items, values, exact):
        alone = _one(_ball_sup(a[None], balls, witness=False))
        assert value == alone.value and flag == alone.exact, len(a)


@pytest.mark.parametrize("exps", [("4/3", 2), (2, 3)])
def test_ragged_batch_from_random_starts_gives_each_item_its_value_alone(exps):
    rng = np.random.default_rng(33)
    balls = tuple(Exponent.of(s) for s in exps)
    shapes = [tuple(rng.integers(2, 7, size=2)) for _ in range(24)]
    items = [rng.standard_normal(dims) + 1j * rng.standard_normal(dims) for dims in shapes]
    values, exact, witnesses = _ball_sup(items, balls)
    for a, value, flag, w in zip(items, values, exact, witnesses):
        alone = _one(_ball_sup(a[None], balls))
        assert value == alone.value and flag == alone.exact
        assert all(np.array_equal(x, y) for x, y in zip(w, alone.witness))


FLOORED = {  # per field: exponents, then (dims, scale, kind) of one ragged batch
    ScalarField.COMPLEX: (("inf", "4/3"), [
        ((2, 3), 1.0, "dense"),  # grid plans
        ((3, 4), 1.0, "dense"),
        ((3, 4), 1e307, "dense"),
        ((7, 3), 1.0, "dense"),  # over _GRID_CAP: random starts
        ((8, 2), 1.0, "dense"),
        ((1, 3), 1.0, "dense"),  # an exact plan
        ((3, 3), 1.0, "monomial"),  # a closed form
    ]),
    ScalarField.REAL: (("4/3", 3), [
        ((2, 3), 1.0, "dense"),  # random starts
        ((4, 4), 1.0, "dense"),
        ((9, 3), 1e307, "dense"),
        ((3, 1), 1.0, "dense"),  # an exact plan
        ((3, 3), 1.0, "monomial"),  # a closed form
    ]),
}


@pytest.mark.parametrize("field", [ScalarField.COMPLEX, ScalarField.REAL])
def test_floors_stop_items_between_their_floor_and_their_value(field):
    rng = np.random.default_rng(34)
    exps, shapes = FLOORED[field]
    balls = tuple(Exponent.of(s) for s in exps)
    items = []
    for dims, scale, kind in shapes * 2:
        a = (monomial(rng, dims, field.is_complex) if kind == "monomial" else
             rng.standard_normal(dims) + (1j * rng.standard_normal(dims)
                                          if field.is_complex else 0))
        items.append(scale * a)
    values, exact, witnesses = _ball_sup(items, balls)
    for floors in (None, np.full(len(items), np.inf)):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            again = _ball_sup_end(_ball_sup_start(items, balls), floors)
        assert np.array_equal(again[0], values) and again[1] == exact
        assert all(np.array_equal(x, y) for w, v in zip(again[2], witnesses)
                   for x, y in zip(w, v))
    # below, at and above each value, and floors that are none
    factors = [0.5, 0.9, 0.999, 1.0, 1.5, 0.0, -1.0, np.nan]
    stopped = 0
    for shift in range(len(factors)):
        floors = values * np.roll(factors, shift)[np.arange(len(items)) % len(factors)]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, flags, found = _ball_sup_end(_ball_sup_start(items, balls), floors)
        assert flags == exact
        assert np.array_equal(got[exact], values[exact])
        for k, (v, floor) in enumerate(zip(got, floors)):
            assert v <= values[k]
            assert v == values[k] or v >= floor
            stopped += v < values[k]
            assert abs(np.einsum("ij,i,j", items[k], *found[k])) == pytest.approx(v, rel=1e-12)
    assert stopped >= 8
    # what a caller reads before it sets the floors (_lower_bounds) is at
    # most the value the batch ends with, whatever the floors: that value on
    # exact items in range, and positive on grid items in range; the same on
    # the items scaled by 2^600 and by 2^-600, whose values leave the range
    unit = [a for a in items if np.abs(a).max() < 2.0 ** 100]
    for batch in (items, [a * 2.0 ** 600 for a in unit], [a * 2.0 ** -600 for a in unit]):
        values, flags, _ = _ball_sup(batch, balls)
        assert all(type(f) is bool for f in flags)  # reports are strict JSON
        exact = np.array(flags)
        inside = (values >= 2.0 ** -500) & (values <= 2.0 ** 500)
        grid = np.array([not e and _plan(a.shape, balls, field.is_complex).method == "grid"
                         for a, e in zip(batch, flags)])
        assert not inside.all() and grid.any() == field.is_complex
        for shift in range(len(factors) + 1):
            floors = (values * np.roll(factors, shift)[np.arange(len(batch)) % len(factors)]
                      if shift < len(factors) else None)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                started = _ball_sup_start(batch, balls)
                low = _lower_bounds(started)
                got = _ball_sup_end(started, floors)[0]
            assert np.all(low <= got)
            assert np.array_equal(low[exact & inside], values[exact & inside])
            assert np.all(low[grid & inside] > 0)


def test_phase_of_subnormal_entries_is_computed_on_scaled_entries():
    # a / |a| is a * (1/|a|), and 1/|a| overflows below 2^-1024
    a = np.array([1e-320, 1e-310 + 0j, 3e-320 - 2e-320j, 0j, 0.6 - 0.8j, 1e-300j])
    mag, u = _polar(a)
    normal = mag > 1e-300
    assert np.all(np.isfinite(u)) and np.allclose(np.abs(u), 1)
    assert np.array_equal(u[normal], a[normal] / mag[normal]) and u[3] == 1
    assert np.allclose(u[:3], [1, 1, (3 - 2j) / abs(3 - 2j)])


@pytest.mark.parametrize("exps", [(2, 3), ("inf", "inf")])
def test_subnormal_coefficient_gives_the_value_of_a_zero(exps):
    def form(a00, a01):
        return FormTensor(np.array([[a00, a01], [a01, 1]], complex),
                          tuple(SpaceSpec.lp(2, s) for s in exps), ScalarField.COMPLEX)

    # a diagonal form takes the closed form
    est = op_norm(form(1e-320, 0))
    assert est.exact
    assert est.value == op_norm(form(0.0, 0)).value
    assert all(np.all(np.isfinite(w)) for w in est.witness)
    assert abs(evaluate(form(1e-320, 0), est.witness)) == pytest.approx(est.value, rel=1e-15)
    # a dense one the ascent, which the phases of subnormal contractions no
    # longer turn to NaN
    est = op_norm(form(1e-320, 1))
    assert not est.exact
    assert est.value == op_norm(form(0.0, 1)).value
    assert all(np.all(np.isfinite(w)) for w in est.witness)
    assert abs(evaluate(form(1e-320, 1), est.witness)) == pytest.approx(est.value, rel=1e-15)
