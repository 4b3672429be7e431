"""The supremum-over-balls kernel behind op_norm and weak_lp_norm, checked
against brute force that does not share its code: dense grids on the unit
circle of the free slot, explicit sign and basis loops, and witness vectors
evaluated directly."""

import itertools
import math

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
from summability.forms import _ball_sup
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
    est = _ball_sup(X, (pe.dual, sd))
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


# ---------------------------------------------------------------------------
# values whose intermediate sums over- or underflow


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the unscaled attempt
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the unscaled attempt
def test_weak_l2_norm_with_overflowing_products():
    seq = VectorSeq(np.full((2, 2), 1e300), SpaceSpec.lp(2, 2))
    assert weak_lp_norm(seq, 2).value == pytest.approx(2e300, rel=1e-9)
