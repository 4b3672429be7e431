import math
from fractions import Fraction

import numpy as np
import pytest

from summability import (
    SignPattern,
    SpaceSpec,
    VectorSeq,
    contraction_check,
    kahane_ratio,
    lp_norm,
    rad_p_norm,
    weak_lp_norm,
)
from summability._signs import sign_matrix


def scalar_seq(values):
    return VectorSeq(np.asarray(values, dtype=float)[:, None], SpaceSpec.linf(1))


def test_rad_examples():
    basis_sup = VectorSeq(np.eye(2), SpaceSpec.linf(2))
    assert rad_p_norm(basis_sup, 2) == pytest.approx(1.0, abs=1e-15)
    basis_l2 = VectorSeq(np.eye(2), SpaceSpec.lp(2, 2))
    assert rad_p_norm(basis_l2, 2) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_rad_single_vector_any_p():
    x = np.array([[1.0, -2.0, 2.0]])
    for space in (SpaceSpec.linf(3), SpaceSpec.lp(3, 1), SpaceSpec.lp(3, 2)):
        seq = VectorSeq(x, space)
        want = lp_norm(x[0], space.exponent)
        for p in (1, 2, "inf"):
            assert rad_p_norm(seq, p) == pytest.approx(want, abs=1e-14)


def test_rad_budget_error():
    seq = VectorSeq(np.ones((8, 1)), SpaceSpec.linf(1))
    with pytest.raises(ValueError):
        rad_p_norm(seq, 2, budget=64)


def test_rad_empty_error():
    with pytest.raises(ValueError):
        rad_p_norm(VectorSeq(np.zeros((0, 1)), SpaceSpec.linf(1)), 2)


def test_rad_monotone_in_p():
    rng = np.random.default_rng(12)
    for _ in range(20):
        J, m = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        seq = VectorSeq(rng.standard_normal((J, m)), SpaceSpec.lp(m, 2))
        vals = [rad_p_norm(seq, p) for p in (1, 2, 4, "inf")]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-12


def test_rad_inf_equals_weak_l1():
    rng = np.random.default_rng(13)
    for i in range(30):
        J, m = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        space = SpaceSpec.linf(m) if i % 2 else SpaceSpec.lp(m, 1)
        seq = VectorSeq(rng.standard_normal((J, m)), space)
        a = rad_p_norm(seq, "inf")
        b = weak_lp_norm(seq, 1)
        assert b.exact
        assert a == pytest.approx(b.value, abs=1e-12)


def test_mc_reproducible_and_close():
    rng = np.random.default_rng(14)
    seq = VectorSeq(rng.standard_normal((6, 3)), SpaceSpec.linf(3))
    exact = rad_p_norm(seq, 2)
    mc1 = rad_p_norm(seq, 2, "mc", samples=100_000, seed=7)
    mc2 = rad_p_norm(seq, 2, "mc", samples=100_000, seed=7)
    assert mc1 == mc2
    # compare mean-space values against five standard errors of the
    # population of squared norms (computable exactly at this size)
    signs = sign_matrix(6)
    pops = np.abs(signs @ seq.vectors).max(axis=1) ** 2
    se = pops.std() / math.sqrt(100_000)
    assert abs(mc1 ** 2 - exact ** 2) < 5 * se


def test_bad_mode():
    seq = scalar_seq([1.0])
    with pytest.raises(ValueError):
        rad_p_norm(seq, 2, "bogus")


def test_contraction_flat_equality():
    seq = VectorSeq(np.random.default_rng(0).standard_normal((5, 2)), SpaceSpec.linf(2))
    res = contraction_check(seq, np.ones(5), 2)
    assert res.passed and res.scaled == pytest.approx(res.unscaled, abs=1e-15)


def test_contraction_example():
    res = contraction_check(scalar_seq([1.0, 1.0]), [1.0, 0.0], 2)
    assert res.passed
    assert res.scaled == pytest.approx(1.0, abs=1e-15)
    assert res.unscaled == pytest.approx(math.sqrt(2), abs=1e-15)


def test_contraction_random():
    rng = np.random.default_rng(15)
    for _ in range(25):
        J, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        seq = VectorSeq(rng.standard_normal((J, m)), SpaceSpec.lp(m, 1))
        alphas = rng.uniform(-1, 1, size=J)
        assert contraction_check(seq, alphas, 2).passed


def test_contraction_validation():
    seq = scalar_seq([1.0, 1.0])
    with pytest.raises(ValueError):
        contraction_check(seq, [2.0, 0.0], 2)
    with pytest.raises(ValueError):
        contraction_check(seq, np.array([1j, 0]), 2)


def test_kahane_examples():
    assert kahane_ratio(scalar_seq([1.0, 1.0]), 2, 1) == pytest.approx(
        math.sqrt(2), abs=1e-15
    )
    basis_l2 = VectorSeq(np.eye(2), SpaceSpec.lp(2, 2))
    assert kahane_ratio(basis_l2, 2, 1) == pytest.approx(1.0, abs=1e-15)
    assert kahane_ratio(scalar_seq([3.0]), 4, 1) == pytest.approx(1.0, abs=1e-15)


def test_kahane_zero_denominator():
    with pytest.raises(ValueError):
        kahane_ratio(scalar_seq([0.0, 0.0]), 2, 1)


def test_sign_pattern():
    pat = SignPattern.from_index(0, 3)
    assert pat.signs == (1, 1, 1)
    pat = SignPattern.from_index(1, 3)
    assert pat.signs == (1, 1, -1)  # lexicographic with +1 before -1
    with pytest.raises(ValueError):
        SignPattern((1, 0))


@pytest.mark.parametrize("n", [9, 12])  # 2^12 patterns span several blocks
@pytest.mark.parametrize("p", [1, 2])
def test_exact_average_matches_rational_mean(n, p):
    # reference: the exact rational mean of the same float terms, then the root
    rng = np.random.default_rng(16)
    seq = VectorSeq(rng.standard_normal((n, 2)), SpaceSpec.lp(2, 2))
    norms = np.sqrt(((sign_matrix(n) @ seq.vectors) ** 2).sum(axis=1))
    mean = sum(map(Fraction, (norms ** p).tolist())) / (1 << n)
    want = float(mean) ** (1.0 / p)
    assert abs(rad_p_norm(seq, p) - want) <= np.spacing(want)
