import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from summability import (
    ContractionCheck,
    SignPattern,
    SpaceSpec,
    VectorSeq,
    contraction_check,
    kahane_ratio,
    lp_norm,
    rad_p_norm,
    rademacher_average,
    weak_lp_norm,
)
from summability.norms import _axis_norms
from summability.spaces import Exponent


def scalar_seq(values):
    return VectorSeq(np.asarray(values, dtype=float)[:, None], SpaceSpec.linf(1))


def all_signs(n):
    """All 2^n sign vectors, lexicographic with +1 before -1."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


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
    # 2^23 exact patterns (those with first sign +1 of n = 24) are over the
    # enumeration budget
    seq = VectorSeq(np.ones((24, 1)), SpaceSpec.linf(1))
    with pytest.raises(ValueError, match="over the budget"):
        rad_p_norm(seq, 2)


def test_rad_refusals_come_before_the_scaled_copy():
    # the items are scaled by a power of two only once the call is accepted:
    # a refused call allocates nothing the size of the items
    items = np.ones((24, 1 << 15))
    for mode, samples, match in (("exact", 1, "over the budget"), ("mc", 0, "one sample"),
                                 ("nonsense", 1, "unknown mode")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                rademacher_average(items, lambda v: v, 2, mode, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < items.nbytes // 4, mode


def test_rad_exact_sum_that_overflows_is_taken_on_rescaled_vectors():
    # the pattern terms 1.44e308 and 0.36e308 overflow math.fsum; the value
    # is that of the vectors scaled by 2^-600, scaled back
    X = np.array([[0.9e154], [0.3e154]])
    scaled = rad_p_norm(VectorSeq(np.ldexp(X, -600), SpaceSpec.linf(1)), 2)
    value = rad_p_norm(VectorSeq(X, SpaceSpec.linf(1)), 2)
    assert value == math.ldexp(scaled, 600) == 9.486832980505138e+153


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
    signs = all_signs(6)
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


def test_contraction_verdict_does_not_depend_on_the_scale():
    # a relative margin: multipliers 1 + 1e-12, which the validation lets
    # through as rounding, raise Rad_2 by 1e-12 relative, over the margin, at
    # every scale, where an absolute slack of 1e-12 would pass them at 2^-60
    X = np.random.default_rng(37).standard_normal((5, 2))
    for k in (-60, 0, 60):
        seq = VectorSeq(X * 2.0 ** k, SpaceSpec.lp(2, 1))
        assert contraction_check(seq, np.linspace(-1, 1, 5), 2).passed, k
        assert not contraction_check(seq, np.full(5, 1 + 1e-12), 2).passed, k


def test_contraction_validation():
    seq = scalar_seq([1.0, 1.0])
    with pytest.raises(ValueError):
        contraction_check(seq, [2.0, 0.0], 2)
    with pytest.raises(ValueError, match="exact mode expects real multipliers"):
        contraction_check(seq, np.array([1j, 0]), 2)
    with pytest.raises(ValueError, match="one multiplier per vector"):
        contraction_check(seq, [1.0], 2)


def test_contraction_check_is_true_when_it_passes():
    assert bool(contraction_check(scalar_seq([1.0, 1.0]), [1.0, 0.0], 2))
    assert not bool(ContractionCheck(False, 2.0, 1.0))


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


@pytest.mark.parametrize("index, n", [(8, 3), (4096, 12), (4097, 12), (-1, 12)])
def test_sign_pattern_index_out_of_range_is_refused(index, n):
    with pytest.raises(ValueError, match="outside"):
        SignPattern.from_index(index, n)
    assert SignPattern.from_index(2 ** n - 1, n).signs == (-1,) * n  # the last pattern


@pytest.mark.parametrize("n", [9, 12])  # 2^12 patterns span several blocks
@pytest.mark.parametrize("p", [1, 2])
def test_exact_average_matches_rational_mean(n, p):
    # reference: the exact rational mean of the same float terms, then the root
    rng = np.random.default_rng(16)
    seq = VectorSeq(rng.standard_normal((n, 2)), SpaceSpec.lp(2, 2))
    norms = np.sqrt(((all_signs(n) @ seq.vectors) ** 2).sum(axis=1))
    mean = sum(map(Fraction, (norms ** p).tolist())) / (1 << n)
    want = float(mean) ** (1.0 / p)
    assert abs(rad_p_norm(seq, p) - want) <= np.spacing(want)


@pytest.mark.parametrize("is_complex", [False, True])
def test_exact_average_is_the_mean_over_all_patterns_to_the_bit(is_complex):
    # exact mode runs the 2^(n-1) patterns with first sign +1; the reference
    # runs all 2^n with the same arithmetic per pattern, on the vectors scaled
    # by the power of two that brings their largest modulus into [1/2, 1):
    # its norm, its p-th power, then the exactly rounded sum divided by 2^n,
    # the root, and the scale taken back
    rng = np.random.default_rng(22)
    for n in range(1, 13):
        X = rng.standard_normal((n, 3))
        if is_complex:
            X = X + 1j * rng.standard_normal((n, 3))
        shift = math.frexp(np.abs(X).max())[1]
        for s in (1, 2, "inf"):
            seq = VectorSeq(X, SpaceSpec.lp(3, s))
            norms = _axis_norms(np.abs(all_signs(n) @ (X * 2.0 ** -shift)), seq.space.exponent,
                                axis=1)
            for p in (1, "4/3", 2, 3, "inf"):
                pv = Exponent.of(p).value
                want = (float(norms.max()) if pv == math.inf else
                        (math.fsum((norms ** pv).tolist()) / (1 << n)) ** (1.0 / pv))
                assert rad_p_norm(seq, p) == math.ldexp(want, shift), (n, s, p)
