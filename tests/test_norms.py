import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from summability import (Exponent, SpaceSpec, VectorSeq, forms, lp_norm, mixed_norm, norms,
                         rademacher, weak_lp_norm)


def test_lp_examples():
    assert lp_norm([3, 4], 2) == 5.0
    assert lp_norm([1, 1], "4/3") == pytest.approx(2 ** 0.75, abs=1e-15)
    assert lp_norm([1, -2, 2], 1) == 5.0
    assert lp_norm([1, -2, 2], "inf") == 2.0
    assert lp_norm([], 2) == 0.0


def test_lp_rejects_nonpositive():
    with pytest.raises(ValueError):
        lp_norm([1.0], 0)
    with pytest.raises(ValueError):
        lp_norm([1.0], -2)


def test_lp_quasi_norm():
    # 0 < p < 1 uses the same expression
    assert lp_norm([1, 1], 0.5) == pytest.approx(4.0)


@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
    st.sampled_from([1.0, 1.25, 2.0, 3.0]),
    st.sampled_from([1.0, 1.5, 4.0, math.inf]),
)
def test_lp_monotone_in_p(v, p, q):
    lo, hi = min(p, q), max(p, q)
    assert lp_norm(v, hi) <= lp_norm(v, lo) + 1e-9


def _lp_reference(v, p):
    """lp_norm as one formula: for p = inf and 1 the maximum and the sum of
    the moduli over all axes; otherwise the moduli scaled by the power of two
    that brings their largest into [1/2, 1), the sum of their powers over all
    axes, its root taken on a numpy scalar and scaled back."""
    e = Exponent.of(p)
    a = np.abs(np.asarray(v)).astype(np.float64)
    with np.errstate(all="ignore"):
        if e.is_inf:
            return float(np.maximum.reduce(a, axis=None))
        if e.value == 1.0:
            return float(np.add.reduce(a, axis=None))
        shift = math.frexp(float(a.max()))[1]
        root = np.add.reduce(np.ldexp(a, -shift) ** e.value, axis=None) ** (1.0 / e.value)
        return float(np.ldexp(root, shift))


def test_lp_norm_keeps_the_bits_of_its_formula():
    rng = np.random.default_rng(7)
    for t in range(3000):
        shape = tuple(int(m) for m in rng.integers(1, 9, int(rng.integers(1, 4))))
        v = rng.standard_normal(shape)
        if t % 2:
            v = v + 1j * rng.standard_normal(shape)
        v *= 2.0 ** int(rng.choice([0, 300, -300, 520, -520, 600, -600, 1000, -1060]))
        if v.ndim > 1 and t % 5 == 0:
            v = v.T  # not C-contiguous: summed in memory order
        for p in ("1/2", 1, "4/3", 2, 3, "inf"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = lp_norm(v, p)
            assert got == _lp_reference(v, p), (t, p)


def test_lp_norm_scales_by_a_power_of_two_to_the_bit():
    # ||2^k x||_p = 2^k ||x||_p exactly in real arithmetic, and so in floats:
    # each norm scales its input by a power of two before the powers, so
    # 2^k x and x give one scaled input. Without that, numpy's a ** p drifts
    # with the scale of a: for the entries of T_2 at p = 4/3 the norm read
    # +97, +10, -12 and -99 ulps off at k = -400, -45, 45 and 400 (numpy 2.4)
    rng = np.random.default_rng(37)
    exps = ("1/2", 1, "4/3", 2, 3, "inf")
    inputs = [np.array([[1.0, 1.0], [1.0, -1.0]])]
    for t in range(8):
        x = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        inputs.append(x + 1j * rng.standard_normal(x.shape) if t % 2 else x)
    for t, x in enumerate(inputs):
        s = exps[1 + t % 5]  # the space of the vectors, a norm
        fns = [lambda x, p: lp_norm(x, p),
               lambda x, p: mixed_norm(x, p, s),
               lambda x, p: rademacher.rad_p_norm(VectorSeq(x, SpaceSpec.lp(x.shape[1], s)), p),
               lambda x, p: rademacher.rad_p_norm(VectorSeq(x, SpaceSpec.lp(x.shape[1], s)), p,
                                                  "mc", samples=64, seed=t)]
        for fn in fns:
            for p in exps:
                base = fn(x, p)
                for k in (-1000, -600, -45, 45, 600, 900):
                    assert fn(x * 2.0 ** k, p) == math.ldexp(base, k), (t, p, k)


def test_lp_rows_keeps_the_bits_of_lp_norm_per_row():
    # stacks of rows in range, out of it and zero: each row is scaled by its
    # own power of two, so every row keeps the bits it has alone
    rng = np.random.default_rng(11)
    scales = [0, 1, 2.0 ** 520, 2.0 ** -520, 2.0 ** 1000, 2.0 ** -1060, 2.0 ** 300]
    for t in range(200):
        rows, n = int(rng.integers(2, 12)), int(rng.integers(1, 9))
        a = np.abs(rng.standard_normal((rows, n)))
        a *= np.array(scales)[rng.integers(0, len(scales), rows)][:, None]
        for p in ("1/2", 1, "4/3", 2, 3, "inf"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = norms._lp_rows(a, Exponent.of(p))
                alone = [lp_norm(row, p) for row in a]
            assert got.dtype == np.float64 and got.shape == (rows,)
            assert got.tolist() == alone, (t, p)


def test_mixed_examples():
    assert mixed_norm(np.eye(2), 1, 2) == pytest.approx(2.0, abs=1e-15)
    assert mixed_norm(np.ones((2, 2)), "4/3", "4/3") == pytest.approx(4 ** 0.75, abs=1e-12)
    want = math.sqrt(10) + 2 * math.sqrt(5)
    assert mixed_norm([[1, 2], [3, 4]], 1, 2) == pytest.approx(want, abs=1e-12)


def test_mixed_norm_suprema():
    assert mixed_norm([[1, -3], [2, 4]], "inf", 1) == 7.0
    assert mixed_norm([[1, -3], [2, 4]], 1, "inf") == 6.0


def test_mixed_rejects_empty():
    with pytest.raises(ValueError):
        mixed_norm(np.zeros((0, 2)), 1, 2)
    with pytest.raises(ValueError):
        mixed_norm([1.0, 2.0], 1, 2)


def test_minkowski_transpose_inequality():
    # (sum_k (sum_j |m_jk|)^2)^(1/2) <= sum_j (sum_k |m_jk|^2)^(1/2)
    rng = np.random.default_rng(42)
    for _ in range(200):
        M = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        assert mixed_norm(M, 2, 1) <= mixed_norm(M.T, 1, 2) + 1e-12


def test_vector_seq_validation():
    space = SpaceSpec.linf(3)
    with pytest.raises(ValueError):
        VectorSeq(np.zeros((2, 2)), space)
    seq = VectorSeq(np.zeros(3), space)  # single vector promotes to one row
    assert seq.length == 1 and seq.dim == 3


def test_vector_seq_refuses_a_3d_array_and_a_wrong_scaling():
    space = SpaceSpec.linf(2)
    with pytest.raises(ValueError, match="2-d array"):
        VectorSeq(np.zeros((2, 2, 2)), space)
    seq = VectorSeq(np.eye(2), space)
    with pytest.raises(ValueError, match="one coefficient per vector"):
        seq.scaled([1.0, 2.0, 3.0])
    assert np.array_equal(seq.scaled([1.0, -2.0]).vectors, [[1.0, 0.0], [0.0, -2.0]])


def test_norm_estimate_converts_to_its_value():
    assert float(norms.NormEstimate(1.5, True)) == 1.5


def test_weak_norm_sup_space_examples():
    m = 4
    basis = VectorSeq(np.eye(m), SpaceSpec.linf(m))
    est = weak_lp_norm(basis, 1)
    assert est.exact and est.value == 1.0

    e1_twice = VectorSeq([[1.0, 0.0], [1.0, 0.0]], SpaceSpec.linf(2))
    est = weak_lp_norm(e1_twice, 2)
    assert est.exact and est.value == pytest.approx(math.sqrt(2), abs=1e-15)


def test_weak_norm_real_l1_example():
    basis = VectorSeq(np.eye(2), SpaceSpec.lp(2, 1))
    est = weak_lp_norm(basis, 1)
    assert est.exact and est.value == pytest.approx(2.0, abs=1e-15)


def test_weak_norm_rejects_empty():
    with pytest.raises(ValueError):
        weak_lp_norm(VectorSeq(np.zeros((0, 2)), SpaceSpec.linf(2)), 1)


def test_weak_norm_bounds():
    # max_j ||x_j|| <= weak_l1 <= sum_j ||x_j||
    rng = np.random.default_rng(0)
    for i in range(50):
        m = int(rng.integers(1, 6))
        J = int(rng.integers(1, 6))
        space = SpaceSpec.linf(m) if i % 2 else SpaceSpec.lp(m, 1)
        seq = VectorSeq(rng.standard_normal((J, m)), space)
        strong = [lp_norm(x, space.exponent) for x in seq.vectors]
        est = weak_lp_norm(seq, 1)
        assert max(strong) - 1e-12 <= est.value <= sum(strong) + 1e-12


def test_weak_norm_single_vector_general_space():
    seq = VectorSeq([[3.0, 4.0]], SpaceSpec.lp(2, 2))
    est = weak_lp_norm(seq, "4/3")
    assert est.exact and est.value == pytest.approx(5.0, abs=1e-12)


def test_ascent_matches_exact_formulas():
    # the kernel's alternating ascent against the norming-set and sign oracles
    rng = np.random.default_rng(3)
    for i in range(30):
        m = int(rng.integers(2, 11))
        J = int(rng.integers(1, 7))
        space = SpaceSpec.linf(m) if i % 2 == 0 else SpaceSpec.lp(m, 1)
        seq = VectorSeq(rng.standard_normal((J, m)), space)
        p = [1, 2, "4/3"][i % 3]
        exact = weak_lp_norm(seq, p)
        pe = Exponent.of(p)
        balls = (pe.dual, space.exponent.dual)
        starts = forms._random_starts(seq.vectors, balls, False)
        ascent, _ = forms._polish([(seq.vectors, starts)], balls)[0]
        assert exact.exact
        assert ascent == pytest.approx(exact.value, rel=1e-8)
        assert ascent <= exact.value * (1 + 1e-9)


def test_weak_norm_complex_sup_space_exact():
    z = np.array([[1.0, 1j], [1j, 0.5]])
    seq = VectorSeq(z, SpaceSpec.linf(2))
    est = weak_lp_norm(seq, 2)
    want = max(math.sqrt(2), math.sqrt(1 + 0.25))
    assert est.exact and est.value == pytest.approx(want, abs=1e-14)


def test_weak_norm_intermediate_space_is_lower_bound():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 3))
    # weak-l_2 in l_2 is the spectral norm of X
    seq = VectorSeq(X, SpaceSpec.lp(3, 2))
    est = weak_lp_norm(seq, 2)
    assert est.exact and est.value == pytest.approx(np.linalg.norm(X, 2), rel=1e-14)
    # the l2 dual ball contains the scaled sign vectors: any functional
    # phi / ||phi||_2 gives a lower bound the value must dominate
    phi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    hand = lp_norm(seq.vectors @ phi, 2)
    assert est.value >= hand - 1e-12
    # in l_3 the dual ball is that of l_(3/2), and the ascent gives a lower bound
    seq = VectorSeq(X, SpaceSpec.lp(3, 3))
    est = weak_lp_norm(seq, 2)
    assert not est.exact
    phi = np.array([1.0, 1.0, 1.0]) / 3 ** (2 / 3)
    hand = lp_norm(seq.vectors @ phi, 2)
    assert est.value >= hand - 1e-12


@pytest.mark.parametrize("J", [1, 2, 5])
def test_weak_norm_below_one_in_l2(J):
    # p < 1 on a real l_2 space: ||x||_2 for one vector, else the functional of
    # the exact weak-l_1 norm W, whose value lies in [W, J^(1/p - 1) W] by Hölder
    X = np.random.default_rng(J).standard_normal((J, 3))
    seq = VectorSeq(X, SpaceSpec.lp(3, 2))
    est = weak_lp_norm(seq, "1/2")
    if J == 1:
        assert est.exact and est.value == lp_norm(X[0], 2)
        return
    w = weak_lp_norm(seq, 1)
    assert w.exact and not est.exact
    assert w.value * (1 - 1e-12) <= est.value <= J * w.value * (1 + 1e-12)


def test_vector_seq_json_roundtrip():
    seq = VectorSeq([[1.0, 2.0], [0.0, -1.0]], SpaceSpec.lp(2, "4/3"))
    back = VectorSeq.from_json(seq.to_json())
    assert back.space == seq.space
    assert np.array_equal(back.vectors, seq.vectors)

    zc = VectorSeq(np.array([[1 + 2j, 0j]]), SpaceSpec.linf(2))
    back = VectorSeq.from_json(zc.to_json())
    assert np.array_equal(back.vectors, zc.vectors)
