import itertools
import math

import numpy as np
import pytest

from summability import (
    FormTensor,
    ScalarField,
    SpaceSpec,
    compose_beta,
    curry,
    evaluate,
    op_norm,
)
from summability import forms


def phase_grid_opnorm_2x2(a, resolution=1e-3):
    """Independent oracle for complex 2x2 sup-norm forms: sweep (1, e^{i phi})."""
    phis = np.arange(0.0, 2 * math.pi, resolution)
    y = np.stack([np.ones_like(phis), np.exp(1j * phis)])
    return float(np.abs(a @ y).sum(axis=0).max())


def test_evaluate_examples(littlewood):
    assert evaluate(FormTensor.on_linf(np.eye(2)), [[1, 1], [1, -1]]) == 0.0
    ones = FormTensor.on_linf(np.ones((2, 2, 2)))
    assert evaluate(ones, [[1, 1]] * 3) == 8.0
    assert evaluate(littlewood, [[1, 1], [1, 0]]) == 2.0


def test_evaluate_shape_errors(littlewood):
    with pytest.raises(ValueError):
        evaluate(littlewood, [[1, 1]])
    with pytest.raises(ValueError):
        evaluate(littlewood, [[1, 1, 1], [1, 1]])


def test_multilinearity():
    rng = np.random.default_rng(1)
    A = FormTensor.on_linf(rng.standard_normal((3, 2, 4)))
    xs = [rng.standard_normal(m) for m in (3, 2, 4)]
    for slot in range(3):
        y = rng.standard_normal(A.dims[slot])
        c = rng.standard_normal()
        shifted = list(xs)
        shifted[slot] = xs[slot] + c * y
        alt = list(xs)
        alt[slot] = y
        want = evaluate(A, xs) + c * evaluate(A, alt)
        assert evaluate(A, shifted) == pytest.approx(want, abs=1e-12)


def test_op_norm_littlewood_exact(littlewood):
    est = op_norm(littlewood)
    assert est.exact and est.value == 2.0
    # witness reproduces the value
    assert abs(evaluate(littlewood, est.witness)) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3, 2), (2, 2, 2, 2)])
def test_real_sup_op_norm_is_the_maximum_over_every_sign_vector(shape):
    # the kernel enumerates the sign vectors with first sign +1 of every slot
    # but one, 2 of them on a slot of dim 2, which is still no basis slot;
    # the reference loops over all sign vectors of every slot
    rng = np.random.default_rng(len(shape))
    signs = [list(itertools.product((1.0, -1.0), repeat=m)) for m in shape]
    for _ in range(10):
        A = FormTensor.on_linf(rng.standard_normal(shape))
        want = max(abs(evaluate(A, xs)) for xs in itertools.product(*signs))
        est = op_norm(A)
        assert est.exact and est.value == pytest.approx(want, rel=1e-14)
        assert abs(evaluate(A, est.witness)) == pytest.approx(est.value, rel=1e-14)


def test_op_norm_complex_littlewood(littlewood_complex):
    est = op_norm(littlewood_complex)
    oracle = phase_grid_opnorm_2x2(littlewood_complex.coeffs)
    assert not est.exact
    assert est.value == pytest.approx(2 * math.sqrt(2), abs=1e-8)
    assert oracle == pytest.approx(2 * math.sqrt(2), abs=1e-5)


def test_op_norm_all_ones():
    est = op_norm(FormTensor.on_linf(np.ones((2, 2))))
    assert est.exact and est.value == 4.0


def test_op_norm_homogeneity():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    base = op_norm(FormTensor.on_linf(A))
    scaled = op_norm(FormTensor.on_linf(-2.5 * A))
    assert base.exact and scaled.exact
    assert scaled.value == pytest.approx(2.5 * base.value, rel=1e-14)


def test_real_exact_below_complex_heuristic():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((3, 2))
        real = op_norm(FormTensor.on_linf(a))
        cplx = op_norm(FormTensor.on_linf(a, ScalarField.COMPLEX))
        assert real.exact and not cplx.exact
        assert cplx.value >= real.value - 1e-9


def test_op_norm_dominates_max_coefficient():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.standard_normal((2, 3, 2))
        est = op_norm(FormTensor.on_linf(a))
        assert est.value >= np.abs(a).max() - 1e-12


def test_op_norm_all_l1_domains():
    a = np.array([[1.0, -7.0], [2.0, 3.0]])
    domains = (SpaceSpec.lp(2, 1), SpaceSpec.lp(2, 1))
    est = op_norm(FormTensor(a, domains))
    assert est.exact and est.value == 7.0
    zc = FormTensor(a + 0j, domains, ScalarField.COMPLEX)
    est = op_norm(zc)
    assert est.exact and est.value == 7.0


def test_op_norm_mixed_l1_linf_enumeration():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 2))
    A = FormTensor(a, (SpaceSpec.lp(3, 1), SpaceSpec.linf(2)))
    est = op_norm(A)
    assert est.exact
    # dual computation: sup over rows of l1 norm
    want = max(np.abs(a).sum(axis=1))
    assert est.value == pytest.approx(want, abs=1e-14)


def test_op_norm_budget():
    # 24 * 2^23 sign patterns are over the enumeration budget: the fallback
    # is the alternating lower bound, here the exact 24 * 24
    A = FormTensor.on_linf(np.ones((24, 24)))
    est = op_norm(A)
    assert not est.exact
    assert est.value == pytest.approx(576.0, rel=1e-9)


def test_op_norm_general_domain_heuristic():
    # scalar product on l2 x l2 has norm 1 (Cauchy-Schwarz): the spectral norm
    A = FormTensor(np.eye(3), (SpaceSpec.lp(3, 2), SpaceSpec.lp(3, 2)))
    est = op_norm(A)
    assert est.exact
    assert est.value == pytest.approx(1.0, rel=1e-9)
    # the all-ones form on l3 x l3 has norm ||1||_(3/2)^2 = 3^(4/3): the ascent
    A = FormTensor(np.ones((3, 3)), (SpaceSpec.lp(3, 3), SpaceSpec.lp(3, 3)))
    est = op_norm(A)
    assert not est.exact
    assert est.value == pytest.approx(3 ** (4 / 3), rel=1e-9)


def test_compose_examples():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(compose_beta(np.eye(2), a), a)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(compose_beta(swap, a), a[::-1])
    out = compose_beta([[1.0, 1.0], [0.0, 1.0]], np.eye(2))
    assert np.array_equal(out, [[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        compose_beta(np.ones((2, 3)), np.ones((2, 2)))


def test_compose_refuses_a_non_matrix():
    with pytest.raises(ValueError, match="two matrices"):
        compose_beta(np.ones(2), np.eye(2))
    with pytest.raises(ValueError, match="two matrices"):
        compose_beta(np.eye(2), np.ones((2, 2, 2)))


def test_curry_roundtrip_and_composition():
    rng = np.random.default_rng(11)
    A = FormTensor.on_linf(rng.standard_normal((2, 3, 2)))
    for k in (1, 2):
        cur = curry(A, k)
        xs = [rng.standard_normal(m) for m in A.dims]
        tail = cur.apply(xs[:k])
        assert evaluate(tail, xs[k:]) == pytest.approx(evaluate(A, xs), abs=1e-12)
        assert cur.uncurry() is A


def test_curry_identity_head():
    A = FormTensor.on_linf(np.eye(2))
    tail = curry(A, 1).apply([np.array([1.0, 0.0])])
    # A_1(e_1) is the coordinate functional y -> y_1
    assert np.array_equal(tail.coeffs, [1.0, 0.0])


def test_curry_littlewood_tail_norm(littlewood):
    tail = curry(littlewood, 1).apply([np.array([0.0, 1.0])])
    est = op_norm(tail)
    assert est.exact and est.value == 2.0


def test_curry_range_errors(littlewood):
    for k in (0, 2, 5):
        with pytest.raises(ValueError):
            curry(littlewood, k)


def test_form_tensor_validation():
    with pytest.raises(ValueError):
        FormTensor(np.ones((2, 3)), (SpaceSpec.linf(2), SpaceSpec.linf(2)))
    with pytest.raises(ValueError):
        FormTensor(np.array([[1.0, np.inf], [0, 0]]),
                   (SpaceSpec.linf(2), SpaceSpec.linf(2)))
    with pytest.raises(ValueError):
        FormTensor(np.eye(2) + 1j, (SpaceSpec.linf(2), SpaceSpec.linf(2)),
                   ScalarField.REAL)


def test_form_json_roundtrip(littlewood_complex):
    data = littlewood_complex.to_json()
    assert data["coeffs"][0] == [1.0, 0.0]
    back = FormTensor.from_json(data)
    assert back.field is ScalarField.COMPLEX
    assert np.array_equal(back.coeffs, littlewood_complex.coeffs)
    assert back.domains == littlewood_complex.domains

    A = FormTensor(np.ones((2, 2)), (SpaceSpec.lp(2, "4/3"), SpaceSpec.linf(2)))
    back = FormTensor.from_json(A.to_json())
    assert back.domains == A.domains


def test_form_json_schema_errors():
    with pytest.raises((KeyError, ValueError)):
        FormTensor.from_json({"field": "real", "dims": [2, 2], "coeffs": [1, 2, 3]})
    with pytest.raises(ValueError):
        FormTensor.from_json(
            {"field": "real", "dims": [2], "domain_exponents": ["inf", "inf"],
             "coeffs": [1, 2]}
        )


def test_complex_polar_matches_the_guarded_division_bit_for_bit():
    # u = a/|a| off the zeros and 1 on them, as a guarded division gives it
    rng = np.random.default_rng(51)
    a = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    a[0, :] = 0
    a[1, 2] = 0j
    a[2, 3] = complex(0.0, -0.0)
    mag, phase = forms._polar(a)
    safe = np.where(mag == 0, 1.0, mag)
    want = np.where(mag == 0, 1.0 + 0j, a / safe)
    assert np.array_equal(mag, np.abs(a))
    assert phase.dtype == want.dtype
    assert np.array_equal(phase.view(np.float64), want.view(np.float64))
    assert np.all(phase[0] == 1.0)


def _masked_polar(a):
    """The masked rule of forms._polar: a / |a| where |a| > 2^-1024, the
    phase of 2^600 a at the other nonzero entries, 1 at the zeros."""
    mag = np.abs(a)
    u = np.ones_like(a)
    large = mag > forms._PHASE_LOW
    np.divide(a, mag, out=u, where=large)
    small = (mag != 0) & ~large
    scaled = np.ldexp(a.real[small], 600) + 1j * np.ldexp(a.imag[small], 600)
    u[small] = scaled / np.abs(scaled)
    return mag, u


@pytest.mark.parametrize("case", ["zeros", "subnormal", "negative zero reals", "no zeros"])
def test_complex_polar_gives_the_bits_of_the_masked_rule(case):
    # the fast paths (no zeros, or zeros divided by 1 and set to 1) and the
    # masked one agree bit for bit
    rng = np.random.default_rng(52)
    a = rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6))
    if case != "no zeros":
        a[0, :3] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
        a[4, 4] = complex(-0.0, -0.0)
    if case == "subnormal":
        a[2, 1], a[3, 5] = 1e-320, complex(-2e-320, 3e-321)
    if case == "negative zero reals":
        a[1, :] = -0.0 + 1j * rng.standard_normal(6)
    mag, phase = forms._polar(a)
    want_mag, want = _masked_polar(a)
    assert np.array_equal(mag, want_mag)
    assert phase.dtype == want.dtype
    assert np.array_equal(phase.view(np.float64), want.view(np.float64))
