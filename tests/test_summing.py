import math
from fractions import Fraction

import numpy as np
import pytest

from summability import (
    Exponent,
    ExponentTuple,
    FormTensor,
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
)
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
    # a length-1 random family wins; budget 37 splits unevenly over the streams
    A = random_form(np.random.default_rng(1), (2, 2, 2), ScalarField.COMPLEX)
    cert = random_family_search(A, ExponentTuple(2, (2, 2, 2)), budget=37, seed=9)
    assert cert.ratio.hex() == "0x1.09e445d5a8969p+1"
    assert cert.family.length == 1


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


def test_factor_identity_violation():
    with pytest.raises(ValueError):
        factor_sequence([1.0], 1, [2, 3])


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
    assert rep.status == "pass" and rep.rhs == pytest.approx(1.78221 * 4)
    rep = verify_general_littlewood(FormTensor.on_linf(np.eye(2)))
    assert rep.lhs == pytest.approx(2.0, abs=1e-14)


def test_extended_littlewood_identity_beta(littlewood_complex):
    rep = verify_extended_littlewood(littlewood_complex, np.eye(2), "4/3")
    assert rep.status == "pass"
    assert rep.q == "4/3"
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)  # equality case

    rep = verify_extended_littlewood(littlewood_complex, np.eye(2), 1)
    assert rep.q == "2"
    assert rep.lhs == pytest.approx(2 * SQRT2, abs=1e-12)
    assert rep.rhs == pytest.approx(1.40491 * 2 * SQRT2, abs=1e-6)


def test_extended_littlewood_zero_beta(littlewood_complex):
    rep = verify_extended_littlewood(littlewood_complex, np.zeros((2, 2)), "3/2")
    assert rep.lhs == 0.0 and rep.status == "pass"


def test_extended_littlewood_p_range(littlewood_complex):
    for bad in ("1/2", 3):
        with pytest.raises(ValueError):
            verify_extended_littlewood(littlewood_complex, np.eye(2), bad)


def test_extended_littlewood_real_gate(littlewood):
    with pytest.raises(ValueError):
        verify_extended_littlewood(littlewood, np.eye(2), "4/3")
    rep = verify_extended_littlewood(littlewood, np.eye(2), "4/3",
                                     allow_real_experimental=True)
    assert rep.status == "inconclusive"


def test_bh_examples():
    rep = verify_bh(FormTensor.on_linf(np.ones((2, 2, 2))))
    assert rep.p == "3/2"
    assert rep.ratio == pytest.approx(0.5, rel=1e-9)
    assert rep.status == "pass" and rep.bound is None

    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = diag[1, 1, 1] = 1.0
    rep = verify_bh(FormTensor.on_linf(diag))
    assert rep.ratio == pytest.approx(2 ** (-1 / 3), rel=1e-9)


def test_bh_order_two_matches_littlewood_exponent(littlewood):
    rep = verify_bh(littlewood)
    assert rep.p == "4/3"
    assert rep.bound == pytest.approx(SQRT2)
    assert rep.ratio == pytest.approx(SQRT2, abs=1e-12)
    assert rep.status == "pass"


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
    space = SpaceSpec.linf(2)
    fam = TestFamily(tuple(
        VectorSeq(np.ones((30, 2)), space) for _ in range(2)
    ))
    with pytest.raises(ValueError):
        verify_defant_voigt(littlewood, fam, rad_budget=1 << 10)


def test_dv_refuses_linear_forms():
    # e_1* on four copies of e_1: 4 on the left, Rad_2 = 2 on the right
    space = SpaceSpec.linf(2)
    fam = TestFamily((VectorSeq(np.tile([1.0, 0.0], (4, 1)), space),))
    with pytest.raises(ValueError, match="order at least 2"):
        verify_defant_voigt(FormTensor.on_linf([1.0, 0.0]), fam)


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


def test_almost_summing_head_mismatch(littlewood, diag_family):
    with pytest.raises(ValueError):
        verify_almost_summing(littlewood, diag_family, k=1)


# ---------------------------------------------------------------------------
# tensor weak norm


def test_tensor_weak_single_pair():
    e1 = np.array([1.0, 0.0])
    lo, heur = tensor_weak_norm_estimate(
        VectorSeq(e1, SpaceSpec.linf(2)), VectorSeq(e1, SpaceSpec.linf(2)), 1
    )
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert heur >= lo - 1e-12


def test_tensor_weak_zero():
    z = VectorSeq(np.zeros((2, 2)), SpaceSpec.linf(2))
    lo, heur = tensor_weak_norm_estimate(z, z, 1)
    assert lo == 0.0 and heur == 0.0


def test_tensor_weak_l1_basis_pairs():
    space = SpaceSpec.lp(2, 1)
    seq = VectorSeq(np.eye(2), space)
    lo, heur = tensor_weak_norm_estimate(seq, seq, 1)
    assert lo >= 2.0 - 1e-12
    assert heur >= lo - 1e-12


def test_tensor_weak_budget():
    seq = VectorSeq(np.zeros((1, 9)), SpaceSpec.linf(9))
    with pytest.raises(ValueError):
        tensor_weak_norm_estimate(seq, seq, 1, budget=64)


# ---------------------------------------------------------------------------
# coincidence arithmetic


def test_coincidence_examples():
    assert coincidence_region("dv2", 2, p=1, qs=[1, 1])
    assert not coincidence_region("dv2", 2, p=1, qs=[2, 2])
    assert coincidence_region(
        "inclusion", 2, source=(1, (2, 2)), target=(2, (2, 2))
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
