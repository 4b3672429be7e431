"""Built-in worked examples run as a smoke suite by the ``demos`` command.

Every entry checks a value that can be derived by hand or by an independent
brute-force oracle (sign enumeration, phase grids, exhaustive averaging).
"""

from __future__ import annotations

import math

import numpy as np

from .forms import FormTensor, compose_beta, curry, evaluate, op_norm
from .norms import VectorSeq, lp_norm, mixed_norm, weak_lp_norm
from .rademacher import contraction_check, kahane_ratio, rad_p_norm
from .spaces import ExponentTuple, ScalarField, SpaceSpec, interpolation_exponents
from .summing import (
    TestFamily,
    coincidence_region,
    factor_sequence,
    lift_family,
    random_family_search,
    summing_lower_bound,
    tensor_weak_norm_estimate,
    verify_almost_summing,
    verify_bh,
    verify_defant_voigt,
    verify_extended_littlewood,
    verify_general_littlewood,
    verify_littlewood_43,
)

SQRT2 = math.sqrt(2.0)


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _littlewood(field=ScalarField.REAL) -> FormTensor:
    return FormTensor.on_linf([[1.0, 1.0], [1.0, -1.0]], field)


def _basis_family(n=2, dim=2) -> TestFamily:
    space = SpaceSpec.linf(dim)
    return TestFamily(tuple(VectorSeq(np.eye(dim), space) for _ in range(n)))


def _phase_grid_opnorm_2x2(a: np.ndarray, resolution=1e-3) -> float:
    """Oracle for complex 2x2 sup-norm forms: one slot closed form, the other
    swept over unimodular vectors (1, e^{i phi}) on a phase grid."""
    phis = np.arange(0.0, 2.0 * math.pi, resolution)
    y = np.stack([np.ones_like(phis), np.exp(1j * phis)])
    rows = np.abs(a @ y)
    return float(rows.sum(axis=0).max())


def demo_interpolation():
    p, q = interpolation_exponents(0.5)
    ok = str(p) == "4/3" and str(q) == "4/3"
    return ok, f"theta=1/2 gives p={p}, q={q}"


def demo_mixed_norm():
    val = mixed_norm([[1.0, 2.0], [3.0, 4.0]], 1, 2)
    want = math.sqrt(10.0) + 2.0 * math.sqrt(5.0)
    return _close(val, want, 1e-12), f"mixed l1(l2) = {val:.12f}"


def demo_weak_sup():
    seq = VectorSeq([[1.0, 0.0], [1.0, 0.0]], SpaceSpec.linf(2))
    est = weak_lp_norm(seq, 2)
    return _close(est.value, SQRT2, 1e-12) and est.exact, f"weak l2 = {est.value:.12f}"


def demo_weak_l1():
    seq = VectorSeq(np.eye(2), SpaceSpec.lp(2, 1))
    est = weak_lp_norm(seq, 1)
    return _close(est.value, 2.0, 1e-12) and est.exact, f"weak l1 = {est.value}"


def demo_evaluate():
    val = evaluate(_littlewood(), [[1.0, 1.0], [1.0, 0.0]])
    return _close(val, 2.0, 1e-12), f"value = {val}"


def demo_opnorm_real():
    est = op_norm(_littlewood())
    return est.exact and _close(est.value, 2.0, 1e-12), f"norm = {est.value} (exact)"


def demo_opnorm_complex():
    A = _littlewood(ScalarField.COMPLEX)
    est = op_norm(A)
    oracle = _phase_grid_opnorm_2x2(A.coeffs)
    ok = _close(est.value, 2.0 * SQRT2, 1e-6) and _close(oracle, 2.0 * SQRT2, 1e-5)
    return ok, f"ascent = {est.value:.9f}, phase grid = {oracle:.9f}"


def demo_opnorm_ones():
    est = op_norm(FormTensor.on_linf(np.ones((2, 2))))
    return est.exact and _close(est.value, 4.0, 1e-12), f"norm = {est.value}"


def demo_compose():
    out = compose_beta([[1.0, 1.0], [0.0, 1.0]], np.eye(2))
    ok = np.allclose(out, [[1.0, 1.0], [0.0, 1.0]])
    return ok, "identity composition reproduces beta"


def demo_curry():
    tail = curry(_littlewood(), 1).apply([np.array([0.0, 1.0])])
    est = op_norm(tail)
    return _close(est.value, 2.0, 1e-12), f"tail norm = {est.value}"


def demo_rad_sup():
    val = rad_p_norm(VectorSeq(np.eye(2), SpaceSpec.linf(2)), 2)
    return _close(val, 1.0, 1e-12), f"Rad_2 = {val}"


def demo_rad_l2():
    val = rad_p_norm(VectorSeq(np.eye(2), SpaceSpec.lp(2, 2)), 2)
    return _close(val, SQRT2, 1e-12), f"Rad_2 = {val:.12f}"


def demo_contraction():
    res = contraction_check(VectorSeq([[1.0], [1.0]], SpaceSpec.linf(1)), [1.0, 0.0], 2)
    ok = res.passed and _close(res.scaled, 1.0, 1e-12) and _close(res.unscaled, SQRT2, 1e-12)
    return ok, f"{res.scaled} <= {res.unscaled:.12f}"


def demo_kahane():
    val = kahane_ratio(VectorSeq([[1.0], [1.0]], SpaceSpec.linf(1)), 2, 1)
    return _close(val, SQRT2, 1e-12), f"Rad_2 / Rad_1 = {val:.12f}"


def demo_ratio_littlewood():
    cert = summing_lower_bound(_littlewood(), ExponentTuple(1, (2, 2)), _basis_family())
    return _close(cert.ratio, 2.0, 1e-12) and cert.exact, f"ratio = {cert.ratio}"


def demo_ratio_identity():
    cert = summing_lower_bound(
        FormTensor.on_linf(np.eye(2)), ExponentTuple(1, (1, 1)), _basis_family()
    )
    return _close(cert.ratio, 2.0, 1e-12), f"ratio = {cert.ratio} = op norm"


def demo_search_littlewood():
    best = random_family_search(_littlewood(), ExponentTuple(1, (2, 2)), budget=32, seed=0)
    return best.ratio >= 2.0 - 1e-12, f"best ratio = {best.ratio}"


def demo_search_identity3():
    best = random_family_search(
        FormTensor.on_linf(np.eye(3)), ExponentTuple(1, (1, 1)), budget=32, seed=0
    )
    return best.ratio >= 3.0 - 1e-12, f"best ratio = {best.ratio}"


def demo_factor_flat():
    f1, f2 = factor_sequence([1.0, 1.0], 1, [2, 2])
    norms = lp_norm(f1, 2) * lp_norm(f2, 2)
    ok = np.allclose(f1, [1, 1]) and np.allclose(f2, [1, 1]) and _close(norms, 2.0, 1e-12)
    return ok, f"norm product = {norms}"


def demo_factor_spike():
    f1, f2 = factor_sequence([4.0, 0.0], 1, [2, 2])
    ok = np.allclose(f1, [2, 0]) and np.allclose(f2, [2, 0])
    return ok, f"factors = {f1.tolist()}, {f2.tolist()}"


def demo_lift():
    res = lift_family(
        FormTensor.on_linf(np.eye(2)),
        _basis_family(),
        ExponentTuple(2, (2, 2)),
        ExponentTuple(1, (2, 2)),
    )
    ok = (
        _close(res.derived.lhs, SQRT2, 1e-12)
        and res.monotone
        and res.derived.ratio >= res.source.ratio - 1e-10
    )
    return ok, (
        f"lhs after lift = {res.derived.lhs:.12f}, ratios {res.source.ratio:.6f}"
        f" -> {res.derived.ratio:.6f}"
    )


def demo_verify_littlewood_extremal():
    rep = verify_littlewood_43(_littlewood())
    return (
        rep.status == "pass" and _close(rep.ratio, SQRT2, 1e-12),
        f"ratio = {rep.ratio:.12f} (= sqrt 2, equality)",
    )


def demo_verify_littlewood_ones():
    rep = verify_littlewood_43(FormTensor.on_linf(np.ones((2, 2))))
    want = 4.0 ** 0.75 / 4.0
    return rep.status == "pass" and _close(rep.ratio, want, 1e-12), f"ratio = {rep.ratio:.6f}"


def demo_verify_littlewood_identity():
    rep = verify_littlewood_43(FormTensor.on_linf(np.eye(2)))
    want = 2.0 ** 0.75 / 2.0
    return rep.status == "pass" and _close(rep.ratio, want, 1e-12), f"ratio = {rep.ratio:.6f}"


def demo_extended_43():
    rep = verify_extended_littlewood(_littlewood(ScalarField.COMPLEX), np.eye(2), "4/3")
    return rep.status == "pass" and rep.ratio <= rep.bound, (
        f"p=4/3 identity beta: ratio = {rep.ratio:.9f} <= {rep.bound}"
    )


def demo_extended_p1():
    rep = verify_extended_littlewood(_littlewood(ScalarField.COMPLEX), np.eye(2), 1)
    ok = rep.status == "pass" and _close(rep.lhs, 2 * SQRT2, 1e-6) and _close(rep.rhs, 3.9737, 1e-3)
    return ok, f"lhs = {rep.lhs:.9f}, rhs = {rep.rhs:.9f}"


def demo_general_littlewood():
    rep = verify_general_littlewood(_littlewood())
    ok = rep.status == "pass" and _close(rep.lhs, 2 * SQRT2, 1e-12) and _close(rep.ratio, SQRT2, 1e-12)
    return ok, f"lhs = {rep.lhs:.9f} <= {rep.rhs:.9f}"


def demo_bh_ones():
    rep = verify_bh(FormTensor.on_linf(np.ones((2, 2, 2))))
    return _close(rep.ratio, 0.5, 1e-9), f"ratio = {rep.ratio:.9f}"


def demo_bh_diagonal():
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = coeffs[1, 1, 1] = 1.0
    rep = verify_bh(FormTensor.on_linf(coeffs))
    want = 2.0 ** (-1.0 / 3.0)
    return _close(rep.ratio, want, 1e-9), f"ratio = {rep.ratio:.9f} = 2^(-1/3)"


def demo_dv_equality():
    rep = verify_defant_voigt(_littlewood(), _basis_family())
    return rep.status == "pass" and _close(rep.lhs, rep.rhs, 1e-12), (
        f"{rep.lhs} = {rep.rhs} (equality witness)"
    )


def demo_almost():
    cert = verify_almost_summing(FormTensor.on_linf(np.eye(2)), _basis_family())
    return _close(cert.ratio, SQRT2, 1e-12), f"ratio = {cert.ratio:.12f}"


def demo_almost_curried():
    head = TestFamily((VectorSeq(np.eye(2), SpaceSpec.linf(2)),))
    cert = verify_almost_summing(_littlewood(), head, k=1)
    return _close(cert.ratio, 2.0, 1e-12), f"curried ratio = {cert.ratio}"


def demo_tensor_single():
    e1 = np.array([1.0, 0.0])
    est = tensor_weak_norm_estimate(
        VectorSeq(e1, SpaceSpec.linf(2)), VectorSeq(e1, SpaceSpec.linf(2)), 1
    )
    return est.exact and _close(est.value, 1.0, 1e-12), f"weak l1 = {est.value}, exact = {est.exact}"


def demo_tensor_basis_l1():
    space = SpaceSpec.lp(2, 1)
    est = tensor_weak_norm_estimate(
        VectorSeq(np.eye(2), space), VectorSeq(np.eye(2), space), 1
    )
    return est.exact and _close(est.value, 2.0, 1e-12), (
        f"weak l1 = {est.value}, exact = {est.exact} (a sign sum of e_j (x) e_j)"
    )


def demo_dv2_region():
    inside = coincidence_region("dv2", 2, p=1, qs=[1, 1])
    outside = coincidence_region("dv2", 2, p=1, qs=[2, 2])
    return inside and not outside, "(1;1,1) admissible, (1;2,2) not by this rule"


def demo_inclusion_region():
    ok1 = coincidence_region("inclusion", 2, source=(1, (2, 2)), target=(2, (2, 2)))
    ok2 = not coincidence_region("inclusion", 2, source=(2, (2, 2)), target=(1, (2, 2)))
    return ok1 and ok2, "defect comparison orients the embedding"


DEMOS = [
    ("interpolation theta=1/2", demo_interpolation),
    ("mixed norm l1(l2)", demo_mixed_norm),
    ("weak l2 on sup-norm space", demo_weak_sup),
    ("weak l1 on real l1 space", demo_weak_l1),
    ("bilinear evaluation", demo_evaluate),
    ("op norm, extremal sign form", demo_opnorm_real),
    ("op norm, complex vs phase grid", demo_opnorm_complex),
    ("op norm, all-ones form", demo_opnorm_ones),
    ("matrix composition", demo_compose),
    ("curried tail norm", demo_curry),
    ("Rad_2 basis in sup norm", demo_rad_sup),
    ("Rad_2 basis in l2", demo_rad_l2),
    ("contraction principle", demo_contraction),
    ("Kahane ratio", demo_kahane),
    ("ratio certificate (1;2,2)", demo_ratio_littlewood),
    ("ratio certificate (1;1,1)", demo_ratio_identity),
    ("family search, sign form", demo_search_littlewood),
    ("family search, identity 3x3", demo_search_identity3),
    ("factor sequence, flat", demo_factor_flat),
    ("factor sequence, spike", demo_factor_spike),
    ("certificate lift", demo_lift),
    ("4/3 inequality at equality", demo_verify_littlewood_extremal),
    ("4/3 inequality, all-ones", demo_verify_littlewood_ones),
    ("4/3 inequality, identity", demo_verify_littlewood_identity),
    ("extended inequality, p=4/3", demo_extended_43),
    ("extended inequality, p=1", demo_extended_p1),
    ("general inequality, real", demo_general_littlewood),
    ("higher-order ratio, all-ones", demo_bh_ones),
    ("higher-order ratio, diagonal", demo_bh_diagonal),
    ("product bound at equality", demo_dv_equality),
    ("almost-summing ratio", demo_almost),
    ("almost-summing, curried", demo_almost_curried),
    ("tensor weak norm, single pair", demo_tensor_single),
    ("tensor weak norm, l1 basis pairs", demo_tensor_basis_l1),
    ("coincidence arithmetic, product rule", demo_dv2_region),
    ("coincidence arithmetic, embedding", demo_inclusion_region),
]


def run_demos(stream=None) -> int:
    """Run every demo, print one line each, return the number of failures."""
    import sys

    out = stream or sys.stdout
    failures = 0
    for name, fn in DEMOS:
        try:
            ok, detail = fn()
        except Exception as exc:  # demo must not take the suite down
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} {name}: {detail}", file=out)
        failures += 0 if ok else 1
    print(f"{len(DEMOS) - failures}/{len(DEMOS)} demos passed", file=out)
    return failures
