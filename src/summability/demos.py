"""The claims table of the ``demos`` command: each sharp constant behind the
4/3 inequality and its relatives, measured at the input that attains it.

"=" is the only relation a row states. A row of an exact value passes when
the value is exact and lies within ``margin_ulps`` ulps of its target. A row
of a heuristic lower bound, one with ``margin_rel > 0``, needs no exact flag:
it passes when its value lies in [target·(1 − margin_rel), target +
``margin_ulps`` ulps]. The relative margin bounds how far the alternating
maximizer may stop short of the maximum; the ulps bound its overshoot by
rounding.

The rows and their sources:

- real 4/3 (BH n = 2) ratio = √2 at T_2: Littlewood 1930;
- real BH n = 3, 4, 5 ratios = 2^(1 − 1/n) at T_3, T_4, T_5: Diniz,
  Muñoz-Fernández, Pellegrino, Seoane-Sepúlveda, Proc. AMS 2014;
- real mixed (l_1, l_2) ratio = √2 at T_2: Szarek 1976;
- Kahane Rad_2 / Rad_1 = √2 at the scalars (1, 1): Latała–Oleszkiewicz 1994;
- (1; 2, 2) ratio over the norm of the diagonal form with the basis family,
  1 on l_inf^4 (the paper) and 4 on l_2^4 (by hand);
- curried almost-summing ratio of T_2 = 2: the paper;
- Defant–Voigt lhs / rhs = 1 at T_2: Defant–Voigt;
- ||F_m|| = m^(3/2) for the m x m DFT matrix F_m on complex
  l_inf^m x l_inf^m, m = 3, 5 (grid plans) and 6, 7 (random starts), the
  heuristic rows: Cauchy–Schwarz and Parseval give
  sum_k |(F y)_k| <= sqrt(m)·||F y||_2 = m·||y||_2 <= m^(3/2), and the
  Zadoff–Chu vector (Chu 1972), y_k = exp(i pi k^2 / m) for even m and
  exp(i pi k (k + 1) / m) for odd m, attains it, as |F y| is flat.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .forms import FormTensor, op_norm
from .norms import VectorSeq
from .rademacher import kahane_ratio
from .spaces import ExponentTuple, ScalarField, SpaceSpec
from .summing import (
    RatioCertificate,
    TestFamily,
    VerificationReport,
    summing_lower_bound,
    verify_almost_summing,
    verify_bh,
    verify_defant_voigt,
    verify_general_littlewood,
    verify_littlewood_43,
)

SQRT2 = math.sqrt(2.0)
_T2 = np.array([[1.0, 1.0], [1.0, -1.0]])


def _t(n: int) -> FormTensor:
    """T_n on sup-norm slots: T_2 = [[1, 1], [1, -1]], and T_n is
    (w_1 + w_2)·T_(n-1) on the first halves of its first two slots plus
    (w_1 - w_2)·T_(n-1) on the second halves, w its new last slot of dim 2."""
    c = _T2
    for _ in range(n - 2):
        d = len(c)
        out = np.zeros((2 * d, 2 * d, *c.shape[2:], 2))
        out[:d, :d], out[d:, d:] = c[..., None] * _T2[0], c[..., None] * _T2[1]
        c = out
    return FormTensor.on_linf(c)


def _dft(m: int) -> FormTensor:
    """F_m = (exp(-2 pi i jk / m))_(j, k) on complex l_inf^m x l_inf^m."""
    k = np.arange(m)
    return FormTensor.on_linf(np.exp(-2j * np.pi * np.outer(k, k) / m), ScalarField.COMPLEX)


def _norm(A: FormTensor) -> tuple[float, bool]:
    norm = op_norm(A)
    return norm.value, norm.exact


def _basis(space: SpaceSpec, n: int = 2) -> TestFamily:
    """The unit vector basis of ``space`` in each of ``n`` slots."""
    return TestFamily((VectorSeq(np.eye(space.dim), space),) * n)


def _normalized(space: SpaceSpec) -> tuple[float, bool]:
    """The (1; 2, 2) ratio of the diagonal form on ``space`` x ``space`` with
    the basis family, over the form's norm."""
    A = FormTensor(np.eye(space.dim), (space, space))
    cert = summing_lower_bound(A, ExponentTuple(1, (2, 2)), _basis(space))
    norm = op_norm(A)
    return cert.ratio / norm.value, cert.exact and norm.exact


def _verified(rep: VerificationReport) -> tuple[float, bool]:
    return rep.ratio, rep.exact_norm


def _certified(cert: RatioCertificate) -> tuple[float, bool]:
    return cert.ratio, cert.exact


class Claim(NamedTuple):
    claim: str
    source: str
    input: str
    measure: Callable[[], tuple[float, bool]]  # the value and its exact flag
    target: float
    margin_ulps: int
    margin_rel: float = 0.0  # > 0 on a heuristic lower bound, which needs no exact flag


_DMPS = "Diniz, Muñoz-Fernández, Pellegrino, Seoane-Sepúlveda, Proc. AMS 2014"

CLAIMS = [
    Claim("real 4/3 (BH n = 2) ratio = sqrt 2, the optimal constant",
          "Littlewood 1930", "T_2 (2, 2)",
          lambda: _verified(verify_littlewood_43(_t(2))), SQRT2, 0),
    # 2^(2/3) rounded to nearest; 2 ** (2 / 3) is 1 ulp below, as 2 / 3 rounds down
    Claim("real BH n = 3 ratio = 2^(2/3), the published lower bound",
          _DMPS, "T_3 (4, 4, 2)",
          lambda: _verified(verify_bh(_t(3))), float(np.cbrt(4.0)), 1),
    Claim("real BH n = 4 ratio = 2^(3/4), the published lower bound",
          _DMPS, "T_4 (8, 8, 2, 2)",
          lambda: _verified(verify_bh(_t(4))), 2 ** 0.75, 0),
    # 2 ** 0.8 is 2^(4/5) rounded to nearest, 1 ulp above the ratio
    Claim("real BH n = 5 ratio = 2^(4/5), the published lower bound",
          _DMPS, "T_5 (16, 16, 2, 2, 2)",
          lambda: _verified(verify_bh(_t(5))), 2 ** 0.8, 1),
    Claim("real mixed (l_1, l_2) ratio = sqrt 2 = 1/A_1, the optimal constant",
          "Szarek 1976", "T_2 (2, 2)",
          lambda: _verified(verify_general_littlewood(_t(2))), SQRT2, 0),
    # both averages enumerate every sign pattern, so the ratio is exact
    Claim("Kahane Rad_2 / Rad_1 = sqrt 2, the optimal constant",
          "Latała–Oleszkiewicz 1994", "scalars (1, 1)",
          lambda: (kahane_ratio(VectorSeq([[1.0], [1.0]], SpaceSpec.linf(1)), 2, 1), True),
          SQRT2, 0),
    Claim("(1; 2, 2) ratio over the norm = 1: forms on C(K)-type spaces are "
          "(1; 2, ..., 2)-summing",
          "the paper", "diagonal form, l_inf^4, basis family",
          lambda: _normalized(SpaceSpec.linf(4)), 1.0, 0),
    Claim("(1; 2, 2) ratio over the norm = m on l_2^m: forms on l_2 are not "
          "uniformly (1; 2, 2)-summing",
          "by hand", "diagonal form, l_2^4, basis family",
          lambda: _normalized(SpaceSpec.lp(4, 2)), 4.0, 0),
    Claim("curried almost-summing ratio = 2 = ||T_2||",
          "the paper", "T_2 (2, 2), curried after slot 1, basis head",
          lambda: _certified(verify_almost_summing(_t(2), _basis(SpaceSpec.linf(2), 1), k=1)),
          2.0, 0),
    Claim("Defant–Voigt product bound lhs / rhs = 1, its equality case",
          "Defant–Voigt", "T_2 (2, 2), basis family",
          lambda: _verified(verify_defant_voigt(_t(2), _basis(SpaceSpec.linf(2)))), 1.0, 0),
] + [
    # The ascent's value is a lower bound: it may stop short of the maximum, by
    # at most 2e-11 relative, the bound its stop rule was accepted with; F_3,
    # F_5, F_6 and F_7 read 190, 2037, 2385 and 8515 ulps below m^(3/2). It may
    # overshoot by rounding, as its phases have norms of 1 plus rounding: the
    # rank-one input of that defect (ROADMAP known defects) still reads above
    # its closed form, on 367 of 400 forms by up to 1.08e-15 relative, hence
    # the 4 ulps above.
    Claim(f"||F_{m}|| = {m}^(3/2) on complex l_inf^{m} x l_inf^{m}",
          "Cauchy–Schwarz and Parseval (<=); the Zadoff–Chu vector, Chu 1972 (=)",
          f"F_{m}, the {m} x {m} DFT matrix, {plan}",
          lambda m=m: _norm(_dft(m)), m ** 1.5, 4, 2e-11)
    for m, plan in [(3, "grid plan"), (5, "grid plan"), (6, "random starts"),
                    (7, "random starts")]
]


def evaluate_claims() -> list[dict]:
    """Each row of ``CLAIMS`` measured: its value and exact flag, and
    ``pass`` when the value meets the row's margins (see the module)."""
    rows = []
    for c in CLAIMS:
        value, exact = c.measure()
        slack = c.margin_ulps * math.ulp(c.target)
        if c.margin_rel:
            met = c.target * (1 - c.margin_rel) <= value <= c.target + slack
        else:
            met = exact and abs(value - c.target) <= slack
        rows.append({"claim": c.claim, "source": c.source, "input": c.input,
                     "value": value, "exact": exact, "target": c.target,
                     "margin_ulps": c.margin_ulps, "margin_rel": c.margin_rel,
                     "status": "pass" if met else "fail"})
    return rows
