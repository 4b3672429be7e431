"""Numerical verification of summability inequalities for multilinear forms.

Exact brute-force oracles at tiny sizes (sign and basis enumeration, full
Rademacher averaging), optimization-based estimators otherwise, and a batch
CLI that emits machine-readable reports.
"""

from .spaces import (
    Exponent,
    ExponentTuple,
    INF,
    ScalarField,
    SpaceSpec,
    dual_exponent,
    interpolation_exponents,
)
from .norms import NormEstimate, VectorSeq, lp_norm, mixed_norm, weak_lp_norm
from .forms import CurriedForm, FormTensor, compose_beta, curry, evaluate, op_norm
from .rademacher import (
    ContractionCheck,
    SignPattern,
    contraction_check,
    kahane_ratio,
    rad_p_norm,
    rademacher_average,
)
from .summing import (
    LiftResult,
    RatioCertificate,
    TestFamily,
    VerificationReport,
    coincidence_region,
    factor_sequence,
    lift_family,
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

__version__ = "0.1.0"
