"""The public option surface, pinned.

Every callable the package exports (the ``__all__`` of its five modules;
``ScalarField`` is an Enum and is left out) is listed with the names of its
parameters that have defaults. An option earns its place when two callers
outside the tests need different values; anything else is a constant. Adding
an option means adding it here and saying in CHANGES.md which callers set it.
"""

import inspect

import summability
from summability import forms, norms, rademacher, spaces, summing

OPTIONS = {
    "ConstantsConfig": ["kg_real", "kg_complex"],
    "ContractionCheck": [],
    "CurriedForm": [],
    "Exponent": [],
    "ExponentTuple": [],
    "FormTensor": ["field"],
    "LiftResult": [],
    "NormEstimate": ["witness"],
    "RatioCertificate": ["lhs_exact"],
    "SignPattern": [],
    "SpaceSpec": [],
    "TestFamily": [],
    "VectorSeq": [],
    "VerificationReport": ["witness"],
    "coincidence_region": ["p", "q", "qs", "k", "r", "source", "target"],
    "compose_beta": [],
    "contraction_check": [],
    "curry": [],
    "dual_exponent": [],
    "evaluate": [],
    "factor_sequence": [],
    "interpolation_exponents": [],
    "kahane_ratio": [],
    "lift_family": [],
    "lp_norm": [],
    "mixed_norm": [],
    "op_norm": ["starts", "seed"],
    "rad_p_norm": ["p", "mode", "samples", "seed"],
    "rademacher_average": ["mode", "samples", "seed"],
    "random_family_search": ["budget", "seed", "j_max"],
    "random_form": ["field", "exponents"],
    "summing_experiment": ["m", "count", "budget", "seed", "j_max", "field"],
    "summing_lower_bound": [],
    "tensor_weak_norm_estimate": [],
    "verify_almost_summing": ["k"],
    "verify_bh": ["constants", "opn"],
    "verify_defant_voigt": ["opn"],
    "verify_extended_littlewood": ["constants", "opn"],
    "verify_general_littlewood": ["constants", "opn"],
    "verify_littlewood_43": ["constants", "opn"],
    "weak_lp_norm": ["starts", "seed"],
}


def _options():
    found = {}
    for module in (spaces, norms, forms, rademacher, summing):
        for name in module.__all__:
            obj = getattr(module, name)
            if name == "ScalarField" or not (inspect.isclass(obj)
                                             or inspect.isfunction(obj)):
                continue
            assert getattr(summability, name) is obj, f"{name} is not exported"
            params = inspect.signature(obj).parameters.values()
            found[name] = [p.name for p in params if p.default is not p.empty]
    return found


def test_public_options_are_pinned():
    assert _options() == OPTIONS
