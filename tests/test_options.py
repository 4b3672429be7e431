"""The public option surface, pinned.

Every callable the package exports (the ``__all__`` of its five modules;
``ScalarField`` is an Enum and is left out) is listed with the names of its
parameters that have defaults, and every command of the CLI with its
options. An option earns its place when two callers outside the tests need
different values; anything else is a constant. A command takes only the
options its handler reads. Adding an option means adding it here and saying
in CHANGES.md which callers set it.
"""

import argparse
import contextlib
import inspect
import io
import re
from pathlib import Path

import pytest

import summability
from summability import forms, norms, rademacher, spaces, summing
from summability.cli import build_parser, main

OPTIONS = {
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
    "op_norm": [],
    "rad_p_norm": ["p", "mode", "samples", "seed"],
    "rademacher_average": ["mode", "samples", "seed"],
    "random_family_search": ["budget", "seed", "j_max"],
    "random_form": ["field", "exponents"],
    "summing_experiment": ["m", "count", "budget", "seed", "j_max", "field"],
    "summing_lower_bound": [],
    "tensor_weak_norm_estimate": [],
    "verify_almost_summing": ["k"],
    "verify_bh": ["opn"],
    "verify_defant_voigt": ["opn"],
    "verify_extended_littlewood": ["opn"],
    "verify_general_littlewood": ["opn"],
    "verify_littlewood_43": ["opn"],
    "weak_lp_norm": [],
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


REPORT = ["--out", "--format"]
SEEDED = ["--random", "--m", "--seed", "--field"]
CLI_OPTIONS = {  # 68 (command, option) pairs
    "demos": [],
    "experiment": ["--p", "--q", "--m", "--count", "--seed", "--budget", "--jmax", "--field",
                   *REPORT],
    "norm lp": ["--p"],
    "norm mixed": ["--p", "--q"],
    "norm rad": ["--p", "--mode", "--samples", "--seed"],
    "norm weak": ["--p"],
    "opnorm": [],
    "search": ["--p", "--qs", "--seed", "--budget", "--jmax", *REPORT],
    "verify almost": ["--curry", *REPORT],
    "verify bh": ["--random", "--m", "--order", "--seed", "--field", *REPORT],
    "verify dv": ["--random", "--m", "--order", "--seed", "--field", "--jmax", *REPORT],
    "verify extended": [*SEEDED, "--p", "--beta", *REPORT],
    "verify general": [*SEEDED, *REPORT],
    "verify inclusion": ["--random", "--m", "--seed", *REPORT],
    "verify littlewood": [*SEEDED, *REPORT],
}
# the least argv of each command that parses: its paths and required options
HEADS = {"norm lp": ["F"], "norm mixed": ["F"], "norm rad": ["F"], "norm weak": ["F"],
         "opnorm": ["F"], "search": ["F", "--p", "1", "--qs", "2"],
         "verify almost": ["F", "G"]}


def commands(parser=None, path=()):
    """(command, its parser) of every command of the CLI."""
    parser = build_parser() if parser is None else parser
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from commands(child, path + (name,))


def cli_options(parser) -> list[str]:
    return [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]


def test_cli_options_are_pinned():
    assert {name: cli_options(parser) for name, parser in commands()} == CLI_OPTIONS
    assert sum(map(len, CLI_OPTIONS.values())) == 68


def test_readme_option_table_matches_the_parser():
    # README's command table lists each command that takes options with
    # those options, in order; --out and --format are described in its prose
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z ]+?)(?: [A-Z\[][^`]*)?` \| `([^`]*)` \|$", readme, re.M)
    table = {command: options.split() for command, options in rows}
    options = {name: [o for o in cli_options(parser) if o not in REPORT]
               for name, parser in commands()}
    assert table == {name: opts for name, opts in options.items() if opts}


@pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
def test_cli_refuses_the_options_of_other_commands(command):
    # a prefix of one of the command's own options (--q of search's --qs) too
    own = CLI_OPTIONS[command]
    others = sorted({o for options in CLI_OPTIONS.values() for o in options if o not in own})
    assert others
    for option in others:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exc:
            main([*command.split(), *HEADS.get(command, []), option, "1"])
        assert exc.value.code == 3, option
        assert out.getvalue() == ""
        assert f"error: unrecognized arguments: {option}" in err.getvalue()
