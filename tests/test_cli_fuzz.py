"""The exit-code contract under generated input.

Hypothesis builds argv for every command, mostly from valid option values
with at most one invalid value, and writes the input files the command
reads: forms, sequences, families and matrices with seeded Gaussian entries
at scales from 1e-200 to 1e307, often with one fault put in (a field
replaced by NaN, inf, a huge integer, a wrong type or a bad exponent, an
entry replaced, a key dropped, a wrong shape, or a file that is not a JSON
document at all). Whatever it builds, ``main`` must return or exit with 0,
2 or 3; a traceback is a defect. Counts, budgets and dimensions are bounded
so the test stays fast, and the examples are derandomized, so a run is
reproducible.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from summability.cli import main

BAD = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, 1e308, -1, 0,
                       2.5, None, "x", True, [], {}, [[]], "inf", "4/3"])
JUNK = st.sampled_from(["{", "", "[1, 2", "nul", "3", "[]", '"form"', "null"])
FIELDS = st.sampled_from(["real", "complex"])
EXPONENTS = st.sampled_from(["inf", "inf", 1, 2, "4/3", 3, "3/2"])
SCALES = st.sampled_from([1.0, 1.0, 1.0, 1e-200, 1e200, 1e307])
LENGTHS = st.sampled_from([1, 2, 3, 4, 0])  # the length of a sequence or family


def _gaussian(draw, shape, field):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    a = draw(SCALES) * rng.standard_normal(tuple(shape) + ((2,) if field == "complex" else ()))
    return a.tolist()


def _replace_leaf(draw, node):
    while isinstance(node, list) and node and isinstance(node[0], list):
        node = node[draw(st.integers(0, len(node) - 1))]
    if isinstance(node, list) and node:
        node[draw(st.integers(0, len(node) - 1))] = draw(BAD)


def _with_fault(draw, doc, array_key):
    """``doc`` unchanged, or with one field, one array entry or one key broken."""
    fault = draw(st.sampled_from(["none"] * 6 + ["field", "entry", "drop"]))
    key = draw(st.sampled_from(sorted(doc)))
    if fault == "field":
        doc[key] = draw(BAD)
    elif fault == "entry":
        _replace_leaf(draw, doc[array_key])
    elif fault == "drop":
        del doc[key]
    return doc


@st.composite
def seq_doc(draw, dim=None, exponent=None, field=None, length=None):
    dim = draw(st.integers(1, 4)) if dim is None else dim
    field = draw(FIELDS) if field is None else field
    length = draw(LENGTHS) if length is None else length
    doc = {"field": field, "dim": dim,
           "exponent": draw(EXPONENTS) if exponent is None else exponent,
           "vectors": _gaussian(draw, (length, dim), field)}
    return _with_fault(draw, doc, "vectors")


@st.composite
def form_doc(draw):
    field = draw(FIELDS)
    dims = draw(st.one_of(st.lists(st.integers(1, 4), min_size=2, max_size=2),
                          st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    doc = {"field": field, "dims": dims,
           "domain_exponents": [draw(EXPONENTS) for _ in dims],
           "coeffs": _gaussian(draw, (math.prod(dims),), field)}
    if draw(st.booleans()):
        del doc["domain_exponents"]  # sup-norm domains by default
    return _with_fault(draw, doc, "coeffs")


@st.composite
def family_doc(draw, form):
    """Columns fitting the head slots of ``form`` when it is well formed."""
    try:
        dims = [int(m) for m in form["dims"]]
        exps = form.get("domain_exponents", ["inf"] * len(dims))
        head = draw(st.integers(min(1, len(dims)), len(dims)))
        length = draw(LENGTHS)
        columns = [draw(seq_doc(m, e, form["field"], length))
                   for m, e in zip(dims[:head], exps)]
    except (KeyError, TypeError, ValueError, OverflowError):
        columns = draw(st.lists(seq_doc(), max_size=3))
    return _with_fault(draw, {"columns": columns}, "columns")


@st.composite
def matrix_doc(draw):
    if draw(st.booleans()):
        return draw(form_doc())
    field = draw(FIELDS)
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return _with_fault(draw, {"field": field, "entries": _gaussian(draw, shape, field)},
                       "entries")


def _counts(lo, hi):
    return st.integers(lo, hi).map(str), st.sampled_from(["-1", "x", "1.5", ""])


EXPONENT_TEXT = (st.sampled_from(["1", "2", "4/3", "3/2", "3", "inf", "1/2"]),
                 st.sampled_from(["0", "-1", "abc", "1/0", "nan", "1e400", "", "1/3"]))
SEED = (st.integers(0, 5).map(str), st.sampled_from(["-1", "x", str(2 ** 70)]))
COMMON = {
    "--seed": SEED,
    "--field": (FIELDS, st.just("quaternion")),
    "--format": (st.sampled_from(["json", "csv"]), st.just("xml")),
    "--tol": (st.just("1e-6"), st.sampled_from(["0", "-1", "nan", "x"])),
    "--kg-real": (st.just("1.78221"), st.sampled_from(["0", "inf", "nan"])),
    "--kg-complex": (st.just("1.40491"), st.sampled_from(["2", "-1", "nan"])),
    "--jmax": _counts(1, 4),
}
NORM = ({"--samples": _counts(1, 40)},
        {"--p": EXPONENT_TEXT, "--q": EXPONENT_TEXT, "--seed": SEED,
         "--mode": (st.sampled_from(["exact", "mc"]), st.just("bogus")),
         "--starts": _counts(0, 8)})
VERIFY = ({"--random": _counts(0, 3)},
          {"--m": _counts(2, 4), "--order": _counts(2, 4), "--p": EXPONENT_TEXT,
           "--beta": (st.sampled_from(["identity", "MATRIX"]), st.just("MISSING")),
           "--curry": _counts(1, 3), "--allow-real-experimental": None, **COMMON})
QS = (st.one_of(st.lists(EXPONENT_TEXT[0], min_size=2, max_size=2),
                st.lists(EXPONENT_TEXT[0], min_size=1, max_size=3)).map(",".join),
      st.sampled_from(["", ",", "2,,2", "x"]))
# argv head (file placeholders in capitals) -> (options always given,
# options sometimes given), each option with (valid, invalid) values
COMMANDS = {
    **{f"norm {kind} {file}": NORM for kind, file in [
        ("lp", "SEQ"), ("weak", "SEQ"), ("rad", "SEQ"), ("mixed", "MATRIX"),
        ("opnorm", "FORM")]},
    "opnorm FORM": ({}, {"--starts": _counts(0, 8), "--seed": SEED}),
    **{f"verify {suite}": VERIFY for suite in [
        "littlewood", "general", "bh", "extended", "dv", "inclusion"]},
    **{f"verify {suite} FORM": VERIFY for suite in [
        "littlewood", "general", "bh", "extended"]},
    "verify dv FORM FAMILY": VERIFY,
    "verify almost FORM FAMILY": VERIFY,
    "search FORM": ({"--budget": _counts(1, 8), "--p": EXPONENT_TEXT, "--qs": QS}, COMMON),
    "experiment": ({"--count": _counts(0, 2), "--budget": _counts(1, 4)},
                   {"--p": EXPONENT_TEXT, "--q": EXPONENT_TEXT, "--m": _counts(2, 2),
                    **COMMON}),
}


@st.composite
def command(draw, head):
    always, sometimes = COMMANDS[head]
    argv = head.split()
    for name, values in always.items():
        argv += [name, draw(values[0])]
    for name, values in sometimes.items():
        if draw(st.booleans()):
            argv += [name] if values is None else [name, draw(values[0])]
    options = {**always, **{k: v for k, v in sometimes.items() if v is not None}}
    if draw(st.integers(0, 3)) == 3:  # one invalid value; the last one given wins
        name = draw(st.sampled_from(sorted(options)))
        argv += [name, draw(options[name][1])]
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge inputs overflow
@pytest.mark.parametrize("head", sorted(COMMANDS))
@settings(derandomize=True, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_contract(tmp_path, head, data):
    argv = data.draw(command(head))
    paths = {"MISSING": str(tmp_path / "missing.json")}
    form = data.draw(form_doc()) if "FORM" in argv else None
    docs = {"FORM": lambda: form, "FAMILY": lambda: data.draw(family_doc(form)),
            "SEQ": lambda: data.draw(seq_doc()), "MATRIX": lambda: data.draw(matrix_doc())}
    for name, make in docs.items():
        if name in argv:
            text = json.dumps(make())
            path = tmp_path / f"{name.lower()}.json"
            path.write_text(data.draw(st.one_of(*[st.just(text)] * 5, JUNK)))
            paths[name] = str(path)
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
