import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import summability
from summability import FormTensor, ScalarField, SpaceSpec, TestFamily, VectorSeq
from summability import cli, demos, forms, summing
from summability.cli import main
from summability.norms import _sum_class


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def littlewood_file(tmp_path):
    form = FormTensor.on_linf([[1.0, 1.0], [1.0, -1.0]])
    return write_json(tmp_path / "littlewood22.json", form.to_json())


@pytest.fixture
def littlewood_complex_file(tmp_path):
    form = FormTensor.on_linf([[1.0, 1.0], [1.0, -1.0]], ScalarField.COMPLEX)
    return write_json(tmp_path / "littlewood22c.json", form.to_json())


@pytest.fixture
def family_file(tmp_path):
    space = SpaceSpec.linf(2)
    fam = TestFamily((VectorSeq(np.eye(2), space), VectorSeq(np.eye(2), space)))
    return write_json(tmp_path / "fam.json", fam.to_json())


def test_opnorm_command(littlewood_file, capsys):
    assert main(["opnorm", littlewood_file]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "2.0 exact"


@pytest.mark.parametrize("exponents", [[2, 3], ["inf", "inf"]])
def test_opnorm_of_a_subnormal_coefficient_is_that_of_a_zero(tmp_path, capsys, exponents):
    # a phase taken as a * (1/|a|) overflowed: "not finite (nan)", exit 3, on
    # l_2 x l_3, and a witness of inf and nan on sup-norm slots
    doc = {"field": "complex", "dims": [2, 2], "domain_exponents": exponents,
           "coeffs": [[1e-320, 0], [0, 0], [0, 0], [1, 0]]}
    assert main(["opnorm", write_json(tmp_path / "tiny.json", doc)]) == 0
    out = capsys.readouterr().out
    doc["coeffs"][0] = [0, 0]
    assert main(["opnorm", write_json(tmp_path / "zero.json", doc)]) == 0
    assert out == capsys.readouterr().out


def test_norm_mixed_command(tmp_path, capsys):
    path = write_json(tmp_path / "m.json",
                      {"field": "real", "entries": [[1, 2], [3, 4]]})
    assert main(["norm", "mixed", path, "--p", "1", "--q", "2"]) == 0
    value = float(capsys.readouterr().out.split()[0])
    assert value == pytest.approx(math.sqrt(10) + 2 * math.sqrt(5), abs=1e-12)


def test_norm_rad_command(tmp_path, capsys):
    space = SpaceSpec.linf(2)
    seq = VectorSeq(np.eye(2), space)
    path = write_json(tmp_path / "seq.json", seq.to_json())
    assert main(["norm", "rad", path, "--p", "2", "--mode", "exact"]) == 0
    assert float(capsys.readouterr().out.split()[0]) == 1.0


def test_norm_weak_command(tmp_path, capsys):
    seq = VectorSeq([[1.0, 0.0], [1.0, 0.0]], SpaceSpec.linf(2))
    path = write_json(tmp_path / "seq.json", seq.to_json())
    assert main(["norm", "weak", path, "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out
    assert float(out.split()[0]) == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_norm_weak_non_finite_file_exits_3(tmp_path, capsys, bad):
    path = tmp_path / "seq.json"
    path.write_text('{"field": "real", "dim": 2, "exponent": "inf", '
                    f'"vectors": [[1.0, {bad}], [0.0, 1.0]]}}')
    assert main(["norm", "weak", str(path), "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_norm_mixed_non_finite_file_exits_3(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"field": "real", "entries": [[1.0, NaN], [0.0, 1.0]]}')
    assert main(["norm", "mixed", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


_HUGE = [[1e308, 1e308], [1e308, 1e308]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
@pytest.mark.parametrize("argv, data", [
    (["norm", "mixed", "--p", "1", "--q", "2"],
     {"field": "real", "entries": _HUGE}),
    (["norm", "rad", "--p", "2"],
     {"field": "real", "dim": 2, "exponent": "2", "vectors": _HUGE}),
    (["norm", "rad", "--p", "2", "--mode", "mc", "--samples", "50"],
     {"field": "real", "dim": 2, "exponent": "inf",
      "vectors": [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]}),
    (["norm", "weak", "--p", "1"],
     {"field": "real", "dim": 2, "exponent": "inf", "vectors": _HUGE}),
    (["opnorm"], FormTensor.on_linf(_HUGE).to_json()),
])
def test_norm_non_finite_result_exits_3(tmp_path, capsys, argv, data):
    # finite inputs whose norm overflows: no value is printed
    path = write_json(tmp_path / "in.json", data)
    assert main(argv + [path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "not finite" in captured.err


def test_norm_weak_overflowing_value_exits_3(tmp_path, capsys):
    # the weak-l_2 norm is 2e308: the rescaled kernel finds it is not a float
    path = write_json(tmp_path / "seq.json", {"field": "real", "dim": 2,
                                              "exponent": "2", "vectors": _HUGE})
    assert main(["norm", "weak", path, "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_norm_rad_finite_value_of_overflowing_sums(tmp_path, capsys):
    # Rad_1 = 1.5e308, although the ++ sign sum is 3e308
    path = write_json(tmp_path / "seq.json", {"field": "real", "dim": 1,
                                              "exponent": "2",
                                              "vectors": [[1.5e308], [1.5e308]]})
    assert main(["norm", "rad", path, "--p", "1"]) == 0
    assert capsys.readouterr().out == "1.5e+308 exact\n"


@pytest.mark.parametrize("argv,data,expected", [
    # Rad_1 = 1.5e308, although the ++ sign sum is 3e308
    (["norm", "rad", "--p", "1"], {"field": "real", "dim": 1, "exponent": "2",
                                   "vectors": [[1.5e308], [1.5e308]]},
     "1.5e+308 exact"),
    (["opnorm"], FormTensor(1e308 * np.eye(2), (SpaceSpec.lp(2, 2),) * 2).to_json(),
     (1e308, "exact")),
    # a dense form on l_2 x l_3 keeps the ascent: its norm is 2^(1/2) 2^(2/3) 1e307
    (["opnorm"], FormTensor(1e307 * np.ones((2, 2)),
                            (SpaceSpec.lp(2, 2), SpaceSpec.lp(2, 3))).to_json(),
     (1e307 * 2 ** (7 / 6), "lower-bound")),
])
def test_rescaled_norm_prints_no_warning(tmp_path, capsys, argv, data, expected):
    # the first, unscaled attempt over- and underflows without a word
    path = write_json(tmp_path / "in.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert main(argv + [path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if isinstance(expected, tuple):
        value, label = captured.out.split()
        assert float(value) == pytest.approx(expected[0], rel=1e-9)
        assert label == expected[1]
    else:
        assert captured.out == expected + "\n"


def test_search_with_overflowing_lhs_scales_the_ratio(tmp_path, capsys):
    # the squares of the values overflow; the ratio is 1e200 times the unscaled one
    ratios = []
    for scale in (1.0, 1e200):
        form = {"field": "real", "dims": [2, 2], "coeffs": [scale, 0, 0, scale]}
        path = write_json(tmp_path / "form.json", form)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            assert main(["search", path, "--p", "2", "--qs", "2,2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        ratios.append(json.loads(captured.out)["certificate"]["ratio"])
    assert ratios[1] == pytest.approx(1e200 * ratios[0], rel=1e-12)


def test_mixed_norm_with_overflowing_squares_scales_the_value(tmp_path, capsys):
    # the squares of the entries overflow; each value is 1e200 times the unscaled one
    runs = []
    for scale in (1.0, 1e200):
        matrix = write_json(tmp_path / "m.json",
                            {"field": "real", "entries": [[scale, scale], [scale, scale]]})
        form = write_json(tmp_path / "form.json", {"field": "real", "dims": [2, 2],
                                                   "coeffs": [scale, scale, scale, -scale]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            assert main(["norm", "mixed", matrix, "--p", "1", "--q", "2"]) == 0
            mixed = capsys.readouterr()
            assert main(["verify", "general", form]) == 0
            general = capsys.readouterr()
        assert mixed.err == "" and general.err == ""
        value, label = mixed.out.split()
        report = json.loads(general.out)["reports"][0]
        assert label == "exact" and report["status"] == "pass"
        runs.append([float(value), report["lhs"], report["rhs"], report["witness"]["op_norm"]])
    for unscaled, scaled in zip(*runs):
        assert scaled == pytest.approx(1e200 * unscaled, rel=1e-12)


def test_form_with_no_slot_exits_3(tmp_path, capsys):
    path = write_json(tmp_path / "form.json", {"field": "real", "dims": [], "coeffs": [2.0]})
    assert main(["opnorm", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "a form needs at least one slot" in captured.err
    with pytest.raises(ValueError, match="a form needs at least one slot"):
        FormTensor(np.array(2.0), ())


def test_python_dash_m_runs_the_cli():
    src = str(Path(summability.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "summability", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: summability")


def test_verify_extended_non_finite_beta_exits_3(littlewood_complex_file,
                                                   tmp_path, capsys):
    beta = tmp_path / "beta.json"
    beta.write_text('{"field": "real", "entries": [[1.0, Infinity], [0.0, 1.0]]}')
    assert main(["verify", "extended", littlewood_complex_file,
                 "--beta", str(beta)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "littlewood", "--random", "-1"],
    ["verify", "inclusion", "--random", "-3"],
    ["experiment", "--count", "-1"],
    ["norm", "rad", "seq.json", "--mode", "mc", "--samples", "-1"],
])
def test_negative_count_exits_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "expected an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "form.json", "--p", "1", "--qs", "2,1"],
    ["experiment"],
    ["verify", "littlewood"],
    ["verify", "dv"],
    ["verify", "inclusion"],
    ["norm", "rad", "seq.json"],
])
def test_negative_seed_exits_3_at_the_parser(argv, capsys):
    # the parser names the option, before numpy refuses the seed
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected an integer >= 0, got '-1'" in captured.err


@pytest.mark.parametrize("argv,option,low", [
    (["search", "form.json", "--p", "1", "--qs", "2,2", "--jmax", "0"], "--jmax", 1),
    (["experiment", "--jmax", "0"], "--jmax", 1),
    (["verify", "dv", "--random", "1", "--jmax", "0"], "--jmax", 1),
    (["verify", "littlewood", "--random", "1", "--m", "1"], "--m", 2),
    (["experiment", "--m", "0"], "--m", 1),
    (["verify", "bh", "--random", "1", "--order", "1"], "--order", 2),
    (["verify", "dv", "--random", "0", "--order", "0"], "--order", 2),
])
def test_option_below_its_least_value_exits_3(argv, option, low, capsys):
    # the parser rejects it, before numpy fails with "low >= high"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert f"argument {option}: expected an integer >= {low}" in err


@pytest.mark.parametrize("argv,option", [
    (["opnorm", "form.json", "--starts", "4"], "--starts"),
    (["norm", "weak", "seq.json", "--seed", "1"], "--seed"),
])
def test_start_options_are_rejected(argv, option, capsys):
    # the random starts of the ascent are a constant, not options
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {option}" in captured.err


def test_norm_rad_zero_samples_exits_3(tmp_path, capsys):
    seq = VectorSeq(np.eye(2), SpaceSpec.linf(2))
    path = write_json(tmp_path / "seq.json", seq.to_json())
    assert main(["norm", "rad", path, "--mode", "mc", "--samples", "0"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_report_exits_3(littlewood_file, tmp_path, capsys, fmt):
    # finite inputs whose products overflow: the report would hold NaN/inf
    space = SpaceSpec.linf(2)
    huge = np.array([[1e308, -1e308], [-1e308, 1e308]])
    fam = TestFamily((VectorSeq(huge, space), VectorSeq(huge, space)))
    family = write_json(tmp_path / "fam.json", fam.to_json())
    out = tmp_path / f"dv.{fmt}"
    assert main(["verify", "dv", littlewood_file, family, "--format", fmt,
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "non-finite" in captured.err
    assert not out.exists()
    assert main(["verify", "dv", littlewood_file, family, "--format", fmt]) == 3
    assert capsys.readouterr().out == ""


def test_malformed_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["opnorm", str(bad)]) == 3
    missing = tmp_path / "missing.json"
    assert main(["opnorm", str(missing)]) == 3
    schema = write_json(tmp_path / "schema.json", {"field": "real", "dims": [2]})
    assert main(["opnorm", schema]) == 3


def test_norm_mixed_of_a_three_slot_form_file_exits_3(tmp_path, capsys):
    path = write_json(tmp_path / "f3.json", FormTensor.on_linf(np.ones((2, 2, 2))).to_json())
    assert main(["norm", "mixed", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad matrix: matrix file must be 2-d" in captured.err


def test_report_to_a_missing_directory_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["verify", "littlewood", "--random", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {out}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("n,code", [(27, 0), (51, 0), (52, 3)])
def test_forms_of_many_slots(tmp_path, capsys, n, code):
    # the einsum subscripts of the slots ran out after 26 letters: IndexError
    column = {"field": "real", "dim": 1, "exponent": "inf", "vectors": [[1.0], [0.5]]}
    form = write_json(tmp_path / "form.json",
                      {"field": "real", "dims": [1] * n, "coeffs": [2.0]})
    fam = write_json(tmp_path / "fam.json", {"columns": [column] * n})
    for argv in (["search", form, "--p", "1", "--qs", ",".join(["2"] * n), "--budget", "8"],
                 ["verify", "dv", form, fam],
                 ["verify", "almost", form, fam]):
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert ("a form has at most 51 slots, got 52" in err) if code else err == ""


def test_starts_past_the_budget_exit_3(tmp_path, capsys):
    # 32 starts on dims that sum past 2^17: refused before a start vector,
    # or anything the size of the coefficients, is allocated
    coeffs = np.random.default_rng(36).standard_normal((2, 131071))
    form = FormTensor(coeffs, (SpaceSpec.lp(2, 3), SpaceSpec.lp(131071, 3)))
    seq = VectorSeq(coeffs, SpaceSpec.lp(131071, 3))
    for argv in (["opnorm", write_json(tmp_path / "form.json", form.to_json())],
                 ["norm", "weak", write_json(tmp_path / "seq.json", seq.to_json()),
                  "--p", "2"]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "32 starts on dims (2, 131071) exceed the budget" in captured.err
    for call in (lambda: summability.op_norm(form), lambda: summability.weak_lp_norm(seq, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="32 starts on dims"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < coeffs.nbytes


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 3


def test_verify_littlewood_random(tmp_path, capsys):
    out = tmp_path / "rep.json"
    args = ["verify", "littlewood", "--random", "25", "--m", "5",
            "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["total"] == 25
    assert doc["summary"]["fail"] == 0
    assert all(r["exact_norm"] for r in doc["reports"])


def test_verify_reports_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["verify", "extended", "--random", "10", "--m", "3", "--seed", "3"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_extended_file(littlewood_complex_file, tmp_path, capsys):
    out = tmp_path / "ext.json"
    assert main(["verify", "extended", littlewood_complex_file,
                 "--p", "4/3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rep = doc["reports"][0]
    assert rep["status"] == "pass"
    assert rep["q"] == "4/3"


def test_verify_extended_reports_every_file(littlewood_complex_file, tmp_path):
    other = FormTensor.on_linf(np.arange(6.0).reshape(3, 2) + 1j, ScalarField.COMPLEX)
    files = [littlewood_complex_file, write_json(tmp_path / "other.json", other.to_json())]
    out = tmp_path / "ext.json"
    assert main(["verify", "extended", *files, "--p", "4/3", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 2
    for path, report in zip(files, reports):  # each form gets its own identity beta
        assert main(["verify", "extended", path, "--p", "4/3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["reports"] == [report]
        assert report["witness"]["beta_norm"] == 1.0


def test_verify_extended_beta_applies_to_every_file(littlewood_complex_file, tmp_path,
                                                   capsys):
    beta = write_json(tmp_path / "beta.json",
                      {"field": "real", "entries": [[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]})
    out = tmp_path / "ext.json"
    assert main(["verify", "extended", littlewood_complex_file, littlewood_complex_file,
                 "--beta", beta, "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 2 and reports[0] == reports[1]
    assert reports[0]["witness"]["beta_norm"] == pytest.approx(math.sqrt(5), rel=1e-15)
    capsys.readouterr()
    wide = FormTensor.on_linf(np.ones((3, 2)), ScalarField.COMPLEX)
    wide_file = write_json(tmp_path / "wide.json", wide.to_json())
    assert main(["verify", "extended", littlewood_complex_file, wide_file,
                 "--beta", beta]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and beta in captured.err and wide_file in captured.err


def test_verify_inclusion_refuses_files(littlewood_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "inclusion", littlewood_file, "--random", "2"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {littlewood_file}" in captured.err


@pytest.mark.parametrize("count", [0, 1, 3])
def test_verify_almost_takes_a_form_and_a_family(littlewood_file, capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "almost", *[littlewood_file] * count])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_verify_extended_real_gate(littlewood_file, capsys):
    # the inequality is asserted for complex scalars only: real files and
    # seeded real instances are reported, and nothing is asserted for them
    for argv in (["verify", "extended", littlewood_file, "--p", "4/3"],
                 ["verify", "extended", "--field", "real", "--random", "4", "--seed", "1"]):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {r["status"] for r in doc["reports"]} == {"inconclusive"}
        assert "allow_real_experimental" not in doc["config"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "extended", littlewood_file, "--allow-real-experimental"])
    assert exc.value.code == 3
    assert "--allow-real-experimental" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,status,exact", [
    # heuristic op norms of 6 x 6 complex forms: a shortfall certifies nothing
    (["verify", "littlewood", "--field", "complex"], 0, "inconclusive", False),
    # exact op norms of real forms: a shortfall is a certified violation
    (["verify", "general"], 2, "fail", True),
])
def test_fail_only_on_an_exact_norm(monkeypatch, capsys, argv, code, status, exact):
    for row in summing._CONSTANTS:  # a constant that all eight forms exceed
        monkeypatch.setitem(summing._CONSTANTS, row, 0.5)
    assert main([*argv, "--m", "6", "--random", "8", "--seed", "1"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert [(r["status"], r["exact_norm"]) for r in doc["reports"]] == [(status, exact)] * 8
    assert "tolerance" not in doc["config"]


@pytest.mark.parametrize("suite,option", [
    ("littlewood", "--kg-complex"), ("general", "--kg-real"), ("general", "--kg-complex"),
    ("extended", "--kg-real"), ("extended", "--kg-complex"), ("bh", "--kg-complex"),
])
def test_constant_options_are_rejected(monkeypatch, capsys, suite, option):
    # the constants are a fixed table, not options: the suites that took
    # them exit 3 before any work
    calls = []
    monkeypatch.setattr(cli, "_ball_sup", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--random", "3", option, "1.5"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {option}" in captured.err
    assert calls == []


def test_verify_general_meets_sqrt2_at_the_sign_matrix(littlewood_file, capsys):
    # the real mixed (l_1, l_2) row is the sharp sqrt(2), which [[1, 1], [1, -1]] attains
    assert main(["verify", "general", littlewood_file]) == 0
    rep, = json.loads(capsys.readouterr().out)["reports"]
    assert rep["status"] == "pass" and rep["exact_norm"]
    assert rep["ratio"] == rep["bound"] == math.sqrt(2) and rep["lhs"] == rep["rhs"]


def test_verify_dv_files(littlewood_file, family_file, tmp_path, capsys):
    out = tmp_path / "dv.json"
    assert main(["verify", "dv", littlewood_file, family_file,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rep = doc["reports"][0]
    assert rep["status"] == "pass"
    assert rep["lhs"] == pytest.approx(rep["rhs"], abs=1e-12)


@pytest.mark.parametrize("count", [1, 3])
def test_verify_dv_needs_two_files(littlewood_file, family_file, capsys, count):
    files = [littlewood_file, family_file, family_file][:count]
    assert main(["verify", "dv", *files]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dv expects a form file and a family file" in captured.err


def test_verify_dv_draws_families_up_to_its_jmax(monkeypatch, capsys):
    # 2^23 sign patterns (those with first sign +1 of 24 signs) are refused
    # before anything is drawn
    lengths, draws, verify, drawn = [], [], cli.verify_defant_voigt, cli._drawn
    monkeypatch.setattr(cli, "_drawn", lambda *a, **k: (draws.append(a), drawn(*a, **k))[1])
    monkeypatch.setattr(cli, "verify_defant_voigt", lambda A, fam, **k: (
        lengths.append(fam.length), verify(A, fam, **k))[1])
    base = ["verify", "dv", "--order", "2", "--m", "2"]
    assert main(base + ["--random", "4", "--jmax", "24"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "--jmax 24" in captured.err and "budget" in captured.err
    assert draws == [] and lengths == []
    assert main(base + ["--random", "0", "--jmax", "23"]) == 0
    capsys.readouterr()
    assert main(base + ["--random", "12", "--jmax", "12", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["jmax"] == 12
    assert len(lengths) == 12 and max(lengths) > 8


def test_verify_bh_random_deterministic(tmp_path):
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    base = ["verify", "bh", "--random", "8", "--order", "3", "--m", "2",
            "--seed", "11"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert all(math.isfinite(r["ratio"]) for r in doc["reports"])


@pytest.mark.parametrize("suite", ["bh", "dv"])
def test_verify_random_coefficient_budget(suite, capsys):
    # 2^30 coefficients per form are refused before anything is drawn
    base = ["verify", suite, "--m", "2"]
    assert main(base + ["--random", "1", "--order", "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "budget" in captured.err
    # the check is on m ** order alone: 2^23 is refused, 2^22 is allowed
    assert main(base + ["--random", "0", "--order", "23"]) == 3
    assert main(base + ["--random", "0", "--order", "22"]) == 0


# every seeded suite, with instances that take several chunks of 30 coefficients
# (dims up to 5, so that a budget of 30 refuses none)
SEEDED = {
    "littlewood": ["verify", "littlewood", "--random", "7", "--m", "5", "--seed", "4"],
    "littlewood-complex": ["verify", "littlewood", "--field", "complex", "--random", "7",
                           "--m", "5", "--seed", "4"],
    "general": ["verify", "general", "--random", "6", "--m", "5", "--seed", "5"],
    "general-complex": ["verify", "general", "--field", "complex", "--random", "6",
                        "--m", "4", "--seed", "6"],
    "bh-order2": ["verify", "bh", "--order", "2", "--random", "6", "--m", "5", "--seed", "7"],
    "bh-order3-complex": ["verify", "bh", "--order", "3", "--field", "complex", "--random",
                          "5", "--m", "3", "--seed", "8"],
    "extended": ["verify", "extended", "--random", "6", "--m", "5", "--seed", "9"],
    "extended-real": ["verify", "extended", "--field", "real", "--random", "5", "--m", "5",
                      "--seed", "10"],
    "dv": ["verify", "dv", "--order", "2", "--random", "6", "--m", "5", "--seed", "11"],
    "dv-order3-complex": ["verify", "dv", "--field", "complex", "--random", "4", "--m", "3",
                          "--jmax", "4", "--seed", "12"],
    "inclusion": ["verify", "inclusion", "--random", "9", "--m", "4", "--seed", "3"],
}


# per coefficient suite, the padding classes of the lhs calls of an instance
# (its arrays): l_p rows by their length, mixed norms by their column count
# (extended: of beta o a and of beta)
LHS_CLASSES = {
    "littlewood": lambda a: {("lp", _sum_class(a[0].size))},
    "bh": lambda a: {("lp", _sum_class(a[0].size))},
    "general": lambda a: {("mixed", _sum_class(a[0].shape[1]))},
    "extended": lambda a: {("mixed", _sum_class(a[0].shape[1])),
                           ("beta", _sum_class(a[1].shape[1]))},
}


def _recording(monkeypatch, budget=None):
    """Patch the CLI to record per chunk drawn: the sizes of its forms; the
    padding classes of its instances' lhs calls (LHS_CLASSES); the sizes of
    the forms of the stacks its kernel call takes; how many items each of
    its lhs calls takes; and its number of shape groups."""
    chunks, classes, calls, lhs, shapes = [], [], [], [], []
    drawn, ball_sup, lp_rows, mixed_rows = cli._drawn, cli._ball_sup, cli._lp_rows, cli._mixed_rows

    def recorded(args, *rest, **kwargs):
        for groups in drawn(args, *rest, **kwargs):
            chunks.append(sorted(A.size for _, (forms, *_) in groups for A in forms))
            suite = LHS_CLASSES.get(args.command.split()[1], lambda a: set())
            classes.append(set().union(*(suite([a[j] for a in arrays]) for idx, arrays in groups
                                         for j in range(len(idx)))))
            lhs.append([])
            shapes.append(len(groups))
            yield groups

    if budget is not None:
        monkeypatch.setattr(cli, "RANDOM_COEFF_BUDGET", budget)
    monkeypatch.setattr(cli, "_drawn", recorded)
    monkeypatch.setattr(cli, "_ball_sup", lambda stacks, balls, witness: (
        calls.append(sorted(A.size for stack in stacks for A in stack)),
        ball_sup(stacks, balls, witness=witness))[1])
    monkeypatch.setattr(cli, "_lp_rows", lambda a, e: (lhs[-1].append(len(a)),
                                                      lp_rows(a, e))[1])
    monkeypatch.setattr(cli, "_mixed_rows", lambda a, p, q: (lhs[-1].append(len(a)),
                                                            mixed_rows(a, p, q))[1])
    return chunks, classes, calls, lhs, shapes


def test_verify_chunks_give_the_body_of_one_chunk(monkeypatch, capsys):
    # drawn instances are measured in chunks of at most RANDOM_COEFF_BUDGET
    # coefficients (at least one instance), the forms of a chunk in one kernel
    # call on its stacks (inclusion lifts them instead), and their lhs in one
    # call per padding class (per side for extended); chunking changes no byte
    for name, argv in SEEDED.items():
        assert main(argv) == 0, name
        whole = capsys.readouterr().out
        with monkeypatch.context() as patch:
            chunks, classes, calls, lhs, _ = _recording(patch, budget=30)
            assert main(argv) == 0
        assert capsys.readouterr().out == whole, name
        assert sum(map(len, chunks)) == int(argv[argv.index("--random") + 1]) and len(chunks) > 1
        assert all(len(c) == 1 or sum(c) <= 30 for c in chunks), name
        assert calls == ([] if name == "inclusion" else chunks), name
        sides = 2 if name.startswith("extended") else 1 if argv[1] in LHS_CLASSES else 0
        for chunk, own, taken in zip(chunks, classes, lhs):
            assert len(taken) <= len(own) and sum(taken) == sides * len(chunk), name


@pytest.mark.parametrize("suite", sorted(LHS_CLASSES))
def test_seeded_lhs_take_one_call_per_padding_class(monkeypatch, capsys, suite):
    # 40 instances of dims up to 8 fall in about 27 shapes, but in at most 9
    # length classes (64 coefficients or fewer) or 2 column classes (8
    # columns or fewer) per side
    argv = ["verify", suite, "--random", "40", "--m", "8", "--seed", "1"]
    argv += ["--order", "2"] if suite == "bh" else []
    assert main(argv) == 0
    whole = capsys.readouterr().out
    chunks, classes, calls, lhs, shapes = _recording(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    assert len(chunks) == 1 and len(lhs[0]) == len(classes[0]) and shapes[0] > 20
    assert len(lhs[0]) <= {"general": 2, "extended": 4}.get(suite, 9)


def test_inclusion_chunks_give_the_body_of_one_chunk(monkeypatch, capsys):
    # lifts are taken in chunks of at most RANDOM_COEFF_BUDGET coefficients
    # and LIFT_CHUNK instances; chunking changes no byte, and LIFT_CHUNK
    # chunks no other suite
    bodies = {}
    for name, argv in SEEDED.items():
        assert main(argv) == 0
        bodies[name] = capsys.readouterr().out
    chunks, lift = [], cli.lift_families
    monkeypatch.setattr(cli, "RANDOM_COEFF_BUDGET", 20)
    monkeypatch.setattr(cli, "lift_families", lambda pairs, *args: (
        chunks.append([A.coeffs.size for A, _ in pairs]), lift(pairs, *args))[1])
    assert main(SEEDED["inclusion"]) == 0
    assert capsys.readouterr().out == bodies["inclusion"]
    assert sum(map(len, chunks)) == 9 and len(chunks) > 1
    assert all(len(c) == 1 or sum(c) <= 20 for c in chunks)
    chunks.clear()  # and at most LIFT_CHUNK instances
    monkeypatch.setattr(cli, "RANDOM_COEFF_BUDGET", 1 << 22)
    monkeypatch.setattr(cli, "LIFT_CHUNK", 4)
    for name, argv in SEEDED.items():
        assert main(argv) == 0
        assert capsys.readouterr().out == bodies[name], name
    assert [len(c) for c in chunks] == [4, 4, 1]


@pytest.mark.parametrize("suite,name,extra", [
    pytest.param("dv", "verify_defant_voigt", ["--order", "2"],
                 id="dv-verify_defant_voigt-extra4"),
])
def test_seeded_suites_call_the_verifiers_by_name(monkeypatch, capsys, suite, name, extra):
    # a rebinding of the module-level name (the benchmark's tracer) sees every instance
    calls, verifier = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: (calls.append(k["opn"]), verifier(*a, **k))[1])
    assert main(["verify", suite, "--random", "3", *extra]) == 0
    assert len(calls) == 3 and None not in calls


def _redrawn(seed, count, slots, m, is_complex, high=None, tail=lambda dims, e: []):
    """The instances of a seeded suite drawn again one at a time: the first
    child of SeedSequence(seed) draws each instance's dims in [2, m], then
    an integer e in [1, high); the second draws its arrays, the form's of
    those dims and those of the shapes tail(dims, e): their real parts, then
    their imaginary parts."""
    shapes, normals = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    rows = [(tuple(int(shapes.integers(2, m + 1)) for _ in range(slots)),
             None if high is None else int(shapes.integers(1, high))) for _ in range(count)]
    instances = []
    for dims, e in rows:
        real = [normals.standard_normal(shape) for shape in [dims, *tail(dims, e)]]
        instances.append([a + 1j * normals.standard_normal(a.shape) for a in real]
                         if is_complex else real)
    return instances


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_reports_are_the_verifiers_reports_on_their_instances(capsys, name):
    # each report is the public verifier's (inclusion: lift_family's) on its
    # instance drawn again, bit for bit, but for its number
    argv = SEEDED[name]
    args = cli.build_parser().parse_args(argv)
    assert main(argv) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    field = ScalarField(getattr(args, "field", "real"))
    slots = args.order if args.command in ("verify bh", "verify dv") else 2
    families = (args.jmax + 1 if args.command == "verify dv" else 5,
                lambda dims, J: [(J, m) for m in dims])
    high, tail = {"verify extended": (args.m + 1, lambda dims, rows: [(rows, dims[0])]),
                  "verify dv": families, "verify inclusion": families}.get(args.command,
                                                                           (None, lambda *_: []))
    instances = _redrawn(args.seed, args.random, slots, args.m, field.is_complex, high, tail)
    assert len(reports) == len(instances)
    for i, (report, (coeffs, *arrays)) in enumerate(zip(reports, instances)):
        assert report["witness"].pop("instance") == i
        A = FormTensor.on_linf(coeffs, field)
        if args.command in ("verify dv", "verify inclusion"):
            fam = TestFamily(tuple(VectorSeq(c, d) for c, d in zip(arrays, A.domains)))
        if args.command == "verify inclusion":
            res = summing.lift_family(A, fam, summing.ExponentTuple(2, (2, 2)),
                                      summing.ExponentTuple(1, (1, 2)))
            assert (report["lhs"], report["rhs"], report["exact_norm"], report["status"]) == (
                res.source.ratio, res.derived.ratio, res.source.exact and res.derived.exact,
                "pass" if res.monotone else "inconclusive")
            assert report["witness"] == {"length": fam.length}
            continue
        expected = {
            "verify littlewood": lambda: summing.verify_littlewood_43(A),
            "verify general": lambda: summing.verify_general_littlewood(A),
            "verify bh": lambda: summing.verify_bh(A),
            "verify extended": lambda: summing.verify_extended_littlewood(A, arrays[0], args.p),
            "verify dv": lambda: summing.verify_defant_voigt(A, fam),
        }[args.command]()
        assert report == json.loads(json.dumps(expected.to_dict())), (name, i)


def test_verify_almost_files(littlewood_file, family_file, tmp_path):
    out = tmp_path / "almost.json"
    assert main(["verify", "almost", littlewood_file, family_file,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["check"] == "almost_summing"


def test_certificate_reports_take_the_field_of_the_form(littlewood_complex_file, tmp_path,
                                                        capsys):
    # the unit-vector families are real, whatever the field of the form
    head = TestFamily((VectorSeq(np.eye(2), SpaceSpec.linf(2)),))
    assert head.columns[0].field is ScalarField.REAL
    head_file = write_json(tmp_path / "head.json", head.to_json())
    assert main(["verify", "almost", littlewood_complex_file, head_file,
                 "--curry", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["field"] == "complex"
    A = summability.random_form(np.random.default_rng(0), (3, 3), ScalarField.COMPLEX)
    cert = summability.random_family_search(A, summability.ExponentTuple(1, (2, 2)),
                                            budget=16, seed=0)
    assert cert.family.columns[0].field is ScalarField.REAL  # a structured winner
    form_file = write_json(tmp_path / "form.json", A.to_json())
    assert main(["search", form_file, "--p", "1", "--qs", "2,2", "--budget", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["field"] == "complex"
    assert doc["certificate"]["ratio"] == cert.ratio


def test_verify_inclusion_battery(tmp_path):
    out = tmp_path / "inc.json"
    assert main(["verify", "inclusion", "--random", "10", "--m", "3",
                 "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0
    assert list(doc["reports"][0]["witness"]) == ["instance", "length"]


def test_inclusion_lift_below_its_source_is_inconclusive(monkeypatch, capsys):
    lift = cli.lift_families

    def short(*args):  # as if a heuristic weak norm had come out too low
        return [dataclasses.replace(
            res, derived=dataclasses.replace(res.derived, lhs_exact=False), monotone=False)
            for res in lift(*args)]

    monkeypatch.setattr(cli, "lift_families", short)
    assert main(["verify", "inclusion", "--random", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["status"], r["exact_norm"]) for r in doc["reports"]] == [("inconclusive", False)] * 2


def test_verify_random_zero_runs_nothing(capsys):
    for suite in ("inclusion", "littlewood", "dv"):
        assert main(["verify", suite, "--random", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"] == []
        assert doc["summary"]["total"] == 0


def test_search_command(littlewood_file, tmp_path):
    out = tmp_path / "search.json"
    assert main(["search", littlewood_file, "--p", "1", "--qs", "2,2",
                 "--budget", "32", "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"]["ratio"] >= 2.0 - 1e-12
    assert "family" in doc["certificate"]


@pytest.mark.parametrize("command", ["search", "experiment"])
def test_search_refuses_a_jmax_over_the_draw_budget(littlewood_file, capsys, command):
    argv = (["search", littlewood_file, "--p", "1", "--qs", "2,2"] if command == "search"
            else ["experiment", "--count", "1"])
    assert main(argv + ["--budget", "1", "--jmax", str(2 ** 50)]) == 3
    err = capsys.readouterr().err
    assert "--jmax" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["search", "experiment"])
def test_search_refuses_a_budget_over_the_trial_budget(littlewood_file, capsys, monkeypatch,
                                                      command):
    # a search draws every trial's length before it scores any, so its trials
    # are capped at 2^22, and a larger --budget exits 3 before any draw
    drawn = []

    def one_zero_trial(seed, budget, j_max, per):  # in place of the 2^22 trials
        drawn.append(budget)
        yield np.array([1]), np.array([0]), np.zeros(per)

    monkeypatch.setattr(summing, "_chunks_drawn", one_zero_trial)
    argv = (["search", littlewood_file, "--p", "1", "--qs", "2,2"] if command == "search"
            else ["experiment", "--count", "1"])
    assert main(argv + ["--budget", str(2 ** 22 + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --budget 4194305")
    assert drawn == []
    assert main(argv + ["--budget", str(2 ** 22)]) == 0
    assert drawn == [2 ** 22]


@pytest.mark.parametrize("argv,option", [
    (["--count", "0", "--budget", "999999999"], "--budget 999999999"),
    (["--count", "0", "--jmax", "100000000"], "--jmax 100000000"),
    (["--count", "1", "--budget", str(2 ** 22 + 1)], "--budget 4194305"),
    (["--count", "1", "--jmax", str(2 ** 22 // 12 + 1)], "--jmax 349526"),
])
def test_experiment_refuses_its_searches_before_any_draw(argv, option, monkeypatch, capsys):
    # the default complex 3 x 3 forms draw 12 normal numbers a vector: the
    # search's bounds are checked before the first form is drawn, whatever --count
    drawn = []
    monkeypatch.setattr(summing, "random_form", lambda *a, **k: drawn.append(a))
    assert main(["experiment"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {option}: ")
    assert drawn == []


def test_experiment_coefficient_budget(monkeypatch, capsys):
    # m x m forms of more than 2^22 coefficients are refused before anything is drawn
    calls = []
    monkeypatch.setattr(cli, "summing_experiment", lambda *a, **k: calls.append(a) or [])
    assert main(["experiment", "--m", "2049", "--count", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: experiment draws forms of order 2 and dimension up to 2049, which need up "
        "to 2049^2 coefficients, over the budget 4194304\n")
    assert calls == []
    assert main(["experiment", "--m", "2048", "--count", "1"]) == 0
    assert len(calls) == 1


def test_threads_flag_is_rejected(littlewood_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", littlewood_file, "--p", "1", "--qs", "2,2",
              "--threads", "2"])
    assert exc.value.code == 3
    assert "--threads" in capsys.readouterr().err


def test_search_exponent_mismatch(littlewood_file, capsys):
    # the library refuses the tuple before any trial; main maps that to exit 3
    assert main(["search", littlewood_file, "--p", "1", "--qs", "2,2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exponent tuple has 3 slots, form has 2\n"


def test_csv_format(tmp_path):
    out = tmp_path / "rep.csv"
    assert main(["verify", "littlewood", "--random", "5", "--m", "3",
                 "--seed", "1", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,field,p,q,lhs,rhs,ratio,bound,exact_norm,status"
    assert len(lines) == 6
    assert lines[1].startswith("littlewood_43,real,4/3,")


def test_experiment_command(tmp_path):
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    base = ["experiment", "--p", "4/3", "--q", "2", "--m", "2",
            "--count", "2", "--budget", "10", "--seed", "4"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert len(doc["records"]) == 2
    assert all(math.isfinite(r["best_ratio"]) for r in doc["records"])


def test_experiment_csv(tmp_path, capsys):
    base = ["experiment", "--p", "1", "--q", "2", "--m", "2", "--count", "3",
            "--budget", "4", "--jmax", "3", "--field", "real", "--seed", "2"]
    assert main(base) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    out = tmp_path / "e.csv"
    assert main(base + ["--format", "csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}: ")
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == list(records[0])
    assert len(rows) == 1 + len(records)
    for row, rec in zip(rows[1:], records):
        assert row == [str(v) for v in rec.values()]


def _strict(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_demos_command(capsys):
    assert main(["demos"]) == 0
    doc = _strict(capsys.readouterr().out)
    assert doc["command"] == "demos" and doc["config"] == {}
    assert doc["summary"] == {"total": len(doc["claims"]), "pass": len(doc["claims"]), "fail": 0}
    assert all(row["status"] == "pass" for row in doc["claims"])
    # a row without a relative margin states an exact value
    assert all(row["exact"] for row in doc["claims"] if not row["margin_rel"])
    heuristic = [row for row in doc["claims"] if row["margin_rel"]]
    assert [row["input"][:3] for row in heuristic] == ["F_3", "F_5", "F_6", "F_7"]
    assert not any(row["exact"] for row in heuristic)


def _one_sweep(monkeypatch):
    monkeypatch.setattr(forms, "_SWEEPS", 1)


def _polish_to_zero(monkeypatch):
    monkeypatch.setattr(forms, "_polish", lambda jobs, balls, floors=None: [
        (0.0, tuple(v[0] for v in vectors)) for _, vectors in jobs])


def _end_scaled_down(monkeypatch):
    end = forms._ball_sup_end

    def scaled(started, floors=None):
        values, exact, witnesses = end(started, floors)
        return values * (1 - 1e-9), exact, witnesses
    monkeypatch.setattr(forms, "_ball_sup_end", scaled)
    monkeypatch.setattr(summing, "_ball_sup_end", scaled)


@pytest.mark.parametrize("plant", [_one_sweep, _polish_to_zero, _end_scaled_down])
def test_demos_fails_a_planted_kernel_defect(plant, monkeypatch):
    plant(monkeypatch)
    assert "fail" in [row["status"] for row in demos.evaluate_claims()]


def test_demos_fails_a_claim_one_ulp_past_its_margin(capsys, monkeypatch):
    main(["demos"])
    row = _strict(capsys.readouterr().out)["claims"][1]  # T_3, a margin of 1 ulp
    assert row["margin_ulps"] == 1
    target = row["value"] + (row["margin_ulps"] + 1) * math.ulp(row["target"])
    claims = list(demos.CLAIMS)
    claims[1] = claims[1]._replace(target=target)
    monkeypatch.setattr(demos, "CLAIMS", claims)
    assert main(["demos"]) == 2
    doc = _strict(capsys.readouterr().out)
    assert [r["status"] for r in doc["claims"]].count("fail") == doc["summary"]["fail"] == 1
    assert doc["claims"][1]["status"] == "fail"


def test_fail_exit_code(tmp_path, monkeypatch):
    # an impossibly small constant forces hard failures on exact instances
    monkeypatch.setitem(summing._CONSTANTS, ("general_littlewood", ScalarField.REAL), 0.0001)
    out = tmp_path / "fail.json"
    code = main(["verify", "general", "--random", "5", "--m", "3",
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] > 0
