import csv
import io
import json
import math

import numpy as np
import pytest

from summability import FormTensor, ScalarField, SpaceSpec, TestFamily, VectorSeq
from summability.cli import main


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the unscaled attempt
def test_norm_weak_overflowing_value_exits_3(tmp_path, capsys):
    # the weak-l_2 norm is 2e308: the rescaled kernel finds it is not a float
    path = write_json(tmp_path / "seq.json", {"field": "real", "dim": 2,
                                              "exponent": "2", "vectors": _HUGE})
    assert main(["norm", "weak", path, "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the unscaled attempt
def test_norm_rad_finite_value_of_overflowing_sums(tmp_path, capsys):
    # Rad_1 = 1.5e308, although the ++ sign sum is 3e308
    path = write_json(tmp_path / "seq.json", {"field": "real", "dim": 1,
                                              "exponent": "2",
                                              "vectors": [[1.5e308], [1.5e308]]})
    assert main(["norm", "rad", path, "--p", "1"]) == 0
    assert capsys.readouterr().out == "1.5e+308 exact\n"


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
    assert "non-negative" in capsys.readouterr().err


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


def test_verify_extended_real_gate(littlewood_file, tmp_path):
    out = tmp_path / "ext.json"
    code = main(["verify", "extended", littlewood_file, "--p", "4/3",
                 "--out", str(out)])
    assert code == 3  # real field rejected without the experimental flag
    code = main(["verify", "extended", littlewood_file, "--p", "4/3",
                 "--allow-real-experimental", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["status"] == "inconclusive"


def test_verify_dv_files(littlewood_file, family_file, tmp_path, capsys):
    out = tmp_path / "dv.json"
    assert main(["verify", "dv", littlewood_file, family_file,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rep = doc["reports"][0]
    assert rep["status"] == "pass"
    assert rep["lhs"] == pytest.approx(rep["rhs"], abs=1e-12)


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


def test_verify_almost_files(littlewood_file, family_file, tmp_path):
    out = tmp_path / "almost.json"
    assert main(["verify", "almost", littlewood_file, family_file,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["check"] == "almost_summing"


def test_verify_inclusion_battery(tmp_path):
    out = tmp_path / "inc.json"
    assert main(["verify", "inclusion", "--random", "10", "--m", "3",
                 "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0
    assert list(doc["reports"][0]["witness"]) == ["instance", "length"]


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


def test_threads_flag_is_rejected(littlewood_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", littlewood_file, "--p", "1", "--qs", "2,2",
              "--threads", "2"])
    assert exc.value.code == 3
    assert "--threads" in capsys.readouterr().err


def test_search_exponent_mismatch(littlewood_file):
    assert main(["search", littlewood_file, "--p", "1", "--qs", "2,2,2"]) == 3


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


def test_demos_command(capsys):
    assert main(["demos"]) == 0
    out = capsys.readouterr().out
    assert "demos passed" in out


def test_fail_exit_code(tmp_path):
    # an impossibly small constant forces hard failures on exact instances
    out = tmp_path / "fail.json"
    code = main(["verify", "general", "--random", "5", "--m", "3",
                 "--seed", "1", "--kg-real", "0.0001", "--out", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] > 0
