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


def test_search_command(littlewood_file, tmp_path):
    out = tmp_path / "search.json"
    assert main(["search", littlewood_file, "--p", "1", "--qs", "2,2",
                 "--budget", "32", "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"]["ratio"] >= 2.0 - 1e-12
    assert "family" in doc["certificate"]


def test_search_thread_invariance(littlewood_file, tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    base = ["search", littlewood_file, "--p", "1", "--qs", "2,2",
            "--budget", "48", "--seed", "2"]
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "4", "--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1["config"].pop("threads")
    d2["config"].pop("threads")
    assert d1 == d2


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
