"""Self-test of the benchmark: every workload at a tiny size, traced and not.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert any(re.match(pattern, line) for line in lines), m["name"]
    assert any(line.lstrip().startswith("fail_share ") for line in lines)
    assert any(line.startswith("provenance {") for line in lines)


def test_traced_profile_matches_the_workload():
    """Heuristic weak norms dominate search-lp and are absent from search-sup."""
    lp = json.loads(_run(ROOT, "search-lp", 1).stdout.splitlines()[-1])["metrics"]
    sup = json.loads(_run(ROOT, "search-sup", 1).stdout.splitlines()[-1])["metrics"]
    assert (lp["norms.weak_lp_norm.heuristic.self_s"]["value"]
            > 0.5 * lp["trace.wall_s"]["value"])
    assert sup["norms.weak_lp_norm.heuristic.self_s"]["value"] == 0
    assert sup["forms.op_norm.calls"]["value"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_bad_output():
    sys.path.insert(0, str(HERE))
    import worker
    from workloads import SEARCH_SUP

    with pytest.raises(worker.CheckFailed):
        json.loads('{"lhs": NaN}', parse_constant=worker._reject_constant)
    assert worker._has_fail_status({"reports": [{"status": "pass"}, {"status": "fail"}]})

    import numpy as np
    cmd = SEARCH_SUP.commands(0, 0)[0]
    form = cmd.files[cmd.cert_form]
    coeffs = np.asarray(form["coeffs"]).reshape(form["dims"])
    rows = [np.eye(m)[:1] for m in form["dims"]]
    family = {"columns": [{"field": "real", "vectors": r.tolist()} for r in rows]}
    lhs = float(abs(coeffs[(0,) * coeffs.ndim]))
    doc = {"certificate": {"lhs": lhs, "family": family}}
    worker._recheck_certificate(cmd, doc)
    doc["certificate"]["lhs"] = lhs * (1 + 1e-6)
    with pytest.raises(worker.CheckFailed):
        worker._recheck_certificate(cmd, doc)
