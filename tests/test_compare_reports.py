"""scripts/compare_reports.py: a status change is a row of both documents
whose status differs; rows one side lacks are listed apart."""

import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


def _bodies(doc):
    return {("demos", 0, 0): (0, json.dumps(doc), "", "demos")}


def _claims(*rows):
    return {"claims": [{"claim": claim, "value": 1.0, "status": status}
                       for claim, status in rows]}


def test_an_added_claim_is_no_status_change(capsys):
    old = _claims(("a", "pass"), ("b", "pass"))
    new = _claims(("a", "pass"), ("c", "pass"), ("b", "pass"))
    assert compare_reports.compare(_bodies(old), _bodies(new)) == 0
    out = capsys.readouterr().out
    assert "status changes: 0" in out
    assert "rows added: 1" in out and "'claims', 'c'" in out
    assert "rows removed: 0" in out


def test_a_flipped_status_exits_1(capsys):
    old = {"reports": [{"status": "pass"}, {"status": "pass"}]}
    new = {"reports": [{"status": "pass"}, {"status": "fail"}, {"status": "pass"}]}
    assert compare_reports.compare(_bodies(old), _bodies(new)) == 1
    out = capsys.readouterr().out
    assert "status changes: 1" in out and "('reports', 1) pass fail" in out
    assert "rows added: 1" in out


def test_ulps_counts_the_doubles_between_two_numbers():
    ulps = compare_reports.ulps
    assert ulps(1.0, 1.0) == 0
    assert ulps(1.0, math.nextafter(1.0, 2)) == 1
    # the spacing halves below a power of two, and the count follows it
    below = math.nextafter(math.nextafter(2.0, 0), 0)
    assert ulps(2.0, below) == ulps(below, 2.0) == 2
    assert ulps(-1.0, math.nextafter(-1.0, -2)) == 1
    assert ulps(math.nextafter(0.0, -1), math.nextafter(0.0, 1)) == 2


def test_per_key_line_gives_the_largest_change_in_ulps(capsys):
    one_up = math.nextafter(1.5, 2)
    old = {"reports": [{"status": "pass", "op_norm": 1.5, "rhs": 2.0},
                       {"status": "pass", "op_norm": -3.0, "rhs": 0.0}]}
    new = {"reports": [{"status": "pass", "op_norm": one_up, "rhs": 2.0},
                       {"status": "pass", "op_norm": math.nextafter(math.nextafter(-3.0, -4), -4),
                        "rhs": -1e-300}]}
    assert compare_reports.compare(_bodies(old), _bodies(new)) == 0
    out = capsys.readouterr().out
    assert "changed numbers: 3, of them flagged exact: 0" in out
    assert "  op_norm: 1 up (largest +1.480e-16), 1 down (largest -2.961e-16), largest 2 ulps" in out
    # a number that leaves zero is a fall of unbounded relative size
    rhs = next(line for line in out.splitlines() if line.startswith("  rhs:"))
    assert rhs.startswith("  rhs: 0 up (largest +0.000e+00), 1 down (largest -inf)")


def test_largest_ratio_per_check_and_field_on_each_side(capsys):
    def report(check, field, lhs, rhs):
        return {"check": check, "field": field, "lhs": lhs, "rhs": rhs, "status": "pass"}

    old = {"reports": [report("a", "real", 1.0, 4.0), report("a", "real", 3.0, 4.0),
                       report("b", "complex", 1.0, None), report("b", "real", 2.0, 0.0)]}
    new = {"reports": [report("a", "real", 1.0, 2.0), report("a", "complex", 1.0, 8.0)]}
    bodies = {("demos", 0, 0): (0, json.dumps(old), "", "demos"),
              ("demos", 0, 1): (0, "not json", "", "demos")}
    assert compare_reports.largest_ratios(bodies) == {("a", "real"): 0.75}
    assert compare_reports.compare(_bodies(old), _bodies(new)) == 0
    out = capsys.readouterr().out
    assert "largest lhs/rhs per (check, field), old -> new:\n" in out
    assert "  a complex: - -> 0.125\n  a real: 0.75 -> 0.5\n" in out


class _Workload:
    """A workload of two seeded littlewood commands per seed."""

    def __init__(self, m):
        self.m = m

    def batch(self, seed):
        return [SimpleNamespace(kind="verify littlewood", files={}, argv=[
            "verify", "littlewood", "--random", "2", "--m", str(self.m), "--seed", str(seed + k)])
                for k in range(2)]


def test_workloads_option_diffs_only_the_named_workloads(monkeypatch, capsys):
    # the script imports the package again from each tree: the modules of
    # this session are put back after the test
    for name, module in list(sys.modules.items()):
        if name == "summability" or name.startswith("summability."):
            monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(compare_reports, "WORKLOADS", {"a": _Workload(3), "b": _Workload(4)})
    src = str(SCRIPT.parent.parent / "src")
    assert compare_reports.main([src, src, "--seeds", "1,2", "--workloads", "b"]) == 0
    out = capsys.readouterr().out
    assert "b: 4/4 bodies identical" in out and "a:" not in out
    assert "every body identical: yes (5/5)" in out  # and demos
    assert compare_reports.main([src, src, "--seeds", "1"]) == 0  # every workload by default
    out = capsys.readouterr().out
    assert "a: 2/2 bodies identical" in out and "b: 2/2 bodies identical" in out
    for bad in ("c", "a,a", "a,"):
        with pytest.raises(SystemExit) as exc:
            compare_reports.main([src, src, "--workloads", bad])
        assert exc.value.code == 2
    assert "unknown workload 'c'" in capsys.readouterr().err
