"""scripts/compare_reports.py: a status change is a row of both documents
whose status differs; rows one side lacks are listed apart."""

import importlib.util
import json
from pathlib import Path

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
