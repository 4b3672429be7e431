"""Compare the report bodies of two source trees over the benchmark's commands.

    python3 scripts/compare_reports.py OLD_SRC NEW_SRC [--seeds 1,2,...,10]

OLD_SRC and NEW_SRC are directories that hold a ``summability`` package
(for example ``src`` of two checkouts). The script runs the seeded batches of
every workload for the seeds of ``--seeds`` (a comma-separated list, by
default 1 to 10: 2901 bodies, about 50 s on one core), from
``perfbench/workloads.py`` (read, never edited), and ``summability demos``
through ``summability.cli.main`` in this process, first with the old
package, then with the new one, and prints:

- per workload, how many commands give identical exit code, stdout and
  stderr, and per command kind how many do not;
- every report or claim whose ``status`` changed, and apart from them every
  report or claim one side has and the other has not (reports are matched
  by their place in the list, claims by their ``claim`` text);
- per key path (``config.seed``, ``reports[].field``), how many bodies lost
  or gained the key, and how many bodies changed a string there from one
  value to another (``status`` aside, listed above);
- per JSON key, how many numbers went up and down, the largest relative
  rise and fall, and the largest change in ulps (the doubles from the old
  number to the new one); numbers of a record flagged exact are counted apart;
- last, one line saying whether every body is identical.

It exits 1 when a status changed or an exit code differs, else 0: an added
or removed report or claim is listed, but changes no status. Run it
with BLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``) for the same
bytes the benchmark sees.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import struct
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def run_all(src: Path, seeds, workdir: Path) -> dict:
    """(workload, seed, index) -> (exit code, stdout, stderr, kind) with the
    package in ``src``; ``demos`` is the workload "demos" of seed 0."""
    for name in [m for m in sys.modules if m == "summability" or m.startswith("summability.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import summability.cli as cli
        if Path(cli.__file__).resolve().parent.parent != src.resolve():
            raise SystemExit(f"{src} holds no summability package")
        results = {("demos", 0, 0): _run(cli, ["demos"]) + ("demos",)}
        for wname, workload in WORKLOADS.items():
            for seed in seeds:
                for i, cmd in enumerate(workload.batch(seed)):
                    for fname, doc in cmd.files.items():
                        (workdir / fname).write_text(json.dumps(doc), encoding="utf-8")
                    argv = [str(workdir / a) if a in cmd.files else a for a in cmd.argv]
                    results[wname, seed, i] = _run(cli, argv) + (cmd.kind,)
        return results
    finally:
        sys.path.remove(str(src))


def _run(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _walk(old, new, path: str, key: str, exact: bool, out: list, changes: set) -> None:
    """Append (key, old, new, exact) to ``out`` for every pair of differing
    numbers, and add (key path, change) to ``changes`` for every key lost or
    gained and every string other than a status that changed."""
    if isinstance(old, dict) and isinstance(new, dict):
        exact = exact or old.get("exact_norm") is True or old.get("exact") is True
        keys = {k: f"{path}.{k}" if path else k for k in old.keys() | new.keys()}
        changes.update((keys[k], "lost") for k in old.keys() - new.keys())
        changes.update((keys[k], "gained") for k in new.keys() - old.keys())
        for k in old.keys() & new.keys():
            flag = old.get(f"{k}_exact")
            if isinstance(flag, list):
                for j, (a, b) in enumerate(zip(old[k], new[k])):
                    _walk(a, b, f"{keys[k]}[]", k, exact or flag[j] is True, out, changes)
            else:
                _walk(old[k], new[k], keys[k], k, exact or flag is True, out, changes)
    elif isinstance(old, list) and isinstance(new, list):
        for a, b in zip(old, new):
            _walk(a, b, f"{path}[]", key, exact, out, changes)
    elif isinstance(old, float) and isinstance(new, float) and old != new:
        out.append((key, old, new, exact))
    elif isinstance(old, str) and isinstance(new, str) and old != new and key != "status":
        changes.add((path, f"{old!r} -> {new!r}"))


def _statuses(doc) -> dict:
    """The status of each report, keyed by ("reports", its place), and of
    each claim (``demos``), keyed by ("claims", its claim text), of a document."""
    if not isinstance(doc, dict):
        return {}
    rows = {("reports", i): r.get("status") for i, r in enumerate(doc.get("reports", []))}
    rows.update((("claims", r.get("claim", i)), r.get("status"))
                for i, r in enumerate(doc.get("claims", [])))
    return rows


def compare(old: dict, new: dict) -> int:
    identical = defaultdict(lambda: [0, 0])
    changed = defaultdict(int)
    status_changes, code_changes, drifts = [], [], []
    added, removed = [], []  # (body, kind, row) of the rows one side lacks
    key_changes = Counter()  # (key path, change) -> bodies
    for cid, (code, text, err, kind) in old.items():
        ncode, ntext, nerr, _ = new[cid]
        identical[cid[0]][1] += 1
        if (code, text, err) == (ncode, ntext, nerr):
            identical[cid[0]][0] += 1
            continue
        changed[kind] += 1
        if code != ncode:
            code_changes.append((cid, kind, code, ncode))
        try:
            a, b = json.loads(text), json.loads(ntext)
        except json.JSONDecodeError:
            continue
        rows, nrows = _statuses(a), _statuses(b)
        status_changes.extend((cid, kind, row, rows[row], nrows[row])
                              for row in rows.keys() & nrows.keys() if rows[row] != nrows[row])
        added.extend((cid, kind, row) for row in nrows.keys() - rows.keys())
        removed.extend((cid, kind, row) for row in rows.keys() - nrows.keys())
        changes = set()
        _walk(a, b, "", "", False, drifts, changes)
        key_changes.update(changes)

    for wname, (same, total) in identical.items():
        print(f"{wname}: {same}/{total} bodies identical")
    for kind, count in sorted(changed.items()):
        print(f"  changed: {count} x {kind}")
    print(f"exit-code changes: {len(code_changes)}")
    for change in code_changes:
        print("  ", *change)
    print(f"status changes: {len(status_changes)}")
    for change in status_changes:
        print("  ", *change)
    for what, rows in (("added", added), ("removed", removed)):
        print(f"rows {what}: {len(rows)}")
        for row in rows:
            print("  ", *row)
    print(f"key changes: {len(key_changes)}")
    for (path, change), count in sorted(key_changes.items()):
        print(f"  {path}: {change} in {count} bodies")
    per_key = defaultdict(lambda: [0, 0, 0.0, 0.0, 0])
    flagged_exact = 0
    for key, a, b, exact in drifts:
        flagged_exact += exact
        rel = (b - a) / abs(a) if a else math.copysign(math.inf, b - a)
        row = per_key[key]
        row[0 if b > a else 1] += 1
        row[2], row[3] = max(row[2], rel), min(row[3], rel)
        row[4] = max(row[4], ulps(a, b))
    print(f"changed numbers: {len(drifts)}, of them flagged exact: {flagged_exact}")
    for key, (up, down, rise, fall, most) in sorted(per_key.items()):
        print(f"  {key}: {up} up (largest {rise:+.3e}), {down} down (largest {fall:+.3e}),"
              f" largest {most} ulps")
    same = sum(s for s, _ in identical.values())
    total = sum(t for _, t in identical.values())
    print(f"every body identical: {'yes' if same == total else 'no'} ({same}/{total})")
    return 1 if status_changes or code_changes else 0


def ulps(a: float, b: float) -> int:
    """How many doubles lie from ``a`` up or down to ``b``: 1 for neighbours,
    also across a power of two or across zero (0.0 and -0.0 are one)."""
    def ordinal(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits + 2 ** 63)
    return abs(ordinal(b) - ordinal(a))


def _seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeated seed in {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=_seeds, default=tuple(range(1, 11)),
                        help="comma-separated workload seeds (default 1 to 10)")
    args = parser.parse_args(argv)
    seeds = args.seeds
    with tempfile.TemporaryDirectory() as tmp:
        old = run_all(args.old_src, seeds, Path(tmp))
        new = run_all(args.new_src, seeds, Path(tmp))
    return compare(old, new)


if __name__ == "__main__":
    sys.exit(main())
