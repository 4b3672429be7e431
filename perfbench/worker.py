"""One workload run in a fresh process: drive ``summability.cli.main`` in a
closed loop, check every output, and print one JSON result line.

Started by ``run.py`` with the BLAS and OpenMP thread counts pinned to 1.
Both modes run the seed's batch of commands (``Workload.batch``). Untraced
runs pass over it repeatedly for ``--seconds``; traced runs execute each
command once traced and once untraced, which gives the tracing overhead.
Every repeat of a command is compared byte for byte with its first output,
and every command time is also expressed at the nominal machine speed with
a calibration taken right after it (see ``calibration.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import summability.cli as cli  # noqa: E402
from calibration import NOMINAL_S, calibration, scaled  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 2
class CheckFailed(Exception):
    pass


def _reject_constant(token):
    raise CheckFailed(f"non-strict JSON token {token}")


def _has_fail_status(node) -> bool:
    if isinstance(node, dict):
        return node.get("status") == "fail" or any(
            _has_fail_status(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_fail_status(v) for v in node)
    return False


def _exact_flags(doc: dict) -> list[bool]:
    """Every exactness flag a report carries."""
    flags = [bool(r["exact_norm"]) for r in doc.get("reports", [])
             if r.get("check") != "search"]
    cert = doc.get("certificate")
    if cert is not None:
        flags.append(bool(cert["exact"]))
        flags.extend(bool(x) for x in cert["weak_norms_exact"])
    for rec in doc.get("records", []):
        flags.append(bool(rec["weak_norms_exact"]))
        flags.append(bool(rec["op_norm_exact"]))
    return flags


def _decode(values, is_complex: bool) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1] if is_complex else a


def _pnorm(values: np.ndarray, p: str) -> float:
    a = np.abs(values)
    if p == "inf":
        return float(a.max())
    num, _, den = p.partition("/")
    pv = float(num) / float(den or 1)
    return float((a ** pv).sum() ** (1.0 / pv))


def _recheck_certificate(cmd: Command, doc: dict) -> None:
    """Re-evaluate lhs = ||(A(x_j^1, ..., x_j^n))_j||_p from the exported family."""
    form = cmd.files[cmd.cert_form]
    is_complex = form["field"] == "complex"
    coeffs = _decode(form["coeffs"], is_complex).reshape(form["dims"])
    cert = doc["certificate"]
    columns = [_decode(c["vectors"], c["field"] == "complex")
               for c in cert["family"]["columns"]]
    letters = "abcdefgh"[: coeffs.ndim]
    subs = letters + "," + ",".join("j" + c for c in letters) + "->j"
    lhs = _pnorm(np.einsum(subs, coeffs, *columns), cmd.cert_p)
    if not math.isclose(lhs, cert["lhs"], rel_tol=1e-9, abs_tol=1e-12):
        raise CheckFailed(f"certificate lhs {cert['lhs']!r}, re-evaluated {lhs!r}")


class Runner:
    """Closed loop over commands: one client, each command after the last returns.

    ``cid`` identifies a command of the batch. Its first execution is checked;
    every later one must return the same bytes.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0
        self.reasons: dict[int, str] = {}
        self.flags: dict[int, list[bool]] = {}
        self.calibrations: list[float] = []
        self._digests: dict[int, bytes] = {}

    @property
    def machine_scale(self) -> float:
        """Typical factor converting this run's times to the nominal speed."""
        return NOMINAL_S / statistics.median(self.calibrations)

    def _argv(self, cmd: Command) -> list[str]:
        for name, doc in cmd.files.items():
            (self.workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        return [str(self.workdir / a) if a in cmd.files else a for a in cmd.argv]

    def invoke(self, cmd: Command) -> tuple[float, int | None, str, str]:
        argv = self._argv(cmd)
        out, err = io.StringIO(), io.StringIO()
        code: int | None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed command, not a crash
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        return elapsed, code, out.getvalue(), err.getvalue()

    def _check(self, cid: int, cmd: Command, code, text: str, err: str) -> None:
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.strip()[:200]}")
        doc = json.loads(text, parse_constant=_reject_constant)
        if _has_fail_status(doc):
            raise CheckFailed('"status": "fail" in report')
        self.flags[cid] = _exact_flags(doc)
        if cmd.cert_form is not None:
            _recheck_certificate(cmd, doc)

    def execute(self, cid: int, cmd: Command) -> tuple[float, float]:
        """Run command ``cid`` once. Return its wall time, and that time
        scaled to the nominal machine speed by a calibration taken right after."""
        elapsed, code, text, err = self.invoke(cmd)
        self.calibrations.append(calibration())
        elapsed_scaled = scaled(elapsed, self.calibrations[-1])
        body = text.encode("utf-8")
        digest = hashlib.sha256(body).digest()
        self.attempted += 1
        if cid not in self._digests:
            self._digests[cid] = digest
            self.report_bytes += len(body)
            try:
                self._check(cid, cmd, code, text, err)
            except (CheckFailed, json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                self.reasons[cid] = f"{cmd.kind}: {exc}"
        elif digest != self._digests[cid]:
            self.reasons.setdefault(cid, f"{cmd.kind}: body differs on re-run")
        if cid in self.reasons:
            self.failed += 1
        return elapsed, elapsed_scaled


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_untraced(workload, seed: int, seconds: float, runner: Runner) -> dict:
    """Cycle through the seed's batch until ``seconds`` are used, at least twice.

    Each command's time is the lowest of its executions, each scaled to the
    nominal machine speed: scaling removes the drift of the machine over
    the run, the minimum removes short spells of interference.
    """
    batch = workload.batch(seed)
    best = [math.inf] * len(batch)
    best_unscaled = [math.inf] * len(batch)
    start = time.perf_counter()
    deadline = start + seconds
    executions = 0
    while executions < MIN_PASSES * len(batch) or time.perf_counter() < deadline:
        cid = executions % len(batch)
        elapsed, elapsed_scaled = runner.execute(cid, batch[cid])
        best[cid] = min(best[cid], elapsed_scaled)
        best_unscaled[cid] = min(best_unscaled[cid], elapsed)
        executions += 1

    flags = [f for cid in range(len(batch)) for f in runner.flags.get(cid, [])]
    return {
        "passes": round(executions / len(batch), 2),
        "commands": len(batch),
        "machine_scale": runner.machine_scale,
        "metrics": {
            **_timing_metrics(batch, best),
            "exact_share": sum(flags) / len(flags) if flags else 0.0,
            "ok_share": 1.0 - runner.failed / runner.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "unscaled": _timing_metrics(batch, best_unscaled),
        "tail_percentile": _tail(best)[1],
        "wall_s": time.perf_counter() - start,
    }


def _timing_metrics(batch: list[Command], times: list[float]) -> dict:
    busy = sum(times)
    return {
        "instances_per_s": sum(c.instances for c in batch) / busy,
        "trials_per_s": sum(c.trials for c in batch) / busy,
        "op_s.p50": float(np.median(times)),
        "op_s.tail": _tail(times)[0],
    }


def run_traced(workload, seed: int, runner: Runner, spans_path: Path) -> dict:
    """Each command of the batch runs traced and untraced back to back, in
    alternating order, so that drift in machine speed falls on both evenly."""
    batch = workload.batch(seed)
    tracer = Tracer()
    wall = {True: 0.0, False: 0.0}
    for cid, cmd in enumerate(batch):
        tracer.command = cid
        for traced in ((True, False) if cid % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
            try:
                wall[traced] += runner.execute(cid, cmd)[1]
            finally:
                if traced:
                    tracer.uninstall()
    spans = tracer.arrays()
    tracer.save(spans_path)
    metrics = layer_metrics(spans, tracer.counters)
    metrics.update({
        "cli.report_bytes": runner.report_bytes,
        "trace.wall_s": wall[True],
        "trace.overhead_s": wall[True] - wall[False],
    })
    scale = runner.machine_scale
    metrics = {k: v * scale if k.endswith("_s") and not k.startswith("trace.") else v
               for k, v in metrics.items()}
    return {"passes": 2, "commands": len(batch), "machine_scale": scale,
            "metrics": metrics,
            "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        if args.trace:
            spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.npz"
            result = run_traced(workload, args.seed, runner, spans_path)
        else:
            result = run_untraced(workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": sorted(runner.reasons.values())[:20],
        "environment": _environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
