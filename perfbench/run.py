"""Benchmark entry point for the summability CLI.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is used straight from ``src/``
(pure Python, nothing to build). The run measures set-up time in fresh
interpreters, then runs the workload in one fresh child process with
OPENBLAS/OMP/MKL thread counts pinned to 1, prints every metric by name and
unit, the provenance of the result, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Everything it writes goes under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibration, scaled
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_BEFORE, SETUP_AFTER = 5, 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, repeats: int, warm_up: bool) -> list[tuple[float, float]]:
    """Fresh interpreter until ``summability.cli`` is imported and its parser
    built: (seconds, seconds at nominal machine speed) per start.

    A warm-up start fills the bytecode cache, as any earlier call would have.
    """
    code = "from summability import cli; cli.build_parser()"
    times = []
    for i in range(repeats + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"importing summability.cli failed:\n"
                             f"{proc.stderr.decode(errors='replace')}")
        if i or not warm_up:
            times.append((elapsed, scaled(elapsed, calibration())))
    return times


def run_worker(args, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace").strip()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (no .git in this checkout)"
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def machine() -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if size:
            caches.append(f"L{level} {kind} {size}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor() or "unknown",
        "caches": caches,
        "platform": platform.platform(),
    }


def _declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in 1..60")
    if not (ROOT / "src" / "summability" / "cli.py").is_file():
        print(f"error: no summability sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        declared = _declared_metrics(args.trace)
        env = _child_env()
        # set-up samples on both sides of the workload, so that one slow
        # spell on a shared machine does not move their median
        setup = [] if args.trace else measure_setup(env, SETUP_BEFORE, True)
        result = run_worker(args, env, DEADLINE_S - (time.perf_counter() - started))
        if not args.trace:
            setup += measure_setup(env, SETUP_AFTER, False)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(s for _, s in setup)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: workload did not report {missing}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{result['commands']} commands, {result['passes']} passes")
    for m in declared:
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'fail_share':<40} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} commands)")
    print(f"  times (s, 1/s) are at the nominal machine speed; the run's median "
          f"scale factor was {result['machine_scale']:.4f}")
    if not args.trace:
        print(f"  unscaled: {json.dumps(result['unscaled'])}")
        print(f"  op_s.tail is p{result['tail_percentile']:.2f} of "
              f"{result['commands']} command times; setup_s is the median of "
              f"{len(setup)} starts, unscaled {statistics.median(t for t, _ in setup):.6g} s")
    for reason in result["failures"]:
        print(f"  failed: {reason}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "machine": machine(),
        **result["environment"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"provenance": provenance, "metrics": metrics,
              "setup_samples_s": setup,  # (measured, scaled) pairs
              **{k: v for k, v in result.items() if k not in ("metrics", "environment")}}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
