"""Benchmark entry point.

One run of one workload::

    python3 bench/run.py --workload serve-hot --seed 3 --trace 0

prints a table of every metric with its unit and sample count, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits non-zero when an operation failed or an output
was wrong.

Every workload, each run in a fresh process::

    python3 bench/run.py --seed 1

runs each workload :data:`REPEAT` times untraced (seeds ``seed`` ..
``seed + REPEAT - 1``) and once traced, prints the median, quartiles and
count of every metric, and appends one line to ``bench/trajectory.jsonl``.

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRAJECTORY = BENCH / "trajectory.jsonl"
#: Untraced runs per workload in a full run: enough for quartiles.
REPEAT = 10


def _parse(argv):
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_result(result) -> None:
    from bench.metrics import UNITS

    print(f"== {result.workload} (trace {result.trace}) digest {result.digest[:16]}")
    print(f"   attempted {result.attempted}, failed {result.failed}, mismatches {result.mismatches}")
    for note in result.notes[:10]:
        print(f"   {note}")
    print(f"   {'metric':<40} {'value':>14}  {'unit':<6} {'n':>7}")
    for name, value, unit, n in result.report:
        print(f"   {name:<40} {value:>14.4f}  {unit:<6} {n:>7}")
    for name, value in result.metrics.items():
        print(f" * {name:<40} {value:>14.6f}  {UNITS[name]:<6}")
    if result.layer_rows:
        total = sum(v for _, v in result.layer_rows)
        print(f"   {'self time by layer':<40} {'seconds':>14}  {'share':>6}")
        for layer, seconds in result.layer_rows:
            print(f"   {layer:<40} {seconds:>14.4f}  {seconds / total:>6.1%}")
        print(f"   {'sum of rows':<40} {total:>14.4f}")


def run_one(args) -> int:
    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, args.trace, work)
    except (workloads.BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {args.workload} could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_result(result)
    print(json.dumps(result.doc()), flush=True)
    return 0 if result.failed == 0 and result.mismatches == 0 else 1


def _child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh process; its stdout and parsed result."""
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = None
    return proc, doc


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def _git(*args: str) -> str:
    """Output of a git command in the checkout, or "unknown"."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(args) -> int:
    from bench import stats, workloads

    env = _environment()
    started = time.time()
    summary = {}
    status = 0
    for workload in workloads.WORKLOADS:
        values = {}
        failed = attempted = 0
        correct = True
        for i in range(REPEAT):
            proc, doc = _child(workload, args.seed + i, args.seconds, 0)
            if proc.returncode != 0 or doc is None:
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                status = 1
            if doc is None:
                continue
            attempted += doc["attempted"]
            failed += doc["failed"]
            correct = correct and doc["correct"]
            for name, metric in doc["metrics"].items():
                values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
        proc, traced = _child(workload, args.seed, args.seconds, 1)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or traced is None:
            sys.stderr.write(proc.stderr)
            status = 1
        summary[workload] = {
            "attempted": attempted,
            "failed": failed,
            "correct": correct and bool(traced and traced["correct"]),
            "end_to_end": {
                name: {
                    **stats.quartiles(vals), "spread": stats.spread(vals),
                    "unit": unit, "values": vals,
                }
                for name, (vals, unit) in values.items()
            },
            "per_layer": traced["metrics"] if traced else {},
        }
    print(f"\n== summary: seed {args.seed}, {REPEAT} untraced runs per workload")
    print(f"   {'workload':<13} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'n':>3}  unit")
    for workload, entry in summary.items():
        for name, s in entry["end_to_end"].items():
            print(
                f"   {workload:<13} {name:<14} {s['median']:>12.4f} {s['q1']:>12.4f} "
                f"{s['q3']:>12.4f} {s['spread']:>7.3f} {s['n']:>3}  {s['unit']}"
            )
        print(f"   {workload:<13} failed {entry['failed']} of {entry['attempted']}, correct {entry['correct']}")
    line = {
        "commit": _git("rev-parse", "HEAD"),
        # Uncommitted changes were measured too (e.g. before the
        # commit that adds them).
        "dirty": _git("status", "--porcelain") not in ("", "unknown"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "seed": args.seed,
        "repeat": REPEAT,
        "seconds": args.seconds,
        "env": env,
        "workloads": summary,
    }
    with open(TRAJECTORY, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended to {TRAJECTORY.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
