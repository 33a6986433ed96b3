"""Benchmark of rhfill: one workload, repeated for a fixed stretch of time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition starts a fresh interpreter
(`worker.py`), so peak RSS belongs to that repetition alone; repetitions run
one at a time. New repetitions start while the run is predicted to end
within S seconds, and at least MIN_REPS run (MIN_TRACED of each kind with
--trace 1). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the medians over repetitions of setup_s,
wall_s, cpu_s and peak_rss_mib. With --trace 1 untraced and traced
repetitions alternate; the metrics are the per-layer medians of the traced
ones plus trace.overhead_s, the median traced wall time minus the median
untraced one.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_units
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
MIN_TRACED = 2          # traced and untraced repetitions each, with --trace 1
RUN_LIMIT_S = 170       # every run ends well within three minutes
OUT_DIR = Path(".perfbench_out")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def worker_env() -> dict:
    """No more compute threads than the CPUs this process may use, and
    bytecode caching on whatever the caller's setting, as for an installed
    package; the first repetition of a fresh checkout compiles."""
    cpus = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["RHFILL_THREADS"] = str(cpus)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(args, rep: int, trace: int, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--trace", str(trace),
           "--out", str(OUT_DIR)]
    env = dict(env, PERFBENCH_T0_NS=str(time.monotonic_ns()))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {rep} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/rhfill/__init__.py").is_file():
        print("run from the root of an rhfill checkout (src/rhfill missing)",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = worker_env()
    OUT_DIR.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        rep = 0
        longest = 0.0
        while True:
            if args.trace:
                enough = min(len(plain), len(traced)) >= MIN_TRACED
            else:
                enough = len(plain) >= MIN_REPS
            if enough and time.monotonic() - started + longest > args.seconds:
                break
            trace = args.trace and rep % 2 == 1
            t = time.monotonic()
            result = run_rep(args, rep, int(trace), env, deadline)
            longest = max(longest, time.monotonic() - t)
            (traced if trace else plain).append(result)
            rep += 1
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    reps = plain + traced
    problems = [p for r in reps for p in r["problems"]]
    digests = {r["report_digest"] for r in reps if r["report_digest"]}
    if len(digests) > 1:
        problems.append(f"reports differ between repetitions ({len(digests)} "
                        "distinct report directories)")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        layers = traced[0]["layers"].keys()
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in layers}
        metrics["trace.overhead_s"] = (median_of(traced, "wall_s")
                                       - median_of(plain, "wall_s"))
        units = dict(metric_units(), **{"trace.overhead_s": "s"})
    else:
        metrics = {name: median_of(plain, name) for name in END_TO_END}
        units = END_TO_END
    for r in reps:
        print(f"rep: wall {r['wall_s']:.3f} s  setup {r['setup_s']:.3f} s  "
              f"cpu {r['cpu_s']:.3f} s  rss {r['peak_rss_mib']:.1f} MiB"
              + ("  traced" if "layers" in r else ""))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
