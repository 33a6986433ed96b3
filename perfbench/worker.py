"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --rep I --trace 0|1 --out DIR

Run by `run.py` from the root of a checkout, with PERFBENCH_T0_NS set to
the parent's `time.monotonic_ns()` just before it started this process, so
that set-up time counts interpreter start-up and imports. Prints one JSON
object: set-up, wall and CPU time, peak RSS, the operations attempted and
failed, the problems the independent checks found and, with --trace 1, the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import verify

SCENARIO = Path("src/rhfill/data/sanov-filling.json")
LEMMA_RADIUS = 6
FILL_ORDERS = (20, 40, 60)
FILL_RADIUS = 5
ISOMETRY_RADIUS = 4
LIFT_PATHS = 1000
BALL_RADII = range(0, 9)   # word depth 8 is the chabauty task's ball
SAMPLE_SOURCES = 8         # BFS rows recomputed per window
EXACT_PAIRS_PER_SOURCE = 25


class Clock:
    """Wall and CPU time summed over the stretches that call the program,
    and peak RSS read at the end of each stretch, so that memory the checks
    use afterwards is not counted. A tracer, if given, is installed for
    these stretches only."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.peak_rss_mib = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        self._w = time.perf_counter()
        self._c = _cpu()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._w
        self.cpu += _cpu() - self._c
        self.peak_rss_mib = max(
            self.peak_rss_mib,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if self.tracer is not None:
            self.tracer.remove()
        return False


@contextlib.contextmanager
def keeping(module, names):
    """Pass-through wrappers on ``module``'s ``names`` that keep each last
    result in the yielded dict."""
    kept = {}
    originals = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            kept[name] = fn(*args, **kwargs)
            return kept[name]
        return wrapper

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield kept
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_digest: str | None = None

    def op(self, passed: bool, label: str) -> None:
        """One program operation whose own verdict must be a pass."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            print(f"operation failed: {label}", file=sys.stderr)


# ---------------------------------------------------------------------------
# scenario-sanov: the bundled scenario through run_scenario


def setup_scenario():
    from rhfill.scenarios import load_scenario
    return {"scenario": load_scenario(SCENARIO)}


def run_scenario(inputs, clock, res, rng, out_root):
    import rhfill.scenarios as scenarios
    from rhfill.groups import enumerate_ball
    out = Path(tempfile.mkdtemp(prefix="reports-", dir=out_root))
    try:
        with clock:
            code, summary = scenarios.run_scenario(SCENARIO, output_dir=out)
        res.report_digest = verify.dir_digest(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    sc = inputs["scenario"]
    for t in summary["tasks"]:
        res.op(bool(t.get("pass")), t["task"])
    res.problems += verify.check_summary(code, summary, len(sc.tasks))
    sizes = {r: len(enumerate_ball(sc.pair.group, r)) for r in BALL_RADII}
    res.problems += verify.check_ball_sizes(sizes)
    for n in sc.family.indices:
        res.problems += verify.check_power_identity(sc.family.rep(n), n)


# ---------------------------------------------------------------------------
# lemmas-r6: verify_metric_lemmas on one radius-6 certified window


def setup_lemmas():
    from rhfill.groups import standard_f2_pair
    return {"pair": standard_f2_pair()}


def run_lemmas(inputs, clock, res, rng, out_root):
    import rhfill.metric_checks as mc
    from rhfill.cusped import ExactCuspedMetric
    # the checks below read the window and the delta estimate that
    # verify_metric_lemmas builds
    with clock, keeping(mc, ("build_cusped_ball",
                             "four_point_delta_sampled")) as kept:
        report = mc.verify_metric_lemmas(inputs["pair"], radius=LEMMA_RADIUS)
    for c in report["checks"]:
        res.op(bool(c["pass"]), c["name"])
        if "pairs_checked" in c and c["pairs_checked"] <= 0:
            res.problems.append(f"lemmas: {c['name']} checked no pairs")
    window = kept["build_cusped_ball"]
    est = kept["four_point_delta_sampled"]
    if report["delta"]["value"] != est.delta:
        res.problems.append("lemmas: reported delta is not the estimate's")
    adj = verify.adjacency_lists(window.n_vertices, window.edges_u, window.edges_v)
    sources = set(rng.choice(window.n_vertices, SAMPLE_SOURCES, replace=False).tolist())
    rows = {s: verify.bfs_row(adj, s) for s in sources | set(est.witness)}
    D = window.distance_matrix()
    res.problems += verify.check_rows("lemmas", D, rows)
    res.problems += verify.check_exact_metric(
        window, {s: rows[s] for s in sorted(sources)},
        ExactCuspedMetric(inputs["pair"]), rng, EXACT_PAIRS_PER_SOURCE)
    res.problems += verify.check_witness(rows, est.witness, report["delta"]["value"])


# ---------------------------------------------------------------------------
# fillings-r5: quotient windows and the filling checks for a^n, b^n


def setup_fillings():
    from rhfill.groups import make_filling, standard_f2_pair
    pair = standard_f2_pair()
    fillings = {n: make_filling(pair, {0: [f"a^{n}"], 1: [f"b^{n}"]})
                for n in FILL_ORDERS}
    return {"pair": pair, "fillings": fillings}


def run_fillings(inputs, clock, res, rng, out_root):
    import rhfill.filling_geometry as fgm
    pair = inputs["pair"]
    for n, filling in inputs["fillings"].items():
        with clock:
            fg = fgm.build_quotient_cusped(pair, filling, FILL_RADIUS)
            reports = {
                "local-isometry": fgm.check_local_isometry(fg, ISOMETRY_RADIUS),
                "descent": fgm.check_descent_quasigeodesic(
                    fg, K=1.0, max_depth_used=2, samples=200, seed=0),
                "map": fgm.filling_map_report(fg),
                "lift": fgm.lift_roundtrip_report(fg, n_paths=LIFT_PATHS, seed=0),
                "injectivity": fgm.injectivity_report(filling, FILL_RADIUS),
            }
        for name, rep in reports.items():
            res.op(bool(rep["pass"]), f"n={n} {name}")
        res.problems += verify.check_injectivity(reports["injectivity"], n,
                                                 FILL_RADIUS)
        if reports["lift"]["paths"] != LIFT_PATHS:
            res.problems.append(f"lift n={n}: {reports['lift']['paths']} paths "
                                f"lifted, {LIFT_PATHS} asked")
        src, tgt = fg.source, fg.target
        src_adj = verify.adjacency_lists(src.n_vertices, src.edges_u, src.edges_v)
        tgt_adj = verify.adjacency_lists(tgt.n_vertices, tgt.edges_u, tgt.edges_v)
        sources = rng.choice(src.n_vertices, SAMPLE_SOURCES, replace=False).tolist()
        res.problems += verify.check_lipschitz(src_adj, tgt_adj,
                                               fg.vertex_map, sources)
        rows = {s: verify.bfs_row(src_adj, s) for s in sources[:2]}
        res.problems += verify.check_rows(f"fillings n={n}",
                                          src.distance_matrix(), rows)
        del fg, reports


WORKLOADS = {
    "scenario-sanov": (setup_scenario, run_scenario),
    "lemmas-r6": (setup_lemmas, run_lemmas),
    "fillings-r5": (setup_fillings, run_fillings),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True,
                    help="directory for temporary report files")
    args = ap.parse_args(argv)
    t0_ns = int(os.environ["PERFBENCH_T0_NS"])
    setup, run = WORKLOADS[args.workload]

    import rhfill
    src = Path("src").resolve()
    if src not in Path(rhfill.__file__).resolve().parents:
        print(f"rhfill imported from {rhfill.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    inputs = setup()
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9

    rng = np.random.default_rng([args.seed, args.rep])
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    clock = Clock(tracer)
    res = Result()
    run(inputs, clock, res, rng, args.out)
    out = {
        "setup_s": setup_s,
        "wall_s": clock.wall,
        "cpu_s": clock.cpu,
        "peak_rss_mib": clock.peak_rss_mib,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "report_digest": res.report_digest,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
