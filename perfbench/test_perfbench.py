"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Each output check must reject a deliberately wrong output, and the tracer
must put back every function it wrapped.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rhfill.convergence import elliptic_generators
from rhfill.cusped import CuspedGraph, ExactCuspedMetric, build_cusped_ball
from rhfill.filling_geometry import build_quotient_cusped, injectivity_report
from rhfill.groups import enumerate_ball, make_filling, standard_f2_pair

import spans
import verify
import worker

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def pair():
    return standard_f2_pair()


@pytest.fixture(scope="module")
def window(pair):
    return build_cusped_ball(pair, 3)


@pytest.fixture(scope="module")
def rows(window):
    adj = verify.adjacency_lists(window.n_vertices, window.edges_u, window.edges_v)
    return {s: verify.bfs_row(adj, s) for s in range(0, window.n_vertices, 7)}


def test_rows_reject_perturbed_distance(window, rows):
    D = window.distance_matrix()
    assert verify.check_rows("w", D, rows) == []
    bad = D.copy()
    s = next(iter(rows))
    bad[s, -1] += 1
    assert verify.check_rows("w", bad, rows)


def test_exact_metric_rejects_perturbed_distance(pair, window, rows):
    metric = ExactCuspedMetric(pair)
    assert verify.check_exact_metric(
        window, rows, metric, np.random.default_rng(0), 5) == []
    s = next(iter(rows))
    wrong = dict(rows)
    wrong[s] = rows[s] + 1
    wrong[s][s] = 0
    assert verify.check_exact_metric(
        window, {s: wrong[s]}, metric, np.random.default_rng(0), 5)


def test_witness_rejects_wrong_delta(window, rows):
    quad = list(rows)[:4]
    delta = verify.four_point_defect(rows, quad)
    assert verify.check_witness(rows, quad, delta) == []
    assert verify.check_witness(rows, quad, delta + 0.5)


def test_lipschitz_rejects_stretching_map(pair):
    fg = build_quotient_cusped(pair, make_filling(pair, {0: ["a^3"], 1: ["b^3"]}), 2)
    src = verify.adjacency_lists(fg.source.n_vertices, fg.source.edges_u,
                                 fg.source.edges_v)
    tgt = verify.adjacency_lists(fg.target.n_vertices, fg.target.edges_u,
                                 fg.target.edges_v)
    sources = range(fg.source.n_vertices)
    assert verify.check_lipschitz(src, tgt, fg.vertex_map, sources) == []
    shuffled = np.random.default_rng(1).permutation(fg.vertex_map)
    assert verify.check_lipschitz(src, tgt, shuffled, sources)


def test_ball_sizes_reject_wrong_size(pair):
    sizes = {r: len(enumerate_ball(pair.group, r)) for r in range(5)}
    assert verify.check_ball_sizes(sizes) == []
    sizes[3] += 1
    assert verify.check_ball_sizes(sizes)


def test_power_identity_rejects_wrong_order():
    assert verify.check_power_identity(elliptic_generators(20), 20) == []
    assert verify.check_power_identity(elliptic_generators(20), 19)


def test_injectivity_rejects_flipped_verdict_and_wrong_ball(pair):
    report = injectivity_report(make_filling(pair, {0: ["a^20"], 1: ["b^20"]}), 5)
    assert verify.check_injectivity(report, 20, 5) == []
    assert verify.check_injectivity(dict(report, group_injective=False), 20, 5)
    assert verify.check_injectivity(dict(report, ball_size=484), 20, 5)
    # below the guaranteed radius a collision is allowed
    short = injectivity_report(make_filling(pair, {0: ["a^3"], 1: ["b^3"]}), 2)
    assert verify.check_injectivity(short, 3, 2) == []


def test_summary_rejects_flipped_verdict():
    tasks = [{"task": "00-x", "pass": True}, {"task": "01-y", "pass": True}]
    summary = {"tasks": tasks, "pass": True}
    assert verify.check_summary(0, summary, 2) == []
    flipped = {"tasks": [tasks[0], dict(tasks[1], **{"pass": False})],
               "pass": True}
    assert verify.check_summary(0, flipped, 2)
    assert verify.check_summary(1, summary, 2)
    assert verify.check_summary(0, summary, 3)


def test_failed_operation_is_counted():
    res = worker.Result()
    res.op(True, "a")
    res.op(False, "b")
    assert (res.attempted, res.failed) == (2, 1)


def test_digest_sees_one_changed_byte(tmp_path):
    (tmp_path / "a.json").write_text("{}\n")
    before = verify.dir_digest(tmp_path)
    assert verify.dir_digest(tmp_path) == before
    (tmp_path / "a.json").write_text("{ }\n")
    assert verify.dir_digest(tmp_path) != before


def _package_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "rhfill" or name.startswith("rhfill.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_wrapped_function(pair):
    before = _package_bindings()
    tracer = spans.Tracer()
    with tracer:
        import rhfill.metric_checks as mc
        assert mc.build_cusped_ball is not before[("rhfill.metric_checks",
                                                   "build_cusped_ball")]
        assert CuspedGraph.distance_matrix is not before[
            ("rhfill.cusped", "CuspedGraph", "distance_matrix")]
        w = mc.build_cusped_ball(pair, 2)
        w.certified_pairs_matrix()
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not [k for k, v in after.items()
                if hasattr(v, "__perfbench_original__")]
    m = tracer.metrics()
    assert m["cusped.window_vertices"] == w.n_vertices
    assert m["cusped.certified_pairs_matrix.calls"] == 1
    assert m["cusped.distance_matrix.calls"] == 1
    assert m["cusped.dense_matrix_mib"] == w.n_vertices ** 2 * 8 / 2 ** 20
    # certified_pairs_matrix's time includes its distance_matrix child,
    # and the layer's self time counts it once
    assert m["cusped.certified_pairs_matrix.s"] >= m["cusped.distance_matrix.s"]
    total = sum(end - start for _, _, start, end, parent in tracer.spans
                if parent is None)
    assert m["cusped.self_s"] == pytest.approx(total)


def test_traced_metrics_match_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = dict(spans.metric_units(), **{"trace.overhead_s": "s"})
    assert declared == reported
