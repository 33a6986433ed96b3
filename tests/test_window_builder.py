"""Array-native cusped windows against the per-key reference builders kept
in reference_windows.py: ball keys in insertion order, vertex order, labels,
edges in order, distances from the identity, dump bytes and horoball ids,
plus the closed forms that replaced the entry and exit scans of the metric.
"""
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhfill.cusped import (ExactCuspedMetric, build_cusped_ball, dump_graph,
                           run_pair_blocks, run_pairs)
from rhfill.groups import (make_filling, make_oracle, make_pair,
                           standard_f2_pair)
from rhfill.metric_checks import _horoball_label
from reference_windows import (_horoball_members, exact_ball,
                               reference_approach, reference_ball,
                               reference_build_cusped_ball, reference_dist)

Z = {"kind": "free-abelian", "rank": 1}


def _free_product(*factors):
    return make_pair(make_oracle({"kind": "free-product",
                                  "factors": list(factors)}))


PAIRS = {
    "F2": standard_f2_pair,
    "Z/5 * Z": lambda: _free_product({"kind": "finite-cyclic", "order": 5}, Z),
    "Z^2 * Z": lambda: _free_product({"kind": "free-abelian", "rank": 2}, Z),
    "F2 / a^3, b^3": lambda: make_filling(
        standard_f2_pair(), {0: ["a^3"], 1: ["b^3"]}).quotient_pair,
    "F2 / a^20, b^20": lambda: make_filling(
        standard_f2_pair(), {0: ["a^20"], 1: ["b^20"]}).quotient_pair,
    "F2 / a^4": lambda: make_filling(
        standard_f2_pair(), {0: ["a^4"]}).quotient_pair,
}


@cache
def pair_named(name):
    return PAIRS[name]()


@st.composite
def windows(draw):
    name = draw(st.sampled_from(sorted(PAIRS)))
    radius = draw(st.integers(0, 5))
    max_depth = draw(st.one_of(st.none(), st.integers(0, radius + 1)))
    return pair_named(name), radius, max_depth


def assert_same_window(got, ref):
    assert got.vertices == ref.vertices
    assert got.depth.tolist() == ref.depth.tolist()
    assert got.labels == ref.labels
    assert got.coset_labels == ref.coset_labels
    assert got.edges_u.tolist() == ref.edges_u.tolist()
    assert got.edges_v.tolist() == ref.edges_v.tolist()
    assert got.edge_kind == ref.edge_kind
    assert got.meta["dist_from_id"].tolist() == ref.meta["dist_from_id"].tolist()
    assert (got.meta["radius"], got.meta["max_depth"]) == \
        (ref.meta["radius"], ref.meta["max_depth"])
    assert dump_graph(got).encode() == dump_graph(ref).encode()


def assert_same_horoballs(window):
    """Horoball ids in the reference's label order, with its members."""
    member = window.meta["horoball"]
    ref = _horoball_members(window)
    assert len(window.meta["horoball_coset"]) == len(ref)
    for h, (label, idx) in enumerate(ref.items()):
        assert _horoball_label(window, h) == label
        assert np.flatnonzero((member == h).any(axis=1)).tolist() == idx.tolist()
    # an interior vertex lies in one horoball, a depth-zero one in one each
    inside = (member >= 0).sum(axis=1)
    assert (inside[window.depth > 0] == 1).all()
    assert (inside[window.depth == 0] == len(window.pair.peripherals)).all()


@settings(max_examples=40, deadline=None)
@given(windows())
def test_window_matches_the_reference_builder(case):
    pair, radius, max_depth = case
    ball = exact_ball(ExactCuspedMetric(pair), radius, max_depth)
    assert list(ball.items()) == list(reference_ball(pair, radius,
                                                     max_depth).items())
    got = build_cusped_ball(pair, radius, max_depth)
    assert_same_window(got, reference_build_cusped_ball(pair, radius, max_depth))
    assert_same_horoballs(got)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_window_matches_the_reference_builder_at_radius_five(name):
    pair = pair_named(name)
    got = build_cusped_ball(pair, 5)
    assert_same_window(got, reference_build_cusped_ball(pair, 5))
    assert_same_horoballs(got)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_interior_costs_match_the_approach_scan(name):
    # an interior key (y, k) costs its coset's depth-zero cost plus the
    # cheapest entry into (y, k), which the ball and dist read as
    # horo_dip(|y|, k)
    pair = pair_named(name)
    metric = ExactCuspedMetric(pair)
    ball = exact_ball(metric, 4)
    for key, cost in ball.items():
        if key[0] == "h":
            _, pid, coset, y, k = key
            assert cost == ball["c", coset] + reference_approach(pair, pid, y, k)
            assert metric.dist(("c", ()), key) == cost


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PAIRS)), st.data())
def test_dist_matches_the_exit_point_scan(name, data):
    pair = pair_named(name)
    metric = ExactCuspedMetric(pair)
    keys = st.sampled_from(list(exact_ball(metric, 4)))
    for _ in range(20):
        u, v = data.draw(keys), data.draw(keys)
        assert metric.dist(u, v) == reference_dist(metric, u, v)


def test_window_over_an_infinite_quotient_peripheral():
    # Z^2 filled by (3, 1) leaves Z^2 / <(3, 1)>, infinite with no finite
    # order, which the reference scans cannot enumerate; the window is
    # checked against BFS, a larger window and the exact metric instead
    pair = make_filling(pair_named("Z^2 * Z"), {0: [[3, 1]]}).quotient_pair
    assert pair.peripherals[0].factor.p_order() is None
    small, big = build_cusped_ball(pair, 3), build_cusped_ball(pair, 5)
    assert small.n_vertices == 265
    for w in (small, big):
        assert (w.bfs_distances(("c", ())) == w.meta["dist_from_id"]).all()
    Ds, cert = small.certified_pairs_matrix()
    every = np.arange(small.n_vertices)
    cs = cert[np.ix_(every, every)]
    into_big = np.array([big.index[k] for k in small.vertices])
    assert cs.sum() == 13_507
    assert (big.distance_matrix()[np.ix_(into_big, into_big)][cs]
            == Ds[cs]).all()
    Db, cert = big.certified_pairs_matrix()
    every = np.arange(big.n_vertices)
    u, v = np.nonzero(cert[np.ix_(every, every)])
    pick = np.random.default_rng(0).choice(len(u), 3000, replace=False)
    metric = ExactCuspedMetric(pair)
    assert all(metric.dist(big.vertices[u[t]], big.vertices[v[t]])
               == Db[u[t], v[t]] for t in pick.tolist())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=12))
def test_run_pairs_lists_pairs_within_runs_row_major(sizes):
    labels = np.repeat(np.arange(len(sizes)) * 3 - 2, sizes)
    a, b = run_pairs(labels)
    want = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))
            if labels[i] == labels[j]]
    assert list(zip(a.tolist(), b.tolist())) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 7), max_size=12), st.integers(1, 25))
def test_run_pair_blocks_cut_the_row_major_pairs(sizes, block):
    # every block but the last holds exactly ``block`` pairs, so a long
    # run is split between blocks
    labels = np.repeat(np.arange(len(sizes)) * 3 - 2, sizes)
    blocks = list(run_pair_blocks(labels, block))
    assert [len(a) for a, _ in blocks][:-1] == [block] * (len(blocks) - 1)
    assert all(len(a) == len(b) and 0 < len(a) <= block for a, b in blocks)
    a, b = run_pairs(labels)
    assert [p for x, y in blocks for p in zip(x.tolist(), y.tolist())] \
        == list(zip(a.tolist(), b.tolist()))
