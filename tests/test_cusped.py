"""Cusped / coned / horoball graph tests.

The horoball closed forms are checked against an independent breadth-first
search on a horoball built directly from its edge definition inside the test,
not via the library builders.
"""
import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhfill import (
    DisconnectedError,
    InvalidParameterError,
    build_cusped_ball,
    dump_graph,
    horo_dip,
    horo_flat,
    horo_pair,
    load_graph,
    shortest_path,
    standard_f2_pair,
)
from rhfill.cusped import ExactCuspedMetric, depth0_key, horo_key
from reference_windows import (build_cayley_ball, build_coned_off,
                               build_horoball, coned_distance, coned_length,
                               cycle_graph, exact_ball, integer_interval_metric,
                               neighbours)


# ---------------------------------------------------------------------------
# independent oracle: dict-BFS over a horoball built straight from the rules


def brute_horoball_dist(radius, max_depth):
    """All distances from (0, 0) in the horoball over the interval [-r, r]."""
    adj = collections.defaultdict(set)
    for k in range(max_depth + 1):
        for u in range(-radius, radius + 1):
            for v in range(u + 1, radius + 1):
                if 0 < v - u <= 2 ** k:
                    adj[(u, k)].add((v, k))
                    adj[(v, k)].add((u, k))
    for k in range(max_depth):
        for u in range(-radius, radius + 1):
            adj[(u, k)].add((u, k + 1))
            adj[(u, k + 1)].add((u, k))
    dist = {(0, 0): 0}
    queue = collections.deque([(0, 0)])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def test_horoball_closed_forms_match_independent_bfs():
    dist = brute_horoball_dist(40, 8)
    for d in range(0, 41):
        assert horo_flat(d) == dist[(d, 0)]
    for d in range(0, 41):
        for k in range(0, 6):
            assert horo_dip(d, k) == dist[(d, k)]


def test_horoball_pair_from_shifted_bfs():
    # horo_pair(d, k, l) by BFS from a lifted start: reuse flat BFS plus
    # symmetry is not enough, so run a second BFS from (0, 2).
    adj_dist = brute_horoball_dist(40, 8)
    # second source
    import collections as c

    def bfs_from(src, radius=40, max_depth=8):
        adj = c.defaultdict(set)
        for k in range(max_depth + 1):
            for u in range(-radius, radius + 1):
                for v in range(u + 1, radius + 1):
                    if 0 < v - u <= 2 ** k:
                        adj[(u, k)].add((v, k))
                        adj[(v, k)].add((u, k))
        for k in range(max_depth):
            for u in range(-radius, radius + 1):
                adj[(u, k)].add((u, k + 1))
                adj[(u, k + 1)].add((u, k))
        dist = {src: 0}
        q = c.deque([src])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        return dist

    from2 = bfs_from((0, 2))
    for d in range(0, 30):
        for l in range(0, 5):
            assert horo_pair(d, 2, l) == from2[(d, l)]
    assert adj_dist[(8, 0)] == 6  # frozen anchor


def test_horoball_values_frozen():
    # spot values computed once from the BFS oracle above
    assert [horo_flat(d) for d in range(11)] == [0, 1, 2, 3, 4, 5, 5, 6, 6, 7, 7]
    assert horo_flat(100) == 14
    assert horo_pair(0, 3, 1) == 2
    assert horo_pair(8, 0, 1) == 5


def test_horo_pair_rejects_negative():
    with pytest.raises(InvalidParameterError):
        horo_pair(-1, 0, 0)


# ---------------------------------------------------------------------------
# a horoball graph from the reference builder


def test_build_horoball_matches_closed_form():
    base, labels = integer_interval_metric(20)
    hb = build_horoball(base, 6, labels)
    origin = hb.index[("b", 20, 0)]
    d = hb.bfs_distances(origin)
    for off in range(-20, 21):
        for k in range(0, 7):
            i = hb.index[("b", 20 + off, k)]
            assert d[i] == horo_pair(abs(off), 0, k)


# ---------------------------------------------------------------------------
# exact cusped metric


@pytest.fixture(scope="module")
def f2():
    return standard_f2_pair()


@pytest.fixture(scope="module")
def f2_metric(f2):
    return ExactCuspedMetric(f2)


def test_elem_cost_anchors(f2, f2_metric):
    G = f2.group
    a, b = G.generator("a"), G.generator("b")
    assert f2_metric.elem_cost(G.identity()) == 0
    assert f2_metric.elem_cost(G.power(a, 8)) == 6
    assert f2_metric.elem_cost(G.power(a, 100)) == 14
    w = G.multiply(G.power(a, 8), G.power(b, -3))
    assert f2_metric.elem_cost(w) == 9


def test_interior_distance_anchors(f2, f2_metric):
    G = f2.group
    a = G.generator("a")
    m = f2_metric
    idw = G.identity()
    # same horoball
    assert m.dist(horo_key(0, idw, (5,), 2), horo_key(0, idw, (-3,), 1)) == \
        horo_pair(8, 2, 1)
    # across the two base horoballs
    assert m.dist(horo_key(0, idw, (0,), 1), horo_key(1, idw, (0,), 1)) == 2
    # straight down to a depth-zero point
    assert m.dist(depth0_key(G.power(a, 4)), horo_key(0, idw, (4,), 1)) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_metric_axioms_and_invariance(f2, f2_metric, data):
    G = f2.group
    ball = list(exact_ball(f2_metric, 3))
    key = st.sampled_from(ball)
    u, v, w = data.draw(key), data.draw(key), data.draw(key)
    m = f2_metric
    duv = m.dist(u, v)
    assert duv == m.dist(v, u)
    assert (duv == 0) == (u == v)
    assert duv <= m.dist(u, w) + m.dist(w, v)
    # left translation invariance
    g = G.multiply(G.generator("b"), G.generator("a", 2))
    assert m.dist(m.translate_key(g, u), m.translate_key(g, v)) == duv


# ---------------------------------------------------------------------------
# cusped windows


def test_cusped_ball_counts(f2):
    g4 = build_cusped_ball(f2, 4)
    # depth-zero part is the word ball of radius 4 (161 elements in F2),
    # since each syllable of cost <= 4 has horoball length = word length
    assert int((g4.depth == 0).sum()) == 161
    assert g4.n_vertices == 441  # regression anchor, certified by BFS below


def test_window_bfs_matches_exact_metric_on_certified_pairs(f2):
    g4 = build_cusped_ball(f2, 4)
    D, cert = g4.certified_pairs_matrix()
    metric = g4.meta["metric"]
    dist0 = g4.meta["dist_from_id"]
    i0 = g4.index[depth0_key(f2.group.identity())]
    n = g4.n_vertices
    # every from-identity distance is certified and exact
    assert cert[np.ix_([i0], np.arange(n))].all()
    assert (D[i0] == dist0).all()
    rng = np.random.default_rng(7)
    checked = 0
    for i, j in zip(rng.integers(0, n, 400), rng.integers(0, n, 400)):
        if cert[i, j]:
            assert D[i, j] == metric.dist(g4.vertices[i], g4.vertices[j])
            checked += 1
    assert checked > 20
    # near the center the certificate has slack: check those pairs densely
    near = [i for i in range(n) if dist0[i] <= 2]
    dense = 0
    for i in near:
        for j in near:
            if cert[i, j]:
                assert D[i, j] == metric.dist(g4.vertices[i], g4.vertices[j])
                dense += 1
    assert dense > 400


def test_depth_cap_makes_window_overestimate_and_decertify(f2):
    g = build_cusped_ball(f2, 6, max_depth=1)
    G = f2.group
    a = G.generator("a")
    u = g.index[depth0_key(G.power(a, 8))]
    v = g.index[depth0_key(G.power(a, -8))]
    D, cert = g.certified_pairs_matrix()
    exact = g.meta["metric"].elem_dist(G.power(a, 8), G.power(a, -8))
    assert exact == horo_flat(16) == 8
    assert D[u, v] == 10  # depth-1 window must route along level one
    assert not cert[u, v]


def test_shortest_path_deterministic_and_valid(f2):
    g6 = build_cusped_ball(f2, 6)
    G = f2.group
    a = G.generator("a")
    u = depth0_key(G.identity())
    v = depth0_key(G.power(a, 8))
    p1 = shortest_path(g6, u, v)
    p2 = shortest_path(g6, u, v)
    assert p1.vertices == p2.vertices
    steps = zip(p1.vertices, p1.vertices[1:])
    assert all(v in neighbours(g6, u) for u, v in steps)
    assert p1.length == 6
    # the geodesic dives into the horoball (levels 1 and 2 both give cost 6)
    assert max(int(g6.depth[i]) for i in p1.vertices) >= 1


def test_shortest_path_disconnected():
    g = load_graph("V 0 0 - 1\nV 1 0 - a\n")
    with pytest.raises(DisconnectedError):
        shortest_path(g, ("v", 0), ("v", 1))


# ---------------------------------------------------------------------------
# cayley and coned windows


def test_cayley_ball_tree(f2):
    g3 = build_cayley_ball(f2, 3)
    assert g3.n_vertices == 53
    assert g3.n_edges == 52  # free group: the ball is a tree
    d = g3.bfs_distances(g3.index[depth0_key(f2.group.identity())])
    assert (d == g3.meta["dist_from_id"]).all()


def test_coned_off_window_and_closed_form(f2):
    G = f2.group
    a = G.generator("a")
    far = G.power(a, 100)
    g = build_coned_off(f2, 2, extra_elements=[far])
    # 9 cosets per peripheral met by the ball, plus the far element's b-coset
    assert g.meta["n_cones"] == 19
    d = g.bfs_distances(g.index[depth0_key(G.identity())])
    assert d[g.index[depth0_key(far)]] == 2  # through the cone over <a>
    assert coned_length(f2, far) == 2
    w = G.multiply(G.power(a, 8), G.power(G.generator("b"), -3))
    assert coned_length(f2, w) == 4
    assert coned_distance(f2, G.identity(), w) == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30))
def test_coned_length_bounded_by_twice_syllables(f2, n1, n2):
    G = f2.group
    w = G.multiply(G.power(G.generator("a"), n1), G.power(G.generator("b"), n2))
    l = coned_length(f2, w)
    syl = len(w.word)
    assert l <= 2 * syl
    assert l >= min(1, syl)


# ---------------------------------------------------------------------------
# dumps and generic graphs


def test_dump_load_roundtrip(f2):
    g = build_cusped_ball(f2, 3)
    text = dump_graph(g)
    g2 = load_graph(text)
    assert dump_graph(g2) == text
    i0 = g.index[depth0_key(f2.group.identity())]
    assert (g2.bfs_distances(i0) == g.bfs_distances(i0)).all()


def test_dump_deterministic(f2):
    assert dump_graph(build_cusped_ball(f2, 3)) == \
        dump_graph(build_cusped_ball(standard_f2_pair(), 3))


def test_load_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        load_graph("V 0 0 - 1\nX nonsense\n")
    with pytest.raises(InvalidParameterError):
        load_graph("V 1 0 - 1\n")  # ids must start at 0


def test_cycle_graph_distances():
    g = cycle_graph(8)
    d = g.bfs_distances(0)
    assert [int(x) for x in d] == [0, 1, 2, 3, 4, 3, 2, 1]
