"""The window-distance layer: all-pairs and single-source BFS rows, the
truncation certificate, and the delta estimators on int16 matrices.

Distances are checked against a plain deque BFS over the edge list, written
here and sharing nothing with the library's frontier BFS.
"""
import collections

import numpy as np
import pytest

from rhfill import (
    DisconnectedError,
    build_coned_off,
    build_cusped_ball,
    build_horoball,
    cycle_graph,
    generic_graph,
    integer_interval_metric,
    load_graph,
    shortest_path,
    standard_f2_pair,
)
from rhfill.cusped import BFS_BLOCK
from rhfill.delta import (estimate_delta, four_point_delta_exhaustive,
                          four_point_delta_sampled)

TWO_COMPONENTS = """V 0 0 - a
V 1 0 - b
V 2 0 - c
V 3 0 - d
V 4 0 - e
E 0 1 cayley
E 1 2 cayley
E 3 4 cayley
"""


def reference_rows(graph, sources) -> dict[int, list[int]]:
    """Edge-count distances from each source; -1 marks unreachable vertices."""
    adj = [[] for _ in range(graph.n_vertices)]
    for u, v in zip(graph.edges_u.tolist(), graph.edges_v.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    rows = {}
    for s in sources:
        dist = [-1] * graph.n_vertices
        dist[s] = 0
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows[s] = dist
    return rows


def _horoball():
    base, labels = integer_interval_metric(12)
    return build_horoball(base, 5, labels)


def _coned():
    f2 = standard_f2_pair()
    a = f2.group.generator("a")
    return build_coned_off(f2, 3, extra_elements=[f2.group.power(a, 50)])


BUILDERS = {
    "cusped-r4": lambda: build_cusped_ball(standard_f2_pair(), 4),
    "cusped-r6-depth1": lambda: build_cusped_ball(standard_f2_pair(), 6,
                                                  max_depth=1),
    "coned-off": _coned,
    "horoball": _horoball,
    "cycle-9": lambda: cycle_graph(9),
    "two-components": lambda: load_graph(TWO_COMPONENTS),
}


def _sources(graph) -> list[int]:
    """Every vertex, or for windows of more than 1,000 vertices every third
    one plus both sides of each BFS block boundary."""
    n = graph.n_vertices
    if n <= 1000:
        return list(range(n))
    edges = {s for b in range(BFS_BLOCK, n, BFS_BLOCK) for s in (b - 1, b)}
    return sorted(set(range(0, n, 3)) | edges | {n - 1})


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_distance_matrix_matches_reference_bfs(name):
    g = BUILDERS[name]()
    D = g.distance_matrix()
    assert D.dtype == np.int16 and D.shape == (g.n_vertices, g.n_vertices)
    for s, row in reference_rows(g, _sources(g)).items():
        assert D[s].tolist() == row, (name, s)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_single_source_rows_before_and_after_matrix(name):
    g = BUILDERS[name]()
    sources = sorted({0, g.n_vertices // 2, g.n_vertices - 1})
    before = {s: g.bfs_distances(s).tolist() for s in sources}
    g.distance_matrix()
    assert before == reference_rows(g, sources)
    for s in sources:
        assert g.bfs_distances(s).tolist() == before[s]
        assert g.bfs_distances(s).dtype == np.int16


def test_frontier_counts_do_not_wrap():
    # 256 middle vertices reach the far end of K_{1,256,1} in one level,
    # and 65,536 parallel edges join the two vertices of a multigraph
    star = generic_graph(258, [(0, m) for m in range(1, 257)]
                         + [(m, 257) for m in range(1, 257)])
    assert star.bfs_distances(0)[257] == 2
    assert star.distance_matrix()[0, 257] == 2
    multi = generic_graph(2, [(0, 1)] * 2 ** 16)
    assert multi.bfs_distances(0).tolist() == [0, 1]
    assert multi.distance_matrix().tolist() == [[0, 1], [1, 0]]


def test_returned_distances_are_read_only():
    g = BUILDERS["cusped-r4"]()
    row = g.bfs_distances(3)
    with pytest.raises(ValueError):
        row[0] = 7
    D, cert = g.certified_pairs_matrix()
    for arr in (D, D[3], g.bfs_distances(3), cert):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    assert row[0] == D[3, 0]


def test_certificate_is_the_pair_formula_and_cached():
    g = BUILDERS["cusped-r4"]()
    D, cert = g.certified_pairs_matrix()
    R = g.meta["radius"]
    md = g.meta["max_depth"]
    dist0 = [int(x) for x in g.meta["dist_from_id"]]
    depth = g.depth.tolist()
    n = g.n_vertices
    expected = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            lim = min((R + 1 - dist0[i]) + (R + 1 - dist0[j]),
                      (md + 1 - depth[i]) + (md + 1 - depth[j]))
            expected[i, j] = 0 <= int(D[i, j]) <= lim
    assert cert.dtype == bool
    assert (cert == expected).all()
    D2, cert2 = g.certified_pairs_matrix()
    assert cert2 is cert and D2 is D and D is g.distance_matrix()


def test_certified_pairs_exact_on_depth_capped_window():
    # the depth-1 window overestimates distances that dive deeper; the
    # depth limb of the certificate must leave those pairs out
    g = BUILDERS["cusped-r6-depth1"]()
    D, cert = g.certified_pairs_matrix()
    metric = g.meta["metric"]
    rng = np.random.default_rng(3)
    for i, j in zip(rng.integers(0, g.n_vertices, 300),
                    rng.integers(0, g.n_vertices, 300)):
        if cert[i, j]:
            assert D[i, j] == metric.dist(g.vertices[i], g.vertices[j])


def test_delta_rejects_disconnected_graph():
    g = BUILDERS["two-components"]()
    with pytest.raises(DisconnectedError):
        estimate_delta(g, mode="exhaustive")
    with pytest.raises(DisconnectedError):
        four_point_delta_sampled(g, samples=100)
    with pytest.raises(DisconnectedError):
        shortest_path(g, 0, 4)


@pytest.mark.parametrize("name", ["cycle-9", "cusped-r4"])
def test_delta_same_on_int16_and_float_copy(name):
    D = BUILDERS[name]().distance_matrix()
    F = D.astype(float)
    for est in (lambda M: four_point_delta_sampled(M, samples=20_000, seed=5),
                lambda M: estimate_delta(M, mode="sampled", samples=5_000)):
        a, b = est(D), est(F)
        assert (a.delta, a.witness) == (b.delta, b.witness)
    if len(D) <= 20:
        a, b = four_point_delta_exhaustive(D), four_point_delta_exhaustive(F)
        assert (a.delta, a.witness) == (b.delta, b.witness)
