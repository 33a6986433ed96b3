"""The window-distance layer: all-pairs and single-source BFS rows, the
truncation certificate, and the delta estimators on int8 and int16
matrices.

Distances are checked against a plain deque BFS over the edge list, written
here and sharing nothing with the library's frontier BFS.
"""
import collections
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rhfill
from rhfill import (
    DisconnectedError,
    InvalidParameterError,
    build_cusped_ball,
    load_graph,
    shortest_path,
    standard_f2_pair,
)
from rhfill.cusped import BFS_BLOCK, INT8_REACH, PAIR_BLOCK, geodesics
from rhfill.delta import (estimate_delta, four_point_delta_exhaustive,
                          four_point_delta_sampled)
from reference_windows import (build_coned_off, build_horoball, cycle_graph,
                               generic_graph, integer_interval_metric,
                               neighbours, reference_shortest_path)

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


def rule_dtype(D):
    """The documented dtype of a distance matrix: int8 when no distance
    exceeds ``INT8_REACH``, int16 otherwise."""
    return np.int8 if D.max(initial=0) <= INT8_REACH else np.int16


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
    assert D.dtype == rule_dtype(D) == np.int8
    assert D.shape == (g.n_vertices, g.n_vertices)
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
        assert g.bfs_distances(s).dtype == g.distance_matrix().dtype == np.int8


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
    for arr in (D, D[3], g.bfs_distances(3)):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    with pytest.raises(TypeError):
        cert[0, 1] = True
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
    every = np.arange(n)
    mask = cert[np.ix_(every, every)]
    assert mask.dtype == bool
    assert (mask == expected).all()
    D2, cert2 = g.certified_pairs_matrix()
    assert cert2 is cert and D2 is D and D is g.distance_matrix()
    # the slice scans (n = 441, slices of 74 rows) list the same pairs,
    # with the columns given or by default
    assert n * n > PAIR_BLOCK
    for cols in (every, None):
        for upper, want in ((False, expected), (True, np.triu(expected, 1))):
            a, b = map(np.concatenate, zip(*cert.pairs(every, cols, upper)))
            assert (a.tolist(), b.tolist()) == tuple(
                x.tolist() for x in np.nonzero(want))


@pytest.fixture(scope="module")
def capped_certificate():
    """The certificate of the depth-capped window and the pair formula
    evaluated one pair at a time in Python integers."""
    g = BUILDERS["cusped-r6-depth1"]()
    D, cert = g.certified_pairs_matrix()
    R, md = g.meta["radius"], g.meta["max_depth"]
    dist0, depth = g.meta["dist_from_id"].tolist(), g.depth.tolist()

    def formula(i, j):
        lim = min((R + 1 - dist0[i]) + (R + 1 - dist0[j]),
                  (md + 1 - depth[i]) + (md + 1 - depth[j]))
        return 0 <= int(D[i, j]) <= lim
    return g.n_vertices, cert, formula


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_certificate_indexing_is_the_pair_formula(capped_certificate, data):
    n, cert, formula = capped_certificate
    index = st.integers(0, n - 1)
    rows = data.draw(st.lists(index, min_size=1, max_size=12))
    cols = data.draw(st.lists(index, min_size=1, max_size=12))
    i, j = data.draw(index), data.draw(index)
    assert bool(cert[i, j]) == formula(i, j)
    block = cert[np.ix_(rows, cols)]
    assert block.shape == (len(rows), len(cols))
    assert block.tolist() == [[formula(r, c) for c in cols] for r in rows]
    paired = data.draw(st.lists(index, min_size=len(rows),
                                max_size=len(rows)))
    assert cert[np.array(rows), np.array(paired)].tolist() == [
        formula(r, c) for r, c in zip(rows, paired)]
    a, b = map(np.concatenate, zip(*cert.pairs(np.array(rows),
                                              np.array(cols))))
    assert list(zip(a.tolist(), b.tolist())) == [
        (p, q) for p, r in enumerate(rows) for q, c in enumerate(cols)
        if formula(r, c)]


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


@st.composite
def multigraphs(draw):
    """Up to 200 vertices and at most 1.5 edges per vertex, with repeated
    edges and loops allowed: draws have isolated vertices and several
    components, and some have parallel edges."""
    n = draw(st.integers(0, 200))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n // 2))
    return generic_graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.data())
def test_bit_parallel_bfs_matches_reference_on_multigraphs(g, data):
    n = g.n_vertices
    if n:
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=5, unique=True))
        rows = reference_rows(g, sources)
        for s in sources:  # before the matrix: one bit-parallel BFS each
            assert g.bfs_distances(s).tolist() == rows[s]
    D = g.distance_matrix()
    assert D.shape == (n, n) and D.dtype == rule_dtype(D)
    assert D.tolist() == [reference_rows(g, [s])[s] for s in range(n)]


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.data())
def test_geodesics_match_the_walk_on_multigraphs(g, data):
    n = g.n_vertices
    if not n:
        return
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                               max_size=8))
    if data.draw(st.booleans()):
        g.distance_matrix()
    D = reference_rows(g, range(n))
    linked = [(u, v) for u, v in pairs if D[u][v] >= 0]
    if len(linked) < len(pairs):
        with pytest.raises(DisconnectedError):
            geodesics(g, *zip(*pairs))
    if linked:
        refs = [reference_shortest_path(g, u, v) for u, v in linked]
        width = max(map(len, refs))
        assert geodesics(g, *zip(*linked)).tolist() == [
            ref + [-1] * (width - len(ref)) for ref in refs]


def test_long_path_needs_nine_planes():
    g = generic_graph(300, [(i, i + 1) for i in range(299)])
    assert g.bfs_distances(0)[299] == 299
    assert g.bfs_distances(150).tolist() == [abs(150 - j) for j in range(300)]
    i = np.arange(300)
    assert (g.distance_matrix() == abs(i[:, None] - i)).all()
    assert g.distance_matrix().dtype == np.int16  # int8 would wrap


@pytest.mark.parametrize("n,dtype", [(64, np.int8), (65, np.int16)])
def test_paths_at_the_int8_edge(n, dtype):
    # the longest distance of an n-vertex path is n - 1
    g = generic_graph(n, [(i, i + 1) for i in range(n - 1)])
    D = g.distance_matrix()
    i = np.arange(n)
    assert D.dtype == dtype and D.max() == n - 1
    assert (D == abs(i[:, None] - i)).all()


def test_matrix_widens_in_a_later_block():
    # a star on vertices 0..255 fills the first block with distances of at
    # most 42; tails of 40 vertices hang off leaves 1 and 2, so the rows of
    # the second block reach 82 and widen D after int8 rows were stored
    hub = [(0, m) for m in range(1, 256)]
    tail_a = [(1, 256)] + [(v, v + 1) for v in range(256, 295)]
    tail_b = [(2, 296)] + [(v, v + 1) for v in range(296, 335)]
    g = generic_graph(336, hub + tail_a + tail_b)
    assert g._bfs_rows(np.arange(BFS_BLOCK)).max() <= INT8_REACH
    D = g.distance_matrix()
    assert D.dtype == np.int16 and D[295, 335] == 82
    assert D.tolist() == [reference_rows(g, [s])[s] for s in range(336)]


@st.composite
def long_windows(draw):
    """A path of up to 64 vertices with a few chords: distances reach 63,
    so the exhaustive defect's sums of three entries pass int8's 127."""
    n = draw(st.integers(2, 64))
    vertex = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    return generic_graph(n, [(i, i + 1) for i in range(n - 1)] + chords)


@settings(max_examples=30, deadline=None)
@given(long_windows(), st.data())
def test_int8_matrix_gives_the_int64_results(g, data):
    D = g.distance_matrix()
    assert D.dtype == np.int8
    wide = D.astype(np.int64)
    for est in (four_point_delta_exhaustive,
                lambda M: four_point_delta_sampled(M, samples=2_000, seed=3)):
        a, b = est(D), est(wide)
        assert (a.delta, a.witness) == (b.delta, b.witness)
    vertex = st.integers(0, g.n_vertices - 1)
    u, v = zip(*data.draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                                   max_size=8)))
    narrow = geodesics(g, u, v)
    g._dist_matrix = wide
    assert geodesics(g, u, v).tolist() == narrow.tolist()


def test_matrix_peak_stays_under_one_and_a_half_bytes_per_pair():
    # D itself takes one byte per pair; the BFS blocks add the rest
    g = build_cusped_ball(standard_f2_pair(), 6)
    tracemalloc.start()
    try:
        D = g.distance_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.dtype == np.int8 and len(D) == 4629
    assert peak < 1.5 * D.size


@pytest.mark.parametrize("k", [1, 63, 64, 65, 257])
def test_bfs_rows_across_word_and_block_boundaries(k):
    # sources start past 0 and run in descending order, so the bit of
    # column s is not the bit of vertex s
    g = BUILDERS["cusped-r4"]()
    sources = list(range(100 + k, 100, -1))
    rows = g._bfs_rows(sources)
    assert rows.shape == (k, g.n_vertices) and rows.dtype == np.int16
    assert not rows.flags.writeable
    ref = reference_rows(g, sources)
    for col, s in enumerate(sources):
        assert rows[col].tolist() == ref[s], (k, s)


def test_one_vertex_and_edgeless_graphs():
    one = generic_graph(1, [])
    assert one.bfs_distances(0).tolist() == [0]
    assert one.distance_matrix().tolist() == [[0]]
    empty = generic_graph(5, [])
    assert empty.bfs_distances(2).tolist() == [-1, -1, 0, -1, -1]
    assert (empty.distance_matrix() == np.where(np.eye(5, dtype=bool), 0, -1)).all()


@pytest.mark.parametrize("u,v", [(-1, 0), (0, 9), (9, 0), (0, -10),
                                 (("v", 9), 0), (0, "nope"), ([0], 1)])
def test_vertices_outside_the_window_are_input_errors(u, v):
    # InvalidParameterError is the CLI's exit 2; no vertex wraps around
    g = cycle_graph(9)
    with pytest.raises(InvalidParameterError):
        shortest_path(g, u, v)
    with pytest.raises(InvalidParameterError):
        g.bfs_distances(u if u != 0 else v)
    g.distance_matrix()
    with pytest.raises(InvalidParameterError):
        g.bfs_distances(u if u != 0 else v)
    assert shortest_path(g, ("v", 8), 1).vertices == [8, 0, 1]


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_csr_patterns_are_the_sorted_neighbour_sets(g):
    n = g.n_vertices
    nbrs = [set() for _ in range(n)]
    for u, v in zip(g.edges_u.tolist(), g.edges_v.tolist()):
        nbrs[u].add(v)
        nbrs[v].add(u)
    for i in range(n):
        assert neighbours(g, i).tolist() == sorted(nbrs[i])
    indices, indptr = g._closed_pattern()
    assert len(indptr) == n + 1 and indptr[0] == 0 \
        and indptr[-1] == len(indices)
    assert [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(n)] \
        == [sorted(nbrs[i] | {i}) for i in range(n)]


# sha256 of distance_matrix().tobytes() of the F2 windows; both are int8
PINNED_MATRICES = {
    5: "a887b4dfd81bb6e39ad9e9b4064d98635e33ff3a3cf87ed27d4d2bc871da194c",
    6: "809035c4c9f4224cc0025cdc7bbab7abefb804999163f1c8af92e34c155d7263",
}


@pytest.mark.parametrize("radius", sorted(PINNED_MATRICES))
def test_distance_matrix_bytes_are_pinned(radius):
    window = build_cusped_ball(standard_f2_pair(), radius)
    rows = window._bfs_rows(np.arange(BFS_BLOCK - 3, BFS_BLOCK + 3))
    D = window.distance_matrix()
    assert D.dtype == np.int8 and D.flags.c_contiguous
    assert hashlib.sha256(D.tobytes()).hexdigest() == PINNED_MATRICES[radius]
    # the rows are the columns of one C-order array
    assert rows.T.flags.c_contiguous and not rows.flags.writeable
    assert (rows == D[BFS_BLOCK - 3:BFS_BLOCK + 3]).all()


def test_import_leaves_scipy_out():
    src = str(Path(rhfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, rhfill; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
