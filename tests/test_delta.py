"""Hyperbolicity estimates on graphs with known answers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhfill.cusped import build_cusped_ball
from rhfill.delta import (estimate_delta, four_point_delta_sampled,
                          thin_triangle_delta)
from rhfill.errors import DisconnectedError, InvalidParameterError
from rhfill.groups import standard_f2_pair
from reference_windows import (build_cayley_ball, cycle_graph,
                               reference_thin_triangles)


def quad_defect(D, q):
    # independent four-point evaluation: half the gap between the two
    # largest pair-sum matchings
    i, j, k, l = q
    sums = sorted([D[i, j] + D[k, l], D[i, k] + D[j, l], D[i, l] + D[j, k]])
    return (sums[2] - sums[1]) / 2


def test_cycle_eight_exhaustive():
    c8 = cycle_graph(8)
    est = estimate_delta(c8, mode="exhaustive")
    assert est.delta == 2.0
    assert est.exact
    assert est.mode == "four-point-exhaustive"
    assert est.witness == (0, 2, 4, 6)
    assert quad_defect(c8.distance_matrix(), est.witness) == est.delta


@pytest.mark.parametrize("n,expected", [(4, 1.0), (5, 0.5), (6, 1.0), (7, 1.0),
                                        (8, 2.0), (9, 1.5), (10, 2.0),
                                        (11, 2.0), (12, 3.0)])
def test_cycle_four_point_values(n, expected):
    # n/4 at multiples of four, sagging in between
    est = estimate_delta(cycle_graph(n), mode="exhaustive")
    assert est.delta == expected


def test_tree_is_zero_hyperbolic():
    tree = build_cayley_ball(standard_f2_pair(), 3)
    assert estimate_delta(tree, mode="exhaustive").delta == 0.0
    assert thin_triangle_delta(tree, triangles=200, seed=0).delta == 0.0


def test_sampled_is_a_lower_bound():
    c8 = cycle_graph(8)
    exact = estimate_delta(c8, mode="exhaustive").delta
    for seed in range(4):
        est = estimate_delta(c8, mode="sampled", samples=500, seed=seed)
        assert est.delta <= exact
        assert not est.exact
    # enough samples on 8 vertices find the extremal quadruple
    assert estimate_delta(c8, mode="sampled", samples=2000, seed=1).delta == exact


def test_mode_aliases_and_auto():
    c8 = cycle_graph(8)
    a = estimate_delta(c8, mode="exhaustive")
    b = estimate_delta(c8, mode="four-point-exhaustive")
    assert a.delta == b.delta and a.mode == b.mode
    # small graphs fall under the auto budget and come back exact
    assert estimate_delta(c8, mode="auto").exact


def test_unknown_mode_rejected():
    with pytest.raises(InvalidParameterError):
        estimate_delta(cycle_graph(6), mode="triangle-free")


def test_unknown_mode_is_named_in_the_error():
    with pytest.raises(InvalidParameterError, match="unknown delta mode 'bogus'"):
        estimate_delta(cycle_graph(6), mode="bogus")


def test_matrix_input():
    D = cycle_graph(8).distance_matrix()
    assert estimate_delta(D, mode="exhaustive").delta == 2.0
    D2 = np.full((4, 4), np.inf)
    np.fill_diagonal(D2, 0.0)
    with pytest.raises(DisconnectedError):
        estimate_delta(D2, mode="exhaustive")


def test_thin_triangles_on_cycle():
    est = thin_triangle_delta(cycle_graph(8), triangles=200, seed=0)
    assert est.delta == 2.0
    assert est.mode == "thin-triangles"
    assert not est.exact


@pytest.mark.parametrize("graph", [
    lambda: cycle_graph(8), lambda: build_cayley_ball(standard_f2_pair(), 3),
    lambda: build_cusped_ball(standard_f2_pair(), 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_thin_triangles_match_one_triangle_at_a_time(graph, seed):
    g = graph()
    assert thin_triangle_delta(g, triangles=150, seed=seed) \
        == reference_thin_triangles(g, 150, seed)


@pytest.mark.parametrize("n,samples,seed", [
    (407, 50_000, 7), (441, 50_000, 7),       # the bundled uniform-delta task
    (4629, 200_000, 0),                        # the r = 6 lemma window
    (1389, 50_000, 0), (1451, 50_000, 0),      # filling windows at r = 5
    (7, 1_000, 0), (100_000, 1_000, 0), (2 ** 31 - 1, 1_000, 0)])
def test_int32_draw_is_the_int64_draw(n, samples, seed):
    # the sampled delta draws its quadruples as int32; a numpy whose int32
    # stream differs from the int64 one would move every sampled delta
    draw = [np.random.default_rng(seed).integers(0, n, size=(4, samples),
                                                 dtype=dtype)
            for dtype in (np.int32, np.int64)]
    assert draw[0].dtype == np.int32
    assert (draw[0] == draw[1]).all()


def _sorted_pairings_delta(D, samples, seed):
    """The sampled delta with the three pairing sums sorted per quadruple:
    (delta, witness) of the first largest gap between the two largest."""
    i, j, k, l = np.random.default_rng(seed).integers(
        0, len(D), size=(4, samples), dtype=np.int32)
    sums = np.sort(np.stack([D[i, j] + D[k, l], D[i, k] + D[j, l],
                             D[i, l] + D[j, k]]), axis=0)
    defect = sums[2] - sums[1]
    t = int(defect.argmax())
    return float(defect[t]) / 2.0, (int(i[t]), int(j[t]), int(k[t]), int(l[t]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
           st.integers(0, 3), min_size=n * n, max_size=n * n)),
       st.sampled_from([np.int8, np.int16, np.int64, 0.1]),
       st.integers(1, 60), st.integers(0, 1000))
def test_sampled_delta_is_the_sorted_pairings(entries, dtype, samples, seed):
    # entries 0..3 on at most six vertices tie often; 0.1 scales them to
    # floats whose sums round
    n = math.isqrt(len(entries))
    D = np.array(entries).reshape(n, n)
    D = D * dtype if dtype == 0.1 else D.astype(dtype)
    est = four_point_delta_sampled(D, samples=samples, seed=seed)
    assert (est.delta, est.witness) == _sorted_pairings_delta(D, samples, seed)
