"""Quotient cusped windows, the filling projection, lifts, and checks.

The two standing examples are (F_2, Z*Z) filled along <a^50, b^50> (long:
everything should look like the unfilled pair near the identity) and along
<a^3, b^3> (short: local isometry and injectivity must fail visibly).
"""
import collections
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rhfill
from rhfill import filling_geometry
from rhfill.errors import (BudgetExceededError, InvalidParameterError,
                           WindowError)
from rhfill.filling_geometry import (FillingGeometry, build_quotient_cusped,
                                     check_descent_quasigeodesic,
                                     check_local_isometry, check_uniform_delta,
                                     filling_map_report, injectivity_report,
                                     lift_paths, lift_roundtrip_report)
from rhfill.groups import (FillingData, FreeProductOracle, GroupElement,
                           ball_tree, enumerate_ball, make_filling,
                           make_oracle, make_pair, standard_f2_pair)
from rhfill.cusped import (Certificate, GraphPath, build_cusped_ball, geodesics,
                           shortest_path)
from reference_windows import (NoPreimageEdge, neighbours, project_path,
                               project_vertex_key, reference_descent,
                               reference_lift_path, reference_lift_roundtrip,
                               reference_map_edges, reference_max_stretch,
                               reference_project, reference_shortest_path,
                               reference_vertex_map)


@pytest.fixture(scope="module")
def pair():
    return standard_f2_pair()


@pytest.fixture(scope="module")
def f50(pair):
    return make_filling(pair, {0: [[50]], 1: [[50]]})


@pytest.fixture(scope="module")
def f3(pair):
    return make_filling(pair, {0: [[3]], 1: [[3]]})


@pytest.fixture(scope="module")
def fg50(pair, f50):
    return build_quotient_cusped(pair, f50, radius=4)


@pytest.fixture(scope="module")
def fg3(pair, f3):
    return build_quotient_cusped(pair, f3, radius=4)


def test_map_report_clean(fg50):
    rep = filling_map_report(fg50)
    assert rep["pass"]
    assert rep["surjective"]
    assert rep["depth_preserved"]
    assert rep["vertical_loops"] == 0
    assert rep["kind_mismatches"] == 0
    assert rep["lipschitz_on_certified"]
    assert rep["max_stretch"] == 0.0
    # a radius-4 window never sees the length-50 relators: nothing collapses
    assert rep["collapsed_edges"] == 0
    assert len(fg50.source.vertices) == len(fg50.target.vertices) == 441


def test_trivial_filling_is_bijective(pair):
    fg = build_quotient_cusped(pair, make_filling(pair, {}), radius=3)
    assert filling_map_report(fg)["pass"]
    assert np.array_equal(np.sort(fg.vertex_map),
                          np.arange(len(fg.target.vertices)))


def test_foreign_pair_rejected(f50):
    other = standard_f2_pair()
    with pytest.raises(InvalidParameterError):
        build_quotient_cusped(other, f50, radius=3)


def test_lift_roundtrip(fg50):
    rep = lift_roundtrip_report(fg50, n_paths=200, seed=3)
    assert rep["pass"]
    assert rep["paths"] == 200
    assert rep["roundtrip_failures"] == 0
    assert rep["tightness_checked"] == 108
    assert rep["tightness_failure_count"] == 0
    assert rep["no_preimage_skipped"] == 0
    # deterministic: same seed, same counts
    assert lift_roundtrip_report(fg50, n_paths=200, seed=3) == rep


def test_project_path_drops_nothing_here(fg50):
    src = fg50.source
    p = shortest_path(src, src.vertices[0], src.vertices[20])
    q = project_path(fg50, p)
    assert q.length == p.length  # no collapsed edges in this window
    tgt = fg50.target
    assert all(v in neighbours(tgt, u) for u, v in zip(q.vertices, q.vertices[1:]))


def test_local_isometry_long_filling(fg50):
    rep = check_local_isometry(fg50, 2)
    assert rep["pass"]
    assert rep["ball_size"] == 17
    assert rep["pairs_checked"] == 136
    assert rep["image_is_ball"]
    assert rep["violation_count"] == 0


def test_local_isometry_short_filling(fg3):
    rep = check_local_isometry(fg3, 2)
    assert not rep["pass"]
    assert rep["violation_count"] == 50
    assert len(rep["violations"]) == 10  # reported sample is capped
    first = rep["violations"][0]
    # 1 and a^-2 collapse to distance 1 in the Z/3 horoball
    assert first == {"u": "1", "v": "a^-2", "source": 2, "target": 1}
    # with interior vertices it already fails at radius 1
    assert not check_local_isometry(fg3, 1, include_interior=True)["pass"]


def test_local_isometry_radius_gate(fg50):
    with pytest.raises(WindowError):
        check_local_isometry(fg50, 5)


def test_injectivity_reports(f50, f3):
    long = injectivity_report(f50, 3)
    assert long["pass"]
    assert long["ball_size"] == 53
    assert long["collisions"] == 0
    assert all(p["injective"] and p["ball"] == 7 for p in long["peripheral"])
    short = injectivity_report(f3, 3)
    assert not short["pass"]
    assert short["collisions"] == 24
    assert [p["image"] for p in short["peripheral"]] == [3, 3]


def test_descent_quasigeodesic(fg50):
    rep = check_descent_quasigeodesic(fg50, K=1.0, max_depth_used=2,
                                      samples=60, seed=2)
    assert rep["pass"]
    assert rep["paths_checked"] == 60
    assert rep["failure_count"] == 0


def test_uniform_delta(pair, fg50, fg3):
    rep = check_uniform_delta(fg50.source,
                              [(3, fg3.target), (50, fg50.target)], slack=2.0)
    assert rep["uniform"]
    assert rep["radius"] == 4
    assert rep["unfilled_delta"] == 1.5
    assert rep["delta_by_n"] == {3: 1.0, 50: 1.5}
    # the windows it reads are those the builder makes
    assert rep == check_uniform_delta(
        build_cusped_ball(pair, 4),
        ((n, build_cusped_ball(f.quotient_pair, 4)) for n, f in
         ((3, fg3.filling), (50, fg50.filling))), slack=2.0)


def test_uniform_delta_needs_one_radius(fg50, f3):
    with pytest.raises(InvalidParameterError, match="window 3 is not of radius 4"):
        check_uniform_delta(fg50.source,
                            [(3, build_cusped_ball(f3.quotient_pair, 3))])


def test_checks_build_no_window(fg50, monkeypatch):
    # builders build windows, checks take them
    def refuse(*args, **kwargs):
        raise AssertionError("a check built a window")

    for module in (filling_geometry, rhfill.cusped, rhfill.metric_checks,
                   rhfill.scenarios):
        monkeypatch.setattr(module, "build_cusped_ball", refuse)
    reports = [check_local_isometry(fg50, 3),
               check_local_isometry(fg50, 2, include_interior=True),
               check_descent_quasigeodesic(fg50, K=1.0, max_depth_used=2,
                                           samples=20),
               check_uniform_delta(fg50.source, [(50, fg50.target)],
                                   samples=1000),
               filling_map_report(fg50),
               lift_roundtrip_report(fg50, n_paths=20)]
    assert all(rep["pass"] for rep in reports)


def _reference_local_isometry(fg, r, include_interior):
    """The pair-by-pair loop over exact metric distances, in row-major
    order, stopping at the 50th violation."""
    sm, tm = fg.source.meta["metric"], fg.target.meta["metric"]
    dist0 = np.asarray(fg.source.meta["dist_from_id"])
    keys = [k for i, k in enumerate(fg.source.vertices)
            if dist0[i] <= r and (include_interior or k[0] == "c")]
    images = [project_vertex_key(fg.filling, k) for k in keys]
    violations, checked = [], 0
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            ds, dt = sm.dist(keys[a], keys[b]), tm.dist(images[a], images[b])
            checked += 1
            if ds != dt:
                violations.append({
                    "u": fg.source.labels[fg.source.index[keys[a]]],
                    "v": fg.source.labels[fg.source.index[keys[b]]],
                    "source": ds, "target": dt})
                if len(violations) >= 50:
                    return keys, images, checked, violations
    return keys, images, checked, violations


@pytest.mark.parametrize("which,r,interior,checked", [
    ("fg3", 2, False, 110), ("fg3", 2, True, 172),
    ("fg3", 4, False, 94), ("fg3", 4, True, 94),
    ("fg50", 2, False, 136), ("fg50", 2, True, 528)])
def test_local_isometry_matches_pair_loop(request, which, r, interior, checked):
    fg = request.getfixturevalue(which)
    rep = check_local_isometry(fg, r, include_interior=interior)
    keys, images, ref_checked, violations = _reference_local_isometry(
        fg, r, interior)
    tdist0 = np.asarray(fg.target.meta["dist_from_id"])
    target_ball = {k for i, k in enumerate(fg.target.vertices)
                   if tdist0[i] <= r and (interior or k[0] == "c")}
    assert rep == {
        "name": "local-isometry", "r": r, "ball_size": len(keys),
        "pairs_checked": ref_checked, "include_interior": interior,
        "violations": violations[:10], "violation_count": len(violations),
        "image_is_ball": set(images) == target_ball,
        "missing_from_image": len(target_ball - set(images)),
        "pass": not violations and set(images) == target_ball}
    assert rep["pairs_checked"] == checked
    json.dumps(rep)  # plain Python values only


@pytest.mark.parametrize("which,K", [("fg3", 0.5), ("fg3", 1.0), ("fg50", 1.0)])
def test_descent_matches_pair_loop(request, which, K):
    fg = request.getfixturevalue(which)
    rep = check_descent_quasigeodesic(fg, K=K, max_depth_used=4, samples=40,
                                      seed=1)
    assert rep == reference_descent(fg, K, 4, 40, 1)
    assert rep["paths_checked"] == 40
    json.dumps(rep)


def test_descent_failures_in_path_then_sub_pair_order(fg3):
    rep = check_descent_quasigeodesic(fg3, K=0.5, max_depth_used=4,
                                      samples=40, seed=1)
    assert rep["failure_count"] == 20
    # the fifth and sixth failures are two sub-pairs of one path
    assert rep["failures"][:6] == [
        {"start": "a^4", "end": "a^-2", "sub": (0, 3), "steps": 3,
         "target_distance": 1.0},
        {"start": "b^-1.a^1", "end": "b^-3", "sub": (0, 4), "steps": 4,
         "target_distance": 3.0},
        {"start": "a^-1.b^-1", "end": "1", "sub": (0, 5), "steps": 5,
         "target_distance": 5.0},
        {"start": "b^-1.a^-2", "end": "a^1", "sub": (0, 5), "steps": 5,
         "target_distance": 5.0},
        {"start": "a^2", "end": "b^-3", "sub": (0, 4), "steps": 4,
         "target_distance": 3.0},
        {"start": "a^2", "end": "b^-3", "sub": (0, 5), "steps": 4,
         "target_distance": 3.0}]


@functools.cache
def _r5(n):
    """The r = 5 windows of the a^n, b^n filling (n = 1: the unfilled
    window twice), the first without a distance matrix, the second with."""
    pair = standard_f2_pair()
    if n > 1:
        pair = make_filling(pair, {0: [f"a^{n}"], 1: [f"b^{n}"]}).quotient_pair
    return [build_cusped_ball(pair, 5) for _ in range(2)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 3]), st.booleans(), st.data())
def test_geodesics_match_the_walk_one_pair_at_a_time(n, cached, data):
    window = _r5(n)[cached]
    if cached:
        window.distance_matrix()
    assert (window._dist_matrix is not None) == cached
    vertex = st.integers(0, window.n_vertices - 1)
    u, v = zip(*data.draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                                   max_size=30)))
    refs = [reference_shortest_path(window, a, b) for a, b in zip(u, v)]
    width = max(map(len, refs))
    assert geodesics(window, u, v).tolist() == [
        ref + [-1] * (width - len(ref)) for ref in refs]
    assert shortest_path(window, u[0], v[0]).vertices == refs[0]


@functools.cache
def _fg_r5(n):
    pair = standard_f2_pair()
    filling = make_filling(pair, {0: [f"a^{n}"], 1: [f"b^{n}"]})
    return build_quotient_cusped(pair, filling, 5)


@pytest.mark.parametrize("n", [3, 20, 60])
def test_filling_reports_match_one_path_at_a_time(n):
    # for n = 3 about one lift draw in ten is skipped, and each skip shifts
    # the near/anywhere parity of the draws after it
    fg = _fg_r5(n)
    rep = filling_map_report(fg)
    assert {k: rep[k] for k in reference_map_edges(fg)} == reference_map_edges(fg)
    for seed in range(5):
        for K, depth, samples in ((1.0, 2, 200), (0.5, 5, 50)):
            assert check_descent_quasigeodesic(
                fg, K=K, max_depth_used=depth, samples=samples, seed=seed) \
                == reference_descent(fg, K, depth, samples, seed)
        assert lift_roundtrip_report(fg, n_paths=1000, seed=seed) \
            == reference_lift_roundtrip(fg, 1000, seed)


def test_small_draw_blocks_give_the_same_reports(monkeypatch):
    fg = _fg_r5(3)
    monkeypatch.setattr(filling_geometry, "DRAW_BLOCK", 7)
    assert check_descent_quasigeodesic(fg, K=0.5, max_depth_used=5,
                                       samples=50, seed=0) \
        == reference_descent(fg, 0.5, 5, 50, 0)
    assert lift_roundtrip_report(fg, n_paths=300, seed=0) \
        == reference_lift_roundtrip(fg, 300, 0)


def test_lift_stops_after_twenty_draws_per_path(fg50):
    # every source vertex over one far target vertex: no draw near the
    # centre has a preimage, so no path ever lifts
    tgt = fg50.target
    far = int(np.argmax(tgt.meta["dist_from_id"]))
    fg = FillingGeometry(fg50.source, tgt, fg50.filling,
                         np.full(fg50.source.n_vertices, far))
    rep = lift_roundtrip_report(fg, n_paths=5, seed=0)
    assert rep == reference_lift_roundtrip(fg, 5, 0)
    assert rep["paths"] == 0 and not rep["pass"]


def test_lift_path_matches_the_edge_by_edge_lift(fg3):
    tgt = fg3.target
    lifted = stuck = 0
    rng = np.random.default_rng(0)
    u, v = rng.integers(0, tgt.n_vertices, size=(2, 200))
    starts = [int(np.flatnonzero(fg3.vertex_map == x)[0]) for x in u]
    paths = geodesics(tgt, u, v)
    lifts = lift_paths(fg3, paths, np.array(starts))
    for path, lift, start in zip(paths.tolist(), lifts.tolist(), starts):
        path = [x for x in path if x >= 0]
        lift = lift[:len(path)]
        if lift[-1] < 0:
            # the row holds -1 from the step where the reference gets stuck
            t = lift.index(-1)
            assert set(lift[t:]) == {-1}
            assert reference_lift_path(fg3, path[:t], start) == lift[:t]
            with pytest.raises(NoPreimageEdge, match="no preimage edge"):
                reference_lift_path(fg3, path[:t + 1], start)
            stuck += 1
            continue
        assert reference_lift_path(fg3, path, start) == lift
        assert project_path(fg3, GraphPath(fg3.source, lift)).vertices == path
        lifted += 1
    assert lifted and stuck


@pytest.mark.parametrize("r", [0, -1])
def test_local_isometry_needs_a_positive_radius(fg50, r):
    with pytest.raises(InvalidParameterError, match="r >= 1"):
        check_local_isometry(fg50, r)


def test_descent_needs_a_sample(fg50):
    with pytest.raises(InvalidParameterError, match="samples >= 1"):
        check_descent_quasigeodesic(fg50, K=1.0, max_depth_used=2, samples=0)


def test_lift_needs_a_path(fg50):
    with pytest.raises(InvalidParameterError, match="n_paths >= 1"):
        lift_roundtrip_report(fg50, n_paths=0)


PAIRS = {name: make_pair(make_oracle({"kind": "free-product", "factors": [
    factor, {"kind": "free-abelian", "rank": 1}]})) for name, factor in (
        ("Z^2 * Z", {"kind": "free-abelian", "rank": 2}),
        ("Z/3 * Z", {"kind": "finite-cyclic", "order": 3}))}
# kernels that kill syllables of the radius-3 ball (a^1, a^2, b^3, b^2, the
# Z^2 kernels and a on Z/3) and kernels that kill none (a^5, b^20, <(4, 1)>)
KERNELS = {
    "F2": [{0: ["a"]}, {0: ["a^2"]}, {1: ["b^3"]}, {0: ["a^2"], 1: ["b^3"]},
           {0: ["a"], 1: ["b"]}, {0: ["a^5"], 1: ["b^20"]}, {}],
    "Z^2 * Z": [{0: [[1, 0]]}, {0: [[2, 0], [0, 2]]}, {0: [[1, 1]], 1: [[2]]},
                {0: [[4, 1]]}, {1: [[1]]}],
    "Z/3 * Z": [{0: ["a"]}, {1: ["b^2"]}, {0: ["a"], 1: ["b^3"]},
                {1: ["b^20"]}, {}],
}
FILLINGS = [(name, t) for name, ks in KERNELS.items() for t in range(len(ks))]


@functools.cache
def _pair(name):
    return standard_f2_pair() if name == "F2" else PAIRS[name]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FILLINGS), st.integers(1, 3))
def test_projection_is_the_product_of_projected_syllables(which, radius):
    name, t = which
    pair = _pair(name)
    filling = make_filling(pair, KERNELS[name][t])
    ball = enumerate_ball(pair.group, radius)
    assert [filling.project(g) for g in ball] \
        == [reference_project(filling, g) for g in ball]
    # the same images as syllable rows, each with a pad on its right
    tree = ball_tree(pair.group, radius)
    sylls, rows = filling.project_rows(tree.syllables, tree.rows)
    assert (rows[:, -1] == len(sylls)).all()
    assert [tuple(sylls[i] for i in row if i < len(sylls))
            for row in rows.tolist()] == [g.word for g in
                                          map(filling.project, ball)]


def test_killing_kernel_projects_syllables_to_the_identity():
    # a^2 kills a^2 and a^-2 but no other syllable of the radius-3 ball
    pair = standard_f2_pair()
    filling = make_filling(pair, {0: ["a^2"]})
    identity = filling.quotient_group.identity()
    dying = {s for g in enumerate_ball(pair.group, 3) for s in g.word
             if filling.project(GroupElement((s,))) == identity}
    assert dying == {(0, (2,)), (0, (-2,))}
    assert injectivity_report(filling, 3)["collisions"] > 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FILLINGS), st.integers(2, 4))
def test_vertex_map_is_the_per_key_projection(which, radius):
    name, t = which
    pair = _pair(name)
    fg = build_quotient_cusped(pair, make_filling(pair, KERNELS[name][t]),
                               radius)
    assert fg.vertex_map.dtype == np.int64
    assert fg.vertex_map.tolist() == reference_vertex_map(fg).tolist()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FILLINGS), st.integers(0, 4))
def test_injectivity_counts_collisions_of_projected_elements(which, radius):
    name, t = which
    pair = _pair(name)
    filling = make_filling(pair, KERNELS[name][t])
    ball = enumerate_ball(pair.group, radius)
    images = {reference_project(filling, g) for g in ball}
    rep = injectivity_report(filling, radius)
    assert rep["ball_size"] == len(ball)
    assert rep["collisions"] == len(ball) - len(images)
    assert rep["group_injective"] == (len(images) == len(ball))


@pytest.mark.parametrize("kernels", [{0: ["a"], 1: ["b^3"]},
                                     {0: ["a^20"], 1: ["b^20"]}])
def test_projection_takes_one_image_per_syllable(monkeypatch, kernels):
    # the vertex map and the injectivity ball project a table of distinct
    # syllables, and no word is multiplied out vertex by vertex
    pair = standard_f2_pair()
    filling = make_filling(pair, kernels)
    image, multiply = FillingData.image, FreeProductOracle.multiply
    calls = collections.Counter()

    def counted_image(self, s):
        calls[s] += 1
        return image(self, s)

    def counted_multiply(self, x, y):
        calls["multiply"] += 1
        return multiply(self, x, y)

    monkeypatch.setattr(FillingData, "image", counted_image)
    monkeypatch.setattr(FreeProductOracle, "multiply", counted_multiply)
    fg = build_quotient_cusped(pair, filling, 4)
    assert calls.pop("multiply", 0) == 0
    assert set(calls.values()) == {1}
    assert len(calls) == len(fg.source.meta["syllables"])
    calls.clear()
    injectivity_report(filling, 4)
    assert calls.pop("multiply", 0) == 0
    assert set(calls.values()) == {1}


def test_vertex_map_names_a_source_vertex_whose_image_is_missing(pair, f50):
    source = build_cusped_ball(pair, 3)
    with pytest.raises(WindowError, match=r"image of \('c', .*\) missing"):
        filling_geometry._vertex_map(
            source, build_cusped_ball(f50.quotient_pair, 2), f50)


def _swapped(fg):
    """fg's vertex map with the images of the identity and of a vertex
    farthest from it swapped."""
    vmap = fg.vertex_map.copy()
    far = int(np.argmax(fg.source.meta["dist_from_id"]))
    vmap[[0, far]] = vmap[[far, 0]]
    return vmap


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_max_stretch_matches_the_pair_lists(fg3, seed):
    # a hand-permuted vertex map, or a random permutation of its images
    vmap = _swapped(fg3) if seed is None else np.random.default_rng(
        seed).permutation(fg3.target.n_vertices)[fg3.vertex_map]
    fg = FillingGeometry(fg3.source, fg3.target, fg3.filling, vmap)
    rep = filling_map_report(fg)
    assert rep["max_stretch"] == reference_max_stretch(fg) > 0
    assert not rep["lipschitz_on_certified"] and not rep["pass"]


def test_max_stretch_reads_certified_pairs_only(pair, fg3):
    # certify only the pairs within the vertices off a random set, which
    # the swapped map stretches by 1; the set's random images stretch more
    source = build_cusped_ball(pair, radius=4, max_depth=4)
    D, n = source.distance_matrix(), source.n_vertices
    rng = np.random.default_rng(5)
    off = rng.choice(np.arange(1, n), 40, replace=False)
    cap = np.full(n, 100, dtype=np.int16)
    cap[off] = -100
    source._cert = Certificate(D, np.full(n, 100, dtype=np.int16), cap)
    vmap = _swapped(fg3)
    vmap[off] = rng.integers(0, fg3.target.n_vertices, len(off))
    fg = FillingGeometry(source, fg3.target, fg3.filling, vmap)
    Dt = fg3.target.distance_matrix()
    assert (Dt[np.ix_(vmap, vmap)] - D).max() > 1
    assert filling_map_report(fg)["max_stretch"] \
        == reference_max_stretch(fg) == 1


def test_fillings_of_one_pair_share_one_source_window():
    pair = standard_f2_pair()
    f3, f5 = (make_filling(pair, {0: [f"a^{n}"], 1: [f"b^{n}"]})
              for n in (3, 5))
    fg1 = build_quotient_cusped(pair, f3, 3)
    fg2 = build_quotient_cusped(pair, f5, 3)
    assert fg1.source is fg2.source is pair.window
    assert fg1.source.vertices == build_cusped_ball(pair, 3).vertices
    # another radius replaces the slot's window
    other = build_quotient_cusped(pair, f3, 2).source
    assert other is not fg1.source and other is pair.window
    assert other.vertices == build_cusped_ball(pair, 2).vertices
    assert build_quotient_cusped(pair, f5, 2).source is other
    again = build_quotient_cusped(pair, f3, 3).source
    assert again is not fg1.source and again.vertices == fg1.source.vertices


def test_window_cap_is_enforced(pair):
    with pytest.raises(BudgetExceededError):
        build_cusped_ball(pair, 3, cap=10)
