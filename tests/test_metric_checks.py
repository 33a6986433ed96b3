"""Window verification of the coarse-geometry inequalities for (F_2, Z*Z)."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhfill import metric_checks
from rhfill.errors import WindowError
from rhfill.groups import (GroupElement, make_filling, make_oracle, make_pair,
                           standard_f2_pair)
from rhfill.metric_checks import (comparison_lemma_check,
                                  deep_horoball_isometry_check,
                                  horoball_entry_check, quasidensity_check,
                                  verify_metric_lemmas)
from rhfill.cusped import build_cusped_ball, horo_pair
from rhfill.delta import four_point_delta_sampled
from reference_windows import (_horoball_members, coned_length,
                               reference_shortest_path)


@pytest.fixture(scope="module")
def pair():
    return standard_f2_pair()


@pytest.fixture(scope="module")
def report(pair):
    # one radius-6 bundle, shared by the assertions below
    return verify_metric_lemmas(pair, radius=6)


def by_name(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_bundle_passes(report):
    assert report["pass"]
    assert report["radius"] == 6
    assert report["vertices"] == 4629
    assert all(c["pass"] for c in report["checks"])


def test_sampled_delta_value(report):
    assert report["delta"]["value"] == 1.5
    assert report["delta"]["mode"] == "four-point-sampled"


def test_comparison_inequalities(report):
    comp = by_name(report, "comparison")
    assert comp["pairs_checked"] == 38960
    assert comp["violation_count"] == 0
    # distortion d_X / (d_Gamma * sqrt(2)^d_X) peaks at 1/sqrt(2) here
    assert comp["max_distortion_ratio"] == pytest.approx(0.70710678, abs=1e-8)


def test_horoball_entry(report):
    entry = by_name(report, "horoball-entry")
    assert entry["violation_count"] == 0
    assert entry["pairs_checked"] == 336402
    assert entry["bound"] == 3 * entry["C"] + 7 * report["delta"]["value"]


def test_quasidensity(report):
    q = by_name(report, "quasidensity")
    assert q["ball_radius"] == 5
    # canonical geodesic rays to the sphere sweep the whole window
    assert q["max_distance_to_rays"] == 0.0
    assert q["ray_vertices"] == 4629
    assert q["violation_count"] == 0


def test_deep_horoball_isometry(report):
    deep = by_name(report, "deep-horoball-isometry")
    assert deep["pairs_checked"] == 56428
    assert deep["violation_count"] == 0


def test_radius_gate(pair):
    with pytest.raises(WindowError):
        verify_metric_lemmas(pair, radius=4)


def test_lemma_checks_form_no_window_sized_array(pair):
    # with D formed, the certificate is O(n), and the sampled delta and the
    # four lemma checks, run in turn, peak below a third of D
    window = build_cusped_ball(pair, 6)
    D = window.distance_matrix()
    tracemalloc.start()
    try:
        window.certified_pairs_matrix()
        cert_bytes = tracemalloc.get_traced_memory()[0]
        delta = four_point_delta_sampled(D, samples=200_000, seed=0).delta
        comparison_lemma_check(window)
        horoball_entry_check(window, delta, C=2)
        quasidensity_check(window, delta, ball_radius=5)
        deep_horoball_isometry_check(window, max(1, math.ceil(delta)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert_bytes < 64 * window.n_vertices
    assert peak < D.nbytes / 3


def test_comparison_check_peak_at_radius_6(pair):
    # the pair gathers hold one-byte syllable ids, the common prefix is one
    # argmax and the certificate scan gathers at most PAIR_BLOCK pairs at
    # once: 2.72 MiB traced, 4.28 MiB with 256 rows of 1,481 columns per
    # scan and 5.12 MiB with int64 ids and a cumprod
    window = build_cusped_ball(pair, 6)
    window.certified_pairs_matrix()
    tracemalloc.start()
    try:
        assert comparison_lemma_check(window)["pairs_checked"] == 38960
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2 ** 20


def test_truncation_monotonicity_small(pair):
    # growing the window never changes a certified distance and never
    # increases any window distance
    small, big = build_cusped_ball(pair, 3), build_cusped_ball(pair, 4)
    Ds, cert = small.certified_pairs_matrix()
    every = np.arange(small.n_vertices)
    cs = cert[np.ix_(every, every)]
    into_big = np.array([big.index[k] for k in small.vertices])
    Db = big.distance_matrix()[np.ix_(into_big, into_big)]
    assert cs.sum() > 0
    assert (Db[cs] == Ds[cs]).all()
    assert (Db <= Ds).all()


@pytest.mark.parametrize("radius", [3, 5])
def test_ray_union_is_the_union_of_canonical_geodesics(pair, radius):
    window = build_cusped_ball(pair, radius)
    dist0 = np.asarray(window.meta["dist_from_id"])
    i0 = window.index[("c", ())]
    for targets in (np.flatnonzero(dist0 == radius),
                    np.flatnonzero(dist0 == radius - 2)[::3]):
        union = {i0}.union(*(reference_shortest_path(window, i0, int(t))
                             for t in targets))
        assert metric_checks._canonical_ray_union(window, targets).tolist() \
            == sorted(union)


def test_quasidensity_ball_must_fit(pair):
    window = build_cusped_ball(pair, 3)
    with pytest.raises(WindowError):
        quasidensity_check(window, delta=1.5, ball_radius=5)


def _reference_comparison(window):
    """The pair-by-pair loop: one group product per certified pair."""
    pair, G = window.pair, window.pair.group
    D, cert = window.certified_pairs_matrix()
    d0 = np.flatnonzero(window.depth == 0)
    elems = [GroupElement(window.vertices[i][1]) for i in d0]
    checked, violations, max_ratio = 0, [], 0.0
    for a in range(len(d0)):
        for b in range(a + 1, len(d0)):
            if not cert[d0[a], d0[b]]:
                continue
            dx = D[d0[a], d0[b]]
            w = G.multiply(G.inverse(elems[a]), elems[b])
            dg, dh = G.word_length(w), coned_length(pair, w)
            ub = dx * math.sqrt(2.0) ** dx
            checked += 1
            if not (dh <= dx <= dg <= ub + 1e-9):
                violations.append({
                    "u": window.labels[d0[a]], "v": window.labels[d0[b]],
                    "coned": dh, "cusped": float(dx), "word": dg,
                    "distortion_bound": ub})
            if ub > 0:
                max_ratio = max(max_ratio, dg / ub)
    return {"name": "comparison", "pairs_checked": checked,
            "violations": violations[:10], "violation_count": len(violations),
            "max_distortion_ratio": max_ratio, "pass": not violations}


@pytest.mark.parametrize("factors,kernels,radius", [
    ([{"kind": "free-abelian", "rank": 1}] * 2, None, 4),
    ([{"kind": "free-abelian", "rank": 1}] * 2, {0: ["a^3"], 1: ["b^3"]}, 4),
    ([{"kind": "finite-cyclic", "order": 5},
      {"kind": "free-abelian", "rank": 1}], None, 4),
    ([{"kind": "free-abelian", "rank": 2},
      {"kind": "free-abelian", "rank": 1}], None, 3),
])
def test_comparison_matches_pair_loop(factors, kernels, radius):
    pair = make_pair(make_oracle({"kind": "free-product", "factors": factors}))
    if kernels is not None:
        pair = make_filling(pair, kernels).quotient_pair
    window = build_cusped_ball(pair, radius)
    rep = comparison_lemma_check(window)
    assert rep == _reference_comparison(window)
    assert rep["pairs_checked"] > 0
    json.dumps(rep)  # plain Python values only


def _reference_entry(window, delta, C=2):
    """The column-wise loop: per horoball, distances to it from columns of
    D and distances out of it from an (H, outside) block."""
    D, cert = window.certified_pairs_matrix()
    bound = 3 * C + 7 * delta
    n = window.n_vertices
    checked, scanned, violations = 0, 0, []
    for label, idx_H in _horoball_members(window).items():
        in_H = np.zeros(n, dtype=bool)
        in_H[idx_H] = True
        near = np.flatnonzero(D[:, idx_H].min(axis=1) <= C)
        outside = np.flatnonzero(~in_H)
        if len(near) < 2 or len(outside) == 0:
            continue
        d_out = np.zeros(n)
        d_out[idx_H] = D[np.ix_(idx_H, outside)].min(axis=1)
        iu, il = np.triu_indices(len(near), k=1)
        ok = cert[near[iu], near[il]]
        checked += int(ok.sum())
        for t in np.flatnonzero(ok & (np.ceil(D[near[iu], near[il]] / 2.0)
                                      > bound)):
            x, y = int(near[iu[t]]), int(near[il[t]])
            scanned += 1
            d_ends = np.minimum(D[x], D[y])
            bad = (D[x] + D[y] == D[x, y]) & (d_ends > d_out + bound)
            violations += [{"horoball": label, "x": window.labels[x],
                            "y": window.labels[y], "z": window.labels[int(z)],
                            "d_to_ends": float(d_ends[z]),
                            "d_outside": float(d_out[z]), "bound": bound}
                           for z in np.flatnonzero(bad)]
    return {"name": "horoball-entry", "C": C, "delta": delta, "bound": bound,
            "pairs_checked": checked, "pairs_scanned": scanned,
            "violations": violations[:10], "violation_count": len(violations),
            "pass": not violations}


def _reference_deep(window, depth_floor):
    """The pair-by-pair loop: one d_local and one horo_pair per pair."""
    pair = window.pair
    D, cert = window.certified_pairs_matrix()
    groups = {}
    for i, key in enumerate(window.vertices):
        if key[0] == "h" and key[4] >= depth_floor:
            groups.setdefault((key[1], key[2]), []).append(i)
    checked, violations = 0, []
    for (pid, _), idx in groups.items():
        per = pair.peripherals[pid]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                if not cert[idx[a], idx[b]]:
                    continue
                ka, kb = window.vertices[idx[a]], window.vertices[idx[b]]
                expected = horo_pair(per.d_local(ka[3], kb[3]), ka[4], kb[4])
                checked += 1
                if D[idx[a], idx[b]] != expected:
                    violations.append({
                        "u": window.labels[idx[a]], "v": window.labels[idx[b]],
                        "window": float(D[idx[a], idx[b]]),
                        "horoball": expected})
    return {"name": "deep-horoball-isometry", "depth_floor": depth_floor,
            "pairs_checked": checked, "violations": violations[:10],
            "violation_count": len(violations), "pass": not violations}


LEMMA_WINDOWS = {
    "F2 r=4": lambda: build_cusped_ball(standard_f2_pair(), 4),
    "F2 r=6 depth 1": lambda: build_cusped_ball(standard_f2_pair(), 6,
                                                max_depth=1),
    "Z/5 * Z r=4": lambda: build_cusped_ball(make_pair(make_oracle({
        "kind": "free-product", "factors": [
            {"kind": "finite-cyclic", "order": 5},
            {"kind": "free-abelian", "rank": 1}]})), 4),
    "Z^2 * Z r=3": lambda: build_cusped_ball(make_pair(make_oracle({
        "kind": "free-product", "factors": [
            {"kind": "free-abelian", "rank": 2},
            {"kind": "free-abelian", "rank": 1}]})), 3),
}


@pytest.fixture(scope="module", params=sorted(LEMMA_WINDOWS))
def lemma_window(request):
    return LEMMA_WINDOWS[request.param]()


@pytest.mark.parametrize("delta", [0.0, 1.5])
def test_horoball_entry_matches_column_loop(lemma_window, delta):
    rep = horoball_entry_check(lemma_window, delta)
    assert rep == _reference_entry(lemma_window, delta)
    assert rep["pairs_checked"] > 0
    json.dumps(rep)


def test_horoball_entry_scan_and_violations_match_column_loop(pair):
    # a negative delta sends every pair to the on-geodesic scan and makes
    # violations, so their order and the first-10 cut are compared too
    window = build_cusped_ball(pair, 3)
    rep = horoball_entry_check(window, -2.0)
    assert rep == _reference_entry(window, -2.0)
    assert rep["pairs_scanned"] == rep["pairs_checked"] > 0
    assert rep["violation_count"] > 10


@pytest.mark.parametrize("depth_floor", [1, 2, 3])
def test_deep_isometry_matches_pair_loop(lemma_window, depth_floor):
    rep = deep_horoball_isometry_check(lemma_window, depth_floor)
    assert rep == _reference_deep(lemma_window, depth_floor)
    json.dumps(rep)


def test_deep_isometry_violations_match_pair_loop(pair):
    # shift every certified distance between even-indexed vertices, so
    # violations come from many horoballs and the first 10 are compared
    window = build_cusped_ball(pair, 4)
    D, cert = window.certified_pairs_matrix()
    shifted = D.copy()
    shifted[::2, ::2] += 1
    window.certified_pairs_matrix = lambda: (shifted, cert)
    rep = deep_horoball_isometry_check(window, 1)
    assert rep == _reference_deep(window, 1)
    assert rep["violation_count"] > 10 and not rep["pass"]
    json.dumps(rep)


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("radius,delta", [(3, -2.0), (4, 1.5)])
def test_horoball_entry_blocks_match_column_loop(pair, monkeypatch, block,
                                                 radius, delta):
    # small blocks split the within-neighbourhood pairs of one horoball
    # and of neighbouring ones between gathers
    window = build_cusped_ball(pair, radius)
    monkeypatch.setattr(metric_checks, "PAIR_BLOCK", block)
    assert horoball_entry_check(window, delta) == _reference_entry(window, delta)


@pytest.mark.parametrize("make", [
    lambda: build_cusped_ball(make_filling(standard_f2_pair(), {
        0: ["a^3"], 1: ["b^3"]}).quotient_pair, 4),
    lambda: build_cusped_ball(make_filling(make_pair(make_oracle({
        "kind": "free-product", "factors": [
            {"kind": "free-abelian", "rank": 2},
            {"kind": "free-abelian", "rank": 1}]})), {
        0: [[2, 0], [0, 3]], 1: ["c^3"]}).quotient_pair, 3),
])
def test_entry_and_deep_checks_on_filled_quotients(make):
    window = make()
    for delta in (-2.0, 1.5):
        assert horoball_entry_check(window, delta) == \
            _reference_entry(window, delta)
    for depth_floor in (1, 2):
        assert deep_horoball_isometry_check(window, depth_floor) == \
            _reference_deep(window, depth_floor)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=40))
def test_unique_inverse_is_np_unique(codes):
    codes = np.array(codes, dtype=np.int64)
    got, inv = metric_checks._unique_inverse(codes)
    want, want_inv = np.unique(codes, return_inverse=True)
    assert got.tolist() == want.tolist()
    assert inv.tolist() == want_inv.ravel().tolist()
