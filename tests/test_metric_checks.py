"""Window verification of the coarse-geometry inequalities for (F_2, Z*Z)."""
import json
import math

import numpy as np
import pytest

from rhfill.errors import WindowError
from rhfill.groups import (GroupElement, make_filling, make_oracle, make_pair,
                           standard_f2_pair)
from rhfill.metric_checks import (comparison_lemma_check, quasidensity_check,
                                  truncation_monotonicity_check,
                                  verify_metric_lemmas)
from rhfill.cusped import build_cusped_ball, coned_length


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
    assert q["violation_count"] == 0


def test_deep_horoball_isometry(report):
    deep = by_name(report, "deep-horoball-isometry")
    assert deep["pairs_checked"] == 56428
    assert deep["violation_count"] == 0


def test_radius_gate(pair):
    with pytest.raises(WindowError):
        verify_metric_lemmas(pair, radius=4)


def test_truncation_monotonicity_small(pair):
    rep = truncation_monotonicity_check(pair, radius=3)
    assert rep["pass"]
    assert rep["certified_stable"]
    assert rep["distances_monotone"]
    assert rep["certified_pairs"] > 0


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
