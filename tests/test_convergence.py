"""Filling families: EDF queries, Chabauty windows, limit sets, fibers,
and geodesic tracking of automaton paths."""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from rhfill.automata import Ball, bundled_sanov_automaton, enumerate_gpaths
from rhfill import convergence
from rhfill.convergence import (EdfQuery, RepFamily, _gram, _sign_canonical,
                                _sup_min,
                                bundled_edf_queries,
                                chabauty_check, edf_condition_check,
                                elliptic_family, elliptic_generators,
                                fiber_consistency_check, gpath_tracking_check,
                                limit_set_convergence, sanov_generators,
                                sequences_from_gpaths)
from rhfill.errors import (InvalidParameterError, UnsupportedKindError,
                           WindowError)
from rhfill.groups import standard_f2_pair
from rhfill.scenarios import bundled_scenario_path, load_scenario
from reference_windows import constant_family, reference_sup_min, traced_peak

# frozen from the exact-arc enumeration at depth 8 (worst element a^2)
BASE_MARGIN = 0.03813569600225242
EDF_MARGINS = {
    10: 0.04815599880770477,
    20: 0.04056138964355338,
    30: 0.039207481291483826,
    40: 0.03873734407938867,
    60: 0.03840270561030101,
}
# frozen local-Hausdorff distances, depth 8, Frobenius window radius 10
CHABAUTY_FULL = {
    10: 2.0999108153695727,
    20: 1.0497139309355878,
    30: 0.47502064560291646,
    40: 0.2688902119518017,
    60: 0.1200466653328667,
}
# frozen limit-set cloud distances at depth 12
LIMIT_D12 = {
    10: 0.09939242224401383,
    20: 0.039769753147897165,
    30: 0.02738491975730689,
    40: 0.014686393920456026,
    60: 0.006325783435191778,
}
LIMIT_SIZES = {10: 272870, 20: 262366, 30: 252836, 40: 249744, 60: 247492}

ROTATIONS = {
    "a": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "b": np.array([[math.cos(0.3), -math.sin(0.3)],
                   [math.sin(0.3), math.cos(0.3)]]),
}


@pytest.fixture(scope="module")
def pair():
    return standard_f2_pair()


@pytest.fixture(scope="module")
def family(pair):
    return elliptic_family(pair, (10, 20, 30, 40, 60))


@pytest.fixture(scope="module")
def queries(pair):
    return bundled_edf_queries(pair)


# ---------------------------------------------------------------------------
# family construction


def test_elliptic_traces_and_determinants():
    for n in (3, 10, 60):
        rep = elliptic_generators(n)
        for m in rep.values():
            assert abs(np.linalg.det(m) - 1.0) < 1e-12
            assert abs(np.trace(m) - 2.0 * math.cos(math.pi / n)) < 1e-12


def test_elliptic_power_dies_projectively():
    for n in (10, 30, 60):
        rep = elliptic_generators(n)
        for m in rep.values():
            p = np.linalg.matrix_power(m, n)
            assert np.linalg.norm(p + np.eye(2)) < 1e-10


def test_elliptic_order_too_small_rejected():
    with pytest.raises(InvalidParameterError):
        elliptic_generators(1)


def test_family_validates_kernel_words(pair):
    # a^3 does not die under the order-10 deformation
    with pytest.raises(InvalidParameterError, match="kernel word"):
        RepFamily(pair, sanov_generators(), {10: elliptic_generators(10)},
                  kernels={10: {0: ["a^3"]}})


def test_family_kernel_spec_needs_known_index(pair):
    with pytest.raises(InvalidParameterError, match="unknown index"):
        RepFamily(pair, sanov_generators(), {}, kernels={10: {0: ["a^10"]}})


@pytest.mark.parametrize("image", ["x", [[1.0, 0.0], [0.0]], [[1.0, 2.0]]])
def test_family_rejects_non_square_images(pair, image):
    with pytest.raises(InvalidParameterError, match="square"):
        RepFamily(pair, {"a": image, "b": np.eye(2)}, {})


def test_family_member_name_mismatch(pair):
    with pytest.raises(InvalidParameterError):
        RepFamily(pair, sanov_generators(), {5: {"a": np.eye(2)}})


@pytest.mark.parametrize("image,a", [
    ({"a": [[1.0, 2.0], [2.0, 4.0]]}, "matrix is singular"),
    ({"a": [[1.0, 2.0], [0.0, math.nan]]}, "finite"),
    ({"a": [[1.0, 2.0], [0.0]]}, "square"),
    ({"b": np.eye(3)}, "3x3 matrix, the other images are 2x2"),
    ({"c": np.eye(2)}, "not a generator"),
])
def test_family_names_the_member_and_generator_of_a_bad_image(pair, image, a):
    rep = {**sanov_generators(), **image}
    name = next(iter(image))
    with pytest.raises(InvalidParameterError,
                       match=f"^member 10, generator {name}: .*{a}"):
        RepFamily(pair, sanov_generators(), {10: rep})


def test_family_names_the_generator_missing_from_the_base(pair):
    with pytest.raises(InvalidParameterError, match="^base, generator b: no image"):
        RepFamily(pair, {"a": np.eye(2)}, {})


def test_family_indices_and_lookup(pair, family):
    assert family.indices == [10, 20, 30, 40, 60]
    assert family.rep(None) is family.base
    assert family.filling(10) is not None
    assert family.filling(10).quotient_pair.peripherals[0].factor.p_order() == 10


# ---------------------------------------------------------------------------
# extended filling condition


def test_edf_base_hypothesis(family, queries):
    rep = edf_condition_check(family, queries[0])
    base = rep["base"]
    assert base["verdict"] == "pass"
    assert base["min_margin"] == pytest.approx(BASE_MARGIN, abs=1e-12)
    assert base["worst_element"] == "a^2"
    assert base["tested"] == 14
    assert not base["conclusive"]  # infinite peripheral, truncated window


def test_edf_holds_for_long_fillings(family, queries):
    rep = edf_condition_check(family, queries[0])
    by_index = {r["index"]: r for r in rep["edf"]}
    for n, margin in EDF_MARGINS.items():
        row = by_index[n]
        assert row["verdict"] == "pass"
        assert row["conclusive"]
        assert row["order"] == n
        assert row["min_margin"] == pytest.approx(margin, abs=1e-12)
        assert row["worst_element"] == "a^2"
    assert rep["pass"]


def test_edf_vacuous_when_exclusion_covers_quotient(pair, queries):
    # order 3 leaves residues {0, 1, 2} = exactly the excluded a^{0,+-1}
    rep = edf_condition_check(elliptic_family(pair, (3,)), queries[0])
    row = rep["edf"][0]
    assert row["verdict"] == "vacuous"
    assert row["tested"] == 0
    assert row["conclusive"]
    assert rep["pass"]


def test_stability_fails_at_every_finite_index(family, queries):
    rep = edf_condition_check(family, queries[0])
    for row in rep["peripheral_stability"]:
        assert row["verdict"] == "fail"
        assert row["witness"] == f"a^-{row['index']}"
        assert row["min_margin"] == pytest.approx(-0.7, abs=1e-12)
    assert rep["stability_implies_edf"]


def test_edf_b_side_symmetric(family, queries):
    rep = edf_condition_check(family, queries[1])
    assert rep["pass"]
    assert rep["base"]["min_margin"] == pytest.approx(BASE_MARGIN, abs=1e-12)
    assert rep["base"]["worst_element"] == "b^-2"
    for row in rep["peripheral_stability"]:
        assert row["verdict"] == "fail"
        assert row["witness"] == f"b^-{row['index']}"


def test_edf_identity_only_exclusion_fails_base(pair):
    # excluding just the identity leaves the unit powers in the test set,
    # and those move the opposite fixed line nowhere near the target ball
    g = pair.group
    q = EdfQuery(peripheral=0, attracting=(Ball(0.0, 0.3),),
                 repelling=(Ball(0.5 * math.pi, 0.3),),
                 excluded=(g.identity(),))
    rep = edf_condition_check(elliptic_family(pair, (3,)), q)
    assert rep["base"]["verdict"] == "fail"
    assert rep["base"]["min_margin"] == pytest.approx(-0.21024663308066643,
                                                      abs=1e-12)
    assert rep["base"]["worst_element"] == "a^1"
    row = rep["edf"][0]
    assert row["verdict"] == "fail"
    assert row["tested"] == 2
    assert row["min_margin"] == pytest.approx(-0.20082491799906305, abs=1e-12)
    assert not rep["pass"]
    assert rep["stability_implies_edf"]


def test_edf_trivial_filling_matches_base(pair, queries):
    fam = RepFamily(pair, sanov_generators(), {7: sanov_generators()},
                    kernels={7: {}})
    rep = edf_condition_check(fam, queries[0])
    row = rep["edf"][0]
    assert row["order"] is None
    assert not row["conclusive"]
    assert row["min_margin"] == rep["base"]["min_margin"]
    stab = rep["peripheral_stability"][0]
    assert stab["min_margin"] == rep["base"]["min_margin"]
    assert stab["verdict"] == row["verdict"] == rep["base"]["verdict"] == "pass"


def test_edf_rejects_overlapping_balls(pair, family):
    q = EdfQuery(peripheral=0, attracting=(Ball(0.0, 0.3),),
                 repelling=(Ball(0.2, 0.3),))
    with pytest.raises(InvalidParameterError, match="not separated"):
        edf_condition_check(family, q)


def test_edf_rejects_foreign_exclusions(pair, family):
    q = EdfQuery(peripheral=0, attracting=(Ball(0.0, 0.3),),
                 repelling=(Ball(0.5 * math.pi, 0.3),),
                 excluded=(pair.group.generator("b", 1),))
    with pytest.raises(InvalidParameterError, match="not in"):
        edf_condition_check(family, q)


def test_edf_rejects_bad_peripheral_and_depth(pair, family, queries):
    q = EdfQuery(peripheral=5, attracting=(Ball(0.0, 0.3),),
                 repelling=(Ball(0.5 * math.pi, 0.3),))
    with pytest.raises(InvalidParameterError):
        edf_condition_check(family, q)
    with pytest.raises(InvalidParameterError):
        edf_condition_check(family, queries[0], enumeration_depth=0)


def test_edf_exact_arc_only(pair, queries):
    # a family of other-size images no longer loads, so no check sees one
    d3 = {"a": np.diag([2.0, 1.0, 0.5]), "b": np.diag([0.5, 1.0, 2.0])}
    with pytest.raises(UnsupportedKindError, match="^base, generator a: .*d = 3"):
        RepFamily(pair, d3, {})


# ---------------------------------------------------------------------------
# windowed matrix sets


def test_chabauty_distances_decrease(family):
    rep = chabauty_check(family)
    assert rep["decreasing"] == {"full": True, "peripheral-0": True,
                                 "peripheral-1": True}
    for row in rep["table"]:
        want = CHABAUTY_FULL[row["index"]]
        assert row["full"]["distance"] == pytest.approx(want, abs=1e-9)
    assert rep["pass"]


def test_chabauty_one_sided_values(family):
    rep = chabauty_check(family)
    first = rep["table"][0]
    assert first["full"]["a_side"] == pytest.approx(2.0999108153695727,
                                                    abs=1e-9)
    assert first["full"]["b_side"] == pytest.approx(1.5159713890789956,
                                                    abs=1e-9)


def test_chabauty_peripheral_dominates_generator_deviation(family):
    rep = chabauty_check(family)
    for row in rep["table"]:
        # the worst window point is itself peripheral here
        for pid in (0, 1):
            per = row["peripheral"][pid]
            assert per["dominates_generator_deviation"]
            assert per["distance"] == pytest.approx(row["full"]["distance"],
                                                    abs=1e-9)
        assert row["generator_deviation"] < row["full"]["distance"]


def test_chabauty_constant_family_is_zero(pair):
    fam = constant_family(pair, sanov_generators(), (10, 20))
    rep = chabauty_check(fam, word_depth=4)
    for row in rep["table"]:
        assert row["full"]["distance"] == 0.0
        assert row["peripheral"][0]["distance"] == 0.0


def test_chabauty_monotone_in_depth_and_radius(pair):
    fam = elliptic_family(pair, (30,))
    by_depth = [chabauty_check(fam, word_depth=L)["table"][0]["full"]["distance"]
                for L in (2, 4, 6, 8)]
    assert all(x <= y for x, y in zip(by_depth, by_depth[1:]))
    by_radius = [chabauty_check(fam, ball_radius=r)["table"][0]["full"]["distance"]
                 for r in (2.5, 5.0, 10.0, 20.0)]
    assert all(x <= y for x, y in zip(by_radius, by_radius[1:]))
    assert by_radius[0] < by_radius[-1]


def test_chabauty_parameter_validation(family):
    with pytest.raises(InvalidParameterError):
        chabauty_check(family, word_depth=0)
    with pytest.raises(InvalidParameterError):
        chabauty_check(family, ball_radius=-1.0)


# ---------------------------------------------------------------------------
# the blocked window deviation against one gram product per row block


def _fma_chain(x, y) -> float:
    """sum_k x[k] y[k] as fused multiply-adds in k order, each rounded once."""
    acc = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        acc = float(Fraction(a) * Fraction(b) + Fraction(acc))
    return acc


@pytest.mark.parametrize("m, n", [(1, 1), (1, 200), (2, 3), (12, 199),
                                  (41, 1110), (41, 12851), (59, 13121)])
def test_gram_entries_are_one_fma_chain(m, n):
    # one-row products and column tails of widths other than 8k take
    # other BLAS kernels; _gram pads both away
    rng = np.random.default_rng(m * n)
    x = rng.standard_normal((m, 4)) * np.exp(rng.uniform(-5, 5, (m, 1)))
    y = rng.standard_normal((n, 4)) * np.exp(rng.uniform(-5, 5, (n, 1)))
    g = _gram(x, y)
    cols = np.union1d(rng.integers(0, n, 40), np.arange(max(0, n - 8), n))
    for i in range(m):
        for j in cols:
            assert g[i, j] == _fma_chain(x[i], y[j])


def _random_sets(rng):
    """Windowed and other sets of 2x2 rows at mixed scales, with sign
    flips and exact copies of windowed rows among the others."""
    x = rng.standard_normal((int(rng.integers(0, 40)), 4)) * np.exp(
        rng.uniform(-3, 3, (1, 1)))
    y = rng.standard_normal((int(rng.integers(0, 300)), 4))
    if len(x) and len(y):
        k = int(rng.integers(0, min(len(x), len(y)) + 1))
        y[:k] = x[:k] * rng.choice([-1.0, 1.0], (k, 1))
        rng.shuffle(y)
    return x, y, float(rng.uniform(0.5, 8.0))


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_sup_min_does_not_depend_on_the_block(monkeypatch, chunk):
    monkeypatch.setattr(convergence, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for _ in range(100):
        x, y, radius = _random_sets(rng)
        assert _sup_min(x, y, radius) == reference_sup_min(x, y, radius)


@pytest.fixture(scope="module")
def bundled_window_sets():
    """The (sup side, inf side) arguments of every _sup_min call that
    chabauty_check makes on the bundled family at word depth 8: per member
    the two full sets, then the two peripheral sets of each subgroup."""
    calls, real = [], convergence._sup_min

    def record(a, b, radius):
        calls.append((a, b))
        return real(a, b, radius)

    with mock.patch.object(convergence, "_sup_min", record):
        chabauty_check(load_scenario(bundled_scenario_path()).family, 10.0, 8)
    return calls


@pytest.mark.parametrize("chunk", [1, 5, 64, convergence._CHUNK])
def test_sup_min_does_not_depend_on_the_block_on_the_bundled_sets(
        monkeypatch, bundled_window_sets, chunk):
    monkeypatch.setattr(convergence, "_CHUNK", chunk)
    peripheral = [c for i, c in enumerate(bundled_window_sets) if i % 6 >= 2]
    # the first member's full sets; at chunks 1 and 5 each such call takes
    # 1.3-1.5 s, so there only the peripheral sets are compared
    full = bundled_window_sets[:2] if chunk >= 64 else []
    for a, b in peripheral + full:
        assert _sup_min(a, b, 10.0) == reference_sup_min(a, b, 10.0)


def test_chabauty_peak_memory():
    # two blocks of 2^16 entries; row blocks against a whole 13k set held
    # three arrays of 59 x 13,121 floats and peaked at 20.7 MiB
    fam = load_scenario(bundled_scenario_path()).family
    assert traced_peak(lambda: chabauty_check(fam, 10.0, 8)) <= 12 * 2 ** 20


def test_limit_set_convergence_peak_memory():
    # the base cloud (1.9 MiB) beside one member's q_limit_set at a time:
    # its raw angles (8.1 MiB), one block per level and the dedup; with
    # levels 10 and 11 stored whole it peaked at 23.2 MiB
    fam = load_scenario(bundled_scenario_path()).family
    assert traced_peak(lambda: limit_set_convergence(fam, 12)) <= 17 * 2 ** 20


# ---------------------------------------------------------------------------
# limit-set convergence


def test_limit_set_distances_decrease(family):
    rep = limit_set_convergence(family, word_depth=12)
    assert rep["decreasing"]
    assert rep["base_size"] == 245812
    for row in rep["table"]:
        assert row["d_hausdorff"] == pytest.approx(LIMIT_D12[row["index"]],
                                                   abs=1e-9)
        assert row["cloud_size"] == LIMIT_SIZES[row["index"]]
    assert rep["final_distance"] < 0.05


def test_limit_set_depth_stabilization(family):
    d12 = limit_set_convergence(family, word_depth=12)["table"]
    d8 = limit_set_convergence(family, word_depth=8)["table"]
    for r12, r8 in zip(d12, d8):
        assert r12["d_hausdorff"] <= r8["d_hausdorff"] + 0.02


def test_limit_set_constant_family_zero(pair):
    fam = constant_family(pair, sanov_generators(), (10, 20))
    rep = limit_set_convergence(fam, word_depth=8)
    assert [r["d_hausdorff"] for r in rep["table"]] == [0.0, 0.0]
    assert rep["final_distance"] == 0.0


def test_limit_set_flags_nondivergent_member(pair):
    fam = RepFamily(pair, sanov_generators(), {5: ROTATIONS})
    rep = limit_set_convergence(fam, word_depth=4)
    assert rep["flagged"] == [{"index": 5,
                               "reason": "divergence-screening-failed"}]
    assert rep["table"] == []


def test_limit_set_measures_a_fast_schottky_member(pair):
    # tr(ab) = 18, so every power of ab diverges; its 7th power has a gap
    # past 1e12, which a conditioning test on powers took for singular
    schottky = {"a": [[1.0, 4.0], [0.0, 1.0]], "b": [[1.0, 0.0], [4.0, 1.0]]}
    rep = limit_set_convergence(
        RepFamily(pair, sanov_generators(), {4: schottky}), word_depth=4)
    assert rep["flagged"] == []
    assert [r["index"] for r in rep["table"]] == [4]
    assert rep["table"][0]["d_hausdorff"] > 0.0


def test_limit_set_base_must_pass_screening(pair):
    fam = constant_family(pair, ROTATIONS, (5,))
    with pytest.raises(InvalidParameterError, match="screening"):
        limit_set_convergence(fam, word_depth=4)


def test_limit_set_parameter_validation(family):
    with pytest.raises(InvalidParameterError):
        limit_set_convergence(family, word_depth=0)


# ---------------------------------------------------------------------------
# fiber consistency


def test_fiber_bounded_perturbation_shares_limit(pair):
    g = pair.group
    s1 = [g.generator("a", k) for k in range(1, 25)]
    s2 = [g.multiply(g.generator("a", k), g.generator("b", 1))
          for k in range(1, 25)]
    rep = fiber_consistency_check(sanov_generators(), pair, [s1, s2])
    row = rep["pairs"][0]
    assert row["paired"]
    assert row["window_hausdorff"] == 1
    assert row["flag_distance"] == pytest.approx(0.00016342422855682883,
                                                 abs=1e-12)
    assert row["ok"] and rep["pass"]


def test_fiber_transverse_tails_are_far(pair):
    g = pair.group
    s1 = [g.generator("a", k) for k in range(1, 25)]
    s3 = [g.generator("b", k) for k in range(1, 25)]
    rep = fiber_consistency_check(sanov_generators(), pair, [s1, s3])
    row = rep["pairs"][0]
    assert not row["paired"]
    assert row["window_hausdorff"] > 3
    assert row["flag_distance"] > 0.1
    assert rep["pass"]  # distant pairs carry no constraint


def test_fiber_same_sequence_identical(pair):
    g = pair.group
    s1 = [g.generator("a", k) for k in range(1, 25)]
    rep = fiber_consistency_check(sanov_generators(), pair, [s1, list(s1)])
    row = rep["pairs"][0]
    assert row["window_hausdorff"] == 0
    assert row["flag_distance"] == 0.0


def test_fiber_short_sequences_unverified_not_failed(pair):
    g = pair.group
    short = [g.generator("a", 1), g.generator("a", 2)]
    rep = fiber_consistency_check(sanov_generators(), pair, [short, short])
    assert rep["sequences"][0]["verdict"] == "inconclusive"
    assert rep["unverified"] == 1
    assert rep["pairs"][0]["flag_distance"] is None
    assert rep["pass"]


def test_fiber_sequences_from_gpaths(pair):
    auto, _ = bundled_sanov_automaton(pair)
    paths = [p for p in enumerate_gpaths(auto, 3, label_cutoff=2)
             if len(p) == 3]
    seqs = sequences_from_gpaths(paths[:2])
    assert len(seqs) == 2 and all(len(s) == 3 for s in seqs)
    assert seqs[0][0] == paths[0].steps[0][1]
    rep = fiber_consistency_check(sanov_generators(), pair, seqs)
    assert rep["name"] == "fiber-consistency"


def test_fiber_validation(pair):
    with pytest.raises(InvalidParameterError):
        fiber_consistency_check(sanov_generators(), pair, [])
    with pytest.raises(InvalidParameterError):
        fiber_consistency_check(sanov_generators(), pair, [[]])
    d3 = {"a": np.eye(3), "b": np.eye(3)}
    with pytest.raises(UnsupportedKindError):
        fiber_consistency_check(d3, pair, [[pair.group.generator("a", 1)]])


def test_fiber_refuses_a_singular_image(pair):
    rep = {"a": [[1.0, 2.0], [2.0, 4.0]], "b": np.eye(2)}
    with pytest.raises(InvalidParameterError, match="^a: matrix is singular"):
        fiber_consistency_check(rep, pair, [[pair.group.generator("a", 1)]])


# ---------------------------------------------------------------------------
# path tracking


def test_tracking_ping_pong_path(pair):
    auto, _ = bundled_sanov_automaton(pair)
    path = next(p for p in enumerate_gpaths(auto, 4, label_cutoff=2)
                if len(p) == 4)
    assert path.words() == ["a^-2", "b^-2", "a^-2", "b^-2"]
    rep = gpath_tracking_check(pair, path, radius=8)
    assert rep["geodesic_length"] == rep["direct_distance"] == 8
    assert rep["hausdorff"] == 1
    assert rep["step_cost_max"] == 2
    assert rep["max_geodesic_depth"] == 0
    assert rep["depth_bound"] == 5.0
    assert rep["pass"]


def test_tracking_window_too_small(pair):
    auto, _ = bundled_sanov_automaton(pair)
    path = next(p for p in enumerate_gpaths(auto, 4, label_cutoff=2)
                if len(p) == 4)
    with pytest.raises(WindowError, match="beyond the window"):
        gpath_tracking_check(pair, path, radius=6)


def test_tracking_singleton_powers(pair):
    g = pair.group
    rep = gpath_tracking_check(pair, [g.generator("a", k) for k in (1, 2, 3)],
                               radius=4)
    assert rep["hausdorff"] == 0.0
    assert rep["geodesic_length"] == 3
    assert rep["max_geodesic_depth"] == 0
    assert rep["depth_bound"] == 1.0
    assert rep["pass"]


def test_tracking_deep_horoball_travel(pair):
    # one jump a^16: the geodesic dives two levels into the horoball
    rep = gpath_tracking_check(pair, [pair.group.generator("a", 16)], radius=8)
    assert rep["geodesic_length"] == 8
    assert rep["hausdorff"] == 0.0
    assert rep["max_geodesic_depth"] == 2
    assert rep["pass"]


def _unique_reference(rows):
    sign = np.zeros(len(rows))
    for i in range(rows.shape[1]):
        m = (sign == 0) & (np.abs(rows[:, i]) > 1e-8)
        sign[m] = np.sign(rows[m, i])
    sign[sign == 0] = 1.0
    return np.unique(np.round(rows * sign[:, None], 9), axis=0)


@pytest.mark.parametrize("seed", range(5))
def test_sign_canonical_matches_unique(seed):
    rng = np.random.default_rng(seed)
    # few distinct values: many ties, +-m pairs, exact and rounded zeros
    base = rng.choice([0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5, 2.0], (60, 4))
    rows = np.concatenate([base, -base, base[::3], rng.normal(size=(20, 4))])
    got = _sign_canonical(rows[rng.permutation(len(rows))])
    want = _unique_reference(rows)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.signbit(got[got == 0]).any()  # -0.0 entries do occur


def test_sign_canonical_keeps_the_first_of_tied_zeros():
    rows = np.array([[1.0, -0.0], [1.0, 0.0], [0.5, 2.0], [1.0, -0.0],
                     [-0.5, -2.0]])
    got = _sign_canonical(rows)
    assert got.tolist() == [[0.5, 2.0], [1.0, 0.0]]
    assert np.signbit(got[1, 1])  # the first [1, -0] row is kept
    assert _sign_canonical(np.empty((0, 4))).shape == (0, 4)
