"""Automaton structure, exact arc containment, and nested path images."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rhfill.automata import (AutomatonGraph, Ball, CosetLabel, GPath,
                             SetSystem, SingletonLabel, automaton_from_json,
                             automaton_to_json, bundled_sanov_automaton,
                             check_compatibility, enumerate_gpaths,
                             nested_diameters, set_system_to_json,
                             validate_automaton,
                             _angle_diameter, _ball_arc, _element_matrix,
                             _has_quarter_turn, _image_diameter, _mobius_arc)
from rhfill.errors import BudgetExceededError, InvalidParameterError, SchemaError
from rhfill.groups import format_word, make_oracle, standard_f2_pair
from rhfill.tolerances import DEFAULT_TOLS
from reference_windows import reference_element_matrix, reference_search_witness

SANOV = {"a": [[1.0, 2.0], [0.0, 1.0]], "b": [[1.0, 0.0], [2.0, 1.0]]}
IDENT = {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.fixture(scope="module")
def pair():
    return standard_f2_pair()


@pytest.fixture(scope="module")
def bundled(pair):
    return bundled_sanov_automaton(pair)


# ---------------------------------------------------------------------------
# structure


def test_bundled_structure_passes(pair, bundled):
    auto, _ = bundled
    report = validate_automaton(auto, pair)
    assert report["pass"]
    assert report["vertices"] == 2 and report["edges"] == 2
    assert report["properties"]["G3"]["verdict"] == "pass"
    assert report["properties"]["G4"]["verdict"] == "pass"


def test_missing_outgoing_edge_fails_g3(pair):
    one = pair.group.identity()
    labels = [CosetLabel(one, 0, (one,)), CosetLabel(one, 1, (one,))]
    auto = AutomatonGraph(pair, labels, [(0, 1)])
    report = validate_automaton(auto, pair)
    assert not report["pass"]
    assert report["properties"]["G3"]["verdict"] == "fail"
    assert report["properties"]["G3"]["witnesses"] == [1]


def test_uncovered_peripheral_fails_g4(pair):
    one = pair.group.identity()
    a2 = pair.group.generator("a", 2)
    labels = [CosetLabel(one, 0, (one,)), SingletonLabel(a2)]
    auto = AutomatonGraph(pair, labels, [(0, 1), (1, 0)])
    report = validate_automaton(auto, pair)
    assert report["properties"]["G3"]["verdict"] == "pass"
    assert report["properties"]["G4"]["verdict"] == "fail"
    assert report["properties"]["G4"]["missing_peripherals"] == [1]


def test_shared_peripheral_needs_shared_edges(pair):
    one = pair.group.identity()
    labels = [CosetLabel(one, 0, (one,)), CosetLabel(one, 0, (one,)),
              CosetLabel(one, 1, (one,))]
    # vertices 0 and 1 both carry peripheral 0 but exit to different places
    auto = AutomatonGraph(pair, labels, [(0, 1), (1, 2), (2, 0)])
    report = validate_automaton(auto, pair)
    viols = report["properties"]["G4"]["edge_sharing_violations"]
    assert len(viols) == 1
    assert viols[0]["peripheral"] == 0 and viols[0]["vertices"] == [0, 1]
    assert not report["pass"]


def test_exclusion_outside_coset_rejected(pair):
    one = pair.group.identity()
    with pytest.raises(InvalidParameterError):
        AutomatonGraph(pair, [CosetLabel(one, 0, (pair.group.generator("b", 1),))],
                       [(0, 0)])


def test_unknown_peripheral_rejected(pair):
    with pytest.raises(InvalidParameterError):
        AutomatonGraph(pair, [CosetLabel(pair.group.identity(), 5)], [(0, 0)])


def test_bad_edges_rejected(pair):
    lab = SingletonLabel(pair.group.generator("a", 1))
    with pytest.raises(InvalidParameterError):
        AutomatonGraph(pair, [lab], [(0, 3)])
    with pytest.raises(InvalidParameterError):
        AutomatonGraph(pair, [lab], [(0, 0), (0, 0)])


def test_foreign_pair_rejected(bundled):
    auto, _ = bundled
    with pytest.raises(InvalidParameterError):
        validate_automaton(auto, standard_f2_pair())


def test_label_enumeration_order(pair, bundled):
    auto, _ = bundled
    elems, truncated = auto.label_elements(0, 3)
    assert truncated  # the coset is a copy of Z, any cutoff truncates
    words = [format_word(pair.group, e) for e in elems]
    assert words == ["a^-2", "a^2", "a^-3", "a^3"]
    single = AutomatonGraph(pair, [SingletonLabel(pair.group.generator("a", 2))],
                            [(0, 0)])
    assert single.label_elements(0, 7) == ([pair.group.generator("a", 2)], False)


# ---------------------------------------------------------------------------
# compatibility certificates


def test_bundled_compatibility_at_depth_12(bundled):
    auto, sys_ = bundled
    report = check_compatibility(SANOV, auto, sys_, enumeration_depth=12)
    assert report["pass"] and report["verdict"] == "pass"
    assert report["method"] == "exact-arc"
    assert report["labels_checked"] == 44
    assert report["containments_checked"] == 44
    assert report["label_truncated"]
    assert report["violations"] == [] and report["violation_count"] == 0
    # worst case is |k| = 2 pushing the far edge of the opposite ball
    assert report["min_margin"] == pytest.approx(0.19955362909943897, abs=1e-12)


def test_compatibility_checking_nothing_is_inconclusive(bundled):
    # depth 1 enumerates no transition label, so no containment is tested
    auto, sys_ = bundled
    report = check_compatibility(SANOV, auto, sys_, enumeration_depth=1)
    assert report["containments_checked"] == 0
    assert report["min_margin"] is None
    assert report["verdict"] == "inconclusive" and not report["pass"]


def test_compatibility_report_is_deterministic(bundled):
    auto, sys_ = bundled
    a = check_compatibility(SANOV, auto, sys_, enumeration_depth=8)
    b = check_compatibility(SANOV, auto, sys_, enumeration_depth=8)
    assert a == b


def test_identity_representation_fails(bundled):
    auto, sys_ = bundled
    report = check_compatibility(IDENT, auto, sys_, enumeration_depth=4)
    assert report["verdict"] == "fail" and not report["pass"]
    # the inflated opposite ball stays put, so its far point sits at the
    # metric maximum from the target center
    assert report["min_margin"] == pytest.approx(-0.52, abs=1e-12)
    assert report["violation_count"] == 12 and len(report["violations"]) == 10
    assert report["violations"][0]["alpha"] == "a^-2"


def test_unit_powers_must_be_excluded(pair, bundled):
    # keeping a^{+-1} in the transition sets breaks containment
    _, sys_ = bundled
    one = pair.group.identity()
    auto = AutomatonGraph(pair, [CosetLabel(one, 0, (one,)),
                                 CosetLabel(one, 1, (one,))],
                          [(0, 1), (1, 0)])
    report = check_compatibility(SANOV, auto, sys_, enumeration_depth=12)
    assert report["verdict"] == "fail"
    assert [v["alpha"] for v in report["violations"]] == \
        ["a^-1", "a^1", "b^-1", "b^1"]
    assert report["min_margin"] == pytest.approx(-0.09506107405927311, abs=1e-9)


def test_self_loop_cannot_certify(pair):
    # a parabolic pushes one side of its fixed line outward, so a vertex
    # looping on itself fails whatever finite exclusions it carries
    one = pair.group.identity()
    gen = pair.group.generator
    auto = AutomatonGraph(pair, [CosetLabel(one, 0, (one, gen("a", 1),
                                                     gen("a", -1)))], [(0, 0)])
    sys_ = SetSystem(0.02, {0: [Ball(0.0, 0.48)]})
    report = check_compatibility(SANOV, auto, sys_, enumeration_depth=6)
    assert report["verdict"] == "fail"
    assert report["min_margin"] == pytest.approx(-0.52, abs=1e-12)


def test_zero_margin_is_inconclusive(pair):
    # under the identity transition the inflated ball at vertex 1 is the
    # target ball at vertex 0, so the exact margin is 0 up to rounding
    one = pair.group.identity()
    auto = AutomatonGraph(pair, [SingletonLabel(one), SingletonLabel(one)],
                          [(0, 1)])
    sys_ = SetSystem(0.02, {0: [Ball(0.3, 0.3)], 1: [Ball(0.3, 0.28)]})
    report = check_compatibility(IDENT, auto, sys_, enumeration_depth=2)
    assert abs(report["min_margin"]) <= DEFAULT_TOLS.transversality
    assert report["verdict"] == "inconclusive" and not report["pass"]
    # the same ball, one rounding band away on either side, decides
    for radius, verdict in ((0.28 - 2e-9, "pass"), (0.28 + 2e-9, "fail")):
        moved = SetSystem(0.02, {0: [Ball(0.3, 0.3)],
                                    1: [Ball(0.3, radius)]})
        assert check_compatibility(IDENT, auto, moved, enumeration_depth=2)[
            "verdict"] == verdict


def test_margin_grows_as_epsilon_shrinks(bundled):
    auto, sys_ = bundled
    base = check_compatibility(SANOV, auto, sys_, enumeration_depth=12)
    margins = []
    for eps in (0.001, 0.005, 0.01, 0.015):
        shrunk = SetSystem(eps, {0: [Ball(0.0, 0.48)],
                                    1: [Ball(0.5 * math.pi, 0.48)]})
        margins.append(check_compatibility(SANOV, auto, shrunk,
                                           enumeration_depth=12)["min_margin"])
    assert all(m > base["min_margin"] for m in margins)
    assert margins == sorted(margins, reverse=True)


def test_compatibility_budget(bundled):
    auto, sys_ = bundled
    with pytest.raises(BudgetExceededError):
        check_compatibility(SANOV, auto, sys_, enumeration_depth=12,
                            max_checks=10)


def test_system_must_cover_all_vertices(pair, bundled):
    auto, _ = bundled
    half = SetSystem(0.02, {0: [Ball(0.0, 0.48)]})
    with pytest.raises(InvalidParameterError):
        check_compatibility(SANOV, auto, half, enumeration_depth=4)


def test_overfull_inflation_rejected(pair, bundled):
    auto, _ = bundled
    fat = SetSystem(0.02, {0: [Ball(0.0, 0.99)],
                              1: [Ball(0.5 * math.pi, 0.99)]})
    with pytest.raises(InvalidParameterError):
        check_compatibility(SANOV, auto, fat, enumeration_depth=4)


def test_missing_generator_rejected(bundled):
    auto, sys_ = bundled
    with pytest.raises(InvalidParameterError):
        check_compatibility({"a": SANOV["a"]}, auto, sys_, enumeration_depth=4)


@pytest.mark.parametrize("image,message", [
    ({"b": [[1.0, 2.0], [2.0, 4.0]]}, "b: matrix is singular"),
    ({"c": [[1.0, 0.0], [0.0, 1.0]]}, "c: not a generator"),
])
def test_bad_image_rejected_by_name(bundled, ping_pong_path, image, message):
    auto, sys_ = bundled
    rep = {**SANOV, **image}
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        check_compatibility(rep, auto, sys_, enumeration_depth=4)
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        nested_diameters(rep, ping_pong_path, sys_)


# ---------------------------------------------------------------------------
# set systems


def test_witnesses_found_by_search(bundled):
    _, sys_ = bundled
    assert sys_.witnesses[0] == pytest.approx(0.5 * math.pi)
    assert sys_.witnesses[1] == pytest.approx(0.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, math.pi) | st.floats(-10.0, 10.0),
                          st.floats(0.01, 0.6)),
                min_size=1, max_size=4))
def test_batched_witness_search_matches_the_loop(bundled, arcs):
    # centres outside [0, pi) name the same lines as their values mod pi
    _, sys_ = bundled
    balls = [Ball(c, r) for c, r in arcs]
    assert sys_._search_witness(balls) == reference_search_witness(balls)


def test_bundled_witnesses_match_the_loop(bundled):
    _, sys_ = bundled
    for v, balls in sys_.sets.items():
        assert sys_.witnesses[v] == reference_search_witness(balls)


def test_witness_margin_must_exceed_radius():
    # no line is transverse to both centers with margin above 0.7
    with pytest.raises(InvalidParameterError):
        SetSystem(0.02, {0: [Ball(0.0, 0.7), Ball(0.5 * math.pi, 0.7)]})


def test_set_system_validation():
    with pytest.raises(InvalidParameterError):
        SetSystem(0.0, {0: [Ball(0.0, 0.4)]})
    with pytest.raises(InvalidParameterError):
        SetSystem(0.02, {0: [Ball(0.0, 1.2)]})
    with pytest.raises(InvalidParameterError):
        SetSystem(0.02, {0: []})
    with pytest.raises(InvalidParameterError, match="angles"):
        SetSystem(0.02, {0: [Ball((1.0, 0.0), 0.3)]})


# ---------------------------------------------------------------------------
# JSON interchange


def test_automaton_json_roundtrip(pair, bundled):
    auto, _ = bundled
    obj = automaton_to_json(auto)
    assert obj == json.loads(json.dumps(obj))
    assert obj["edges"] == [[0, 1], [1, 0]]
    assert obj["vertices"][0]["label"] == {
        "kind": "coset", "g": "1", "peripheral": 0,
        "excluded": ["1", "a^1", "a^-1"]}
    back = automaton_from_json(pair, obj)
    assert back.labels == auto.labels and back.edges == auto.edges


def test_automaton_json_schema_errors(pair):
    with pytest.raises(SchemaError):
        automaton_from_json(pair, {"vertices": []})
    with pytest.raises(SchemaError, match="kind"):
        automaton_from_json(pair, {
            "vertices": [{"id": 0, "label": {"kind": "mystery"}}],
            "edges": []})
    with pytest.raises(SchemaError, match=r"vertices\[0\]"):
        automaton_from_json(pair, {
            "vertices": [{"id": 0, "label": {"kind": "singleton",
                                             "word": "c^2"}}],
            "edges": []})
    with pytest.raises(SchemaError, match="ids"):
        automaton_from_json(pair, {
            "vertices": [{"id": 1, "label": {"kind": "singleton",
                                             "word": "a^1"}}],
            "edges": []})


def test_set_system_json_roundtrip(bundled):
    # the JSON form survives text and lists every ball and witness
    _, sys_ = bundled
    obj = json.loads(json.dumps(set_system_to_json(sys_)))
    assert obj["epsilon"] == sys_.epsilon
    assert {int(v): [(b["angle"], b["radius"]) for b in balls]
            for v, balls in obj["sets"].items()} == {
        v: [(float(b.center), b.radius) for b in balls]
        for v, balls in sys_.sets.items()}
    assert {int(v): w for v, w in obj["witnesses"].items()} == sys_.witnesses


# ---------------------------------------------------------------------------
# path enumeration


def test_path_counts(bundled):
    auto, _ = bundled
    # 2 edges x 4 labels at cutoff 3, then 32 two-step continuations
    assert len(list(enumerate_gpaths(auto, 1, 3))) == 8
    assert len(list(enumerate_gpaths(auto, 2, 3))) == 40
    assert list(enumerate_gpaths(auto, 0, 3)) == []
    with pytest.raises(InvalidParameterError):
        list(enumerate_gpaths(auto, -1, 3))


def test_paths_deterministic_prefix_order(bundled):
    auto, _ = bundled
    paths = list(enumerate_gpaths(auto, 2, 3))
    again = list(enumerate_gpaths(auto, 2, 3))
    assert paths == again
    assert [p.words() for p in paths[:4]] == [
        ["a^-2"], ["a^-2", "b^-2"], ["a^-2", "b^2"], ["a^-2", "b^-3"]]
    assert paths[1].steps[:1] == paths[0].steps


def test_path_flags(bundled):
    auto, _ = bundled
    path = next(iter(enumerate_gpaths(auto, 1, 3)))
    assert path.truncated and path.ends_parabolic
    assert path.n_vertices == 2 and path.vertices == (0, 1)


def test_singleton_paths_and_products(pair):
    gen = pair.group.generator
    auto = AutomatonGraph(pair, [SingletonLabel(gen("a", 2)),
                                 SingletonLabel(gen("b", 2))],
                          [(0, 1), (1, 0)])
    paths = list(enumerate_gpaths(auto, 2, 5))
    assert len(paths) == 2 + 2
    two = [p for p in paths if len(p) == 2][0]
    assert not two.truncated and not two.ends_parabolic
    words = [format_word(pair.group, g) for g in two.partial_products()]
    assert words == ["1", "a^2", "a^2.b^2"]
    assert format_word(pair.group, two.element()) == "a^2.b^2"


def test_empty_automaton_has_no_paths(pair):
    auto = AutomatonGraph(pair, [], [])
    assert list(enumerate_gpaths(auto, 3, 3)) == []


# ---------------------------------------------------------------------------
# nested diameters


@pytest.fixture(scope="module")
def ping_pong_path(bundled):
    auto, _ = bundled
    return next(p for p in enumerate_gpaths(auto, 10, 3) if len(p) == 10)


def test_nested_diameters_contract(bundled, ping_pong_path):
    _, sys_ = bundled
    report = nested_diameters(SANOV, ping_pong_path, sys_)
    d = report["diameters"]
    assert len(d) == 11
    # the seed set is one arc, so its diameter has a closed form
    assert d[0] == pytest.approx(0.96 * math.sqrt(1 - 0.48 ** 2), abs=1e-12)
    assert all(y < x for x, y in zip(d, d[1:]))
    assert report["monotone_nonincreasing"] and report["contracting"]
    assert report["rate"] == pytest.approx(0.05657966652391419, abs=1e-9)
    assert report["max_repetition"] == 1 and report["backtracking_ok"]
    assert report["vertex_count"] == 2


def test_identity_rate_is_flagged(bundled, ping_pong_path):
    _, sys_ = bundled
    report = nested_diameters(IDENT, ping_pong_path, sys_)
    assert report["rate"] == pytest.approx(1.0, abs=1e-9)
    assert not report["contracting"]


def test_partial_products_counted_exactly(pair, bundled, ping_pong_path):
    prods = ping_pong_path.partial_products()
    assert len({g.word for g in prods}) == len(prods)


def test_empty_path_rejected(pair, bundled):
    _, sys_ = bundled
    empty = GPath((), (0,), pair=pair, n_vertices=2)
    with pytest.raises(InvalidParameterError):
        nested_diameters(SANOV, empty, sys_)


def test_nested_requires_coverage(pair, ping_pong_path):
    lonely = SetSystem(0.02, {0: [Ball(0.0, 0.48)]})
    with pytest.raises(InvalidParameterError):
        nested_diameters(SANOV, ping_pong_path, lonely)


@pytest.mark.parametrize("balls", [
    [Ball(0.0, 0.9)],
    [Ball(0.0, 0.05), Ball(0.5 * math.pi + 0.013, 0.05)],
], ids=["one-arc-wider-than-a-quarter-turn", "two-arcs-a-quarter-turn-apart"])
def test_quarter_turn_diameter_is_exact(ping_pong_path, balls):
    # 128 sampled angles per ball give 0.9999990811890499 and
    # 0.999999956106019 here
    sys_ = SetSystem(0.02, {0: balls, 1: balls})
    report = nested_diameters(IDENT, ping_pong_path, sys_)
    assert report["diameters"] == [1.0] * 11


def _sl2(theta1: float, stretch: float, theta2: float) -> np.ndarray:
    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return rot(theta1) @ np.diag([math.exp(stretch), math.exp(-stretch)]) \
        @ rot(theta2)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 1.5),
                 st.floats(0.0, math.pi)),
       st.lists(st.tuples(st.floats(0.0, math.pi, exclude_max=True),
                          st.floats(0.01, 0.99)), min_size=1, max_size=3))
def test_image_diameter_against_dense_sampling(kak, balls):
    # single arcs and unions of up to three under random SL2 images; radii
    # above 1/sqrt(2) and spread centers give quarter-turn unions
    m = _sl2(*kak)
    arcs = [_ball_arc(c, r) for c, r in balls]
    exact = _image_diameter(m, arcs)
    images, step = [], 0.0
    for s, w in arcs:
        ts = np.linspace(s, s + w, 400)
        vecs = m @ np.vstack([np.cos(ts), np.sin(ts)])
        ang = np.arctan2(vecs[1], vecs[0])
        gaps = np.abs(np.diff(ang)) % math.pi
        step = max(step, float(np.minimum(gaps, math.pi - gaps).max()))
        images.append(ang)
    reference = _pairwise_sine_diameter(np.concatenate(images))
    # a sampled supremum errs low, by at most the image sampling step
    assert reference - 1e-12 <= exact <= reference + step + 1e-12
    if _has_quarter_turn([_mobius_arc(m, arc) for arc in arcs]):
        assert exact == 1.0


def _pairwise_sine_diameter(angles):
    # reference: the sine of every pairwise circular distance, then the max
    diff = np.abs(angles[:, None] - angles[None, :]) % math.pi
    circ = np.minimum(diff, math.pi - diff)
    return float(np.max(np.sin(circ)))


def _diameter_cases():
    rng = np.random.default_rng(11)
    for _ in range(300):
        yield rng.uniform(-math.pi, math.pi, int(rng.integers(2, 130)))
    for _ in range(100):  # clusters on both sides of 0 and of pi
        n = int(rng.integers(2, 40))
        yield np.concatenate([rng.normal(0.0, 0.05, n),
                              rng.choice([-math.pi, math.pi], n)
                              + rng.normal(0.0, 0.05, n)])
    for _ in range(100):
        yield rng.uniform(-math.pi, math.pi, 2)
    yield np.array([0.0, math.pi])
    yield np.array([-math.pi / 2, math.pi / 2])
    yield np.array([0.3, 0.3])
    yield np.full(5, -1.2)
    yield np.repeat(rng.uniform(-math.pi, math.pi, 4), 3)


def test_angle_diameter_matches_pairwise_sines():
    for angles in _diameter_cases():
        assert _angle_diameter(angles) == _pairwise_sine_diameter(angles), \
            angles


# ---------------------------------------------------------------------------
# the exact arc image against pointwise mapping


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arc_image_contains_pointwise_images(data):
    center = data.draw(st.floats(0.0, math.pi, exclude_max=True))
    radius = data.draw(st.floats(0.05, 0.9))
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    m = np.array(entries, float).reshape(2, 2)
    assume(abs(np.linalg.det(m)) >= 0.5)
    arc = _ball_arc(center, radius)
    image = _mobius_arc(m, arc)
    for t in np.linspace(arc[0], arc[0] + arc[1], 25):
        v = m @ (math.cos(t), math.sin(t))
        angle = math.atan2(v[1], v[0]) % math.pi
        assert (angle - image[0]) % math.pi <= image[1] + 1e-9


# ---------------------------------------------------------------------------
# element matrices: prefix reuse against the fold from the identity


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_element_matrix_is_the_fold_from_the_identity(seed):
    # random free-product words with all their prefixes, asked for in a
    # random order and then in another, through one shared cache
    oracle = make_oracle({"kind": "free-product",
                          "factors": [{"kind": "free-abelian", "rank": 1},
                                      {"kind": "finite-cyclic", "order": 5},
                                      {"kind": "free-abelian", "rank": 1}]})
    rng = np.random.default_rng(seed)
    mats = {n: rng.standard_normal((2, 2)) * np.exp(rng.uniform(-3, 3))
            for n in oracle.gen_names}
    gens = oracle.generators()
    words = []
    for _ in range(20):
        g = oracle.identity()
        words.append(g)
        for _ in range(int(rng.integers(0, 15))):
            g = oracle.multiply(g, gens[int(rng.integers(len(gens)))])
            words.append(g)
    cache: dict = {}
    for order in (rng.permutation(len(words)), rng.permutation(len(words))):
        for i in order:
            got = _element_matrix(mats, oracle, words[i], cache)
            want = reference_element_matrix(mats, oracle, words[i])
            assert got.tobytes() == want.tobytes()
