import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhfill.errors import BudgetExceededError, InvalidParameterError, UnsupportedKindError
from rhfill.groups import (
    FiniteCyclicOracle,
    FreeAbelianOracle,
    FreeProductOracle,
    ball_tree,
    enumerate_ball,
    format_word,
    make_filling,
    make_oracle,
    make_pair,
    parse_word,
    standard_f2_pair,
)
from reference_windows import (elementary_divisors, reference_ball_tree,
                               reference_project)

F2 = standard_f2_pair()
G = F2.group


def words(max_len=6):
    """Strategy producing random elements of F2 as generator index lists."""
    return st.lists(st.integers(0, 3), max_size=max_len)


def as_elem(ixs):
    gens = G.generators()
    g = G.identity()
    for i in ixs:
        g = G.multiply(g, gens[i])
    return g


# --- oracle basics ---------------------------------------------------------

def test_free_reduction():
    free = make_oracle({"kind": "free", "rank": 2})
    a = free.generator("a")
    assert free.is_identity(free.multiply(a, free.inverse(a)))
    w = parse_word(free, "a^2.b^1.b^-1.a^-2")
    assert free.is_identity(w)


def test_finite_cyclic_residues():
    z5 = make_oracle({"kind": "finite-cyclic", "order": 5})
    a = z5.generator("a")
    assert z5.is_identity(z5.power(a, 5))
    assert z5.word_length(z5.power(a, 3)) == 2  # a^3 = a^-2
    assert format_word(z5, z5.power(a, 3)) == "a^-2"


def test_free_product_radius3_ball_is_53():
    # independent oracle: brute-force products of up to three generators
    gens = G.generators()
    brute = {G.identity()}
    layer = {G.identity()}
    for _ in range(3):
        layer = {G.multiply(g, s) for g in layer for s in gens}
        brute |= layer
    ball = enumerate_ball(G, 3)
    assert len(brute) == 53
    assert len(ball) == 53
    assert set(ball) == brute


def test_ball_ordering_and_trivia():
    z = make_oracle({"kind": "free-abelian", "rank": 1})
    ball = enumerate_ball(z, 3)
    assert len(ball) == 7
    assert [z.word_length(g) for g in ball] == sorted(z.word_length(g) for g in ball)
    assert enumerate_ball(G, 0) == [G.identity()]


def test_ball_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_ball(G, 10, cap=100)


@pytest.mark.parametrize("radius,size", [(0, 1), (2, 17), (3, 53)])
def test_ball_budget_is_exact(radius, size):
    assert len(enumerate_ball(G, radius, cap=size)) == size
    with pytest.raises(BudgetExceededError):
        enumerate_ball(G, radius, cap=size - 1)


@pytest.mark.parametrize("oracle,radius", [
    (G, 6),
    (make_filling(F2, {0: ["a^5"], 1: ["b^7"]}).quotient_group, 6),
])
def test_ball_tree_records_parents(oracle, radius):
    tree = ball_tree(oracle, radius)
    assert tree.elements == enumerate_ball(oracle, radius)
    gens = oracle.generators()
    assert oracle.is_identity(tree.elements[0])
    assert (tree.parent[0], tree.step[0], tree.level[0]) == (-1, -1, 0)
    for i in range(1, len(tree.elements)):
        parent = tree.elements[tree.parent[i]]
        assert oracle.multiply(parent, gens[tree.step[i]]) == tree.elements[i]
        assert tree.level[i] == tree.level[tree.parent[i]] + 1
        assert tree.level[i] == oracle.word_length(tree.elements[i])


def test_make_oracle_errors():
    with pytest.raises(UnsupportedKindError):
        make_oracle({"kind": "braid"})
    with pytest.raises(InvalidParameterError):
        make_oracle({"kind": "finite-cyclic", "order": 0})
    with pytest.raises(UnsupportedKindError):
        make_oracle({"kind": "free-product",
                     "factors": [{"kind": "free", "rank": 2}]})


def test_word_roundtrip():
    for text in ["1", "a^3", "a^3.b^-2", "b^-1.a^1.b^2"]:
        assert format_word(G, parse_word(G, text)) == text


# --- group axioms (property) -----------------------------------------------

@settings(max_examples=300, deadline=None)
@given(words(), words(), words())
def test_associativity_and_inverses(xi, yi, zi):
    x, y, z = as_elem(xi), as_elem(yi), as_elem(zi)
    assert G.multiply(G.multiply(x, y), z) == G.multiply(x, G.multiply(y, z))
    assert G.is_identity(G.multiply(x, G.inverse(x)))
    assert G.multiply(G.identity(), x) == x


@settings(max_examples=300, deadline=None)
@given(words())
def test_word_length_subadditive_on_generators(xi):
    x = as_elem(xi)
    for s in G.generators():
        assert G.word_length(G.multiply(x, s)) <= G.word_length(x) + 1


# --- peripheral structure ---------------------------------------------------

def test_membership_and_coset_keys():
    per_a = F2.peripherals[0]
    assert per_a.membership(parse_word(G, "a^3"))
    assert not per_a.membership(parse_word(G, "b^1"))
    k1 = per_a.coset_key(parse_word(G, "b^1.a^2"))
    k2 = per_a.coset_key(parse_word(G, "b^1.a^5"))
    assert k1 == k2 == parse_word(G, "b^1")
    assert per_a.coset_key(parse_word(G, "b^1")) != per_a.coset_key(parse_word(G, "b^2"))


@settings(max_examples=200, deadline=None)
@given(words(), st.integers(0, 1))
def test_coset_key_iff_same_coset(xi, pid):
    per = F2.peripherals[pid]
    g = as_elem(xi)
    # g and g*p share a key for peripheral p; g and g*(other factor gen) do not
    p = per.embed(per.factor.p_from_exponents([3]))
    assert per.coset_key(G.multiply(g, p)) == per.coset_key(g)
    recomposed = G.multiply(per.coset_key(g), per.embed(per.local(g)))
    assert recomposed == g


def test_peripheral_generation():
    # the generators inside each peripheral reach its whole radius-4 ball
    for per in F2.peripherals:
        steps = [per.local(g) for g in F2.group.generators() if per.membership(g)]
        seen = frontier = {per.factor.p_identity()}
        for _ in range(4):
            frontier = {per.factor.p_add(p, q) for p in frontier for q in steps}
            seen = seen | frontier
        assert set(per.factor.p_within(4)) <= seen


# --- fillings ----------------------------------------------------------------

def test_filling_z2_coordinate_kill():
    o = make_oracle({"kind": "free-product",
                     "factors": [{"kind": "free-abelian", "rank": 2},
                                 {"kind": "free-abelian", "rank": 1}]})
    pair = make_pair(o)
    fill = make_filling(pair, {"0": [[1, 0]]})
    qf = fill.quotient_group.factors[0]
    assert qf.p_order() is None  # quotient is Z
    # the surviving coordinate is exactly the second one
    img = reference_project(fill, parse_word(o, "a^4.b^7"))
    assert fill.quotient_group.word_length(img) == 7


def test_filling_z2_two_torsion():
    o = make_oracle({"kind": "free-product",
                     "factors": [{"kind": "free-abelian", "rank": 2},
                                 {"kind": "free-abelian", "rank": 1}]})
    pair = make_pair(o)
    fill = make_filling(pair, {"0": [[2, 0], [0, 2]]})
    assert fill.quotient_group.factors[0].p_order() == 4
    assert elementary_divisors([[2, 0], [0, 2]], width=2) == [2, 2]


def test_filling_cyclic_quotients():
    fill = make_filling(F2, {"0": ["a^5"], "1": ["b^7"]})
    Q = fill.quotient_group
    assert [f.p_order() for f in Q.factors] == [5, 7]
    assert Q.is_identity(reference_project(fill, parse_word(G, "a^5")))
    assert Q.is_identity(reference_project(fill, parse_word(G, "b^7")))
    # Z/5 * Z/7 ball count against direct syllable enumeration:
    # length <= 2 means one syllable of length <= 2 or two of length 1
    assert len(enumerate_ball(Q, 2)) == 1 + 4 + 4 + 8


def test_filling_five_seven_not_injective_on_radius4():
    # a^2 and a^-3 differ in F2 but collide mod a^5, both inside radius 4;
    # injectivity on the radius-R ball genuinely needs n > 2R
    fill = make_filling(F2, {"0": ["a^5"], "1": ["b^7"]})
    x, y = parse_word(G, "a^2"), parse_word(G, "a^-3")
    assert x != y
    assert reference_project(fill, x) == reference_project(fill, y)


@settings(max_examples=150, deadline=None)
@given(words(5), words(5))
def test_projection_homomorphism(xi, yi):
    fill = make_filling(F2, {"0": ["a^5"], "1": ["b^5"]})
    x, y = as_elem(xi), as_elem(yi)
    assert reference_project(fill, G.multiply(x, y)) == \
        fill.quotient_group.multiply(reference_project(fill, x), reference_project(fill, y))


def test_projection_one_lipschitz_on_ball():
    fill = make_filling(F2, {"0": ["a^5"], "1": ["b^5"]})
    Q = fill.quotient_group
    for g in enumerate_ball(G, 4):
        assert Q.word_length(reference_project(fill, g)) <= G.word_length(g)


def test_injectivity_window_rule():
    # kernels {a^n},{b^n}: injective on radius R exactly when n > 2R
    for n, radius, expect in [(11, 5, True), (7, 3, True), (6, 3, False)]:
        fill = make_filling(F2, {"0": [f"a^{n}"], "1": [f"b^{n}"]})
        ball = enumerate_ball(G, radius)
        images = {reference_project(fill, g) for g in ball}
        assert (len(images) == len(ball)) is expect


def test_make_filling_rejects_bad_kernels():
    with pytest.raises(InvalidParameterError):
        make_filling(F2, {"3": ["a^5"]})
    with pytest.raises(InvalidParameterError):
        make_filling(F2, {"0": [[1, 2, 3]]})
    with pytest.raises(InvalidParameterError):
        make_filling(F2, {"0": ["b^5"]})  # b is not a letter of peripheral 0


@pytest.mark.parametrize("key", [1.7, None, True, "x", "-1", " 1"])
def test_make_filling_rejects_non_integer_peripheral_ids(key):
    with pytest.raises(InvalidParameterError, match="peripheral id"):
        make_filling(F2, {key: ["a^5"]})


def test_pair_from_free_oracle():
    free = make_oracle({"kind": "free", "rank": 2})
    pair = make_pair(free, {"cyclic-generators": ["a", "b"]})
    assert len(pair.peripherals) == 2
    assert len(enumerate_ball(pair.group, 3)) == 53


@pytest.mark.parametrize("spec", [
    {"kind": "free", "rank": 1},
    {"kind": "free", "rank": 2},
    {"kind": "free", "rank": 3},
    {"kind": "free-abelian", "rank": 1},
    {"kind": "free-abelian", "rank": 3},
    {"kind": "finite-cyclic", "order": 1},
    {"kind": "finite-cyclic", "order": 2},
    {"kind": "finite-cyclic", "order": 7},
    {"kind": "free-product", "factors": [
        {"kind": "finite-cyclic", "order": 5}, {"kind": "free-abelian", "rank": 2},
        {"kind": "free-abelian", "rank": 1}]},
], ids=lambda spec: str(spec))
@pytest.mark.parametrize("radius", [0, 1, 4])
def test_ball_tree_is_in_sort_key_order(spec, radius):
    oracle = make_oracle(spec)
    elements = ball_tree(oracle, radius).elements
    assert elements == sorted(elements, key=oracle.sort_key)
    assert len(set(elements)) == len(elements)


@pytest.mark.parametrize("kernels", [
    {0: [[3, 1]], 1: ["c^4"]},       # Z^2/<(3,1)> * Z/4, infinite factor
    {0: [[2, 0], [0, 3]]},          # Z/2 x Z/3 * Z
])
def test_ball_tree_of_a_filled_quotient_is_in_sort_key_order(kernels):
    pair = make_pair(make_oracle({"kind": "free-product", "factors": [
        {"kind": "free-abelian", "rank": 2}, {"kind": "free-abelian", "rank": 1}]}))
    oracle = make_filling(pair, kernels).quotient_group
    elements = ball_tree(oracle, 5).elements
    assert elements == sorted(elements, key=oracle.sort_key)


# --- array ball trees against the dict breadth-first search ------------------

Z2_Z = make_pair(make_oracle({"kind": "free-product", "factors": [
    {"kind": "free-abelian", "rank": 2}, {"kind": "free-abelian", "rank": 1}]}))

BALL_ORACLES = {
    "F1": make_oracle({"kind": "free", "rank": 1}),
    "F2": G,
    "F3": make_oracle({"kind": "free", "rank": 3}),
    "Z": make_oracle({"kind": "free-abelian", "rank": 1}),
    "Z^2": make_oracle({"kind": "free-abelian", "rank": 2}),
    "Z^3": make_oracle({"kind": "free-abelian", "rank": 3}),
    "Z/1": make_oracle({"kind": "finite-cyclic", "order": 1}),
    "Z/2": make_oracle({"kind": "finite-cyclic", "order": 2}),
    "Z/5": make_oracle({"kind": "finite-cyclic", "order": 5}),
    "Z/2*Z/2": make_oracle({"kind": "free-product", "factors": [
        {"kind": "finite-cyclic", "order": 2}, {"kind": "finite-cyclic", "order": 2}]}),
    "Z/3*Z/3": make_oracle({"kind": "free-product", "factors": [
        {"kind": "finite-cyclic", "order": 3}, {"kind": "finite-cyclic", "order": 3}]}),
    "Z^2*Z": Z2_Z.group,
    "Z/5*Z^2*Z": make_oracle({"kind": "free-product", "factors": [
        {"kind": "finite-cyclic", "order": 5}, {"kind": "free-abelian", "rank": 2},
        {"kind": "free-abelian", "rank": 1}]}),
    "F2/<a^20,b^20>": make_filling(F2, {0: [[20]], 1: [[20]]}).quotient_group,
    "F2/<a^3,b^2>": make_filling(F2, {0: ["a^3"], 1: ["b^2"]}).quotient_group,
    "Z^2*Z/(3,1)": make_filling(Z2_Z, {0: [[3, 1]]}).quotient_group,
    "Z^2*Z/(3,1),c^4": make_filling(Z2_Z, {0: [[3, 1]], 1: ["c^4"]}).quotient_group,
    "Z^2*Z/(2,0),(0,3)": make_filling(Z2_Z, {0: [[2, 0], [0, 3]]}).quotient_group,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BALL_ORACLES)), st.integers(0, 4))
def test_ball_tree_matches_the_dict_search(name, radius):
    oracle = BALL_ORACLES[name]
    tree = ball_tree(oracle, radius)
    elements, parent, step, level = reference_ball_tree(oracle, radius)
    assert tree.elements == elements
    for got, want in [(tree.parent, parent), (tree.step, step),
                      (tree.level, level)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the rows spell the normal forms in the tree's own syllable ids
    pad = len(tree.syllables)
    for g, row in zip(elements, tree.rows.tolist()):
        word = tuple(tree.syllables[i] for i in row if i != pad)
        if not isinstance(oracle, FreeProductOracle):  # one factor, id 0
            word = word[0][1] if word else oracle.p_identity()
        assert word == g.word


@pytest.mark.parametrize("name", sorted(BALL_ORACLES))
def test_ball_tree_cap_is_exact(name):
    oracle = BALL_ORACLES[name]
    size = len(ball_tree(oracle, 3).level)
    assert len(ball_tree(oracle, 3, cap=size).level) == size
    with pytest.raises(BudgetExceededError):
        ball_tree(oracle, 3, cap=size - 1)


def test_ball_tree_builds_elements_on_first_read():
    tree = ball_tree(G, 4)
    assert "elements" not in vars(tree)
    assert tree.elements is tree.elements
    assert len(tree.elements) == len(tree.level) == 161
