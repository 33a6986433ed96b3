"""pair_word_costs against the per-pair group products it replaces.

For every pair of sampled elements, the array routine must give the exact
cusped distance (ExactCuspedMetric.elem_dist), the word length and the coned
length of g^-1 h, on the free group, on its fillings a^n, b^n (finite cyclic
factors, where merged exponents wrap) and on a free product with a rank-two
free abelian factor and a filling of it (a quotient-abelian factor).
"""
from functools import lru_cache, reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from rhfill.cusped import ExactCuspedMetric, horo_flat, pair_word_costs
from rhfill.groups import (enumerate_ball, make_filling, make_oracle,
                           make_pair, standard_f2_pair)
from reference_windows import coned_distance, reference_pair_word_costs

F2 = standard_f2_pair()
Z2_Z = make_pair(make_oracle({"kind": "free-product", "factors": [
    {"kind": "free-abelian", "rank": 2}, {"kind": "free-abelian", "rank": 1}]}))
FILLINGS = {
    "a^3, b^3": (F2, {0: ["a^3"], 1: ["b^3"]}),
    "a^5, b^5": (F2, {0: ["a^5"], 1: ["b^5"]}),
    "a^20, b^20": (F2, {0: ["a^20"], 1: ["b^20"]}),
    "Z^2/<(3,1)> * Z/4": (Z2_Z, {0: [[3, 1]], 1: [[4]]}),
}
SPACES = ["F2", "Z^2 * Z"] + sorted(FILLINGS)
COSTS = {"cusped": horo_flat, "word": int, "coned": lambda n: min(n, 2)}


@lru_cache(maxsize=None)
def space(name: str, radius: int):
    """(pair, elements in normal form) for a named space and ball radius;
    filled spaces take the images of the source ball, without repeats."""
    if name == "F2":
        return F2, enumerate_ball(F2.group, radius)
    if name == "Z^2 * Z":
        return Z2_Z, enumerate_ball(Z2_Z.group, radius)
    base, kernels = FILLINGS[name]
    filling = make_filling(base, kernels)
    images = [filling.project(g) for g in enumerate_ball(base.group, radius)]
    return filling.quotient_pair, list(dict.fromkeys(images))


def reference(pair, g, h) -> dict:
    G = pair.group
    w = G.multiply(G.inverse(g), h)
    return {"cusped": ExactCuspedMetric(pair).elem_dist(g, h),
            "word": G.word_length(w),
            "coned": coned_distance(pair, g, h)}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SPACES), st.integers(0, 4), st.data())
def test_word_costs_match_group_products(name, radius, data):
    pair, elems = space(name, radius)
    n = len(elems)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               min_size=1, max_size=40))
    i, j = (np.array(x) for x in zip(*pairs))
    got = {k: pair_word_costs(pair.group, elems, i, j, cost)
           for k, cost in COSTS.items()}
    for t, (a, b) in enumerate(pairs):
        assert {k: int(v[t]) for k, v in got.items()} == \
            reference(pair, elems[a], elems[b])


def test_word_costs_on_every_pair_of_a_small_ball():
    pair, elems = space("a^3, b^3", 3)
    n = len(elems)
    i, j = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n),
                                           indexing="ij"))
    got = pair_word_costs(pair.group, elems, i, j, horo_flat)
    metric = ExactCuspedMetric(pair)
    assert got.tolist() == [metric.elem_dist(elems[a], elems[b])
                            for a, b in zip(i, j)]
    # the diagonal is zero and the cost symmetric
    assert not got.reshape(n, n).diagonal().any()
    assert (got.reshape(n, n) == got.reshape(n, n).T).all()


def test_word_costs_of_no_pairs_and_of_the_identity_alone():
    G = F2.group
    none = np.array([], dtype=np.int64)
    assert pair_word_costs(G, [G.identity()], none, none, int).shape == (0,)
    zero = np.array([0])
    assert pair_word_costs(G, [G.identity()], zero, zero, int).tolist() == [0]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SPACES), st.data())
def test_first_mismatch_is_the_cumulative_product(name, data):
    # random products of generators, repeats and equal pairs included
    pair = space(name, 0)[0]
    G = pair.group
    gens = G.generators()
    words = data.draw(st.lists(st.lists(st.sampled_from(gens), max_size=9),
                               min_size=1, max_size=12))
    elems = [reduce(G.multiply, w, G.identity()) for w in words]
    index = st.integers(0, len(elems) - 1)
    i, j = (np.array(x, dtype=np.int64) for x in zip(*data.draw(
        st.lists(st.tuples(index, index), min_size=1, max_size=40))))
    for cost in COSTS.values():
        assert pair_word_costs(G, elems, i, j, cost).tolist() \
            == reference_pair_word_costs(G, elems, i, j, cost).tolist()
