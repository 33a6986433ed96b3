import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rhfill.lattices import (
    elementary_divisors,
    reduce_mod_rows,
    row_hermite,
)


def test_hermite_fixed_cases():
    assert row_hermite([[5]]) == [[5]]
    assert row_hermite([[2, 0], [0, 2]]) == [[2, 0], [0, 2]]
    assert row_hermite([[6, 3], [3, 6]]) == [[3, 6], [0, 9]]
    assert row_hermite([[0, 0]]) == []
    # span invariance: generators in a different order and with mixed signs
    assert row_hermite([[3, 6], [-6, -3]]) == [[3, 6], [0, 9]]


def test_reduce_mod_rows_canonical():
    h = row_hermite([[5]])
    assert reduce_mod_rows([7], h) == (2,)
    assert reduce_mod_rows([-3], h) == (2,)
    h2 = row_hermite([[2, 0], [0, 2]])
    reps = {reduce_mod_rows(v, h2) for v in itertools.product(range(-4, 5), repeat=2)}
    assert len(reps) == 4  # order of Z^2 / (2Z)^2


def test_elementary_divisors_fixed_cases():
    assert elementary_divisors([[2, 0], [0, 2]]) == [2, 2]
    assert elementary_divisors([[1, 0]]) == [1]
    assert elementary_divisors([[2, 4]]) == [2]
    assert elementary_divisors([[4, 6], [6, 4]]) == [2, 10]
    assert elementary_divisors([[0, 0], [0, 0]]) == []


def test_divisor_chain_condition():
    ds = elementary_divisors([[4, 6], [6, 4]])
    for x, y in zip(ds, ds[1:]):
        assert y % x == 0


mat_strategy = st.lists(
    st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    min_size=1, max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(mat_strategy)
def test_hermite_rows_stay_in_lattice(rows):
    h = row_hermite(rows)
    # every original generator reduces to zero mod the computed form
    for r in rows:
        assert not any(reduce_mod_rows(r, h))


@settings(max_examples=200, deadline=None)
@given(mat_strategy, st.lists(st.integers(-9, 9), min_size=2, max_size=2),
       st.lists(st.integers(-2, 2), min_size=1, max_size=3))
def test_reduction_is_coset_invariant(rows, vec, coeffs):
    h = row_hermite(rows)
    shifted = list(vec)
    for c, r in zip(coeffs, rows):
        shifted = [a + c * b for a, b in zip(shifted, r)]
    assert reduce_mod_rows(vec, h) == reduce_mod_rows(shifted, h)


@settings(max_examples=100, deadline=None)
@given(mat_strategy)
def test_divisor_product_matches_index(rows):
    # when the lattice has full rank, the product of divisors equals the
    # number of canonical representatives in a fundamental window
    h = row_hermite(rows)
    if len(h) < 2:
        return
    ds = elementary_divisors(rows)
    order = 1
    for d in ds:
        order *= d
    if order > 40:
        return
    span = order + 10
    reps = {reduce_mod_rows(v, h)
            for v in itertools.product(range(-span, span), repeat=2)}
    assert len(reps) == order
