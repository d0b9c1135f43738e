"""Combinatorial primitives against independent enumeration oracles."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given

from strategies import rationals
from tepperlab import InputError, alternating_binomials, binomial, factorial, pascal_row


def test_binomial_empty_set_convention():
    assert binomial(0, 0) == 1


def test_binomial_third_row_entry():
    # third row of the triangle is 1, 3, 3, 1
    assert binomial(3, 2) == 3


def test_binomial_counts_two_subsets_of_five():
    oracle = len(list(itertools.combinations(range(5), 2)))
    assert oracle == 10
    assert binomial(5, 2) == 10


def test_binomial_above_diagonal_is_zero():
    assert binomial(4, 9) == 0


def test_factorial_base_cases():
    assert factorial(0) == 1
    assert factorial(3) == 6


def test_factorial_iterated_product_oracle():
    product = 1
    for k in range(1, 7):
        product *= k
    assert product == 720
    assert factorial(6) == 720


def test_pascal_row_small():
    assert pascal_row(0) == (1,)
    assert pascal_row(3) == (1, 3, 3, 1)


def test_pascal_row_recurrence_oracle():
    # row 4 from row 3 by the additive Pascal recurrence
    row3 = (1, 3, 3, 1)
    row4 = (1,) + tuple(row3[i] + row3[i + 1] for i in range(3)) + (1,)
    assert row4 == (1, 4, 6, 4, 1)
    assert pascal_row(4) == row4


def test_pascal_row_rejects_negative():
    with pytest.raises(InputError):
        pascal_row(-1)


@pytest.mark.parametrize("n", range(31))
def test_pascal_row_matches_binomial(n):
    assert pascal_row(n) == tuple(binomial(n, k) for k in range(n + 1))


@pytest.mark.parametrize("n", range(31))
def test_binomial_symmetry(n):
    for k in range(n + 1):
        assert binomial(n, k) == binomial(n, n - k)


@pytest.mark.parametrize("n", range(31))
def test_row_sum_is_power_of_two(n):
    assert sum(pascal_row(n)) == 2**n


@pytest.mark.parametrize("n", range(1, 31))
def test_alternating_row_sum_vanishes(n):
    assert sum((-1) ** k * c for k, c in enumerate(pascal_row(n))) == 0


def test_alternating_binomials_rejects_negative():
    with pytest.raises(InputError):
        alternating_binomials(-1)


@pytest.mark.parametrize("n", [*range(61), 999, 1000, 1995, 1996])
def test_alternating_binomials_are_the_signed_pascal_row(n):
    # pascal_row's multiplicative recurrence is a route independent of binomial
    weights = alternating_binomials(n)
    assert weights == [(-1) ** k * c for k, c in enumerate(pascal_row(n))]
    assert sum(weights) == (1 if n == 0 else 0)


@pytest.mark.parametrize("n", [*range(61), 499, 999, 1000, 1995, 1996, 4000])
def test_rows_match_math_comb(n):
    row = tuple(math.comb(n, k) for k in range(n + 1))
    assert pascal_row(n) == row
    weights = alternating_binomials(n)
    assert all(type(w) is int for w in weights)
    assert weights == [(-1) ** k * c for k, c in enumerate(row)]


def test_alternating_binomials_mirror_leaves_row_zero_a_single_one():
    # The mirrored half must not repeat the middle entry: row 0 is [1], not [1, 1].
    assert alternating_binomials(0) == [1]


def test_alternating_binomials_returns_a_fresh_list():
    weights = alternating_binomials(5)
    weights[0] = 99
    assert alternating_binomials(5) == [1, -5, 10, -10, 5, -1]


@given(rationals(), rationals(), rationals())
def test_rational_add_associates_and_mul_distributes(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(rationals(), rationals())
def test_rational_results_are_canonical(a, b):
    import math

    for value in (a + b, a * b, a - b):
        assert isinstance(value, Fraction)
        assert value.denominator > 0
        assert math.gcd(abs(value.numerator), value.denominator) == 1
