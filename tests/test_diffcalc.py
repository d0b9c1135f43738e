"""Backward differences vs. direct alternating sums: the dual-route oracle."""
import math
import random
from fractions import Fraction
from math import isqrt

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strategies import polynomials, rationals
from tepperlab import (
    DifferenceParams,
    InputError,
    Polynomial,
    alternating_sum_numeric,
    alternating_sum_symbolic,
    backward_difference,
    binomial,
    diffcalc,
    exact,
    iterated_difference,
    poly,
)

X = Polynomial.monomial(1)
X2 = Polynomial.monomial(2)
X3 = Polynomial.monomial(3)


def test_params_validate():
    with pytest.raises(InputError):
        DifferenceParams(order=2, step=0)
    with pytest.raises(InputError):
        DifferenceParams(order=-1)


def test_backward_difference_of_x():
    assert backward_difference(X, 1) == Polynomial((1,))


def test_backward_difference_of_square():
    # x^2 - (x-1)^2 = 2x - 1
    assert backward_difference(X2, 1) == Polynomial((-1, 2))


def test_backward_difference_step_three():
    # x^2 - (x-3)^2 = 6x - 9
    assert backward_difference(X2, 3) == Polynomial((-9, 6))


def test_symbolic_sum_cube_gives_six():
    result = alternating_sum_symbolic(X3, DifferenceParams(order=3, step=1))
    assert result == Polynomial.constant(6)


def test_symbolic_sum_below_order_vanishes():
    # x - 2(x-1) + (x-2) = 0
    result = alternating_sum_symbolic(X, DifferenceParams(order=2, step=1))
    assert result.is_zero()


def test_symbolic_sum_step_three():
    # x^2 - 2(x-3)^2 + (x-6)^2 = 18 = 1 * 3^2 * 2!
    result = alternating_sum_symbolic(X2, DifferenceParams(order=2, step=3))
    assert result == Polynomial.constant(18)


def test_numeric_sum_square_at_ten():
    # 100 - 2*81 + 64 = 2
    value = alternating_sum_numeric(X2, DifferenceParams(order=2, step=1), 10)
    assert value == 2


def test_numeric_sum_fifth_power_at_zero():
    # brute-force the sum independently of the polynomial machinery
    oracle = sum((-1) ** k * binomial(5, k) * (0 - k) ** 5 for k in range(6))
    assert oracle == 120
    value = alternating_sum_numeric(Polynomial.monomial(5), DifferenceParams(order=5, step=1), 0)
    assert value == 120


def test_numeric_sum_constant_first_order():
    value = alternating_sum_numeric(Polynomial.constant(7), DifferenceParams(order=1, step=1), Fraction(13, 3))
    assert value == 0


def test_iterated_difference_cube():
    assert iterated_difference(X3, DifferenceParams(order=3, step=1)) == Polynomial.constant(6)


def test_iterated_difference_order_exceeds_degree():
    assert iterated_difference(X2, DifferenceParams(order=3, step=1)).is_zero()


def test_iterated_difference_step_three():
    assert iterated_difference(X2, DifferenceParams(order=2, step=3)) == Polynomial.constant(18)


@settings(max_examples=60, deadline=None)
@given(polynomials(max_degree=10), st.integers(0, 10), st.integers(1, 5))
def test_operator_iteration_equals_direct_sum(p, order, step):
    params = DifferenceParams(order=order, step=step)
    assert iterated_difference(p, params) == alternating_sum_symbolic(p, params)


@given(polynomials(max_degree=8), st.integers(1, 5))
def test_degree_drop_law(p, step):
    d = backward_difference(p, step)
    if p.is_zero() or p.degree == 0:
        assert d.is_zero()
    else:
        assert d.degree == p.degree - 1
        assert d.leading_coefficient == p.degree * step * p.leading_coefficient


@given(polynomials(max_degree=8).filter(lambda p: not p.is_zero()), st.integers(1, 5))
def test_full_order_sum_is_expected_constant(p, step):
    n = int(p.degree)
    result = alternating_sum_symbolic(p, DifferenceParams(order=n, step=step))
    expected = p.leading_coefficient * step**n * 1
    for k in range(1, n + 1):
        expected *= k
    assert result == Polynomial.constant(expected)


@given(polynomials(max_degree=6), st.integers(1, 4))
def test_vanishing_below_order(p, step):
    # any order strictly above the degree annihilates p
    order = (int(p.degree) if not p.is_zero() else 0) + 1
    result = alternating_sum_symbolic(p, DifferenceParams(order=order, step=step))
    assert result.is_zero()


@settings(max_examples=60, deadline=None)
@given(polynomials(max_degree=8), st.integers(0, 6), st.integers(1, 4), rationals())
def test_pointwise_agrees_with_symbolic(p, order, step, x):
    params = DifferenceParams(order=order, step=step)
    assert alternating_sum_numeric(p, params, x) == alternating_sum_symbolic(p, params).evaluate(x)


def reference_symbolic(p, params):
    """The direct sum term by term: one shift by l*k, a scale and an add per term."""
    total = Polynomial.zero()
    for k in range(params.order + 1):
        total = total + p.shift(params.step * k).scale((-1) ** k * binomial(params.order, k))
    return total


def reference_iterated(p, params):
    """P |-> P(x) - P(x - l), applied ``order`` times at the original scale."""
    for _ in range(params.order):
        p = p - p.shift(params.step)
    return p


def reference_numeric(p, params, point):
    """The sum Fraction by Fraction: each value by Horner over the reduced coefficients,
    one product with its weight and one addition per term."""
    total = Fraction(0)
    for k in range(params.order + 1):
        x, value = Fraction(point) - params.step * k, Fraction(0)
        for c in reversed(p.coefficients):
            value = value * x + c
        total += (-1) ** k * binomial(params.order, k) * value
    return total


def _orders_around(p):
    """Orders below, at and above the degree (only 0 and above for zero)."""
    degree = max(p.degree, 0)
    return sorted({0, max(degree - 1, 0), degree, degree + 1, degree + 3})


@settings(max_examples=60, deadline=None)
@given(st.one_of(polynomials(0), polynomials(max_degree=9)), st.integers(1, 6))
def test_routes_equal_reference_algorithms(p, step):
    for order in _orders_around(p):
        params = DifferenceParams(order=order, step=step)
        assert alternating_sum_symbolic(p, params) == reference_symbolic(p, params)
        assert iterated_difference(p, params) == reference_iterated(p, params)


def _large_polynomial(degree, seed):
    """Numerators of 100-300 bits and denominators up to 10^6, of either sign, seeded."""
    rng = random.Random(seed)
    return Polynomial(
        tuple(Fraction(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(100, 300)), rng.randint(1, 10**6))
              for _ in range(degree)) + (Fraction(-(2**299) - 7, 999_983),)
    )


@pytest.mark.parametrize("step", range(1, 7))
@pytest.mark.parametrize("degree", [20, 33, 47, 60])
def test_iterated_route_at_benchmark_sizes_equals_reference(degree, step):
    """The value table at d + 1 points and the Newton rebuild at e = d - order up to 60, against both other routes."""
    p = _large_polynomial(degree, seed=degree * 10 + step)
    for order in (0, degree - 3, degree - 1, degree, degree + 1):
        params = DifferenceParams(order=order, step=step)
        iterated = iterated_difference(p, params)
        assert iterated == reference_iterated(p, params), order
        assert iterated == alternating_sum_symbolic(p, params), order


def test_iterated_route_takes_no_binomial_and_no_shift(monkeypatch):
    """The route stays apart from the symbolic sum: no binomial weight, no row and no Taylor shift."""
    p = _large_polynomial(24, seed=1)
    expected = {order: reference_iterated(p, DifferenceParams(order, 3)) for order in (0, 1, 12, 23, 24, 25)}

    def refuse(*_args):
        raise AssertionError("the iterated route called a binomial or a shift")

    for owner, name in ((exact, "alternating_binomials"), (exact, "pascal_row"), (exact, "binomial"),
                        (diffcalc, "alternating_binomials"), (Polynomial, "shift"), (poly, "_unit_shift")):
        monkeypatch.setattr(owner, name, refuse)
    for order, reference in expected.items():
        assert iterated_difference(p, DifferenceParams(order, 3)) == reference, order


def test_numeric_sum_equals_the_fraction_by_fraction_sum():
    """Orders 0..12 at steps 1..6, on zero, a constant, a polynomial below most
    orders and one at order 12, at points whose denominators run 1..9 with either sign."""
    polys = (
        Polynomial.zero(),
        Polynomial.constant(Fraction(-7, 3)),
        Polynomial((Fraction(1, 2), Fraction(-5, 6), 0, Fraction(7, 4))),
        Polynomial(tuple(Fraction((-1) ** i * (3 * i + 1), 1 + i % 5) for i in range(13))),
    )
    points = [Fraction(sign * (3 * v + 1), v) for v in range(1, 10) for sign in (1, -1)] + [Fraction(0)]
    for p in polys:
        for order in range(13):
            for step in range(1, 7):
                params = DifferenceParams(order=order, step=step)
                for x in points:
                    value = alternating_sum_numeric(p, params, x)
                    assert value == reference_numeric(p, params, x)
                    assert type(value) is Fraction


def test_routes_on_zero_constant_and_fractional_polynomials_at_every_step():
    polys = (
        Polynomial.zero(),
        Polynomial.constant(Fraction(-7, 3)),
        Polynomial((Fraction(1, 2), Fraction(-5, 6), 0, Fraction(7, 4), Fraction(3, 5))),
        Polynomial.monomial(12, Fraction(-2, 9)),
    )
    for p in polys:
        for step in range(1, 7):
            for order in _orders_around(p):
                params = DifferenceParams(order=order, step=step)
                symbolic = alternating_sum_symbolic(p, params)
                assert symbolic == reference_symbolic(p, params)
                assert iterated_difference(p, params) == reference_iterated(p, params)
                if order == p.degree:
                    expected = p.leading_coefficient * step**order * math.factorial(order)
                    assert symbolic == Polynomial.constant(expected)


def reference_backward_difference(coeffs, step):
    """P(x) - P(x - step) by binomial expansion of each (x - step)^i over Fraction."""
    result = [Fraction(0)] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i):  # the x^i terms of P(x) and P(x - step) cancel
            result[j] -= c * math.comb(i, j) * Fraction(-step) ** (i - j)
    while result and result[-1] == 0:
        result.pop()
    return tuple(result)


def test_backward_difference_at_steps_two_to_six_equals_fraction_reference():
    polys = (
        Polynomial.zero(),
        Polynomial.constant(Fraction(-7, 3)),
        Polynomial((Fraction(5, 2), Fraction(-3, 7))),
        Polynomial((Fraction(1, 2), Fraction(-5, 6), 0, Fraction(7, 4), Fraction(3, 5))),
        Polynomial(tuple(Fraction((-1) ** i * (i + 3), i % 5 + 1) for i in range(21))),
    )
    for p in polys:
        for step in range(2, 7):
            q = backward_difference(p, step)
            assert q.coefficients == reference_backward_difference(p.coefficients, step), (p, step)


# Polynomials for the block structure: degree 40 with fractional coefficients,
# so that every order 0..40 falls below, at or above the degree, and lower
# degrees whose orders past the degree must vanish.  The zero polynomial (no
# numerators at all) and a constant run through every block of orders 15-40.
BLOCK_POLYS = (
    Polynomial(tuple(Fraction((-1) ** i * (i + 2), i % 7 + 1) for i in range(41))),
    Polynomial(tuple(Fraction(3 * i - 20, i % 4 + 2) for i in range(25))),
    Polynomial.monomial(16, Fraction(-5, 3)),
    Polynomial.zero(),
    Polynomial.constant(Fraction(-7, 3)),
)


@pytest.mark.parametrize("step", range(1, 7))
def test_blocked_sum_equals_term_by_term_reference_and_iterated_route(step):
    # Orders 0..40 hold one block below the crossover, n + 1 a perfect square
    # (15, 24, 35), a last block of one term (n + 1 = m^2 + 1 at 16, 25, 36)
    # and every other way a last block can end.
    for p in BLOCK_POLYS:
        for order in range(41):
            params = DifferenceParams(order=order, step=step)
            symbolic = alternating_sum_symbolic(p, params)
            assert symbolic == reference_symbolic(p, params), (p.degree, order)
            assert symbolic == iterated_difference(p, params), (p.degree, order)


@pytest.mark.parametrize("order", range(41))
def test_every_block_size_gives_the_same_sum(monkeypatch, order):
    p, step = BLOCK_POLYS[0], 3
    expected = iterated_difference(p, DifferenceParams(order=order, step=step))
    root = isqrt(order + 1)
    for m in sorted({1, 2, root, root + 1, max(order, 1), order + 1}):
        monkeypatch.setattr(diffcalc, "_block_size", lambda _order, m=m: m)
        assert alternating_sum_symbolic(p, DifferenceParams(order=order, step=step)) == expected, m


def test_block_sizes_below_and_past_the_crossover():
    assert [diffcalc._block_size(n) for n in range(diffcalc._BLOCK_CROSSOVER)] == list(
        range(1, diffcalc._BLOCK_CROSSOVER + 1)
    )
    assert diffcalc._block_size(15) == 4 and diffcalc._block_size(16) == 4 and diffcalc._block_size(120) == 11


@pytest.mark.parametrize("degree", [120, 130])
def test_blocked_sum_at_high_degree_is_leading_coefficient_times_step_power_factorial(degree):
    p = Polynomial(tuple(Fraction((-1) ** i * (i * i + 1), i % 9 + 1) for i in range(degree + 1)))
    expected = p.leading_coefficient * 3**degree * math.factorial(degree)
    assert alternating_sum_symbolic(p, DifferenceParams(order=degree, step=3)) == Polynomial.constant(expected)
    below = DifferenceParams(order=degree - 1, step=3)
    assert alternating_sum_symbolic(p, below) == iterated_difference(p, below)


# Large denominators and numerators of either sign: every point x - l*k shares the denominator of x.
LARGE_POINTS = {
    f"{sign}({numerator_label})/({denominator_label})": Fraction(int(f"{sign}1") * numerator, denominator)
    for denominator_label, denominator in (("10^30+7", 10**30 + 7), ("2^61-1", 2**61 - 1))
    for numerator_label, numerator in (("1", 1), ("3*10^40+11", 3 * 10**40 + 11), ("2^70-3", 2**70 - 3))
    for sign in "+-"
}


@pytest.mark.parametrize("x", LARGE_POINTS.values(), ids=LARGE_POINTS.keys())
def test_numeric_sum_at_large_points_equals_the_fraction_by_fraction_sum(x):
    """Orders 0..40, past the symbolic sum's block crossover, on a degree-40 polynomial and on zero and a constant."""
    p = BLOCK_POLYS[0]
    for order in range(41):
        params = DifferenceParams(order=order, step=1 + order % 5)
        value = alternating_sum_numeric(p, params, x)
        assert value == reference_numeric(p, params, x), order
        assert type(value) is Fraction
        for q in (Polynomial.zero(), Polynomial.constant(Fraction(-7, 3))):
            assert alternating_sum_numeric(q, params, x) == reference_numeric(q, params, x), (q, order)
    expected = p.leading_coefficient * 3**40 * math.factorial(40)
    assert alternating_sum_numeric(p, DifferenceParams(order=40, step=3), x) == expected
