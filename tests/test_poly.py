"""Polynomial arithmetic, Taylor shift, and canonical-form invariants."""
from fractions import Fraction
from itertools import zip_longest
import math
import random
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

from strategies import polynomials, rationals
from tepperlab import InputError, Polynomial
from tepperlab.poly import as_fraction

X_CUBED = Polynomial.monomial(3)

# Offsets and points: rationals, mostly non-integer ones, and plain ints.
scalars = st.one_of(
    rationals(), st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(2, 60)), st.integers(-10**6, 10**6)
)
# Scale factors: rationals, plain ints and zero.
factors = st.one_of(rationals(), st.integers(-10**6, 10**6), st.just(0))
# The zero polynomial, constants, and polynomials of higher degree.
small_polynomials = st.one_of(polynomials(0), polynomials())


def reference_shift(coeffs, offset):
    """P(x - offset) by synthetic division over Fraction, the kernel's reference."""
    t = -Fraction(offset)
    coeffs = list(coeffs)
    n = len(coeffs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            coeffs[j] += t * coeffs[j + 1]
    return tuple(coeffs)


def reference_evaluate(coeffs, point):
    """P(point) by Horner's scheme over Fraction, the kernel's reference."""
    x = Fraction(point)
    result = Fraction(0)
    for c in reversed(coeffs):
        result = result * x + c
    return result


def canonical(coeffs):
    """A coefficient tuple without trailing zeros, as the references return it."""
    coeffs = tuple(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def reference_scale(coeffs, factor):
    return canonical(Fraction(factor) * c for c in coeffs)


def reference_add(left, right):
    return canonical(a + b for a, b in zip_longest(left, right, fillvalue=Fraction(0)))


def reference_sub(left, right):
    return canonical(a - b for a, b in zip_longest(left, right, fillvalue=Fraction(0)))


def reference_neg(coeffs):
    return tuple(-c for c in coeffs)


def assert_reduced_fraction(value):
    assert type(value) is Fraction
    assert value.denominator > 0
    assert gcd(value.numerator, value.denominator) == 1


def assert_canonical_coefficients(p):
    for c in p.coefficients:
        assert_reduced_fraction(c)
    assert not p.coefficients or p.coefficients[-1] != 0
    assert p.degree == len(p.coefficients) - 1


def test_evaluate_monomial_power():
    assert X_CUBED.evaluate(2) == 8


def test_evaluate_zero_polynomial():
    assert Polynomial.zero().evaluate(Fraction(7, 3)) == 0


def test_evaluate_by_direct_substitution():
    # 2x^2 - x + 1/2 at 3/2: 2*(9/4) - 3/2 + 1/2 = 7/2
    p = Polynomial((Fraction(1, 2), -1, 2))
    assert p.evaluate(Fraction(3, 2)) == Fraction(7, 2)


def test_shift_by_zero_is_identity():
    p = Polynomial.monomial(2)
    assert p.shift(0) == p


def test_shift_cube_by_one():
    # x^3 shifted to (x-1)^3 = x^3 - 3x^2 + 3x - 1
    assert X_CUBED.shift(1) == Polynomial((-1, 3, -3, 1))


def test_shift_linear_by_three_halves():
    # 2(x - 3/2) + 5 = 2x + 2
    p = Polynomial((5, 2))
    assert p.shift(Fraction(3, 2)) == Polynomial((2, 2))


def test_add_cancellation_recanonicalizes():
    p = Polynomial.monomial(2)
    total = p + p.scale(-1)
    assert total.is_zero()
    assert total.coefficients == ()


def test_scale_by_zero():
    assert Polynomial((1, 1)).scale(0).is_zero()


def test_add_coefficientwise():
    assert Polynomial((1, 0, 1)) + Polynomial((0, 2)) == Polynomial((1, 2, 1))


def test_leading_coefficient_and_degree():
    p = Polynomial((0, -1, 0, 5))
    assert p.leading_coefficient == 5
    assert p.degree == 3
    c = Polynomial((7,))
    assert c.leading_coefficient == 7
    assert c.degree == 0


def test_zero_polynomial_has_no_leading_coefficient():
    assert Polynomial.zero().degree == -1
    assert isinstance(Polynomial.zero().degree, int)
    assert Polynomial.zero().degree < 0
    with pytest.raises(InputError):
        Polynomial.zero().leading_coefficient


def test_floats_are_rejected():
    with pytest.raises(InputError):
        Polynomial((0.5, 1))
    with pytest.raises(InputError):
        Polynomial((1, 1)).evaluate(0.5)
    with pytest.raises(InputError):
        Polynomial((1, 1)).shift(0.5)
    with pytest.raises(InputError):
        Polynomial.zero().shift(0.5)


@given(small_polynomials, scalars)
def test_shift_equals_fraction_reference(p, offset):
    q = p.shift(offset)
    assert q.coefficients == reference_shift(p.coefficients, offset)
    for c in q.coefficients:
        assert_reduced_fraction(c)


@given(small_polynomials, scalars)
def test_evaluate_equals_fraction_reference(p, point):
    value = p.evaluate(point)
    assert value == reference_evaluate(p.coefficients, point)
    assert_reduced_fraction(value)


def test_kernels_equal_reference_on_a_grid_of_denominators():
    p = Polynomial((Fraction(-7, 6), 3, Fraction(5, 4), 0, Fraction(-2, 9), 1))
    for b in range(1, 13):
        for a in range(-12, 13):
            t = Fraction(a, b)
            assert p.shift(t).coefficients == reference_shift(p.coefficients, t)
            assert p.evaluate(t) == reference_evaluate(p.coefficients, t)


def test_unit_shift_equals_fraction_reference_at_every_degree_through_41():
    """Every shape of the unit shift's four-round sweeps: n < 4, each n mod 4 left
    over and up to ten fused sweeps, on numerators of up to 200 bits of mixed sign."""
    rng = random.Random(41)
    for degree in range(42):
        for _ in range(2):
            coeffs = [Fraction(rng.randint(-(2**200), 2**200), rng.randint(2, 10**6)) for _ in range(degree + 1)]
            coeffs[-1] = coeffs[-1] or Fraction(1, 3)
            p = Polynomial(tuple(coeffs))
            q = p.shift(1)
            assert q.coefficients == reference_shift(p.coefficients, 1)
            assert_canonical_integers(q)


def test_kernels_accept_string_and_subclass_scalars():
    class Half(Fraction):
        pass

    p = Polynomial((Fraction(1, 3), "-2/7", 5))
    for scalar in ("3/4", Half(1, 2), -4):
        assert p.shift(scalar).coefficients == reference_shift(p.coefficients, scalar)
        assert p.evaluate(scalar) == reference_evaluate(p.coefficients, scalar)
    assert type(Polynomial((Half(1, 2),)).coefficients[0]) is Fraction


@given(polynomials(), rationals(), rationals())
def test_shift_composes_additively(p, a, b):
    assert p.shift(a).shift(b) == p.shift(a + b)


@given(polynomials(), rationals())
def test_shift_round_trip(p, c):
    assert p.shift(c).shift(-c) == p


@given(polynomials(), rationals(), rationals())
def test_shift_evaluation_compatibility(p, c, x):
    assert p.shift(c).evaluate(x) == p.evaluate(x - c)


@given(polynomials(), rationals())
def test_shift_preserves_degree_and_leading_coefficient(p, c):
    q = p.shift(c)
    assert q.degree == p.degree
    if not p.is_zero():
        assert q.leading_coefficient == p.leading_coefficient


@given(polynomials(), polynomials(), rationals())
def test_operations_output_canonical_form(p, q, c):
    for result in (p + q, p - q, -p, p.scale(c), p.shift(c)):
        # re-canonicalizing must be a no-op
        assert result == Polynomial(result.coefficients)
        assert not result.coefficients or result.coefficients[-1] != 0
        assert all(isinstance(v, Fraction) for v in result.coefficients)


@given(small_polynomials, factors)
def test_scale_equals_fraction_reference(p, factor):
    q = p.scale(factor)
    assert q.coefficients == reference_scale(p.coefficients, factor)
    assert_canonical_coefficients(q)


def assert_canonical_integers(p):
    """The stored form m_i / d: d > 0, gcd(m_0, ..., m_n, d) = 1 and m_n != 0."""
    assert p._denominator > 0
    assert gcd(p._denominator, *p._numerators) == 1
    assert not p._numerators or p._numerators[-1] != 0


def integer_factors(denominator):
    """Integer scale factors that meet d in every way: 0, +-1, +-d, the divisors of d,
    multiples of d and values of 100 digits."""
    divisors = [k for k in range(2, denominator) if denominator % k == 0] or [1]
    hundred_digits = st.integers(10**99, 10**100 - 1)
    magnitudes = st.one_of(
        st.sampled_from([0, 1, denominator]),
        st.sampled_from(divisors),
        hundred_digits,
        hundred_digits.map(lambda w: w * denominator),
        st.integers(1, 10**6),
    )
    return st.tuples(magnitudes, st.sampled_from([1, -1])).map(lambda pair: pair[0] * pair[1])


@given(small_polynomials, st.data())
def test_scale_by_an_integer_reduces_by_one_gcd_to_canonical_form(p, data):
    w = data.draw(integer_factors(p._denominator))
    q = p.scale(w)
    assert q.coefficients == reference_scale(p.coefficients, w)
    assert_canonical_integers(q)
    assert_canonical_coefficients(q)
    assert q == Polynomial(q.coefficients)


def test_scale_by_an_integer_divides_out_the_common_factor():
    p = Polynomial((Fraction(1, 6), Fraction(5, 4)))  # (2 + 15x) / 12
    assert p.scale(6) == Polynomial((1, Fraction(15, 2)))
    assert (p.scale(6)._numerators, p.scale(6)._denominator) == ((2, 15), 2)
    assert (p.scale(-12)._numerators, p.scale(-12)._denominator) == ((-2, -15), 1)
    assert p.scale(0) == Polynomial.zero()


def test_as_fraction_returns_a_fraction_as_it_is():
    f = Fraction(-22, 7)
    assert as_fraction(f) is f
    assert as_fraction(3) == Fraction(3) and type(as_fraction(3)) is Fraction


@given(small_polynomials, small_polynomials)
def test_add_sub_neg_equal_fraction_references(p, q):
    for result, expected in (
        (p + q, reference_add(p.coefficients, q.coefficients)),
        (p - q, reference_sub(p.coefficients, q.coefficients)),
        (-p, reference_neg(p.coefficients)),
    ):
        assert result.coefficients == expected
        assert_canonical_coefficients(result)


@given(small_polynomials, st.one_of(st.just(1), factors), rationals())
def test_add_sub_across_denominators_and_cancellation(p, factor, c):
    # q is p up to a factor plus a constant: the operands' denominators differ,
    # and at factor 1 the difference cancels down to the constant -c.
    q = p.scale(factor) + Polynomial.constant(c)
    for result, expected in (
        (p + q, reference_add(p.coefficients, q.coefficients)),
        (p - q, reference_sub(p.coefficients, q.coefficients)),
    ):
        assert result.coefficients == expected
        assert_canonical_coefficients(result)


@given(small_polynomials, small_polynomials, scalars, st.integers(1, 10**4))
def test_operations_round_trip_to_the_same_polynomial(p, q, offset, d):
    assert p.shift(offset).shift(-Fraction(offset)) == p
    assert (p + q) - q == p
    assert p.scale(Fraction(1, d)).scale(d) == p
    difference = p - p
    assert difference == Polynomial.zero()
    assert difference.degree == -1


@given(small_polynomials, small_polynomials, scalars)
def test_equal_polynomials_hash_equal_and_repr_alike(p, q, offset):
    for result in (p + q, p - q, -p, p.scale(offset), p.shift(offset)):
        rebuilt = Polynomial(result.coefficients)
        assert result == rebuilt
        assert hash(result) == hash(rebuilt)
        assert repr(result) == repr(rebuilt)


def test_distinct_polynomials_differ():
    assert Polynomial((1, 2)) != Polynomial((1, 2, 3))
    assert Polynomial((Fraction(1, 2),)) != Polynomial((1,))
    assert Polynomial((1,)) != Fraction(1)
    assert Polynomial() == Polynomial.zero()


def reference_dilate(coeffs, factor):
    """P(factor * x) coefficient by coefficient over Fraction: c_i * factor^i."""
    f = Fraction(factor)
    return canonical(c * f**i for i, c in enumerate(coeffs))


# Dilation factors: rationals, negative ints, 0 and 1.
dilation_factors = st.one_of(rationals(), st.integers(-50, -1), st.just(0), st.just(1))


@given(small_polynomials, dilation_factors)
def test_dilate_equals_fraction_reference(p, factor):
    q = p.dilate(factor)
    assert q.coefficients == reference_dilate(p.coefficients, factor)
    assert_canonical_coefficients(q)
    assert q == Polynomial(q.coefficients)


@given(small_polynomials, dilation_factors.filter(lambda f: f != 0))
def test_dilate_round_trip(p, factor):
    assert p.dilate(factor).dilate(1 / Fraction(factor)) == p


@given(small_polynomials, rationals(), dilation_factors)
def test_dilate_evaluation_compatibility(p, x, factor):
    assert p.dilate(factor).evaluate(x) == p.evaluate(factor * x)


@given(small_polynomials)
def test_unit_and_zero_shifts_equal_fraction_reference(p):
    for offset in (1, 0, Fraction(1), "1", Fraction(0)):
        q = p.shift(offset)
        assert q.coefficients == reference_shift(p.coefficients, offset)
        assert_canonical_coefficients(q)
    assert p.shift(0) is p


def test_unit_shift_of_a_high_degree_power():
    # (x - 1)^40 expands to the signed row 40 of Pascal's triangle.
    p = Polynomial.monomial(40, Fraction(1, 3))
    expected = tuple(Fraction((-1) ** (40 - i) * math.comb(40, i), 3) for i in range(41))
    assert p.shift(1).coefficients == expected


# Offsets other than 0 and 1 go through dilate(t).shift(1).dilate(1/t):
# negative, large, fractional, and an offset far past the degree.
CONJUGATED_OFFSETS = (-1, 2, -13, 10**30, Fraction(-10**20, 3), Fraction(1, 9), Fraction(-7, 3))


@pytest.mark.parametrize(
    "p",
    [
        Polynomial.zero(),
        Polynomial.constant(Fraction(-7, 3)),
        Polynomial((Fraction(5, 2), Fraction(-3, 7))),
        Polynomial((Fraction(1, 2), -3, 0, Fraction(7, 4), Fraction(-11, 6), Fraction(3, 5))),
        Polynomial(tuple(Fraction((-1) ** i * (i * i + 1), i % 7 + 1) for i in range(41))),
    ],
    ids=["zero", "constant", "linear", "degree5", "degree40"],
)
def test_conjugated_shift_equals_fraction_reference(p):
    for offset in CONJUGATED_OFFSETS + (5 * max(p.degree, 1),):
        q = p.shift(offset)
        assert q.coefficients == reference_shift(p.coefficients, offset), offset
        assert_canonical_coefficients(q)
        assert q == Polynomial(q.coefficients)
