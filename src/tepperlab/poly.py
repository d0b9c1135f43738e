"""Dense univariate polynomials over exact rationals.

A polynomial reads as a tuple of ``Fraction`` coefficients, lowest degree
first: ``(a0, a1, ..., an)`` with the last entry nonzero.  The zero
polynomial is the empty tuple.  Its degree is -1, below the degree of every
nonzero polynomial, so a test like ``p.degree < n`` holds for it at every
n >= 0.

Inside, a polynomial is stored as integer numerators over one common
denominator, a_i = m_i / d, kept canonical: d > 0, gcd(m_0, ..., m_n, d) = 1
and m_n != 0 (the zero polynomial is no numerators over d = 1).  Shift,
dilation, scale, sum, difference and Horner evaluation all run on these
integers; the tuple of reduced ``Fraction``s is built only when
``coefficients`` is first read, and then kept.

``dilate(f)`` is P(f*x).  ``shift`` has one synthetic-division loop, the
unit shift ``_unit_shift``, subtractions only over a list of numerators; any
other offset t is ``dilate(t).shift(1).dilate(1/t)``.  It runs its n rounds
four at a time, one sweep per group: loop blocking of the classical
Taylor-shift loop (von zur Gathen & Gerhard, ISSAC 1997), which saves most of
the list loads, stores and loop steps, a third of the kernel below degree 100.
``_differences`` takes no shift: it differences values from ``_horner``, the
Horner loop that ``evaluate`` shares, and rebuilds them by Newton's series.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import starmap, zip_longest
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterator, Union

from .errors import InputError

Scalar = Union[int, str, Fraction]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is a hard contract); a Fraction comes back as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not an exact rational; pass int, Fraction, or 'num/den'")
    return Fraction(value)


def _horner(numerators: tuple[int, ...], point: int) -> int:
    """sum(m_i * point^i) by Horner's scheme, one product and one sum a step."""
    result = 0
    for m in reversed(numerators):
        result = result * point + m
    return result


def _unit_shift(numerators: tuple[int, ...] | list[int]) -> list[int]:
    """The numerators of S(y - 1) from those of a nonzero S(y): synthetic division by (y + 1), O(n^2) subtractions.
    Round i runs carry = c[j] = c[j] - carry for j = n-1 down to i.  Rounds i..i+3 run in one descending sweep, each
    with its own carry, so that every entry is loaded and stored once per four rounds; each round still makes the same
    subtractions in the same order.  The last n mod 4 rounds run one per sweep.  Four rounds per sweep is fixed: two
    save less, and eight save little more for twice the code."""
    c = list(numerators)
    n = len(c) - 1
    top, i = c[n], 0
    while i + 4 <= n:  # the carries a, b, e, f of rounds i, i+1, i+2, i+3
        a = b = e = f = top
        for j in range(n - 1, i + 2, -1):
            a = c[j] - a
            b = a - b
            e = b - e
            c[j] = f = e - f
        a = c[i + 2] - a  # round i + r stops at j = i + r
        b = a - b
        c[i + 2] = b - e
        a = c[i + 1] - a
        c[i + 1] = a - b
        c[i] -= a
        i += 4
    for i in range(i, n):  # the last n mod 4 rounds, one sweep each
        carry = top
        for j in range(n - 1, i - 1, -1):
            carry = c[j] = c[j] - carry
    return c


class Polynomial:
    """Immutable dense polynomial; coefficient i multiplies x**i."""

    __slots__ = ("_numerators", "_denominator", "_coefficients")

    def __init__(self, coefficients: tuple[Scalar, ...] = ()) -> None:
        self.__post_init__(coefficients)  # perfbench/tracer.py wraps this name as poly.construct, a required layer

    def __post_init__(self, coefficients: tuple[Scalar, ...]) -> None:
        coeffs = tuple(c if type(c) is Fraction else as_fraction(c) for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        # d is the lcm of the reduced denominators, so gcd(m_i..., d) = 1.
        d = lcm(*(c.denominator for c in coeffs))
        self._numerators = tuple(c.numerator * (d // c.denominator) for c in coeffs)
        self._denominator = d
        self._coefficients = coeffs

    @classmethod
    def _from_integers(cls, numerators: tuple[int, ...], denominator: int) -> "Polynomial":
        """The polynomial sum(m_i x^i) / d from numerators already in canonical form."""
        p = object.__new__(cls)
        p._numerators, p._denominator, p._coefficients = numerators, denominator, None
        return p

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The reduced ``Fraction``s m_i / d, lowest degree first, built once on the first read."""
        if self._coefficients is None:
            d = self._denominator
            self._coefficients = tuple(Fraction(m, d) for m in self._numerators)
        return self._coefficients

    @classmethod
    def _reduced(cls, numerators: list[int], denominator: int) -> "Polynomial":
        """The polynomial sum(m_i x^i) / d for any integers m_i and d > 0."""
        while numerators and numerators[-1] == 0:
            numerators.pop()
        g = gcd(denominator, *numerators)  # math.gcd stops reducing at the first 1; zero gets d = 1
        if g > 1:
            numerators, denominator = [m // g for m in numerators], denominator // g
        return cls._from_integers(tuple(numerators), denominator)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._from_integers((), 1)

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((as_fraction(value),))

    @classmethod
    def monomial(cls, power: int, coefficient: Scalar = 1) -> "Polynomial":
        """coefficient * x**power."""
        if power < 0:
            raise InputError("monomial power must be >= 0")
        c = as_fraction(coefficient)
        if c == 0:
            return cls(())
        return cls((Fraction(0),) * power + (c,))

    def is_zero(self) -> bool:
        return not self._numerators

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._numerators) - 1

    @property
    def bit_length(self) -> int:
        """The largest bit length among the integer numerators and their denominator."""
        return max(map(int.bit_length, (self._denominator, *self._numerators)))

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._numerators:
            raise InputError("the zero polynomial has no leading coefficient")
        return Fraction(self._numerators[-1], self._denominator)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._numerators == other._numerators and self._denominator == other._denominator

    def __hash__(self) -> int:
        return hash((self._numerators, self._denominator))

    def __repr__(self) -> str:
        return f"Polynomial(coefficients={self.coefficients!r})"

    def evaluate(self, point: Scalar) -> Fraction:
        """P(point) by Horner's scheme, exact, on the stored integers: P(u/v) = sum(m_i * u^i * v^(n-i)) / (d * v^n).
        At an ``int`` point each step is one product and one sum, with no m_i * v^(n-i) to form (the numeric route's
        points; it runs that route about 1.3x as fast as the general loop at v = 1)."""
        if type(point) is int:
            return Fraction(_horner(self._numerators, point), self._denominator)
        u, v = as_fraction(point).as_integer_ratio()
        result, v_power = 0, 1
        for m in reversed(self._numerators):
            result = result * u + m * v_power
            v_power *= v
        return Fraction(result, self._denominator * v ** max(self.degree, 0))

    def shift(self, offset: Scalar) -> "Polynomial":
        """The polynomial Q with Q(x) = P(x - offset).

        The unit shift runs ``_unit_shift`` on the integer numerators.  It
        keeps the gcd of the numerators, so its result is canonical as it
        stands.  Any other offset t is the unit shift conjugated by a dilation:
        P(x - t) = S(x/t - 1) with S = P.dilate(t).
        """
        t = offset if type(offset) is int else as_fraction(offset)
        n = len(self._numerators) - 1
        if n < 1 or t == 0:  # P(x - 0) = P, and zero and constants ignore any shift
            return self
        if t != 1:
            return self.dilate(t).shift(1).dilate(Fraction(1, t))
        return Polynomial._from_integers(tuple(_unit_shift(self._numerators)), self._denominator)

    def _differences(self, order: int) -> "Polynomial":
        """P(x) - P(x - 1) taken ``order`` times on values, with no shift; zero past the degree n.  The values v(j) at
        the n + 1 integers j = -order..e, e = n - order, are differenced v(j) - v(j - 1): after order + k steps the
        first entry is the k-th forward difference f_k at 0 of the result.  Newton's series, the sum of f_k/k! times
        y(y - 1)...(y - k + 1), rebuilds it times e! by Horner in the falling factorials, a small y - k a step."""
        c, n = self._numerators, len(self._numerators) - 1
        if order > n:
            return Polynomial.zero()
        values, newton = [_horner(c, j) for j in range(-order, n - order + 1)], []
        for k in range(n + 1):
            if k >= order:
                newton.append(values[0])
            values = list(map(sub, values[1:], values))  # v(j) - v(j - 1), one entry shorter
        result, weight = [newton.pop()], 1  # weight is e!/k!, and e! at the end
        for k in reversed(range(len(newton))):
            weight *= k + 1
            result = [*map(sub, [newton[k] * weight, *result], [k * m for m in result]), result[-1]]
        return Polynomial._reduced(result, self._denominator * weight)  # one gcd over d * e!

    def _cleared(self) -> tuple["Polynomial", int]:
        """d * P, whose coefficients are the integer numerators, and the denominator d."""
        return Polynomial._from_integers(self._numerators, 1), self._denominator

    def _terms(self) -> Iterator[tuple[int, int, int]]:
        """(i, m_i / g, d / g) with g = gcd(m_i, d) for each nonzero coefficient, highest power first."""
        d = self._denominator
        for i, m in reversed(tuple(enumerate(self._numerators))):
            if m:
                yield i, m // (g := gcd(m, d)), d // g

    def dilate(self, factor: Scalar) -> "Polynomial":
        """The polynomial Q with Q(x) = P(factor * x).

        At factor u/v, Q = sum(m_i * u^i * v^(n-i) * x^i) / (d * v^n),
        reduced once.
        """
        f = as_fraction(factor)
        n = self.degree
        if n < 1 or f == 1:  # zero and constants are unchanged by a dilation
            return self
        u, v = f.numerator, f.denominator
        return Polynomial._reduced(
            [m * u**i * v ** (n - i) for i, m in enumerate(self._numerators)], self._denominator * v**n
        )

    def scale(self, factor: Scalar) -> "Polynomial":
        """factor * P.  An integer w reduces by one gcd: since gcd(m_0, ..., m_n, d)
        = 1, gcd(w*m_0, ..., w*m_n, d) = gcd(w, d)."""
        if type(factor) is int:
            if not factor:
                return Polynomial.zero()
            g = gcd(factor, self._denominator)
            w = factor // g
            return Polynomial._from_integers(tuple(m * w for m in self._numerators), self._denominator // g)
        f = as_fraction(factor)
        p, q = f.numerator, f.denominator
        return Polynomial._reduced([m * p for m in self._numerators], self._denominator * q)

    @classmethod
    def _weighted_sum(cls, weights: list[int], terms: list["Polynomial"], powers: list[int] | None) -> "Polynomial":
        """sum(w_r * T_r), coefficient i times powers[i] if given, for terms over one denominator: one gcd in all."""
        if len({t._denominator for t in terms}) != 1:
            raise AssertionError("the terms of a weighted sum must share one denominator")
        columns = zip_longest(*(t._numerators for t in terms[: len(weights)]), fillvalue=0)
        sums = [sum(map(mul, weights, column)) for column in columns]
        return cls._reduced(sums if powers is None else list(map(mul, sums, powers)), terms[0]._denominator)

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the lcm of the two denominators; a side already over it is not rescaled."""
        d = lcm(self._denominator, other._denominator)
        f, g = d // self._denominator, d // other._denominator
        left = self._numerators if f == 1 else [f * m for m in self._numerators]
        right = other._numerators if g == 1 else [g * k for k in other._numerators]
        pairs = zip_longest(left, right, fillvalue=0)
        return Polynomial._reduced(list(starmap(add if sign > 0 else sub, pairs)), d)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_integers(tuple(-m for m in self._numerators), self._denominator)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)
