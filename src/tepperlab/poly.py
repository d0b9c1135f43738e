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
``coefficients`` is read.

``dilate(f)`` is P(f*x).  ``shift`` has one synthetic-division loop, the
unit shift, which needs only subtractions; any other offset t runs as
``dilate(t).shift(1).dilate(1/t)``.  The unit shift runs its n rounds four at
a time, each group in one sweep over the coefficients.  That is loop blocking
of the classical Taylor-shift loop (von zur Gathen & Gerhard, ISSAC 1997):
below degree 100 the list loads, stores and loop steps cost about a third of
the kernel, and fusing rounds saves most of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap, zip_longest
from math import gcd, lcm
from operator import add, sub
from typing import Union

from .errors import InputError

Scalar = Union[int, str, Fraction]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is a hard contract); a Fraction comes back as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not an exact rational; pass int, Fraction, or 'num/den'")
    return Fraction(value)


class _Coefficients:
    """The ``coefficients`` field: default ``()``; on a polynomial built from
    integers, the reduced ``Fraction``s m_i / d, computed once and cached."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return ()
        d = instance._denominator
        coeffs = tuple(Fraction(m, d) for m in instance._numerators)
        instance.__dict__["coefficients"] = coeffs
        return coeffs


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Immutable dense polynomial; coefficient i multiplies x**i."""

    coefficients: tuple[Fraction, ...] = _Coefficients()

    def __post_init__(self) -> None:
        coeffs = tuple(c if type(c) is Fraction else as_fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)
        # d is the lcm of the reduced denominators, so gcd(m_i..., d) = 1.
        d = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(self, "_numerators", tuple(c.numerator * (d // c.denominator) for c in coeffs))
        object.__setattr__(self, "_denominator", d)

    @classmethod
    def _from_integers(cls, numerators: tuple[int, ...], denominator: int) -> "Polynomial":
        """The polynomial sum(m_i x^i) / d from numerators already in canonical form."""
        p = object.__new__(cls)
        object.__setattr__(p, "_numerators", numerators)
        object.__setattr__(p, "_denominator", denominator)
        return p

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

    def evaluate(self, point: Scalar) -> Fraction:
        """P(point) by Horner's scheme, exact.

        At point u/v the scheme runs over the stored integers:
        P(u/v) = sum(m_i * u^i * v^(n-i)) / (d * v^n).
        """
        x = as_fraction(point)
        if not self._numerators:
            return Fraction(0)
        u, v = x.numerator, x.denominator
        result, v_power = 0, 1
        for m in reversed(self._numerators):
            result = result * u + m * v_power
            v_power *= v
        return Fraction(result, self._denominator * v**self.degree)

    def shift(self, offset: Scalar) -> "Polynomial":
        """The polynomial Q with Q(x) = P(x - offset).

        The unit shift is repeated synthetic division by (x + 1) on the
        integer numerators: O(deg^2) subtractions and no multiplication.  It
        keeps the gcd of the numerators, so its result is canonical as it
        stands.  Round i runs carry = c[j] = c[j] - carry for j = n-1 down to
        i.  Rounds i..i+3 run in one descending sweep, each with its own
        carry, so that every coefficient is loaded and stored once per four
        rounds; each round still makes the same subtractions in the same
        order.  The last n mod 4 rounds run one per sweep.  Four rounds per
        sweep is fixed: two save less, and eight save little more for twice
        the code.

        Any other offset t is the unit shift conjugated by a dilation:
        P(x - t) = S(x/t - 1) with S = P.dilate(t).
        """
        t = offset if type(offset) is int else as_fraction(offset)
        n = len(self._numerators) - 1
        if n < 1 or t == 0:  # P(x - 0) = P, and zero and constants ignore any shift
            return self
        if t != 1:
            return self.dilate(t).shift(1).dilate(Fraction(1, t))
        c = list(self._numerators)
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
        return Polynomial._from_integers(tuple(c), self._denominator)

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
