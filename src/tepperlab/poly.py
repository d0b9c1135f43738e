"""Dense univariate polynomials over exact rationals.

A polynomial is a tuple of ``Fraction`` coefficients, lowest degree first:
``(a0, a1, ..., an)`` with the last entry nonzero.  The zero polynomial is
the empty tuple.  Its degree is -1, below the degree of every nonzero
polynomial, so a test like ``p.degree < n`` holds for it at every n >= 0.

The two O(deg^2) kernels, Taylor shift and Horner evaluation, clear the
denominators first and run over plain ``int``; their results turn back into
reduced ``Fraction`` coefficients only at the end of each call.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Union

from .errors import InputError

Scalar = Union[int, str, Fraction]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is a hard contract)."""
    if isinstance(value, float):
        raise InputError(f"float {value!r} is not an exact rational; pass int, Fraction, or 'num/den'")
    return Fraction(value)


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial; coefficient i multiplies x**i."""

    coefficients: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(c if type(c) is Fraction else as_fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

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
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coefficients:
            raise InputError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def evaluate(self, point: Scalar) -> Fraction:
        """P(point) by Horner's scheme, exact.

        At point u/v the scheme runs over integers: with d the common
        denominator of the coefficients, P(u/v) = sum(d*c_i * u^i * v^(n-i)) / (d * v^n).
        """
        x = as_fraction(point)
        if not self.coefficients:
            return Fraction(0)
        u, v = x.numerator, x.denominator
        numerators, d = self._cleared_numerators()
        result, v_power = 0, 1
        for m in reversed(numerators):
            result = result * u + m * v_power
            v_power *= v
        return Fraction(result, d * v ** self.degree)

    def shift(self, offset: Scalar) -> "Polynomial":
        """The polynomial Q with Q(x) = P(x - offset).

        Horner-style Taylor shift: repeated synthetic division by (x + offset),
        O(deg^2) coefficient operations.  At offset a/b, with y = b*x and d the
        common denominator, P(x - a/b) = sum(m_i * (y - a)^i) / (d * b^n) for
        the integers m_i = d*c_i * b^(n-i); the division runs on the m_i with
        the integer a, and y^j = b^j * x^j turns the result back.
        """
        t = as_fraction(offset)
        n = self.degree
        if n < 1:  # zero and constants are unchanged by a shift
            return self
        a, b = t.numerator, t.denominator
        numerators, d = self._cleared_numerators()
        coeffs = [m * b ** (n - i) for i, m in enumerate(numerators)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                coeffs[j] -= a * coeffs[j + 1]
        denominator = d * b**n
        return Polynomial(tuple(Fraction(r * b**j, denominator) for j, r in enumerate(coeffs)))

    def _cleared_numerators(self) -> tuple[list[int], int]:
        """The integers d*c_i and their common denominator d, the lcm of the c_i's."""
        d = lcm(*(c.denominator for c in self.coefficients))
        return [c.numerator * (d // c.denominator) for c in self.coefficients], d

    def scale(self, factor: Scalar) -> "Polynomial":
        f = as_fraction(factor)
        return Polynomial(tuple(f * c for c in self.coefficients))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        pairs = zip_longest(self.coefficients, other.coefficients, fillvalue=Fraction(0))
        return Polynomial(tuple(a + b for a, b in pairs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)
