"""Dense univariate polynomials over exact rationals.

A polynomial is a tuple of ``Fraction`` coefficients, lowest degree first:
``(a0, a1, ..., an)`` with the last entry nonzero.  The zero polynomial is
the empty tuple.  Its degree is -1, below the degree of every nonzero
polynomial, so a test like ``p.degree < n`` holds for it at every n >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
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
        coeffs = tuple(as_fraction(c) for c in self.coefficients)
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
        """P(point) by Horner's scheme, exact."""
        x = as_fraction(point)
        result = Fraction(0)
        for c in reversed(self.coefficients):
            result = result * x + c
        return result

    def shift(self, offset: Scalar) -> "Polynomial":
        """The polynomial Q with Q(x) = P(x - offset).

        Horner-style Taylor shift: repeated synthetic division of P by
        (x + offset), O(deg^2) coefficient operations.
        """
        t = -as_fraction(offset)
        coeffs = list(self.coefficients)
        n = len(coeffs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                coeffs[j] += t * coeffs[j + 1]
        return Polynomial(tuple(coeffs))

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
