"""Step-l backward finite differences and alternating binomial sums.

Two independent routes compute the same polynomial:

* ``alternating_sum_symbolic`` sums (-1)^k C(n,k) P(x - l*k) directly, one
  Taylor shift per term;
* ``iterated_difference`` applies the step-l backward difference operator
  P(x) |-> P(x) - P(x - l) exactly n times.

By the binomial theorem for commuting operators the two results agree
coefficient-for-coefficient; that agreement is this package's central
cross-validation and is asserted throughout the test suite.

Both routes run in y = x/l: with S(y) = P(l*y), the term P(x - l*k) is
S(y - k), so each route dilates P once, takes only unit shifts, which need
no multiplication, and dilates the result back.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .exact import alternating_binomials
from .poly import Polynomial, Scalar, as_fraction


@dataclass(frozen=True)
class DifferenceParams:
    """Order n of the alternating sum and shift step l >= 1."""

    order: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.order < 0:
            raise InputError("order must be >= 0")
        if self.step < 1:
            raise InputError("step must be >= 1")


def backward_difference(p: Polynomial, step: int = 1) -> Polynomial:
    """P(x) - P(x - step).

    Drops the degree by exactly one and multiplies the leading coefficient
    by degree * step; constants map to zero.
    """
    if step < 1:
        raise InputError("step must be >= 1")
    return p - p.shift(step)


def alternating_sum_symbolic(p: Polynomial, params: DifferenceParams) -> Polynomial:
    """Sum of (-1)^k C(n,k) P(x - l*k) over k = 0..n, as a polynomial."""
    term, total = p.dilate(params.step), Polynomial.zero()
    for k, w in enumerate(alternating_binomials(params.order)):
        if k:
            term = term.shift(1)  # S(y - k) from S(y - k + 1)
        total = total + term.scale(w)
    return total.dilate(Fraction(1, params.step))


def alternating_sum_numeric(p: Polynomial, params: DifferenceParams, point: Scalar) -> Fraction:
    """The same alternating sum evaluated pointwise, term by term.

    Independent of the symbolic route: each term is P evaluated at
    point - l*k, not a coefficient of a shifted polynomial.
    """
    x = as_fraction(point)
    weights = alternating_binomials(params.order)
    return sum((w * p.evaluate(x - params.step * k) for k, w in enumerate(weights)), Fraction(0))


def iterated_difference(p: Polynomial, params: DifferenceParams) -> Polynomial:
    """backward_difference applied ``order`` times with the given step."""
    result = p.dilate(params.step)
    for _ in range(params.order):
        result = backward_difference(result)
    return result.dilate(Fraction(1, params.step))
