"""Step-l backward finite differences and alternating binomial sums.

Two independent routes compute the same polynomial:

* ``alternating_sum_symbolic`` sums (-1)^k C(n,k) P(x - l*k) directly, as
  a polynomial in the shift operator, baby-step/giant-step;
* ``iterated_difference`` applies the step-l backward difference operator
  P(x) |-> P(x) - P(x - l) exactly n times.

By the binomial theorem for commuting operators the two results agree
coefficient-for-coefficient; that agreement is this package's central
cross-validation and is asserted throughout the test suite.

Both routes run in y = x/l: with S(y) = P(l*y), the term P(x - l*k) is
S(y - k), so each route dilates P once, takes only unit shifts, which need
no multiplication, and dilates the result back.

The symbolic sum is a polynomial of degree n in the unit shift E, so it is
evaluated baby-step/giant-step (Paterson & Stockmeyer, SIAM J. Comput. 2(1),
1973): about 2*sqrt(n) shifts, not n.  It still weights every term by its own
(-1)^k C(n,k) and never applies a backward difference or the factorization
(1 - E)^n, so it stays independent of ``iterated_difference``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import InputError
from .exact import alternating_binomials, product_cost, row_cost
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


_BLOCK_CROSSOVER = 15  # below this order one block, the plain chain of n shifts, is faster


def _block_size(order: int) -> int:
    """Terms per block of the symbolic sum."""
    return order + 1 if order < _BLOCK_CROSSOVER else isqrt(order + 1)


def sum_cost(degree: int, bits: int, params: DifferenceParams, point: Fraction | None = None) -> int:
    """Budget units for the sum over a polynomial of this degree and numerators of ``bits``, symbolic or at ``point``.

    Both routes build the row and a polynomial or value of 50 units a term.  The symbolic route's 2*sqrt(n) shifts
    subtract and its terms scale coefficients that gain log2(l*m) bits a degree and the weights' n bits; each of the
    numeric route's Horner steps multiplies by the point, so the values gain its bits a degree.
    """
    n, degree = params.order, max(degree, 0)  # the zero polynomial is priced as a constant
    d = degree + 1
    if point is None:
        m = _block_size(n)
        size = bits + degree * (params.step.bit_length() + m.bit_length())
        shifts = (m + n // m) * (d * d // 2) * product_cost(size + n, 16) + d * product_cost(size, size // 2)
        return row_cost(n) + shifts + (n + 1) * (50 + d * (product_cost(max(size, 64), n) + product_cost(size + n, 16)))
    x = point.numerator.bit_length() + point.denominator.bit_length() + (params.step * n).bit_length()
    size = bits + degree * x
    return row_cost(n) + (n + 1) * (50 + d * product_cost(size, max(x, 64)) + product_cost(size, n))


def alternating_sum_symbolic(p: Polynomial, params: DifferenceParams) -> Polynomial:
    """Sum of (-1)^k C(n,k) P(x - l*k) over k = 0..n, as a polynomial.

    With S(y) = P(l*y), w_k = (-1)^k C(n,k) and m terms per block: m - 1
    unit shifts give the baby steps S(y - r), r < m, and block q is
    B_q(y) = sum_r w_(qm+r) S(y - r).  The sum is sum_q B_q(y - qm), which in
    z = y/m is Horner's scheme with unit shifts, T <- T(z - 1) + B_q(m*z);
    one dilation by 1/(l*m) returns to x.  A single block skips the z-steps.
    """
    weights, m = alternating_binomials(params.order), _block_size(params.order)
    baby = [p.dilate(params.step)]
    while len(baby) < m:
        baby.append(baby[-1].shift(1))  # S(y - r) from S(y - r + 1)
    blocks = [
        sum((term.scale(w) for w, term in zip(weights[q : q + m], baby)), Polynomial.zero())
        for q in range(0, len(weights), m)
    ]
    if len(blocks) == 1:
        return blocks[0].dilate(Fraction(1, params.step))
    total = Polynomial.zero()
    for block in reversed(blocks):
        total = total.shift(1) + block.dilate(m)
    return total.dilate(Fraction(1, params.step * m))



def alternating_sum_numeric(p: Polynomial, params: DifferenceParams, point: Scalar) -> Fraction:
    """The same alternating sum evaluated pointwise, term by term.

    Independent of the symbolic route: each term is P evaluated at
    point - l*k by Horner's scheme, not a coefficient of a shifted
    polynomial.  The weighted values are summed as integers over the lcm of
    their denominators, so one ``Fraction`` is reduced at the end, not one
    per product and per partial sum.
    """
    x = as_fraction(point)
    weights = alternating_binomials(params.order)
    values = [p.evaluate(x - params.step * k) for k in range(len(weights))]
    d = lcm(*(v.denominator for v in values))
    return Fraction(sum(w * v.numerator * (d // v.denominator) for w, v in zip(weights, values)), d)


def iterated_difference(p: Polynomial, params: DifferenceParams) -> Polynomial:
    """backward_difference applied ``order`` times with the given step."""
    result = p.dilate(params.step)
    for _ in range(params.order):
        result = backward_difference(result)
    return result.dilate(Fraction(1, params.step))
