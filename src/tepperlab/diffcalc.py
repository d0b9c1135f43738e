"""Step-l backward finite differences and alternating binomial sums.

Two independent routes compute the same polynomial:

* ``alternating_sum_symbolic`` sums (-1)^k C(n,k) P(x - l*k) directly, as
  a polynomial in the shift operator, baby-step/giant-step;
* ``iterated_difference`` applies the step-l backward difference operator
  P(x) |-> P(x) - P(x - l) exactly n times.

A third, ``alternating_sum_numeric``, sums the terms at one point, each P(x - l*k) by Horner's scheme.

By the binomial theorem for commuting operators the two results agree
coefficient-for-coefficient; that agreement is this package's central
cross-validation and is asserted throughout the test suite.

Both polynomial routes run in y = x/l: with S(y) = P(l*y), the term P(x - l*k)
is S(y - k), so each route dilates P once, takes only unit shifts, which need no
multiplication, and dilates the result back.  In between, both work on the
integer numerators of S over its one denominator.

The symbolic sum is a polynomial of degree n in the unit shift E, so it is
evaluated baby-step/giant-step (Paterson & Stockmeyer, SIAM J. Comput. 2(1),
1973): about 2*sqrt(n) shifts, not n, and each block is one integer pass.  It
still weights every term by its own (-1)^k C(n,k) and never applies a backward
difference or the factorization (1 - E)^n, so it stays independent of
``iterated_difference``.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul

from .errors import InputError
from .exact import alternating_binomials, product_cost, row_cost
from .poly import Polynomial, Scalar, as_fraction


class DifferenceParams:
    """Order n of the alternating sum and shift step l >= 1."""

    __slots__ = ("order", "step")

    def __init__(self, order: int, step: int = 1) -> None:
        if order < 0:
            raise InputError("order must be >= 0")
        if step < 1:
            raise InputError("step must be >= 1")
        self.order, self.step = order, step


def backward_difference(p: Polynomial, step: int = 1) -> Polynomial:
    """P(x) - P(x - step), the iterated route at order 1: it drops the degree by exactly one and multiplies the leading
    coefficient by degree * step; constants map to zero."""
    return iterated_difference(p, DifferenceParams(order=1, step=step))


_BLOCK_CROSSOVER = 15  # below this order one block, the plain chain of n shifts, is faster


def _block_size(order: int) -> int:
    """Terms per block of the symbolic sum."""
    return order + 1 if order < _BLOCK_CROSSOVER else isqrt(order + 1)


def sum_cost(degree: int, bits: int, params: DifferenceParams, point: Fraction | None = None) -> int:
    """Budget units for the sum over a polynomial of this degree and numerators of ``bits``, symbolic or at ``point``.

    Both routes build the row and a polynomial or value of 50 units a term.  The symbolic route's 2*sqrt(n) shifts
    subtract and its terms scale coefficients that gain log2(l*m) bits a degree and the weights' n bits; each of the
    numeric route's Horner steps multiplies by the point, so the values gain its bits a degree.  Both prices
    over-count.  The symbolic one still counts a scaled polynomial per term of its one-pass block sums: tepper --n 200,
    conjecture --poly x^100 --l 3 and general --poly x^300 run at 0.53-0.66, 0.72-0.83 and 0.25-0.35 s per 10^7 units.
    The numeric one is unchanged since its terms moved onto integer points over one denominator: tepper --n 400 --x
    7/3 and tepper --n 500 --x 1/1000003 run at 0.16 and 0.18 s per 10^7 units, 0.22 and 0.41 before (2 vCPUs).
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

    With S(y) = P(l*y), w_k = (-1)^k C(n,k) and m terms per block: m - 1 unit shifts give the baby steps S(y - r),
    r < m, and block q is B_q(y) = sum_r w_(qm+r) S(y - r).  The sum is sum_q B_q(y - qm), which in z = y/m is
    Horner's scheme with unit shifts, T <- T(z - 1) + B_q(m*z); one dilation by 1/(l*m) returns to x.  Unit shifts
    keep the denominator, so B_q(m*z) is one integer pass: (sum_r w_(qm+r) s_(r,i)) * m^i over the baby steps'
    numerators s_(r,i), each m^i built once.  A single block takes z = y and pays no m^i.
    """
    weights, m = alternating_binomials(params.order), _block_size(params.order)
    baby = [p.dilate(params.step)]
    while len(baby) < m:
        baby.append(baby[-1].shift(1))  # S(y - r) from S(y - r + 1)
    base = m if len(weights) > m else 1
    powers = [base**i for i in range(baby[0].degree + 1)] if base > 1 else None
    total = Polynomial.zero()
    for q in reversed(range(0, len(weights), m)):
        total = total.shift(1) + Polynomial._weighted_sum(weights[q : q + m], baby, powers)
    return total.dilate(Fraction(1, params.step * base))


def alternating_sum_numeric(p: Polynomial, params: DifferenceParams, point: Scalar) -> Fraction:
    """The same alternating sum evaluated pointwise, term by term: each term is P by Horner's scheme at its own point,
    never a coefficient of a shifted polynomial, so the route is independent of the symbolic one.  The points
    (u - l*k*v)/v share the denominator v, so Q(y) = P(y/v) is built once and its numerators are evaluated, over
    denominator 1, at the integers u - l*k*v; the weighted values are summed over Q's denominator, one ``Fraction``."""
    u, v = as_fraction(point).as_integer_ratio()
    cleared, d = p.dilate(Fraction(1, v))._cleared()  # Q times its denominator d, and d
    values = [cleared.evaluate(u - params.step * v * k).numerator for k in range(params.order + 1)]
    return Fraction(sum(map(mul, alternating_binomials(params.order), values)), d)


def iterated_difference(p: Polynomial, params: DifferenceParams) -> Polynomial:
    """The step-l backward difference applied ``order`` times: in y = x/l each step is S(y) - S(y - 1) with
    S(y) = P(l*y), run by ``Polynomial._differences`` on the numerators of S, and one dilation returns to x."""
    return p.dilate(params.step)._differences(params.order).dilate(Fraction(1, params.step))
