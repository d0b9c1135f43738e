"""Exact integer and combinatorial primitives.

Arbitrary-precision naturals are plain Python ints; exact rationals are
``fractions.Fraction`` (always reduced, denominator > 0).  Those two built-in
types are the only numeric domains used anywhere in this package; nothing
here is floating point.
"""
from __future__ import annotations

import math

from .errors import InputError


def binomial(n: int, k: int) -> int:
    """C(n, k) for n, k >= 0; zero when k > n, so sums need no boundary guards."""
    return math.comb(n, k)


def alternating_binomials(n: int) -> list[int]:
    """The weights (-1)^k C(n,k) for k = 0..n of every alternating binomial sum.

    Only C(n,k) for k <= n // 2 is computed; the rest of the row mirrors it
    by C(n,k) = C(n,n-k).
    """
    if n < 0:
        raise InputError("alternating_binomials requires n >= 0")
    row = [binomial(n, k) for k in range(n // 2 + 1)]
    row += reversed(row[: (n + 1) // 2])
    row[1::2] = [-c for c in row[1::2]]
    return row


def factorial(n: int) -> int:
    """n! with 0! = 1."""
    return math.factorial(n)


def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle: (C(n,0), ..., C(n,n)).

    Uses the multiplicative recurrence C(n,k+1) = C(n,k) * (n-k) / (k+1);
    the division is exact at every step, so no factorials are formed.
    """
    if n < 0:
        raise InputError("pascal_row requires n >= 0")
    row = [1]
    entry = 1
    for k in range(n):
        entry = entry * (n - k) // (k + 1)
        row.append(entry)
    return tuple(row)
