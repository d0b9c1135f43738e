"""Exact integer and combinatorial primitives.

Arbitrary-precision naturals are plain Python ints; exact rationals are
``fractions.Fraction`` (always reduced, denominator > 0).  Those two built-in
types are the only numeric domains used anywhere in this package; nothing
here is floating point.

Every binomial row comes from ``pascal_row``, an exact integer recurrence
whose central entry is checked against ``math.comb``.
"""
from __future__ import annotations

import math

from .errors import InputError


def binomial(n: int, k: int) -> int:
    """C(n, k) for n, k >= 0; zero when k > n, so sums need no boundary guards."""
    return math.comb(n, k)


def alternating_binomials(n: int) -> list[int]:
    """The weights (-1)^k C(n,k) for k = 0..n of every alternating sum: a fresh signed copy of ``pascal_row(n)``."""
    row = list(pascal_row(n))
    row[1::2] = [-c for c in row[1::2]]
    return row


def factorial(n: int) -> int:
    """n! with 0! = 1."""
    return math.factorial(n)


def product_cost(a_bits: int, b_bits: int) -> int:
    """Budget units for a product of a- and b-bit integers: a loop step, then schoolbook words up to 4096 bits
    and Karatsuba's sqrt(b) past them.  A sum is priced as a product by 16 bits, a product by a word by 64."""
    low, high = sorted((a_bits, b_bits))
    return 1 + high * min(low, 64 * math.isqrt(low)) // 2**15


def row_cost(n: int) -> int:
    """Budget units for ``pascal_row(n)``: n/2 steps on integers of up to n bits, a unit per 192 (the measured rate)."""
    return n * n // 384 + n


def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle: (C(n,0), ..., C(n,n)).

    Uses the multiplicative recurrence C(n,k+1) = C(n,k) * (n-k) / (k+1) for
    k < n // 2, exact at every step, and mirrors the rest by C(n,k) = C(n,n-k).
    A central entry that differs from ``binomial`` is a defect: AssertionError.
    """
    if n < 0:
        raise InputError("pascal_row requires n >= 0")
    row = [1]
    for k in range(n // 2):
        row.append(row[-1] * (n - k) // (k + 1))
    if row[-1] != binomial(n, n // 2):
        raise AssertionError(f"pascal_row({n}): the recurrence disagrees with binomial({n}, {n // 2})")
    row += reversed(row[: (n + 1) // 2])
    return tuple(row)
