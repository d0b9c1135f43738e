"""Modular arithmetic: the factorial congruence (p-1)! = -1 (mod p) by
three routes, Fermat checks, and a Wilson primality test.

The three routes to (p-1)! mod p:

* ``naive_factorial``: iterated modular product, the baseline, which stops
  once the product reaches 0;
* ``tepper_sum``: sum of (-1)^k C(p-1,k) k^(p-1), reduced mod p.
  Each power is taken as ``pow(k, p-1, p)``, plain modular exponentiation
  that holds for any modulus, so no Fermat step is used.  The binomials
  are computed exactly and the sum is reduced only at the end; reducing
  them first via C(p-1,k) = (-1)^k (mod p) would short-circuit the
  computation this route exists to exercise (the shortcut lives in the
  test suite as a cross-check assertion);
* ``fermat_reduced_sum``: each k^(p-1) replaced by 1 for 1 <= k <= p-1,
  which is only justified for prime p, so composites are rejected.
"""
from __future__ import annotations

from typing import Callable

from .errors import DEFAULT_BUDGET, InputError, check_budget
from .exact import alternating_binomials, product_cost, row_cost

ROUTE_NAIVE = "naive_factorial"
ROUTE_TEPPER = "tepper_sum"
ROUTE_FERMAT = "fermat_reduced_sum"

WILSON_ROUTES = ("naive", "tepper", "fermat")


class ModularCheck:
    """One residue computation against its expected value."""

    __slots__ = ("modulus", "computed_residue", "expected_residue", "route")

    def __init__(self, modulus: int, computed_residue: int, expected_residue: int, route: str) -> None:
        if modulus < 2:
            raise InputError("modulus must be >= 2")
        # Every route reduces mod the modulus, so a residue out of range is a
        # defect in the route, not a bad input.
        for residue in (computed_residue, expected_residue):
            if not 0 <= residue < modulus:
                raise AssertionError(f"residue {residue} outside [0, {modulus})")
        self.modulus, self.computed_residue, self.expected_residue, self.route = (
            modulus, computed_residue, expected_residue, route
        )

    @property
    def passed(self) -> bool:
        return self.computed_residue == self.expected_residue


def _wilson_check(p: int, computed: int, route: str) -> ModularCheck:
    """A computed (p-1)! mod p against the Wilson residue p - 1."""
    return ModularCheck(p, computed, p - 1, route)


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus by square-and-multiply; 0**0 = 1."""
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    if exponent < 0:
        raise InputError("exponent must be >= 0")
    result = 1 % modulus
    b = base % modulus
    e = exponent
    while e:
        if e & 1:
            result = result * b % modulus
        b = b * b % modulus
        e >>= 1
    return result


def factorial_mod_naive(n: int, modulus: int) -> int:
    """n! mod modulus by iterated modular product.

    The loop stops once the product is 0 mod modulus, since every later
    product is 0 too; for most composite moduli that happens long before
    k = n, while a prime modulus pays one extra test per step.
    """
    if modulus < 2:
        raise InputError("modulus must be >= 2")
    if n < 0:
        raise InputError("n must be >= 0")
    result = 1 % modulus
    for k in range(2, n + 1):
        result = result * k % modulus
        if not result:
            break
    return result


def is_prime_trial(n: int) -> bool:
    """Primality by trial division; fine at desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorial_mod_naive_check(p: int) -> ModularCheck:
    """(p-1)! mod p against the expected residue p - 1, baseline route."""
    if p < 2:
        raise InputError("p must be >= 2")
    return _wilson_check(p, factorial_mod_naive(p - 1, p), ROUTE_NAIVE)


def factorial_mod_tepper(p: int) -> ModularCheck:
    """(p-1)! mod p via the alternating sum of C(p-1,k) k^(p-1).

    The weights stay exact binomials, the signed row that ``pascal_row``
    builds over the integers, and each power is ``pow(k, p-1, p)``: a
    product reduced mod p has the residue of the exact one, for prime and
    composite p alike.  The sum is reduced mod p only at the end.  Passes
    for every prime p; for composite p the computed residue is reported
    without any pass expectation.
    """
    if p < 2:
        raise InputError("p must be >= 2")
    n = p - 1
    total = sum(w * pow(k, n, p) for k, w in enumerate(alternating_binomials(n)))
    return _wilson_check(p, total % p, ROUTE_TEPPER)


def factorial_mod_fermat_route(p: int) -> ModularCheck:
    """(p-1)! mod p via the Fermat-reduced sum of (-1)^k C(p-1,k), k >= 1.

    Requires p prime (checked by trial division): the reduction k^(p-1) -> 1
    is exactly Fermat's little theorem.
    """
    if p < 2 or not is_prime_trial(p):
        raise InputError(f"p = {p} is not prime; the Fermat reduction does not apply")
    total = sum(alternating_binomials(p - 1)[1:])
    return _wilson_check(p, total % p, ROUTE_FERMAT)


def fermat_check(k: int, p: int) -> bool:
    """True iff k^(p-1) = 1 (mod p); holds for prime p and 1 <= k < p."""
    if p < 2:
        raise InputError("p must be >= 2")
    if not 1 <= k < p:
        raise InputError("k must satisfy 1 <= k < p")
    return mod_pow(k, p - 1, p) == 1


def wilson_route(name: str) -> Callable[[int], ModularCheck]:
    """The route named in WILSON_ROUTES, looked up at call time so that patches reach it."""
    routes = dict(zip(WILSON_ROUTES, (factorial_mod_naive_check, factorial_mod_tepper, factorial_mod_fermat_route)))
    if name not in routes:
        raise InputError(f"route must be one of {', '.join(WILSON_ROUTES)}, not {name!r}")
    return routes[name]


def wilson_cost(name: str, p: int) -> int:
    """Budget units for the named route at p: p modular products, or the row, a sum and on the tepper route powers."""
    p = max(p, 0)  # the route itself refuses p < 2
    if name == "naive":
        return p * product_cost(p.bit_length(), p.bit_length())
    return row_cost(p - 1) + p * (product_cost(p, 64) + (p.bit_length() if name == "tepper" else 0))


def wilson_primality(n: int, limit: int = DEFAULT_BUDGET) -> bool:
    """True iff (n-1)! = -1 (mod n), i.e. iff n is prime; priced as the naive route against the budget ``limit``."""
    if n < 2:
        raise InputError("wilson_primality requires n >= 2")
    check_budget(wilson_cost("naive", n), limit, f"the Wilson test at n = {n}")
    return factorial_mod_naive(n - 1, n) == n - 1
