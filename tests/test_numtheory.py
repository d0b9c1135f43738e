"""Modular routes to (p-1)! and the Wilson/Fermat checks."""
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tepperlab import (
    BudgetExceededError,
    InputError,
    binomial,
    factorial,
    factorial_mod_fermat_route,
    factorial_mod_naive,
    factorial_mod_tepper,
    fermat_check,
    mod_pow,
    wilson_primality,
)
from tepperlab.numtheory import ROUTE_FERMAT, ROUTE_TEPPER, ModularCheck, factorial_mod_naive_check, is_prime_trial

PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_mod_pow_examples():
    assert mod_pow(2, 10, 1000) == 24
    assert mod_pow(7, 0, 13) == 1
    assert mod_pow(3, 4, 5) == 1


def test_mod_pow_zero_conventions():
    assert mod_pow(0, 0, 7) == 1
    assert mod_pow(5, 3, 1) == 0
    with pytest.raises(InputError):
        mod_pow(2, 3, 0)


@given(st.integers(0, 10**6), st.integers(0, 500), st.integers(1, 10**6))
def test_mod_pow_matches_builtin(base, exponent, modulus):
    assert mod_pow(base, exponent, modulus) == pow(base, exponent, modulus)


def test_factorial_mod_naive_examples():
    assert factorial_mod_naive(4, 5) == 4
    assert factorial_mod_naive(0, 7) == 1
    assert factorial_mod_naive(6, 7) == 6


def test_factorial_mod_naive_matches_the_exact_factorial():
    # The loop stops once the product is 0 mod m; a product that is merely
    # small must not stop it.  The grid holds products that reach 0 early
    # (m = 6 at k = 3), one that is nonzero at k = 3 and 0 at k = 4 (m = 4,
    # 3! = 6 = 2 mod 4), prime moduli, and one that passes through 1 (m = 5,
    # 3! = 6 = 1 mod 5).
    assert (factorial(3) % 4, factorial(4) % 4, factorial(3) % 5, factorial(5) % 6) == (2, 0, 1, 0)
    for m in range(2, 61):
        for n in range(41):
            assert factorial_mod_naive(n, m) == math.factorial(n) % m, (n, m)


def test_tepper_route_examples():
    for p, residue in ((5, 4), (3, 2), (2, 1)):
        check = factorial_mod_tepper(p)
        assert check.route == ROUTE_TEPPER
        assert (check.computed_residue, check.expected_residue, check.passed) == (residue, p - 1, True)


def test_tepper_route_reports_composites_without_expectation():
    check = factorial_mod_tepper(8)
    assert check.computed_residue == factorial(7) % 8 == 0
    assert not check.passed


def test_fermat_route_examples():
    for p, residue in ((5, 4), (3, 2)):
        check = factorial_mod_fermat_route(p)
        assert check.route == ROUTE_FERMAT
        assert (check.computed_residue, check.passed) == (residue, True)


def test_fermat_route_rejects_composites():
    with pytest.raises(InputError):
        factorial_mod_fermat_route(9)


def test_fermat_check_examples():
    assert fermat_check(2, 7) is True
    assert fermat_check(3, 9) is False  # composite modulus counterexample
    assert fermat_check(1, 11) is True


def test_wilson_primality_examples():
    assert wilson_primality(7) is True
    assert wilson_primality(8) is False
    assert wilson_primality(2) is True


def test_wilson_primality_guards():
    with pytest.raises(InputError):
        wilson_primality(1)
    # The limit is a budget, and the test costs a unit per modular product: n = 10^7 + 1 exceeds the default.
    message = r"^the Wilson test at n = 10000001 costs 10000001 units, which exceeds the budget of 10000000$"
    with pytest.raises(BudgetExceededError, match=message):
        wilson_primality(10**7 + 1)
    with pytest.raises(BudgetExceededError, match=r"costs 1000003 units, which exceeds the budget of 1000002$"):
        wilson_primality(10**6 + 3, limit=10**6 + 2)
    assert wilson_primality(10**6 + 3, limit=10**6 + 3) in (True, False)


def test_routes_agree_on_small_primes():
    for p in filter(is_prime_trial, range(2, 1000)):
        naive = factorial_mod_naive_check(p)
        tepper = factorial_mod_tepper(p)
        fermat = factorial_mod_fermat_route(p)
        assert naive.computed_residue == tepper.computed_residue == fermat.computed_residue == p - 1
        assert naive.passed and tepper.passed and fermat.passed


@pytest.mark.parametrize("p", range(2, 401))
def test_tepper_route_residue_is_the_exact_sum_reduced(p):
    # The route reduces each power mod p; the exact sum, reduced once, and
    # Tepper's identity (-1)^(p-1) (p-1)! must give the same residue, prime or not.
    exact_sum = sum((-1) ** k * math.comb(p - 1, k) * k ** (p - 1) for k in range(p))
    residue = factorial_mod_tepper(p).computed_residue
    assert residue == exact_sum % p
    assert residue == (-1) ** (p - 1) * math.factorial(p - 1) % p


def test_wilson_matches_trial_division_small():
    for n in range(2, 300):
        assert wilson_primality(n) == is_prime_trial(n)


def test_fermat_law_small_primes():
    for p in PRIMES_TO_50:
        for k in range(1, p):
            assert fermat_check(k, p)


def test_alternating_sum_is_signed_factorial_as_integers():
    # before any reduction, the route's sum is exactly +-n!
    for n in range(1, 41):
        total = sum((-1) ** k * binomial(n, k) * k**n for k in range(n + 1))
        assert total == (-1) ** n * factorial(n)


def test_binomial_residue_shortcut():
    # C(p-1, k) = (-1)^k (mod p) for prime p; the exact route must agree
    for p in PRIMES_TO_50:
        for k in range(p):
            assert binomial(p - 1, k) % p == (-1) ** k % p


@pytest.mark.parametrize("computed, expected", [(7, 6), (-1, 6), (3, 9)])
def test_out_of_range_residue_breaks_an_invariant_not_an_input_rule(computed, expected):
    with pytest.raises(AssertionError) as excinfo:
        ModularCheck(7, computed, expected, ROUTE_TEPPER)
    assert not isinstance(excinfo.value, InputError)


def test_modulus_below_two_stays_an_input_error():
    with pytest.raises(InputError):
        ModularCheck(1, 0, 0, ROUTE_TEPPER)
