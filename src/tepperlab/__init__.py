"""Exact-arithmetic verification of alternating binomial identities.

Everything is computed over arbitrary-precision integers and rationals and
compared by structural equality; there are no tolerances anywhere.  The
identities covered:

* sum of (-1)^k C(n,k) (x-k)^n = n! for every x (Tepper's identity);
* the vanishing of the same sum when applied to any polynomial of degree
  below n, and its value a_n * n! at degree exactly n;
* the step-l variant with shifts x - l*k, whose value is a_n * l^n * n!;
* the occupancy counts (assignments of p passengers to n wagons hitting
  exactly r wagons) whose inclusion-exclusion form underlies the identities;
* the Wilson congruence (p-1)! = -1 (mod p), reached through the identity
  and Fermat's little theorem, plus the resulting primality test.

Each computation has an independent second route (operator iteration vs.
direct summation, closed form vs. exhaustive enumeration) so that no single
implementation is trusted.
"""
from .diffcalc import (
    DifferenceParams,
    alternating_sum_numeric,
    alternating_sum_symbolic,
    backward_difference,
    iterated_difference,
)
from .errors import BudgetExceededError, InputError
from .exact import alternating_binomials, binomial, factorial, pascal_row
from .identities import (
    IdentityReport,
    classify_power_sum,
    random_polynomial,
    sweep_conjecture,
    verify_conjecture,
    verify_generalized,
    verify_lemma,
    verify_tepper,
    verify_via_expansion,
)
from .numtheory import (
    ModularCheck,
    factorial_mod_fermat_route,
    factorial_mod_naive,
    factorial_mod_tepper,
    fermat_check,
    mod_pow,
    wilson_primality,
)
from .occupancy import (
    OccupancyParams,
    alternating_power_sum,
    brute_force_occupancy,
    exact_occupancy_count,
    stirling2,
    surjection_count,
)
from .parser import ParseError, parse_polynomial, render_polynomial
from .poly import Polynomial

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DifferenceParams",
    "IdentityReport",
    "InputError",
    "ModularCheck",
    "OccupancyParams",
    "ParseError",
    "Polynomial",
    "alternating_binomials",
    "alternating_power_sum",
    "alternating_sum_numeric",
    "alternating_sum_symbolic",
    "backward_difference",
    "binomial",
    "brute_force_occupancy",
    "classify_power_sum",
    "exact_occupancy_count",
    "factorial",
    "factorial_mod_fermat_route",
    "factorial_mod_naive",
    "factorial_mod_tepper",
    "fermat_check",
    "iterated_difference",
    "mod_pow",
    "parse_polynomial",
    "pascal_row",
    "random_polynomial",
    "render_polynomial",
    "stirling2",
    "surjection_count",
    "sweep_conjecture",
    "verify_conjecture",
    "verify_generalized",
    "verify_lemma",
    "verify_tepper",
    "verify_via_expansion",
    "wilson_primality",
]
