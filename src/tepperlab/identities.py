"""Named verifiers for the alternating-binomial-sum identities.

Each verifier returns an IdentityReport with the claimed value, the value
actually computed, and (in symbolic mode) the full sum polynomial as a
witness.  Verification is exact: ``passed`` is structural equality of
claimed and computed, never a tolerance.

Symbolic mode is the default everywhere.  A symbolic pass is a proof of the
identity for that parameter instance over all x; numeric mode evaluates the
sum pointwise instead and exists to exercise the evaluation path.

Every builder raises InputError on a violated precondition (wrong degree,
zero polynomial, step < 1, an unknown mode, a float x), so a report
always carries a result: misuse can never pass for a falsified theorem.
Each then prices its work against its ``budget`` once, before it builds anything of size n.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from . import numtheory, occupancy
from .diffcalc import DifferenceParams, alternating_sum_numeric, alternating_sum_symbolic, sum_cost
from .errors import DEFAULT_BUDGET, InputError, check_budget
from .exact import alternating_binomials, factorial, product_cost, row_cost
from .parser import _render_rational, render_polynomial
from .poly import Polynomial, Scalar, as_fraction

SYMBOLIC = "symbolic"
NUMERIC = "numeric"

TEPPER = "tepper"
LEMMA_VANISHING = "lemma_vanishing"
GENERALIZED_TEPPER = "generalized_tepper"
CONJECTURE_STEP_L = "conjecture_step_l"
POWER_SUM_ZERO = "power_sum_zero"
POWER_SUM_FACTORIAL = "power_sum_factorial"

IDENTITY_NAMES = (
    TEPPER,
    LEMMA_VANISHING,
    GENERALIZED_TEPPER,
    CONJECTURE_STEP_L,
    POWER_SUM_ZERO,
    POWER_SUM_FACTORIAL,
)

Value = Union[int, Fraction, Polynomial, str, None]


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    parameters: str
    claimed: Value
    computed: Value
    passed: bool
    witness: Polynomial | None = None


def _check_mode(mode: str) -> None:
    if mode not in (NUMERIC, SYMBOLIC):
        raise InputError(f"mode must be '{NUMERIC}' or '{SYMBOLIC}', not {mode!r}")


def _step_sum_report(
    name: str, parameters: str, p: Polynomial | None, order: int, step: int, x: Fraction, mode: str, budget: int
) -> IdentityReport:
    """The paper's theorem for one instance, symbolically or at x.

    For deg P <= order, the sum of (-1)^k C(order,k) P(x - step*k) is the
    constant a_order * step^order * order!, where a_order is the x^order
    coefficient of P (zero when deg P < order).  Tepper's identity, the
    vanishing lemma, the generalized identity and the step-l identity are
    all instances of this one claim.  P = None is x^order, built once priced.
    """
    params = DifferenceParams(order=order, step=step)
    degree, bits = (order, 1) if p is None else (p.degree, p.bit_length)
    cost = sum_cost(degree, bits, params, None if mode == SYMBOLIC else x)
    check_budget(cost, budget, f"the {mode} sum of order {order} at degree {degree}")
    p = Polynomial.monomial(order) if p is None else p
    a = p.coefficients[order] if order <= p.degree else Fraction(0)
    claimed = a * step**order * factorial(order)
    if mode == SYMBOLIC:
        s = alternating_sum_symbolic(p, params)
        claimed = Polynomial.constant(claimed)
        return IdentityReport(name, f"{parameters} mode=symbolic x=ignored", claimed, s, s == claimed, witness=s)
    value = alternating_sum_numeric(p, params, x)
    return IdentityReport(name, f"{parameters} x={_render_rational(x)}", claimed, value, value == claimed)


def verify_tepper(n: int, x: Scalar = 0, mode: str = SYMBOLIC, budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """The alternating sum of C(n,k) (x-k)^n equals n! for every x.

    n = 0 is allowed: the sum is the single term (x-0)^0 = 1 = 0!.
    """
    _check_mode(mode)
    if n < 0:
        raise InputError("n must be >= 0")
    return _step_sum_report(TEPPER, f"n={n}", None, n, 1, as_fraction(x), mode, budget)


def verify_lemma(
    p: Polynomial, n: int, x: Scalar = 0, mode: str = SYMBOLIC, budget: int = DEFAULT_BUDGET
) -> IdentityReport:
    """The order-n alternating sum annihilates any polynomial of degree < n."""
    _check_mode(mode)
    xf = as_fraction(x)
    if n < 0:
        raise InputError("n must be >= 0")
    if not p.degree < n:
        raise InputError(f"degree not less than n (deg P = {p.degree}, n = {n})")
    return _step_sum_report(LEMMA_VANISHING, f'poly="{render_polynomial(p)}" n={n}', p, n, 1, xf, mode, budget)


def verify_generalized(
    p: Polynomial, x: Scalar = 0, mode: str = SYMBOLIC, budget: int = DEFAULT_BUDGET
) -> IdentityReport:
    """For deg P = n, the order-n alternating sum is the constant a_n * n!."""
    _check_mode(mode)
    xf = as_fraction(x)
    if p.is_zero():
        raise InputError("zero polynomial has no degree or leading coefficient")
    parameters = f'poly="{render_polynomial(p)}" n={p.degree}'
    return _step_sum_report(GENERALIZED_TEPPER, parameters, p, p.degree, 1, xf, mode, budget)


def verify_conjecture(
    p: Polynomial, l: int, x: Scalar = 0, mode: str = SYMBOLIC, budget: int = DEFAULT_BUDGET
) -> IdentityReport:
    """With shifts x - l*k the order-n sum is the constant a_n * l^n * n!."""
    _check_mode(mode)
    xf = as_fraction(x)
    if l < 1:
        raise InputError("step l must be >= 1")
    if p.is_zero():
        raise InputError("zero polynomial has no degree or leading coefficient")
    parameters = f'poly="{render_polynomial(p)}" l={l} n={p.degree}'
    return _step_sum_report(CONJECTURE_STEP_L, parameters, p, p.degree, l, xf, mode, budget)


def verify_via_expansion(n: int, x: Scalar = 0, budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """Recompute the order-n sum for P = x^n by exchanging summation order.

    Expanding (x-k)^n binomially and swapping sums leaves, against each
    power x^j, the inner coefficient sum of (-1)^k C(n,k) (-k)^(n-j).  The
    inner sums must vanish for 1 <= j <= n and equal n! at j = 0; the
    reconstructed polynomial (witness) is then the constant n!.  The terms
    (-1)^k C(n,k) (-k)^s are kept and multiplied by -k once per power s, so
    the inner sums cost n(n+1) products by a word, not (n+1)^2 powers.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    xf = as_fraction(x)
    size = n + n * n.bit_length() // 2  # the terms grow by log2(n) bits a round
    cost = row_cost(n) + n * (n + 1) * (product_cost(size, 64) + product_cost(size, 16))
    check_budget(cost, budget, f"the expansion of order {n}")
    weights = terms = alternating_binomials(n)
    moments = [sum(terms)]
    for _ in range(n):
        terms = [t * -k for k, t in enumerate(terms)]
        moments.append(sum(terms))
    inner = moments[::-1]
    witness = Polynomial(tuple(Fraction(abs(weights[j]) * inner[j]) for j in range(n + 1)))
    total_at_x = witness.evaluate(xf)
    claimed = Fraction(factorial(n))
    inner_ok = inner[0] == factorial(n) and all(v == 0 for v in inner[1:])
    passed = inner_ok and total_at_x == claimed
    parameters = f"n={n} x={_render_rational(xf)} route=expansion inner=[{', '.join(map(_render_rational, inner))}]"
    return IdentityReport(TEPPER, parameters, claimed, total_at_x, passed, witness=witness)


def classify_power_sum(n: int, p: int, budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """The signed power sum C(n,1) 1^p - ... + (-1)^(n-1) C(n,n) n^p, classified.

    p < n: claimed zero.  p = n: claimed (-1)^(p-1) p!.  p > n: no claim is
    made; the raw value is reported and the report passes vacuously.
    """
    if n >= 0 and p >= 1:  # anything else is refused by alternating_power_sum, not priced
        check_budget(occupancy.power_sum_cost(n, p), budget, f"the power sum of order {n} and power {p}")
    parameters = f"n={n} p={p}"
    computed = Fraction(occupancy.alternating_power_sum(n, p))
    if p < n:
        claimed = Fraction(0)
        return IdentityReport(POWER_SUM_ZERO, parameters, claimed, computed, computed == claimed)
    if p == n:
        claimed = Fraction((-1) ** (p - 1) * factorial(p))
        return IdentityReport(POWER_SUM_FACTORIAL, parameters, claimed, computed, computed == claimed)
    return IdentityReport("powersum", parameters + " classification=none (p > n)", None, computed, True)


def verify_occupancy(
    params: occupancy.OccupancyParams, with_oracle: bool = False, budget: int = DEFAULT_BUDGET
) -> IdentityReport:
    """The closed-form occupancy count against the enumeration oracle, or against itself without it; each is priced."""
    parameters = f"wagons={params.wagons} passengers={params.passengers} occupied={params.occupied}"
    check_budget(occupancy.closed_form_cost(params), budget, f"occupancy {parameters}")
    oracle = occupancy.brute_force_occupancy(params, budget=budget) if with_oracle else None  # priced before it runs
    closed = occupancy.exact_occupancy_count(params)
    computed = closed if oracle is None else oracle
    return IdentityReport("occupancy", parameters, closed, computed, computed == closed)


def verify_wilson(p: int, route: str = "naive", budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """(p-1)! mod p by the named route against the Wilson residue p - 1, priced by ``numtheory.wilson_cost``."""
    compute = numtheory.wilson_route(route)
    check_budget(numtheory.wilson_cost(route, p), budget, f"the {route} route at p = {p}")
    check = compute(p)
    residues = check.expected_residue, check.computed_residue
    return IdentityReport("wilson", f"p={p} route={check.route}", *residues, check.passed)


def verify_wilson_upto(upto: int, budget: int = DEFAULT_BUDGET) -> list[IdentityReport]:
    """Wilson's "prime"/"composite" verdict against trial division's for n = 2..upto: upto/2 naive routes at upto."""
    if upto < 2:
        raise InputError(f"N = {upto} checks nothing; the range 2..N needs N >= 2")
    check_budget(upto * numtheory.wilson_cost("naive", upto) // 2, budget, f"the naive route for every n <= {upto}")
    reports = []
    for n in range(2, upto + 1):
        check, trial_says_prime = numtheory.factorial_mod_naive_check(n), numtheory.is_prime_trial(n)
        verdicts = ("prime" if trial_says_prime else "composite", "prime" if check.passed else "composite")
        parameters = f"n={n} route={check.route} residue={check.computed_residue}"
        reports.append(IdentityReport("wilson", parameters, *verdicts, check.passed == trial_says_prime))
    return reports


def random_polynomial(rng: random.Random, degree: int) -> Polynomial:
    """Random polynomial of exactly the given degree.

    Numerators in [-99, 99], denominators in [1, 9]; the leading coefficient
    is redrawn until nonzero.  Small coefficients keep reports readable, and
    the identities are linear in the coefficients, so magnitude adds nothing.
    """
    coeffs = []
    for i in range(degree + 1):
        numerator = rng.randint(-99, 99)
        while i == degree and numerator == 0:
            numerator = rng.randint(-99, 99)
        coeffs.append(Fraction(numerator, rng.randint(1, 9)))
    return Polynomial(tuple(coeffs))


def sweep_conjecture(
    max_degree: int, max_step: int, trials: int, seed: int, budget: int = DEFAULT_BUDGET
) -> list[IdentityReport]:
    """Symbolic step-l verification over every (degree, step) pair.

    Degrees run 1..max_degree (degree 0 only when max_degree = 0), steps run
    1..max_step, with ``trials`` random polynomials per pair.  Reports come
    back in (degree, step, trial) order, deterministically for a given seed.
    It is priced as its instances times the costliest one, of 20-bit coefficients.
    """
    if max_degree < 0 or max_step < 0 or trials < 0:
        raise InputError("sweep bounds must be >= 0")
    if max_step < 1 or trials < 1:
        raise InputError(f"max_step = {max_step} and trials = {trials} check nothing; the sweep needs both >= 1")
    cost = max(max_degree, 1) * max_step * trials * sum_cost(max_degree, 20, DifferenceParams(max_degree, max_step))
    check_budget(cost, budget, f"the sweep to degree {max_degree} and step {max_step}, {trials} trials each")
    rng = random.Random(seed)
    degrees = range(0, 1) if max_degree == 0 else range(1, max_degree + 1)
    reports = []
    for degree in degrees:
        for step in range(1, max_step + 1):
            for trial in range(trials):
                p = random_polynomial(rng, degree)
                report = verify_conjecture(p, step, mode=SYMBOLIC, budget=budget)
                report = replace(
                    report,
                    parameters=f"degree={degree} step={step} trial={trial} " + report.parameters,
                )
                reports.append(report)
    return reports
