"""Verifier reports: exact claims and witnesses; every refused input raises InputError."""
import random
import re
import time
from fractions import Fraction
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strategies import nonzero_polynomials, polynomials, rationals
from tepperlab import (
    BudgetExceededError,
    DifferenceParams,
    InputError,
    OccupancyParams,
    Polynomial,
    diffcalc,
    identities,
    iterated_difference,
    numtheory,
    occupancy,
)
from tepperlab.identities import (
    CONJECTURE_STEP_L,
    GENERALIZED_TEPPER,
    IdentityReport,
    LEMMA_VANISHING,
    NUMERIC,
    POWER_SUM_FACTORIAL,
    POWER_SUM_ZERO,
    SYMBOLIC,
    TEPPER,
    classify_power_sum,
    random_polynomial,
    sweep_conjecture,
    verify_conjecture,
    verify_generalized,
    verify_lemma,
    verify_occupancy,
    verify_tepper,
    verify_via_expansion,
    verify_wilson,
    verify_wilson_upto,
)

_NO_LEADING = "zero polynomial has no degree or leading coefficient"
_FLOAT = "float 1.5 is not an exact rational; pass int, Fraction, or 'num/den'"


def expand_shifted(coeffs, c):
    """Coefficients of P(x - c) by direct binomial expansion (independent oracle)."""
    out = [Fraction(0)] * len(coeffs)
    for i, a in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += a * comb(i, j) * (-c) ** (i - j)
    return out


def oracle_alternating_sum(p: Polynomial, order: int, step: int) -> Polynomial:
    """The alternating sum expanded term by term, bypassing the library's shift."""
    width = max(len(p.coefficients), 1)
    acc = [Fraction(0)] * width
    for k in range(order + 1):
        sign = (-1) ** k * comb(order, k)
        for j, value in enumerate(expand_shifted(p.coefficients, step * k)):
            acc[j] += sign * value
    return Polynomial(tuple(acc))


def test_tepper_numeric_third_row_instance():
    report = verify_tepper(3, 5, NUMERIC)
    assert report.passed
    assert report.computed == 6
    assert report.witness is None
    assert report.parameters == "n=3 x=5"


def test_tepper_n_zero_single_summand():
    for mode in (NUMERIC, SYMBOLIC):
        report = verify_tepper(0, Fraction(22, 7), mode)
        assert report.passed
    assert verify_tepper(0).computed == Polynomial.constant(1)


def test_tepper_symbolic_witness_degree_four():
    oracle = oracle_alternating_sum(Polynomial.monomial(4), 4, 1)
    assert oracle == Polynomial.constant(24)
    report = verify_tepper(4, mode=SYMBOLIC)
    assert report.passed
    assert report.witness == Polynomial.constant(24)
    assert "x=ignored" in report.parameters


def test_lemma_linear_below_quadratic():
    report = verify_lemma(Polynomial.monomial(1), 2, mode=SYMBOLIC)
    assert report.passed
    assert report.witness == Polynomial.zero()


def test_lemma_quadratic_below_cubic():
    p = Polynomial((1, 3, 1))  # x^2 + 3x + 1
    assert oracle_alternating_sum(p, 3, 1).is_zero()
    report = verify_lemma(p, 3, mode=SYMBOLIC)
    assert report.passed


def test_lemma_degree_violation_is_input_error():
    with pytest.raises(InputError, match=r"^degree not less than n \(deg P = 3, n = 3\)$"):
        verify_lemma(Polynomial.monomial(3), 3)


def test_lemma_accepts_zero_polynomial():
    report = verify_lemma(Polynomial.zero(), 4, mode=SYMBOLIC)
    assert report.passed


def test_generalized_examples():
    assert verify_generalized(Polynomial.monomial(3)).claimed == Polynomial.constant(6)
    p = Polynomial((9, -1, 5))  # 5x^2 - x + 9
    assert oracle_alternating_sum(p, 2, 1) == Polynomial.constant(10)
    report = verify_generalized(p)
    assert report.passed and report.claimed == Polynomial.constant(10)
    q = Polynomial((100, 0, 0, 0, -1))  # -x^4 + 100
    assert oracle_alternating_sum(q, 4, 1) == Polynomial.constant(-24)
    report = verify_generalized(q)
    assert report.passed and report.claimed == Polynomial.constant(-24)


def test_generalized_rejects_zero_polynomial():
    with pytest.raises(InputError, match=rf"^{_NO_LEADING}$"):
        verify_generalized(Polynomial.zero())


def test_conjecture_examples():
    assert verify_conjecture(Polynomial.monomial(2), 3).claimed == Polynomial.constant(18)
    assert verify_conjecture(Polynomial.monomial(2), 1).claimed == Polynomial.constant(2)
    p = Polynomial((0, -1, 0, 2))  # 2x^3 - x
    assert oracle_alternating_sum(p, 3, 2) == Polynomial.constant(96)
    report = verify_conjecture(p, 2)
    assert report.passed and report.claimed == Polynomial.constant(96)


def test_conjecture_rejects_bad_inputs():
    with pytest.raises(InputError, match=r"^step l must be >= 1$"):
        verify_conjecture(Polynomial.monomial(2), 0)
    with pytest.raises(InputError, match=rf"^{_NO_LEADING}$"):
        verify_conjecture(Polynomial.zero(), 2)


@pytest.mark.parametrize(
    "verify, args, message",
    [
        (verify_tepper, (-1,), "n must be >= 0"),
        (verify_tepper, (2, 0, "approximate"), "mode must be 'numeric' or 'symbolic', not 'approximate'"),
        (verify_tepper, (2, 1.5), _FLOAT),
        # Each builder checks in a fixed order: tepper and expansion n before the point,
        # lemma the point before n, conjecture l before P.
        (verify_tepper, (-1, 1.5), "n must be >= 0"),
        (verify_lemma, (Polynomial.monomial(1), -1, 1.5), _FLOAT),
        (verify_lemma, (Polynomial.monomial(1), -1), "n must be >= 0"),
        (verify_lemma, (Polynomial.monomial(3), 3), "degree not less than n (deg P = 3, n = 3)"),
        (verify_generalized, (Polynomial.zero(),), _NO_LEADING),
        (verify_generalized, (Polynomial.monomial(1), 1.5), _FLOAT),
        (verify_conjecture, (Polynomial.monomial(2), 0), "step l must be >= 1"),
        (verify_conjecture, (Polynomial.zero(), 0), "step l must be >= 1"),
        (verify_conjecture, (Polynomial.zero(), 2), _NO_LEADING),
        (verify_via_expansion, (-1,), "n must be >= 0"),
        (verify_via_expansion, (-1, 1.5), "n must be >= 0"),
        (verify_via_expansion, (2, 1.5), _FLOAT),
        (classify_power_sum, (3, 0), "alternating_power_sum requires p >= 1"),
        (classify_power_sum, (-1, 2), "alternating_power_sum requires n >= 0"),
        (verify_wilson, (1,), "p must be >= 2"),
        (verify_wilson, (7, "other"), "route must be one of naive, tepper, fermat, not 'other'"),
        (verify_wilson_upto, (1,), "N = 1 checks nothing; the range 2..N needs N >= 2"),
        (sweep_conjecture, (-1, 1, 1, 0), "sweep bounds must be >= 0"),
        (verify_wilson, (-10**9, "tepper"), "p must be >= 2"),  # refused by the route, not priced
        (sweep_conjecture, (3, -1, 0, 0), "sweep bounds must be >= 0"),
        (sweep_conjecture, (3, 0, 1, 0), "max_step = 0 and trials = 1 check nothing; the sweep needs both >= 1"),
        (sweep_conjecture, (3, 1, 0, 0), "max_step = 1 and trials = 0 check nothing; the sweep needs both >= 1"),
    ],
)
def test_every_builder_refuses_input_by_raising(verify, args, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        verify(*args)


def test_invalid_mode_raises():
    with pytest.raises(InputError):
        verify_tepper(2, mode="approximate")


def test_expansion_inner_sums_n2():
    report = verify_via_expansion(2, 10)
    assert report.passed
    assert "inner=[2, 0, 0]" in report.parameters
    assert report.witness == Polynomial.constant(2)


def test_expansion_trivial_n1():
    report = verify_via_expansion(1, 0)
    assert report.passed
    assert report.computed == 1


def test_expansion_n5_brute_force():
    oracle = sum((-1) ** k * comb(5, k) * (Fraction(1, 2) - k) ** 5 for k in range(6))
    assert oracle == 120
    report = verify_via_expansion(5, Fraction(1, 2))
    assert report.passed
    assert report.computed == 120


def test_numeric_checks_at_a_point_beyond_the_str_limit():
    x_digits = "1" + "0" * 5000  # 10^5000 has 5,001 digits, past CPython's 4,300
    report = verify_tepper(2, Fraction(10**5000), mode=NUMERIC)
    assert report.passed
    assert report.parameters == f"n=2 x={x_digits}"
    report = verify_via_expansion(2, 10**5000)
    assert report.passed
    assert report.parameters == f"n=2 x={x_digits} route=expansion inner=[2, 0, 0]"


@settings(max_examples=40, deadline=None)
@given(nonzero_polynomials(max_degree=6), st.integers(1, 4), rationals())
def test_modes_agree(p, step, x):
    numeric = verify_conjecture(p, step, x, NUMERIC)
    symbolic = verify_conjecture(p, step, x, SYMBOLIC)
    assert numeric.passed == symbolic.passed == True  # noqa: E712


@settings(max_examples=40, deadline=None)
@given(polynomials(max_degree=5), st.integers(0, 6), rationals())
def test_modes_agree_on_every_verifier(p, n, x):
    def outcome(verify, *args):
        try:
            return verify(*args).passed
        except InputError as exc:
            return str(exc)

    for verify, args in [(verify_tepper, (n, x)), (verify_lemma, (p, n, x)), (verify_generalized, (p, x))]:
        assert outcome(verify, *args, NUMERIC) == outcome(verify, *args, SYMBOLIC)


def test_x_independence_of_tepper():
    rng = random.Random(424242)
    for n in (0, 1, 2, 5, 8):
        symbolic = verify_tepper(n, mode=SYMBOLIC)
        assert symbolic.witness.degree == 0
        values = {
            verify_tepper(n, Fraction(rng.randint(-999, 999), rng.randint(1, 99)), NUMERIC).computed
            for _ in range(20)
        }
        assert len(values) == 1


@given(nonzero_polynomials(max_degree=6), rationals().filter(lambda c: c != 0))
def test_scale_equivariance(p, c):
    base = verify_generalized(p, mode=SYMBOLIC)
    scaled = verify_generalized(p.scale(c), mode=SYMBOLIC)
    assert scaled.claimed == base.claimed.scale(c)
    assert scaled.computed == base.computed.scale(c)


@given(nonzero_polynomials(max_degree=6), rationals())
def test_shift_invariance(p, c):
    assert verify_generalized(p.shift(c), mode=SYMBOLIC).computed == verify_generalized(p, mode=SYMBOLIC).computed


@given(nonzero_polynomials(max_degree=6))
def test_conjecture_step_one_matches_generalized(p):
    assert verify_conjecture(p, 1, mode=SYMBOLIC).computed == verify_generalized(p, mode=SYMBOLIC).computed


def test_power_sum_classification():
    below = classify_power_sum(3, 2)
    assert below.identity_name == POWER_SUM_ZERO
    assert below.passed and below.computed == 0
    diagonal = classify_power_sum(4, 4)
    assert diagonal.identity_name == POWER_SUM_FACTORIAL
    assert diagonal.passed and diagonal.computed == -24
    above = classify_power_sum(2, 5)
    assert above.identity_name == "powersum"
    assert above.passed and above.claimed is None
    assert above.computed == 2 * 1 - 1 * 32


@pytest.mark.parametrize("oracle", [7, 0])
def test_occupancy_report_computes_a_disagreeing_oracle_and_fails(monkeypatch, oracle):
    monkeypatch.setattr(occupancy, "brute_force_occupancy", lambda params, budget: oracle)
    report = verify_occupancy(OccupancyParams(3, 2, 2), with_oracle=True)
    assert (report.claimed, report.computed, report.passed) == (6, oracle, False)
    # Without the oracle the patched enumeration is never consulted.
    assert verify_occupancy(OccupancyParams(3, 2, 2)).passed


def test_occupancy_report_passes_the_oracle_budget_on():
    # The oracle checks its own price: 3^5 assignments (more than 8 units for each of the 3^3 tails) and 5 for
    # the loops, 248.  The closed form checks 5 units of its own, with or without the oracle.
    message = "enumerating 3^5 assignments costs 248 units, which exceeds the budget of 247"
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        verify_occupancy(OccupancyParams(3, 5, 2), with_oracle=True, budget=247)
    assert verify_occupancy(OccupancyParams(3, 5, 2), with_oracle=True, budget=248).computed == 90
    assert verify_occupancy(OccupancyParams(3, 5, 2), budget=5).computed == 90
    message = "occupancy wagons=3 passengers=5 occupied=2 costs 5 units, which exceeds the budget of 4"
    for with_oracle in (False, True):
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            verify_occupancy(OccupancyParams(3, 5, 2), with_oracle=with_oracle, budget=4)


@pytest.mark.parametrize(
    "p, route, parameters, computed",
    [
        (7, "naive", "p=7 route=naive_factorial", 6),
        (7, "tepper", "p=7 route=tepper_sum", 6),
        (7, "fermat", "p=7 route=fermat_reduced_sum", 6),
        (9, "naive", "p=9 route=naive_factorial", 0),
        (9, "tepper", "p=9 route=tepper_sum", 0),
    ],
)
def test_wilson_report_by_route(p, route, parameters, computed):
    assert verify_wilson(p, route) == IdentityReport("wilson", parameters, p - 1, computed, computed == p - 1)


def test_wilson_report_refusals():
    with pytest.raises(InputError, match="not prime"):
        verify_wilson(9, "fermat")
    for p in (7, 2000003):
        with pytest.raises(InputError, match="route must be one of naive, tepper, fermat, not 'other'"):
            verify_wilson(p, "other")
    with pytest.raises(BudgetExceededError, match=r"^the naive route at p = 10000001 costs 10000001 units, which"):
        verify_wilson(10000001)
    # The tepper and fermat routes build the row of p - 1: 1009 costs more than 997, whose price it is given.
    for route, units_997, units_1009 in (("tepper", 20710, 21054), ("fermat", 10740, 10964)):
        message = f"^the {route} route at p = 1009 costs {units_1009} units, which exceeds the budget of {units_997}$"
        with pytest.raises(BudgetExceededError, match=message):
            verify_wilson(1009, route, budget=units_997)
        assert verify_wilson(997, route, budget=units_997).passed


def test_wilson_upto_reports_match_the_cli_rows():
    reports = verify_wilson_upto(5)
    assert [(r.identity_name, r.parameters, r.claimed, r.computed, r.passed) for r in reports] == [
        ("wilson", "n=2 route=naive_factorial residue=1", "prime", "prime", True),
        ("wilson", "n=3 route=naive_factorial residue=2", "prime", "prime", True),
        ("wilson", "n=4 route=naive_factorial residue=2", "composite", "composite", True),
        ("wilson", "n=5 route=naive_factorial residue=4", "prime", "prime", True),
    ]
    assert all(r.witness is None for r in reports)
    with pytest.raises(InputError, match=r"^N = 1 checks nothing; the range 2\.\.N needs N >= 2$"):
        verify_wilson_upto(1)
    message = r"^the naive route for every n <= 5 costs 12 units, which exceeds the budget of 11$"
    with pytest.raises(BudgetExceededError, match=message):
        verify_wilson_upto(5, budget=11)
    assert len(verify_wilson_upto(5, budget=12)) == 4


def test_random_polynomial_contract():
    rng = random.Random(9)
    for degree in range(9):
        p = random_polynomial(rng, degree)
        assert p.degree == degree
        assert all(abs(c.numerator) <= 99 * 9 and c.denominator <= 9 for c in p.coefficients)


def test_sweep_counts_and_passes():
    reports = sweep_conjecture(max_degree=2, max_step=2, trials=1, seed=42)
    assert len(reports) == 4
    assert all(r.passed for r in reports)
    assert [r.identity_name for r in reports] == [CONJECTURE_STEP_L] * 4


def test_sweep_degree_zero_constants():
    reports = sweep_conjecture(max_degree=0, max_step=3, trials=2, seed=5)
    assert len(reports) == 6
    for r in reports:
        assert r.passed
        # claimed a0 * l^0 * 0! is the constant itself
        assert r.claimed == r.witness


def test_sweep_large_campaign():
    reports = sweep_conjecture(max_degree=8, max_step=4, trials=10, seed=7)
    assert len(reports) == 320
    assert all(r.passed for r in reports)


def test_sweep_is_deterministic():
    a = sweep_conjecture(max_degree=3, max_step=2, trials=3, seed=123)
    b = sweep_conjecture(max_degree=3, max_step=2, trials=3, seed=123)
    assert a == b
    c = sweep_conjecture(max_degree=3, max_step=2, trials=3, seed=124)
    assert a != c


def test_sweep_order_is_degree_step_trial():
    reports = sweep_conjecture(max_degree=2, max_step=2, trials=2, seed=0)
    keys = [tuple(part.split("=")[0] for part in r.parameters.split()[:3]) for r in reports]
    assert all(k == ("degree", "step", "trial") for k in keys)
    indices = [
        tuple(int(part.split("=")[1]) for part in r.parameters.split()[:3]) for r in reports
    ]
    assert indices == sorted(indices)


@settings(max_examples=30, deadline=None)
@given(nonzero_polynomials(max_degree=5), st.integers(1, 3))
def test_symbolic_sum_matches_independent_expansion(p, step):
    # library route vs. in-test oracle built from raw binomial expansion
    report = verify_conjecture(p, step, mode=SYMBOLIC)
    assert report.computed == oracle_alternating_sum(p, int(p.degree), step)


_LINEAR_QUADRATIC = Polynomial((1, 3, 1))  # x^2 + 3x + 1
_QUADRATIC = Polynomial((9, -1, 5))  # 5x^2 - x + 9
_CUBIC = Polynomial((0, -1, 0, 2))  # 2x^3 - x


@pytest.mark.parametrize("mode", [SYMBOLIC, NUMERIC])
@pytest.mark.parametrize(
    "verify, args, base, error",
    [
        (verify_tepper, (3,), "n=3", None),
        (verify_tepper, (-1,), "n=-1", "n must be >= 0"),
        (verify_lemma, (_LINEAR_QUADRATIC, 3), 'poly="x^2 + 3*x + 1" n=3', None),
        (verify_lemma, (_LINEAR_QUADRATIC, -1), 'poly="x^2 + 3*x + 1" n=-1', "n must be >= 0"),
        (
            verify_lemma,
            (Polynomial.monomial(3), 3),
            'poly="x^3" n=3',
            "degree not less than n (deg P = 3, n = 3)",
        ),
        (verify_generalized, (_QUADRATIC,), 'poly="5*x^2 - x + 9" n=2', None),
        (verify_generalized, (Polynomial.zero(),), 'poly="0"', _NO_LEADING),
        (verify_conjecture, (_CUBIC, 2), 'poly="2*x^3 - x" l=2 n=3', None),
        (verify_conjecture, (_CUBIC, 0), 'poly="2*x^3 - x" l=0', "step l must be >= 1"),
        (verify_conjecture, (Polynomial.zero(), 2), 'poly="0" l=2', _NO_LEADING),
    ],
)
def test_exact_parameter_strings(verify, args, base, error, mode):
    if error is not None:
        with pytest.raises(InputError, match=f"^{re.escape(error)}$"):
            verify(*args, Fraction(-3, 2), mode)
        return
    report = verify(*args, Fraction(-3, 2), mode)
    if mode == SYMBOLIC:
        assert report.parameters == base + " mode=symbolic x=ignored"
    else:
        assert report.parameters == base + " x=-3/2"


def test_tepper_symbolic_at_high_degree():
    # The shifted monomials reach coefficients of hundreds of bits.
    report = verify_tepper(150)
    assert report.passed
    assert report.witness == Polynomial.constant(factorial(150))


def test_conjecture_symbolic_at_high_degree_matches_iterated_difference():
    p = random_polynomial(random.Random(60), 60)
    report = verify_conjecture(p, 3)
    assert report.passed
    assert report.witness == iterated_difference(p, DifferenceParams(order=60, step=3))


_COSTLY = [
    (verify_tepper, (10**9,)),
    (verify_tepper, (10**9, 1, NUMERIC)),
    (verify_tepper, (20, 10**20000 - 1, NUMERIC)),
    (verify_lemma, (Polynomial.monomial(1), 10**9)),
    (verify_generalized, (Polynomial.monomial(1000),)),
    (verify_conjecture, (Polynomial.monomial(100), 10**600 - 1)),
    (verify_via_expansion, (10**6,)),
    (classify_power_sum, (2000, 20000)),
    (verify_occupancy, (OccupancyParams(100000, 100000, 50000),)),
    (verify_occupancy, (OccupancyParams(10**6, 1, 1), True)),
    (verify_wilson, (100003, "tepper")),
    (verify_wilson, (100003, "fermat")),
    (verify_wilson, (10**7 + 1,)),
    (verify_wilson_upto, (10**6,)),
    (sweep_conjecture, (200, 200, 100, 0)),
]


@pytest.mark.parametrize("verify, args", _COSTLY, ids=lambda v: getattr(v, "__name__", None))
def test_every_verifier_prices_its_work_before_building_anything_of_size_n(monkeypatch, verify, args):
    # Every builder of a size-n object fails the test if it is reached: the refusal must come first.
    def built(*_args, **_kwargs):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(Polynomial, "monomial", classmethod(built))
    for module in (identities, diffcalc, occupancy, numtheory):
        monkeypatch.setattr(module, "alternating_binomials", built, raising=False)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r" costs \d+ units, which exceeds the budget of 10000000$"):
        verify(*args)
    assert time.perf_counter() - start < 1.0


_CHEAP = [
    (verify_tepper, (4,)),
    (verify_tepper, (4, 3, NUMERIC)),
    (verify_lemma, (Polynomial.monomial(1), 3)),
    (verify_generalized, (Polynomial.monomial(3),)),
    (verify_conjecture, (Polynomial.monomial(3), 2)),
    (verify_via_expansion, (4,)),
    (classify_power_sum, (4, 4)),
    (verify_occupancy, (OccupancyParams(3, 2, 2), True)),
    (verify_wilson, (7, "tepper")),
    (verify_wilson_upto, (7,)),
    (sweep_conjecture, (2, 2, 1, 0)),
]


@pytest.mark.parametrize("verify, args", _CHEAP, ids=lambda v: getattr(v, "__name__", None))
def test_every_verifier_takes_a_budget(verify, args):
    with pytest.raises(BudgetExceededError, match=r" costs \d+ units, which exceeds the budget of 1$"):
        verify(*args, budget=1)
    result = verify(*args, budget=10**4)
    assert all(r.passed for r in result) if isinstance(result, list) else result.passed
