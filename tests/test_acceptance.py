"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is exact (structural equality of integers, rationals, or
polynomials); the only numeric bounds are wall-clock budgets, asserted with
time.perf_counter around the work.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the one-line PASS summaries).
"""
import json
import random
import time
from fractions import Fraction

from tepperlab import (
    DifferenceParams,
    OccupancyParams,
    Polynomial,
    alternating_power_sum,
    alternating_sum_symbolic,
    brute_force_occupancy,
    exact_occupancy_count,
    factorial,
    factorial_mod_fermat_route,
    factorial_mod_naive,
    factorial_mod_tepper,
    iterated_difference,
    parse_polynomial,
    render_polynomial,
    verify_generalized,
    verify_lemma,
    verify_tepper,
    verify_via_expansion,
    wilson_primality,
)
from tepperlab import cli
from tepperlab.identities import NUMERIC, SYMBOLIC, random_polynomial, sweep_conjecture
from tepperlab.numtheory import is_prime_trial


def _report(number: int, name: str, elapsed: float | None = None, budget: float | None = None):
    timing = f" ({elapsed:.3f}s < {budget}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{timing}")


def _random_x(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-999, 999), rng.randint(1, 99))


def test_criterion_01_intro_instance(capsys):
    # third-row instance: the symbolic sum for n=3 is the constant 6, fast
    code = cli.main(["tepper", "--n", "3", "--mode", "symbolic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "computed=6 claimed=6" in out

    report = verify_tepper(3, mode=SYMBOLIC)
    assert report.witness == Polynomial.constant(6)
    elapsed = min(
        _timed(lambda: verify_tepper(3, mode=SYMBOLIC)) for _ in range(5)
    )
    assert elapsed < 0.001, f"symbolic n=3 verification took {elapsed:.6f}s"
    with capsys.disabled():
        _report(1, "intro instance n=3", elapsed, 0.001)


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_02_tepper_sweep(capsys):
    rng = random.Random(20)
    start = time.perf_counter()
    for n in range(51):
        symbolic = verify_tepper(n, mode=SYMBOLIC)
        assert symbolic.passed, n
        assert symbolic.witness == Polynomial.constant(factorial(n))
        for _ in range(10):
            numeric = verify_tepper(n, _random_x(rng), NUMERIC)
            assert numeric.passed, n
            assert numeric.computed == factorial(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(2, "symbolic n<=50 plus numeric at 10 random x", elapsed, 10.0)


def test_criterion_03_lemma_vanishing(capsys):
    rng = random.Random(30)
    start = time.perf_counter()
    for n in range(1, 13):
        for _ in range(100):
            degree = rng.randint(0, n - 1)
            p = random_polynomial(rng, degree)
            report = verify_lemma(p, n, mode=SYMBOLIC)
            assert report.passed and report.witness == Polynomial.zero(), (n, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        _report(3, "lemma vanishes for 100 random polynomials per n<=12", elapsed, 30.0)


def test_criterion_04_generalized_theorem(capsys):
    rng = random.Random(40)
    for _ in range(500):
        degree = rng.randint(0, 12)
        p = random_polynomial(rng, degree)
        expected = Polynomial.constant(p.leading_coefficient * factorial(degree))
        symbolic = verify_generalized(p, mode=SYMBOLIC)
        assert symbolic.passed and symbolic.computed == expected
        numeric = verify_generalized(p, _random_x(rng), NUMERIC)
        assert numeric.passed and numeric.computed == expected.evaluate(0)
    with capsys.disabled():
        _report(4, "generalized identity on 500 random polynomials, both modes")


def test_criterion_05_conjecture_sweep(capsys):
    start = time.perf_counter()
    reports = sweep_conjecture(max_degree=12, max_step=8, trials=10, seed=cli.DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    assert len(reports) == 960
    assert all(r.passed for r in reports)
    assert elapsed < 60.0

    code = cli.main(["sweep", "--max-degree", "12", "--max-step", "8", "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "sweep: total=960 passed=960 failed=0 input-errors=0"
    with capsys.disabled():
        _report(5, "step-l sweep, 960 symbolic instances", elapsed, 60.0)


def test_criterion_06_dual_path_oracle(capsys):
    rng = random.Random(60)
    for _ in range(1000):
        p = random_polynomial(rng, rng.randint(0, 10))
        params = DifferenceParams(order=rng.randint(0, 10), step=rng.randint(1, 5))
        assert iterated_difference(p, params) == alternating_sum_symbolic(p, params)
    with capsys.disabled():
        _report(6, "operator iteration equals direct summation on 1000 instances")


def test_criterion_07_occupancy(capsys):
    start = time.perf_counter()
    for n in range(7):
        for p in range(7):
            for r in range(n + 1):
                params = OccupancyParams(n, p, r)
                assert exact_occupancy_count(params) == brute_force_occupancy(params)
    for n in range(9):
        for p in range(9):
            total = sum(exact_occupancy_count(OccupancyParams(n, p, r)) for r in range(n + 1))
            assert total == n**p
    for n in range(9):
        assert exact_occupancy_count(OccupancyParams(n, n, n)) == factorial(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(7, "occupancy closed form vs enumeration, partition, diagonal", elapsed, 10.0)


def test_criterion_08_power_sums(capsys):
    for n in range(2, 31):
        for p in range(1, n):
            assert alternating_power_sum(n, p) == 0
    for p in range(1, 21):
        assert alternating_power_sum(p, p) == (-1) ** (p - 1) * factorial(p)
    with capsys.disabled():
        _report(8, "power sums vanish below the diagonal, signed factorial on it")


def test_criterion_09_wilson(capsys):
    start = time.perf_counter()
    primes = [p for p in range(2, 201) if is_prime_trial(p)]
    for p in primes:
        naive = factorial_mod_naive(p - 1, p)
        tepper = factorial_mod_tepper(p)
        fermat = factorial_mod_fermat_route(p)
        assert naive == tepper.computed_residue == fermat.computed_residue == p - 1
        assert tepper.passed and fermat.passed
    for n in range(2, 2001):
        assert wilson_primality(n) == is_prime_trial(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    with capsys.disabled():
        _report(9, "three factorial routes agree; Wilson matches trial division", elapsed, 20.0)


def test_criterion_10_expansion_path(capsys):
    rng = random.Random(100)
    for n in range(21):
        for _ in range(5):
            report = verify_via_expansion(n, _random_x(rng))
            assert report.passed, n
            inner = json.loads(report.parameters.split("inner=")[1])
            assert inner[0] == factorial(n)
            assert all(v == 0 for v in inner[1:])
    with capsys.disabled():
        _report(10, "expansion route inner sums match for n<=20")


def test_criterion_11_parser_round_trip(capsys):
    rng = random.Random(110)
    for _ in range(1000):
        p = random_polynomial(rng, rng.randint(0, 9))
        assert parse_polynomial(render_polynomial(p)) == p
    assert parse_polynomial("x^3") == Polynomial.monomial(3)
    assert parse_polynomial("1/2*x^2 - x + 3").coefficients == (
        Fraction(3),
        Fraction(-1),
        Fraction(1, 2),
    )
    assert parse_polynomial("x + x") == Polynomial((0, 2))
    with capsys.disabled():
        _report(11, "parser round-trips 1000 random polynomials plus documented examples")


def test_criterion_12_sweep_determinism(capsys):
    argv = ["sweep", "--max-degree", "4", "--max-step", "3", "--trials", "5",
            "--seed", "77", "--format", "json"]
    code_a = cli.main(argv)
    out_a = capsys.readouterr().out
    code_b = cli.main(argv)
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a.encode() == out_b.encode()
    with capsys.disabled():
        _report(12, "same-seed sweeps emit byte-identical JSON")
