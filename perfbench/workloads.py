"""The benchmark's three workloads: seeded item lists with checked outputs.

An item is a callable that calls tepperlab's public functions, checks every
result against values the benchmark computes itself, and returns an
``Outcome``; a failed check raises ``CheckFailed``.  Expected values are
computed while the list is built, outside the timed region.  The mix of item
kinds and sizes is fixed per workload; the seed draws the polynomials,
points, primes and arguments, and the order of the items.

The caller must put tepperlab's ``src`` directory on ``sys.path`` first.
Library functions are called through their modules (``tl.verify_tepper``,
not a name imported here), so the tracer's patches see these calls.
"""
from __future__ import annotations

import functools
import io
import json
import math
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import tepperlab as tl
from tepperlab import cli, numtheory


class CheckFailed(Exception):
    """An output of tepperlab differs from the value the benchmark expects."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Outcome:
    """What an item reports besides pass or fail."""

    stdout: str = ""
    # (degree, seconds) of a verify_conjecture call, for the growth curve.
    symbolic: tuple[int, float] | None = None
    coeff_bits: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    make_items: Callable[[random.Random], list[Callable[[], Outcome]]]
    # At least this many passes over the item list run, whatever --seconds
    # says; the tail percentile is chosen from the sample count this
    # guarantees, so it is the same on every run.
    min_passes: int
    # Traced spans that must record calls on this workload; a zero means a
    # wrapper missed a binding.
    layers: frozenset[str]
    # calibration.REFERENCES entry in the same mix of work as the items.
    reference: str


# ---------------------------------------------------------------- helpers


def _random_coefficients(rng: random.Random, degree: int, bound: int) -> tuple[Fraction, ...]:
    """Numerators in [-bound, bound], denominators in [1, 9], lowest degree first."""
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 9)) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-bound, bound)
    return tuple(coeffs) + (Fraction(lead, rng.randint(1, 9)),)


def _random_point(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 9))


def _stirling2(items: int, blocks: int) -> int:
    """S(items, blocks) from the sum formula, not tepperlab's recurrence."""
    return sum((-1) ** (blocks - j) * math.comb(blocks, j) * j**items for j in range(blocks + 1)) // math.factorial(blocks)


def _power_sum(n: int, p: int) -> int:
    """C(n,1) 1^p - C(n,2) 2^p + ... = (-1)^(n+1) n! S(p, n) for p >= 1."""
    return (-1) ** (n + 1) * math.factorial(n) * _stirling2(p, n)


def _occupancy(wagons: int, passengers: int, occupied: int) -> int:
    return math.comb(wagons, occupied) * math.factorial(occupied) * _stirling2(passengers, occupied)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _prime_in(rng: random.Random, low: int, high: int) -> int:
    return rng.choice([n for n in range(low, high + 1) if _is_prime(n)])


# ------------------------------------------------------- symbolic_highdeg

# (degree, proofs per pass): the growth curve.  One degree-100 proof takes
# about as long as all the smaller ones together.  The counts put the median
# item well inside the degree-25 proofs and p75 in the middle of the
# degree-50 proofs, whose cost varies from one polynomial to the next.
SYMBOLIC_SLOTS = ((25, 12), (50, 6), (100, 1))
# Step l of each slot at a degree, in order; None is verify_tepper on x^n.
# Fixed so that every seed runs the same mix of steps.
SLOT_STEPS = (3, 5, 2, 4, 1, None)


def _symbolic_items(rng: random.Random) -> list[Callable[[], Outcome]]:
    items = []
    for degree, count in SYMBOLIC_SLOTS:
        for slot in range(count):
            step = SLOT_STEPS[slot % len(SLOT_STEPS)]
            coeffs = None if step is None else _random_coefficients(rng, degree, 99)
            lead = Fraction(1) if coeffs is None else coeffs[-1]
            expected = lead * (step or 1) ** degree * math.factorial(degree)
            point = _random_point(rng, 99)
            items.append(functools.partial(_symbolic_proof, degree, step, coeffs, point, expected))
    rng.shuffle(items)
    return items


def _symbolic_proof(degree: int, step: int | None, coeffs, point: Fraction, expected: Fraction) -> Outcome:
    start = time.perf_counter()
    if step is None:
        report = tl.verify_tepper(degree)
    else:
        p = tl.Polynomial(coeffs)
        report = tl.verify_conjecture(p, step)
    symbolic_s = time.perf_counter() - start
    if step is None:
        p, step = tl.Polynomial.monomial(degree), 1
    label = f"degree={degree} l={step}"
    _check(report.passed, f"report failed: {label}")
    _check(report.witness is not None and report.witness.coefficients == (expected,), f"witness is not a_n l^n n!: {label}")
    params = tl.DifferenceParams(degree, step)
    _check(tl.iterated_difference(p, params) == report.witness, f"symbolic and iterated results differ: {label}")
    _check(tl.alternating_sum_numeric(p, params, point) == expected, f"numeric sum differs from a_n l^n n!: {label} x={point}")
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in report.witness.coefficients)
    growth = (degree, symbolic_s) if report.identity_name == "conjecture_step_l" else None
    return Outcome(symbolic=growth, coeff_bits=bits)


# ----------------------------------------------------------------- cli_mix


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    code: int  # expected exit status
    # Expected (claimed, computed) per output row, in order; a None entry
    # checks only that the row passed with claimed == computed.
    rows: tuple = ()


def _poly_text(coeffs: tuple[Fraction, ...]) -> str:
    """Write a polynomial in the CLI grammar, highest power first."""
    text = ""
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        var = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
        magnitude = abs(c)
        body = str(magnitude) if not var else (var if magnitude == 1 else f"{magnitude}*{var}")
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += f" {'-' if c < 0 else '+'} {body}"
    return text


def _x_args(rng: random.Random) -> tuple[str, ...]:
    """Half the requests take a point, written --x=a/b like --poly=...:
    as two words, argparse reads a negative '-a/b' as an option and exits 2."""
    return () if rng.random() < 0.5 else (f"--x={_random_point(rng, 9)}",)


def _same(value) -> tuple:
    return ((str(value), str(value)),)


def _req_tepper(rng):
    n = rng.randint(0, 6)
    return Request(("tepper", "--n", str(n)) + _x_args(rng), 0, _same(math.factorial(n)))


def _req_lemma(rng):
    degree = rng.randint(0, 5)
    n = rng.randint(degree + 1, 7)
    poly = _poly_text(_random_coefficients(rng, degree, 9))
    return Request(("lemma", f"--poly={poly}", "--n", str(n)) + _x_args(rng), 0, _same(0))


def _req_general(rng):
    coeffs = _random_coefficients(rng, rng.randint(1, 6), 9)
    expected = coeffs[-1] * math.factorial(len(coeffs) - 1)
    return Request(("general", f"--poly={_poly_text(coeffs)}") + _x_args(rng), 0, _same(expected))


def _req_conjecture(rng):
    coeffs = _random_coefficients(rng, rng.randint(1, 6), 9)
    step = rng.randint(1, 5)
    n = len(coeffs) - 1
    expected = coeffs[-1] * step**n * math.factorial(n)
    return Request(("conjecture", f"--poly={_poly_text(coeffs)}", "--l", str(step)) + _x_args(rng), 0, _same(expected))


def _req_sweep(rng):
    argv = ("sweep", "--max-degree", "4", "--max-step", "3", "--trials", "1", "--seed", str(rng.randint(0, 10**6)))
    return Request(argv, 0, (None,) * 12)


def _req_expansion(rng):
    n = rng.randint(0, 8)
    return Request(("expansion", "--n", str(n)) + _x_args(rng), 0, _same(math.factorial(n)))


def _req_occupancy(rng):
    wagons = rng.randint(1, 4)
    passengers, occupied = rng.randint(0, 5), rng.randint(0, wagons)
    argv = ("occupancy", "--wagons", str(wagons), "--passengers", str(passengers), "--occupied", str(occupied))
    if rng.random() < 0.5:
        argv += ("--oracle",)
    return Request(argv, 0, _same(_occupancy(wagons, passengers, occupied)))


def _req_powersum(rng):
    n, p = rng.randint(0, 8), rng.randint(1, 10)
    value = _power_sum(n, p)
    return Request(("powersum", "--n", str(n), "--p", str(p)), 0, ((None if p > n else str(value), str(value)),))


def _req_wilson(rng):
    if rng.random() < 0.3:
        upto = rng.randint(10, 40)
        rows = tuple(2 * (("prime" if _is_prime(n) else "composite"),) for n in range(2, upto + 1))
        return Request(("wilson", "--upto", str(upto)), 0, rows)
    p = rng.randint(2, 200)
    if _is_prime(p):
        return Request(("wilson", "--p", str(p), "--route", rng.choice(("naive", "tepper", "fermat"))), 0, _same(p - 1))
    route = rng.choice(("naive", "tepper"))
    residue = math.factorial(p - 1) * (1 if route == "naive" else (-1) ** (p - 1)) % p
    return Request(("wilson", "--p", str(p), "--route", route), 1, ((str(p - 1), str(residue)),))


def _req_input_error(rng):
    degree = rng.randint(1, 5)
    poly = _poly_text(_random_coefficients(rng, degree, 9))
    composite = rng.choice([n for n in range(4, 200) if not _is_prime(n)])
    argv = rng.choice(
        (
            ("lemma", f"--poly={poly}", "--n", str(rng.randint(0, degree))),
            ("general", f"--poly={rng.randint(1, 9)}.5*x"),
            ("general", "--poly=x^^2"),
            ("conjecture", f"--poly={poly} +", "--l", "2"),
            ("conjecture", f"--poly={poly}", "--l", "0"),
            ("general", "--poly=0"),
            ("tepper", "--n", str(-rng.randint(1, 9))),
            ("wilson", "--p", str(composite), "--route", "fermat"),
            ("wilson",),
            ("occupancy", "--wagons", "2", "--passengers", "3", "--occupied", "3"),
            ("frobnicate",),
        )
    )
    return Request(argv, 2)


def _req_budget(rng):
    wagons, passengers = rng.randint(3, 5), rng.randint(5, 7)
    argv = ("occupancy", "--wagons", str(wagons), "--passengers", str(passengers), "--occupied", "2", "--oracle")
    return Request(argv + ("--budget", str(rng.randint(1, wagons**passengers - 1))), 3)


# (request maker, requests per pass); half of each kind asks for JSON.  The
# sweeps are the costliest requests, and there are 8 of 400, so p99 (the top
# 4 in a pass) falls in the middle of them.
CLI_MIX = (
    (_req_tepper, 52),
    (_req_lemma, 40),
    (_req_general, 40),
    (_req_conjecture, 60),
    (_req_sweep, 8),
    (_req_expansion, 30),
    (_req_occupancy, 40),
    (_req_powersum, 40),
    (_req_wilson, 50),
    (_req_input_error, 30),
    (_req_budget, 10),
)

_IDENTITY_LINE = re.compile(r"(PASS|FAIL) .* computed=(\S+) claimed=(\S+)")
_OCCUPANCY_LINE = re.compile(r"(PASS|FAIL) occupancy .* closed_form=(\S+) oracle=(\S+) \S+")
_SWEEP_LINE = re.compile(r"sweep: total=(\d+) passed=(\d+) failed=0 input-errors=0")


def _rows(stdout: str, json_mode: bool) -> list[tuple[bool, str | None, str | None]]:
    """(passed, claimed, computed) for each report row of the output."""
    rows = []
    for line in stdout.splitlines():
        if json_mode:
            obj = json.loads(line)
            rows.append((obj["passed"], obj["claimed"], obj["computed"]))
        elif m := _OCCUPANCY_LINE.fullmatch(line):
            closed, oracle = m.group(2), m.group(3)
            rows.append((m.group(1) == "PASS", closed, closed if oracle == "skipped" else oracle))
        elif m := _IDENTITY_LINE.fullmatch(line):
            claimed = None if m.group(3) == "None" else m.group(3)
            rows.append((m.group(1) == "PASS", claimed, m.group(2)))
        elif m := _SWEEP_LINE.fullmatch(line):
            _check(int(m.group(1)) == int(m.group(2)) == len(rows), f"sweep summary disagrees with its rows: {line}")
        else:
            raise CheckFailed(f"unrecognised output line: {line!r}")
    return rows


def _cli_items(rng: random.Random) -> list[Callable[[], Outcome]]:
    requests = []
    for make, count in CLI_MIX:
        for index in range(count):
            request = make(rng)
            if index % 2:
                request = Request(request.argv + ("--format", "json"), request.code, request.rows)
            requests.append(request)
    rng.shuffle(requests)
    return [functools.partial(_cli_request, request) for request in requests]


def _cli_request(request: Request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(request.argv))
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
    stdout, label = out.getvalue(), " ".join(request.argv)
    _check(code == request.code, f"exit {code}, expected {request.code}: {label}")
    if request.code >= 2:
        _check(stdout == "", f"output on a rejected request: {label}")
        return Outcome(stdout=stdout)
    rows = _rows(stdout, "--format" in request.argv)
    _check(len(rows) == len(request.rows), f"{len(rows)} rows, expected {len(request.rows)}: {label}")
    _check(all(passed for passed, _, _ in rows) == (code == 0), f"pass flags disagree with exit {code}: {label}")
    for (passed, claimed, computed), expected in zip(rows, request.rows):
        if expected is None:
            _check(passed and claimed == computed, f"claimed {claimed} != computed {computed}: {label}")
        else:
            _check((claimed, computed) == expected, f"(claimed, computed) = {(claimed, computed)}, expected {expected}: {label}")
    return Outcome(stdout=stdout)


# -------------------------------------------------------- modular_counting

# Prime windows [low, high]: the Tepper route costs about p^3 bit operations,
# so narrow windows keep the cost of each slot alike across seeds.
PRIME_WINDOWS = ((480, 500), (980, 1000), (1480, 1500), (1980, 2000))
WILSON_CHUNKS, WILSON_CHUNK = 8, 25
POWER_SUM_ROWS = 8
# (wagons, passengers) per oracle check; the seed picks the occupied count.
OCCUPANCY_SLOTS = ((7, 7), (6, 6), (6, 6), (5, 6), (4, 7))


def _modular_items(rng: random.Random) -> list[Callable[[], Outcome]]:
    items = [functools.partial(_wilson_routes, _prime_in(rng, low, high)) for low, high in PRIME_WINDOWS]
    for _ in range(WILSON_CHUNKS):
        start = rng.randint(2000, 2100)
        numbers = range(start, start + WILSON_CHUNK)
        items.append(functools.partial(_wilson_range, numbers, tuple(_is_prime(n) for n in numbers)))
    for _ in range(POWER_SUM_ROWS):
        n = rng.randint(4, 40)
        items.append(functools.partial(_power_sum_row, n, tuple(_power_sum(n, p) for p in range(1, n + 6))))
    for wagons, passengers in OCCUPANCY_SLOTS:
        occupied = rng.randint(1, wagons)
        items.append(functools.partial(_occupancy_check, wagons, passengers, occupied, _occupancy(wagons, passengers, occupied)))
    rng.shuffle(items)
    return items


def _wilson_routes(p: int) -> Outcome:
    checks = (numtheory.factorial_mod_naive_check(p), tl.factorial_mod_tepper(p), tl.factorial_mod_fermat_route(p))
    residues = [check.computed_residue for check in checks]
    _check(all(check.passed for check in checks) and residues == [p - 1] * 3, f"Wilson routes disagree at p={p}: {residues}")
    _check(tl.wilson_primality(p), f"wilson_primality({p}) is False")
    return Outcome()


def _wilson_range(numbers: range, primes: tuple[bool, ...]) -> Outcome:
    for n, prime in zip(numbers, primes):
        _check(tl.wilson_primality(n) == prime, f"wilson_primality({n}) != {prime}")
    return Outcome()


def _power_sum_row(n: int, values: tuple[int, ...]) -> Outcome:
    for p, value in enumerate(values, start=1):
        report = tl.classify_power_sum(n, p)
        claimed = None if p > n else Fraction(value)
        _check(report.passed and report.computed == value and report.claimed == claimed, f"power sum n={n} p={p}")
    return Outcome()


def _occupancy_check(wagons: int, passengers: int, occupied: int, expected: int) -> Outcome:
    params = tl.OccupancyParams(wagons, passengers, occupied)
    closed, oracle = tl.exact_occupancy_count(params), tl.brute_force_occupancy(params)
    _check(closed == oracle == expected, f"occupancy {wagons}^{passengers} r={occupied}: closed form {closed}, oracle {oracle}, expected {expected}")
    return Outcome()


# ------------------------------------------------------------------ table

_KERNEL = {"poly.construct", "poly.shift", "poly.evaluate", "poly.arith", "exact.binomial"}
_DIFFCALC = {"diffcalc.symbolic", "diffcalc.iterated", "diffcalc.numeric"}
_NUMTHEORY = {"numtheory.naive_route", "numtheory.tepper_route", "numtheory.fermat_route"}
_OCCUPANCY = {"occupancy.closed_form", "occupancy.oracle", "occupancy.power_sum"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symbolic_highdeg",
            _symbolic_items,
            4,
            frozenset(_KERNEL | _DIFFCALC | {"identities.verify", "parser.render"}),
            "fraction",
        ),
        Workload(
            "cli_mix",
            _cli_items,
            4,
            frozenset(
                _KERNEL | _NUMTHEORY | _OCCUPANCY
                | {"diffcalc.symbolic", "diffcalc.numeric", "identities.verify", "identities.sweep", "parser.parse", "parser.render", "cli.build_parser", "cli.main"}
            ),
            "argparse",
        ),
        Workload(
            "modular_counting",
            _modular_items,
            6,
            frozenset(_NUMTHEORY | _OCCUPANCY | {"exact.binomial", "identities.verify", "numtheory.wilson"}),
            "bigint",
        ),
    )
}
