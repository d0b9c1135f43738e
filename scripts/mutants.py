#!/usr/bin/env python3
"""Mutation check: each listed defect, planted in a copy of the tree, must fail the tests named for it.

Each entry of ``MUTANTS`` names a file under ``src/tepperlab/``, a text that
must occur in it exactly once, its replacement and the tests that must catch
it.  The script copies ``src/``, ``tests/``, ``scripts/`` and
``pyproject.toml`` into a temporary directory (the tests run from there, so
that pytest's ``pythonpath = src`` names the copy), first runs every named test on
the unchanged copy (they must pass there, or a kill would prove nothing), then
plants one mutant at a time and runs its tests with ``-x``.  It prints one line
per mutant and exits 1 if any mutant survives or any text is not found exactly
once.  It uses the standard library only, besides the pytest that the tests
need.

Usage: python scripts/mutants.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "pyproject.toml")

BOUNDARIES = "tests/test_cli.py::test_each_price_admits_an_input_at_its_own_price_and_refuses_the_next"
ITERATED = "tests/test_diffcalc.py::test_iterated_route_at_benchmark_sizes_equals_reference"

# (file under src/tepperlab, exact text, replacement, tests that must fail)
MUTANTS = [
    # The symbolic sum's blocks: the m^i factor, the weights of each block, the final dilation, the invariant check.
    ("poly.py", "sums if powers is None else list(map(mul, sums, powers))", "sums", ["tests/test_diffcalc.py"]),
    ("diffcalc.py", "weights[q : q + m]", "weights[q + 1 : q + m + 1]", ["tests/test_diffcalc.py"]),
    ("diffcalc.py", "Fraction(1, params.step * base)", "Fraction(1, params.step)", ["tests/test_diffcalc.py"]),
    (
        "poly.py",
        'raise AssertionError("the terms of a weighted sum must share one denominator")',
        "pass",
        ["tests/test_poly.py::test_weighted_sum_over_unequal_denominators_is_an_internal_error"],
    ),
    # The sign of the weights, the row's centre check, the claimed value's step power, and the budget's boundary.
    ("exact.py", "row[1::2] = [-c for c in row[1::2]]", "row[1::2] = [c for c in row[1::2]]", ["tests/test_exact.py"]),
    ("exact.py", "if row[-1] != binomial(n, n // 2):", "if False:",
     ["tests/test_cli.py::test_a_wrong_central_binomial_is_an_internal_error"]),
    ("identities.py", "claimed = a * step**order * factorial(order)", "claimed = a * step * factorial(order)",
     ["tests/test_identities.py"]),
    ("errors.py", "if cost > budget:", "if cost >= budget:", [BOUNDARIES]),
    # The iterated route's value table: the sample window moved by one, the difference taken the wrong way round
    # (at order = degree only odd orders show it), a wrong Newton weight e!/k!, the zero past the degree taken at it.
    ("poly.py", "range(-order, n - order + 1)", "range(1 - order, n - order + 2)", [ITERATED]),
    ("poly.py", "map(sub, values[1:], values)", "map(sub, values, values[1:])", [ITERATED]),
    ("poly.py", "weight *= k + 1", "weight *= k + 2", [ITERATED]),
    ("poly.py", "if order > n:", "if order >= n:", [ITERATED]),
    # The numeric route and the renderer on integer numerators: the spacing of the route's integer points, the
    # Horner step at an int point, the sign of a later term.
    ("diffcalc.py", "u - params.step * v * k", "u - params.step * k", ["tests/test_diffcalc.py"]),
    ("poly.py", "result = result * point + m", "result = result * point - m", ["tests/test_poly.py"]),
    ("parser.py", 'f"+ {body}" if m > 0 else f"- {body}"', 'f"+ {body}"', ["tests/test_parser.py"]),
    # The strip of trailing zeros, one zero too few.
    ("poly.py", "coeffs = coeffs[:end]", "coeffs = coeffs[: end + 1]",
     ["tests/test_poly.py::test_trailing_zeros_are_stripped_in_one_slice"]),
    # The prices, each moved without admitting anything large: the row dropped from the symbolic sum, the bits of x
    # and of l ignored, and the oracle's tail pipeline summed with its assignments instead of maxed.
    ("diffcalc.py", "return row_cost(n) + shifts", "return shifts", [BOUNDARIES]),
    ("diffcalc.py", "point.numerator.bit_length() + point.denominator.bit_length() + ", "", [BOUNDARIES]),
    ("diffcalc.py", "degree * (params.step.bit_length() + m.bit_length())", "degree * m.bit_length()", [BOUNDARIES]),
    ("occupancy.py", "max(n**p * width, 8 * n ** (p - p // 2)) + p", "n**p * width + 8 * n ** (p - p // 2) + p",
     [BOUNDARIES]),
]


def run_tests(tree: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=900)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tepperlab-mutants-") as temporary:
        tree = Path(temporary)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        texts = {name: (tree / "src" / "tepperlab" / name).read_text() for name, *_ in MUTANTS}
        missing = [(name, text) for name, text, *_ in MUTANTS if texts[name].count(text) != 1]
        if missing:
            for name, text in missing:
                print(f"NOT-FOUND {name}: {text!r} must occur exactly once")
            return 1
        every_test = list(dict.fromkeys(test for *_, tests in MUTANTS for test in tests))
        baseline = run_tests(tree, every_test)
        if baseline.returncode != 0:
            print(f"BASELINE-FAILS the named tests fail on the unchanged tree:\n{baseline.stdout[-3000:]}")
            return 1
        survivors = 0
        for name, text, replacement, tests in MUTANTS:
            path = tree / "src" / "tepperlab" / name
            path.write_text(texts[name].replace(text, replacement))
            start = time.perf_counter()
            result = run_tests(tree, tests)
            path.write_text(texts[name])
            failed = [line[len("FAILED "):].split(" - ")[0] for line in result.stdout.splitlines()
                      if line.startswith("FAILED ")]
            killed = result.returncode == 1 and failed
            survivors += not killed
            verdict = f"KILLED by {failed[0]}" if killed else f"SURVIVED (pytest exit {result.returncode})"
            print(f"{verdict} in {time.perf_counter() - start:.1f}s: {name}: {text!r} -> {replacement!r}", flush=True)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
