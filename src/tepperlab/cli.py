"""Command-line interface: every verifier, the occupancy counter, the
power-sum classifier, and the Wilson routes, with text or JSON output.

Exit codes: 0 when every emitted report passed, 1 when some check failed,
2 on input or usage errors, 3 when the work is priced beyond the budget
(``--budget``, else ``$TEPPERLAB_BUDGET``, else ``errors.DEFAULT_BUDGET``),
4 on an internal error (a broken invariant, never the input's fault), with
an ``INTERNAL-ERROR <type>: <message>`` line on stderr.

Exact values are rendered in full at any size.

JSON mode writes one object per report to stdout (machine-readable stream);
diagnostics and the sweep summary go to stderr.  Identical configurations,
including the seed, produce byte-identical stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from . import identities, numtheory, occupancy
from .errors import DEFAULT_BUDGET, BudgetExceededError, InputError
from .identities import IDENTITY_NAMES, IdentityReport
from .parser import _render_rational, parse_polynomial, render_polynomial
from .poly import Polynomial

DEFAULT_SEED = 0
BUDGET_ENV_VAR = "TEPPERLAB_BUDGET"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = 1

# The longest --x or --poly text, Linux's limit on one program argument: both
# convert digits to int in time quadratic in their length.
MAX_ARGUMENT_CHARS = 2**17

TEXT = "text"
JSON = "json"


@dataclass(frozen=True)
class ReportRow:
    """A library report to print: its values are rendered only when a line is built."""

    report: IdentityReport
    values: str | None = None  # the text line's custom tail, else "computed=... claimed=..."

    def text_line(self) -> str:
        r = self.report
        values = self.values or f"computed={_render_value(r.computed)} claimed={_render_value(r.claimed)}"
        return f"{'PASS' if r.passed else 'FAIL'} {r.identity_name} {r.parameters} {values}"

    def json_object(self) -> dict:
        r = self.report
        obj = {
            "schema_version": SCHEMA_VERSION,
            "identity_name" if r.identity_name in IDENTITY_NAMES else "command": r.identity_name,
            "parameters": r.parameters,
            "claimed": _render_value(r.claimed),
            "computed": _render_value(r.computed),
            "passed": r.passed,
        }
        if r.witness is not None:
            obj["witness"] = _render_value(r.witness)
        return obj


def _render_value(value) -> str | None:
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Polynomial):
        return render_polynomial(value)
    return _render_rational(value)


def _check_length(text: str, what: str) -> str:
    if len(text) > MAX_ARGUMENT_CHARS:
        raise argparse.ArgumentTypeError(f"{what} takes at most {MAX_ARGUMENT_CHARS} characters, not {len(text)}")
    return text


def _polynomial_text(text: str) -> str:
    # Refused before parse_polynomial sees it: a coefficient of 2^17 digits already takes seconds.
    return _check_length(text, "a polynomial")


def _quoted(text: str) -> str:
    """A rejected argument for an error message: one longer than 40 characters by its first 20 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def _rational(text: str) -> Fraction:
    # Decimal reads digits past CPython's int/str limit, but converts them to int
    # in quadratic time, about a minute at 10^6 digits.
    _check_length(text, "an exact rational")
    # A sign and ASCII digits, then a nonzero /denominator or a decimal point: no exponent, nan or inf.
    if not re.fullmatch(r"[-+]?([0-9]+(/0*[1-9][0-9]*|\.[0-9]*)?|\.[0-9]+)", text):
        raise argparse.ArgumentTypeError(f"{_quoted(text)} is not an exact rational (use 'num/den' or an integer)")
    numerator, _, denominator = text.partition("/")
    return Fraction(Decimal(numerator)) / int(Decimal(denominator or 1))


def _integer(text: str, minimum: int | None = None) -> int:
    """An integer option: a sign and ASCII digits, no more than int() converts, at least ``minimum``."""
    # int() alone would also read "٣" and " 1_0 ", and past the digit limit argparse would echo the whole text.
    if not re.fullmatch(r"[-+]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"{_quoted(text)} is not an integer (a sign and ASCII digits)")
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_quoted(text)} exceeds the int/str digit limit") from None
    if minimum is not None and value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}")
    return value


def _nonnegative(text: str) -> int:
    return _integer(text, 0)


def _positive(text: str) -> int:
    return _integer(text, 1)


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = _integer(raw)
    except argparse.ArgumentTypeError:
        raise InputError(f"{BUDGET_ENV_VAR} must be an integer, not {raw!r}") from None
    if budget < 1:
        raise InputError(f"{BUDGET_ENV_VAR} must be >= 1, not {budget}")
    return budget


def _step_sum(verify, options: argparse.Namespace, *args) -> list[ReportRow]:
    """``verify(*args, x, mode, budget)``: symbolic at x = 0 by default; an explicit --x without --mode asks for a
    pointwise check, so numeric wins there."""
    x, mode = (Fraction(0), identities.SYMBOLIC) if options.x is None else (options.x, identities.NUMERIC)
    return [ReportRow(verify(*args, x, options.mode or mode, options.budget))]


def _cmd_tepper(options: argparse.Namespace) -> list[ReportRow]:
    return _step_sum(identities.verify_tepper, options, options.n)


def _cmd_lemma(options: argparse.Namespace) -> list[ReportRow]:
    return _step_sum(identities.verify_lemma, options, parse_polynomial(options.poly), options.n)


def _cmd_general(options: argparse.Namespace) -> list[ReportRow]:
    return _step_sum(identities.verify_generalized, options, parse_polynomial(options.poly))


def _cmd_conjecture(options: argparse.Namespace) -> list[ReportRow]:
    return _step_sum(identities.verify_conjecture, options, parse_polynomial(options.poly), options.l)


def _cmd_expansion(options: argparse.Namespace) -> list[ReportRow]:
    return [ReportRow(identities.verify_via_expansion(options.n, options.x, options.budget))]


def _cmd_sweep(options: argparse.Namespace) -> list[ReportRow]:
    args = options.max_degree, options.max_step, options.trials, options.seed, options.budget
    return [ReportRow(r) for r in identities.sweep_conjecture(*args)]


def _cmd_powersum(options: argparse.Namespace) -> list[ReportRow]:
    return [ReportRow(identities.classify_power_sum(options.n, options.p, options.budget))]


def _cmd_occupancy(options: argparse.Namespace) -> list[ReportRow]:
    params = occupancy.OccupancyParams(options.wagons, options.passengers, options.occupied)
    report = identities.verify_occupancy(params, with_oracle=options.oracle, budget=options.budget)
    verdict = "agrees" if report.passed else "disagrees"
    oracle = f"{_render_value(report.computed)} {verdict}" if options.oracle else "skipped unchecked"
    return [ReportRow(report, f"closed_form={_render_value(report.claimed)} oracle={oracle}")]


def _cmd_wilson(options: argparse.Namespace) -> list[ReportRow]:
    if (options.p is None) == (options.upto is None):
        raise InputError("wilson requires exactly one of --p or --upto")
    if options.upto is None:
        return [ReportRow(identities.verify_wilson(options.p, options.route or "naive", options.budget))]
    if options.route is not None:
        raise InputError("wilson --route applies only with --p, not with --upto")
    return [ReportRow(r) for r in identities.verify_wilson_upto(options.upto, options.budget)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tepperlab",
        description="Exact verification of alternating binomial identities and their consequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=(TEXT, JSON), default=TEXT, help="output format")
    common.add_argument("--budget", type=_positive, help=f"work units (default {DEFAULT_BUDGET}, or ${BUDGET_ENV_VAR})")

    mode_parent = argparse.ArgumentParser(add_help=False)
    mode_parent.add_argument(
        "--mode",
        choices=(identities.NUMERIC, identities.SYMBOLIC),
        default=None,
        help="symbolic (default) proves the instance for all x; numeric checks at --x",
    )
    mode_parent.add_argument("--x", type=_rational, default=None, help="evaluation point (implies numeric mode)")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, parents, summary):
        subparser = sub.add_parser(name, parents=[common, *parents], help=summary)
        subparser.set_defaults(handler=handler)
        return subparser

    p_tepper = command("tepper", _cmd_tepper, [mode_parent], "verify the n! identity")
    p_tepper.add_argument("--n", type=_nonnegative, required=True)

    p_lemma = command("lemma", _cmd_lemma, [mode_parent], "verify the vanishing lemma (deg P < n)")
    p_lemma.add_argument(
        "--poly", type=_polynomial_text, required=True, help="polynomial expression, e.g. 'x^2 - 1/2*x + 3'"
    )
    p_lemma.add_argument("--n", type=_nonnegative, required=True)

    p_general = command("general", _cmd_general, [mode_parent], "verify the a_n * n! identity for any polynomial")
    p_general.add_argument("--poly", type=_polynomial_text, required=True)

    p_conj = command("conjecture", _cmd_conjecture, [mode_parent], "verify the step-l identity a_n * l^n * n!")
    p_conj.add_argument("--poly", type=_polynomial_text, required=True)
    p_conj.add_argument("--l", type=_positive, required=True, help="shift step, l >= 1")

    p_sweep = command("sweep", _cmd_sweep, [], "seeded campaign over degrees and steps")
    p_sweep.add_argument("--max-degree", type=_nonnegative, required=True)
    p_sweep.add_argument("--max-step", type=_positive, required=True)
    p_sweep.add_argument("--trials", type=_positive, required=True)
    p_sweep.add_argument("--seed", type=_integer, default=DEFAULT_SEED)

    p_exp = command("expansion", _cmd_expansion, [], "verify via binomial expansion and summation exchange")
    p_exp.add_argument("--n", type=_nonnegative, required=True)
    p_exp.add_argument("--x", type=_rational, default=Fraction(0))

    p_occ = command("occupancy", _cmd_occupancy, [], "count assignments occupying exactly r wagons")
    p_occ.add_argument("--wagons", type=_nonnegative, required=True)
    p_occ.add_argument("--passengers", type=_nonnegative, required=True)
    p_occ.add_argument("--occupied", type=_nonnegative, required=True)
    p_occ.add_argument("--oracle", action="store_true", help="cross-check by exhaustive enumeration")

    p_pow = command("powersum", _cmd_powersum, [], "signed binomial power sum with classification")
    p_pow.add_argument("--n", type=_nonnegative, required=True)
    p_pow.add_argument("--p", type=_positive, required=True)

    p_wilson = command("wilson", _cmd_wilson, [], "factorial congruence checks and primality")
    p_wilson.add_argument("--p", type=_positive, default=None, help="single modulus to check")
    p_wilson.add_argument("--upto", type=_positive, default=None, help="compare against trial division for 2..N")
    p_wilson.add_argument("--route", choices=numtheory.WILSON_ROUTES, default=None, help="route for --p (default naive)")

    return parser


def _emit(rows: Sequence[ReportRow], output_format: str, summary: str | None) -> int:
    # Every line is built before any is written, so a failure while rendering leaves stdout empty.
    if output_format == JSON:
        lines = [json.dumps(row.json_object(), separators=(",", ":")) for row in rows]
    else:
        lines = [row.text_line() for row in rows]
    for line in lines:
        print(line)
    if summary is not None:
        print(summary, file=sys.stderr if output_format == JSON else sys.stdout)
    return EXIT_OK if all(row.report.passed for row in rows) else EXIT_FAIL


def _attach_signed_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--x -3/1`` as ``--x=-3/1``, which argparse would read as two options.

    Only ``--x`` (a negative point) and ``--poly`` (a leading minus) take a
    value that may start with "-", and only a next token that starts with a
    single "-" is attached, so ``--poly`` with nothing or another ``--flag``
    after it still fails to parse.
    """
    args = list(argv)
    # From the end, so that joining two tokens never moves one still to be read.
    for i in range(len(args) - 1, 0, -1):
        if args[i - 1] in ("--x", "--poly") and args[i].startswith("-") and not args[i].startswith("--"):
            args[i - 1 : i + 1] = [f"{args[i - 1]}={args[i]}"]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    options = build_parser().parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        options.budget = options.budget or _default_budget()
        rows = options.handler(options)
        summary = None
        if options.command == "sweep":
            # Every refusal raises InputError, so no refused instance reaches here.
            passed = sum(1 for r in rows if r.report.passed)
            summary = f"sweep: total={len(rows)} passed={passed} failed={len(rows) - passed} input-errors=0"
        return _emit(rows, options.format, summary)
    except BudgetExceededError as exc:
        print(f"BUDGET-EXCEEDED {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"INPUT-ERROR {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"INTERNAL-ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
