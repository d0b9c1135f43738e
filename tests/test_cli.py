"""CLI surface: text/JSON formats, exit codes, determinism, env overrides."""
import json
import math
import sys
import time
from fractions import Fraction

import pytest

from tepperlab import alternating_binomials, cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tepper_numeric_text_line(capsys):
    code, out, err = run_cli(capsys, "tepper", "--n", "3", "--x", "5")
    assert code == 0
    assert out == "PASS tepper n=3 x=5 computed=6 claimed=6\n"


def test_tepper_symbolic_reports_x_ignored(capsys):
    code, out, _ = run_cli(capsys, "tepper", "--n", "3", "--mode", "symbolic", "--x", "9")
    assert code == 0
    assert "x=ignored" in out and "computed=6" in out


def test_lemma_precondition_violation_exits_2(capsys):
    code, out, err = run_cli(capsys, "lemma", "--poly", "x^3", "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("INPUT-ERROR degree not less than n")


def test_lemma_pass(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--poly", "x^2 + 3*x + 1", "--n", "3")
    assert code == 0
    assert out.startswith("PASS lemma_vanishing")


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "general", "--poly", "x^")
    assert code == 2
    assert err.startswith("INPUT-ERROR")


def test_occupancy_oracle_line(capsys):
    code, out, _ = run_cli(
        capsys, "occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2", "--oracle"
    )
    assert code == 0
    assert "closed_form=6 oracle=6 agrees" in out


def test_occupancy_without_oracle(capsys):
    code, out, _ = run_cli(capsys, "occupancy", "--wagons", "4", "--passengers", "4", "--occupied", "4")
    assert code == 0
    assert "closed_form=24 oracle=skipped unchecked" in out


def test_occupancy_invalid_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "5")
    assert code == 2
    assert err.startswith("INPUT-ERROR")


def test_occupancy_budget_exhaustion_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "occupancy", "--wagons", "10", "--passengers", "9", "--occupied", "5",
        "--oracle", "--budget", "1000",
    )
    assert code == 3
    assert err.startswith("BUDGET-EXCEEDED")


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, "100")
    code, _, err = run_cli(
        capsys, "occupancy", "--wagons", "4", "--passengers", "5", "--occupied", "3", "--oracle"
    )
    assert code == 3
    # explicit --budget takes precedence over the environment
    code, out, _ = run_cli(
        capsys,
        "occupancy", "--wagons", "4", "--passengers", "5", "--occupied", "3",
        "--oracle", "--budget", "2000",
    )
    assert code == 0
    assert "agrees" in out


def test_budget_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, "lots")
    code, _, err = run_cli(
        capsys, "occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2", "--oracle"
    )
    assert code == 2
    assert err == f"INPUT-ERROR {cli.BUDGET_ENV_VAR} must be an integer, not 'lots'\n"


@pytest.mark.parametrize("raw", ["٣", " 1_0 "], ids=["arabic-indic-digit", "spaces-underscore"])
def test_budget_env_takes_a_sign_and_ascii_digits_only(capsys, monkeypatch, raw):
    # int() alone reads "٣" as 3 and " 1_0 " as 10; --budget refuses both, and so does the variable.
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, raw)
    code, out, err = run_cli(
        capsys, "occupancy", "--wagons", "2", "--passengers", "2", "--occupied", "2", "--oracle"
    )
    assert (code, out, err) == (2, "", f"INPUT-ERROR {cli.BUDGET_ENV_VAR} must be an integer, not {raw!r}\n")


_UNITS_OF_4 = "units, which exceeds the budget of 4\n"


def test_budget_env_is_read_by_every_command_without_the_flag(capsys, monkeypatch):
    # --budget wins over the variable, which is then not read; without the flag every subcommand reads it.
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, "lots")
    argv = ("occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2")
    code, out, err = run_cli(capsys, *argv, "--budget", "5")
    assert (code, err) == (0, "")
    assert out == "PASS occupancy wagons=3 passengers=2 occupied=2 closed_form=6 oracle=skipped unchecked\n"
    unread = f"INPUT-ERROR {cli.BUDGET_ENV_VAR} must be an integer, not 'lots'\n"
    for command in (argv, ("tepper", "--n", "3"), ("wilson", "--upto", "5"), ("powersum", "--n", "2", "--p", "2")):
        assert run_cli(capsys, *command) == (2, "", unread)
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, "4")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"BUDGET-EXCEEDED occupancy wagons=3 passengers=2 occupied=2 costs 5 {_UNITS_OF_4}"


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_budget_applies_without_the_oracle(capsys, output_format):
    # The closed form alone is priced: 5 units exceed a budget of 4 and fit one of 5.
    argv = ("occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2", "--format", output_format)
    code, out, err = run_cli(capsys, *argv, "--budget", "4")
    assert (code, out) == (3, "")
    assert err == f"BUDGET-EXCEEDED occupancy wagons=3 passengers=2 occupied=2 costs 5 {_UNITS_OF_4}"
    code, out, err = run_cli(capsys, *argv, "--budget", "5")
    assert (code, err) == (0, "")
    assert "6" in out


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_budget_env_must_be_positive(capsys, monkeypatch, raw):
    monkeypatch.setenv(cli.BUDGET_ENV_VAR, raw)
    code, _, err = run_cli(
        capsys, "occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2", "--oracle"
    )
    assert code == 2
    assert err.startswith("INPUT-ERROR")
    assert cli.BUDGET_ENV_VAR in err


def test_json_schema_fields(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--poly", "x^2", "--l", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"schema_version", "identity_name", "parameters", "claimed", "computed", "passed", "witness"}
    assert obj["schema_version"] == 1
    assert obj["identity_name"] == "conjecture_step_l"
    assert obj["claimed"] == obj["computed"] == obj["witness"] == "18"
    assert obj["passed"] is True


def test_json_numeric_mode_omits_witness(capsys):
    code, out, _ = run_cli(capsys, "tepper", "--n", "4", "--x", "1/2", "--format", "json")
    obj = json.loads(out)
    assert "witness" not in obj
    assert obj["claimed"] == obj["computed"] == "24"


def test_json_rationals_are_strings(capsys):
    code, out, _ = run_cli(capsys, "general", "--poly", "1/2*x^2", "--format", "json")
    obj = json.loads(out)
    assert obj["claimed"] == "1"  # (1/2) * 2!
    assert isinstance(obj["claimed"], str)


def test_command_reports_use_command_key(capsys):
    code, out, _ = run_cli(
        capsys, "occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2",
        "--oracle", "--format", "json",
    )
    obj = json.loads(out)
    assert obj["command"] == "occupancy"
    assert "identity_name" not in obj
    code, out, _ = run_cli(capsys, "wilson", "--p", "7", "--route", "tepper", "--format", "json")
    obj = json.loads(out)
    assert obj["command"] == "wilson"
    assert obj["computed"] == obj["claimed"] == "6"


def test_text_and_json_agree_on_pass_fail(capsys):
    configs = [
        ("tepper", "--n", "5"),
        ("general", "--poly", "5*x^2 - x + 9"),
        ("powersum", "--n", "4", "--p", "4"),
        ("wilson", "--p", "9", "--route", "naive"),
        ("wilson", "--p", "9", "--route", "tepper"),
        ("wilson", "--upto", "5"),
        ("occupancy", "--wagons", "4", "--passengers", "5", "--occupied", "3", "--oracle"),
        ("sweep", "--max-degree", "2", "--max-step", "2", "--trials", "2", "--seed", "3"),
    ]
    for argv in configs:
        text_code, text_out, _ = run_cli(capsys, *argv)
        json_code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert text_code == json_code
        text_passes = [line.startswith("PASS") for line in text_out.splitlines() if line and not line.startswith("sweep:")]
        json_passes = [json.loads(line)["passed"] for line in json_out.splitlines()]
        assert text_passes == [bool(v) for v in json_passes]


def test_sweep_summary_line_and_seed_default(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-degree", "2", "--max-step", "2", "--trials", "1")
    assert code == 0
    assert out.splitlines()[-1] == "sweep: total=4 passed=4 failed=0 input-errors=0"
    explicit_code, explicit_out, _ = run_cli(
        capsys, "sweep", "--max-degree", "2", "--max-step", "2", "--trials", "1", "--seed", str(cli.DEFAULT_SEED)
    )
    assert explicit_out == out


def test_sweep_json_is_deterministic_and_summary_on_stderr(capsys):
    argv = ("sweep", "--max-degree", "3", "--max-step", "2", "--trials", "2", "--seed", "11", "--format", "json")
    code_a, out_a, err_a = run_cli(capsys, *argv)
    code_b, out_b, err_b = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "sweep: total=12" in err_a
    for line in out_a.splitlines():
        json.loads(line)


def test_wilson_composite_naive_route_fails(capsys):
    code, out, _ = run_cli(capsys, "wilson", "--p", "9", "--route", "naive")
    assert code == 1
    assert out.startswith("FAIL wilson p=9")


def test_wilson_fermat_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "wilson", "--p", "9", "--route", "fermat")
    assert code == 2
    assert "not prime" in err


def test_wilson_upto_sweep(capsys):
    code, out, _ = run_cli(capsys, "wilson", "--upto", "50")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 49
    assert all(line.startswith("PASS") for line in lines)


def test_wilson_requires_exactly_one_selector(capsys):
    code, _, err = run_cli(capsys, "wilson")
    assert code == 2
    code, _, err = run_cli(capsys, "wilson", "--p", "5", "--upto", "10")
    assert code == 2


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_wilson_route_is_refused_with_upto(capsys, output_format):
    code, out, err = run_cli(capsys, "wilson", "--upto", "3", "--route", "tepper", "--format", output_format)
    assert (code, out) == (2, "")
    assert err == "INPUT-ERROR wilson --route applies only with --p, not with --upto\n"


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_wilson_upto_below_two_is_an_input_error(capsys, output_format):
    # The range 2..N is empty for N = 1, so the call would check nothing.
    code, out, err = run_cli(capsys, "wilson", "--upto", "1", "--format", output_format)
    assert (code, out) == (2, "")
    assert err == "INPUT-ERROR N = 1 checks nothing; the range 2..N needs N >= 2\n"


def test_wilson_limit_refusal(capsys):
    # The naive route costs a unit per modular product, so p = 10^7 + 1 is one past the default budget.
    code, out, err = run_cli(capsys, "wilson", "--p", "10000001")
    assert (code, out) == (3, "")
    assert err == (
        "BUDGET-EXCEEDED the naive route at p = 10000001 costs 10000001 units, which exceeds the budget of 10000000\n"
    )


def test_powersum_above_diagonal_is_unclassified(capsys):
    code, out, _ = run_cli(capsys, "powersum", "--n", "2", "--p", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "powersum"
    assert obj["claimed"] is None
    assert obj["passed"] is True


def test_expansion_command(capsys):
    code, out, _ = run_cli(capsys, "expansion", "--n", "2", "--x", "10")
    assert code == 0
    assert "inner=[2, 0, 0]" in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["tepper"])  # --n missing
    assert excinfo.value.code == 2


def test_rational_argument_validation():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["tepper", "--n", "3", "--x", "1/0"])
    assert excinfo.value.code == 2


def test_rational_argument_with_an_exponent_is_rejected_at_once(capsys):
    # Fraction("1e999999999") would build 10^999999999 before any guard runs.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["tepper", "--n", "2", "--x", "1e999999999"])
    assert time.perf_counter() - start < 1.0
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "is not an exact rational" in err


def test_plain_decimal_rational_argument_still_parses():
    assert cli._rational("0.5") == Fraction(1, 2)
    assert cli._rational(".5") == cli._rational("+0.50") == Fraction(1, 2)
    assert cli._rational("-5.") == Fraction(-5)
    assert cli._rational("-6/04") == Fraction(-3, 2)


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_non_ascii_digit_in_poly_is_an_input_error(capsys, output_format):
    code, out, err = run_cli(capsys, "general", "--poly", "x^\u00b2", "--format", output_format)
    assert (code, out) == (2, "")
    assert err.startswith("INPUT-ERROR")


def decimal_digits(n):
    """Decimal digits of n by repeated division by 10^9, without str(int) or Decimal."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= 10**9:
        n, r = divmod(n, 10**9)
        chunks.append(f"{r:09d}")
    return sign + f"{n}" + "".join(reversed(chunks))


# (-1)^(p-1) p! at p = 1700, and 1700 passengers filling 1700 wagons: both
# have 4,756 digits, past CPython's default 4300-digit limit on str(int).
BIG_FACTORIAL = math.factorial(1700)


def test_powersum_renders_every_digit_beyond_the_str_limit(capsys):
    digits = decimal_digits(-BIG_FACTORIAL)
    assert len(digits) > 4300
    code, out, err = run_cli(capsys, "powersum", "--n", "1700", "--p", "1700")
    assert (code, err) == (0, "")
    assert out == f"PASS power_sum_factorial n=1700 p=1700 computed={digits} claimed={digits}\n"
    code, out, err = run_cli(capsys, "powersum", "--n", "1700", "--p", "1700", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["claimed"] == obj["computed"] == digits
    assert obj["passed"] is True


def test_occupancy_renders_every_digit_beyond_the_str_limit(capsys):
    digits = decimal_digits(BIG_FACTORIAL)
    argv = ("occupancy", "--wagons", "1700", "--passengers", "1700", "--occupied", "1700")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (
        f"PASS occupancy wagons=1700 passengers=1700 occupied=1700 closed_form={digits} oracle=skipped unchecked\n"
    )
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["claimed"] == obj["computed"] == digits


def test_symbolic_witness_renders_a_coefficient_beyond_the_str_limit(capsys):
    big = 10**4400 + 7
    code, out, err = run_cli(capsys, "general", "--poly", f"{decimal_digits(big)}*x^2 + x", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["claimed"] == obj["computed"] == decimal_digits(2 * big)


def test_unexpected_exception_exits_4_with_internal_error_line(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli.identities, "verify_tepper", broken)
    code, out, err = run_cli(capsys, "tepper", "--n", "3")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "INTERNAL-ERROR RuntimeError: invariant broken\n"


def test_a_wrong_central_binomial_is_an_internal_error(capsys, monkeypatch):
    # pascal_row checks its recurrence against binomial(n, n // 2) once per row.
    monkeypatch.setattr("tepperlab.exact.binomial", lambda n, k: math.comb(n, k) + (k == n // 2))
    with pytest.raises(AssertionError):
        alternating_binomials(7)
    code, out, err = run_cli(capsys, "powersum", "--n", "7", "--p", "3")
    assert (code, out) == (4, "")
    assert err == "INTERNAL-ERROR AssertionError: pascal_row(7): the recurrence disagrees with binomial(7, 3)\n"


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_a_failure_while_rendering_leaves_stdout_empty(capsys, monkeypatch, output_format):
    # The sweep renders polynomials for every row; the 5th call falls past the first row.
    render_polynomial, calls = cli.render_polynomial, []

    def render_then_break(p):
        calls.append(p)
        if len(calls) == 5:
            raise RuntimeError("render broken")
        return render_polynomial(p)

    monkeypatch.setattr(cli, "render_polynomial", render_then_break)
    argv = ("sweep", "--max-degree", "2", "--max-step", "2", "--trials", "1", "--format", output_format)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "INTERNAL-ERROR RuntimeError: render broken\n"


def test_out_of_range_residue_is_an_internal_error_not_an_input_error(capsys, monkeypatch):
    # A route that forgot to reduce mod p breaks ModularCheck's invariant.
    monkeypatch.setattr(cli.numtheory, "factorial_mod_naive", lambda n, modulus: modulus + 3)
    code, out, err = run_cli(capsys, "wilson", "--p", "7")
    assert code == 4
    assert out == ""
    assert err.startswith("INTERNAL-ERROR AssertionError: ")
    assert "INPUT-ERROR" not in err


def test_budget_refusal_of_an_enumeration_beyond_the_str_limit_exits_3(capsys):
    # 3000^3000 has 10,432 digits; the refusal prices 3 units per assignment of a 3000-bit mask to Decimal's
    # 28 digits, without building 3000^3000, and the loops' 3000 units fall below the last of them.
    argv = ("occupancy", "--wagons", "3000", "--passengers", "3000", "--occupied", "2", "--oracle")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == ""
    assert err == (
        "BUDGET-EXCEEDED enumerating 3000^3000 assignments costs 6.932428734335727818079328293E+10431 units, "
        "which exceeds the budget of 10000000\n"
    )


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before 3.10.7")
def test_expansion_renders_inner_sums_beyond_the_str_limit(capsys):
    # 311! has 642 digits; 640 is the lowest limit CPython accepts.
    digits = decimal_digits(math.factorial(311))
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "expansion", "--n", "311")
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert (code, err) == (0, "")
    inner = ", ".join([digits] + ["0"] * 311)
    assert out == f"PASS tepper n=311 x=0 route=expansion inner=[{inner}] computed={digits} claimed={digits}\n"


def test_wilson_upto_limit_refusal(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "wilson", "--upto", "2000003")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "BUDGET-EXCEEDED the naive route for every n <= 2000003 costs 2000006000004 units, "
        "which exceeds the budget of 10000000\n"
    )


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize(
    "separate, attached",
    [
        (["tepper", "--n", "3", "--x", "-3/1"], ["tepper", "--n", "3", "--x=-3/1"]),
        (["general", "--poly", "-x^2"], ["general", "--poly=-x^2"]),
        (
            ["conjecture", "--poly", "-x^2 + 1/2", "--l", "2", "--x", "-7/3"],
            ["conjecture", "--poly=-x^2 + 1/2", "--l", "2", "--x=-7/3"],
        ),
        (["lemma", "--poly", "-x", "--n", "2", "--x", "-5"], ["lemma", "--poly=-x", "--n", "2", "--x=-5"]),
        (["expansion", "--n", "3", "--x", "-2"], ["expansion", "--n", "3", "--x=-2"]),
    ],
)
def test_separate_value_starting_with_dash_parses_like_the_equals_form(
    capsys, output_format, separate, attached
):
    flags = ["--format", output_format]
    expected = run_cli(capsys, *attached, *flags)
    assert expected[0] == 0
    assert run_cli(capsys, *separate, *flags) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["general", "--poly"],
        ["general", "--poly", "--format", "json"],
        ["tepper", "--n", "-3"],
        ["tepper", "--n", "3", "--x"],
    ],
)
def test_missing_or_negative_values_still_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("x", ["1" + "0" * 5000, "1/1" + "0" * 5000], ids=["integer", "fraction"])
def test_rational_argument_takes_digits_beyond_the_str_limit(capsys, x):
    code, out, err = run_cli(capsys, "tepper", "--n", "2", "--x", x)
    assert (code, err) == (0, "")
    assert out == f"PASS tepper n=2 x={x} computed=2 claimed=2\n"


@pytest.mark.parametrize(
    "x",
    [
        "nan", "inf", "Infinity", "-Infinity", "1e5", "1" + "0" * 5000 + "e1", "1" * 5000 + "/0",
        " 1", " 1" + "0" * 5000, "1_000", "\u0663", "1.5/2", "-1/-2", ".", "",
    ],
    ids=[
        "nan", "inf", "Infinity", "-Infinity", "1e5", "long-exponent", "long-zero-denominator",
        "leading-space", "long-leading-space", "underscore", "non-ascii-digit", "decimal-numerator",
        "negative-denominator", "point-alone", "empty",
    ],
)
def test_rational_argument_rejects_nan_infinity_exponents_and_zero_denominators(capsys, x):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["tepper", "--n", "2", "--x", x])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "is not an exact rational" in err


def test_rational_argument_is_capped_at_2_to_the_17_characters(capsys):
    # Decimal-to-int conversion is quadratic: 10^6 digits would take about a minute.
    assert cli._rational("0" * 2**17) == 0
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["tepper", "--n", "2", "--x", "1" * 10**6])
    assert time.perf_counter() - start < 1.0
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("argument --x: an exact rational takes at most 131072 characters, not 1000000\n")


@pytest.mark.parametrize("command", [("general",), ("lemma", "--n", "2"), ("conjecture", "--l", "2")])
def test_polynomial_argument_is_capped_at_2_to_the_17_characters(capsys, command):
    # A coefficient of 2^17 digits costs seconds in the quadratic digit conversion, so it is refused unparsed.
    poly = "1" * (cli.MAX_ARGUMENT_CHARS - 1) + "x"
    assert cli._polynomial_text(poly) == poly
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, "--poly", "1" * (2**17 + 1)])
    assert time.perf_counter() - start < 0.5
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("argument --poly: a polynomial takes at most 131072 characters, not 131073\n")


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_oracle_budget_counts_mask_width_beyond_1024_wagons(capsys, output_format):
    argv = ("occupancy", "--wagons", "1000000", "--passengers", "1", "--occupied", "1", "--oracle")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--format", output_format)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    # 10^6 assignments of 977 units each, one per 1024 bits, and 1 for the loop.
    assert err == (
        "BUDGET-EXCEEDED enumerating 1000000^1 assignments costs 977000001 units, "
        "which exceeds the budget of 10000000\n"
    )
    # 20000 * ceil(20000/1024) + 1 = 400001 fits the default budget.
    code, out, err = run_cli(capsys, "occupancy", "--wagons", "20000", "--passengers", "1", "--occupied", "1", "--oracle")
    assert (code, err) == (0, "")
    assert out.endswith("closed_form=20000 oracle=20000 agrees\n")


def test_wilson_upto_limit_counts_loop_steps(capsys):
    # N^2/2 naive steps: 4472 -> 9,999,392 fits the default budget of 10^7, 4473 -> 10,003,864 does not.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "wilson", "--upto", "4473")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "BUDGET-EXCEEDED the naive route for every n <= 4473 costs 10003864 units, "
        "which exceeds the budget of 10000000\n"
    )
    code, out, err = run_cli(capsys, "wilson", "--upto", "4472")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4471


def test_wilson_upto_rows_text_and_json(capsys):
    code, out, err = run_cli(capsys, "wilson", "--upto", "5")
    assert (code, err) == (0, "")
    assert out == (
        "PASS wilson n=2 route=naive_factorial residue=1 computed=prime claimed=prime\n"
        "PASS wilson n=3 route=naive_factorial residue=2 computed=prime claimed=prime\n"
        "PASS wilson n=4 route=naive_factorial residue=2 computed=composite claimed=composite\n"
        "PASS wilson n=5 route=naive_factorial residue=4 computed=prime claimed=prime\n"
    )
    code, out, err = run_cli(capsys, "wilson", "--upto", "5", "--format", "json")
    assert (code, err) == (0, "")
    assert out == "".join(
        '{"schema_version":1,"command":"wilson","parameters":"n=%d route=naive_factorial residue=%d",'
        '"claimed":"%s","computed":"%s","passed":true}\n' % (n, residue, verdict, verdict)
        for n, residue, verdict in ((2, 1, "prime"), (3, 2, "prime"), (4, 2, "composite"), (5, 4, "prime"))
    )


def test_wilson_tepper_route_on_a_composite_fails_with_both_residues(capsys):
    code, out, err = run_cli(capsys, "wilson", "--p", "9", "--route", "tepper")
    assert (code, out, err) == (1, "FAIL wilson p=9 route=tepper_sum computed=0 claimed=8\n", "")
    code, out, err = run_cli(capsys, "wilson", "--p", "9", "--route", "tepper", "--format", "json")
    assert (code, err) == (1, "")
    assert out == (
        '{"schema_version":1,"command":"wilson","parameters":"p=9 route=tepper_sum",'
        '"claimed":"8","computed":"0","passed":false}\n'
    )


def test_occupancy_json_row(capsys):
    for oracle in ((), ("--oracle",)):
        code, out, err = run_cli(
            capsys, "occupancy", "--wagons", "4", "--passengers", "5", "--occupied", "3", *oracle, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"schema_version":1,"command":"occupancy","parameters":"wagons=4 passengers=5 occupied=3",'
            '"claimed":"600","computed":"600","passed":true}\n'
        )


@pytest.mark.parametrize("oracle", [7, 0])
def test_occupancy_disagreement_fails_and_shows_the_oracle(capsys, monkeypatch, oracle):
    # An oracle count of 0 is still the computed value, not a missing one.
    monkeypatch.setattr(cli.occupancy, "brute_force_occupancy", lambda params, budget: oracle)
    argv = ("occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2", "--oracle")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == f"FAIL occupancy wagons=3 passengers=2 occupied=2 closed_form=6 oracle={oracle} disagrees\n"
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert out == (
        '{"schema_version":1,"command":"occupancy","parameters":"wagons=3 passengers=2 occupied=2",'
        f'"claimed":"6","computed":"{oracle}","passed":false}}\n'
    )


@pytest.mark.parametrize(
    "route, units_997, units_1009", [("tepper", 20710, 21054), ("fermat", 10740, 10964)], ids=["tepper", "fermat"]
)
def test_wilson_sum_routes_are_priced_at_p_squared_steps(capsys, route, units_997, units_1009):
    # Both routes build the row of p - 1, about p^2/128 units: of two neighbouring primes the
    # smaller fits a budget of its own price and the larger does not.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "wilson", "--p", "1009", "--route", route, "--budget", str(units_997))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err == (
        f"BUDGET-EXCEEDED the {route} route at p = 1009 costs {units_1009} units, "
        f"which exceeds the budget of {units_997}\n"
    )
    code, out, err = run_cli(capsys, "wilson", "--p", "997", "--route", route, "--budget", str(units_997))
    assert (code, err) == (0, "")
    assert out.startswith("PASS wilson p=997 ")
    # At the default budget p = 100003 is refused on both routes; the tepper route takes about 4 s there.
    code, out, err = run_cli(capsys, "wilson", "--p", "100003", "--route", route)
    assert (code, out) == (3, "")


def test_power_sums_that_ran_within_a_second_are_admitted_by_the_default_budget(capsys):
    # 3761250 units: each k^2000 is priced by its own bits, about 2000 * log2(k), and squared at half a product.
    code, out, err = run_cli(capsys, "powersum", "--n", "2000", "--p", "2000")
    assert (code, err) == (0, "")
    assert out.startswith("PASS power_sum_factorial n=2000 p=2000 computed=-")


def test_wilson_naive_route_is_priced_at_p_steps(capsys):
    code, out, err = run_cli(capsys, "wilson", "--p", "999983")
    assert (code, out, err) == (0, "PASS wilson p=999983 route=naive_factorial computed=999982 claimed=999982\n", "")


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_exponent_beyond_the_str_limit_is_an_input_error(capsys, output_format):
    code, out, err = run_cli(capsys, "general", "--poly", "x^" + "9" * 5000, "--format", output_format)
    assert (code, out) == (2, "")
    assert err == "INPUT-ERROR exponent of 5000 digits exceeds the degree cap 10000 (at offset 2)\n"


def test_rejected_rational_argument_is_quoted_by_a_prefix_and_its_length(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["tepper", "--n", "2", "--x", "1" + "0" * 5000 + "e1"])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "'10000000000000000000'... (5003 characters) is not an exact rational" in err
    assert len(err) < 300


# One argv per integer option, the value to test last.
_INTEGER_OPTIONS = {
    "--n": ["tepper", "--n"],
    "--l": ["conjecture", "--poly", "x", "--l"],
    "--p": ["powersum", "--n", "2", "--p"],
    "--upto": ["wilson", "--upto"],
    "--max-degree": ["sweep", "--max-step", "1", "--trials", "1", "--max-degree"],
    "--max-step": ["sweep", "--max-degree", "1", "--trials", "1", "--max-step"],
    "--trials": ["sweep", "--max-degree", "1", "--max-step", "1", "--trials"],
    "--seed": ["sweep", "--max-degree", "1", "--max-step", "1", "--trials", "1", "--seed"],
    "--wagons": ["occupancy", "--passengers", "2", "--occupied", "2", "--wagons"],
    "--passengers": ["occupancy", "--wagons", "3", "--occupied", "2", "--passengers"],
    "--occupied": ["occupancy", "--wagons", "3", "--passengers", "2", "--occupied"],
    "--budget": ["occupancy", "--wagons", "3", "--passengers", "2", "--occupied", "2", "--oracle", "--budget"],
}


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (2, "")
    return err


@pytest.mark.parametrize(
    "value",
    ["\u0663", " 1_0 ", "1_0", " 1", "1 ", "1.0", "1e3", "0x10", "+", "", "+-1"],
    ids=["non-ascii-digit", "spaced-underscore", "underscore", "leading-space", "trailing-space",
         "decimal", "exponent", "hex", "sign-alone", "empty", "two-signs"],
)
def test_integer_options_take_a_sign_and_ascii_digits_only(capsys, value):
    # int() alone reads the first three as 3, 10 and 10.
    err = usage_error(capsys, ["tepper", "--n", value])
    assert err.endswith(f"argument --n: {value!r} is not an integer (a sign and ASCII digits)\n")


@pytest.mark.parametrize("option", list(_INTEGER_OPTIONS))
def test_every_integer_option_has_the_one_converter(capsys, option):
    err = usage_error(capsys, [*_INTEGER_OPTIONS[option], "\u0663"])
    assert err.endswith(f"argument {option}: '\u0663' is not an integer (a sign and ASCII digits)\n")


def test_integer_option_past_the_digit_limit_is_quoted_by_a_prefix_and_its_length(capsys):
    # argparse would echo all 5000 digits of a value int() cannot convert.
    err = usage_error(capsys, ["tepper", "--n", "1" * 5000])
    assert err.endswith("argument --n: '11111111111111111111'... (5000 characters) exceeds the int/str digit limit\n")
    assert len(err) < 400


def test_rejected_values_are_quoted_whole_up_to_40_characters():
    assert cli._quoted("x" * 40) == repr("x" * 40)
    assert cli._quoted("x" * 41) == f"{'x' * 20!r}... (41 characters)"


def test_integer_options_keep_their_lower_bounds(capsys):
    assert usage_error(capsys, ["tepper", "--n", "-1"]).endswith("argument --n: must be >= 0\n")
    assert usage_error(capsys, ["conjecture", "--poly", "x", "--l", "0"]).endswith("argument --l: must be >= 1\n")
    err = usage_error(capsys, [*_INTEGER_OPTIONS["--budget"], "+0"])
    assert err.endswith("argument --budget: must be >= 1\n")


def test_integer_options_take_a_sign_and_leading_zeros(capsys):
    code, out, err = run_cli(capsys, "tepper", "--n", "+003")
    assert (code, out, err) == (0, "PASS tepper n=3 mode=symbolic x=ignored computed=6 claimed=6\n", "")
    sweeps = [run_cli(capsys, *_INTEGER_OPTIONS["--seed"], seed) for seed in ("-7", "-07")]
    assert sweeps[0] == sweeps[1] and sweeps[0][0] == 0


# Inputs that each took well over a second before every command was priced (some ran out of memory),
# with the message each now exits 3 with.  CI runs the same list as real processes.
_UNITS = "units, which exceeds the budget of 10000000"
REFUSALS = [
    (["general", "--poly", "x^1000"], f"the symbolic sum of order 1000 at degree 1000 costs 315237600 {_UNITS}"),
    (
        ["sweep", "--max-degree", "200", "--max-step", "200", "--trials", "100"],
        f"the sweep to degree 200 and step 200, 100 trials each costs 7386676000000 {_UNITS}",
    ),
    (
        ["sweep", "--max-degree", "1000000", "--max-step", "1000000", "--trials", "1000000"],
        "the sweep to degree 1000000 and step 1000000, 1000000 trials each costs "
        f"73746301375154984129000000000000000000 {_UNITS}",
    ),
    (
        ["occupancy", "--wagons", "100000", "--passengers", "100000", "--occupied", "50000"],
        f"occupancy wagons=100000 passengers=100000 occupied=50000 costs 54558662012 {_UNITS}",
    ),
    (
        ["powersum", "--n", "2000", "--p", "20000"],
        f"the power sum of order 2000 and power 20000 costs 71813250 {_UNITS}",
    ),
    # The closed form of one occupied wagon is cheap at any p; 2^(10^9) is priced without being built.
    (
        ["occupancy", "--wagons", "2", "--passengers", "1000000000", "--occupied", "1", "--oracle"],
        f"enumerating 2^1000000000 assignments costs 4.612976001169069393116119221E+301029995 {_UNITS}",
    ),
    (["tepper", "--n", "20", "--x", "9" * 20000], f"the numeric sum of order 20 at degree 20 costs 294185852 {_UNITS}"),
    (
        ["tepper", "--n", "1000000000"],
        f"the symbolic sum of order 1000000000 at degree 1000000000 costs 1250687284935444875787258301069 {_UNITS}",
    ),
    (
        ["lemma", "--poly", "x", "--n", "1000000000"],
        f"the symbolic sum of order 1000000000 at degree 1 costs 12695428767673048 {_UNITS}",
    ),
    (["expansion", "--n", "1000000"], f"the expansion of order 1000000 costs 26857034670500000 {_UNITS}"),
    # 600 digits, not 4,000: an --l past the int/str digit limit (640 at its lowest) is a usage error.
    (
        ["conjecture", "--poly", "x^100", "--l", "9" * 600],
        f"the symbolic sum of order 100 at degree 100 costs 29678351 {_UNITS}",
    ),
    (["wilson", "--p", "100003", "--route", "tepper"], f"the tepper route at p = 100003 costs 99528766 {_UNITS}"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(argv)[:40] for argv, _ in REFUSALS])
def test_costly_inputs_are_refused_at_once_by_the_default_budget(capsys, monkeypatch, argv, message):
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"BUDGET-EXCEEDED {message}\n")


# For each price, at a budget of one input's own price: that input runs, and the next one up is refused.
# Each x and l below is that many nines, so the second row of each pair moves only the bits of x or of l.
_NINES = {"x200": "9" * 200, "x201": "9" * 201, "l100": "9" * 100, "l101": "9" * 101}
BOUNDARIES = [
    ("tepper --n 10", "tepper --n 11", 1473, "the symbolic sum of order 11 at degree 11 costs 1775"),
    ("tepper --n 20 --x x200", "tepper --n 20 --x x201", 122537,
     "the numeric sum of order 20 at degree 20 costs 123860"),
    ("conjecture --poly x^10 --l l100", "conjecture --poly x^10 --l l101", 4278,
     "the symbolic sum of order 10 at degree 10 costs 4311"),
    ("lemma --poly x --n 300", "lemma --poly x --n 301", 17327,
     "the symbolic sum of order 301 at degree 1 costs 17386"),
    ("expansion --n 30", "expansion --n 31", 1897, "the expansion of order 31 costs 2022"),
    ("powersum --n 200 --p 401", "powersum --n 200 --p 402", 8112,
     "the power sum of order 200 and power 402 costs 8312"),
    ("occupancy --wagons 300 --passengers 401 --occupied 200", "occupancy --wagons 300 --passengers 402 --occupied 200",
     8162, "occupancy wagons=300 passengers=402 occupied=200 costs 8362"),
    ("occupancy --wagons 1024 --passengers 2 --occupied 1 --oracle",
     "occupancy --wagons 1025 --passengers 2 --occupied 1 --oracle",
     1048578, "enumerating 1025^2 assignments costs 2101252"),
    ("wilson --p 1000", "wilson --p 1001", 1000, "the naive route at p = 1001 costs 1001"),
    ("wilson --p 1000 --route tepper", "wilson --p 1001 --route tepper", 20795,
     "the tepper route at p = 1001 costs 20824"),
    ("wilson --p 997 --route fermat", "wilson --p 998 --route fermat", 10740,
     "the fermat route at p = 998 costs 10758"),
    ("wilson --upto 100", "wilson --upto 101", 5000, "the naive route for every n <= 101 costs 5100"),
    ("sweep --max-degree 5 --max-step 2 --trials 2", "sweep --max-degree 6 --max-step 2 --trials 2", 9820,
     "the sweep to degree 6 and step 2, 2 trials each costs 15096"),
]


@pytest.mark.parametrize("admitted, refused, budget, message", BOUNDARIES, ids=[row[0][:40] for row in BOUNDARIES])
def test_each_price_admits_an_input_at_its_own_price_and_refuses_the_next(capsys, admitted, refused, budget, message):
    admitted, refused = ([_NINES.get(word, word) for word in argv.split()] for argv in (admitted, refused))
    code, out, err = run_cli(capsys, *admitted, "--budget", str(budget))
    assert code in (0, 1) and err == "" and out
    code, out, err = run_cli(capsys, *refused, "--budget", str(budget))
    assert (code, out, err) == (3, "", f"BUDGET-EXCEEDED {message} units, which exceeds the budget of {budget}\n")
