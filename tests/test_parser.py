"""Grammar, rendering round-trip, and actionable error offsets."""
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from strategies import polynomials
from tepperlab import ParseError, Polynomial, parse_polynomial, render_polynomial
from tepperlab.identities import random_polynomial


def test_parse_monomial():
    assert parse_polynomial("x^3") == Polynomial.monomial(3)


def test_parse_mixed_terms():
    p = parse_polynomial("1/2*x^2 - x + 3")
    assert p.coefficients == (Fraction(3), Fraction(-1), Fraction(1, 2))


def test_parse_combines_like_terms():
    assert parse_polynomial("x + x") == Polynomial((0, 2))
    assert parse_polynomial("x - x") == Polynomial.zero()


def test_parse_accepts_insignificant_whitespace():
    assert parse_polynomial(" 1 / 2 * x ^ 2 ") == Polynomial((0, 0, Fraction(1, 2)))
    assert parse_polynomial("2x") == parse_polynomial("2*x") == Polynomial((0, 2))


def test_parse_leading_minus():
    assert parse_polynomial("-x^2 + 1") == Polynomial((1, 0, -1))
    assert parse_polynomial("- 5") == Polynomial.constant(-5)


def test_render_examples():
    assert render_polynomial(Polynomial.zero()) == "0"
    assert render_polynomial(Polynomial((-1, 3, -3, 1))) == "x^3 - 3*x^2 + 3*x - 1"
    assert render_polynomial(Polynomial((0, 2))) == "2*x"


def test_render_negative_leading_and_fractions():
    assert render_polynomial(Polynomial((Fraction(-1, 2), 0, -1))) == "-x^2 - 1/2"


def test_zero_denominator_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("1/0")
    assert "zero denominator" in str(excinfo.value)
    assert excinfo.value.offset == 2


def test_exponent_cap():
    assert parse_polynomial("x^10000").degree == 10**4
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x^10001")
    assert "degree cap" in str(excinfo.value)
    with pytest.raises(ParseError):
        parse_polynomial("x^31", degree_cap=30)


def test_exponent_past_the_str_limit_is_a_parse_error_naming_its_length():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x^" + "9" * 5000)
    assert excinfo.value.message == "exponent of 5000 digits exceeds the degree cap 10000"
    assert excinfo.value.offset == 2
    # Leading zeros are no part of the exponent's size.
    assert parse_polynomial("x^" + "0" * 5000 + "2") == Polynomial.monomial(2)


def test_decimal_literals_rejected():
    for source in ("0.5", "1.5*x", "x^2 + 2.5", "x^2.5", "x.5"):
        with pytest.raises(ParseError) as excinfo:
            parse_polynomial(source)
        assert "decimal" in str(excinfo.value)


def test_factored_forms_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("(x-1)^3")
    assert excinfo.value.offset == 0


def test_error_offsets_point_at_problem():
    cases = {
        "x + ": 2,      # dangling separator blames the '+'
        "1/": 1,        # dangling slash
        "x^": 1,        # dangling caret
        "2*": 1,        # dangling star
        "x 2": 2,       # missing separator before '2'
        "x + + 1": 4,   # second sign is not a term
        "   ": 3,       # no tokens at all: the end of input
        "\t1 2": 3,     # a tab separates tokens like a space
        "x^ \t": 1,     # trailing whitespace still blames the caret
    }
    for source, offset in cases.items():
        with pytest.raises(ParseError) as excinfo:
            parse_polynomial(source)
        assert excinfo.value.offset == offset, source


@pytest.mark.parametrize("source", ["x^\u00b2", "\u00b2", "\u0663*x", "1\u0663"])
def test_non_ascii_digits_rejected(source):
    # A natural is a run of ASCII digits; '\u00b2' (superscript two) and '\u0663'
    # (Arabic-Indic three) are stray characters, not numbers.
    with pytest.raises(ParseError):
        parse_polynomial(source)


def test_trailing_whitespace_scans_in_linear_time():
    start = time.perf_counter()
    assert parse_polynomial("x" + " " * 20000) == Polynomial.monomial(1)
    assert time.perf_counter() - start < 1.0


def test_parse_determinism():
    source = "7/3*x^4 - x + 12"
    assert parse_polynomial(source) == parse_polynomial(source)


@given(polynomials(max_degree=9))
def test_round_trip(p):
    assert parse_polynomial(render_polynomial(p)) == p


@settings(max_examples=200)
@given(polynomials(max_degree=6))
def test_render_is_stable(p):
    assert render_polynomial(parse_polynomial(render_polynomial(p))) == render_polynomial(p)


REPAIR_ALPHABET = "0123456789x^*/+- "
MUTATION_ALPHABET = REPAIR_ALPHABET + "?().y"


def _error_offset(source):
    try:
        parse_polynomial(source)
        return None
    except ParseError as exc:
        return exc.offset


def _repairs_or_advances(source, offset):
    candidates = [source[:offset] + source[offset + 1 :]]
    candidates += [source[:offset] + ch + source[offset + 1 :] for ch in REPAIR_ALPHABET]
    for candidate in candidates:
        new_offset = _error_offset(candidate)
        if new_offset is None or new_offset > offset:
            return True
    return False


def test_rejected_mutants_report_actionable_offsets():
    rng = random.Random(1234)
    checked = 0
    for _ in range(300):
        source = render_polynomial(random_polynomial(rng, rng.randint(0, 5)))
        position = rng.randrange(len(source))
        mutant = source[:position] + rng.choice(MUTATION_ALPHABET) + source[position + 1 :]
        offset = _error_offset(mutant)
        if offset is None:
            continue  # mutation kept the input valid
        assert offset < len(mutant), mutant
        assert _repairs_or_advances(mutant, offset), (mutant, offset)
        checked += 1
    assert checked > 100  # the corpus must actually exercise rejections


def _digits(n):
    """Decimal digits of n >= 0 by repeated division, without str(int) or Decimal."""
    chunks = []
    while n >= 10**9:
        n, r = divmod(n, 10**9)
        chunks.append(f"{r:09d}")
    return f"{n}" + "".join(reversed(chunks))


def test_coefficients_beyond_the_str_limit_parse_and_render_exactly():
    numerator, denominator = 3**9500, 2**15000 + 1  # 4,533 and 4,516 digits
    p = Polynomial((Fraction(numerator, denominator), 0, -numerator))
    text = render_polynomial(p)
    assert text == f"-{_digits(numerator)}*x^2 + {_digits(numerator)}/{_digits(denominator)}"
    assert parse_polynomial(text) == p
