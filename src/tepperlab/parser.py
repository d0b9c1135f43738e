"""Parse and render polynomial expressions in a single variable x.

Grammar (EBNF over tokens):

    expr  := ["-"] term (("+" | "-") term)*
    term  := coeff ["*" var | var] | var
    var   := "x" ["^" natural]
    coeff := natural ["/" positive-natural]

The source is split into tokens once: a token is a run of ASCII digits (a
``natural``) or any other single non-space character, and whitespace only
separates tokens.  A non-ASCII digit is thus a token of its own and is
rejected like any other stray character.  Coefficients are exact rationals;
decimal literals are rejected rather than converted.  Like terms are
combined.  Exponents beyond the degree cap are rejected.

Every error carries the character offset of the current token.  When input
ends while a token is still required, it points at the last token, which is
the '-', '+', '*', '/' or '^' that asked for more, so a one-character edit
there repairs the parse; with no tokens at all it points at the end.

``render_polynomial`` emits descending powers ("x^3 - 3*x^2 + 3*x - 1") and
round-trips exactly: parse_polynomial(render_polynomial(p)) == p.  Both ends
handle integers of any size: they convert through ``decimal.Decimal``, which
CPython's limit on int/str conversion (4300 digits by default) does not cover.
"""
from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import NoReturn

from .errors import InputError
from .poly import Polynomial

DEFAULT_DEGREE_CAP = 10**4

# A searched alternation rather than a leading \s*: finditer would rescan
# trailing whitespace from every position, quadratic in its length.
_TOKEN = re.compile(r"([0-9]+)|(\S)")
_DECIMAL = "decimal literals are not supported; write an exact num/den rational"


class ParseError(InputError):
    """Rejected input, with the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class _Parser:
    def __init__(self, source: str, degree_cap: int):
        # (digits, symbol, offset): exactly one of digits and symbol is set.
        # The end of input reads as the symbol "" at the last token's offset.
        self.tokens = [(*m.groups(), m.start()) for m in _TOKEN.finditer(source)]
        self.tokens.append((None, "", self.tokens[-1][2] if self.tokens else len(source)))
        self.i = 0
        self.degree_cap = degree_cap

    def _peek(self) -> str | None:
        """The current symbol: "" at the end of input, None at a natural."""
        return self.tokens[self.i][1]

    def _fail(self, message: str) -> NoReturn:
        raise ParseError(message, self.tokens[self.i][2])

    def _natural(self, what: str) -> int:
        """The natural at the current token, left current for the caller's checks."""
        digits = self.tokens[self.i][0]
        if digits is None:
            self._fail(f"expected {what}")
        return int(Decimal(digits))

    def _coefficient(self) -> Fraction:
        numerator = self._natural("digits")
        self.i += 1
        if self._peek() != "/":
            return Fraction(numerator)
        self.i += 1
        denominator = self._natural("a denominator after '/'")
        if denominator == 0:
            self._fail("zero denominator")
        self.i += 1
        return Fraction(numerator, denominator)

    def _variable(self) -> int:
        # Caller has verified the current token is 'x'.
        self.i += 1
        if self._peek() != "^":
            return 1
        self.i += 1
        power = self._natural("an exponent after '^'")
        if power > self.degree_cap:
            digits = _render_rational(power)
            shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
            self._fail(f"exponent {shown} exceeds the degree cap {self.degree_cap}")
        self.i += 1
        return power

    def _term(self) -> tuple[int, Fraction]:
        """One term as (power, coefficient)."""
        symbol = self._peek()
        if symbol == "x":
            return self._variable(), Fraction(1)
        if symbol is not None:
            self._fail({"": "expected a term", ".": _DECIMAL}.get(symbol, "expected a coefficient or 'x'"))
        coeff = self._coefficient()
        if self._peek() == "*":
            self.i += 1
            if self._peek() != "x":
                self._fail("expected 'x' after '*'")
        elif self._peek() != "x":
            return 0, coeff
        return self._variable(), coeff

    def parse(self) -> Polynomial:
        accumulated: dict[int, Fraction] = {}
        sign = 1
        if self._peek() == "-":
            self.i += 1
            sign = -1
        while True:
            power, coeff = self._term()
            accumulated[power] = accumulated.get(power, Fraction(0)) + sign * coeff
            symbol = self._peek()
            if symbol == "":
                break
            if symbol not in ("+", "-"):
                self._fail(_DECIMAL if symbol == "." else "expected '+' or '-' between terms")
            sign = 1 if symbol == "+" else -1
            self.i += 1
        top = max(accumulated)
        coeffs = tuple(accumulated.get(i, Fraction(0)) for i in range(top + 1))
        return Polynomial(coeffs)


def parse_polynomial(source: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> Polynomial:
    """Parse ``source`` into a canonical Polynomial; see the module grammar."""
    return _Parser(source, degree_cap).parse()


def _render_rational(value: int | Fraction) -> str:
    """An int or Fraction of any size as "num/den", or "num" when den = 1, through Decimal."""
    numerator = str(Decimal(value.numerator))
    return numerator if value.denominator == 1 else f"{numerator}/{Decimal(value.denominator)}"


def _term_body(magnitude: Fraction, power: int) -> str:
    if power == 0:
        return _render_rational(magnitude)
    var = "x" if power == 1 else f"x^{power}"
    if magnitude == 1:
        return var
    return f"{_render_rational(magnitude)}*{var}"


def render_polynomial(polynomial: Polynomial) -> str:
    """Canonical descending-degree rendering, reparsed exactly by parse_polynomial."""
    if polynomial.is_zero():
        return "0"
    parts: list[str] = []
    for power in range(len(polynomial.coefficients) - 1, -1, -1):
        c = polynomial.coefficients[power]
        if c == 0:
            continue
        body = _term_body(abs(c), power)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
