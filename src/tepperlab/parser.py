"""Parse and render polynomial expressions in a single variable x.

Grammar (whitespace insignificant, EBNF):

    expr  := ["-"] term (("+" | "-") term)*
    term  := coeff ["*" var | var] | var
    var   := "x" ["^" natural]
    coeff := natural ["/" positive-natural]

Coefficients are exact rationals; decimal literals are rejected rather than
converted.  Like terms are combined.  Exponents beyond the degree cap are
rejected.  Every error carries the character offset at which it occurred;
when input ends while a token is still required, the offset points at the
character that created the obligation (the dangling '*', '/', '^', or sign),
so a one-character edit there repairs the parse.

``render_polynomial`` emits descending powers ("x^3 - 3*x^2 + 3*x - 1") and
round-trips exactly: parse_polynomial(render_polynomial(p)) == p.  Both ends
handle integers of any size: they convert through ``decimal.Decimal``, which
CPython's limit on int/str conversion (4300 digits by default) does not cover.
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import InputError
from .poly import Polynomial

DEFAULT_DEGREE_CAP = 10**4


class ParseError(InputError):
    """Rejected input, with the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class _Parser:
    def __init__(self, source: str, degree_cap: int):
        self.source = source
        self.pos = 0
        self.degree_cap = degree_cap

    def _peek(self) -> str | None:
        if self.pos < len(self.source):
            return self.source[self.pos]
        return None

    def _skip_ws(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def _fail(self, message: str, offset: int | None = None):
        raise ParseError(message, self.pos if offset is None else offset)

    def _expect_here(self, message: str, obligation: int):
        # At end of input, blame the character that demanded more.
        if self._peek() is None:
            self._fail(message, obligation)
        self._fail(message)

    def _natural(self, what: str, obligation: int) -> tuple[int, int]:
        ch = self._peek()
        if ch is None or not ch.isdigit():
            self._expect_here(f"expected {what}", obligation)
        start = self.pos
        while (c := self._peek()) is not None and c.isdigit():
            self.pos += 1
        return int(Decimal(self.source[start : self.pos])), start

    def _coefficient(self) -> Fraction:
        numerator, _ = self._natural("digits", self.pos)
        mark = self.pos
        self._skip_ws()
        if self._peek() == "/":
            slash = self.pos
            self.pos += 1
            self._skip_ws()
            denominator, den_offset = self._natural("a denominator after '/'", slash)
            if denominator == 0:
                self._fail("zero denominator", den_offset)
            return Fraction(numerator, denominator)
        self.pos = mark
        return Fraction(numerator)

    def _variable(self) -> int:
        # Caller has verified the current character is 'x'.
        self.pos += 1
        mark = self.pos
        self._skip_ws()
        if self._peek() == "^":
            caret = self.pos
            self.pos += 1
            self._skip_ws()
            power, exp_offset = self._natural("an exponent after '^'", caret)
            if power > self.degree_cap:
                self._fail(f"exponent {power} exceeds the degree cap {self.degree_cap}", exp_offset)
            return power
        self.pos = mark
        return 1

    def _term(self, obligation: int) -> tuple[int, Fraction]:
        """One term as (power, coefficient)."""
        ch = self._peek()
        if ch is None:
            self._expect_here("expected a term", obligation)
        if ch == "x":
            return self._variable(), Fraction(1)
        if not ch.isdigit():
            if ch == ".":
                self._fail("decimal literals are not supported; write an exact num/den rational")
            self._fail("expected a coefficient or 'x'")
        coeff = self._coefficient()
        mark = self.pos
        self._skip_ws()
        nxt = self._peek()
        if nxt == "*":
            star = self.pos
            self.pos += 1
            self._skip_ws()
            if self._peek() != "x":
                self._expect_here("expected 'x' after '*'", star)
            return self._variable(), coeff
        if nxt == "x":
            return self._variable(), coeff
        if nxt == ".":
            self._fail("decimal literals are not supported; write an exact num/den rational")
        self.pos = mark
        return 0, coeff

    def parse(self) -> Polynomial:
        accumulated: dict[int, Fraction] = {}
        self._skip_ws()
        sign = 1
        obligation = self.pos
        if self._peek() == "-":
            obligation = self.pos
            self.pos += 1
            self._skip_ws()
            sign = -1
        power, coeff = self._term(obligation)
        accumulated[power] = accumulated.get(power, Fraction(0)) + sign * coeff
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch is None:
                break
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            elif ch == ".":
                self._fail("decimal literals are not supported; write an exact num/den rational")
            else:
                self._fail("expected '+' or '-' between terms")
            separator = self.pos
            self.pos += 1
            self._skip_ws()
            power, coeff = self._term(separator)
            accumulated[power] = accumulated.get(power, Fraction(0)) + sign * coeff
        top = max(accumulated)
        coeffs = tuple(accumulated.get(i, Fraction(0)) for i in range(top + 1))
        return Polynomial(coeffs)


def parse_polynomial(source: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> Polynomial:
    """Parse ``source`` into a canonical Polynomial; see the module grammar."""
    return _Parser(source, degree_cap).parse()


def _render_rational(value: int | Fraction) -> str:
    """str(value) for an int or Fraction of any size: "num/den", or "num" when den = 1."""
    try:
        return str(value)
    except ValueError:  # past CPython's int/str digit limit, which Decimal does not have
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
