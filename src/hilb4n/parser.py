"""Plain-text format for ideals, polynomials, and Hilbert polynomials.

Grammar: generators are separated by ';' or newlines; a generator is a signed
sum of terms c*x^e*y^f*... with an optional rational coefficient (13, -2/5)
and optional ^1 exponents.  Variables are fixed names; the family parameter
'a' is admitted only where a caller allows it.  A variable's exponent in a
term may not exceed MAX_EXPONENT.  Errors carry line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .hilbert import HilbertPolynomial, format_hilbert_polynomial
from .ideals import Ideal
from .poly import FAMILY_VARS, NVARS, RING_VARS, Polynomial, format_polynomial

# far above every degree the paper needs; a larger one would only make the
# engine run without bound
MAX_EXPONENT = 64


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class IdealDocument:
    variables: Tuple[str, ...]
    generators: Tuple[Polynomial, ...]

    def ideal(self) -> Ideal:
        return Ideal(list(self.generators), len(self.variables))


@dataclass(frozen=True)
class _Token:
    kind: str  # number, name, op, end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            tokens.append(_Token("op", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("number", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        if ch in "+-*^;/":
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], variables: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse_generators(self) -> List[Polynomial]:
        gens: List[Polynomial] = []
        while True:
            while self.peek().kind == "op" and self.peek().text == ";":
                self.advance()
            if self.peek().kind == "end":
                return gens
            gens.append(self.parse_polynomial())
            nxt = self.peek()
            if nxt.kind == "end":
                return gens
            if nxt.kind == "op" and nxt.text == ";":
                continue
            self.fail(f"expected ';' or end of input, found {nxt.text!r}")

    def parse_polynomial(self) -> Polynomial:
        poly = Polynomial.zero(len(self.variables))
        sign = Fraction(1)
        first = True
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                sign = Fraction(1) if tok.text == "+" else Fraction(-1)
            elif not first:
                break
            term = self.parse_term()
            poly = poly + term.scale(sign)
            sign = Fraction(1)
            first = False
            nxt = self.peek()
            if nxt.kind == "end" or (nxt.kind == "op" and nxt.text == ";"):
                break
            if nxt.kind == "op" and nxt.text in "+-":
                continue
            self.fail(f"expected operator between terms, found {nxt.text!r}")
        return poly

    def parse_term(self) -> Polynomial:
        coeff = Fraction(1)
        exps = [0] * len(self.variables)
        saw_factor = False
        expect_factor = True
        while expect_factor:
            tok = self.peek()
            if tok.kind == "number":
                self.advance()
                value = Fraction(int(tok.text))
                if self.peek().kind == "op" and self.peek().text == "/":
                    self.advance()
                    den = self.peek()
                    if den.kind != "number":
                        self.fail("expected a denominator after '/'")
                    self.advance()
                    if int(den.text) == 0:
                        raise ParseError("zero denominator", den.line, den.column)
                    value /= int(den.text)
                coeff *= value
                saw_factor = True
            elif tok.kind == "name":
                self.advance()
                if tok.text not in self.index:
                    raise ParseError(
                        f"unknown variable {tok.text!r}; expected one of {list(self.variables)}",
                        tok.line,
                        tok.column,
                    )
                power = 1
                if self.peek().kind == "op" and self.peek().text == "^":
                    self.advance()
                    p = self.peek()
                    if p.kind != "number":
                        self.fail("expected an integer exponent after '^'")
                    self.advance()
                    power = int(p.text)
                var = self.index[tok.text]
                exps[var] += power
                if exps[var] > MAX_EXPONENT:
                    raise ParseError(
                        f"exponent of {tok.text} exceeds the cap {MAX_EXPONENT}",
                        tok.line,
                        tok.column,
                    )
                saw_factor = True
            else:
                self.fail(f"expected a term, found {tok.text!r}")
            if self.peek().kind == "op" and self.peek().text == "*":
                self.advance()
                expect_factor = True
            else:
                expect_factor = False
        if not saw_factor:
            self.fail("empty term")
        return Polynomial({tuple(exps): coeff}, len(self.variables))


def parse_polynomial(text: str, variables: Sequence[str] = RING_VARS) -> Polynomial:
    parser = _Parser(_tokenize(text), variables)
    poly = parser.parse_polynomial()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return poly


def parse_ideal(text: str) -> IdealDocument:
    gens = _Parser(_tokenize(text), RING_VARS).parse_generators()
    for g in gens:
        if not g.is_homogeneous():
            raise ParseError(f"inhomogeneous generator: {format_polynomial(g)}", 1, 1)
    return IdealDocument(variables=RING_VARS, generators=tuple(gens))


def parse_family(text: str) -> IdealDocument:
    """Parse generators over the ring extended by the parameter 'a';
    homogeneity is required in the geometric variables only."""
    parser = _Parser(_tokenize(text), FAMILY_VARS)
    gens = parser.parse_generators()
    for g in gens:
        degs = {sum(e[:NVARS]) for e in g.terms}
        if len(degs) > 1:
            raise ParseError(
                f"generator is not homogeneous in {', '.join(RING_VARS)}: "
                f"{format_polynomial(g, FAMILY_VARS)}",
                1,
                1,
            )
    return IdealDocument(variables=FAMILY_VARS, generators=tuple(gens))


def parse_hilbert_polynomial(text: str) -> HilbertPolynomial:
    """The inverse of ``format_hilbert_polynomial``."""
    poly = parse_polynomial(text, ("n",))
    return HilbertPolynomial([poly.coefficient((i,)) for i in range(poly.degree() + 1)])


def format_ideal(I: Ideal) -> str:
    return ";\n".join(format_polynomial(g) for g in I.gens)
