"""Expression parser for the polynomial text forms.

Grammar (same token set for every mode):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INT)*
    atom   := NUMBER | NAME | '(' expr ')'

NUMBER is an integer or rational literal ``a/b`` (no spaces inside);
``^`` binds tighter than ``*``, which binds tighter than ``+``/``-``.
There is no implicit multiplication: in commutative mode ``xy`` is a parse
error, and ``2x`` must be written ``2*x``.  In noncommutative mode a NAME
is a word over the letters x and y (juxtaposition inside one token means
concatenation, so ``xyx`` is a length-3 word), and ``*`` is the
noncommutative product.  Univariate mode admits the single variable z.

Errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .poly_core import Poly2, UniPoly

#: Largest exponent a literal may carry; guards accidental blowup.
EXPONENT_CAP = 4096

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z]+)
  | (?P<op>[-+*^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax or mode error, with 1-based line/column of the offender."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup or "bad"
        chunk = match.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", line, col)
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(
                f"expected {op!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        self.advance()

    def parse(self) -> Any:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            hint = ""
            if tok.kind in ("name", "number") or tok.text == "(":
                hint = "; implicit multiplication is not allowed, write '*'"
            raise ParseError(
                f"unexpected {tok.text!r}{hint}", tok.line, tok.column
            )
        return node

    def expr(self) -> Any:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> Any:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            node = ("mul", node, self.factor())
        return node

    def factor(self) -> Any:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return ("neg", self.factor())
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "number" or "/" in exp_tok.text:
                raise ParseError(
                    "exponent must be a nonnegative integer",
                    exp_tok.line,
                    exp_tok.column,
                )
            self.advance()
            exponent = int(exp_tok.text)
            if exponent > EXPONENT_CAP:
                raise ParseError(
                    f"exponent overflow (cap {EXPONENT_CAP})",
                    exp_tok.line,
                    exp_tok.column,
                )
            node = ("pow", node, exponent)
        return node

    def atom(self) -> Any:
        tok = self.advance()
        if tok.kind == "number":
            if "/" in tok.text:
                num, den = tok.text.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", tok.line, tok.column)
                return ("num", Fraction(int(num), int(den)))
            return ("num", Fraction(int(tok.text)))
        if tok.kind == "name":
            return ("name", tok.text, tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"expected a term, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )


def _parse_ast(text: str) -> Any:
    return _Parser(text).parse()


def _evaluate(node: Any, number, name) -> Any:
    """Walk a parse tree; ``number`` maps a Fraction and ``name`` a
    ("name", text, line, column) node to ring elements."""
    kind = node[0]
    if kind == "num":
        return number(node[1])
    if kind == "name":
        return name(node)
    if kind == "add":
        return _evaluate(node[1], number, name) + _evaluate(node[2], number, name)
    if kind == "sub":
        return _evaluate(node[1], number, name) - _evaluate(node[2], number, name)
    if kind == "mul":
        return _evaluate(node[1], number, name) * _evaluate(node[2], number, name)
    if kind == "neg":
        return -_evaluate(node[1], number, name)
    if kind == "pow":
        return _evaluate(node[1], number, name) ** node[2]
    raise AssertionError(f"unhandled node {kind}")


def _eval_commutative(node: Any, env: dict[str, Any], one: Any) -> Any:
    def name(leaf: Any) -> Any:
        text, line, col = leaf[1], leaf[2], leaf[3]
        if text in env:
            return env[text]
        if len(text) > 1 and set(text) <= set(env):
            raise ParseError(
                f"{text!r}: implicit multiplication is not allowed, "
                f"write {'*'.join(text)!r}",
                line,
                col,
            )
        allowed = ", ".join(sorted(env))
        raise ParseError(
            f"unknown variable {text!r} (expected one of: {allowed})", line, col
        )

    return _evaluate(node, lambda c: one * c, name)


def parse_poly2(text: str) -> Poly2:
    """Parse a commutative expression in x and y."""
    ast = _parse_ast(text)
    env = {"x": Poly2.var_x(), "y": Poly2.var_y()}
    return _eval_commutative(ast, env, Poly2.const(1))


def parse_unipoly(text: str, var: str = "z") -> UniPoly:
    """Parse a univariate expression in ``var``."""
    ast = _parse_ast(text)
    env = {var: UniPoly.var_z()}
    return _eval_commutative(ast, env, UniPoly.const(1))


def parse_ncpoly(text: str, field=None):
    """Parse a noncommutative expression; NAME tokens are words over x, y.

    ``field`` follows :mod:`retractlab.free_algebra` (None means rationals).
    """
    from . import free_algebra as fa

    fld = field if field is not None else fa.RATIONALS
    ast = _parse_ast(text)

    def word(leaf: Any):
        w, line, col = leaf[1], leaf[2], leaf[3]
        if set(w) <= {"x", "y"}:
            return fa.NcPoly.word(w, fld)
        raise ParseError(
            f"unknown word {w!r} (words use letters x and y)", line, col
        )

    return _evaluate(ast, lambda c: fa.NcPoly.const(c, fld), word)
