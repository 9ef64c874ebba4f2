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

Errors carry 1-based line and column positions.  Parentheses may nest at
most NESTING_CAP deep, and a sum or product of any length evaluates
without recursion.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from .poly_core import Poly2, UniPoly

#: Largest exponent a literal may carry; guards accidental blowup.
EXPONENT_CAP = 4096

#: Deepest parenthesis nesting accepted.  Parser and evaluator recurse per
#: level only, so this keeps both far below Python's recursion limit.
NESTING_CAP = 100

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


# A token is a tuple (kind, text, line, column).  kind is "number", "name",
# "end", or for an operator the operator character itself.


def _tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        chunk = match.group()
        if kind == "ws":
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                col = len(chunk) - chunk.rfind("\n")
                continue
        elif kind == "op":
            tokens.append((chunk, chunk, line, col))
        elif kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", line, col)
        else:
            tokens.append((kind, chunk, line, col))
        col += len(chunk)
    tokens.append(("end", "", line, col))
    return tokens


# Parse tree nodes:
#   ("num", int | Fraction)
#   ("name", text, line, column)
#   ("sum", ((sign, node), ...))   sign +1 or -1; the first is always +1
#   ("mul", (node, ...))           two or more factors, in order
#   ("neg", node)
#   ("pow", node, (exponent, ...)) exponents applied left to right


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Any:
        node = self.expr()
        kind, text, line, col = self.tokens[self.pos]
        if kind != "end":
            hint = ""
            if kind in ("name", "number", "("):
                hint = "; implicit multiplication is not allowed, write '*'"
            raise ParseError(f"unexpected {text!r}{hint}", line, col)
        return node

    def expr(self) -> Any:
        terms = [(1, self.term())]
        tokens = self.tokens
        while tokens[self.pos][0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append((sign, self.term()))
        return terms[0][1] if len(terms) == 1 else ("sum", tuple(terms))

    def term(self) -> Any:
        factors = [self.factor()]
        tokens = self.tokens
        while tokens[self.pos][0] == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("mul", tuple(factors))

    def factor(self) -> Any:
        tokens = self.tokens
        negate = False
        while tokens[self.pos][0] == "-":
            self.pos += 1
            negate = not negate
        node = self.atom()
        exponents = []
        while tokens[self.pos][0] == "^":
            self.pos += 1
            kind, text, line, col = self.advance()
            if kind != "number" or "/" in text:
                raise ParseError(
                    "exponent must be a nonnegative integer", line, col
                )
            exponent = int(text)
            if exponent > EXPONENT_CAP:
                raise ParseError(
                    f"exponent overflow (cap {EXPONENT_CAP})", line, col
                )
            exponents.append(exponent)
        if exponents:
            node = ("pow", node, tuple(exponents))
        return ("neg", node) if negate else node

    def atom(self) -> Any:
        kind, text, line, col = self.advance()
        if kind == "number":
            if "/" in text:
                num, den = text.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", line, col)
                return ("num", Fraction(int(num), int(den)))
            return ("num", int(text))
        if kind == "name":
            return ("name", text, line, col)
        if kind == "(":
            self.depth += 1
            if self.depth > NESTING_CAP:
                raise ParseError(
                    f"parentheses nested deeper than {NESTING_CAP}", line, col
                )
            node = self.expr()
            kind, text, line, col = self.advance()
            if kind != ")":
                found = text or "end of input"
                raise ParseError(f"expected ')', found {found!r}", line, col)
            self.depth -= 1
            return node
        found = text or "end of input"
        raise ParseError(f"expected a term, found {found!r}", line, col)


def _parse_ast(text: str) -> Any:
    return _Parser(text).parse()


class _Monomials:
    """Exponent vectors over a commutative ring's variables.

    ``read`` gives a product of numbers, variables and their powers as a
    (coefficient, exponent tuple) pair with no ring arithmetic, or None
    when the node holds a sum; ``build`` turns an {exponents: coefficient}
    dict into a ring element.  A name that is no variable goes to
    ``unknown``, which raises.
    """

    def __init__(self, names: tuple[str, ...], build, unknown):
        n = len(names)
        self.units = {
            v: tuple(int(k == i) for k in range(n)) for i, v in enumerate(names)
        }
        self.one = (0,) * n
        self.build = build
        self.unknown = unknown

    def read(self, node: Any) -> Any:
        kind = node[0]
        if kind == "num":
            return node[1], self.one
        if kind == "name":
            exps = self.units.get(node[1])
            if exps is None:
                self.unknown(node)
            return 1, exps
        if kind == "mul":
            c, exps = 1, self.one
            for factor in node[1]:
                got = self.read(factor)
                if got is None:
                    return None
                c *= got[0]
                exps = tuple([a + b for a, b in zip(exps, got[1])])
            return c, exps
        if kind == "pow":
            got = self.read(node[1])
            if got is None:
                return None
            c, exps = got
            for e in node[2]:
                c = c**e
                exps = tuple([a * e for a in exps])
            return c, exps
        if kind == "neg":
            got = self.read(node[1])
            return None if got is None else (-got[0], got[1])
        return None


def _evaluate(node: Any, number, name, monomials: _Monomials | None = None) -> Any:
    """Walk a parse tree; ``number`` maps a number and ``name`` a
    ("name", text, line, column) node to ring elements.

    Sums and products are walked by loops, left to right, so the leftmost
    bad name is the one reported; recursion follows parentheses only.
    A commutative ring passes ``monomials``: a sum then gathers its
    summands that are products of numbers, variables and powers in one
    exponent -> coefficient dict, and ring arithmetic is left to the other
    subtrees.  Without it every product keeps its factor order.
    """
    kind = node[0]
    if monomials is not None and kind != "sum":
        got = monomials.read(node)
        if got is not None:
            return monomials.build({got[1]: got[0]})
    if kind == "num":
        return number(node[1])
    if kind == "name":
        return name(node)
    if kind == "sum":
        terms = node[1]
        if monomials is None:
            total = _evaluate(terms[0][1], number, name)
            for sign, term in terms[1:]:
                value = _evaluate(term, number, name)
                total = total + value if sign > 0 else total - value
            return total
        gathered: dict = {}
        rest = []
        for sign, term in terms:
            got = monomials.read(term)
            if got is None:
                value = _evaluate(term, number, name, monomials)
                rest.append(value if sign > 0 else -value)
            else:
                c, exps = got
                gathered[exps] = gathered.get(exps, 0) + (c if sign > 0 else -c)
        total = monomials.build(gathered)
        for value in rest:
            total = total + value
        return total
    if kind == "mul":
        factors = node[1]
        total = _evaluate(factors[0], number, name, monomials)
        for factor in factors[1:]:
            total = total * _evaluate(factor, number, name, monomials)
        return total
    if kind == "neg":
        return -_evaluate(node[1], number, name, monomials)
    if kind == "pow":
        value = _evaluate(node[1], number, name, monomials)
        for e in node[2]:
            value = value**e
        return value
    raise AssertionError(f"unhandled node {kind}")


def _eval_commutative(node: Any, names: tuple[str, ...], build) -> Any:
    """Evaluate over a commutative ring in the variables ``names``;
    ``build`` makes a ring element from an {exponent tuple: coefficient}
    dict, exponents in ``names``' order."""

    def unknown(leaf: Any) -> Any:
        text, line, col = leaf[1], leaf[2], leaf[3]
        if len(text) > 1 and set(text) <= set(names):
            raise ParseError(
                f"{text!r}: implicit multiplication is not allowed, "
                f"write {'*'.join(text)!r}",
                line,
                col,
            )
        allowed = ", ".join(sorted(names))
        raise ParseError(
            f"unknown variable {text!r} (expected one of: {allowed})", line, col
        )

    monomials = _Monomials(names, build, unknown)
    return _evaluate(node, lambda c: build({monomials.one: c}), unknown, monomials)


def parse_poly2(text: str) -> Poly2:
    """Parse a commutative expression in x and y."""
    # exponent tuples are (deg_y, deg_x), Poly2's own term keys
    return _eval_commutative(_parse_ast(text), ("y", "x"), Poly2)


def parse_unipoly(text: str, var: str = "z") -> UniPoly:
    """Parse a univariate expression in ``var``."""

    def build(terms: dict) -> UniPoly:
        return UniPoly.from_terms({e: c for (e,), c in terms.items()})

    return _eval_commutative(_parse_ast(text), (var,), build)


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
