"""Answer checks that do not trust retractlab's own arithmetic.

Every polynomial the program prints is re-read here by a small parser of
its own and evaluated in plain ``Fraction`` arithmetic, so a defect in
``poly_core`` or ``parsing`` cannot vouch for itself.  The same parser
evaluates over dual numbers (exact partial derivatives, for Jacobians) and
over degree bounds (to pick enough evaluation points).  A small JSON
Schema validator covers exactly the keywords the CLI output schema uses
and refuses any other, so a schema change cannot silently skip checks.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|(\S))")


class CheckFailed(Exception):
    """An answer disagrees with the independently computed one."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------- parsing


def _tokens(text: str) -> list:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckFailed(f"cannot read {text!r} at {pos}")
        pos = m.end()
        if m.group(1) is not None:
            out.append(("num", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
    out.append(("end", None))
    return out


class _Reader:
    """expr := term (('+'|'-') term)*;  term := unary ('*' unary)*;
    unary := '-' unary | power;  power := atom ('^' INT)?;
    atom := INT ('/' INT)? | NAME | '(' expr ')'."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0
        self.text = text

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise CheckFailed(f"expected {op!r} in {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise CheckFailed(f"trailing input in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*"):
            self.take()
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, value = self.take()
            if kind != "num":
                raise CheckFailed(f"exponent must be an integer in {self.text!r}")
            node = ("pow", node, value)
        return node

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            if self.peek() == ("op", "/"):
                self.take()
                kind2, den = self.take()
                if kind2 != "num" or den == 0:
                    raise CheckFailed(f"bad rational in {self.text!r}")
                return ("const", Fraction(value, den))
            return ("const", Fraction(value))
        if kind == "name":
            return ("var", value)
        if (kind, value) == ("op", "("):
            node = self.expr()
            self.expect(")")
            return node
        raise CheckFailed(f"unexpected token {value!r} in {self.text!r}")


class Expr:
    """A parsed commutative polynomial text, evaluable in any ring of
    values that supports +, -, * and integer powers."""

    def __init__(self, text: str):
        self.text = text
        self.tree = _Reader(text).parse()

    def __call__(self, **env):
        return _eval(self.tree, env)

    def degree(self) -> int:
        """An upper bound on the total degree."""
        env = {name: _Deg(1) for name in _names(self.tree)}
        return _eval(self.tree, env).d if env else 0


_expr = functools.lru_cache(maxsize=4096)(Expr)


def _names(node) -> set:
    if node[0] == "var":
        return {node[1]}
    if node[0] == "const":
        return set()
    out = set()
    for child in node[1:]:
        if isinstance(child, tuple):
            out |= _names(child)
    return out


def _eval(node, env):
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise CheckFailed(f"unexpected variable {node[1]!r}") from None
    if kind == "add":
        return _eval(node[1], env) + _eval(node[2], env)
    if kind == "sub":
        return _eval(node[1], env) - _eval(node[2], env)
    if kind == "mul":
        return _eval(node[1], env) * _eval(node[2], env)
    if kind == "neg":
        return -_eval(node[1], env)
    base = _eval(node[1], env)
    result = 1
    for _ in range(node[2]):
        result = result * base
    return result


class _Deg:
    """Degree upper bound: constants 0, sums max, products add."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    @staticmethod
    def _of(v) -> int:
        return v.d if isinstance(v, _Deg) else 0

    def __add__(self, other):
        return _Deg(max(self.d, self._of(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Deg(self.d + self._of(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self


class Dual:
    """v + d*eps with eps^2 = 0: evaluates a polynomial and one partial
    derivative exactly."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0):
        self.v = Fraction(v)
        self.d = Fraction(d)

    @staticmethod
    def _of(o) -> "Dual":
        return o if isinstance(o, Dual) else Dual(o)

    def __add__(self, o):
        o = self._of(o)
        return Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._of(o)
        return Dual(self.v - o.v, self.d - o.d)

    def __rsub__(self, o):
        return self._of(o) - self

    def __mul__(self, o):
        o = self._of(o)
        return Dual(self.v * o.v, self.v * o.d + self.d * o.v)

    __rmul__ = __mul__

    def __neg__(self):
        return Dual(-self.v, -self.d)


# --------------------------------------------------------------- algebra


def points(rng, n: int) -> list:
    """n rational points (x, y) with small numerators and denominators."""
    return [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
        for _ in range(n)
    ]


def jacobian_at(f: Expr, g: Expr, x0, y0) -> Fraction:
    fx, gx = f(x=Dual(x0, 1), y=Dual(y0)), g(x=Dual(x0, 1), y=Dual(y0))
    fy, gy = f(x=Dual(x0), y=Dual(y0, 1)), g(x=Dual(x0), y=Dual(y0, 1))
    return Dual._of(fx).d * Dual._of(gy).d - Dual._of(fy).d * Dual._of(gx).d


def _rational(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise CheckFailed(f"not a rational: {v!r}")
    return Fraction(v)


def apply_moves(moves: list, point: tuple) -> tuple:
    """The point map of a move list.

    A move list [m0, m1, ...] denotes the ring map m0 o m1 o ...; as a map
    of points it sends P to ... m1(m0(P)), so moves apply left to right.
    """
    x, y = point
    for move in moves:
        (kind, payload), = move.items()
        if kind == "elemX":
            x = x + _expr(payload)(y=y)
        elif kind == "elemY":
            y = y + _expr(payload)(x=x)
        elif kind == "affine":
            (a, b), (c, d) = [[_rational(v) for v in row] for row in payload["m"]]
            b0, b1 = (_rational(v) for v in payload["b"])
            x, y = a * x + b * y + b0, c * x + d * y + b1
        else:
            raise CheckFailed(f"unknown move {kind!r}")
    return x, y


def same_map(moves: list, f: Expr, g: Expr, pts: list) -> None:
    for x0, y0 in pts:
        require(
            apply_moves(moves, (x0, y0)) == (f(x=x0, y=y0), g(x=x0, y=y0)),
            f"moves do not evaluate to ({f.text}, {g.text}) at {(x0, y0)}",
        )


def certifies(p: Expr, s: Expr, t: Expr) -> bool:
    """p(s(z), t(z)) = z, tested at more points than the image degree."""
    deg = p.degree() * max(s.degree(), t.degree(), 1)
    for k in range(deg + 2):
        z0 = Fraction(k - deg // 2, 1 + k % 3)
        if p(x=s(z=z0), y=t(z=z0)) != z0:
            return False
    return True


# ---------------------------------------------------------------- schema


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_ANNOTATIONS = {"$schema", "$defs", "title", "description"}


class Schema:
    """Validator for the JSON Schema subset used by the CLI output schema."""

    def __init__(self, schema: dict):
        self.root = schema

    def valid(self, value) -> bool:
        return self._ok(self.root, value)

    def _ok(self, sch: dict, v) -> bool:
        for key, arg in sch.items():
            if key in _ANNOTATIONS:
                continue
            if key == "$ref":
                if not arg.startswith("#/$defs/"):
                    raise ValueError(f"unsupported $ref {arg!r}")
                if not self._ok(self.root["$defs"][arg[len("#/$defs/"):]], v):
                    return False
            elif key == "type":
                names = arg if isinstance(arg, list) else [arg]
                if not any(_TYPES[n](v) for n in names):
                    return False
            elif key == "enum":
                if v not in arg:
                    return False
            elif key == "anyOf":
                if not any(self._ok(sub, v) for sub in arg):
                    return False
            elif key == "minimum":
                if _TYPES["number"](v) and v < arg:
                    return False
            elif key in ("properties", "required", "additionalProperties",
                         "minProperties", "maxProperties"):
                if isinstance(v, dict) and not self._object_ok(key, arg, sch, v):
                    return False
            elif key == "items":
                if isinstance(v, list) and not all(self._ok(arg, i) for i in v):
                    return False
            else:
                raise ValueError(f"schema keyword {key!r} is not supported")
        return True

    def _object_ok(self, key, arg, sch, v) -> bool:
        if key == "properties":
            return all(self._ok(arg[k], v[k]) for k in arg if k in v)
        if key == "required":
            return all(k in v for k in arg)
        if key == "additionalProperties":
            if arg is not False:
                raise ValueError("only additionalProperties: false is supported")
            return set(v) <= set(sch.get("properties", {}))
        if key == "minProperties":
            return len(v) >= arg
        return len(v) <= arg
