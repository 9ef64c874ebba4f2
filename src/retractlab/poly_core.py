"""Exact polynomial cores: sparse K[x, y] and dense K[z] over the rationals.

Coefficients are `fractions.Fraction` throughout, so every operation is
exact: no floats, no rounding, no coefficient growth surprises beyond what
the mathematics demands.

Conventions fixed here and relied on by every other module:

* A monomial is ``Monomial(i, j)`` meaning ``y**i * x**j``.
* The monomial order is lex with x much greater than y: compare the
  x-exponent ``j`` first, then the y-exponent ``i``.
* ``deg`` of the zero polynomial is the distinguished sentinel
  ``MINUS_INF`` (it compares below every integer and is never an int).
* ``substitute2(p, a, b)`` replaces x by ``a`` and y by ``b``;
  ``substitute1(p, s, t)`` replaces x by ``s(z)`` and y by ``t(z)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

#: Degree of the zero polynomial.  Compares below every int; never -1.
MINUS_INF = float("-inf")

Scalar = Union[int, Fraction]


class Monomial(NamedTuple):
    """Exponent pair for ``y**i * x**j``."""

    i: int  # exponent of y
    j: int  # exponent of x

    def lex_key(self) -> tuple[int, int]:
        """Sort key for lex order with x >> y (x-exponent decides first)."""
        return (self.j, self.i)

    def total_degree(self) -> int:
        return self.i + self.j

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        return Monomial(self.i + other.i, self.j + other.j)

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("monomial power must be nonnegative")
        return Monomial(self.i * k, self.j * k)


def monomial_degree_under(i: int, j: int, ds: int, dt: int) -> int:
    """Degree of ``y**i * x**j`` after substituting s for x and t for y.

    ``ds`` and ``dt`` are the degrees of s and t; the zero polynomial is
    excluded by the caller (its degree is not an int).
    """
    if min(i, j, ds, dt) < 0:
        raise ValueError("exponents and degrees must be nonnegative")
    return i * dt + j * ds


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _sqrt_fraction(c: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None."""
    if c < 0:
        return None
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


class Poly2:
    """Sparse exact polynomial in K[x, y].

    Terms live in a dict keyed by :class:`Monomial`; zero coefficients are
    never stored, so structural equality is semantic equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        canon: dict[Monomial, Fraction] = {}
        if terms:
            for key, c in terms.items():
                mono = Monomial(*key)
                if mono.i < 0 or mono.j < 0:
                    raise ValueError(f"negative exponent in {mono}")
                val = _as_fraction(c)
                if val:
                    acc = canon.get(mono)
                    val = val if acc is None else acc + val
                    if val:
                        canon[mono] = val
                    elif acc is not None:
                        del canon[mono]
        self._terms = canon

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly2":
        return Poly2()

    @staticmethod
    def const(c: Scalar) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def var_x() -> "Poly2":
        return Poly2({(0, 1): 1})

    @staticmethod
    def var_y() -> "Poly2":
        return Poly2({(1, 0): 1})

    @staticmethod
    def monomial(i: int, j: int, c: Scalar = 1) -> "Poly2":
        return Poly2({(i, j): c})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get(Monomial(i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == (0, 0) for m in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get(Monomial(0, 0), Fraction(0))

    def deg(self) -> int | float:
        """Total degree; MINUS_INF for the zero polynomial."""
        if not self._terms:
            return MINUS_INF
        return max(m.total_degree() for m in self._terms)

    def deg_x(self) -> int | float:
        if not self._terms:
            return MINUS_INF
        return max(m.j for m in self._terms)

    def deg_y(self) -> int | float:
        if not self._terms:
            return MINUS_INF
        return max(m.i for m in self._terms)

    def leading_monomial(self) -> Monomial:
        """Lex leading monomial (x >> y).  Errors on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=Monomial.lex_key)

    def leading_coefficient(self) -> Fraction:
        return self._terms[self.leading_monomial()]

    def leading_form(self) -> "Poly2":
        """Homogeneous component of maximal total degree."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading form")
        d = self.deg()
        return Poly2({m: c for m, c in self._terms.items() if m.total_degree() == d})

    def y_coefficient(self, k: int) -> "Poly2":
        """Coefficient of y**k, as a polynomial in x alone."""
        return Poly2({(0, m.j): c for m, c in self._terms.items() if m.i == k})

    def x_coefficient(self, k: int) -> "Poly2":
        """Coefficient of x**k, as a polynomial in y alone."""
        return Poly2({(m.i, 0): c for m, c in self._terms.items() if m.j == k})

    def as_unipoly_in_x(self) -> "UniPoly":
        if any(m.i for m in self._terms):
            raise ValueError("polynomial involves y")
        return UniPoly.from_terms({m.j: c for m, c in self._terms.items()})

    def as_unipoly_in_y(self) -> "UniPoly":
        if any(m.j for m in self._terms):
            raise ValueError("polynomial involves x")
        return UniPoly.from_terms({m.i: c for m, c in self._terms.items()})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly2 | Scalar") -> "Poly2":
        other = _coerce_poly2(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            acc = out.get(m)
            val = c if acc is None else acc + c
            if val:
                out[m] = val
            elif acc is not None:
                del out[m]
        return _wrap_poly2(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return _wrap_poly2({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Poly2 | Scalar") -> "Poly2":
        other = _coerce_poly2(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly2":
        return (-self) + other

    def __mul__(self, other: "Poly2 | Scalar") -> "Poly2":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly2()
            return _wrap_poly2({m: v * c for m, v in self._terms.items()})
        if not isinstance(other, Poly2):
            return NotImplemented
        return _mul_poly2(self, other)

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar) -> "Poly2":
        c = _as_fraction(c)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / c)

    def __pow__(self, k: int) -> "Poly2":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a nonnegative int")
        result = Poly2.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- calculus ----------------------------------------------------------

    def derivative_x(self) -> "Poly2":
        return Poly2(
            {(m.i, m.j - 1): c * m.j for m, c in self._terms.items() if m.j}
        )

    def derivative_y(self) -> "Poly2":
        return Poly2(
            {(m.i - 1, m.j): c * m.i for m, c in self._terms.items() if m.i}
        )

    # -- substitution ------------------------------------------------------

    def substitute2(self, a: "Poly2", b: "Poly2") -> "Poly2":
        """Evaluate at x := a, y := b (both in K[x, y])."""
        return _substitute(self, a, b, Poly2.const)

    def substitute1(self, s: "UniPoly", t: "UniPoly") -> "UniPoly":
        """Evaluate at x := s(z), y := t(z), landing in K[z]."""
        return _substitute(self, s, t, UniPoly.const)

    # -- printing ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: terms descending in lex order, exact coefficients."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for m in sorted(self._terms, key=Monomial.lex_key, reverse=True):
            c = self._terms[m]
            body = _term_text(c, _mono_text(m))
            if not parts:
                parts.append(body if c > 0 else "-" + body.lstrip())
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly2({self.to_text()!r})"


def _wrap_poly2(terms: dict[Monomial, Fraction]) -> Poly2:
    p = Poly2.__new__(Poly2)
    p._terms = terms
    return p


def _coerce_poly2(value: "Poly2 | Scalar") -> Poly2:
    if isinstance(value, Poly2):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly2.const(value)
    return NotImplemented  # type: ignore[return-value]


def _int_core(terms: Mapping[Monomial, Fraction]) -> tuple[dict[Monomial, int], int]:
    """Clear denominators: returns (integer terms, common denominator)."""
    den = 1
    for c in terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _mul_poly2(a: Poly2, b: Poly2) -> Poly2:
    if not a._terms or not b._terms:
        return Poly2()
    # Integer convolution with one denominator clearing keeps Fraction
    # normalization out of the inner loop.
    na, da = _int_core(a._terms)
    nb, db = _int_core(b._terms)
    acc: dict[Monomial, int] = {}
    for ma, ca in na.items():
        for mb, cb in nb.items():
            m = Monomial(ma.i + mb.i, ma.j + mb.j)
            acc[m] = acc.get(m, 0) + ca * cb
    den = da * db
    return _wrap_poly2(
        {m: Fraction(n, den) for m, n in acc.items() if n}
    )


def _substitute(p: Poly2, a, b, const):
    """p at x := a, y := b, where a and b lie in the ring whose constants
    ``const`` builds: sparse Horner in y inside each x-power, then in x."""
    by_j: dict[int, list] = {}
    for m, c in p._terms.items():
        by_j.setdefault(m.j, []).append((m.i, const(c)))
    inner = [(j, _horner(pairs, b)) for j, pairs in by_j.items()]
    return _horner(inner, a) if inner else const(0)


def _horner(pairs: list, arg):
    """Sparse Horner evaluation of sum(c * arg**e) over nonempty (e, c)
    pairs, with c in the ring of arg.  ``_substitute`` needs it beside the
    dense :func:`horner`: its exponents have gaps, and its coefficients
    are ring elements (inner Horner values), not scalars."""
    pairs = sorted(pairs, key=lambda ec: ec[0], reverse=True)
    acc = pairs[0][1]
    prev = pairs[0][0]
    for e, c in pairs[1:]:
        acc = acc * (arg ** (prev - e)) + c
        prev = e
    if prev:
        acc = acc * (arg**prev)
    return acc


def horner(coeffs: Sequence, arg, acc):
    """Dense Horner evaluation of sum(coeffs[k] * arg**k), constant term
    first; ``acc`` is the zero of arg's ring (0 for integers)."""
    for c in reversed(coeffs):
        acc = acc * arg + c
    return acc


class UniPoly:
    """Dense exact polynomial in K[z]; index k holds the z**k coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        vals = [_as_fraction(c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        self._coeffs = tuple(vals)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def const(c: Scalar) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def var_z() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def from_terms(terms: Mapping[int, Scalar]) -> "UniPoly":
        if not terms:
            return UniPoly()
        top = max(terms)
        if top < 0 or min(terms) < 0:
            raise ValueError("negative exponent")
        coeffs = [Fraction(0)] * (top + 1)
        for e, c in terms.items():
            coeffs[e] += _as_fraction(c)
        return UniPoly(coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def deg(self) -> int | float:
        if not self._coeffs:
            return MINUS_INF
        return len(self._coeffs) - 1

    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _coerce_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return UniPoly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self._coeffs])

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _coerce_unipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self._coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for ka, ca in enumerate(self._coeffs):
            if not ca:
                continue
            for kb, cb in enumerate(other._coeffs):
                if cb:
                    out[ka + kb] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar) -> "UniPoly":
        c = _as_fraction(c)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / c)

    def __pow__(self, k: int) -> "UniPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a nonnegative int")
        result = UniPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact euclidean division over the rationals."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        dn = len(other._coeffs) - 1
        lc = other._coeffs[-1]
        if len(rem) <= dn:
            return UniPoly(), self
        quo = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c / lc
            quo[k - dn] = q
            for idx in range(dn + 1):
                rem[k - dn + idx] -= q * other._coeffs[idx]
        return UniPoly(quo), UniPoly(rem)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(z)), by Horner."""
        return horner(self._coeffs, inner, UniPoly())

    def eval_at_poly(self, p: Poly2) -> Poly2:
        """self(p) inside K[x, y]."""
        return horner(self._coeffs, p, Poly2())

    def to_text(self, var: str = "z") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[e]
            if not c:
                continue
            body = _term_text(c, _power_text(var, e))
            if not parts:
                parts.append(body if c > 0 else "-" + body.lstrip())
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()!r})"


def _coerce_unipoly(value: "UniPoly | Scalar") -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly.const(value)
    return NotImplemented  # type: ignore[return-value]


def substitute2(p: Poly2, a: Poly2, b: Poly2) -> Poly2:
    """Functional form of :meth:`Poly2.substitute2`."""
    return p.substitute2(a, b)


def substitute1(p: Poly2, s: UniPoly, t: UniPoly) -> UniPoly:
    """Functional form of :meth:`Poly2.substitute1`."""
    return p.substitute1(s, t)


def try_sqrt(p: Poly2) -> Optional[Poly2]:
    """Exact square root in K[x, y], or None when p is not a square.

    Works greedily down the lex order: each step determines the next term
    of the root from the leading term of the residual, which strictly
    decreases in the (well ordered) lex order, so the loop terminates.
    """
    if p.is_zero():
        return Poly2()
    lm = p.leading_monomial()
    if lm.i % 2 or lm.j % 2:
        return None
    lc_root = _sqrt_fraction(p.leading_coefficient())
    if lc_root is None:
        return None
    root = Poly2.monomial(lm.i // 2, lm.j // 2, lc_root)
    residual = p - root * root
    root_lm = Monomial(lm.i // 2, lm.j // 2)
    while not residual.is_zero():
        rm = residual.leading_monomial()
        di, dj = rm.i - root_lm.i, rm.j - root_lm.j
        if di < 0 or dj < 0:
            return None
        u = Poly2.monomial(
            di, dj, residual.leading_coefficient() / (2 * lc_root)
        )
        residual = residual - u * (2 * root + u)
        root = root + u
    return root


def _term_text(c: Fraction, mono: str) -> str:
    mag = abs(c)
    if not mono:
        return str(mag)
    if mag == 1:
        return mono
    return f"{mag}*{mono}"


def _power_text(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _mono_text(m: Monomial) -> str:
    xs = _power_text("x", m.j)
    ys = _power_text("y", m.i)
    if xs and ys:
        return f"{xs}*{ys}"
    return xs or ys
