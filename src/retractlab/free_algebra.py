"""Noncommutative polynomials in the letters x, y over Q or a prime field.

Words multiply by concatenation, so xy and yx are distinct monomials and
the commutator xy - yx is nonzero.  The module carries just enough of
the free algebra to verify that the endomorphism (x, y + xy - yx)
deforms a retract generator by an element of the abelianization kernel
while the deformed generator still spans a retract.  Word counts grow
exponentially, so every product is guarded by a hard total-degree cap.

Coefficients are Fractions over Q and ints over F_p, combined with plain
``+``, ``*`` and ``-``.  A field's ``coerce`` is its whole interface: the
NcPoly constructor applies it to every coefficient, so each arithmetic
result is reduced mod p, and zeros dropped, in that one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .poly_core import MINUS_INF, Poly2, UniPoly, horner

#: Hard bound on word length; products beyond it raise instead of growing.
DEGREE_CAP = 12

_LETTERS = {"x", "y"}


class _RationalField:
    """Field tag for exact rational coefficients."""

    name = "Q"

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")

    def __repr__(self) -> str:
        return "RATIONALS"


RATIONALS = _RationalField()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    for d in range(3, math.isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Integers mod p for a prime p; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not 2 <= self.p <= 2**31:
            raise ValueError("prime must be between 2 and 2^31")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"F_{self.p}"

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ValueError(
                    f"denominator {value.denominator} is zero mod {self.p}"
                )
            return value.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


Field = Union[_RationalField, PrimeField]


def _check_word(word: str) -> None:
    if not set(word) <= _LETTERS:
        raise ValueError(f"word {word!r} must use only the letters x and y")
    if len(word) > DEGREE_CAP:
        raise ValueError(
            f"word of length {len(word)} exceeds the degree cap {DEGREE_CAP}"
        )


class NcPoly:
    """Finite field-coefficient combination of words over {x, y}.

    Zero coefficients are never stored, so structural equality is
    semantic equality within a fixed field.
    """

    __slots__ = ("field", "_terms")

    def __init__(self, field: Field, terms: Mapping[str, object] | None = None):
        canon: dict[str, object] = {}
        if terms:
            for word, c in terms.items():
                _check_word(word)
                val = field.coerce(c)
                if val:
                    canon[word] = val
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_terms", canon)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field = RATIONALS) -> "NcPoly":
        return NcPoly(field)

    @staticmethod
    def const(value, field: Field = RATIONALS) -> "NcPoly":
        return NcPoly(field, {"": value})

    @staticmethod
    def word(word: str, field: Field = RATIONALS, c=1) -> "NcPoly":
        return NcPoly(field, {word: c})

    @staticmethod
    def var_x(field: Field = RATIONALS) -> "NcPoly":
        return NcPoly(field, {"x": 1})

    @staticmethod
    def var_y(field: Field = RATIONALS) -> "NcPoly":
        return NcPoly(field, {"y": 1})

    # -- inspection --------------------------------------------------------

    def items(self):
        return iter(self._terms.items())

    @property
    def terms(self) -> Mapping[str, object]:
        return dict(self._terms)

    def coefficient(self, word: str):
        return self._terms.get(word, self.field.coerce(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(w == "" for w in self._terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get("", self.field.coerce(0))

    def deg(self) -> int | float:
        if not self._terms:
            return MINUS_INF
        return max(len(w) for w in self._terms)

    def leading_form(self) -> "NcPoly":
        """The homogeneous part of highest word length."""
        d = self.deg()
        if d == MINUS_INF:
            return NcPoly(self.field)
        return NcPoly(
            self.field, {w: c for w, c in self._terms.items() if len(w) == d}
        )

    # -- ring structure ----------------------------------------------------

    def _require_same_field(self, other: "NcPoly") -> None:
        if self.field != other.field:
            raise ValueError(
                f"mixed fields: {self.field.name} and {other.field.name}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.field == other.field and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.field.name, frozenset(self._terms.items())))

    def __add__(self, other) -> "NcPoly":
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_field(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return NcPoly(self.field, out)

    __radd__ = __add__

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.field, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other) -> "NcPoly":
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "NcPoly":
        return (-self) + other

    def _coerce_operand(self, other):
        if isinstance(other, NcPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return NcPoly.const(other, self.field)
        return NotImplemented

    def __mul__(self, other) -> "NcPoly":
        if isinstance(other, (int, Fraction)):
            scalar = self.field.coerce(other)
            return NcPoly(
                self.field, {w: c * scalar for w, c in self._terms.items()}
            )
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._require_same_field(other)
        out: dict[str, object] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                if len(word) > DEGREE_CAP:
                    raise ValueError(
                        f"product word length {len(word)} exceeds the "
                        f"degree cap {DEGREE_CAP}"
                    )
                out[word] = out.get(word, 0) + c1 * c2
        return NcPoly(self.field, out)

    def __rmul__(self, other) -> "NcPoly":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int) -> "NcPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = NcPoly.const(1, self.field)
        for _ in range(n):
            result = result * self
        return result

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for word in sorted(self._terms, key=lambda w: (-len(w), w)):
            txt = str(self._terms[word])
            negative = txt.startswith("-")
            mag = txt[1:] if negative else txt
            if word == "":
                body = mag
            elif mag == "1":
                body = word
            else:
                body = f"{mag}*{word}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"NcPoly({self.field.name}, {self.to_text()!r})"


@dataclass(frozen=True)
class NcEndo:
    """Endomorphism of the free algebra given by the images of x and y."""

    fx: NcPoly
    fy: NcPoly

    def __post_init__(self):
        if self.fx.field != self.fy.field:
            raise ValueError("images must share a field")

    @property
    def field(self) -> Field:
        return self.fx.field

    @staticmethod
    def identity(field: Field = RATIONALS) -> "NcEndo":
        return NcEndo(NcPoly.var_x(field), NcPoly.var_y(field))

    def apply(self, p: NcPoly) -> NcPoly:
        return nc_substitute(p, self)


def nc_substitute(p: NcPoly, endo: NcEndo) -> NcPoly:
    """Substitute the endomorphism's images for x and y, preserving the
    order of every factor."""
    if p.field != endo.field:
        raise ValueError(
            f"mixed fields: {p.field.name} and {endo.field.name}"
        )
    images = {"x": endo.fx, "y": endo.fy}
    total = NcPoly(p.field)
    for word, c in p.items():
        acc = NcPoly.const(1, p.field)
        for letter in word:
            if acc.is_zero():
                break
            acc = acc * images[letter]
        total = total + acc * c
    return total


def commutator(u: NcPoly, v: NcPoly) -> NcPoly:
    return u * v - v * u


def commute_check(u: NcPoly, v: NcPoly) -> bool:
    """True iff u*v = v*u."""
    return u * v == v * u


def abelianization(p: NcPoly) -> Poly2:
    """Collapse each word to the commutative monomial with the same letter
    counts; defined over the rationals only."""
    if p.field is not RATIONALS:
        raise ValueError(
            "abelianization target is the rational polynomial ring only"
        )
    terms: dict[tuple[int, int], Fraction] = {}
    for word, c in p.items():
        key = (word.count("y"), word.count("x"))
        terms[key] = terms.get(key, Fraction(0)) + c
    return Poly2(terms)


def _commutative_collapse(p: NcPoly) -> NcPoly:
    """Letter-sorted image of p over its own field; kernel matches
    abelianization where both are defined."""
    f = p.field
    out = NcPoly(f)
    for word, c in p.items():
        canon = "x" * word.count("x") + "y" * word.count("y")
        out = out + NcPoly.word(canon, f, c)
    return out


def evaluate_unipoly(u: UniPoly, at: NcPoly) -> NcPoly:
    """Horner evaluation of a univariate polynomial at a free-algebra
    element; coefficients are coerced into the element's field."""
    return horner(u.coeffs, at, NcPoly(at.field))


def deformation_endo(field: Field = RATIONALS) -> NcEndo:
    """The map (x, y + xy - yx): identity modulo the commutator kernel."""
    x = NcPoly.var_x(field)
    y = NcPoly.var_y(field)
    return NcEndo(x, y + commutator(x, y))


@dataclass(frozen=True)
class DeformationReport:
    """Evidence that the deformed generator still spans a retract."""

    r_prime: NcPoly
    shift_in_kernel: bool
    fixes_deformed_generator: bool
    idempotent_on_generators: bool

    @property
    def passed(self) -> bool:
        return (
            self.shift_in_kernel
            and self.fixes_deformed_generator
            and self.idempotent_on_generators
        )

    def to_obj(self) -> dict:
        return {
            "r_prime": self.r_prime.to_text(),
            "shift_in_kernel": self.shift_in_kernel,
            "fixes_deformed_generator": self.fixes_deformed_generator,
            "idempotent_on_generators": self.idempotent_on_generators,
            "passed": self.passed,
        }


def verify_deformed_retraction(
    r: NcPoly, s: UniPoly, t: UniPoly
) -> DeformationReport:
    """Push a certified retract generator through (x, y + xy - yx) and
    check the deformed data still forms a retraction.

    Requires r(s(r), t(r)) = r up front.  Then r' = image of r must
    differ from r by an element of the abelianization kernel, the
    retraction built on r' must fix r', and it must be idempotent on
    both generators.
    """
    field = r.field
    sr = evaluate_unipoly(s, r)
    tr = evaluate_unipoly(t, r)
    if nc_substitute(r, NcEndo(sr, tr)) != r:
        raise ValueError("input is not a retract certificate")
    phi = deformation_endo(field)
    r_prime = phi.apply(r)
    pi_prime = NcEndo(evaluate_unipoly(s, r_prime), evaluate_unipoly(t, r_prime))
    shift = _commutative_collapse(r_prime - r).is_zero()
    fixes = nc_substitute(r_prime, pi_prime) == r_prime
    idem = (
        nc_substitute(pi_prime.fx, pi_prime) == pi_prime.fx
        and nc_substitute(pi_prime.fy, pi_prime) == pi_prime.fy
    )
    return DeformationReport(r_prime, shift, fixes, idem)
