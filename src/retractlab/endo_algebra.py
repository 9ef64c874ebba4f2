"""Endomorphisms of K[x, y], tame factorizations, and the automorphism test.

An :class:`Endo` is the pair (f, g) of images of x and y.  Applying it to a
polynomial substitutes that pair; composition follows the ring convention

    compose(outer, inner)(p) = outer(inner(p)),

so the components of the composite are the inner components with the outer
pair substituted in.  A dedicated unit test pins this convention against
the swap identity compose((y, x), (y, x*h)) = (x, y*h(y, x)) and against
the normal-form equation used by the reduction machinery; do not flip it.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InternalCheckError
from .parsing import parse_unipoly
from .poly_core import Poly2, UniPoly

log = logging.getLogger(__name__)


def unipoly_in_y(u: UniPoly) -> Poly2:
    """Lift a univariate polynomial to K[x, y] in the variable y."""
    return Poly2({(k, 0): c for k, c in enumerate(u.coeffs)})


def unipoly_in_x(u: UniPoly) -> Poly2:
    """Lift a univariate polynomial to K[x, y] in the variable x."""
    return Poly2({(0, k): c for k, c in enumerate(u.coeffs)})


@dataclass(frozen=True)
class Endo:
    """Ring endomorphism of K[x, y], stored as the images (f, g) of (x, y)."""

    f: Poly2
    g: Poly2

    @staticmethod
    def identity() -> "Endo":
        return Endo(Poly2.var_x(), Poly2.var_y())

    def apply(self, p: Poly2) -> Poly2:
        """Image of p under this endomorphism: p with x := f, y := g."""
        return p.substitute2(self.f, self.g)

    def is_identity(self) -> bool:
        return self.f == Poly2.var_x() and self.g == Poly2.var_y()

    def __str__(self) -> str:
        return f"({self.f.to_text()}, {self.g.to_text()})"


def compose(outer: Endo, inner: Endo) -> Endo:
    """outer after inner: (outer o inner)(p) = outer(inner(p))."""
    return Endo(outer.apply(inner.f), outer.apply(inner.g))


def jacobian(e: Endo) -> Poly2:
    """Jacobian determinant f_x * g_y - f_y * g_x."""
    return (
        e.f.derivative_x() * e.g.derivative_y()
        - e.f.derivative_y() * e.g.derivative_x()
    )


# --------------------------------------------------------------- moves


@dataclass(frozen=True)
class ElemX:
    """(x, y) -> (x + u(y), y)."""

    u: UniPoly

    def to_endo(self) -> Endo:
        return Endo(Poly2.var_x() + unipoly_in_y(self.u), Poly2.var_y())

    def inverse(self) -> "ElemX":
        return ElemX(-self.u)


@dataclass(frozen=True)
class ElemY:
    """(x, y) -> (x, y + u(x))."""

    u: UniPoly

    def to_endo(self) -> Endo:
        return Endo(Poly2.var_x(), Poly2.var_y() + unipoly_in_x(self.u))

    def inverse(self) -> "ElemY":
        return ElemY(-self.u)


@dataclass(frozen=True)
class Affine:
    """(x, y) -> (m00*x + m01*y + b0, m10*x + m11*y + b1), m invertible."""

    m: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    b: tuple[Fraction, Fraction]

    def __post_init__(self):
        m = tuple(tuple(Fraction(v) for v in row) for row in self.m)
        b = tuple(Fraction(v) for v in self.b)
        if len(m) != 2 or any(len(row) != 2 for row in m) or len(b) != 2:
            raise ValueError("affine move needs a 2x2 matrix and 2-vector")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "b", b)
        if self.det() == 0:
            raise ValueError("affine move must be invertible")

    def det(self) -> Fraction:
        return self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]

    def to_endo(self) -> Endo:
        x, y = Poly2.var_x(), Poly2.var_y()
        return Endo(
            self.m[0][0] * x + self.m[0][1] * y + self.b[0],
            self.m[1][0] * x + self.m[1][1] * y + self.b[1],
        )

    def inverse(self) -> "Affine":
        d = self.det()
        inv = (
            (self.m[1][1] / d, -self.m[0][1] / d),
            (-self.m[1][0] / d, self.m[0][0] / d),
        )
        b = (
            -(inv[0][0] * self.b[0] + inv[0][1] * self.b[1]),
            -(inv[1][0] * self.b[0] + inv[1][1] * self.b[1]),
        )
        return Affine(inv, b)


Move = Union[ElemX, ElemY, Affine]


def lower(pair: tuple, low: int, k: int, c: Fraction) -> tuple:
    """The step both reduction engines share: pair with c * pair[1 - low]**k
    subtracted from pair[low], and the right move (ElemX, ElemY)[low] of
    -c*z^k that does it, so the other component is untouched."""
    comps = list(pair)
    comps[low] = pair[low] - c * pair[1 - low] ** k
    return tuple(comps), (ElemX, ElemY)[low](UniPoly.from_terms({k: -c}))


def _fraction_to_json(c: Fraction):
    return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _fraction_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError("expected a number, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"cannot read rational from {v!r}")


def move_to_obj(move: Move) -> dict:
    if isinstance(move, ElemX):
        return {"elemX": move.u.to_text("y")}
    if isinstance(move, ElemY):
        return {"elemY": move.u.to_text("x")}
    if isinstance(move, Affine):
        return {
            "affine": {
                "m": [[_fraction_to_json(v) for v in row] for row in move.m],
                "b": [_fraction_to_json(v) for v in move.b],
            }
        }
    raise TypeError(f"not a move: {move!r}")


def move_from_obj(obj: dict) -> Move:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"a move is a one-key object, got {obj!r}")
    (kind, payload), = obj.items()
    if kind == "elemX":
        return ElemX(parse_unipoly(payload, var="y"))
    if kind == "elemY":
        return ElemY(parse_unipoly(payload, var="x"))
    if kind == "affine":
        m = tuple(
            tuple(_fraction_from_json(v) for v in row) for row in payload["m"]
        )
        b = tuple(_fraction_from_json(v) for v in payload["b"])
        return Affine(m, b)  # type: ignore[arg-type]
    raise ValueError(f"unknown move kind {kind!r}")


@dataclass(frozen=True)
class TameAuto:
    """A composition of elementary and affine moves.

    ``to_endo`` composes the moves left to right as outermost to innermost:
    to_endo([m0, m1]) = m0 o m1.
    """

    moves: tuple[Move, ...]

    def to_endo(self) -> Endo:
        acc = Endo.identity()
        for move in self.moves:
            acc = compose(acc, move.to_endo())
        return acc

    def inverse(self) -> "TameAuto":
        return TameAuto(tuple(m.inverse() for m in reversed(self.moves)))

    def to_obj(self) -> list[dict]:
        return [move_to_obj(m) for m in self.moves]

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(", ", ": "))

    @staticmethod
    def from_obj(items: list[dict]) -> "TameAuto":
        return TameAuto(tuple(move_from_obj(o) for o in items))

    @staticmethod
    def from_json(text: str) -> "TameAuto":
        items = json.loads(text)
        if not isinstance(items, list):
            raise ValueError("a tame automorphism serializes as a JSON array")
        return TameAuto.from_obj(items)


# ------------------------------------------------------ automorphism test


@dataclass(frozen=True)
class AutoDecision:
    """Outcome of is_automorphism.

    On Yes, ``factorization`` recomposes to the tested endomorphism
    exactly; ``degree_trace`` logs the strictly decreasing total-degree
    sums that witness termination.
    """

    is_automorphism: bool
    factorization: Optional[TameAuto]
    reason: Optional[str]
    degree_trace: tuple[int, ...]


def _proportionality(target: Poly2, base: Poly2) -> Optional[Fraction]:
    """c with target == c * base, if any."""
    if base.is_zero():
        return None
    m = base.leading_monomial()
    c = target.coefficient(m.i, m.j) / base.leading_coefficient()
    if c and target == base * c:
        return c
    return None


def is_automorphism(e: Endo) -> AutoDecision:
    """Decide invertibility and produce a tame factorization on Yes.

    Degree reduction on total-degree leading forms: while some component
    has degree above 1, the bigger component's leading form must be a
    scalar multiple of a power of the smaller one's, and subtracting that
    multiple strictly drops the degree.  Every move is invertible, so the
    verdict is sound in both directions; the final affine part decides.
    """
    jac = jacobian(e)
    if jac.is_zero() or not jac.is_constant():
        return AutoDecision(
            False, None, "jacobian is not a nonzero constant", ()
        )
    cur = e
    applied: list[Move] = []  # right moves, in the order applied
    trace: list[int] = []
    while True:
        if cur.f.is_zero() or cur.g.is_zero():
            raise InternalCheckError(
                "component vanished despite constant nonzero jacobian"
            )
        df, dg = cur.f.deg(), cur.g.deg()
        trace.append(df + dg)
        if len(trace) > 1 and trace[-1] >= trace[-2]:
            raise InternalCheckError("degree failed to decrease")
        if df <= 1 and dg <= 1:
            break
        # index of the component to lower (f by ElemX, g by ElemY)
        low, keep = (0, 1) if df >= dg else (1, 0)
        comps, degs = [cur.f, cur.g], (df, dg)
        big, small, d_big, d_small = comps[low], comps[keep], degs[low], degs[keep]
        if d_small == 0:
            raise InternalCheckError(
                "constant component despite constant nonzero jacobian"
            )
        if d_big % d_small:
            return AutoDecision(
                False,
                None,
                f"component degrees {d_big} and {d_small} do not divide",
                tuple(trace),
            )
        k = d_big // d_small
        c = _proportionality(big.leading_form(), small.leading_form() ** k)
        if c is None:
            return AutoDecision(
                False,
                None,
                "leading forms are not power related",
                tuple(trace),
            )
        log.debug("reduce: deg %s -> subtract %s * small^%s", d_big, c, k)
        comps, move = lower(comps, low, k, c)
        if not (comps[low].deg() < d_big):
            raise InternalCheckError("leading forms failed to cancel")
        cur = Endo(*comps)
        applied.append(move)
    # cur is affine: read off the final move
    m = (
        (cur.f.coefficient(0, 1), cur.f.coefficient(1, 0)),
        (cur.g.coefficient(0, 1), cur.g.coefficient(1, 0)),
    )
    b = (cur.f.coefficient(0, 0), cur.g.coefficient(0, 0))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        return AutoDecision(
            False, None, "affine part is singular", tuple(trace)
        )
    moves: list[Move] = []
    if not cur.is_identity():
        moves.append(Affine(m, b))
    moves.extend(move.inverse() for move in reversed(applied))
    fact = TameAuto(tuple(moves))
    if fact.to_endo() != e:
        raise InternalCheckError("factorization failed to recompose")
    return AutoDecision(True, fact, None, tuple(trace))


# ------------------------------------------------------------- sampling


def random_tame(
    seed_or_rng: int | random.Random,
    n_moves: int = 4,
    deg_bound: int = 3,
    coeff_bound: int = 3,
) -> TameAuto:
    """Seeded random tame automorphism; every output passes is_automorphism."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    if n_moves < 0 or deg_bound < 1 or coeff_bound < 1:
        raise ValueError("n_moves >= 0, deg_bound >= 1, coeff_bound >= 1")

    def coeff() -> int:
        return rng.randint(-coeff_bound, coeff_bound)

    def elem_poly() -> UniPoly:
        # bias low degrees so composites stay desk sized
        d = rng.choice([1] * 3 + [2] * 2 + [3] * 1)
        d = min(d, deg_bound)
        coeffs = [coeff() for _ in range(d)]
        lead = 0
        while lead == 0:
            lead = coeff()
        return UniPoly(coeffs + [lead])

    moves: list[Move] = []
    for _ in range(n_moves):
        kind = rng.choice(["elemX", "elemY", "elemX", "elemY", "affine"])
        if kind == "elemX":
            moves.append(ElemX(elem_poly()))
        elif kind == "elemY":
            moves.append(ElemY(elem_poly()))
        else:
            while True:
                m = ((coeff(), coeff()), (coeff(), coeff()))
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            moves.append(Affine(m, (coeff(), coeff())))  # type: ignore[arg-type]
    return TameAuto(tuple(moves))
