"""Retract generators of K[x, y]: verification, construction, and search.

A nonconstant p generates a proper retract exactly when some univariate
pair (s, t) satisfies p(s(z), t(z)) = z; the pair is the certificate, and
pi = (s(p), t(p)) is the induced idempotent retraction.

``is_retract_generator_bounded`` is an honest semidecision: Yes carries the
first certificate under a fixed deterministic enumeration (degree sum
ascending, then deg s ascending, then the canonical coefficient order
0, 1, -1, 2, -2, ... read constant term first); a negative answer only
says no certificate was found with both degrees within the bound, with
enumerated coefficients drawn from the finite search set.  Sides obtained
by exact linear elimination are not grid limited.

When both sides are enumerated, a candidate is decided without building
p(s(z), t(z)): the difference z - p(s(z), t(z)) has degree at most
D = max(top, 1), where top is p's largest weighted degree i*deg(t) +
j*deg(s) over its monomials y^i x^j, and a nonzero polynomial of degree at
most D has at most D roots.  So the identity holds exactly when it holds at
D + 1 distinct integers, which is checked in integer arithmetic after
clearing denominators once per cell.  The returned pair is still verified
symbolically before it is reported.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .endo_algebra import Endo, TameAuto, compose
from .errors import InternalCheckError
from .poly_core import Monomial, Poly2, UniPoly, _int_core, horner, try_sqrt

log = logging.getLogger(__name__)

#: Default finite coefficient set for enumerated sides, in enumeration order.
CANONICAL_COEFFS: tuple[int, ...] = (0, 1, -1, 2, -2)

_Z = UniPoly.var_z()


def retract_image(p: Poly2, s: UniPoly, t: UniPoly) -> UniPoly:
    """p(s(z), t(z)) for a nonconstant p; a constant p raises."""
    if p.is_constant():
        raise ValueError("constant generates no proper retract")
    return p.substitute1(s, t)


def verify_retract_generator(p: Poly2, s: UniPoly, t: UniPoly) -> bool:
    """Does (s, t) certify p, i.e. p(s(z), t(z)) = z exactly?"""
    return retract_image(p, s, t) == _Z


@dataclass(frozen=True)
class Retraction:
    """A certified retract generator: p with p(s(z), t(z)) = z.

    The substitution identity is asserted at construction.  It makes
    (s(p), t(p)) idempotent because substitution is a ring homomorphism
    (see :func:`retraction_endo`), so no composition is checked here.
    """

    s: UniPoly
    t: UniPoly
    p: Poly2

    def __post_init__(self):
        if not verify_retract_generator(self.p, self.s, self.t):
            raise ValueError("pair (s, t) does not certify p")

    def to_obj(self) -> dict:
        return {
            "p": self.p.to_text(),
            "s": self.s.to_text(),
            "t": self.t.to_text(),
        }


def retraction_endo(r: Retraction) -> Endo:
    """The idempotent endomorphism pi = (s(p), t(p)) fixing p.

    Idempotency follows exactly from the certificate identity p(s, t) = z,
    which the Retraction constructor asserted: pi applied to pi's first
    component is s evaluated at p(s(p), t(p)), and the inner polynomial is
    (p(s, t)) evaluated at z := p, which is p itself.  Components of
    degree at most 8 are also checked by direct composition.
    """
    pf = r.s.eval_at_poly(r.p)
    pg = r.t.eval_at_poly(r.p)
    pi = Endo(pf, pg)
    if max(pf.deg(), pg.deg(), 0) <= 8:
        if compose(pi, pi) != pi:
            raise InternalCheckError("retraction endomorphism not idempotent")
        if pi.apply(r.p) != r.p:
            raise InternalCheckError("retraction endomorphism moves p")
    return pi


# ------------------------------------------------------------ certificates


@dataclass(frozen=True)
class RetractCertificate:
    """How a polynomial p is known to generate a retract.

    kind "normal-form": p = x + y*h itself, certified by (z, 0);
    kind "conjugated": sigma(p) = x + y*h, certificate transported
    through sigma; kind "direct": a substitution pair given outright.
    Every kind must reconstruct a valid Retraction, checked at
    construction.
    """

    p: Poly2
    kind: str
    h: Optional[Poly2] = None
    sigma: Optional[TameAuto] = None
    s: Optional[UniPoly] = None
    t: Optional[UniPoly] = None

    def __post_init__(self):
        object.__setattr__(self, "_retraction", self._build_retraction())

    @staticmethod
    def normal_form(h: Poly2) -> "RetractCertificate":
        p = Poly2.var_x() + Poly2.var_y() * h
        return RetractCertificate(p, "normal-form", h=h, sigma=TameAuto(()))

    @staticmethod
    def conjugated(
        p: Poly2, sigma: TameAuto, h: Poly2
    ) -> "RetractCertificate":
        return RetractCertificate(p, "conjugated", h=h, sigma=sigma)

    @staticmethod
    def direct(p: Poly2, s: UniPoly, t: UniPoly) -> "RetractCertificate":
        return RetractCertificate(p, "direct", s=s, t=t)

    def to_retraction(self) -> Retraction:
        return self._retraction

    def _build_retraction(self) -> Retraction:
        if self.kind == "direct":
            if self.s is None or self.t is None:
                raise ValueError("direct certificate needs both s and t")
            return Retraction(s=self.s, t=self.t, p=self.p)
        if self.kind not in ("normal-form", "conjugated"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.sigma is None or self.h is None:
            raise ValueError(f"{self.kind} certificate needs sigma and h")
        normal = Poly2.var_x() + Poly2.var_y() * self.h
        # sigma is invertible, so sigma(p) = x + y*h iff p is the inverse
        # image of the normal form; the latter is the cheap direction
        if self.sigma.inverse().to_endo().apply(normal) != self.p:
            raise ValueError("sigma does not carry p to x + y*h")
        return self._transport(self.sigma.to_endo())

    def _transport(self, sig: Endo) -> Retraction:
        """The normal form's certificate (z, 0) carried through sigma."""
        zero = UniPoly.zero()
        return Retraction(
            s=sig.f.substitute1(_Z, zero),
            t=sig.g.substitute1(_Z, zero),
            p=self.p,
        )

    @staticmethod
    def _transported(
        p: Poly2, sigma: TameAuto, sig: Endo, h: Poly2
    ) -> "RetractCertificate":
        """Conjugated certificate for p as make_retract_generator computed
        it, p = sigma^-1(x + y*h) with sig = sigma.to_endo().  The
        constructor's conjugacy check would recompute p from itself, so it
        is skipped; the Retraction still checks the transported pair."""
        cert = object.__new__(RetractCertificate)
        fields = dict(p=p, kind="conjugated", h=h, sigma=sigma, s=None, t=None)
        for name, value in fields.items():
            object.__setattr__(cert, name, value)
        object.__setattr__(cert, "_retraction", cert._transport(sig))
        return cert


def make_retract_generator(sigma: TameAuto, h: Poly2) -> RetractCertificate:
    """Manufacture the retract generator p with sigma(p) = x + y*h.

    The normal form x + y*h has certificate (z, 0), so the transported
    certificate is sigma's component pair evaluated at (z, 0).  The result
    is fully validated before return; a validation failure indicates an
    internal bug and raises instead of being returned as data.
    """
    if isinstance(h, (int, Fraction)):
        h = Poly2.const(h)
    try:
        sig = sigma.to_endo()
        if sig.is_identity():
            return RetractCertificate.normal_form(h)
        q = Poly2.var_x() + Poly2.var_y() * h
        p = sigma.inverse().to_endo().apply(q)
        # the Retraction validates the substitution identity; any failure
        # here is a transport bug
        return RetractCertificate._transported(p, sigma, sig, h)
    except ValueError as exc:
        raise InternalCheckError(f"transport failed: {exc}") from exc


# ---------------------------------------------------------- bounded search


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the bounded certificate search: Yes(s, t) or NoUpTo."""

    found: bool
    s: Optional[UniPoly]
    t: Optional[UniPoly]
    max_deg: int
    reason: str

    def __bool__(self) -> bool:
        return self.found


def _coeff_tuples(deg: int, scalars: Sequence) -> Iterator[tuple]:
    """Coefficient tuples (constant term first) of degree exactly deg, with
    constants including zero for deg 0, lexicographic over the scalar
    sequence, constant term varying slowest."""
    if deg == 0:
        for c in scalars:
            yield (c,)
        return
    nonzero = [c for c in scalars if c]
    for body in itertools.product(scalars, repeat=deg):
        for lead in nonzero:
            yield body + (lead,)


def _coeff_vectors(deg: int, scalars: Sequence[Fraction]) -> Iterator[UniPoly]:
    """The polynomials of ``_coeff_tuples``, in the same order."""
    return map(UniPoly, _coeff_tuples(deg, scalars))


def _cell_matches(u: UniPoly, d: int) -> bool:
    return u.deg() == d if d else u.is_constant()


def is_retract_generator_bounded(
    p: Poly2,
    max_deg: int,
    coeff_set: Sequence[int | Fraction] = CANONICAL_COEFFS,
) -> SearchResult:
    """Search for a certificate with deg(s), deg(t) <= max_deg.

    Per degree cell, visited in the documented order: when p is linear in
    y (or x), the free side is enumerated over the coefficient set and the
    other side is solved by exact division; otherwise both sides are
    enumerated, after a leading-coefficient analysis discards cells whose
    image degree provably exceeds 1.
    """
    if p.is_constant():
        raise ValueError("constant generates no proper retract")
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    scalars = tuple(Fraction(c) for c in coeff_set)
    if not any(scalars):
        raise ValueError("coefficient set needs a nonzero element")

    for sign in (1, -1):
        if try_sqrt(sign * p) is not None:
            return SearchResult(
                False,
                None,
                None,
                max_deg,
                "perfect square up to sign; a square image is never z",
            )

    linear_y = p.deg_y() == 1
    linear_x = not linear_y and p.deg_x() == 1

    for total in range(0, 2 * max_deg + 1):
        for ds in range(max(0, total - max_deg), min(total, max_deg) + 1):
            dt = total - ds
            if linear_y or linear_x:
                hit = _solve_linear_cell(p, ds, dt, scalars, in_y=linear_y)
            else:
                hit = _solve_grid_cell(p, ds, dt, scalars)
            if hit is not None:
                s, t = hit
                if not verify_retract_generator(p, s, t):
                    raise InternalCheckError(
                        "search returned a bad certificate"
                    )
                log.debug("certificate at cell (%d, %d)", ds, dt)
                return SearchResult(True, s, t, max_deg, "certificate found")
    grid = "{" + ", ".join(str(c) for c in scalars) + "}"
    return SearchResult(
        False,
        None,
        None,
        max_deg,
        f"no certificate with both degrees <= {max_deg} and enumerated "
        f"coefficients from {grid}",
    )


def _linear_split(p: Poly2, in_y: bool) -> tuple[UniPoly, UniPoly]:
    """For p = A + v*B with v the linear variable, return (A, B) as
    univariate polynomials in the other variable."""
    if in_y:
        return (
            p.y_coefficient(0).as_unipoly_in_x(),
            p.y_coefficient(1).as_unipoly_in_x(),
        )
    return (
        p.x_coefficient(0).as_unipoly_in_y(),
        p.x_coefficient(1).as_unipoly_in_y(),
    )


def _solve_linear_cell(
    p: Poly2,
    ds: int,
    dt: int,
    scalars: Sequence[Fraction],
    in_y: bool,
) -> Optional[tuple[UniPoly, UniPoly]]:
    """Cell solver for p = A + v*B: enumerate the free side, divide for the
    other; accept only when the solved side lands in this cell."""
    a_poly, b_poly = _linear_split(p, in_y)
    free_deg, solved_deg = (ds, dt) if in_y else (dt, ds)
    for free in _coeff_vectors(free_deg, scalars):
        b_val = b_poly.compose(free)
        if b_val.is_zero():
            # p is linear in v, so B is nonzero and B(free) = 0 forces a
            # constant free side; then A(free) is constant, never z
            continue
        quo, rem = divmod(_Z - a_poly.compose(free), b_val)
        if rem.is_zero() and _cell_matches(quo, solved_deg):
            return (free, quo) if in_y else (quo, free)
    return None


def _solve_grid_cell(
    p: Poly2, ds: int, dt: int, scalars: Sequence[Fraction]
) -> Optional[tuple[UniPoly, UniPoly]]:
    """First pair (s, t) of the cell with deg s = ds, deg t = dt, in the
    documented order, such that p(s, t) = z.

    With both sides nonconstant, p(s(z), t(z)) has degree at most the top
    weighted degree max(j*ds + i*dt) over the monomials y^i x^j of p, so
    z - p(s, t) has degree at most D = max(top, 1).  A nonzero polynomial
    of degree at most D has at most D roots, so each candidate is decided
    exactly by its values at D + 1 distinct integers, in integer
    arithmetic (``_IntImage``); only the returned pair becomes UniPolys.
    """
    if ds == 0 and dt == 0:
        return None  # constant image is never z
    if dt == 0 or ds == 0:
        # one side constant: the image is a univariate composition whose
        # degree multiplies, so the varying side must be linear and the
        # specialized p must be linear too; solve it exactly
        if (dt == 0 and ds != 1) or (ds == 0 and dt != 1):
            return None
        for c in scalars:
            if dt == 0:
                q1 = p.substitute2(
                    Poly2.var_x(), Poly2.const(c)
                ).as_unipoly_in_x()
            else:
                q1 = p.substitute2(
                    Poly2.const(c), Poly2.var_y()
                ).as_unipoly_in_y()
            if q1.deg() == 1:
                solved = (_Z - q1.coefficient(0)) / q1.coefficient(1)
                const = UniPoly((c,))
                return (solved, const) if dt == 0 else (const, solved)
        return None
    # both sides nonconstant: prune on the top weighted-degree coefficient
    weights = {m: m.i * dt + m.j * ds for m, _ in p.items()}
    top = max(weights.values())
    image = _IntImage(p, scalars, max(top, 1))
    tops = [(m, n) for m, n in image.terms.items() if weights[m] == top]
    nonzero = [k for k in image.ints if k]
    allowed: Optional[set[tuple[int, int]]] = None
    if top != 1:
        # image degree stays at top unless the leading coefficients cancel
        allowed = {
            (ls, lt)
            for ls in nonzero
            for lt in nonzero
            if not sum(n * lt**m.i * ls**m.j for m, n in tops)
        }
    hit, tried, pruned = _search_cell(image, ds, dt, allowed)
    log.debug(
        "grid cell (%d, %d): %d points, %d candidates tried, %d pruned by "
        "the leading pair",
        ds,
        dt,
        len(image.points),
        tried,
        pruned,
    )
    if hit is None:
        return None
    return image.side(hit[0]), image.side(hit[1])


class _IntImage:
    """p(s, t) - z over integers, for sides s = S/L and t = T/L with S and T
    integer tuples, read at fixed distinct integer points.

    L is the lcm of the coefficient set's denominators and p = P/den with P
    integral (``_int_core``).  Multiplying by den * L^deg(p) gives

        sum_m P_m * L^(deg(p) - i - j) * S^j * T^i  -  den * L^deg(p) * z

    over the monomials m = y^i x^j of p: integer coefficients throughout,
    with the same roots as p(s, t) - z.  A plain slotted class: a dataclass
    would cost about a millisecond at every import.
    """

    __slots__ = ("scale", "ints", "terms", "z_coeff", "points")

    def __init__(self, p: Poly2, scalars: Sequence[Fraction], degree: int):
        """The integer form for a cell whose p(s, t) - z has degree at most
        ``degree``: one point more than that decides it.  The points avoid
        0 and +-1, where small-coefficient polynomials often agree."""
        num, den = _int_core(dict(p.items()))
        deg = p.deg()
        self.scale = math.lcm(*(c.denominator for c in scalars))  # L
        # the coefficient set times L, in its order
        self.ints = tuple((c * self.scale).numerator for c in scalars)
        self.terms: dict[Monomial, int] = {
            m: n * self.scale ** (deg - m.i - m.j) for m, n in num.items()
        }
        self.z_coeff = den * self.scale**deg
        self.points = tuple(range(2, degree + 3))

    def row(self, s: tuple[int, ...], a: int) -> list[int]:
        """Coefficients, constant first, of the polynomial R in T with
        R(T) = sum_m P_m * L^(deg(p) - i - j) * S(a)^j * T^i - den*L^deg(p)*a,
        so that R(T(a)) is the scaled p(s, t) - z at z = a."""
        sa = horner(s, a, 0)
        row = [0] * (max(m.i for m in self.terms) + 1)
        for m, n in self.terms.items():
            row[m.i] += n * sa**m.j
        row[0] -= self.z_coeff * a
        return row

    def side(self, coeffs: tuple[int, ...]) -> UniPoly:
        return UniPoly(Fraction(k, self.scale) for k in coeffs)


def _search_cell(
    image: _IntImage,
    ds: int,
    dt: int,
    allowed: Optional[set[tuple[int, int]]],
) -> tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]], int, int]:
    """First (S, T) in the documented order, with deg S = ds, deg T = dt,
    whose leading pair is allowed (any, when allowed is None) and with
    p(s, t) = z; with the numbers of candidates tried and pruned.

    T is walked as a body (all but its leading coefficient) and a lead, so
    T at the first point costs one Horner pass per body, not per lead."""
    nonzero = [k for k in image.ints if k]
    t_leads = {
        ls: [lt for lt in nonzero if allowed is None or (ls, lt) in allowed]
        for ls in nonzero
    }
    t_bodies = len(image.ints) ** dt
    if not any(t_leads.values()):
        s_count = len(image.ints) ** ds * len(nonzero)
        return None, 0, s_count * t_bodies * len(nonzero)
    first = image.points[0]
    first_top = first**dt
    tried = pruned = 0
    for s in _coeff_tuples(ds, image.ints):
        leads = t_leads[s[-1]]
        pruned += (len(nonzero) - len(leads)) * t_bodies
        if not leads:
            continue
        s_rows: list[list[int]] = []
        for body in itertools.product(image.ints, repeat=dt):
            body_at_first = horner(body, first, 0)
            for lt in leads:
                tried += 1
                t = body + (lt,)
                if _evaluates_to_z(
                    image, s, s_rows, t, body_at_first + lt * first_top
                ):
                    return (s, t), tried, pruned
    return None, tried, pruned


def _evaluates_to_z(
    image: _IntImage,
    s: tuple[int, ...],
    s_rows: list[list[int]],
    t: tuple[int, ...],
    t_at_first: int,
) -> bool:
    """Is p(s, t) = z?  The scaled p(s, t) - z is read at image.points in
    order, stopping at the first nonzero value.  It has degree below the
    number of points, so vanishing at all of them makes it zero.

    s_rows caches ``image.row(s, a)`` per point for the current s, and
    t_at_first is T at the first point."""
    for k, a in enumerate(image.points):
        if k == len(s_rows):
            s_rows.append(image.row(s, a))
        if horner(s_rows[k], horner(t, a, 0) if k else t_at_first, 0):
            return False
    return True


# ------------------------------------------------------------ span test


@dataclass(frozen=True)
class SpanResult:
    """Does z lie in the K-linear span of the bounded power products?"""

    generates: bool
    bound: int

    def __bool__(self) -> bool:
        return self.generates


def generates_kz(s: UniPoly, t: UniPoly, bound: int) -> SpanResult:
    """Decide z in span{s^i * t^j : i*deg(s) + j*deg(t) <= bound} exactly.

    Yes is conclusive for K[s, t] = K[z]; a negative answer is only "not
    within this bound".  Constants contribute weight 0, and powers above 1
    of a constant are redundant, so their exponents are capped at 1.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    ds = s.deg() if not s.is_constant() else 0
    dt = t.deg() if not t.is_constant() else 0
    i_max = bound // ds if ds else 1
    j_max = bound // dt if dt else 1
    s_pows = [UniPoly.const(1)]
    for _ in range(i_max):
        s_pows.append(s_pows[-1] * s)
    t_pows = [UniPoly.const(1)]
    for _ in range(j_max):
        t_pows.append(t_pows[-1] * t)
    products = [
        s_pows[i] * t_pows[j]
        for i in range(i_max + 1)
        for j in range(j_max + 1)
        if i * ds + j * dt <= bound
    ]
    # gaussian elimination over the exact rationals
    dim = bound + 1
    basis: dict[int, list[Fraction]] = {}

    def reduce_vec(vec: list[Fraction]) -> list[Fraction]:
        for pivot in sorted(basis, reverse=True):
            if vec[pivot]:
                factor = vec[pivot]
                row = basis[pivot]
                vec = [a - factor * b for a, b in zip(vec, row)]
        return vec

    for prod in products:
        if prod.is_zero() or prod.deg() > bound:
            continue
        vec = reduce_vec([prod.coefficient(k) for k in range(dim)])
        lead = max((k for k in range(dim) if vec[k]), default=None)
        if lead is not None:
            inv = vec[lead]
            basis[lead] = [a / inv for a in vec]
    target = reduce_vec([Fraction(int(k == 1)) for k in range(dim)])
    return SpanResult(not any(target), bound)
