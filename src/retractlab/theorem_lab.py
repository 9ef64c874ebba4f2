"""Machinery for deciding coordinate-to-retract-generator endomorphisms.

The central loop rewrites an endomorphism by elementary and affine moves
until it becomes the identity (proving it is a tame automorphism and
recording the factorization) or provably gets stuck.  Around it sit the
normal form (x + y*h1, y*h2), the witness coordinate family
y + (x + y^M)^2 whose image degree defeats every bounded substitution
pair, and small exact helpers for the leading-monomial arithmetic that
justifies each rewrite.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .endo_algebra import (
    Affine,
    ElemX,
    ElemY,
    Endo,
    TameAuto,
    compose,
    lower,
    move_to_obj,
    random_tame,
)
from .errors import InternalCheckError
from .poly_core import MINUS_INF, Poly2, UniPoly
from .retracts import RetractCertificate, generates_kz, is_retract_generator_bounded

log = logging.getLogger(__name__)

_X = Poly2.var_x()
_Y = Poly2.var_y()
_Z = UniPoly.var_z()


def _nat_deg(d) -> int:
    """Degree as a natural number, treating deg(0) as 0."""
    return 0 if d == MINUS_INF else int(d)


def _strip_y(p: Poly2) -> Poly2:
    """Exact division by y; every monomial must contain y."""
    terms = {}
    for m, c in p.items():
        if m.i < 1:
            raise ValueError("polynomial is not divisible by y")
        terms[(m.i - 1, m.j)] = c
    return Poly2(terms)


def _linear_y_form(p: Poly2) -> bool:
    """Is p exactly a*y + b with a nonzero?"""
    return p.deg_x() <= 0 and p.deg_y() == 1


# ------------------------------------------------------------ normal form


@dataclass(frozen=True)
class NormalizedEndo:
    """An endomorphism together with tame sigma, sigma_prime bringing it to
    the shape (x + y*h1, y*h2) with h2 nonzero; validated at construction."""

    phi: Endo
    sigma: TameAuto
    sigma_prime: TameAuto
    h1: Poly2
    h2: Poly2

    def __post_init__(self):
        if self.h2.is_zero():
            raise ValueError("h2 must be nonzero")
        want = Endo(_X + _Y * self.h1, _Y * self.h2)
        got = compose(
            self.sigma.to_endo(), compose(self.phi, self.sigma_prime.to_endo())
        )
        if got != want:
            raise ValueError(
                "sigma, sigma_prime do not bring phi to (x + y*h1, y*h2)"
            )

    @property
    def normal_form(self) -> Endo:
        return Endo(_X + _Y * self.h1, _Y * self.h2)


def normalize(phi: Endo, f_cert: RetractCertificate) -> NormalizedEndo:
    """Bring phi to the shape (x + y*h1, y*h2) using the certificate's
    conjugating automorphism.

    f_cert must certify phi's first component through a known sigma with
    sigma(f) = x + y*h1.  The second component is pushed through sigma,
    its y-free tail h(x) is removed by sigma_prime = (x, y - h(x)), and
    the leftover must be y*h2 with h2 nonzero; h2 = 0 means the image
    collapses into K[x] and is rejected.
    """
    if f_cert.kind == "direct":
        raise ValueError("need a conjugating certificate, not a direct pair")
    if f_cert.p != phi.f:
        raise ValueError("certificate is not for the first component")
    sigma, h1 = f_cert.sigma, f_cert.h
    sig_endo = sigma.to_endo()
    g_image = sig_endo.apply(phi.g)
    tail = g_image.y_coefficient(0)
    if tail.is_zero():
        sigma_prime = TameAuto(())
    else:
        sigma_prime = TameAuto((ElemY(-tail.as_unipoly_in_x()),))
    normalized = compose(sig_endo, compose(phi, sigma_prime.to_endo()))
    if normalized.f != _X + _Y * h1:
        raise InternalCheckError("first component left the normal form")
    if not normalized.g.y_coefficient(0).is_zero():
        raise InternalCheckError("y-free tail survived normalization")
    h2 = _strip_y(normalized.g)
    if h2.is_zero():
        raise ValueError("image lies in K[x] after normalization")
    return NormalizedEndo(
        phi=phi, sigma=sigma, sigma_prime=sigma_prime, h1=h1, h2=h2
    )


# ------------------------------------------------------- witness machinery


def witness_exponent(h1: Poly2, n: int) -> int:
    """Smallest M with M > max{deg(h1) + 2, n, 1 + (n + 1)*deg(h1)}.

    deg(0) counts as 0 here: the bound only matters when h1 contributes
    terms, and 0 keeps M minimal while every inequality still holds.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = _nat_deg(h1.deg())
    return max(d + 2, n, 1 + (n + 1) * d) + 1


def witness_coordinate(m: int) -> Poly2:
    """The coordinate y + (x + y^m)^2."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _Y + (_X + _Y**m) ** 2


def witness_pair(m: int) -> TameAuto:
    """Elementary factorization whose composite is
    (x + y^m, y + (x + y^m)^2); its second component is the witness."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return TameAuto(
        (ElemX(UniPoly.from_terms({m: 1})), ElemY(UniPoly.from_terms({2: 1})))
    )


def image_of_witness(normalized: NormalizedEndo, m: int) -> Poly2:
    """The witness coordinate pushed through the normal form:
    y*h2 + (x + y*h1 + y^m*h2^m)^2, verified against direct substitution."""
    h1, h2 = normalized.h1, normalized.h2
    closed = _Y * h2 + (_X + _Y * h1 + (_Y * h2) ** m) ** 2
    computed = witness_coordinate(m).substitute2(_X + _Y * h1, _Y * h2)
    if closed != computed:
        raise InternalCheckError("closed form disagrees with substitution")
    return closed


@dataclass(frozen=True)
class InequalityCheck:
    """One named exact comparison from the degree analysis."""

    name: str
    lhs: Fraction | int | float
    rhs: Fraction | int | float
    relation: str
    holds: bool


@dataclass(frozen=True)
class CaseReport:
    """Outcome of the witness degree analysis for one pair (s, t)."""

    case: str
    branch: str
    checks: tuple[InequalityCheck, ...]
    hypotheses_hold: bool
    image_degree: int | float
    image_equals_z: bool
    conclusion: str


def _check(name, lhs, rhs, relation) -> InequalityCheck:
    ops = {
        "<": lhs < rhs,
        "<=": lhs <= rhs,
        "==": lhs == rhs,
        ">=": lhs >= rhs,
    }
    return InequalityCheck(name, lhs, rhs, relation, ops[relation])


def witness_degree_analysis(
    normalized: NormalizedEndo, m: int, s: UniPoly, t: UniPoly
) -> CaseReport:
    """Evaluate the witness image at (s, t) and certify it is never z.

    The image is t*h2(s,t) + (s + t*h1(s,t) + (t*h2(s,t))^m)^2.  When the
    multiplier t*h2(s,t) is constant the image is a shifted square, which
    has even degree and cannot be z.  Otherwise the m-th power dominates
    both s and the h1 part, making the image degree 2*m*deg(t*h2(s,t)),
    at least 2.  Every comparison is reported with exact sides.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if s.is_constant() and t.is_constant():
        raise ValueError("(s, t) must not both be constant")
    h1, h2 = normalized.h1, normalized.h2
    mult = t * h2.substitute1(s, t)  # the y*h2 image
    h1_part = t * h1.substitute1(s, t)  # the y*h1 image
    image = mult + (s + h1_part + mult**m) ** 2

    if t.is_constant():
        case = "t-constant"
    elif s.is_constant():
        case = "s-constant"
    else:
        case = "both-nonconstant"

    ds = _nat_deg(s.deg())
    dt = _nat_deg(t.deg())
    dy1 = _nat_deg(h1.deg_y())
    dx1 = _nat_deg(h1.deg_x())
    image_deg = image.deg()
    image_is_z = image == _Z

    checks = [
        _check(
            "h1-part-degree-bound",
            h1_part.deg() if not h1_part.is_zero() else 0,
            dt * (1 + dy1) + ds * dx1,
            "<=",
        )
    ]
    if mult.is_constant():
        branch = "shifted-square"
        checks.append(
            _check("multiplier-degree", _nat_deg(mult.deg()), 0, "<=")
        )
        checks.append(
            _check(
                "image-degree-even-or-constant",
                image_deg % 2 if image_deg != MINUS_INF and image_deg >= 1 else 0,
                0,
                "==",
            )
        )
        conclusion = (
            "the multiplier is constant, so the image is a constant plus a "
            "square; z has odd degree 1 and is never of that shape"
        )
    else:
        branch = "dominant-power"
        e = int(mult.deg())
        checks.append(
            _check("h1-part-below-power", h1_part.deg(), m * e, "<")
        )
        checks.append(_check("s-below-power", s.deg(), m * e, "<"))
        checks.append(
            _check("image-degree-formula", image_deg, 2 * m * e, "==")
        )
        checks.append(_check("image-degree-at-least-two", image_deg, 2, ">="))
        conclusion = (
            "the m-th power of the multiplier dominates, the image degree "
            f"is 2*m*{e} >= 2, so the image is never z"
        )
    hypotheses_hold = all(c.holds for c in checks)
    return CaseReport(
        case=case,
        branch=branch,
        checks=tuple(checks),
        hypotheses_hold=hypotheses_hold,
        image_degree=image_deg,
        image_equals_z=image_is_z,
        conclusion=conclusion,
    )


# --------------------------------------------------- leading-monomial facts


@dataclass(frozen=True)
class LeadingPair:
    """Exponents of the lex leading monomials y^a*x^b and y^c*x^d."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def from_endo(e: Endo) -> "LeadingPair":
        vf = e.f.leading_monomial()
        vg = e.g.leading_monomial()
        return LeadingPair(vf.i, vf.j, vg.i, vg.j)


@dataclass(frozen=True)
class Dependence:
    """Witness that one leading monomial is the k-th power of the other;
    swapped means the second monomial is the power of the first."""

    k: int
    swapped: bool


def _k_multiple(a: int, b: int, c: int, d: int) -> Optional[int]:
    """Positive k with (a, b) = k*(c, d), if any (smallest such k)."""
    if (c, d) == (0, 0):
        return 1 if (a, b) == (0, 0) else None
    ks = set()
    if c:
        if a % c:
            return None
        ks.add(a // c)
    elif a:
        return None
    if d:
        if b % d:
            return None
        ks.add(b // d)
    elif b:
        return None
    if len(ks) == 1:
        k = ks.pop()
        if k >= 1:
            return k
    return None


def leading_dependence(lp: LeadingPair) -> Optional[Dependence]:
    """k with y^a*x^b = (y^c*x^d)^k, or the swapped relation, or None."""
    k = _k_multiple(lp.a, lp.b, lp.c, lp.d)
    if k is not None:
        return Dependence(k, swapped=False)
    k = _k_multiple(lp.c, lp.d, lp.a, lp.b)
    if k is not None:
        return Dependence(k, swapped=True)
    return None


@dataclass(frozen=True)
class RatioDecomposition:
    """(a + b*m)/(c + d*m) split as k + (a - c*k)/(c + d*m) with k = b/d."""

    value: Fraction
    k: int
    correction: Fraction


def ratio_value(a: int, b: int, c: int, d: int, m) -> RatioDecomposition:
    """Exact evaluation and decomposition of (a + b*m)/(c + d*m)."""
    if d == 0 or b % d:
        raise ValueError(
            "decomposition precondition not met: need d nonzero and d | b"
        )
    m = Fraction(m)
    denom = c + d * m
    if denom == 0:
        raise ValueError("c + d*m must be nonzero")
    k = b // d
    value = Fraction(a + b * m, 1) / denom
    correction = Fraction(a - c * k, 1) / denom
    if value != k + correction:
        raise InternalCheckError("ratio decomposition identity failed")
    return RatioDecomposition(value=value, k=k, correction=correction)


def am_divisibility(d1: int, d2: int) -> bool:
    """Does one of the two degrees divide the other (both >= 1)?"""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees must be at least 1")
    return d1 % d2 == 0 or d2 % d1 == 0


@dataclass(frozen=True)
class RetractionSequenceStats:
    """Degrees of a substitution pair with their exact ratio m = ds/dt."""

    ds: int
    dt: int
    m: Fraction = field(default=None)

    def __post_init__(self):
        if self.ds < 1 or self.dt < 1:
            raise ValueError("ds and dt must be positive")
        ratio = Fraction(self.ds, self.dt)
        if self.m is None:
            object.__setattr__(self, "m", ratio)
        elif self.m != ratio:
            raise ValueError("m must equal ds/dt exactly")


# ----------------------------------------------------------- the reduction


@dataclass(frozen=True)
class Reduced:
    """One successful rewrite: psi composed with move on the right."""

    move: Union[ElemX, ElemY]
    psi: Endo


@dataclass(frozen=True)
class LinearComponent:
    """A component is exactly a*y + b; the loop can finalize."""

    which: str


@dataclass(frozen=True)
class StuckReport:
    """Why no rewrite applies; carries both leading monomials when known."""

    mono_f: Optional[tuple[int, int]]
    mono_g: Optional[tuple[int, int]]
    detail: str

    def to_obj(self) -> dict:
        return {
            "leading_f": list(self.mono_f) if self.mono_f else None,
            "leading_g": list(self.mono_g) if self.mono_g else None,
            "detail": self.detail,
        }


StepResult = Union[Reduced, LinearComponent, StuckReport]


def _mono_text(i: int, j: int) -> str:
    return Poly2.monomial(i, j).to_text()


def _assert_strict_drop(old: Poly2, new: Poly2) -> None:
    if new.is_constant():
        return
    if not new.leading_monomial().lex_key() < old.leading_monomial().lex_key():
        raise InternalCheckError("leading monomial did not decrease")


def reduction_step(psi: Endo) -> StepResult:
    """Try one rewrite of psi = (f, g).

    If a component is exactly a*y + b the caller should finalize.  Else,
    when one leading monomial is a k-th power of the other, subtracting
    the matching multiple of the k-th power of the other component (a
    right elementary move) strictly lowers it.  When neither relation
    holds, no move applies and psi cannot be an automorphism.
    """
    f, g = psi.f, psi.g
    if f.is_constant() or g.is_constant():
        raise ValueError("reduction needs nonconstant components")
    if _linear_y_form(f):
        return LinearComponent("first")
    if _linear_y_form(g):
        return LinearComponent("second")
    lp = LeadingPair.from_endo(psi)
    dep = leading_dependence(lp)
    if dep is None:
        return StuckReport(
            (lp.a, lp.b),
            (lp.c, lp.d),
            "neither leading monomial is a positive power of the other: "
            f"v(f) = {_mono_text(lp.a, lp.b)}, v(g) = {_mono_text(lp.c, lp.d)}",
        )
    # Index of the component to lower: f by a power of g (ElemX), or g by
    # a power of f (ElemY) when the dependence is swapped.
    low, keep = (1, 0) if dep.swapped else (0, 1)
    pair = (f, g)
    c = pair[low].leading_coefficient() / pair[keep].leading_coefficient() ** dep.k
    new_pair, move = lower(pair, low, dep.k, c)
    _assert_strict_drop(pair[low], new_pair[low])
    return Reduced(move, Endo(*new_pair))


@dataclass(frozen=True)
class ReductionOutcome:
    """Automorphism with a factorized inverse trail, stuck, or budget.

    ``moves`` holds the elementary moves the loop applied, in order; on
    an automorphism they open the trail.
    """

    kind: str  # "automorphism" | "stuck" | "budget"
    moves: tuple[Union[ElemX, ElemY], ...]
    trail: Optional[TameAuto] = None
    step: Optional[int] = None
    report: Optional[StuckReport] = None

    @property
    def steps(self) -> int:
        return len(self.moves)

    def __bool__(self) -> bool:
        return self.kind == "automorphism"


_BETA = Affine(((0, 1), (1, 0)), (0, 0))


def _verify_trail(original: Endo, trail: TameAuto) -> None:
    """The trail must be the exact inverse of the original map.

    Move-level inverses are exact and composition telescopes, so
    trail.inverse().to_endo() == original is equivalent to both
    recomposition identities while avoiding the degree blowup of
    expanding trail(original) directly.
    """
    if trail.inverse().to_endo() != original:
        raise InternalCheckError("trail does not invert the map")


def _automorphism(
    original: Endo, moves: tuple, rights: list, lefts: list[Affine]
) -> ReductionOutcome:
    """Outcome once the left moves, the original map and the right moves
    compose to the identity; the trail, rights then lefts reversed, is
    the original map's inverse."""
    trail = TameAuto(tuple(rights) + tuple(reversed(lefts)))
    _verify_trail(original, trail)
    return ReductionOutcome("automorphism", moves, trail=trail)


def _stuck(moves: tuple, report: StuckReport) -> ReductionOutcome:
    """Outcome for an obstruction found after the given moves."""
    return ReductionOutcome("stuck", moves, step=len(moves), report=report)


def run_reduction(psi: Endo, max_steps: int = 200) -> ReductionOutcome:
    """Drive reduction_step to the identity or a definite obstruction.

    At most ``max_steps`` moves are applied; one more yields "budget".
    On success the returned trail is psi's inverse as an explicit tame
    factorization; composing it with psi on either side gives the
    identity, asserted exactly.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    original = psi
    moves: list = []
    while True:
        if psi.is_identity():
            return _automorphism(original, tuple(moves), moves, [])
        if psi.f.is_constant() or psi.g.is_constant():
            return _stuck(
                tuple(moves),
                StuckReport(None, None, "a component is constant; not invertible"),
            )
        result = reduction_step(psi)
        if isinstance(result, Reduced):
            if len(moves) >= max_steps:
                return ReductionOutcome("budget", tuple(moves))
            if log.isEnabledFor(logging.DEBUG):
                log.debug("step %d: %s", len(moves), move_to_obj(result.move))
            moves.append(result.move)
            psi = result.psi
            continue
        if isinstance(result, StuckReport):
            return _stuck(tuple(moves), result)
        return _finalize(original, psi, result, tuple(moves))


def _finalize(
    original: Endo, psi: Endo, slot: LinearComponent, moves: tuple
) -> ReductionOutcome:
    """From a linear a*y + b component, pivot to (x, y*h) and decide."""
    rights: list = list(moves)
    lefts: list[Affine] = []
    if slot.which == "second":
        psi = compose(psi, _BETA.to_endo())
        rights.append(_BETA)
    a = psi.f.coefficient(1, 0)
    b = psi.f.coefficient(0, 0)
    norm = Affine(((1, 0), (0, Fraction(1, 1) / a)), (0, -b / a))
    if not norm.to_endo().is_identity():
        psi = compose(norm.to_endo(), psi)
        lefts.append(norm)
    if psi.f != _Y:
        raise InternalCheckError("normalizing affine failed")
    psi = compose(_BETA.to_endo(), psi)
    lefts.append(_BETA)
    if psi.f != _X:
        raise InternalCheckError("pivot failed")
    tail = psi.g.y_coefficient(0)
    if not tail.is_zero():
        move = ElemY(-tail.as_unipoly_in_x())
        psi = compose(psi, move.to_endo())
        rights.append(move)
    h3 = _strip_y(psi.g)
    if h3.is_zero() or not h3.is_constant():
        h_text = "h = 0" if h3.is_zero() else f"nonconstant h = {h3}"
        return _stuck(
            moves,
            StuckReport(
                None,
                None,
                "after normalization the second component is y*h with "
                f"{h_text}; not an automorphism",
            ),
        )
    c = h3.constant_value()
    final = Affine(((1, 0), (0, c)), (0, 0))
    if psi != final.to_endo():
        raise InternalCheckError("final shape is not (x, c*y)")
    if not final.to_endo().is_identity():
        psi = compose(psi, final.inverse().to_endo())
        rights.append(final.inverse())
    if not psi.is_identity():
        raise InternalCheckError("finalization did not reach the identity")
    return _automorphism(original, moves, rights, lefts)


# ------------------------------------------------------------- transport


def transport_sequence_check(
    psi: Endo, alpha: TameAuto, s: UniPoly, t: UniPoly, bound: int
) -> bool:
    """Do psi and psi composed with alpha give the same span decision?

    The substituted components of psi*alpha are alpha's components
    evaluated at those of psi, and alpha is invertible, so the two
    generated subalgebras of K[z] coincide.  A representation of z can
    still need a larger weighted degree on one side, so when the
    decisions differ at the given bound the failing side retries at
    geometrically inflated bounds, capped by the degrees of alpha, its
    inverse, and the substituted components.  Retries are cheap: the
    side that missed has large component degrees, hence few power
    products at any bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    alpha_endo = alpha.to_endo()
    inv_endo = alpha.inverse().to_endo()
    composed = compose(psi, alpha_endo)
    w1 = psi.f.substitute1(s, t)
    w2 = psi.g.substitute1(s, t)
    u1 = composed.f.substitute1(s, t)
    u2 = composed.g.substitute1(s, t)
    d_w = generates_kz(w1, w2, bound).generates
    d_u = generates_kz(u1, u2, bound).generates
    if d_w == d_u:
        return True
    move_deg = max(
        1,
        _nat_deg(alpha_endo.f.deg()),
        _nat_deg(alpha_endo.g.deg()),
        _nat_deg(inv_endo.f.deg()),
        _nat_deg(inv_endo.g.deg()),
    )
    comp_deg = max(
        1,
        *(_nat_deg(q.deg()) for q in (w1, w2, u1, u2)),
    )
    cap = bound * move_deg * comp_deg
    lo1, lo2 = (u1, u2) if d_w else (w1, w2)
    big = bound
    while big < cap:
        big = min(2 * big, cap)
        if generates_kz(lo1, lo2, big).generates:
            return True
    return False


# ------------------------------------------------------------- experiment


_NEGATIVE_LIBRARY: tuple[tuple[str, Endo], ...] = (
    ("(x, x*y)", Endo(_X, _X * _Y)),
    ("(x, y^2)", Endo(_X, _Y**2)),
)


def _default_sample_coords(m: int) -> list[Poly2]:
    coords = [_X, _Y]
    for j in (2, 3):
        coords.append(_X + _Y**j)
        coords.append(_Y + _X**j)
    coords.append(witness_coordinate(m))
    return coords


def coordinate_image_experiment(
    seed: int,
    trials: int,
    max_deg: int = 4,
    sample_coords: Optional[Sequence[Poly2]] = None,
) -> dict:
    """Sampled evidence that mapping coordinates to retract generators
    forces automorphy.

    Positive part: seeded tame automorphisms must all reduce to the
    identity.  Negative part: for library non-automorphisms, some sampled
    coordinate must have an image that fails the bounded certificate
    search.  The report is sampled-hypothesis evidence, never a proof.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m = witness_exponent(Poly2.zero(), 4)
    coords = (
        list(sample_coords)
        if sample_coords is not None
        else _default_sample_coords(m)
    )
    positive = []
    ok_count = 0
    for index in range(trials):
        rng = random.Random(seed + index)
        tame = random_tame(rng, n_moves=3, deg_bound=2, coeff_bound=2)
        outcome = run_reduction(tame.to_endo())
        record = {
            "trial": index,
            "seed": seed + index,
            "verdict": outcome.kind,
            "steps": outcome.steps,
        }
        if outcome.kind == "automorphism":
            ok_count += 1
        else:
            record["witness"] = (
                outcome.report.detail if outcome.report else "budget"
            )
        positive.append(record)
    negative = []
    for name, endo in _NEGATIVE_LIBRARY:
        entry = {"endo": name, "found_failure": False}
        for coord in coords:
            image = endo.apply(coord)
            if image.is_constant():
                entry.update(
                    found_failure=True,
                    coordinate=coord.to_text(),
                    reason="image is constant",
                )
                break
            decision = is_retract_generator_bounded(image, max_deg)
            if not decision.found:
                entry.update(
                    found_failure=True,
                    coordinate=coord.to_text(),
                    image=image.to_text(),
                    reason=decision.reason,
                )
                break
        if entry["found_failure"]:
            ok_count += 1
        negative.append(entry)
    total = trials + len(_NEGATIVE_LIBRARY)
    return {
        "seed": seed,
        "trials": trials,
        "max_deg": max_deg,
        "witness_exponent": m,
        "positive": positive,
        "negative": negative,
        "ok": ok_count == total,
        "summary": f"ok: {ok_count}/{total}",
        "note": "sampled-hypothesis evidence, not a proof",
    }
