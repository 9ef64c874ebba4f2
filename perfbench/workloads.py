"""Seeded workloads: the requests, their known answers and their checks.

Every request is built from the seed before timing starts.  A request
carries the call under test, which goes through retractlab's public
functions (looked up on the module at call time, so a traced run sees
it), and a check that runs after the call, outside the timed region.  A
check compares the answer with one known by construction and re-verifies
every Yes with the independent evaluator in ``checks``.

A round is a fixed list of request kinds; the seed draws the inputs of
each slot and the order of the round, so every run does the same mix of
work whatever its seed.  Requests marked ``hang`` come from the ranges
known to run far past the deadline today; they stay in on purpose and
count as failed when they overrun.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks
from checks import Expr, require

import retractlab
from retractlab import cli
from retractlab import endo_algebra as EA
from retractlab import retracts as RT
from retractlab import theorem_lab as TL
from retractlab.poly_core import Poly2, UniPoly

X, Y, Z = Poly2.var_x(), Poly2.var_y(), UniPoly.var_z()

SCHEMA = checks.Schema(
    json.loads(
        (Path(retractlab.__file__).parent / "schemas" / "cli_output.schema.json")
        .read_text()
    )
)


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]  # raises checks.CheckFailed on a wrong answer
    hang: bool = False  # known to overrun the deadline at the seed commit


@dataclass
class Workload:
    name: str
    deadline_s: float
    min_rounds: int
    rounds: list  # list[list[Request]]; later rounds repeat these

    @property
    def round_size(self) -> int:
        return len(self.rounds[0])

    @property
    def tail_samples(self) -> int:
        """Successful requests in the minimum run; fixes the tail percentile."""
        hangs = sum(r.hang for r in self.rounds[0])
        return self.min_rounds * (self.round_size - hangs)

    def mix(self) -> dict:
        out: dict = {}
        for req in self.rounds[0]:
            out[req.kind] = out.get(req.kind, 0) + 1
        return dict(sorted(out.items()))


# ---------------------------------------------------------------- inputs


def _rand_poly2(rng, deg: int, coeff: int) -> Poly2:
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            terms[(i, j)] = rng.randint(-coeff, coeff)
    return Poly2(terms)


def _rand_uni(rng, deg: int, coeff: int = 2) -> UniPoly:
    """Degree exactly deg, coefficients in [-coeff, coeff]."""
    body = [rng.randint(-coeff, coeff) for _ in range(deg)]
    lead = 0
    while not lead:
        lead = rng.randint(-coeff, coeff)
    return UniPoly(body + [lead])


# (lowest, highest) max component degree and the composition depths drawn
# for it.  Slot i of a tame kind takes class i % 4, where class 3 is the
# deep class below, so every round has the same degree profile.
_TAME_CLASSES = [(1, 2, (1, 2)), (3, 4, (2, 3)), (5, 6, (3, 4))]

# The deep class: alternating elementary moves of these degrees, a map of
# degree 24.  Its fixed shape keeps its cost within about +-15 %, and it is
# the heaviest regular stratum of a plane round, so the plane tail lands
# on it instead of on whichever rare outliers a seed happens to draw.
_DEEP_MOVES = (2, 3, 2, 2)


class Draw(random.Random):
    """The seeded source of a workload's inputs.  Tame maps drawn for one
    degree class that land in another are kept for that class."""

    def __init__(self, seed):
        super().__init__(seed)
        self.tame_pool = [[] for _ in _TAME_CLASSES]


def _degree_bound(tame: EA.TameAuto) -> int:
    """Upper bound on the composite's degree, read off the moves."""
    df = dg = 1
    for m in tame.moves:
        if isinstance(m, EA.ElemX):
            df = max(df, m.u.deg() * dg)
        elif isinstance(m, EA.ElemY):
            dg = max(dg, m.u.deg() * df)
        else:
            df = dg = max(df, dg)
    return max(df, dg)


def _tame(rng: Draw, cls: int) -> EA.Endo:
    if cls == len(_TAME_CLASSES):
        moves = [
            (EA.ElemX if k % 2 == 0 else EA.ElemY)(_rand_uni(rng, d))
            for k, d in enumerate(_DEEP_MOVES)
        ]
        return EA.TameAuto(tuple(moves)).to_endo()
    pool = rng.tame_pool
    top = _TAME_CLASSES[-1][1]
    while not pool[cls]:
        tame = EA.random_tame(rng, n_moves=rng.choice(_TAME_CLASSES[cls][2]), deg_bound=3, coeff_bound=3)
        if _degree_bound(tame) > top:
            continue
        e = tame.to_endo()
        deg = max(e.f.deg(), e.g.deg())
        for k, (lo, hi, _) in enumerate(_TAME_CLASSES):
            if lo <= deg <= hi:
                pool[k].append(e)
    return pool[cls].pop()


def _small_certificate(rng):
    """(sigma, h, (p, s, t)): the transport make_retract_generator performs,
    sigma(p) = x + y*h with (s, t) = sigma's components at (z, 0), without
    its idempotency re-checks; kept small enough for cheap checks."""
    zero = UniPoly.zero()
    while True:
        sigma = EA.random_tame(
            rng, n_moves=rng.choice([1, 2]), deg_bound=2, coeff_bound=2
        )
        h = _rand_poly2(rng, 1, 2)
        p = sigma.inverse().to_endo().apply(X + Y * h)
        sig = sigma.to_endo()
        s, t = sig.f.substitute1(Z, zero), sig.g.substitute1(Z, zero)
        if not p.is_constant() and p.deg() * max(s.deg(), t.deg(), 1) <= 6:
            return sigma, h, (p, s, t)


# ------------------------------------------------------------------ plane


def run_cli(argv: list) -> tuple:
    """cli.main in-process: stdout captured, argparse's SystemExit mapped
    to its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli(kind: str, argv: list, code: int, verify=None, hang=False) -> Request:
    def check(result) -> None:
        got, out = result
        require(got == code, f"exit {got}, expected {code}: {out.strip()[:200]}")
        if not out and code == 2:
            return  # argparse usage error: message on stderr only
        lines = out.splitlines()
        require(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
        obj = json.loads(lines[0])
        require(SCHEMA.valid(obj), f"output fails the schema: {lines[0][:200]}")
        if verify is not None:
            verify(obj)

    return Request(kind, lambda: run_cli(argv), check, hang)


def _endo_args(e) -> tuple:
    f, g = e.f.to_text(), e.g.to_text()
    return f, g, Expr(f), Expr(g)


def _is_auto_tame(rng, i):
    f, g, F, G = _endo_args(_tame(rng, i % 4))
    pts = checks.points(rng, 2)

    def verify(obj):
        require(obj["verdict"] == "yes", "tame map not recognized")
        checks.same_map(obj["moves"], F, G, pts)

    return _cli("is-auto/tame", ["is-auto", "--", f, g], 0, verify)


_SINGULAR = [(X, Y * Y), (X * Y, Y), (X, X * Y + Y), (X * X + Y, Y)]


def _non_auto(rng, i) -> EA.Endo:
    """A tame map composed with a map of non-constant Jacobian: by the
    chain rule the Jacobian stays non-constant, so it is no automorphism."""
    f, g = _SINGULAR[i % len(_SINGULAR)]
    return EA.compose(_tame(rng, i % 2), EA.Endo(f, g))


def _is_auto_non(rng, i):
    f, g, _, _ = _endo_args(_non_auto(rng, i))

    def verify(obj):
        require(obj["verdict"] == "no", "non-automorphism accepted")

    return _cli("is-auto/non", ["is-auto", "--", f, g], 1, verify)


def _decompose(rng, i):
    f, g, F, G = _endo_args(_tame(rng, i % 4))
    pts = checks.points(rng, 2)

    def verify(obj):
        require(obj["verdict"] == "yes" and obj["recomposes"] is True, "no factorization")
        checks.same_map(obj["moves"], F, G, pts)

    return _cli("decompose", ["decompose", "--", f, g], 0, verify)


def _reduce_tame(rng, i):
    # lex reduction re-checks its trail by composition up to degree 8, so its
    # cost on the two deeper classes is heavy-tailed (seconds at degree 7-8)
    f, g, F, G = _endo_args(_tame(rng, i % 2))
    pts = checks.points(rng, 2)

    def verify(obj):
        require(obj["kind"] == "automorphism", f"kind {obj['kind']}")
        steps, trace, trail = obj["steps"], obj["trace"], obj["trail"]
        require(len(trace) == steps and trail[:steps] == trace, "trace is not the trail's prefix")
        for x0, y0 in pts:
            back = checks.apply_moves(trail, (F(x=x0, y=y0), G(x=x0, y=y0)))
            require(back == (x0, y0), "trail does not invert the map")

    return _cli("reduce/tame", ["reduce", "--", f, g], 0, verify)


def _reduce_non(rng, i):
    f, g, _, _ = _endo_args(_non_auto(rng, i))

    def verify(obj):
        require(obj["kind"] == "stuck", f"kind {obj['kind']}")

    return _cli("reduce/non", ["reduce", "--", f, g], 1, verify)


def _make_retract_seed(rng, i) -> int:
    """A CLI seed whose certificate falls in slot i's size class.  The CLI
    draws sigma and h as below; with deg(p) * max(deg s, deg t) <= 8 it
    also checks idempotency by direct composition, which for deg(s) >= 2
    takes seconds, so that class keeps deg(s), deg(t) <= 1."""
    zero = UniPoly.zero()
    while True:
        seed = rng.randrange(10**6)
        draw = random.Random(seed)
        sigma = EA.random_tame(draw, n_moves=3, deg_bound=2, coeff_bound=2)
        if _degree_bound(sigma) > 12:
            continue
        p = sigma.inverse().to_endo().apply(X + Y * _rand_poly2(draw, 2, 2))
        sig = sigma.to_endo()
        dst = max(sig.f.substitute1(Z, zero).deg(), sig.g.substitute1(Z, zero).deg(), 1)
        direct = p.deg() * dst <= 8
        if (not direct and p.deg() <= 6) if i % 2 else (direct and dst == 1 and p.deg() <= 4):
            return seed


def _make_retract(rng, i):
    seed = _make_retract_seed(rng, i)
    pts = checks.points(rng, 2)

    def verify(obj):
        require(obj["seed"] == seed, "seed not echoed")
        p, s, t, h = (Expr(obj[k]) for k in ("p", "s", "t", "h"))
        require(checks.certifies(p, s, t), "p(s(z), t(z)) != z")
        for x0, y0 in pts:
            xs, ys = checks.apply_moves(obj["sigma"], (x0, y0))
            require(p(x=xs, y=ys) == x0 + y0 * h(x=x0, y=y0), "sigma(p) != x + y*h")

    return _cli("make-retract", ["make-retract", f"--seed={seed}"], 0, verify)


def _verify_retract(rng, i, yes: bool):
    while True:
        _, _, (p, s, t) = _small_certificate(rng)
        p, s, t = p.to_text(), s.to_text(), (t if yes else t + Z).to_text()
        P, S, T = Expr(p), Expr(s), Expr(t)
        if yes or not checks.certifies(P, S, T):
            break

    def verify(obj):
        require(obj["verdict"] == ("yes" if yes else "no"), "wrong verdict")
        image = Expr(obj["image"])
        for k in range(3):
            z0 = Fraction(k - 1, 3)
            require(image(z=z0) == P(x=S(z=z0), y=T(z=z0)), "image is not p(s, t)")

    kind = "verify-retract/" + ("yes" if yes else "no")
    return _cli(kind, ["verify-retract", "--", p, s, t], 0 if yes else 1, verify)


def _jacobian(rng, i):
    if i % 2:
        f, g, F, G = _endo_args(_tame(rng, i % 2))
    else:
        f = _rand_poly2(rng, 2 + i // 2 % 2, 3).to_text()
        g = _rand_poly2(rng, 3, 3).to_text()
        F, G = Expr(f), Expr(g)
    pts = checks.points(rng, 3)

    def verify(obj):
        jac = Expr(obj["jacobian"])
        for x0, y0 in pts:
            require(jac(x=x0, y=y0) == checks.jacobian_at(F, G, x0, y0), "wrong jacobian")
        x0, y0 = pts[0]
        unit = jac.degree() == 0 and jac(x=x0, y=y0) != 0
        require(obj["unit"] is unit, "wrong unit flag")

    return _cli("jacobian", ["jacobian", "--", f, g], 0, verify)


def _normalize(rng, i, yes: bool):
    """phi = (p, g) for a certified p with sigma(p) = x + y*h.  The normal
    form's second component is y*h2 with h2 = (sigma(g) - T(x + y*h)) / y,
    where T(x) is the y-free part of sigma(g).  For g = sigma^-1(y*k + T(x))
    that is k + (T(x) - T(x + y*h)) / y, kept only when nonzero; for g = T(p)
    it is 0 and the image collapses into K[p]."""
    while True:
        sigma, h, (p, _, _) = _small_certificate(rng)
        tail = _rand_uni(rng, 1 + i % 2)
        H, Tx = Expr(h.to_text()), Expr(tail.to_text("x"))
        if not yes:
            g, K = tail.eval_at_poly(p), None
            break
        k = _rand_poly2(rng, 1, 2)
        g, K = sigma.inverse().to_endo().apply(Y * k + tail.eval_at_poly(X)), Expr(k.to_text())

        def h2_at(x0, y0):
            return K(x=x0, y=y0) + (Tx(x=x0) - Tx(x=x0 + y0 * H(x=x0, y=y0))) / y0

        if any(h2_at(x0, y0) for x0, y0 in checks.points(rng, 3) if y0):
            break
    F, G = Expr(p.to_text()), Expr(g.to_text())
    sigma_obj = sigma.to_obj()
    pts = [(x0, y0) for x0, y0 in checks.points(rng, 3) if y0]

    def verify(obj):
        if not yes:
            require(obj["verdict"] == "no", "image in K[p] accepted")
            return
        require(obj["verdict"] == "yes", "normalization refused")
        h1o, h2o = Expr(obj["h1"]), Expr(obj["h2"])
        nf, ng = Expr(obj["normal_f"]), Expr(obj["normal_g"])
        for x0, y0 in pts:
            require(h1o(x=x0, y=y0) == H(x=x0, y=y0), "h1 is not the certificate's h")
            require(h2o(x=x0, y=y0) == h2_at(x0, y0), "wrong h2")
            want = (x0 + y0 * H(x=x0, y=y0), y0 * h2_at(x0, y0))
            require((nf(x=x0, y=y0), ng(x=x0, y=y0)) == want, "normal form shape")
            # the normal form is sigma o phi o sigma' as ring maps
            q = checks.apply_moves(sigma_obj, (x0, y0))
            q = (F(x=q[0], y=q[1]), G(x=q[0], y=q[1]))
            require(checks.apply_moves(obj["sigma_prime"], q) == want, "conjugation fails")

    argv = ["normalize", f"--h={h.to_text()}", f"--sigma={json.dumps(sigma_obj)}",
            "--", p.to_text(), g.to_text()]
    return _cli("normalize/" + ("yes" if yes else "no"), argv, 0 if yes else 1, verify)


def _witness(rng, i):
    h1 = _rand_poly2(rng, i % 3, 2)
    n = 1 + i % 5
    d = Expr(h1.to_text()).degree()
    m = max(d + 2, n, 1 + (n + 1) * d) + 1
    pts = checks.points(rng, 2)

    def verify(obj):
        require(obj["m"] == m and obj["n"] == n, f"m = {obj['m']}, expected {m}")
        coord = Expr(obj["coordinate"])
        for x0, y0 in pts:
            u = x0 + y0**m
            require(coord(x=x0, y=y0) == y0 + u * u, "wrong witness coordinate")
            require(checks.apply_moves(obj["moves"], (x0, y0)) == (u, y0 + u * u), "wrong moves")

    return _cli("witness", ["witness", f"--h1={h1.to_text()}", f"--n={n}"], 0, verify)


def _coord_witness(rng, i, yes: bool):
    m = 1 + i % 6
    if yes:
        p = Y + (X + Y**m) ** 2
    elif i % 2:
        p = Y + (X + Y**m * 2) ** 2
    else:
        p = Y + (X + Y**m) ** 2 + 1
    P = Expr(p.to_text())
    pts = checks.points(rng, 2)

    def verify(obj):
        if not yes:
            require(obj["verdict"] == "no", "not a witness, but accepted")
            return
        require(obj["verdict"] == "yes" and obj["m"] == m, "witness not recognized")
        for x0, y0 in pts:
            got = checks.apply_moves(obj["moves"], (x0, y0))[1]
            require(got == P(x=x0, y=y0), "moves do not produce p")

    kind = "coord-witness/" + ("yes" if yes else "no")
    argv = ["is-coordinate-witness", "--", p.to_text()]
    return _cli(kind, argv, 0 if yes else 1, verify)


_NC_POOL = ["y", "yy", "xy", "yx", "xyy", "yxy", "yyx"]


def _nc_verify(rng, i, field: str):
    """r = x + (words that contain y) is certified by (z, 0); r = y + ...
    without x is not."""
    lead = "y" if field == "none" else "x"
    words = rng.sample(_NC_POOL[1:] if lead == "y" else _NC_POOL, rng.randint(1, 3))
    r = lead + "".join(f" {rng.choice('+-')} {rng.randint(1, 2)}*{w}" for w in words)
    flag = "fp:5" if field == "fp5" else "q"

    def verify(obj):
        if field == "none":
            require(obj == {"error": "input is not a retract certificate"}, "non-certificate accepted")
            return
        require(obj["field"] == ("F_5" if field == "fp5" else "Q"), "wrong field")
        flags = ("shift_in_kernel", "fixes_deformed_generator", "idempotent_on_generators")
        require(obj["passed"] is True and all(obj[k] is True for k in flags), "deformation check failed")

    code = 2 if field == "none" else 0
    argv = ["nc-verify", f"--field={flag}", "--", r, "z", "0"]
    return _cli("nc-verify/" + field, argv, code, verify)


_MALFORMED = [
    ["is-auto", "--", "x+", "y"],
    ["jacobian", "--", "x^5000", "y"],
    ["verify-retract", "--", "x", "z"],
    ["nc-verify", "--field=fp:6", "--", "x", "z", "0"],
    ["witness", "--n=0"],
]


def _malformed(rng, i):
    argv = _MALFORMED[i % len(_MALFORMED)]

    def verify(obj):
        require(set(obj) == {"error"}, "usage error without an error object")

    return _cli("malformed", argv, 2, verify)


def _find_retract_hang(rng, i):
    # x*y*(x + y^2) has no certificate at all: a product of three factors
    # equal to z needs two constant factors, which forces all three constant.
    def verify(obj):
        require(obj["verdict"] == "no", "certificate claimed for x*y*(x + y^2)")

    argv = ["find-retract", "--max-deg=6", "--", "x^2*y+y^3*x"]
    return _cli("find-retract/hang", argv, 1, verify, hang=True)


# Every subcommand gets the same number of requests, split evenly between
# its input kinds: no source gives a traffic mix, so the round weighs the
# ROADMAP's "each CLI subcommand" alike.  A small share of malformed
# requests and the one known hang ride along.
N = 36
PLANE_MIX = [
    (_is_auto_tame, N // 2),
    (_is_auto_non, N // 2),
    (_decompose, N),
    (_reduce_tame, N // 2),
    (_reduce_non, N // 2),
    (_make_retract, N),
    (lambda rng, i: _verify_retract(rng, i, True), N // 2),
    (lambda rng, i: _verify_retract(rng, i, False), N // 2),
    (_jacobian, N),
    (lambda rng, i: _normalize(rng, i, True), N // 2),
    (lambda rng, i: _normalize(rng, i, False), N // 2),
    (_witness, N),
    (lambda rng, i: _coord_witness(rng, i, True), N // 2),
    (lambda rng, i: _coord_witness(rng, i, False), N // 2),
    (lambda rng, i: _nc_verify(rng, i, "q"), N // 3),
    (lambda rng, i: _nc_verify(rng, i, "fp5"), N // 3),
    (lambda rng, i: _nc_verify(rng, i, "none"), N // 3),
    (_malformed, 10),
    (_find_retract_hang, 1),
]


# ------------------------------------------------------------------- span


def _span_pair(rng, shape: str):
    """(s, t, generates): a certificate pair for p = x - u(y) (s = z + u(t)),
    or both sides polynomials in one q of degree >= 2."""
    if shape.startswith("yes"):
        dt, du = {"yes22": (2, 1), "yes33": (3, 1), "yes42": (2, 2)}[shape]
        t = _rand_uni(rng, dt)
        u = _rand_uni(rng, du)
        s = Z + u.compose(t)
        ok = checks.certifies(Expr("x - (" + u.to_text("y") + ")"), Expr(s.to_text()), Expr(t.to_text()))
        require(ok, "constructed pair does not certify")
        return (t, s, True) if rng.random() < 0.5 else (s, t, True)
    dq, da, db = {"no211": (2, 1, 1), "no212": (2, 1, 2), "no311": (3, 1, 1)}[shape]
    q = _rand_uni(rng, dq)
    return _rand_uni(rng, da).compose(q), _rand_uni(rng, db).compose(q), False


def _kz_request(s, t, want: bool, bound: int, hang: bool = False) -> Request:
    def check(result):
        require(result.bound == bound, "bound not echoed")
        require(result.generates is want, f"generates {result.generates}, known {want}")

    kind = "generates_kz/" + ("hang" if hang else "yes" if want else "no")
    return Request(kind, lambda: RT.generates_kz(s, t, bound), check, hang)


def _gen_kz(rng, shape: str, bound: int):
    s, t, want = _span_pair(rng, shape)
    return _kz_request(s, t, want, bound)


def _gen_kz_hang(rng):
    """A constant and a linear t at bound 150: K[c, t] = K[z], but the
    elimination over t's powers runs about 11 s here.  It builds its
    memory within the first second, so the workload's peak RSS does not
    depend on how far the deadline lets it get."""
    c = UniPoly.const(rng.choice([-2, 2, 3]))
    t = UniPoly((rng.choice([-1, 1]), rng.choice([-2, 2])))
    return _kz_request(c, t, True, 150, hang=True)


_WITNESS_H = [(Poly2.zero(), Poly2.const(1)), (X, X), (Y * Y, X * X + Y)]


def _witness_analysis(rng, i):
    h1, h2 = _WITNESS_H[i % 3]
    norm = TL.NormalizedEndo(EA.Endo(X + Y * h1, Y * h2), EA.TameAuto(()), EA.TameAuto(()), h1, h2)
    m = TL.witness_exponent(h1, 4)
    case = rng.choice(("t-constant", "s-constant", "both-nonconstant"))
    deg = 1 + i % 4
    const = UniPoly.const(rng.choice([-2, -1, 1, 2]))
    s = const if case == "s-constant" else _rand_uni(rng, deg)
    t = const if case == "t-constant" else _rand_uni(rng, max(1, deg - 1))

    def check(rep):
        require(rep.case == case, f"case {rep.case}, expected {case}")
        require(rep.hypotheses_hold, "a degree inequality fails")
        require(rep.image_equals_z is False, "witness image claimed equal to z")

    return Request(
        "witness_degree_analysis",
        lambda: TL.witness_degree_analysis(norm, m, s, t),
        check,
    )


# The bound each pair shape runs at in full-size requests: rows grow with
# bound^2 / (deg s * deg t), so these bounds put every shape at a similar
# cost (0.23-0.28 s here) and the median and tail fall inside that stratum.
_FULL_BOUND = {"yes22": 25, "yes33": 32, "yes42": 30, "no211": 28, "no212": 35, "no311": 40}


def _span_round(rng) -> list:
    reqs = []
    for k, (shape, bound) in enumerate(_FULL_BOUND.items()):
        reqs += [_gen_kz(rng, shape, bound) for _ in range(4)]
        if k % 2:
            reqs.append(_gen_kz(rng, shape, (10, 20)[k % 4 // 2]))
    reqs += [_witness_analysis(rng, i) for i in range(3)]
    reqs.append(_gen_kz_hang(rng))
    return reqs


# ----------------------------------------------------------------- search


def _search_check(p: Poly2, want: bool, max_deg: int):
    P = Expr(p.to_text())

    def check(result):
        require(result.found is want, f"found {result.found}, known {want}")
        require(result.max_deg == max_deg, "max_deg not echoed")
        if want:
            s, t = Expr(result.s.to_text()), Expr(result.t.to_text())
            require(checks.certifies(P, s, t), "returned certificate fails")

    return check


def _search(kind: str, p: Poly2, want: bool, max_deg: int, hang=False) -> Request:
    return Request(
        kind,
        lambda: RT.is_retract_generator_bounded(p, max_deg),
        _search_check(p, want, max_deg),
        hang,
    )


def _linear(rng, i):
    """A(v) + w*B(v) with B != 0 is always a generator: pick v = c with
    B(c) != 0 and solve w = (z - A(c)) / B(c)."""
    a = _rand_uni(rng, 2 + i % 2)
    b = _rand_uni(rng, i % 3)
    if i % 2:
        p = a.eval_at_poly(X) + Y * b.eval_at_poly(X)
    else:
        p = a.eval_at_poly(Y) + X * b.eval_at_poly(Y)
    return _search("search/linear", p, True, 2 + i % 2)


def _certificate(rng, i):
    """A transported certificate whose own (s, t) lies inside the grid, so
    the search must find one."""
    max_deg = 2 + i % 2
    while True:
        _, _, (p, s, t) = _small_certificate(rng)
        if 2 <= p.deg() <= 3 and max(s.deg(), t.deg()) <= max_deg and all(
            c in RT.CANONICAL_COEFFS for c in s.coeffs + t.coeffs
        ):
            return _search("search/cert", p, True, max_deg)


def _composite(rng, balanced: bool) -> Poly2:
    """F(a*x + b*y + c) with deg F = 2 and F no constant times a square:
    its image is F of a polynomial, of degree 0 or >= 2, never z.  Its top
    forms cancel on a line of leading pairs, so the grid is searched."""
    a = rng.choice([1, -1, 2, -2])
    b = rng.choice([1, -1]) * (abs(a) if balanced else 3 - abs(a))
    lin = X * a + Y * b + rng.randint(-2, 2)
    while True:
        f = _rand_uni(rng, 2)
        if f.coefficient(1) ** 2 != 4 * f.coefficient(0) * f.coefficient(2):
            return f.eval_at_poly(lin)


def _grid_no(rng):
    return _search("search/grid", _composite(rng, balanced=False), False, 2)


def _search_round(rng) -> list:
    # the grid requests are alike in cost (0.4-0.55 s here) and make up
    # most of the round, so the median and the tail both fall among them
    reqs = [_linear(rng, i) for i in range(2)]
    reqs += [_certificate(rng, i) for i in range(4)]
    reqs += [_grid_no(rng) for _ in range(16)]
    reqs.append(_search("search/hang", _composite(rng, balanced=True), False, 3, hang=True))
    return reqs


# ------------------------------------------------------------------ build


def _plane_round(rng) -> list:
    return [make(rng, i) for make, count in PLANE_MIX for i in range(count)]


_SPECS = {
    # name: (round maker, per-request deadline in s, minimum rounds); the
    # minimum is about the round count a 30 s run reaches, and it fixes the
    # tail percentile (see Workload.tail_samples)
    "plane": (_plane_round, 1.0, 8),
    "span": (_span_round, 2.0, 4),
    "search": (_search_round, 3.0, 3),
}


def build(name: str, seed: int) -> Workload:
    make, deadline, min_rounds = _SPECS[name]
    rng = Draw(f"{name}:{seed}")
    rounds = []
    # every request of the minimum run is a distinct input, so the samples
    # beyond the tail percentile come from distinct inputs
    for _ in range(min_rounds):
        reqs = make(rng)
        rng.shuffle(reqs)
        rounds.append(reqs)
    return Workload(name, deadline, min_rounds, rounds)


def warmup_requests(wl: Workload) -> list:
    """One request of each kind that is not a known hang."""
    seen, out = set(), []
    for req in wl.rounds[0]:
        if req.kind not in seen and not req.hang:
            seen.add(req.kind)
            out.append(req)
    return out
