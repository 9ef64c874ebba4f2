"""Command-line front end.

Parses exact polynomial expressions, binds every library operation to a
subcommand, and prints one JSON object (default) or a flat text rendering
per invocation.  Exit codes: 0 for success or a Yes verdict, 1 for a
No/Stuck verdict, 2 for usage errors, 3 for internal invariant
violations.  Set RETRACTLAB_LOG to a level name for stderr tracing.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import random
import sys
from fractions import Fraction

from . import free_algebra as fa
from .endo_algebra import (
    Endo,
    TameAuto,
    is_automorphism,
    jacobian,
    move_to_obj,
    random_tame,
)
from .errors import InternalCheckError
from .parsing import ParseError, parse_ncpoly, parse_poly2, parse_unipoly
from .poly_core import Poly2, UniPoly, try_sqrt
from .retracts import (
    RetractCertificate,
    generates_kz,
    is_retract_generator_bounded,
    make_retract_generator,
    retract_image,
)
from .theorem_lab import (
    coordinate_image_experiment,
    normalize,
    run_reduction,
    witness_coordinate,
    witness_exponent,
    witness_pair,
)

log = logging.getLogger("retractlab")


def _setup_logging() -> None:
    value = os.environ.get("RETRACTLAB_LOG", "")
    if not value:
        logging.basicConfig(level=logging.WARNING)
        return
    level = getattr(logging, value.upper(), None)
    if not isinstance(level, int):
        try:
            level = int(value)
        except ValueError:
            level = logging.INFO
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(name)s %(levelname)s %(message)s",
    )


def _parse_field(text: str):
    if text == "q":
        return fa.RATIONALS
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ValueError(f"field {text!r} needs an integer after 'fp:'")
        return fa.PrimeField(p)
    raise ValueError("field must be 'q' or 'fp:<prime>'")


def _random_poly2(rng: random.Random, deg: int, coeff: int) -> Poly2:
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            c = rng.randint(-coeff, coeff)
            if c:
                terms[(i, j)] = Fraction(c)
    return Poly2(terms)


def _witness_m(p: Poly2):
    """m with p = y + (x + y^m)^2, if any."""
    root = try_sqrt(p - Poly2.var_y())
    if root is None:
        return None
    if root.leading_coefficient() < 0:
        root = root * Fraction(-1)
    tail = root - Poly2.var_x()
    if tail.is_zero():
        return None
    m = tail.deg_y()
    if not isinstance(m, int) or m < 1 or tail != Poly2.monomial(m, 0, 1):
        return None
    return m


# ------------------------------------------------------------- handlers


def _cmd_is_auto(args):
    e = Endo(parse_poly2(args.f), parse_poly2(args.g))
    decision = is_automorphism(e)
    trace = list(decision.degree_trace)
    if decision.is_automorphism:
        obj = {
            "verdict": "yes",
            "moves": decision.factorization.to_obj(),
            "degree_trace": trace,
        }
        return obj, 0
    return {"verdict": "no", "reason": decision.reason, "degree_trace": trace}, 1


def _cmd_decompose(args):
    e = Endo(parse_poly2(args.f), parse_poly2(args.g))
    decision = is_automorphism(e)
    if not decision.is_automorphism:
        return {"verdict": "no", "reason": decision.reason}, 1
    # is_automorphism raises unless the factorization recomposes to e
    obj = {
        "verdict": "yes",
        "moves": decision.factorization.to_obj(),
        "recomposes": True,
    }
    return obj, 0


def _cmd_jacobian(args):
    e = Endo(parse_poly2(args.f), parse_poly2(args.g))
    jac = jacobian(e)
    unit = jac.is_constant() and not jac.is_zero()
    return {"jacobian": jac.to_text(), "unit": unit}, 0


def _cmd_is_coordinate_witness(args):
    p = parse_poly2(args.p)
    m = _witness_m(p)
    if m is None:
        reason = "not of the form y + (x + y^m)^2"
        return {"verdict": "no", "reason": reason}, 1
    pair = witness_pair(m)
    if pair.to_endo().g != p:
        raise InternalCheckError("witness pair does not produce the input")
    return {"verdict": "yes", "m": m, "moves": pair.to_obj()}, 0


def _cmd_verify_retract(args):
    p = parse_poly2(args.p)
    s = parse_unipoly(args.s)
    t = parse_unipoly(args.t)
    image = retract_image(p, s, t)
    ok = image == UniPoly.var_z()
    verdict = "yes" if ok else "no"
    return {"verdict": verdict, "image": image.to_text()}, 0 if ok else 1


def _cmd_find_retract(args):
    p = parse_poly2(args.p)
    result = is_retract_generator_bounded(p, args.max_deg)
    if result.found:
        obj = {
            "verdict": "yes",
            "s": result.s.to_text(),
            "t": result.t.to_text(),
            "max_deg": result.max_deg,
        }
        return obj, 0
    obj = {"verdict": "no", "max_deg": result.max_deg, "reason": result.reason}
    return obj, 1


def _cmd_make_retract(args):
    rng = random.Random(args.seed)
    sigma = random_tame(rng, n_moves=3, deg_bound=2, coeff_bound=2)
    h = _random_poly2(rng, deg=2, coeff=2)
    cert = make_retract_generator(sigma, h)
    retraction = cert.to_retraction()
    obj = {
        "seed": args.seed,
        "kind": cert.kind,
        "p": cert.p.to_text(),
        "s": retraction.s.to_text(),
        "t": retraction.t.to_text(),
        "h": h.to_text(),
        "sigma": sigma.to_obj(),
    }
    return obj, 0


def _cmd_generates_kz(args):
    s = parse_unipoly(args.s)
    t = parse_unipoly(args.t)
    result = generates_kz(s, t, args.bound)
    verdict = "yes" if result.generates else "no"
    return {"verdict": verdict, "bound": result.bound}, 0 if result else 1


def _cmd_normalize(args):
    phi = Endo(parse_poly2(args.f), parse_poly2(args.g))
    sigma = TameAuto.from_json(args.sigma) if args.sigma else TameAuto(())
    h = parse_poly2(args.h)
    cert = RetractCertificate.conjugated(phi.f, sigma, h)
    try:
        norm = normalize(phi, cert)
    except ValueError as exc:
        return {"verdict": "no", "reason": str(exc)}, 1
    obj = {
        "verdict": "yes",
        "h1": norm.h1.to_text(),
        "h2": norm.h2.to_text(),
        "normal_f": norm.normal_form.f.to_text(),
        "normal_g": norm.normal_form.g.to_text(),
        "sigma_prime": norm.sigma_prime.to_obj(),
    }
    return obj, 0


def _cmd_witness(args):
    h1 = parse_poly2(args.h1)
    m = witness_exponent(h1, args.n)
    obj = {
        "m": m,
        "n": args.n,
        "coordinate": witness_coordinate(m).to_text(),
        "moves": witness_pair(m).to_obj(),
    }
    return obj, 0


def _cmd_reduce(args):
    e = Endo(parse_poly2(args.f), parse_poly2(args.g))
    outcome = run_reduction(e, max_steps=args.max_steps)
    obj = {
        "kind": outcome.kind,
        "steps": outcome.steps,
        "trace": [move_to_obj(m) for m in outcome.moves],
    }
    if outcome.kind == "automorphism":
        obj["trail"] = outcome.trail.to_obj()
        return obj, 0
    if outcome.report is not None:
        obj["stuck"] = outcome.report.to_obj()
    return obj, 1


def _cmd_experiment(args):
    report = coordinate_image_experiment(
        args.seed, args.trials, max_deg=args.max_deg
    )
    return report, 0 if report["ok"] else 1


def _cmd_nc_verify(args):
    field = _parse_field(args.field)
    r = parse_ncpoly(args.r, field=field)
    s = parse_unipoly(args.s)
    t = parse_unipoly(args.t)
    report = fa.verify_deformed_retraction(r, s, t)
    obj = report.to_obj()
    obj["field"] = field.name
    return obj, 0 if report.passed else 1


# --------------------------------------------------------------- parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="retractlab",
        description="Exact decisions about plane polynomial maps and retracts.",
    )
    common = argparse.ArgumentParser(add_help=False)
    mode = common.add_mutually_exclusive_group()
    mode.add_argument(
        "--json",
        dest="text",
        action="store_false",
        help="JSON output (default)",
    )
    mode.add_argument(
        "--text", dest="text", action="store_true", help="flat text output"
    )
    common.set_defaults(text=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("is-auto", _cmd_is_auto, "decide if (f, g) is an automorphism")
    p.add_argument("f")
    p.add_argument("g")

    p = add("decompose", _cmd_decompose, "factor an automorphism into moves")
    p.add_argument("f")
    p.add_argument("g")

    p = add("jacobian", _cmd_jacobian, "Jacobian determinant of (f, g)")
    p.add_argument("f")
    p.add_argument("g")

    p = add(
        "is-coordinate-witness",
        _cmd_is_coordinate_witness,
        "recognize y + (x + y^m)^2 and emit its defining moves",
    )
    p.add_argument("p")

    p = add("verify-retract", _cmd_verify_retract, "check p(s(z), t(z)) = z")
    p.add_argument("p")
    p.add_argument("s")
    p.add_argument("t")

    p = add(
        "find-retract",
        _cmd_find_retract,
        "bounded search for a certificate of p",
    )
    p.add_argument("p")
    p.add_argument("--max-deg", type=int, default=2)

    p = add(
        "make-retract",
        _cmd_make_retract,
        "seeded construction of a certified retract generator",
    )
    p.add_argument("--seed", type=int, default=0)

    p = add(
        "generates-kz",
        _cmd_generates_kz,
        "does z lie in the bounded span of powers of s and t",
    )
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--bound", type=int, default=8)

    p = add(
        "normalize",
        _cmd_normalize,
        "bring (f, g) to the shape (x + y*h1, y*h2)",
    )
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--h", required=True, help="h with sigma(f) = x + y*h")
    p.add_argument("--sigma", help="conjugating moves as JSON (default identity)")

    p = add(
        "witness",
        _cmd_witness,
        "exponent m and coordinate y + (x + y^m)^2 for a degree budget",
    )
    p.add_argument("--h1", default="0")
    p.add_argument("--n", type=int, default=4)

    p = add("reduce", _cmd_reduce, "trace the leading-monomial reduction")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--max-steps", type=int, default=200)

    p = add(
        "experiment",
        _cmd_experiment,
        "seeded sweep: coordinates keep retract images under automorphisms",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-deg", type=int, default=4)

    p = add(
        "nc-verify",
        _cmd_nc_verify,
        "verify the deformed free-algebra retraction for (r, s, t)",
    )
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--field", default="q", help="'q' or 'fp:<prime>'")

    return parser


def _render_text(obj: dict) -> str:
    lines = []
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _emit(obj: dict, as_text: bool) -> None:
    if as_text:
        sys.stdout.write(_render_text(obj))
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    as_text = getattr(args, "text", False)
    try:
        obj, code = args.handler(args)
    except (ParseError, ValueError) as exc:
        _emit({"error": str(exc)}, as_text)
        return 2
    except (InternalCheckError, RuntimeError) as exc:
        _emit({"error": f"internal: {exc}"}, as_text)
        return 3
    log.debug("command %s exit %d", args.command, code)
    _emit(obj, as_text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
