"""Outside-in tracing of retractlab's layers.

The tracer wraps public calls of ``cli``, ``parsing``, ``endo_algebra``,
``theorem_lab``, ``retracts`` and ``free_algebra`` (plus the few private
helpers the per-layer table names) by replacing the module and class
attributes at run time; the program's files stay untouched.  Each wrapped
call inside a request becomes a span that shares the request's id.
``poly_core`` arithmetic runs thousands of times per request, so it is
aggregated per request into counts and self time instead of spans.

A span's self time is its duration minus the durations of the wrapped
calls inside it.  The tracer's own bookkeeping after a call is charged to
neither side; its total is reported as ``bench.trace_bookkeeping_s``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

SPAN, AGG, COUNT = "span", "agg", "count"
SPAN_CAP = 200_000  # spans kept in memory; later ones are only counted


def _chars(tr, args, result):
    tr.extra["parsing.parse.chars"] += len(args[0])


def _yes(metric, attr):
    def post(tr, args, result):
        tr.extra[metric] += bool(getattr(result, attr))

    return post


def _steps(tr, args, result):
    tr.extra["theorem_lab.run_reduction.steps"] += result.steps


def _deg(u) -> int:
    return 0 if u.is_constant() else u.deg()


def _span_rows(tr, args, result):
    s, t, bound = args
    ds, dt = _deg(s), _deg(t)
    i_max = bound // ds if ds else 1
    j_max = bound // dt if dt else 1
    rows = sum(
        1
        for i in range(i_max + 1)
        for j in range(j_max + 1)
        if i * ds + j * dt <= bound
    )
    tr.extra["retracts.generates_kz.rows"] += rows
    tr.extra["retracts.generates_kz.yes"] += bool(result.generates)


def _coeff_bits(coeffs) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )


def _poly2_out(tr, args, result):
    coeffs = result.terms.values()
    tr.sizes["poly_core.poly2_mul"][len(coeffs)] += 1
    tr.coeff_bits_max = max(tr.coeff_bits_max, _coeff_bits(coeffs))


def _unipoly_out(tr, args, result):
    coeffs = result.coeffs
    tr.sizes["poly_core.unipoly_mul"][len(coeffs)] += 1
    tr.coeff_bits_max = max(tr.coeff_bits_max, _coeff_bits(coeffs))


def _ncpoly_out(tr, args, result):
    tr.sizes["free_algebra.ncpoly_mul"][len(result.terms)] += 1


def _both(cls):
    return lambda args: isinstance(args[1], cls)


def targets(rl) -> list:
    """(owner, attribute, layer name, mode, post hook, accept filter)."""
    pc, ea, tl, rt, fa = rl.poly_core, rl.endo_algebra, rl.theorem_lab, rl.retracts, rl.free_algebra
    return [
        (rl.cli, "main", "cli.main", SPAN, None, None),
        (rl.parsing, "parse_poly2", "parsing.parse", SPAN, _chars, None),
        (rl.parsing, "parse_unipoly", "parsing.parse", SPAN, _chars, None),
        (rl.parsing, "parse_ncpoly", "parsing.parse", SPAN, _chars, None),
        (ea, "is_automorphism", "endo_algebra.is_automorphism", SPAN,
         _yes("endo_algebra.is_automorphism.yes", "is_automorphism"), None),
        (ea, "compose", "endo_algebra.compose", SPAN, None, None),
        (ea.TameAuto, "to_endo", "endo_algebra.to_endo", SPAN, None, None),
        (ea, "jacobian", "endo_algebra.jacobian", SPAN, None, None),
        (tl, "run_reduction", "theorem_lab.run_reduction", SPAN, _steps, None),
        (tl, "reduction_step", "theorem_lab.reduction_step", SPAN, None, None),
        (tl, "_verify_trail", "theorem_lab.verify_trail", SPAN, None, None),
        (tl, "witness_degree_analysis", "theorem_lab.witness_degree_analysis", SPAN, None, None),
        (rt, "verify_retract_generator", "retracts.verify", SPAN, None, None),
        (rt, "generates_kz", "retracts.generates_kz", SPAN, _span_rows, None),
        (rt, "is_retract_generator_bounded", "retracts.search", SPAN,
         _yes("retracts.search.found", "found"), None),
        (rt, "_solve_linear_cell", "retracts.search.cells", COUNT, None, None),
        (rt, "_solve_grid_cell", "retracts.search.cells", COUNT, None, None),
        (rt, "_evaluates_to_z", "retracts.search.candidates", COUNT, None, None),
        (rt, "make_retract_generator", "retracts.make_retract_generator", SPAN, None, None),
        (fa, "verify_deformed_retraction", "free_algebra.verify_deformed_retraction", SPAN, None, None),
        (fa.NcPoly, "__mul__", "free_algebra.ncpoly_mul", AGG, _ncpoly_out, _both(fa.NcPoly)),
        (pc.Poly2, "__mul__", "poly_core.poly2_mul", AGG, _poly2_out, _both(pc.Poly2)),
        (pc.Poly2, "__rmul__", "poly_core.poly2_mul", AGG, _poly2_out, _both(pc.Poly2)),
        (pc.UniPoly, "__mul__", "poly_core.unipoly_mul", AGG, _unipoly_out, _both(pc.UniPoly)),
        (pc.UniPoly, "__rmul__", "poly_core.unipoly_mul", AGG, _unipoly_out, _both(pc.UniPoly)),
        (pc.Poly2, "__pow__", "poly_core.pow", AGG, None, None),
        (pc.UniPoly, "__pow__", "poly_core.pow", AGG, None, None),
        (pc.Poly2, "substitute1", "poly_core.substitute", AGG, None, None),
        (pc.Poly2, "substitute2", "poly_core.substitute", AGG, None, None),
        (pc.UniPoly, "__divmod__", "poly_core.divmod", AGG, None, None),
        (pc, "try_sqrt", "poly_core.try_sqrt", AGG, None, None),
    ]


# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit).
# ``/op`` values are per traced request.
_CALLS_SELF = [
    "cli.main", "parsing.parse", "poly_core.poly2_mul", "poly_core.unipoly_mul",
    "poly_core.pow", "poly_core.substitute", "poly_core.try_sqrt", "poly_core.divmod",
    "endo_algebra.is_automorphism", "endo_algebra.compose", "endo_algebra.to_endo",
    "endo_algebra.jacobian", "theorem_lab.run_reduction", "theorem_lab.witness_degree_analysis",
    "retracts.generates_kz", "retracts.search", "retracts.make_retract_generator",
    "free_algebra.ncpoly_mul", "free_algebra.verify_deformed_retraction",
]
PER_LAYER = (
    [(f"{n}.calls", "calls/op") for n in _CALLS_SELF]
    + [(f"{n}.self_s", "s/op") for n in _CALLS_SELF]
    + [
        ("theorem_lab.reduction_step.calls", "calls/op"),
        ("theorem_lab.verify_trail.self_s", "s/op"),
        ("retracts.verify.self_s", "s/op"),
        ("parsing.parse.chars", "chars/op"),
        ("poly_core.poly2_mul.out_terms_p50", "terms"),
        ("poly_core.poly2_mul.out_terms_max", "terms"),
        ("poly_core.unipoly_mul.out_terms_p50", "terms"),
        ("poly_core.unipoly_mul.out_terms_max", "terms"),
        ("free_algebra.ncpoly_mul.out_terms_max", "terms"),
        ("poly_core.coeff_bits_max", "bits"),
        ("endo_algebra.is_automorphism.yes_frac", "frac"),
        ("theorem_lab.run_reduction.steps", "steps/op"),
        ("retracts.generates_kz.rows", "rows/op"),
        ("retracts.generates_kz.yes_frac", "frac"),
        ("retracts.search.cells", "cells/op"),
        ("retracts.search.candidates", "cands/op"),
        ("retracts.search.found_frac", "frac"),
        ("bench.ops_per_s_untraced", "1/s"),
        ("bench.ops_per_s_traced", "1/s"),
        ("bench.trace_overhead_frac", "frac"),
        ("bench.trace_bookkeeping_s", "s/op"),
    ]
)


class Tracer:
    """Spans and per-layer totals, kept in memory until the run ends."""

    def __init__(self):
        self.stack: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: defaultdict = defaultdict(float)
        self.sizes: defaultdict = defaultdict(Counter)
        self.coeff_bits_max = 0
        self.bookkeeping_s = 0.0
        self.spans: list = []  # (request, name, parent, depth, start, end, self_s)
        self.spans_dropped = 0
        self.requests: list = []  # (request, kind, start, end, {layer: [calls, self_s]})
        self._req = None
        self._agg: dict = {}
        self._patches: list = []

    # -- requests ------------------------------------------------------------

    def begin(self, req_id: int, kind: str) -> None:
        self._req = (req_id, kind)
        self._agg = {}
        self.stack = [["request", time.perf_counter(), 0.0]]

    def end(self) -> None:
        end = time.perf_counter()
        frame = self.stack[0]  # a deadline may leave inner frames behind
        req_id, kind = self._req
        self._record_span("request", None, 0, frame[1], end, end - frame[1] - frame[2])
        self.requests.append((req_id, kind, frame[1], end, self._agg))
        self.stack = []

    def _record_span(self, name, parent, depth, start, end, self_s) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self._req[0], name, parent, depth, start, end, self_s))
        else:
            self.spans_dropped += 1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, mode, post, accept):
        tracer = self
        perf = time.perf_counter

        if mode == COUNT:
            def counted(*args, **kwargs):
                if tracer.stack:
                    tracer.extra[name] += 1
                return fn(*args, **kwargs)

            return counted

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack or (accept is not None and not accept(args)):
                return fn(*args, **kwargs)
            frame = [name, perf(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                self_s = dur - frame[2]
                tracer.calls[name] += 1
                tracer.self_s[name] += self_s
                if mode == AGG:
                    agg = tracer._agg.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += self_s
                else:
                    tracer._record_span(name, stack[-1][0], len(stack), frame[1], end, self_s)
                if ok and post is not None:
                    post(tracer, args, result)
                after = perf()
                stack[-1][2] += dur + (after - end)
                tracer.bookkeeping_s += after - end
            return result

        return wrapper

    def install(self, rl) -> None:
        """Wrap every target; module functions are replaced in every
        retractlab module that holds a reference to them."""
        modules = [m for k, m in sys.modules.items() if k == "retractlab" or k.startswith("retractlab.")]
        for owner, attr, name, mode, post, accept in targets(rl):
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, mode, post, accept)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def metrics(self, ops_untraced: float, ops_traced: float) -> dict:
        n = max(len(self.requests), 1)
        values: dict = {}
        for layer in _CALLS_SELF:
            values[f"{layer}.calls"] = self.calls[layer] / n
            values[f"{layer}.self_s"] = self.self_s[layer] / n
        values["theorem_lab.reduction_step.calls"] = self.calls["theorem_lab.reduction_step"] / n
        values["theorem_lab.verify_trail.self_s"] = self.self_s["theorem_lab.verify_trail"] / n
        values["retracts.verify.self_s"] = self.self_s["retracts.verify"] / n
        values["parsing.parse.chars"] = self.extra["parsing.parse.chars"] / n
        for layer in ("poly_core.poly2_mul", "poly_core.unipoly_mul"):
            values[f"{layer}.out_terms_p50"] = _median(self.sizes[layer])
            values[f"{layer}.out_terms_max"] = max(self.sizes[layer], default=0)
        values["free_algebra.ncpoly_mul.out_terms_max"] = max(self.sizes["free_algebra.ncpoly_mul"], default=0)
        values["poly_core.coeff_bits_max"] = self.coeff_bits_max
        values["endo_algebra.is_automorphism.yes_frac"] = _frac(
            self.extra["endo_algebra.is_automorphism.yes"], self.calls["endo_algebra.is_automorphism"]
        )
        values["theorem_lab.run_reduction.steps"] = self.extra["theorem_lab.run_reduction.steps"] / n
        values["retracts.generates_kz.rows"] = self.extra["retracts.generates_kz.rows"] / n
        values["retracts.generates_kz.yes_frac"] = _frac(
            self.extra["retracts.generates_kz.yes"], self.calls["retracts.generates_kz"]
        )
        values["retracts.search.cells"] = self.extra["retracts.search.cells"] / n
        values["retracts.search.candidates"] = self.extra["retracts.search.candidates"] / n
        values["retracts.search.found_frac"] = _frac(
            self.extra["retracts.search.found"], self.calls["retracts.search"]
        )
        values["bench.ops_per_s_untraced"] = ops_untraced
        values["bench.ops_per_s_traced"] = ops_traced
        values["bench.trace_overhead_frac"] = 1 - ops_traced / ops_untraced if ops_untraced else 0.0
        values["bench.trace_bookkeeping_s"] = self.bookkeeping_s / n
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def dump(self) -> dict:
        return {
            "span_fields": ["request", "name", "parent", "depth", "start", "end", "self_s"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "request_fields": ["request", "kind", "start", "end", "poly_core"],
            "requests": self.requests,
        }


def _frac(num, den) -> float:
    return num / den if den else 0.0


def _median(hist: Counter) -> float:
    total = sum(hist.values())
    if not total:
        return 0
    seen = 0
    for size in sorted(hist):
        seen += hist[size]
        if 2 * seen >= total:
            return size
    return 0
