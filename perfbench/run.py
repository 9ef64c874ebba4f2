"""retractlab benchmark: one workload in one process, closed loop, one client.

    python3 perfbench/run.py --workload plane --seed 1 --seconds 20 --trace 0

Builds the workload's requests from the seed, measures set-up in fresh
interpreters, warms up, then runs whole rounds of requests until
``--seconds`` have passed (and at least the workload's minimum number of
rounds).  Each request runs under a SIGALRM deadline; its answer is checked
after the timed call.  Between requests a fixed job on a frozen copy of the
program samples the host's speed, and the end-to-end times are scaled to a
reference speed (see ``hostspeed``).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A run record (and with ``--trace 1`` the spans) is written
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4  # fresh interpreters before the timed phase, and again after it
WORKLOADS = ("plane", "span", "search")


class Deadline(BaseException):
    """Raised by SIGALRM inside an overrunning request.  A BaseException, so
    that ``except Exception`` in the program cannot swallow it."""


def _alarm(signum, frame):
    raise Deadline()


def timed(call, deadline: float) -> tuple:
    """(status, result, seconds) with status "ok", "overrun" or "raised"."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return "overrun", None, time.perf_counter() - start
    except Exception as exc:  # the program raised: a failed request
        return "raised", exc, time.perf_counter() - start
    return "ok", result, time.perf_counter() - start


class Tally:
    """Outcomes of the requests of one phase."""

    def __init__(self):
        self.latencies: list = []
        self.busy_s = 0.0  # time of the requests that ended within the deadline
        self.ok_at: list = []  # midpoint of each successful request
        self.busy: list = []  # (midpoint, seconds) of each request within the deadline
        self.overrun_s = 0.0
        self.attempted = self.failed = 0
        self.overruns = self.unexpected_overruns = self.wrong = self.raised = 0
        self.rounds = 0
        self.errors: list = []

    def add(self, req, status, result, seconds, at) -> None:
        self.attempted += 1
        if status == "overrun":
            # an overrun lasts exactly the deadline however fast the program
            # is; it counts in failed_frac, not in the speed of the rest
            self.overrun_s += seconds
        else:
            self.busy_s += seconds
            self.busy.append((at, seconds))
        if status == "ok":
            try:
                req.check(result)
            except Exception as exc:  # any check error is a wrong answer
                self.wrong += 1
                self._fail(req, f"wrong answer: {type(exc).__name__}: {exc}")
                return
            self.latencies.append(seconds)
            self.ok_at.append(at)
        elif status == "overrun":
            self.overruns += 1
            self.unexpected_overruns += not req.hang
            self._fail(req, "deadline overrun" + ("" if req.hang else " (not a known hang)"))
        else:
            self.raised += 1
            self._fail(req, f"raised {type(result).__name__}: {result}")

    def _fail(self, req, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{req.kind}: {message}")

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy_s if self.busy_s else 0.0


def run_phase(wl, seconds: float, min_rounds: int, tracer=None, between=None, host=None) -> Tally:
    """Whole rounds until ``seconds`` have passed.  ``between()`` runs after
    each round; its time does not count towards ``seconds``.  ``host``
    samples the host's speed between requests."""
    tally = Tally()
    started = time.perf_counter()
    req_id = 0
    while True:
        for req in wl.rounds[tally.rounds % len(wl.rounds)]:
            if tracer is not None:
                tracer.begin(req_id, req.kind)
            status, result, secs = timed(req.call, wl.deadline_s)
            at = time.perf_counter() - secs / 2
            if tracer is not None:
                tracer.end()
            tally.add(req, status, result, secs, at)
            req_id += 1
            if host is not None:
                host.tick()
        tally.rounds += 1
        if between is not None:
            paused = time.perf_counter()
            between()
            started += time.perf_counter() - paused
        # whole rounds keep the request mix exact: stop unless the next
        # round ends nearer to ``seconds`` than this one
        elapsed = time.perf_counter() - started
        if tally.rounds >= min_rounds and elapsed + 0.5 * elapsed / tally.rounds >= seconds:
            break
    return tally


def setup_seconds(workload: str, probes: int, ref_s: float) -> list:
    """Import plus first-call costs, each in a fresh interpreter, as
    (seconds at reference speed, unscaled seconds) pairs.  Each probe of
    the program is followed by one of ``reflab``, the frozen copy, whose
    time over its reference time ``ref_s`` is the host's slowness then."""
    out = []
    for _ in range(probes):
        seconds, ref = (
            float(subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, package, str(path)],
                check=True, capture_output=True, text=True, timeout=120,
            ).stdout)
            for package, path in (("retractlab", SRC), ("reflab", HERE))
        )
        out.append((seconds * ref_s / ref, seconds))
    return out


def tail(latencies: list, samples: int) -> tuple:
    """Value at the fixed percentile 1 - 10/samples: in a run of exactly
    ``samples`` successes, ten of them lie beyond it."""
    q = 1 - 10 / samples
    ordered = sorted(latencies)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx], 100 * q, len(ordered) - 1 - idx


def environment(args, wl) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": wl.deadline_s,
        "round_requests": wl.round_size,
        "min_rounds": wl.min_rounds,
        "mix": wl.mix(),
    }


def tally_record(t: Tally) -> dict:
    return {
        "rounds": t.rounds,
        "attempted": t.attempted,
        "failed": t.failed,
        "overruns": t.overruns,
        "unexpected_overruns": t.unexpected_overruns,
        "wrong": t.wrong,
        "raised": t.raised,
        "busy_s": t.busy_s,
        "overrun_s": t.overrun_s,
        "errors": t.errors,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "retractlab" / "__init__.py").is_file():
        print(f"perfbench: no retractlab source at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads  # imports retractlab from SRC

    wl = workloads.build(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _alarm)
    for req in workloads.warmup_requests(wl):
        timed(req.call, wl.deadline_s)
    # the inputs live for the whole run: keep full collections from
    # re-scanning them, so collection pauses track the program's garbage
    gc.collect()
    gc.freeze()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = environment(args, wl)
    if args.trace:
        import tracing

        import retractlab

        untraced = run_phase(wl, args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install(retractlab)
        try:
            traced = run_phase(wl, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(untraced.ops_per_s, traced.ops_per_s)
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()))
        record.update(untraced=tally_record(untraced), traced=tally_record(traced))
        tallies = (untraced, traced)
    else:
        # probes before, between the rounds of and after the timed phase
        # sample the host's speed over the whole run
        import hostspeed

        host = hostspeed.HostSpeed(args.workload)
        setup_ref_s = hostspeed.SETUP_REF_S[args.workload]
        setup = setup_seconds(args.workload, SETUP_PROBES, setup_ref_s)
        t = run_phase(
            wl, args.seconds, wl.min_rounds,
            between=lambda: setup.extend(setup_seconds(args.workload, 1, setup_ref_s)),
            host=host,
        )
        setup += setup_seconds(args.workload, SETUP_PROBES, setup_ref_s)
        if not t.latencies:
            print("perfbench: no request succeeded:", *t.errors, sep="\n  ", file=sys.stderr)
            return 1
        # each request's time at the reference speed of the host around it
        latencies = [x / host.slowness_at(at) for x, at in zip(t.latencies, t.ok_at)]
        busy_s = sum(x / host.slowness_at(at) for at, x in t.busy)
        value, pct, beyond = tail(latencies, wl.tail_samples)
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"},
            "ops_per_s": {"value": len(latencies) / busy_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * value, "unit": "ms"},
        }
        raw_tail = tail(t.latencies, wl.tail_samples)[0]
        unscaled = {
            "setup_s": {"value": statistics.median(r for _, r in setup), "unit": "s"},
            "ops_per_s": {"value": t.ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(t.latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * raw_tail, "unit": "ms"},
        }
        metrics["failed_frac"] = {"value": t.failed / t.attempted, "unit": "frac"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        }
        record.update(
            tally_record(t),
            setup_probes_s=setup,
            tail_percentile=pct,
            tail_samples=len(t.latencies),
            tail_beyond=beyond,
            latency_max_ms=1000 * max(t.latencies),
            host={
                "job_ref_s": host.ref_s,
                "job_samples": len(host.seconds),
                "slowness_median": host.slowness(),
            },
            unscaled=unscaled,
        )
        print(
            f"{args.workload}: {t.rounds} rounds, {t.attempted} requests, {t.failed} failed "
            f"({t.overruns} over the {wl.deadline_s:g} s deadline); "
            f"tail = p{pct:.2f} of {len(t.latencies)} samples, {beyond} beyond; "
            f"median host slowness {host.slowness():.3f}"
        )
        for name, m in unscaled.items():
            print(f"  {name} unscaled = {m['value']:.6g} {m['unit']}")
        tallies = (t,)
    record["metrics"] = metrics
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for err in sum((t.errors for t in tallies), []):
        print(f"  failure: {err}")
    result = {
        "correct": all(t.wrong == 0 and t.raised == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
