"""The host's speed, sampled with a fixed job on a frozen copy of the program.

The benchmark's host shares its cores with other tenants.  Its speed for
the same interpreter work changes by 20-60 % from one tenth of a second to
the next and between minutes, far more than the bounds in BENCHMARK.json
allow, and a 30 s run cannot average the slow minutes out.  So a fixed job is timed between requests all through a run,
and each request's time is divided by the slowness around it: the median
time of the ``NEAREST`` job runs nearest to the request, over the job's
reference time in ``JOBS``.  The scaled times read as on a host where the
job takes its reference time, which is about its median on a 2-vCPU Linux
VM with Python 3.11.7.

The job runs ``reflab``, a copy of retractlab as of the commit that defined
the benchmark, which is never edited.  Each workload's job takes the same
code paths as its requests (``cli`` and ``parsing`` for ``plane``, dense
``UniPoly`` powers and row elimination for ``span``, the candidate grid for
``search``), so it slows down as they do: a kernel of plain int arithmetic
did not, and over-corrected ``plane`` by up to 40 %.  The job stays the same
whatever the program does, so a change to the program moves the scaled
times as much as the unscaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import statistics
import time

import reflab
import reflab.cli

SAMPLE_EVERY_S = 0.25  # at most one job sample per this many seconds
NEAREST = 3  # a request is scaled by this many samples nearest its midpoint

X, Y, Z = reflab.Poly2.var_x(), reflab.Poly2.var_y(), reflab.UniPoly.var_z()
_LINE = X * 2 + Y + 1


def _plane() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        reflab.cli.main(["jacobian", "--", "x+y^2", "y"])
        reflab.cli.main(["is-auto", "--", "x+y^3+2*y", "y+3*(x+y^3+2*y)^2"])
        reflab.cli.main(["decompose", "--", "x+y^3+2*y", "y+3*(x+y^3+2*y)^2"])


def _span() -> None:
    t = Z * Z + Z * 2 + 1
    reflab.generates_kz(Z + t * 3 - 1, t, 10)


def _search() -> None:
    reflab.is_retract_generator_bounded(_LINE * _LINE * 3 + _LINE - 2, 1)


# workload: (job, its median seconds on the reference host)
JOBS = {
    "plane": (_plane, 0.0125),
    "span": (_span, 0.0065),
    "search": (_search, 0.012),
}
# workload: median seconds of ``setup_probe.py <workload> reflab`` on the
# reference host; the program's set-up probes are scaled by these
SETUP_REF_S = {"plane": 0.1, "span": 0.075, "search": 0.08}


class HostSpeed:
    """Job times through a run, each at the midpoint of its run."""

    def __init__(self, workload: str):
        self.job, self.ref_s = JOBS[workload]
        for _ in range(3):  # pay first-call costs and specialise
            self.job()
        self.at: list = []
        self.seconds: list = []
        self.last = -math.inf

    def tick(self) -> None:
        """Sample, unless a sample was taken in the last SAMPLE_EVERY_S."""
        start = time.perf_counter()
        if start - self.last < SAMPLE_EVERY_S:
            return
        self.job()
        self.last = time.perf_counter()
        self.at.append((start + self.last) / 2)
        self.seconds.append(self.last - start)

    def slowness_at(self, at: float) -> float:
        """Above 1 where the host ran slower than the reference host."""
        i = bisect.bisect_left(self.at, at)
        window = range(max(0, i - NEAREST), min(len(self.at), i + NEAREST))
        near = sorted(window, key=lambda j: abs(self.at[j] - at))[:NEAREST]
        return statistics.median(self.seconds[j] for j in near) / self.ref_s

    def slowness(self) -> float:
        return statistics.median(self.seconds) / self.ref_s
