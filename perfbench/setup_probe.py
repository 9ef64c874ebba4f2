"""Time from a fresh interpreter to a workload's readiness.

Run as ``python3 setup_probe.py <workload> <package> <dir>``; prints
seconds.  ``<package>`` is ``retractlab`` (found in ``<dir>``) for the
program, or ``reflab``, the frozen copy that ``hostspeed`` runs, for the
reference probe that the program's probes are scaled by.  The clock starts
before the package is imported, so interpreter start-up is excluded, and
stops after the workload's first calls have paid their lazy costs.  Only
``sys`` and ``time`` are imported before the clock.
"""

import sys
import time


def main() -> None:
    started = time.perf_counter()
    workload, package, path = sys.argv[1:4]
    sys.path.insert(0, path)
    lab = __import__(package)
    cli = __import__(package + ".cli").cli

    if workload == "plane":
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["jacobian", "--", "x*y", "y"])
    elif workload == "span":
        z = lab.UniPoly.var_z()
        lab.generates_kz(z * z, z * z * z, 6)
    elif workload == "search":
        x, y = lab.Poly2.var_x(), lab.Poly2.var_y()
        lab.is_retract_generator_bounded(x + y * y, 1)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
