"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/record.py --seeds 1 2 --workloads span --trace 1
    python3 perfbench/record.py --seeds 1 2 3 --out perfbench/baseline.json

Each (workload, seed) is one ``run.py`` process.  For every metric the
table gives the median of the runs, their quartiles and the spread, the
distance between the quartiles as a share of the median (the figure the
bounds in BENCHMARK.json are judged against).  ``--out`` writes every run
record and the summary as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return {"result": result, "record": record}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary = {}, {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(run)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        summary[workload] = {}
        metrics = runs[workload][0]["result"]["metrics"]
        print(f"\n{workload}: {len(args.seeds)} runs")
        print(f"  {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            med, q1, q3, sp = spread(values)
            summary[workload][name] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3, "spread": sp,
                "values": values,
            }
            bound = bounds.get(name)
            flag = "" if bound is None else f"{bound:6.2f}" + ("" if sp < bound / 3 else " !")
            print(f"  {name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {flag}"
                  f"  {first['unit']}")
        rec = runs[workload][0]["record"]
        if "tail_percentile" in rec:
            print(f"  tail: p{rec['tail_percentile']:.2f} (ten samples beyond it in the "
                  f"minimum run of {rec['min_rounds']} x {rec['round_requests']} requests)")
        print()
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
