"""Run the benchmark over several seeds and print every metric's spread.

    python3 bench/repeat.py                       # every workload, seeds 0-9
    python3 bench/repeat.py --workloads exact-check --seeds 0-4
    python3 bench/repeat.py --write-baseline      # also write baseline.json

Each run is ``run.py`` in its own process, started like any single run, with
``run_seconds`` from BENCHMARK.json. For every workload and end-to-end metric
it prints the unit, the number of runs, the median, the quartiles and the
quartile spread as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from run import ROOT, environment

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    args = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{failed} of {attempted} operations failed")
        print(f"  {'metric':34s} {'unit':6s} {'runs':>4s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print(f"  {name:34s} {unit:6s} {len(values):4d} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound if bound is not None else '':>6}")
            summary[workload]["metrics"][name] = {
                "unit": unit, "runs": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": spread,
            }
    if args.write_baseline:
        BASELINE.write_text(json.dumps(
            {"env": environment(), "seeds": args.seeds, "run_seconds": args.seconds,
             "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
