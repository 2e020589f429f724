"""End-to-end benchmark of the cycliclv CLI, with a traced per-layer mode.

    python3 bench/run.py --workload sim-rk4-long --seed 0 --seconds 20 --trace 0

Run from anywhere; the repository root is this file's parent directory. The
benchmark drives ``python -m cycliclv.cli`` as a user would: one child
process at a time (a closed loop with a single client), with an absolute
``PYTHONPATH`` pointing at ``src``, so no installation is needed.

With ``--trace 0`` it measures, with tracing off:

- ``setup_s``: wall time of a fresh interpreter running ``import cycliclv.cli``,
  median over one start before every invocation of the run;
- ``wall_s``: wall time of one pass over the workload's invocations, process
  start to exit, summed; median over the passes;
- ``max_op_s``: the slowest invocation, each taken as its median over passes;
- ``peak_rss_mb``: the largest child ``ru_maxrss`` of a pass (median).

The three timings are scaled to a reference speed. On the 2-vCPU Xeon VM
where the baseline was measured, a vCPU runs up to about 1.7x slower for
spells of seconds to minutes, as other guests load the host. Whole runs fell
in a fast or a slow spell, so the quartile spread of raw pass times over ten
seeds reached 0.25 of the median on ``sim-rk4-long``. The benchmark therefore
pins itself and its children to one CPU and runs a fixed pure-Python
reference job (``reference_s``) between invocations. Each start and each
invocation is divided by the mean of the two reference times around it and
multiplied by ``REF_SECONDS``: the time it would take when the reference job
takes ``REF_SECONDS``. The raw times are kept in the report.

A run makes a fixed number of passes per workload (see ``PASS_SECONDS``), so
the number of samples does not change when the program gets faster or
slower.

With ``--trace 1`` it reports per-layer metrics from an in-process traced run
(see ``tracing.py``). Every output of every invocation goes through the gates in
``gates.py``; an operation that fails them counts in ``failed``. The last line
of stdout is the JSON result; a fuller report is written under
``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import gates
import workloads
from procs import run_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# Seconds one pass over each workload took at the seed commit on the baseline
# host. With --seconds they fix the number of passes, which stays the same
# when a change makes the program faster or slower.
PASS_SECONDS = {"sim-rk4-long": 6.8, "sim-rk45-dense": 2.8, "exact-check": 18.6,
                "exact-integrals": 4.8}
MIN_PASSES = 2
# What the reference job takes at the baseline host's usual speed, about.
REF_SECONDS = 0.1
# Hard cap on the whole run, kept under the 180 s a run may take.
RUN_DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_args(inv: workloads.Invocation) -> list[str]:
    return [sys.executable, "-m", "cycliclv.cli", *inv.argv]


def load_fingerprints(workload: str, seed: int) -> dict[str, str]:
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    return table.get(f"{workload}/{seed % workloads.INPUT_SETS}", {})


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


class Run:
    """Counts attempted and failed operations and keeps what failed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.invocations = workloads.build(workload, seed, work)
        self.expected = load_fingerprints(workload, seed)
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.fingerprinted = 0
        self.failures: list[str] = []

    def judge(self, inv: workloads.Invocation, returncode: int, stdout: bytes) -> gates.Verdict:
        csv = b""
        if inv.csv_path and Path(inv.csv_path).exists():
            csv = Path(inv.csv_path).read_bytes()
            Path(inv.csv_path).unlink()  # the next call must write its own
        expected = self.expected.get(inv.label)
        verdict = gates.judge(inv, returncode, stdout, csv, expected)
        self.attempted += 1
        self.fingerprinted += expected is not None
        if not verdict.ok:
            self.failures.append(f"{inv.label}: {'; '.join(verdict.problems)}")
        return verdict

    def run_cli(self, inv: workloads.Invocation):
        """One CLI call as a child process, judged by the gates."""
        outcome = run_child(cli_args(inv), child_env(), self.work, self.work / "stdout",
                            self.deadline - time.monotonic())
        self.judge(inv, outcome.returncode, outcome.stdout)
        return outcome


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def reference_s() -> float:
    """Wall time of a fixed pure-Python job of Fraction and float arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 5000):
        total += Fraction(1, i) * Fraction(i + 1, 7)
    x = 0.0
    for i in range(400_000):
        x += i * 0.5
    return time.perf_counter() - start


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_args = [sys.executable, "-c", "import cycliclv.cli"]

    def start_interpreter() -> float:
        return run_child(setup_args, child_env(), run.work, run.work / "setup.out",
                         run.deadline - time.monotonic()).wall_s

    start_interpreter()  # compiles the package's .pyc files; not a sample
    reference_s()  # a first call can be slower; not a sample
    setup, passes, refs = [], [], [reference_s()]
    for _ in range(pass_count(run.workload, seconds)):
        began = time.monotonic()
        ops = []
        for inv in run.invocations:
            setup_s = start_interpreter()
            outcome = run.run_cli(inv)
            refs.append(reference_s())
            scale = REF_SECONDS / ((refs[-2] + refs[-1]) / 2)
            setup.append((setup_s, scale * setup_s))
            ops.append((outcome, scale * outcome.wall_s))
        passes.append(ops)
        if time.monotonic() > run.deadline - 2 * (time.monotonic() - began):
            break
    labels = [inv.label for inv in run.invocations]
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (statistics.median(sum(scaled for _, scaled in ops) for ops in passes), "s"),
        "max_op_s": (max(statistics.median(ops[i][1] for ops in passes)
                         for i in range(len(labels))), "s"),
        "peak_rss_mb": (statistics.median(max(o.peak_rss_mb for o, _ in ops) for ops in passes),
                        "MB"),
    }
    unscaled = {  # the same figures from the raw wall times
        "setup_s": statistics.median(raw for raw, _ in setup),
        "wall_s": statistics.median(sum(o.wall_s for o, _ in ops) for ops in passes),
        "max_op_s": max(statistics.median(ops[i][0].wall_s for ops in passes)
                        for i in range(len(labels))),
    }
    detail = {
        "unscaled": unscaled,
        "samples": {"setup_s": len(setup), "passes": len(passes),
                    "invocations_per_pass": len(labels), "reference_runs": len(refs)},
        "setup_s": [{"wall_s": raw, "scaled_s": scaled} for raw, scaled in setup],
        "reference_s": refs,
        "passes": [{label: {"wall_s": o.wall_s, "scaled_s": scaled, "peak_rss_mb": o.peak_rss_mb}
                    for label, (o, scaled) in zip(labels, ops)} for ops in passes],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # children inherit the mask, so every timed process and the reference job
    # share one CPU and see the same slow or fast spell
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "cycliclv" / "cli.py").is_file():
        print(f"error: no cycliclv sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            import tracing
            metrics, detail = tracing.traced(run, args.seconds, SRC)
        else:
            metrics, detail = untraced(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {**environment(), "workload": args.workload, "seed": args.seed,
           "input_set": args.seed % workloads.INPUT_SETS}
    report = {"env": env, "trace": args.trace, "metrics": metrics, "detail": detail,
              "attempted": run.attempted, "fingerprinted": run.fingerprinted,
              "failures": run.failures}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(report, indent=1, default=str))

    print("env: " + json.dumps(env))
    print("samples: " + json.dumps(detail["samples"]))
    if "unscaled" in detail:
        print("unscaled: " + json.dumps(detail["unscaled"]))
    print(f"operations: {run.attempted} attempted, {len(run.failures)} failed, "
          f"{run.fingerprinted} checked against stored output digests")
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:14.6g} {unit}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
