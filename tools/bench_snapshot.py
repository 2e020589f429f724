"""Record the benchmark's end-to-end figures as BENCH_<label>.json at the repo root.

    python3 tools/bench_snapshot.py --label L [--previous BENCH_X.json]

For each workload of BENCHMARK.json and each of SEEDS it runs the unchanged
``bench/run.py --workload W --seed S --seconds SECONDS --trace 0`` through
``bench/repeat.py``'s ``run_once``, which reads the JSON result that run.py
prints as its last stdout line. The file holds, per workload, each
end-to-end metric's median and quartiles over the seeds, taken as
repeat.py takes them, and whether every run was correct and how many
operations failed. A host block holds ``bench/run.py``'s environment
(Python and numpy versions, CPU model, CPU count), the commit, marked dirty
when tracked files differ from it, the median wall time of
``python -c pass`` and ``python -S -c pass`` over STARTS starts each,
whether a native build of the package loads, the first line of
``CC --version`` for the compiler that build runs (sysconfig's CC; null
where there is none), and numpy's CPU baseline and the dispatched features
this CPU has. With --previous each median also gets its ratio to that
file's median: below 1 is lower, and every end-to-end metric is better
lower. A previous file recorded with other
seeds, another run length, CPU model or CPU count is refused.

A metric or key that run.py stops printing ends the script with exit 1 and
its name; it never reads 0. So does a run that exits nonzero. A workload
that is not correct is recorded, and the script exits 1 after writing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SEEDS = [0, 1]
SECONDS = 4
STARTS = 7

sys.path.insert(0, str(ROOT / "bench"))
import repeat  # noqa: E402
from run import environment  # noqa: E402


class SnapshotError(Exception):
    """A run or a file that does not give the figures the snapshot needs."""


def run_result(workload: str, seed: int) -> dict:
    """run.py's result for one untraced run."""
    where = f"{workload} seed {seed}"
    try:
        result = repeat.run_once(workload, seed, SECONDS)
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        raise SnapshotError(f"{where}: the last stdout line is not run.py's JSON result")
    return result


def _field(result: dict, where: str, *path: str):
    value = result
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise SnapshotError(f"{where}: run.py printed no {'.'.join(path)}")
        value = value[key]
    return value


def summarize(results: list[dict], metrics: list[str], where: str) -> dict:
    """One workload's figures over its runs: each metric's median and quartiles."""
    summary = {}
    for name in metrics:
        values = [float(_field(r, where, "metrics", name, "value")) for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": _field(results[0], where, "metrics", name, "unit"),
                         "median": median, "q1": q1, "q3": q3}
    return {"correct": all(_field(r, where, "correct") is True for r in results),
            "failed": sum(int(_field(r, where, "failed")) for r in results),
            "metrics": summary}


def setting(report: dict) -> dict:
    """What must match in two files for their medians to compare."""
    host = report.get("host") if isinstance(report.get("host"), dict) else {}
    return {"seeds": report.get("seeds"), "seconds": report.get("seconds"),
            "cpu": host.get("cpu"), "nproc": host.get("nproc")}


def add_ratios(workloads: dict, previous: dict, where: str) -> None:
    """Each median's ratio to the previous file's median of the same figure."""
    for workload, summary in workloads.items():
        for name, metric in summary["metrics"].items():
            try:
                before = float(previous["workloads"][workload]["metrics"][name]["median"])
            except (KeyError, TypeError, ValueError):
                raise SnapshotError(f"{where}: no median of {name} for {workload}") from None
            if not before > 0:
                raise SnapshotError(f"{where}: the median of {name} for {workload} is {before}")
            metric["ratio"] = metric["median"] / before


def _median_start_s(*flags: str) -> float:
    times = []
    for _ in range(STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *flags, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cc_version() -> str | None:
    """The first line of --version of sysconfig's CC, which the native build runs."""
    cc = sysconfig.get_config_var("CC")
    try:
        out = subprocess.run([*cc.split(), "--version"], capture_output=True, text=True,
                             timeout=60)
    except (AttributeError, OSError, subprocess.SubprocessError):  # no CC, or none runs
        return None
    lines = out.stdout.splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def numpy_cpu() -> dict | None:
    """numpy's CPU baseline, and the features of its dispatch list that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        try:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        except ImportError:
            return None
    present = umath.__cpu_features__
    return {"baseline": list(umath.__cpu_baseline__),
            "dispatched": [f for f in umath.__cpu_dispatch__ if present.get(f)]}


def host() -> dict:
    """run.py's environment, the dirty-marked commit, start-ups, native build, compiler, CPU."""
    # "<hash>-dirty" when tracked files differ from it, where run.py's
    # environment() names the unedited commit; None outside a git checkout,
    # as in an unpacked git archive
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                                cwd=ROOT, capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    ask = "import sys; from cycliclv import sim; sys.exit(sim._native() is None)"
    native = subprocess.run([sys.executable, "-c", ask], cwd=ROOT, capture_output=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).returncode == 0
    return {**environment(), "commit": commit, "starts": STARTS,
            "python_c_pass_s": _median_start_s(), "python_S_c_pass_s": _median_start_s("-S"),
            "native": native, "cc_version": cc_version(), "numpy_cpu": numpy_cpu()}


def snapshot(label: str, previous: Path | None = None) -> dict:
    report = {"label": label, "seeds": SEEDS, "seconds": SECONDS, "host": host()}
    if previous is not None:  # read before any run, so a bad file costs no benchmark
        try:
            before = json.loads(previous.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"{previous}: {exc}") from None
        if not isinstance(before, dict):
            raise SnapshotError(f"{previous}: not a snapshot")
        if setting(before) != setting(report):
            raise SnapshotError(f"{previous}: recorded with {setting(before)}, "
                                f"not {setting(report)}")
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        results = [run_result(workload, seed) for seed in SEEDS]
        workloads[workload] = summarize(results, metrics, workload)
    report["workloads"] = workloads
    if previous is not None:
        add_ratios(workloads, before, str(previous))
        report["previous"] = previous.name
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--previous", type=Path)
    args = parser.parse_args(argv)
    try:
        report = snapshot(args.label, args.previous)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    wrong = [w for w, s in report["workloads"].items() if not s["correct"] or s["failed"]]
    for workload in wrong:
        print(f"error: {workload} is not correct", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
