"""Record the output digests that every benchmark run compares against.

    python3 bench/record.py

Runs each input set of each workload once through the CLI, requires every
gate except the digest itself to pass, and writes ``fingerprints.json``.
Re-record only in a change whose purpose is to change the CLI's output
bytes; otherwise a digest mismatch is a regression that the benchmark counts
as a failed operation.
"""

from __future__ import annotations

import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import gates
import workloads
from procs import run_child
from run import FINGERPRINTS, WORK, child_env, cli_args


def record_set(workload: str, input_set: int) -> tuple[str, dict[str, str]]:
    with tempfile.TemporaryDirectory(prefix="record-", dir=WORK) as tmp:
        work = Path(tmp)
        digests = {}
        for inv in workloads.build(workload, input_set, work):
            outcome = run_child(cli_args(inv), child_env(), work, work / "stdout", 600.0)
            csv = Path(inv.csv_path).read_bytes() if inv.csv_path else b""
            verdict = gates.judge(inv, outcome.returncode, outcome.stdout, csv, None)
            if not verdict.ok:
                raise SystemExit(f"{workload}/{input_set} {inv.label}: {verdict.problems}")
            digests[inv.label] = verdict.fingerprint
    print(f"recorded {workload}/{input_set}", flush=True)
    return f"{workload}/{input_set}", digests


def main() -> int:
    WORK.mkdir(exist_ok=True)
    keys = [(w, s) for w in workloads.WORKLOADS for s in range(workloads.INPUT_SETS)]
    # two children at a time; recording measures nothing
    with ThreadPoolExecutor(max_workers=2) as pool:
        table = dict(pool.map(lambda key: record_set(*key), keys))
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
