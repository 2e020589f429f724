"""Run one child process and collect its wall time, exit code and peak RSS."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Outcome:
    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: bytes


def run_child(args: list[str], env: dict[str, str], cwd: Path, out_path: Path,
              timeout_s: float) -> Outcome:
    """Start ``args``, wait for it with ``os.wait4`` and return its outcome.

    The wall time runs from just before the process starts to just after it
    is reaped. ``ru_maxrss`` from ``wait4`` belongs to this child alone. A
    child still running after ``timeout_s`` is killed and reaped.
    """
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=cwd)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # the child is reaped; tell Popen so it never waits for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes())
