"""Shared test helpers: seed-driven generators and the CLI subprocess runner."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import cycliclv
from cycliclv import CyclicLVSystem, make_system


def random_system(
    rng: random.Random, n: int, lo: int = -9, hi: int = 9
) -> CyclicLVSystem:
    """System with nonzero integer rates drawn uniformly from [lo, hi]."""
    rates = []
    for _ in range(n):
        k = 0
        while k == 0:
            k = rng.randint(lo, hi)
        rates.append(k)
    return make_system(rates)


def resonant_system(rng: random.Random, n: int, lo: int = -9, hi: int = 9):
    """Even-n system satisfying k1*k3*...*k(n-1) == k2*k4*...*kn.

    The first n-1 rates are random nonzero integers and the last one is
    solved from the product condition, so it is a nonzero rational.
    """
    assert n % 2 == 0 and n >= 4
    base = random_system(rng, n - 1, lo, hi)
    k = list(base.rates)
    odd_prod = Fraction(1)
    for j in range(0, n, 2):
        odd_prod *= k[j]
    even_prod = Fraction(1)
    for j in range(1, n - 2, 2):
        even_prod *= k[j]
    k.append(odd_prod / even_prod)
    return make_system(k)


def dense(rows, ncols: int) -> list[list[Fraction]]:
    """Sparse rows as dense lists, zeros filled in.

    A row is a dict {column: entry} or a sequence of (column, entry) terms,
    as in ``structure_matrix``; terms that share a column are summed.
    """
    out = []
    for row in rows:
        line = [Fraction(0)] * ncols
        for j, v in row.items() if isinstance(row, dict) else row:
            line[j] += v
        out.append(line)
    return out


def sparse(matrix) -> list[dict[int, Fraction]]:
    """Dense rows as dicts {column: nonzero entry}."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


# n = 41 with rates 7, 1, 7, ..., 7: the monomial's exponents reach 7^20, so
# lam . log x leaves the float range unless every x_i is very close to 1
RATES_41 = [7, 1] * 20 + [7]
# x2 = exp(-700 / lam_2) puts H2(x0) at exp(-700), about 1.16e-304, so drift
# is measured against a start below 1e-300; at step 8e-4 the third step's H2
# is a finite 3.4e205, whose drift overflows
X0_41_TINY_H2 = ",".join(["1", "0.9999999999999912"] + ["1"] * 39)


def simplex_point(rng: random.Random, n: int, margin: float = 0.2) -> list[float]:
    """Random point with positive coordinates summing to 1, away from faces."""
    raw = [margin + rng.random() for _ in range(n)]
    total = sum(raw)
    return [v / total for v in raw]


def run_cli(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Run `python -m cycliclv.cli *args` in a child process started in `cwd`.

    The directory holding the `cycliclv` package that this process imported
    goes first on the child's PYTHONPATH, ahead of any inherited entries, so
    the child runs the code under test whether it came from `src/` or from an
    install, and a relative PYTHONPATH cannot break when `cwd` differs.
    """
    package_root = str(Path(cycliclv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "cycliclv.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
    )


def stderr_of(*results: subprocess.CompletedProcess) -> str:
    """The children's decoded stderr, for the message of a failed assertion."""
    return "\n".join(r.stderr.decode(errors="replace") for r in results)
