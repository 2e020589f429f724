"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of `cycliclv` CLI invocations. The benchmark
writes the system JSON files and picks `--x0` from the seed; the program only
ever sees those files and flags. Why each workload exists:

- ``sim-rk4-long``: fixed-step RK4 with sparse output (1% of rows written),
  1e5 steps in total over an n=4 EVEN_RESONANT and an n=9 ODD system.
  Stepping and per-step drift monitoring do almost all the work, and keeping
  every step's record sets the peak memory.
- ``sim-rk45-dense``: adaptive Fehlberg 4(5) writing every accepted step on
  an n=9 ODD system. The RKF45 stepper and the CSV writer dominate; both are
  barely touched by ``sim-rk4-long``. The number of accepted steps depends
  on the orbit (by a factor of three between six random n=9 systems), which
  would swamp any timing change, so the seed varies only what leaves the step
  count fixed: a cyclic rotation of one base system's coordinates and a time
  scale c (rates times c, t_end and initial step divided by c).
- ``exact-check``: the exact verification battery over N2, ODD (n=9, 31,
  101), EVEN_RESONANT (n=100) and EVEN_NONRESONANT (n=100) systems. The
  Jacobi multiplier, the Fraction RREF nullspace and the independence rank
  dominate; no simulation code runs. n >= 300 is left out because one check
  there runs for minutes.
- ``exact-integrals``: closed-form integrals as JSON on n of about 1000 plus
  n=2 and n=4 systems, where interpreter start-up is nearly the whole run.
  No nullspace or verification work runs, so this is the workload where the
  closed-form exponent chains and start-up show.

The seed selects one of ``INPUT_SETS`` input sets per workload. The output
digests of every set are stored in ``fingerprints.json``, so each run, whatever
its seed, checks that the program's stdout and CSV bytes are unchanged.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

INPUT_SETS = 32

WORKLOADS = ("sim-rk4-long", "sim-rk45-dense", "exact-check", "exact-integrals")

# Drift of the linear integral H1 is pure roundoff for Runge-Kutta steps; a
# value above this means the float pipeline broke, not that steps are coarse.
H1_DRIFT_LIMIT = 1e-11

# x0 is an interior equilibrium scaled to sum n, times exp(X0_SPREAD * u) per
# coordinate with u uniform in [-1, 1]. Starting near the equilibrium keeps
# the orbit well inside the positive orthant (no coordinate below 4e-3 over
# t=500 on 16 seeded n=9 systems); an evenly spaced x0 on an n=9 system can
# reach the positivity floor (an rk45 run from one aborted at t of about
# 3.6), which would turn a speed benchmark into a PositivityBreached test.
# With x_i near 1, RK4 at h=1e-2 has monomial drift near 1e-7, well above
# roundoff, so reordering float operations cannot move it by a tenth.
X0_SPREAD = 0.1

# Monomial first integrals per classification, as the paper's table gives them.
MONOMIALS = {"N2": 0, "ODD": 1, "EVEN_RESONANT": 2, "EVEN_NONRESONANT": 0}

# Exact time scales for the rk45 workload (see the module docstring).
RK45_TIME_SCALES = tuple(Fraction(c) for c in ("1/2", "2/3", "3/4", "1", "4/3", "3/2", "2"))


@dataclass
class Invocation:
    """One CLI call and what its output must look like."""

    label: str
    command: str  # integrals | check | simulate
    rates: list[Fraction]
    classification: str
    argv: list[str] = field(default_factory=list)
    spec_path: str = ""
    csv_path: str = ""
    method: str = ""
    step: float = 0.0
    t_end: float = 0.0
    sample_every: int = 1

    @property
    def n(self) -> int:
        return len(self.rates)

    @property
    def integral_names(self) -> list[str]:
        return ["H1"] + [f"H{j + 2}" for j in range(MONOMIALS[self.classification])]

    @property
    def expected_steps(self) -> int | None:
        """Accepted steps of a fixed-step run (mirrors the count in ``sim.integrate``)."""
        if self.command != "simulate" or self.method != "rk4":
            return None
        n_full = int(math.floor(self.t_end / self.step + 1e-9))
        remainder = self.t_end - n_full * self.step
        return n_full + (1 if remainder > 1e-12 * max(1.0, abs(self.t_end)) else 0)


def _nonzero_ints(rng: random.Random, n: int, signed: bool) -> list[Fraction]:
    out = []
    while len(out) < n:
        k = rng.randint(-9 if signed else 1, 9)
        if k:
            out.append(Fraction(k))
    return out


def _alternating_products(k: list[Fraction]) -> tuple[Fraction, Fraction]:
    odd = math.prod(k[0::2], start=Fraction(1))
    even = math.prod(k[1::2], start=Fraction(1))
    return odd, even


def _resonant(rng: random.Random, n: int, signed: bool) -> list[Fraction]:
    """Even-n rates with k1*k3*...*k(n-1) == k2*k4*...*kn, last rate solved."""
    k = _nonzero_ints(rng, n - 1, signed)
    odd, even = _alternating_products(k)
    return k + [odd / even]


def _nonresonant(rng: random.Random, n: int, signed: bool) -> list[Fraction]:
    while True:
        k = _nonzero_ints(rng, n, signed)
        odd, even = _alternating_products(k)
        if odd != even:
            return k


def _equilibrium_x0(rng: random.Random, k: list[Fraction]) -> list[float]:
    """Seeded positive state near an interior equilibrium, summing to n.

    At an equilibrium k_i x_{i+1} = k_{i-1} x_{i-1}, so x_{j+2} = k_j x_j /
    k_{j+1}: one chain for odd n, two (odd and even indices) for even n,
    each closing because the rates are positive and, for even n, resonant.
    """
    n = len(k)
    x: list[Fraction | None] = [None] * n
    for start in (0, 1):
        j, value = start, Fraction(1)
        while x[j] is None:
            x[j] = value
            value = k[j] * value / k[(j + 1) % n]
            j = (j + 2) % n
    raw = [float(v) * math.exp(X0_SPREAD * rng.uniform(-1.0, 1.0)) for v in x]
    total = sum(raw)
    return [n * v / total for v in raw]


def _write_spec(path: Path, rates: list[Fraction]) -> None:
    path.write_text(json.dumps({"k": [str(v) for v in rates]}), encoding="utf-8")


def _simulate(work: Path, label, rates, x0, classification, method, step, t_end, every):
    x0 = ",".join(f"{v:.9g}" for v in x0)
    inv = Invocation(label, "simulate", rates, classification, method=method,
                     step=step, t_end=t_end, sample_every=every)
    inv.csv_path = str(work / f"{label}.csv")
    inv.argv = ["simulate", "--system", "", "--x0", x0, "--method", method,
                "--step", repr(step), "--t-end", repr(t_end),
                "--sample-every", str(every), "--out", inv.csv_path]
    return inv


def build(workload: str, seed: int, work: Path) -> list[Invocation]:
    """Write the workload's spec files under ``work`` and return its calls."""
    rng = random.Random(f"{workload}/{seed % INPUT_SETS}")
    if workload == "sim-rk4-long":
        invs = []
        for label, rates, cls in (("rk4-res4", _resonant(rng, 4, False), "EVEN_RESONANT"),
                                  ("rk4-odd9", _nonzero_ints(rng, 9, False), "ODD")):
            x0 = _equilibrium_x0(rng, rates)
            invs.append(_simulate(work, label, rates, x0, cls, "rk4", 1e-2, 500.0, 100))
    elif workload == "sim-rk45-dense":
        base = random.Random(workload)
        rates = _nonzero_ints(base, 9, False)
        x0 = _equilibrium_x0(base, rates)
        turn = rng.randrange(len(rates))
        scale = rng.choice(RK45_TIME_SCALES)
        rates = [scale * k for k in rates[turn:] + rates[:turn]]
        x0 = x0[turn:] + x0[:turn]
        invs = [_simulate(work, "rk45-odd9", rates, x0, "ODD", "rk45",
                          float(Fraction("1/100") / scale), float(10 / scale), 1)]
    elif workload == "exact-check":
        systems = [
            ("n2", _nonzero_ints(rng, 2, True), "N2"),
            ("odd9", _nonzero_ints(rng, 9, True), "ODD"),
            ("odd31", _nonzero_ints(rng, 31, True), "ODD"),
            ("odd101", _nonzero_ints(rng, 101, True), "ODD"),
            ("res100", _resonant(rng, 100, True), "EVEN_RESONANT"),
            ("nonres100", _nonresonant(rng, 100, True), "EVEN_NONRESONANT"),
        ]
        invs = []
        for label, rates, cls in systems:
            inv = Invocation(f"check-{label}", "check", rates, cls)
            inv.argv = ["check", "--system", "", "--seed", str(rng.randrange(2**31))]
            invs.append(inv)
    elif workload == "exact-integrals":
        systems = [
            ("n2", _nonzero_ints(rng, 2, True), "N2"),
            ("res4", _resonant(rng, 4, True), "EVEN_RESONANT"),
            ("odd1001", _nonzero_ints(rng, 1001, True), "ODD"),
            ("res1000", _resonant(rng, 1000, True), "EVEN_RESONANT"),
            ("nonres1000", _nonresonant(rng, 1000, True), "EVEN_NONRESONANT"),
        ]
        invs = []
        for label, rates, cls in systems:
            inv = Invocation(f"integrals-{label}", "integrals", rates, cls)
            inv.argv = ["integrals", "--system", "", "--format", "json"]
            invs.append(inv)
    elif workload == "layer-probe":
        # small inputs for layers a workload does not reach (see tracing.py)
        rates = _nonzero_ints(rng, 9, False)
        invs = [_simulate(work, "probe-rk4-odd9", rates, _equilibrium_x0(rng, rates), "ODD",
                          "rk4", 1e-2, 20.0, 1)]
        check = Invocation("probe-check-odd31", "check", _nonzero_ints(rng, 31, True), "ODD")
        check.argv = ["check", "--system", "", "--seed", str(rng.randrange(2**31))]
        invs.append(check)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for inv in invs:
        inv.spec_path = str(work / f"{inv.label}.json")
        _write_spec(Path(inv.spec_path), inv.rates)
        inv.argv[inv.argv.index("--system") + 1] = inv.spec_path
    return invs
