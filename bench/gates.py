"""Output gates: decide whether one CLI invocation produced a correct result.

The gates recompute what they check with plain ``fractions.Fraction`` and
string handling, never through ``cycliclv`` itself, so a defect in the
program cannot also hide the defect from the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from workloads import H1_DRIFT_LIMIT, MONOMIALS, Invocation


@dataclass
class Verdict:
    """Gate outcome plus the figures the metrics need from the output."""

    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""
    steps: int = 0
    rows: int = 0
    max_drift_monomial: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def fingerprint(stdout: bytes, csv: bytes) -> str:
    """Short digests of stdout and CSV bytes, as stored in fingerprints.json."""
    return "/".join(hashlib.sha256(b).hexdigest()[:16] for b in (stdout, csv))


def check_integrals(inv: Invocation, stdout: bytes) -> list[str]:
    """Exponents must solve k_{i-1} lam_{i-1} == k_i lam_{i+1} exactly."""
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    k = inv.rates
    n = len(k)
    if data.get("n") != n or [Fraction(v) for v in data.get("k", [])] != k:
        problems.append("n or k does not echo the input system")
    if data.get("classification") != inv.classification:
        problems.append(f"classification {data.get('classification')} != {inv.classification}")
    if data.get("linear") != {"name": "H1", "weights": ["1"] * n}:
        problems.append("linear integral is not H1 = x1 + ... + xn")
    monomials = data.get("monomials", [])
    if len(monomials) != MONOMIALS[inv.classification]:
        return problems + [f"{len(monomials)} monomials for {inv.classification}"]
    for j, mono in enumerate(monomials):
        name = f"H{j + 2}"
        lam = [Fraction(e) for e in mono.get("exponents", [])]
        if mono.get("name") != name or len(lam) != n:
            problems.append(f"{name}: wrong name or length")
            continue
        first = next((e for e in lam if e != 0), None)
        if first != 1:
            problems.append(f"{name}: first nonzero exponent is {first}, not 1")
        for i in range(n):
            if k[i - 1] * lam[i - 1] != k[i] * lam[(i + 1) % n]:
                problems.append(f"{name}: exponent equation {i + 1} fails")
                break
        if inv.classification == "EVEN_RESONANT":
            # H2 lives on odd coordinates x1, x3, ...; H3 on even ones
            off_support = lam[1 - j :: 2]
            if lam[j] != 1 or any(off_support):
                problems.append(f"{name}: support is not the expected parity chain")
    return problems


def check_check(inv: Invocation, stdout: bytes) -> list[str]:
    """The battery must pass, with one line per expected check."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines or lines[-1] != "result: PASS":
        return [f"last line is {lines[-1] if lines else ''!r}, not 'result: PASS'"]
    passed = [ln for ln in lines if ln.startswith("check ") and ln.endswith(": PASS")]
    expected = 3 + MONOMIALS[inv.classification] + (inv.classification != "N2")
    if len(passed) != expected:
        return [f"{len(passed)} passing checks, expected {expected}"]
    return []


def _summary_fields(stdout: bytes) -> dict[str, str]:
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != 1 or not lines[0].startswith("summary: "):
        return {}
    # status=... may contain spaces; it is always the last field
    head, _, status = lines[0][len("summary: "):].partition(" status=")
    fields = dict(part.split("=", 1) for part in head.split() if "=" in part)
    fields["status"] = status
    return fields


def check_simulate(inv: Invocation, stdout: bytes, csv: bytes, verdict: Verdict) -> list[str]:
    """Summary says ok at t_end, CSV matches it, and H1 drift is roundoff."""
    fields = _summary_fields(stdout)
    if not fields:
        return ["stdout is not a single summary line"]
    if fields["status"] != "ok":
        return [f"status={fields['status']}"]
    problems = []
    names = inv.integral_names
    try:
        rows = int(fields["rows"])
        t_final = float(fields["t_final"])
        drifts = [float(fields[f"max_drift_{name}"]) for name in names]
    except (KeyError, ValueError) as exc:
        return [f"summary field missing or malformed: {exc}"]
    if abs(t_final - inv.t_end) > 1e-9 * inv.t_end:
        problems.append(f"t_final={t_final} != t_end={inv.t_end}")
    if not drifts[0] <= H1_DRIFT_LIMIT:
        problems.append(f"max_drift_H1={drifts[0]} above roundoff limit {H1_DRIFT_LIMIT}")
    if not all(math.isfinite(d) for d in drifts):
        problems.append("non-finite drift")
    lines = csv.decode("utf-8", "replace").split("\n")
    header = ["t"] + [f"x{i}" for i in range(1, inv.n + 1)] + names + [f"drift_{m}" for m in names]
    if lines[-1] != "" or lines[0] != ",".join(header):
        problems.append("CSV header or final newline is wrong")
    body = lines[1:-1]
    if len(body) != rows:
        problems.append(f"CSV has {len(body)} rows, summary says {rows}")
    elif any(line.count(",") != len(header) - 1 for line in body):
        problems.append("CSV row with the wrong number of cells")
    elif body and body[-1].split(",", 1)[0] != fields["t_final"]:
        problems.append("last CSV row is not at t_final")
    steps = inv.expected_steps
    if steps is None:
        if inv.sample_every != 1:
            return problems + ["step count is only known for rk4 or --sample-every 1"]
        steps = rows - 1
    elif rows != len(range(0, steps, inv.sample_every)) + 1:
        problems.append(f"rows={rows} for {steps} steps every {inv.sample_every}")
    verdict.steps = steps
    verdict.rows = rows
    verdict.max_drift_monomial = max(drifts[1:], default=0.0)
    return problems


def judge(inv: Invocation, returncode: int, stdout: bytes, csv: bytes,
          expected_fingerprint: str | None) -> Verdict:
    """Every gate for one invocation; ``expected_fingerprint`` None skips that gate."""
    verdict = Verdict(fingerprint=fingerprint(stdout, csv))
    if returncode != 0:
        verdict.problems.append(f"exit code {returncode}")
    try:
        if inv.command == "integrals":
            verdict.problems += check_integrals(inv, stdout)
        elif inv.command == "check":
            verdict.problems += check_check(inv, stdout)
        else:
            verdict.problems += check_simulate(inv, stdout, csv, verdict)
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        verdict.problems.append(f"malformed output: {exc!r}")
    if expected_fingerprint is not None and verdict.fingerprint != expected_fingerprint:
        verdict.problems.append(
            f"output bytes changed: {verdict.fingerprint} != stored {expected_fingerprint}"
        )
    return verdict
