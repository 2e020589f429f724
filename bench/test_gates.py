"""The benchmark's own gates must turn bad output into failed operations.

    python3 -m pytest -q bench/test_gates.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gates  # noqa: E402
import workloads  # noqa: E402
from run import Run  # noqa: E402
from cycliclv import cli  # noqa: E402


def run_in_process(inv: workloads.Invocation) -> tuple[bytes, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(inv.argv) == 0
    csv = Path(inv.csv_path).read_bytes() if inv.csv_path else b""
    return out.getvalue().encode(), csv


@pytest.fixture
def integrals(tmp_path):
    rates = [Fraction(2), Fraction(1), Fraction(3), Fraction(6)]
    inv = workloads.Invocation("integrals-res4", "integrals", rates, "EVEN_RESONANT")
    inv.spec_path = str(tmp_path / "res4.json")
    Path(inv.spec_path).write_text(json.dumps({"k": ["2", "1", "3", "6"]}))
    inv.argv = ["integrals", "--system", inv.spec_path, "--format", "json"]
    return inv, *run_in_process(inv)


@pytest.fixture
def simulate(tmp_path):
    inv = next(i for i in workloads.build("layer-probe", 0, tmp_path) if i.command == "simulate")
    return inv, *run_in_process(inv)


def test_genuine_outputs_pass(integrals, simulate, tmp_path):
    check = next(i for i in workloads.build("layer-probe", 0, tmp_path) if i.command == "check")
    for inv, stdout, csv in (integrals, simulate, (check, *run_in_process(check))):
        verdict = gates.judge(inv, 0, stdout, csv, gates.fingerprint(stdout, csv))
        assert verdict.ok, verdict.problems
    inv, stdout, csv = simulate
    verdict = gates.judge(inv, 0, stdout, csv, None)
    assert (inv.expected_steps, verdict.steps, verdict.rows) == (2000, 2000, 2001)


def test_corrupted_exponent_vector_fails(integrals):
    inv, stdout, _ = integrals
    data = json.loads(stdout)
    assert data["monomials"][1]["exponents"] == ["0", "1", "0", "1/3"]
    data["monomials"][1]["exponents"][3] = "1/2"
    verdict = gates.judge(inv, 0, json.dumps(data).encode(), b"", None)
    assert any("exponent equation" in p for p in verdict.problems)


def test_wrong_classification_fails(integrals):
    inv, stdout, _ = integrals
    inv.classification = "ODD"
    assert not gates.judge(inv, 0, stdout, b"", None).ok


@pytest.mark.parametrize("returncode", [0, 3])
def test_positivity_breached_summary_fails(simulate, returncode):
    inv, stdout, csv = simulate
    breached = stdout.replace(
        b"status=ok", b"status=PositivityBreached(coordinate x3 fell below the positivity floor)")
    assert breached != stdout
    verdict = gates.judge(inv, returncode, breached, csv, None)
    assert any("PositivityBreached" in p for p in verdict.problems)


def test_changed_csv_byte_fails_only_the_fingerprint(simulate):
    inv, stdout, csv = simulate
    stored = gates.fingerprint(stdout, csv)
    pos = csv.rindex(b"e-")  # a digit inside the last drift cell
    digit = csv[pos - 1:pos]
    changed = csv[:pos - 1] + (b"1" if digit != b"1" else b"2") + csv[pos:]
    assert gates.judge(inv, 0, stdout, changed, None).ok
    verdict = gates.judge(inv, 0, stdout, changed, stored)
    assert [p for p in verdict.problems if "output bytes changed" in p]


def test_failures_count_against_the_run(tmp_path, integrals):
    run = Run("exact-integrals", 0, tmp_path)
    inv, stdout, _ = integrals
    run.expected = {}
    run.judge(inv, 0, stdout)
    run.judge(inv, 1, stdout)
    assert (run.attempted, len(run.failures)) == (2, 1)
