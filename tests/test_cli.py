"""Exit codes, output formats, round-trips, and byte-level determinism."""

import contextlib
import io
import json
import math
import random
import sys as _sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycliclv import VerificationReport, integral_basis, make_system, sim
from cycliclv import cli
from cycliclv.cli import main, run_check_battery
from helpers import (
    RATES_41,
    X0_41_TINY_H2,
    random_system,
    resonant_system,
    run_cli,
    stderr_of,
)


def write_spec(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"k": entries}), encoding="utf-8")
    return str(path)


@pytest.fixture
def wheel3(tmp_path):
    return write_spec(tmp_path, "wheel3.json", ["2", "1", "3"])


@pytest.fixture
def resonant4(tmp_path):
    return write_spec(tmp_path, "res4.json", ["2", "1", "3", "6"])


@pytest.fixture
def nonresonant4(tmp_path):
    return write_spec(tmp_path, "nonres4.json", ["1", "1", "1", "2"])


@pytest.fixture
def wheel41(tmp_path):
    return write_spec(tmp_path, "wheel41.json", RATES_41)


class TestIntegrals:
    def test_text_output(self, wheel3, capsys):
        assert main(["integrals", "--system", wheel3]) == 0
        out = capsys.readouterr().out
        assert "classification: ODD" in out
        assert "H1 = x1 + x2 + x3" in out
        assert "H2 exponents: 1, 3, 2" in out

    def test_nonresonant_reports_linear_only(self, nonresonant4, capsys):
        assert main(["integrals", "--system", nonresonant4]) == 0
        out = capsys.readouterr().out
        assert "classification: EVEN_NONRESONANT" in out
        assert "no monomial integrals" in out
        assert "H2" not in out

    def test_zero_parameter_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "zero.json", ["1", "0", "3"])
        assert main(["integrals", "--system", spec]) == 2
        err = capsys.readouterr().err
        assert "entry 2" in err

    @pytest.mark.parametrize("entries", [["3"], []])
    def test_too_few_rates_exit_2(self, tmp_path, capsys, entries):
        spec = write_spec(tmp_path, "short.json", entries)
        assert main(["integrals", "--system", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_unparseable_entry_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json", ["2", "abc", "3"])
        assert main(["integrals", "--system", spec]) == 2
        assert "entry 2" in capsys.readouterr().err

    def test_json_round_trip_exact(self, resonant4, capsys):
        assert main(["integrals", "--system", resonant4, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        parsed = [
            tuple(Fraction(e) for e in mono["exponents"])
            for mono in payload["monomials"]
        ]
        basis = integral_basis(make_system([2, 1, 3, 6]))
        assert parsed == [mono.exponents for mono in basis.monomials]
        assert payload["classification"] == "EVEN_RESONANT"

    @pytest.mark.parametrize(
        "literal", ['"1e999999999"', "1e999999999"], ids=["string", "bare"]
    )
    def test_huge_decimal_exponent_exit_2(self, tmp_path, literal):
        spec = '{"k": [%s, 1, 2]}' % literal
        (tmp_path / "huge.json").write_text(spec, encoding="utf-8")
        # building 10^999999999 takes far longer than the timeout: fail, not hang
        result = run_cli(["integrals", "--system", "huge.json"], tmp_path, timeout=30)
        err = stderr_of(result)
        assert result.returncode == 2, err
        assert err.startswith("error: entry 1: ") and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exact_values_past_the_int_digit_limit(self, tmp_path, capsys, fmt):
        rates = [123456789, 1] * 550 + [123456789]
        spec = write_spec(tmp_path, "long.json", rates)
        limit = _sys.get_int_max_str_digits()
        assert main(["integrals", "--system", spec, "--format", fmt]) == 0
        assert _sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        (mono,) = integral_basis(make_system(rates)).monomials
        _sys.set_int_max_str_digits(0)
        try:
            expected = [str(e) for e in mono.exponents]
        finally:
            _sys.set_int_max_str_digits(limit)
        assert max(map(len, expected)) > limit
        if fmt == "json":
            assert json.loads(out)["monomials"][0]["exponents"] == expected
        else:
            assert "H2 exponents: " + ", ".join(expected) in out.splitlines()
        # the limit still holds while a spec is parsed
        long_int = tmp_path / "long_int.json"
        long_int.write_text('{"k": [%s, 1, 2]}' % ("7" * 5000), encoding="utf-8")
        assert main(["integrals", "--system", str(long_int)]) == 2

    def test_exact_decimal_entries(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "dec.json", [0.25, "1/2", 3])
        assert main(["integrals", "--system", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == ["1/4", "1/2", "3"]


class TestCheck:
    def test_odd_system_passes(self, wheel3, capsys):
        assert main(["check", "--system", wheel3]) == 0
        out = capsys.readouterr().out
        assert "check linear-integral: PASS" in out
        assert "check cofactor-cancellation[H2]: PASS" in out
        assert "check nullspace-formula-equivalence: PASS" in out
        assert "result: PASS" in out

    def test_resonant_system_passes(self, resonant4, capsys):
        assert main(["check", "--system", resonant4]) == 0
        out = capsys.readouterr().out
        assert "cofactor-cancellation[H3]" in out

    def test_nonresonant_notes_no_monomials(self, nonresonant4, capsys):
        assert main(["check", "--system", nonresonant4]) == 0
        out = capsys.readouterr().out
        assert "no monomial integrals" in out

    def test_n2_skips_exponent_machinery(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n2.json", ["1", "5"])
        assert main(["check", "--system", spec]) == 0
        assert "SKIP (n=2)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n, make, classification",
        [(301, random_system, "ODD"), (300, resonant_system, "EVEN_RESONANT")],
    )
    def test_battery_passes_at_scale(self, n, make, classification):
        system = make(random.Random(n), n)
        assert integral_basis(system).classification.name == classification
        lines, ok = run_check_battery(system, seed=0)
        assert ok, lines

    def test_verification_failure_exit_1(self, wheel3, capsys, monkeypatch):
        from cycliclv import cli as cli_mod

        monkeypatch.setattr(
            cli_mod.verify,
            "check_linear_integral",
            lambda sys: VerificationReport(witness="forced"),
        )
        assert main(["check", "--system", wheel3]) == 1
        out = capsys.readouterr().out
        assert "check linear-integral: FAIL (forced)" in out
        assert "result: FAIL" in out


class TestSimulate:
    def test_method_choices_are_the_method_enum(self):
        # the parser lists the methods literally, so that building it loads no sim
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        method = next(a for a in sub.choices["simulate"]._actions if a.dest == "method")
        assert list(method.choices) == [m.value for m in sim.Method]

    def test_equilibrium_row_count(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "sym.json", ["1", "1", "1"])
        out_csv = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--system", spec,
                "--x0", "1,1,1",
                "--step", "1e-2",
                "--t-end", "1",
                "--out", str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,H1,H2,drift_H1,drift_H2"
        assert len(lines) == 1 + 101
        assert all(line.endswith(",0,0") for line in lines[1:])
        assert "status=ok" in capsys.readouterr().out

    def test_sample_every(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "sym.json", ["1", "1", "1"])
        out_csv = tmp_path / "traj.csv"
        main(
            [
                "simulate",
                "--system", spec,
                "--x0", "1,1,1",
                "--step", "1e-2",
                "--t-end", "1",
                "--sample-every", "10",
                "--out", str(out_csv),
            ]
        )
        lines = out_csv.read_text().splitlines()
        # records 0,10,...,100: the final record is already on the grid
        assert len(lines) == 1 + 11

    def test_drift_summary(self, wheel3, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--system", wheel3,
                "--x0", "0.2,0.3,0.5",
                "--step", "1e-3",
                "--t-end", "10",
                "--out", str(out_csv),
            ]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "max_drift_H1=" in summary and "max_drift_H2=" in summary
        drift = float(summary.split("max_drift_H1=")[1].split()[0])
        assert drift <= 1e-8

    def test_zero_x0_exit_2(self, wheel3, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--system", wheel3,
                "--x0", "0,0.5,0.5",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--x0", "0.2,0.3,nan"],
            ["--x0", "0.2,inf,0.5"],
            ["--x0", "0.2,0.3,0.5", "--t-end", "nan"],
            ["--x0", "0.2,0.3,0.5", "--t-end", "inf"],
            ["--x0", "0.2,0.3,0.5", "--step", "inf"],
        ],
    )
    def test_non_finite_input_exit_2(self, wheel3, tmp_path, capsys, flags):
        out_csv = tmp_path / "t.csv"
        code = main(["simulate", "--system", wheel3, *flags, "--out", str(out_csv)])
        assert code == 2
        assert not out_csv.exists()
        assert "status=ok" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spec, x0, t_end, named",
        [
            ('{"k": [1e400, 1, 3]}', "0.2,0.3,0.5", "0.01", "rate k1"),
            # the monomial's exponent k1/k2 is 1e400
            ('{"k": ["1e200", "1e-200", 1]}', "0.2,0.3,0.5", "0.01", "in H2"),
            ('{"k": ["1e-400", 1, 3]}', "0.2,0.3,0.5", "0.01", "rate k1"),
            ('{"k": [2, 1, 3]}', "1e-13,0.5,0.5", "1", "floor 1e-12"),
        ],
        ids=["rate-overflow", "exponent-overflow", "rate-underflow", "x0-below-floor"],
    )
    def test_refused_before_any_step_exit_2(
        self, tmp_path, capsys, spec, x0, t_end, named
    ):
        path = tmp_path / "spec.json"
        path.write_text(spec, encoding="utf-8")
        out_csv = tmp_path / "t.csv"
        code = main(
            [
                "simulate",
                "--system", str(path),
                "--x0", x0,
                "--step", "1e-3",
                "--t-end", t_end,
                "--out", str(out_csv),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert not out_csv.exists()
        assert captured.out == ""
        assert named in captured.err
        assert "Traceback" not in captured.err

    def test_positivity_breach_exit_3_keeps_partial_csv(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "decay.json", ["1", "5"])
        out_csv = tmp_path / "partial.csv"
        code = main(
            [
                "simulate",
                "--system", spec,
                "--x0", "0.5,0.5",
                "--step", "1e-3",
                "--t-end", "20",
                "--out", str(out_csv),
            ]
        )
        assert code == 3
        assert capsys.readouterr().out.endswith(
            " status=PositivityBreached(coordinate x1 fell below the positivity floor"
            " at t=6.9080000000000004)\n"
        )
        lines = out_csv.read_text().splitlines()
        assert len(lines) > 100

    def test_non_finite_state_exit_3_keeps_finite_rows(self, wheel3, tmp_path, capsys):
        out_csv = tmp_path / "blowup.csv"
        code = main(
            [
                "simulate",
                "--system", wheel3,
                "--x0", "0.2,0.3,0.5",
                "--step", "1e200",
                "--t-end", "1e202",
                "--out", str(out_csv),
            ]
        )
        assert code == 3
        assert capsys.readouterr().out.endswith(
            " status=NonFiniteState(coordinate x1 became non-finite"
            " at t=9.9999999999999997e+199)\n"
        )
        lines = out_csv.read_text().splitlines()
        assert lines[1:] == [
            "0,0.20000000000000001,0.29999999999999999,0.5,1,0.0013499999999999988,0,0"
        ]

    def test_summary_max_propagates_nan(self, wheel3, tmp_path, capsys, monkeypatch):
        t = np.array([0.0, 1.0, 2.0])
        x = np.full((3, 3), 0.5)
        drift = np.array([[0.0, 0.0], [np.nan, 1e-9], [1e-12, 0.0]])

        def fake(system, x0, cfg, basis):
            return sim.Trajectory(t, x, np.ones((3, 2)), drift)

        monkeypatch.setattr(sim, "integrate", fake)
        code = main(
            ["simulate", "--system", wheel3, "--x0", "0.2,0.3,0.5",
             "--out", str(tmp_path / "t.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max_drift_H1=nan max_drift_H2=1.0000000000000001e-09" in out

    def test_adaptive_step_limit_exit_3(self, wheel3, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "MAX_STEPS", 50)
        out_csv = tmp_path / "t.csv"
        code = main(
            [
                "simulate",
                "--system", wheel3,
                "--x0", "0.2,0.3,0.5",
                "--method", "rk45",
                "--step", "1e-2",
                "--t-end", "1000",
                "--out", str(out_csv),
            ]
        )
        assert code == 3
        assert capsys.readouterr().out.endswith(
            " status=StepLimitReached(adaptive run reached the limit of 50 steps"
            " at t=0.1420139568530934)\n"
        )
        assert len(out_csv.read_text().splitlines()) == 1 + 51

    def test_adaptive_step_underflow_exit_3(self, wheel3, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "REL_TOL", 1e-14)
        monkeypatch.setattr(sim, "ABS_TOL", 1e-16)
        monkeypatch.setattr(sim, "MIN_STEP", 1e-3)
        out_csv = tmp_path / "t.csv"
        code = main(
            [
                "simulate",
                "--system", wheel3,
                "--x0", "0.2,0.3,0.5",
                "--method", "rk45",
                "--step", "1e-2",
                "--t-end", "1",
                "--out", str(out_csv),
            ]
        )
        assert code == 3
        assert capsys.readouterr().out.endswith(
            " status=StepUnderflow(adaptive step 0.00040000000000000002 fell below the"
            " minimum at t=0)\n"
        )
        assert len(out_csv.read_text().splitlines()) == 1 + 1

    @pytest.mark.parametrize("x0", [[2.0] * 41, [0.999, 1.001] * 20 + [0.999]])
    def test_integral_out_of_range_at_x0_exit_2(self, wheel41, tmp_path, capsys, x0):
        # all 2: exp(lam . log x0) overflows; alternating: lam . log x0 is
        # about -9.3e10 and H2 underflows to 0, which read as zero drift
        out_csv = tmp_path / "t.csv"
        code = main(
            [
                "simulate",
                "--system", wheel41,
                "--x0", ",".join(map(str, x0)),
                "--step", "1e-3",
                "--t-end", "0.01",
                "--out", str(out_csv),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integral H2 is outside the float range at the initial state" in captured.err
        assert not out_csv.exists()

    def test_integral_out_of_range_mid_run_exit_3(self, wheel41, tmp_path, capsys):
        out_csv = tmp_path / "t.csv"
        code = main(
            [
                "simulate",
                "--system", wheel41,
                "--x0", ",".join(["1"] * 41),
                "--step", "1e-3",
                "--t-end", "0.01",
                "--out", str(out_csv),
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "status=IntegralOutOfRange(integral H2 left the float range at t=0.002)" in out
        lines = out_csv.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.001"]
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))

    def test_drift_out_of_range_mid_run_exit_3(self, wheel41, tmp_path, capsys):
        out_csv = tmp_path / "t.csv"
        code = main(
            [
                "simulate",
                "--system", wheel41,
                "--x0", X0_41_TINY_H2,
                "--step", "8e-4",
                "--t-end", "0.0024",
                "--out", str(out_csv),
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "max_drift_H2=5.6223590324367674e+217 status=IntegralOutOfRange(" in out
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 3
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))

    @pytest.mark.parametrize(
        "rates, x0, step, t_end",
        [
            ([2, 1, 3], "0.2,0.3,0.5", "1e200", "1e202"),
            (RATES_41, X0_41_TINY_H2, "8e-4", "0.0024"),
        ],
        ids=["non-finite-state", "drift-overflow"],
    )
    def test_exit_3_prints_nothing_on_stderr(self, tmp_path, rates, x0, step, t_end):
        # the overflow is reported as the status, not as numpy warnings
        spec = write_spec(tmp_path, "spec.json", rates)
        result = run_cli(
            [
                "simulate",
                "--system", spec,
                "--x0", x0,
                "--step", step,
                "--t-end", t_end,
                "--out", "t.csv",
            ],
            tmp_path,
        )
        assert result.returncode == 3, stderr_of(result)
        assert b"status=" in result.stdout
        assert result.stderr == b""

    def test_rk45_method(self, wheel3, tmp_path, capsys):
        out_csv = tmp_path / "traj45.csv"
        code = main(
            [
                "simulate",
                "--system", wheel3,
                "--x0", "0.2,0.3,0.5",
                "--method", "rk45",
                "--step", "1e-2",
                "--t-end", "5",
                "--out", str(out_csv),
            ]
        )
        assert code == 0
        assert out_csv.exists()

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("side", [0, 1], ids=["bound", "bound+1"])
    def test_both_sides_of_the_compiled_kernel_bound(self, tmp_path, capsys, side, method):
        # no benchmark workload goes past sim._SCALAR_MAX_N, so this runs
        # the compiled kernel at the bound and the array kernel one above it
        n = sim._SCALAR_MAX_N + side
        spec = write_spec(tmp_path, "spec.json", [i % 3 + 1 for i in range(n)])
        x0 = ",".join(repr((1 + 0.1 * (i % 5)) / n) for i in range(n))
        code = main(
            [
                "simulate",
                "--system", spec,
                "--x0", x0,
                "--method", method,
                "--step", "1e-2",
                "--t-end", "2",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        summary = capsys.readouterr().out
        assert code == 0
        assert "status=ok" in summary.split()
        assert float(summary.split("max_drift_H1=")[1].split()[0]) < 1e-11


WHEEL3 = '{"k": [2, 1, 3]}'
SIM = ["simulate", "--system", "spec.json", "--out", "t.csv"]


def assert_one_error_line(err: str) -> None:
    """An exit 2 from main prints exactly one bounded error line."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err[:400]
    assert len(lines[0].encode("utf-8", "backslashreplace")) <= 300, lines[0][:400]


class TestRefusals:
    """Each refusal path, with the exact line it prints on stderr."""

    @pytest.mark.parametrize(
        "spec, argv, message",
        [
            (None, ["integrals", "--system", "nope.json"],
             "cannot read system file nope.json: "
             "[Errno 2] No such file or directory: 'nope.json'"),
            ("{not json", ["integrals", "--system", "spec.json"],
             "spec.json is not valid JSON: Expecting property name enclosed in "
             "double quotes: line 1 column 2 (char 1)"),
            ('{"k": 3}', ["integrals", "--system", "spec.json"],
             'spec.json must be a JSON object with a "k" list'),
            ('{"k": ["2", "abc", "3"]}', ["integrals", "--system", "spec.json"],
             "entry 2: cannot parse 'abc' as a rational "
             "(invalid literal for a rational: 'abc')"),
            ('{"k": ["2", "1/0", "3"]}', ["integrals", "--system", "spec.json"],
             "entry 2: cannot parse '1/0' as a rational (Fraction(1, 0))"),
            ('{"k": ["2", null, "3"]}', ["integrals", "--system", "spec.json"],
             "entry 2: cannot parse None as a rational "
             "(cannot interpret None as an exact rational)"),
            ('{"k": [1, 0, 3]}', ["check", "--system", "spec.json"],
             "entry 2: rate parameters must be nonzero"),
            ('{"k": [3]}', ["integrals", "--system", "spec.json"],
             "need n >= 2, got n=1"),
            ('{"k": ["1e-400", 1, 3]}', [*SIM, "--x0", "0.2,0.3,0.5"],
             "rate k1 has no finite nonzero float (it overflows or rounds to zero)"),
            (WHEEL3, [*SIM, "--x0", "a,b"],
             "cannot parse --x0 'a,b': could not convert string to float: 'a'"),
            (WHEEL3, [*SIM, "--x0", "0.5,0.5"],
             "initial state has length 2, system has n=3"),
            (WHEEL3, [*SIM, "--x0", "1e-13,0.5,0.5"],
             "initial state must be finite and at least the positivity floor 1e-12"),
            (WHEEL3, [*SIM, "--x0", "1e308,1e308,1e308"],
             "integral H1 is outside the float range at the initial state"),
            (WHEEL3, [*SIM, "--x0", "0.2,0.3,0.5", "--step", "nan"],
             "step must be finite and positive, got nan"),
            (WHEEL3, [*SIM, "--x0", "0.2,0.3,0.5", "--step", "1e-3", "--t-end", "1e300"],
             "t_end/step = 1e+303 exceeds the limit of 10000000 steps"),
            (WHEEL3, [*SIM, "--x0", "0.2,0.3,0.5", "--sample-every", "0"],
             "--sample-every must be a positive integer"),
            (None, ["integrals", "--system", "no\nsuch.json"],
             "cannot read system file no\\nsuch.json: "
             "[Errno 2] No such file or directory: 'no\\nsuch.json'"),
        ],
        ids=[
            "missing-file", "invalid-json", "wrong-shape", "unparseable-entry",
            "zero-denominator-entry", "null-entry",
            "zero-rate", "single-rate", "rate-underflow", "x0-unparseable",
            "x0-short", "x0-below-floor", "x0-integral-overflow", "step-nan",
            "rk4-over-max-steps", "sample-every-0", "system-path-newline",
        ],
    )
    def test_exact_stderr_line_exit_2(self, tmp_path, monkeypatch, capsys, spec, argv,
                                      message):
        monkeypatch.chdir(tmp_path)
        if spec is not None:
            (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "spec, out, message",
        [
            (WHEEL3.encode(), "nodir/t.csv",
             "cannot write --out nodir/t.csv: "
             "[Errno 2] No such file or directory: 'nodir/t.csv'"),
            (WHEEL3.encode(), "adir", "cannot write --out adir: [Errno 21] Is a directory: 'adir'"),
            (b'{"k":[2,1,\xff3]}', "t.csv",
             "cannot read system file spec.json: 'utf-8' codec can't decode byte 0xff "
             "in position 10: invalid start byte"),
            (WHEEL3.encode(), "bad\ndir/t.csv",
             "cannot write --out bad\\ndir/t.csv: "
             "[Errno 2] No such file or directory: 'bad\\ndir/t.csv'"),
        ],
        ids=["out-directory-missing", "out-is-a-directory", "spec-not-utf8",
             "out-path-newline"],
    )
    def test_unwritable_out_or_undecodable_spec_exit_2(self, tmp_path, spec, out, message):
        (tmp_path / "spec.json").write_bytes(spec)
        (tmp_path / "adir").mkdir()
        result = run_cli(
            ["simulate", "--system", "spec.json", "--x0", "0.2,0.3,0.5", "--t-end", "1",
             "--out", out],
            tmp_path,
        )
        assert result.returncode == 2, stderr_of(result)
        assert result.stdout == b""
        assert result.stderr.decode() == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_unwritable_out_is_refused_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(WHEEL3, encoding="utf-8")
        monkeypatch.setattr(sim, "integrate", mock.Mock(side_effect=AssertionError))
        argv = ["simulate", "--system", "spec.json", "--x0", "0.2,0.3,0.5"]
        assert main([*argv, "--out", "nodir/t.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot write --out nodir/t.csv: "
            "[Errno 2] No such file or directory: 'nodir/t.csv'\n"
        )

    def test_refused_run_leaves_an_existing_out_untouched(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(WHEEL3, encoding="utf-8")
        (tmp_path / "t.csv").write_text("kept\n", encoding="utf-8")
        assert main([*SIM, "--x0", "1e-13,0.5,0.5"]) == 2
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize(
        "rates, x0, head, rest",
        [
            (["7" * 5000, 1, 2], "0.2,0.3,0.5", "error: entry 1: cannot parse '777",
             "... (5002 bytes) as a rational "
             "(numerator or denominator has more than 4300 digits)"),
            ([[1] * 20000, 1, 2], "0.2,0.3,0.5", "error: entry 1: cannot parse [1, 1, ",
             " as a rational (cannot interpret [1, 1, "),
            ([2, 1, 3], "x" * 100_000, "error: cannot parse --x0 'xxx",
             "... (100002 bytes): could not convert string to float: 'xxx"),
        ],
        ids=["5000-digit-rate", "20000-element-entry", "100000-character-x0"],
    )
    def test_long_value_is_echoed_as_an_excerpt(self, tmp_path, monkeypatch, capsys,
                                                rates, x0, head, rest):
        monkeypatch.chdir(tmp_path)
        write_spec(tmp_path, "spec.json", rates)
        assert main([*SIM, "--x0", x0]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(head) and rest in err

    def test_excerpt_escapes_what_does_not_print(self):
        assert cli._excerpt("a\nb\rc\td\x00\u2028\u00e9") == "a\\nb\\rc\\td\\x00\\u2028\u00e9"

    def test_excerpt_bound_is_in_bytes(self):
        fits = "\u00e9" * (cli.VALUE_BYTES // 2)
        assert cli._excerpt(fits) == fits
        cut = cli._excerpt(fits + "\u00e9")
        assert cut.endswith(f"... ({cli.VALUE_BYTES + 2} bytes)")
        assert len(cut.encode()) <= cli.VALUE_BYTES


class TestDeterminism:
    def test_check_runs_byte_identical(self, wheel3, tmp_path):
        first = run_cli(["check", "--system", wheel3, "--seed", "0"], tmp_path)
        second = run_cli(["check", "--system", wheel3, "--seed", "0"], tmp_path)
        assert first.returncode == second.returncode == 0, stderr_of(first, second)
        assert first.stdout == second.stdout

    def test_simulate_runs_byte_identical(self, wheel3, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            result = run_cli(
                [
                    "simulate",
                    "--system", wheel3,
                    "--x0", "0.2,0.3,0.5",
                    "--step", "1e-2",
                    "--t-end", "2",
                    "--out", name,
                ],
                tmp_path,
            )
            assert result.returncode == 0, stderr_of(result)
            outs.append((result.stdout, (tmp_path / name).read_bytes()))
        assert outs[0] == outs[1]

    def test_csv_floats_round_trip(self, wheel3, tmp_path):
        result = run_cli(
            [
                "simulate",
                "--system", wheel3,
                "--x0", "0.2,0.3,0.5",
                "--step", "1e-2",
                "--t-end", "1",
                "--out", "c.csv",
            ],
            tmp_path,
        )
        assert result.returncode == 0, stderr_of(result)
        lines = (tmp_path / "c.csv").read_text().splitlines()
        row = lines[1].split(",")
        assert float(row[1]) == 0.2

    def test_csv_bytes_are_each_value_to_17_digits(self, tmp_path):
        special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -1e308, 1 / 3, 0.1, 1e22, 2.5]
        rng = random.Random(11)
        table = np.array([special] + [[rng.uniform(-1e3, 1e3) for _ in special] for _ in range(3)])
        traj = sim.Trajectory(table[:, 0], table[:, 1:4], table[:, 4:7], table[:, 7:])
        names = ["H1", "H2", "H3"]
        path = tmp_path / "t.csv"
        assert cli._write_csv(path, names, traj, 1) == 4
        header = "t,x1,x2,x3,H1,H2,H3,drift_H1,drift_H2,drift_H3\n"
        rows = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())
        assert path.read_bytes() == (header + rows).encode()
        assert path.read_text().splitlines()[1] == (
            "-0,nan,inf,-inf,4.9406564584124654e-324,-1e+308,"
            "0.33333333333333331,0.10000000000000001,1e+22,2.5"
        )


# -- fuzzing cli.main -------------------------------------------------------

_GOOD_RATE = st.one_of(
    st.integers(1, 9), st.integers(-9, -1), st.sampled_from(["1/2", "0.75", "-7/3"])
)
_BAD_RATE = st.sampled_from(
    [0, "0", "x", "1/0", "", None, [1], True, 1e400, "1e400", "1e-400", "1e5000",
     "7" * 5000, [1] * 20000]
)
_BAD_FILE = st.one_of(
    st.sampled_from(["", "{", "[]", "null", '{"k": 3}', '{"k": [5]}', '{"q": [1, 2]}']),
    st.text(max_size=12),
)
_ODD_X0 = st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e-300, 1e-12, 1e6, 1e300])
# step >= 2.5e-3 and t_end <= 5 keep a fixed-step run within 2000 steps
_ODD_STEP = st.sampled_from([math.nan, math.inf, -1e-3, 0.0, 1e-300, 1e300])
_ODD_T_END = st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e300])


def _draw_spec(draw, n, flaw):
    """Spec file text for n sound rates, or with a "file" or "rate" flaw."""
    rates = draw(st.lists(_GOOD_RATE, min_size=n, max_size=n))
    if flaw == "rate":
        rates[draw(st.integers(0, n - 1))] = draw(_BAD_RATE)
    return draw(_BAD_FILE) if flaw == "file" else json.dumps({"k": rates})


# nesting far deeper than the JSON parser's recursion limit
_NESTED_SPEC = '{"k": ' + "[" * 100_000 + "]" * 100_000 + "}"


@st.composite
def simulate_inputs(draw):
    """(spec file text, --x0, --step, --t-end, --method) for a simulate call.

    A sound call, or one with a single flaw: a malformed spec file, a bad
    rate entry, an x0 of the wrong length, unparseable, or with NaN,
    negative, tiny or huge entries, an odd step or end time, or an unknown
    method.
    """
    flaw = draw(st.sampled_from(
        [None] * 8 + ["file", "rate", "x0 length", "x0 entries", "x0 text", "step",
                      "t_end", "method"]
    ))
    n = draw(st.integers(2, 8))
    spec = _draw_spec(draw, n, flaw)
    length = n + draw(st.sampled_from([-1, 1])) if flaw == "x0 length" else n
    x0 = draw(st.lists(st.floats(0.05, 5.0), min_size=length, max_size=length))
    if flaw == "x0 entries":
        x0 = [draw(_ODD_X0) if draw(st.booleans()) else v for v in x0]
    x0_text = ",".join(map(repr, x0))
    if flaw == "x0 text":
        x0_text = draw(st.sampled_from(["", "1,,2", "a,b", "0x1p-3", "x" * 100_000]))
    step = draw(_ODD_STEP if flaw == "step" else st.floats(2.5e-3, 0.5))
    t_end = draw(_ODD_T_END if flaw == "t_end" else st.floats(1e-3, 5.0))
    method = draw(st.sampled_from(["euler", ""] if flaw == "method" else ["rk4", "rk45"]))
    return spec, x0_text, step, t_end, method


@given(simulate_inputs())
@example((json.dumps({"k": RATES_41}), ",".join(["2"] * 41), 1e-3, 0.01, "rk4"))
@example((json.dumps({"k": RATES_41}), ",".join(["1"] * 41), 1e-3, 0.01, "rk4"))
@example((json.dumps({"k": RATES_41}), X0_41_TINY_H2, 8e-4, 0.0024, "rk4"))
@example((json.dumps({"k": ["1e200", "1e-200", 1]}), "0.2,0.3,0.5", 1e-3, 0.01, "rk4"))
@example((_NESTED_SPEC, "0.2,0.3,0.5", 1e-3, 0.01, "rk4"))
@example((WHEEL3, "x" * 100_000, 1e-3, 0.01, "rk4"))
@settings(max_examples=80, deadline=None)
def test_simulate_fuzz_exit_code_and_finite_ok_output(inputs):
    spec, x0, step, t_end, method = inputs
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(spec, encoding="utf-8")
        out_csv = Path(tmp) / "out.csv"
        argv = [
            "simulate",
            "--system", str(spec_path),
            f"--x0={x0}",
            f"--step={step!r}",
            f"--t-end={t_end!r}",
            f"--method={method}",
            "--out", str(out_csv),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        # the step cap bounds an adaptive run too; no example exceeds it
        with mock.patch.object(sim, "MAX_STEPS", 2000), contextlib.redirect_stdout(
            stdout
        ), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing a flag
                code = exc.code
            else:
                if code == 2:
                    assert_one_error_line(stderr.getvalue())
        assert code in {0, 1, 2, 3}
        out = stdout.getvalue()
        assert (code == 0) == ("status=ok" in out)
        if code == 0:
            fields = [part.split("=", 1) for part in out.split()[1:-1]]
            assert all(math.isfinite(float(value)) for _, value in fields), out
            rows = out_csv.read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@st.composite
def exact_inputs(draw):
    """(spec file text, argv without --system) for an integrals or check call.

    A sound spec with 2 to 6 rates, or one with a malformed file or a bad
    rate entry.
    """
    flaw = draw(st.sampled_from([None] * 4 + ["file", "rate"]))
    spec = _draw_spec(draw, draw(st.integers(2, 6)), flaw)
    argv = draw(st.sampled_from(
        [["integrals"], ["integrals", "--format", "json"], ["check"]]
    ))
    return spec, argv


@given(exact_inputs())
@example((_NESTED_SPEC, ["integrals"]))
@example((_NESTED_SPEC, ["check"]))
@example(('{"k": [1e5000, 1, 1]}', ["integrals"]))
@example(('{"k": [1e5000, 1, 1]}', ["integrals", "--format", "json"]))
@example((json.dumps({"k": ["7" * 5000, 1, 2]}), ["integrals"]))
@example((json.dumps({"k": [[1] * 20000, 1, 2]}), ["check"]))
@settings(max_examples=60, deadline=None)
def test_exact_fuzz_exit_code(inputs):
    spec, argv = inputs
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(spec, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--system", str(spec_path)])
    assert code in {0, 1, 2, 3}
    if code == 2:
        assert_one_error_line(stderr.getvalue())
