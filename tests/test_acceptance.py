"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `[ACCEPTANCE n] ...: PASS|FAIL` line (visible with
`pytest -s` or in the captured-output section of `pytest -rA`). Sweeps are
seeded and cached at module level so later criteria can reuse the systems
generated by earlier ones.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from cycliclv import (
    Classification,
    IntegratorConfig,
    VerificationReport,
    build_exponent_system,
    check_independence,
    check_linear_integral,
    check_xh_zero,
    integral_basis,
    integrate,
    make_system,
    nullspace,
)
from cycliclv.cli import main
from cycliclv.verify import _independence_rank
from helpers import (
    field_divergence,
    jacobi_divergence,
    randint_rational_state,
    random_system,
    resonant_system,
    run_cli,
    simplex_point,
    stderr_of,
)

EPS_FLOOR = 100.0 * np.finfo(float).eps


def _report(number, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {number}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


@lru_cache(maxsize=1)
def odd_sweep():
    """100 random systems per odd n in {3,5,7,9,11}, rates in [-9,9]\\{0}."""
    rng = random.Random(20240801)
    out = []
    for n in (3, 5, 7, 9, 11):
        for _ in range(100):
            out.append(random_system(rng, n))
    return out


@lru_cache(maxsize=1)
def even_sweep():
    """50 resonant systems per even n in {4,6,8,10}."""
    rng = random.Random(20240802)
    out = []
    for n in (4, 6, 8, 10):
        for _ in range(50):
            out.append(resonant_system(rng, n))
    return out


def test_criterion_1_formula_nullspace_equivalence_odd():
    start = time.perf_counter()
    checked = 0
    for sys in odd_sweep():
        space = nullspace(build_exponent_system(sys))
        assert len(space) == 1, f"nullspace not 1-dimensional for rates {sys.rates}"
        assert space == [m.exponents for m in integral_basis(sys).monomials], (
            f"nullspace/formula mismatch for rates {sys.rates}"
        )
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "odd-n nullspace equals closed-form exponents",
        checked == 500 and elapsed < 5.0,
        f"{checked} systems in {elapsed:.2f}s",
    )


def test_criterion_2_even_dichotomy():
    start = time.perf_counter()
    rng = random.Random(20240803)
    resonant_ok = 0
    broken_ok = 0
    for sys in even_sweep():
        space = nullspace(build_exponent_system(sys))
        pair = integral_basis(sys).monomials
        assert len(space) == 2, f"expected 2-dim nullspace for rates {sys.rates}"
        assert space == [pair[0].exponents, pair[1].exponents]
        resonant_ok += 1

        # scale one odd-chain rate: the two chain products can no longer agree
        perturbed_rates = list(sys.rates)
        perturbed_rates[0] *= rng.choice([2, 3, 5])
        perturbed = make_system(perturbed_rates)
        classification = integral_basis(perturbed).classification
        assert classification is Classification.EVEN_NONRESONANT
        assert nullspace(build_exponent_system(perturbed)) == []
        broken_ok += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        "even-n dichotomy (resonant 2-dim, perturbed trivial)",
        resonant_ok == 200 and broken_ok == 200 and elapsed < 5.0,
        f"{resonant_ok}+{broken_ok} systems in {elapsed:.2f}s",
    )


@lru_cache(maxsize=1)
def closed_form_instances():
    rng = random.Random(20240804)
    return (
        [random_system(rng, 3) for _ in range(20)],
        [resonant_system(rng, 4) for _ in range(20)],
    )


def test_criterion_3_closed_form_instances():
    three_systems, four_systems = closed_form_instances()
    for sys in three_systems:
        k1, k2, k3 = sys.rates
        (mono,) = integral_basis(sys).monomials
        assert mono.exponents == (1, k3 / k2, k1 / k2)
    for sys in four_systems:
        k1, k2, k3, k4 = sys.rates
        first, second = integral_basis(sys).monomials
        assert first.exponents == (1, 0, k4 / k3, 0)
        assert second.exponents == (0, 1, 0, k2 / k3)
    _report(
        3,
        "n=3 and resonant n=4 closed forms",
        True,
        f"{len(three_systems)}+{len(four_systems)} draws, exact equality",
    )


def test_criterion_4_symbolic_conservation_everywhere():
    three_systems, four_systems = closed_form_instances()
    systems = odd_sweep() + even_sweep() + three_systems + four_systems
    for sys in systems:
        assert check_linear_integral(sys).passed, f"sum integral failed: {sys.rates}"
        for mono in integral_basis(sys).monomials:
            report = check_xh_zero(sys, mono)
            assert report.passed, f"{sys.rates}: {report.witness}"
    _report(
        4,
        "exact conservation on every generated basis",
        True,
        f"{len(systems)} systems",
    )


def test_criterion_5_jacobi_multiplier():
    rng = random.Random(20240805)
    for n in range(3, 11):
        sys = random_system(rng, n)
        for _ in range(100):
            point = randint_rational_state(rng, n, positive=False)
            assert jacobi_divergence(sys, point) == 0, (
                f"nonzero residual at {point} for rates {sys.rates}"
            )
    control = make_system([1, 2, 3])
    nonzero = sum(
        1
        for _ in range(100)
        if field_divergence(control, randint_rational_state(rng, 3, positive=False))
        != 0
    )
    _report(
        5,
        "reciprocal-product multiplier residual exactly zero",
        nonzero >= 95,
        f"800 points zero; unit-multiplier control nonzero at {nonzero}/100",
    )


def test_criterion_6_gradient_independence():
    rng = random.Random(20240806)
    worst = 100
    for n in (3, 5, 7, 9, 11, 4, 6, 8, 10):
        for _ in range(2):
            if n % 2 == 0:
                sys = resonant_system(rng, n)
                required = 3
            else:
                sys = random_system(rng, n)
                required = 2
            basis = integral_basis(sys)
            hits = sum(
                1
                for _ in range(100)
                if _independence_rank(sys, basis, randint_rational_state(rng, n))
                == required
            )
            worst = min(worst, hits)
            assert hits >= 99, f"rank dropped at {100 - hits} samples for {sys.rates}"
    _report(
        6,
        "exact gradient rank (2 odd, 3 even resonant)",
        True,
        f"worst case {worst}/100 samples of full rank",
    )


def test_criterion_7_numerical_conservation_sweep():
    start = time.perf_counter()
    rng = random.Random(20240807)
    max_linear = 0.0
    max_monomial = 0.0
    ratio_notes = []
    for n in range(3, 9):
        sys = random_system(rng, n, lo=-3, hi=3)
        basis = integral_basis(sys)
        x0 = simplex_point(rng, n)
        traj = integrate(sys, x0, IntegratorConfig(step=1e-3, t_end=10.0), basis)
        drifts = traj.drift.max(axis=0).tolist()
        assert len(drifts) == 1 + len(basis.monomials)
        max_linear = max(max_linear, drifts[0])
        if len(drifts) > 1:
            max_monomial = max(max_monomial, *drifts[1:])
        assert drifts[0] <= 1e-8, f"linear drift {drifts[0]:.3e} for rates {sys.rates}"
        for d in drifts[1:]:
            assert d <= 1e-6, f"monomial drift {d:.3e} for rates {sys.rates}"

        halving = []
        for h in (1e-2, 5e-3):
            run = integrate(sys, x0, IntegratorConfig(step=h, t_end=10.0), basis)
            halving.append(run.drift[:, 0].max())
        if halving[0] > EPS_FLOOR and halving[1] > EPS_FLOOR:
            ratio = halving[0] / halving[1]
            assert 8.0 <= ratio <= 32.0, f"halving ratio {ratio:.2f} for {sys.rates}"
            ratio_notes.append(f"n={n}: ratio {ratio:.1f}")
        else:
            # Runge-Kutta conserves the linear integral exactly in real
            # arithmetic; its drift sits at the roundoff floor and the
            # ratio is declared unmeasurable rather than asserted.
            ratio_notes.append(f"n={n}: roundoff-dominated")
    elapsed = time.perf_counter() - start
    _report(
        7,
        "trajectory drift bounds and halving band",
        elapsed < 30.0,
        f"max linear {max_linear:.2e}, max monomial {max_monomial:.2e}, "
        f"{'; '.join(ratio_notes)}, {elapsed:.1f}s",
    )


def test_criterion_8_cli_contract(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"k": ["2", "1", "3", "6"]}), encoding="utf-8")
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({"k": ["1", "0", "3"]}), encoding="utf-8")
    decay_spec = tmp_path / "decay.json"
    decay_spec.write_text(json.dumps({"k": ["1", "5"]}), encoding="utf-8")

    # exit 0: happy paths
    assert main(["integrals", "--system", str(spec)]) == 0
    assert main(["check", "--system", str(spec)]) == 0

    # exit 1: a failing verification must propagate
    from cycliclv import verify

    with monkeypatch.context() as patch:
        patch.setattr(
            verify,
            "check_linear_integral",
            lambda s: VerificationReport("forced"),
        )
        assert main(["check", "--system", str(spec)]) == 1

    # exit 2: input errors
    assert main(["integrals", "--system", str(bad_spec)]) == 2
    assert (
        main(
            [
                "simulate",
                "--system", str(spec),
                "--x0", "0,1,1,1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        == 2
    )

    # exit 3: runtime abort with partial CSV retained
    assert (
        main(
            [
                "simulate",
                "--system", str(decay_spec),
                "--x0", "0.5,0.5",
                "--step", "1e-3",
                "--t-end", "20",
                "--out", str(tmp_path / "partial.csv"),
            ]
        )
        == 3
    )
    assert (tmp_path / "partial.csv").exists()
    capsys.readouterr()

    # JSON round-trip of exponents is exact
    assert main(["integrals", "--system", str(spec), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    parsed = [
        tuple(Fraction(e) for e in mono["exponents"]) for mono in payload["monomials"]
    ]
    basis = integral_basis(make_system([2, 1, 3, 6]))
    assert parsed == [mono.exponents for mono in basis.monomials]

    # seeded runs are byte-identical
    def run(args):
        return run_cli(args, tmp_path)

    first = run(["check", "--system", str(spec), "--seed", "7"])
    second = run(["check", "--system", str(spec), "--seed", "7"])
    assert first.returncode == second.returncode == 0, stderr_of(first, second)
    assert first.stdout == second.stdout

    sim_args = [
        "simulate",
        "--system", str(spec),
        "--x0", "0.2,0.2,0.3,0.3",
        "--step", "1e-2",
        "--t-end", "2",
    ]
    run_a = run([*sim_args, "--out", "a.csv"])
    run_b = run([*sim_args, "--out", "b.csv"])
    assert run_a.returncode == run_b.returncode == 0, stderr_of(run_a, run_b)
    assert run_a.stdout == run_b.stdout
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    _report(
        8,
        "CLI exit codes, exact JSON round-trip, byte-identical seeded runs",
        True,
    )
