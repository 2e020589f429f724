"""Command-line front end.

Subcommands:
  integrals  print the classified first integrals of a system
  check      run the exact verification battery, exit nonzero on failure
  simulate   integrate a trajectory and write it as CSV

The system is described by a JSON file {"k": [...]} whose entries are
integers, exact decimal literals, or "p/q" strings; the dimension is the
list length. No literal's numerator or denominator may have more than 4300
digits, nor the file more than MAX_SPEC_BYTES (4 MiB). Exit codes: 0
success, 1 verification failure, 2 input error (an InputError, printed as
one bounded "error: " line on stderr), 3 runtime integration failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys as _sys
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import darboux
from .model import REASON_BYTES, CyclicLVSystem, InputError, _excerpt, make_system

if TYPE_CHECKING:
    from . import sim, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3

DEFAULT_CHECK_SAMPLES = 32
MAX_SPEC_BYTES = 4 << 20  # a spec of a million rates takes about 3 MB

# Rows of a trajectory that _write_csv formats at a time.
_CSV_BLOCK_ROWS = 4096


def load_system_spec(path: str | Path) -> CyclicLVSystem:
    """Read a {"k": [...]} JSON file into a system.

    At most MAX_SPEC_BYTES of the file are read and parsed as JSON here,
    and each message echoes at most a bounded excerpt of the path. The "k"
    list goes to make_system, which converts and names a refused entry, and
    CyclicLVSystem refuses fewer than two rates or a zero one.
    """
    name = _excerpt(path)
    try:
        with open(path, "rb") as spec:
            raw = spec.read(MAX_SPEC_BYTES + 1)
        if len(raw) > MAX_SPEC_BYTES:
            raise InputError(f"{name} is larger than {MAX_SPEC_BYTES} bytes")
        # newlines as a text-mode read gives them, which JSON error positions count
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        reason = _excerpt(exc, REASON_BYTES)
        raise InputError(f"cannot read system file {name}: {reason}") from exc
    try:
        # parse_float sees the raw literal, so decimals convert exactly; a
        # Decimal costs the same for any exponent, and make_system refuses
        # one too long to build
        data = json.loads(text, parse_float=Decimal)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's recursion limit
        reason = _excerpt(exc, REASON_BYTES)
        raise InputError(f"{name} is not valid JSON: {reason}") from exc
    except InvalidOperation as exc:
        raise InputError(f"{name} holds a number with an out-of-range exponent") from exc
    if not isinstance(data, dict) or not isinstance(data.get("k"), list):
        raise InputError(f'{name} must be a JSON object with a "k" list')
    return make_system(data["k"])


def _monomial_text(name: str, mono: darboux.MonomialIntegral) -> list[str]:
    factors = []
    for i, e in enumerate(mono.exponents, start=1):
        if e == 0:
            continue
        factors.append(f"x{i}" if e == 1 else f"x{i}^({e})")
    exponents = ", ".join(str(e) for e in mono.exponents)
    return [f"{name} = " + " * ".join(factors), f"{name} exponents: {exponents}"]


def _integral_names(basis: darboux.IntegralBasis) -> list[str]:
    return ["H1"] + [f"H{j + 2}" for j in range(len(basis.monomials))]


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on the digits of an int turned to str, then restore it.

    Exact exponents can be far longer than the limit, which is meant for
    untrusted input, so it stays on while the spec file is parsed.
    Interpreters older than the limit have nothing to lift.
    """
    if not hasattr(_sys, "set_int_max_str_digits"):
        yield
        return
    limit = _sys.get_int_max_str_digits()
    _sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        _sys.set_int_max_str_digits(limit)


def cmd_integrals(args: argparse.Namespace) -> int:
    system = load_system_spec(args.system)
    basis = darboux.integral_basis(system)
    with _unlimited_int_digits():
        if args.format == "json":
            payload = {
                "n": system.n,
                "k": [str(v) for v in system.rates],
                "classification": basis.classification.name,
                "linear": {"name": "H1", "weights": ["1"] * basis.linear.n},
                "monomials": [
                    {"name": name, "exponents": [str(e) for e in mono.exponents]}
                    for name, mono in zip(_integral_names(basis)[1:], basis.monomials)
                ],
            }
            print(json.dumps(payload, indent=2))
            return EXIT_OK
        print(f"n: {system.n}")
        print(f"classification: {basis.classification.name}")
        print("H1 = " + " + ".join(f"x{i}" for i in range(1, system.n + 1)))
        for name, mono in zip(_integral_names(basis)[1:], basis.monomials):
            for line in _monomial_text(name, mono):
                print(line)
    if not basis.monomials:
        print("no monomial integrals")
    return EXIT_OK


def run_check_battery(system: CyclicLVSystem, seed: int) -> tuple[list[str], bool]:
    """Every exact check against one system; returns (lines, all passed)."""
    # verify, linalg and random load here, so integrals never imports them
    import random

    from . import verify

    rng = random.Random(seed)
    basis = darboux.integral_basis(system)
    names = _integral_names(basis)
    checks: list[tuple[str, Optional[verify.VerificationReport]]] = [
        ("linear-integral", verify.check_linear_integral(system))
    ]
    for name, mono in zip(names[1:], basis.monomials):
        checks.append((f"cofactor-cancellation[{name}]", verify.check_xh_zero(system, mono)))

    label = "nullspace-formula-equivalence"
    if system.n == 2:
        checks.append((label, None))
    else:
        space = darboux.nullspace(darboux.build_exponent_system(system))
        formulas = [mono.exponents for mono in basis.monomials]
        witness = None if space == formulas else f"nullspace {space} vs formulas {formulas}"
        checks.append((label, verify.VerificationReport(witness)))

    jacobi_points = [
        verify.random_rational_state(rng, system.n, positive=False)
        for _ in range(DEFAULT_CHECK_SAMPLES)
    ]
    checks.append((
        f"jacobi-multiplier[samples={DEFAULT_CHECK_SAMPLES}]",
        verify.check_jacobi_multiplier(system, jacobi_points),
    ))
    rank_points = [
        verify.random_rational_state(rng, system.n, positive=True)
        for _ in range(DEFAULT_CHECK_SAMPLES)
    ]
    checks.append((
        f"independence[samples={DEFAULT_CHECK_SAMPLES}]",
        verify.check_independence(system, basis, rank_points),
    ))

    lines, ok = [], True
    for label, report in checks:
        if report is None:
            lines.append(f"check {label}: SKIP (n=2)")
        elif report.passed:
            lines.append(f"check {label}: PASS")
        else:
            lines.append(f"check {label}: FAIL ({report.witness})")
            ok = False
    if not basis.monomials:
        lines.append(
            f"note: no monomial integrals (classification {basis.classification.name})"
        )
    return lines, ok


def cmd_check(args: argparse.Namespace) -> int:
    system = load_system_spec(args.system)
    lines, ok = run_check_battery(system, seed=args.seed)
    for line in lines:
        print(line)
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_x0(text: str) -> list[float]:
    """Comma-separated floats; sim.integrate checks length, finiteness and sign."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(
            f"cannot parse --x0 {_excerpt(repr(text))}: {_excerpt(exc, REASON_BYTES)}"
        ) from exc


def _write_csv(path: str | Path, names: list[str], trajectory: sim.Trajectory) -> int:
    """Write every row of trajectory to path as CSV; returns the row count."""
    import numpy as np

    rows = len(trajectory.t)
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, trajectory.x.shape[1] + 1)]
        + names
        + [f"drift_{name}" for name in names]
    )
    columns = (trajectory.t, trajectory.x, trajectory.values, trajectory.drift)
    template = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        # _CSV_BLOCK_ROWS rows at a time: one table of every row would
        # copy the whole trajectory
        for lo in range(0, rows, _CSV_BLOCK_ROWS):
            table = np.column_stack([c[lo : lo + _CSV_BLOCK_ROWS] for c in columns])
            for row in table:
                out.write(template % tuple(row.tolist()))
    return rows


def cmd_simulate(args: argparse.Namespace) -> int:
    # numpy and sim load here, so integrals and check never import them
    from . import sim

    system = load_system_spec(args.system)
    x0 = _parse_x0(args.x0)
    cfg = sim.IntegratorConfig(method=args.method, step=args.step, t_end=args.t_end)
    basis = darboux.integral_basis(system)
    names = _integral_names(basis)

    status = "ok"
    exit_code = EXIT_OK
    created = not os.path.lexists(args.out)
    try:
        # opening for append creates a missing file but changes nothing in an
        # existing one, so an unwritable --out is refused before the first step
        open(args.out, "a").close()
        try:
            trajectory = sim.integrate(system, x0, cfg, basis, args.sample_every)
        except sim.IntegrationAborted as exc:
            trajectory = exc.trajectory
            status = f"{type(exc).__name__}({exc})"
            exit_code = EXIT_RUNTIME_ERROR
        rows = _write_csv(args.out, names, trajectory)
    except BaseException as exc:
        # a run refused, interrupted or unwritten leaves no file it created
        if created and os.path.lexists(args.out):
            os.remove(args.out)
        if isinstance(exc, OSError):
            reason = _excerpt(exc, REASON_BYTES)
            raise InputError(f"cannot write --out {_excerpt(args.out)}: {reason}") from exc
        raise
    drift = " ".join(
        "max_drift_%s=%.17g" % pair for pair in zip(names, trajectory.max_drift.tolist())
    )
    print("summary: rows=%d t_final=%.17g %s status=%s" % (rows, trajectory.t[-1], drift, status))
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycliclv",
        description=(
            "First integrals of cyclic Lotka-Volterra systems: exact "
            "classification, verification, and conservation-monitored simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrals", help="print the classified first integrals")
    p_int.add_argument("--system", required=True, help="path to a {'k': [...]} JSON file")
    p_int.add_argument("--format", choices=("text", "json"), default="text")
    p_int.set_defaults(handler=cmd_integrals)

    p_chk = sub.add_parser("check", help="run the exact verification battery")
    p_chk.add_argument("--system", required=True)
    p_chk.add_argument("--seed", type=int, default=0, help="RNG seed for sample-based checks")
    p_chk.set_defaults(handler=cmd_check)

    p_sim = sub.add_parser("simulate", help="integrate a trajectory and write CSV")
    p_sim.add_argument("--system", required=True)
    p_sim.add_argument("--x0", required=True, help="comma-separated initial state")
    p_sim.add_argument("--method", choices=("rk4", "rk45"), default="rk4",
                       help="fixed-step RK4 or adaptive RKF45")
    p_sim.add_argument("--step", type=float, default=1e-3,
                       help="RK4's fixed step, or RKF45's first trial step")
    p_sim.add_argument("--t-end", type=float, default=10.0, help="end time of the run")
    p_sim.add_argument("--out", required=True, help="CSV output path")
    p_sim.add_argument("--sample-every", type=int, default=1, metavar="N",
                       help="write rows 0, N, 2N, ... and the last; max drift covers every row")
    p_sim.set_defaults(handler=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    _sys.exit(main())
