"""Command-line front end.

Subcommands:
  integrals  print the classified first integrals of a system
  check      run the exact verification battery, exit nonzero on failure
  simulate   integrate a trajectory and write it as CSV

The system is described by a JSON file {"k": [...]} whose entries are
integers, exact decimal literals, or "p/q" strings; the dimension is the
list length, and no literal's numerator or denominator may have more than
4300 digits. Exit codes: 0 success, 1 verification failure, 2 input error
(an InputError, printed as one bounded "error: " line on stderr), 3 runtime
integration failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys as _sys
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import darboux, verify
from .model import CyclicLVSystem, InputError, ZeroParameter, as_fraction

if TYPE_CHECKING:
    from . import sim

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3

DEFAULT_CHECK_SAMPLES = 32

# Most bytes of a refused value that an error line echoes, and of a reason
# that may repeat the value; longer text is cut to its head and its size,
# which keeps every error line under 300 bytes.
VALUE_BYTES = 64
REASON_BYTES = 2 * VALUE_BYTES


def _excerpt(text: object, limit: int = VALUE_BYTES) -> str:
    """str(text) if its UTF-8 form fits in limit bytes, else its head and its size.

    Each non-printable character, a line break included, is escaped as repr
    escapes it, so the text stays on one line.
    """
    text = "".join(
        c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
        for c in str(text)
    )
    data = text.encode("utf-8")
    if len(data) <= limit:
        return text
    tail = f"... ({len(data)} bytes)"
    return data[: limit - len(tail)].decode("utf-8", "ignore") + tail


def load_system_spec(path: str | Path) -> CyclicLVSystem:
    """Read a {"k": [...]} JSON file into a system.

    The file is parsed here, entry by entry so that a parse error names its
    position; the rate count and nonzero rates are CyclicLVSystem's checks.
    Each message echoes at most a bounded excerpt of the path and the entry.
    """
    name = _excerpt(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = _excerpt(exc, REASON_BYTES)
        raise InputError(f"cannot read system file {name}: {reason}") from exc
    try:
        # parse_float sees the raw literal, so decimals convert exactly; a
        # Decimal costs the same for any exponent, and as_fraction refuses
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
    rates = []
    for pos, entry in enumerate(data["k"], start=1):
        try:
            rates.append(as_fraction(entry))
        except InputError as exc:
            raise InputError(
                f"entry {pos}: cannot parse {_excerpt(repr(entry))} as a rational "
                f"({_excerpt(exc, REASON_BYTES)})"
            )
    try:
        return CyclicLVSystem(tuple(rates))
    except ZeroParameter as exc:
        raise InputError(f"entry {exc.index}: rate parameters must be nonzero") from exc


def _fmt(value: float) -> str:
    """Round-trip-safe float rendering (17 significant digits)."""
    return format(float(value), ".17g")


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


def _write_csv(
    path: str | Path,
    names: list[str],
    trajectory: sim.Trajectory,
    sample_every: int,
) -> int:
    import numpy as np

    rows = len(trajectory.t)
    indices = list(range(0, rows, sample_every))
    if indices[-1] != rows - 1:
        indices.append(rows - 1)
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, trajectory.x.shape[1] + 1)]
        + names
        + [f"drift_{name}" for name in names]
    )
    columns = (trajectory.t, trajectory.x, trajectory.values, trajectory.drift)
    table = np.column_stack([column[indices] for column in columns])
    # "%.17g" % v gives the bytes of _fmt(v), nan, inf and -0.0 included
    template = ",".join(["%.17g"] * len(header)) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.write(",".join(header) + "\n")
            # row by row: one list of the whole table would raise peak memory
            for row in table:
                out.write(template % tuple(row.tolist()))
    except OSError as exc:
        raise _out_error(path, exc) from exc
    return len(indices)


def _out_error(path: str | Path, exc: OSError) -> InputError:
    return InputError(f"cannot write --out {_excerpt(path)}: {_excerpt(exc, REASON_BYTES)}")


def cmd_simulate(args: argparse.Namespace) -> int:
    # numpy and sim load here, so integrals and check never import them
    from . import sim

    system = load_system_spec(args.system)
    x0 = _parse_x0(args.x0)
    if args.sample_every < 1:
        raise InputError("--sample-every must be a positive integer")
    cfg = sim.IntegratorConfig(method=args.method, step=args.step, t_end=args.t_end)
    basis = darboux.integral_basis(system)
    names = _integral_names(basis)

    # opening for append creates a missing file but changes nothing in an
    # existing one, so an unwritable --out is refused before the first step
    created = not os.path.lexists(args.out)
    try:
        open(args.out, "a").close()
    except OSError as exc:
        raise _out_error(args.out, exc) from exc

    status = "ok"
    exit_code = EXIT_OK
    try:
        trajectory = sim.integrate(system, x0, cfg, basis)
    except sim.IntegrationAborted as exc:
        trajectory = exc.trajectory
        status = f"{type(exc).__name__}({exc})"
        exit_code = EXIT_RUNTIME_ERROR
    except BaseException:
        # a run refused or cut short leaves no file it created
        if created:
            os.remove(args.out)
        raise

    rows = _write_csv(args.out, names, trajectory, args.sample_every)
    # ndarray.max propagates NaN, where max() over floats depends on order
    drift_parts = [
        f"max_drift_{name}={_fmt(value)}"
        for name, value in zip(names, trajectory.drift.max(axis=0).tolist())
    ]
    print(
        f"summary: rows={rows} t_final={_fmt(trajectory.t[-1])} "
        + " ".join(drift_parts)
        + f" status={status}"
    )
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
    p_sim.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    p_sim.add_argument("--step", type=float, default=1e-3)
    p_sim.add_argument("--t-end", type=float, default=10.0)
    p_sim.add_argument("--out", required=True, help="CSV output path")
    p_sim.add_argument("--sample-every", type=int, default=1)
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
