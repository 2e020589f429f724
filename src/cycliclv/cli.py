"""Command-line front end.

Subcommands:
  integrals  print the classified first integrals of a system
  check      run the exact verification battery, exit nonzero on failure
  simulate   integrate a trajectory and write it as CSV

The system is described by a JSON file {"k": [...]} whose entries are
integers, exact decimal literals, or "p/q" strings; the dimension is the
list length. No literal's numerator or denominator may have more than 4300
digits, nor the file more than MAX_SPEC_BYTES (4 MiB). main reads it, runs
the subcommand with no digit limit and writes the lines it returns to stdout
once; a check line cuts each exact value to an excerpt, within 300 bytes.
Exit codes: 0 success, 1 verification failure, 2 input error (an InputError,
printed as one bounded "error: " line on stderr) or a stdout that cannot be
written ("error: cannot write stdout: REASON"), 3 runtime integration failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys as _sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from . import darboux
from .model import REASON_BYTES, CyclicLVSystem, InputError, _excerpt, make_system

if TYPE_CHECKING:
    from pathlib import Path

    import numpy as np

    from . import verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3

DEFAULT_CHECK_SAMPLES = 32
MAX_SPEC_BYTES = 4 << 20  # a spec of a million rates takes about 3 MB

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


class _StdoutUnwritable(Exception):
    """An OSError from writing or flushing stdout, its __cause__; console_main reports it."""


def _print(*lines: str, end: str = "\n") -> None:
    """Write lines to stdout and flush them: the one writer of stdout."""
    try:
        print("\n".join(lines), end=end, flush=True)
    except OSError as exc:
        raise _StdoutUnwritable from exc


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose stdout text, --help's, goes out through _print.

    argparse's own writer drops an OSError. Subparsers are made of the
    parser's own class, so they write through _print too.
    """

    def _print_message(self, message: str, file=None) -> None:
        if message and file is _sys.stdout:
            _print(message, end="")
        else:
            super()._print_message(message, file)


def _monomial_text(name: str, mono: darboux.MonomialIntegral) -> list[str]:
    # each exponent's text once; a Fraction's text is "0" or "1" only at 0 or 1
    texts = [str(e) for e in mono.exponents]
    factors = [f"x{i}" if e == "1" else f"x{i}^({e})" for i, e in enumerate(texts, 1) if e != "0"]
    return [f"{name} = " + " * ".join(factors), f"{name} exponents: " + ", ".join(texts)]


def _integral_names(basis: darboux.IntegralBasis) -> list[str]:
    return ["H1"] + [f"H{j + 2}" for j in range(len(basis.monomials))]


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on the digits of an int turned to str, then restore it.

    Exact exponents can be far longer than the limit, which is meant for
    untrusted input, so main lifts it only after the spec file is parsed;
    run_check_battery, a library function too, lifts it for itself.
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


def cmd_integrals(system: CyclicLVSystem, args: argparse.Namespace) -> tuple[list[str], int]:
    basis = darboux.integral_basis(system)
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
        return [json.dumps(payload, indent=2)], EXIT_OK
    lines = [
        f"n: {system.n}",
        f"classification: {basis.classification.name}",
        "H1 = " + " + ".join(f"x{i}" for i in range(1, system.n + 1)),
    ]
    for name, mono in zip(_integral_names(basis)[1:], basis.monomials):
        lines += _monomial_text(name, mono)
    if not basis.monomials:
        lines.append("no monomial integrals")
    return lines, EXIT_OK


@_unlimited_int_digits()
def run_check_battery(system: CyclicLVSystem, seed: int) -> tuple[list[str], bool]:
    """Every exact check against one system; returns (lines, all passed).

    It lifts the int digit limit itself, so a library call cuts a witness
    past 4300 digits to its excerpt as main's check does.
    """
    # verify, linalg and random load here, so integrals never imports them
    import random

    from . import verify

    draw = random.Random(seed).randint
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
        differences = (
            f"{name} exponent of x{i}: formula {_excerpt(a)}, nullspace {_excerpt(b)}"
            for name, formula, vector in zip(names[1:], formulas, space)
            for i, (a, b) in enumerate(zip(formula, vector), 1) if a != b
        )
        witness = (f"nullspace has {len(space)} vectors, formulas {len(formulas)}"
                   if len(space) != len(formulas) else next(differences, None))
        checks.append((label, verify.VerificationReport(witness)))

    # one set of positive points serves both sampled checks
    points = [
        tuple(Fraction(draw(1, 99), draw(1, 99)) for _ in range(system.n))
        for _ in range(DEFAULT_CHECK_SAMPLES)
    ]
    checks.append((
        f"jacobi-multiplier[samples={DEFAULT_CHECK_SAMPLES}]",
        verify.check_jacobi_multiplier(system, points),
    ))
    checks.append((
        f"independence[samples={DEFAULT_CHECK_SAMPLES}]",
        verify.check_independence(system, basis, points),
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


def cmd_check(system: CyclicLVSystem, args: argparse.Namespace) -> tuple[list[str], int]:
    lines, ok = run_check_battery(system, seed=args.seed)
    return [*lines, f"result: {'PASS' if ok else 'FAIL'}"], EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_x0(text: str) -> list[float]:
    """Comma-separated floats; sim.integrate checks length, finiteness and sign."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(
            f"cannot parse --x0 {_excerpt(repr(text))}: {_excerpt(exc, REASON_BYTES)}"
        ) from exc


class _Csv:
    """The --out file, its header and the rows written to it."""

    def __init__(self, path: str | Path, n: int, names: list[str]):
        header = ["t", *(f"x{i}" for i in range(1, n + 1)), *names,
                  *(f"drift_{name}" for name in names)]
        self.path, self.file, self.rows = path, None, 0
        self.header = (",".join(header) + "\n").encode()

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def write_csv_rows(csv: _Csv, *columns: np.ndarray) -> None:
    """Write the rows of the columns t, x, values and drift to csv, each as '%.17g' % value.

    The row sink that cmd_simulate hands sim.integrate. The first call opens
    and truncates the file and writes the header, so a run that integrate
    refuses leaves an existing file as it was. The rows' bytes come from
    sim._csv_bytes: the native formatter where a build loads, else Python's
    %, with the same bytes.
    """
    import numpy as np

    from . import sim

    if csv.file is None:
        csv.file = open(csv.path, "wb")
        csv.file.write(csv.header)
    csv.file.write(sim._csv_bytes(np.column_stack(columns), sim._impl()))
    csv.rows += len(columns[0])


def cmd_simulate(system: CyclicLVSystem, args: argparse.Namespace) -> tuple[list[str], int]:
    # numpy and sim load here, so integrals and check never import them
    from . import sim

    x0 = _parse_x0(args.x0)
    cfg = sim.IntegratorConfig(method=args.method, step=args.step, t_end=args.t_end)
    basis = darboux.integral_basis(system)
    names = _integral_names(basis)
    csv = _Csv(args.out, system.n, names)

    status = "ok"
    exit_code = EXIT_OK
    created = not os.path.lexists(args.out)
    try:
        # opening for append creates a missing file but changes nothing in an
        # existing one, so an unwritable --out is refused before the first step
        open(args.out, "a").close()
        try:
            # write_csv_rows is read from the module on each run, so a
            # wrapper set there takes the rows
            trajectory = sim.integrate(system, x0, cfg, basis, args.sample_every,
                                       partial(write_csv_rows, csv))
        except sim.IntegrationAborted as exc:
            trajectory = exc.trajectory
            status = f"{type(exc).__name__}({exc})"
            exit_code = EXIT_RUNTIME_ERROR
        finally:
            csv.close()
    except BaseException as exc:
        # a run refused, interrupted or unwritten leaves no file it created
        if created and os.path.lexists(args.out):
            os.remove(args.out)
        if isinstance(exc, OSError):
            reason = _excerpt(exc, REASON_BYTES)
            raise InputError(f"cannot write --out {_excerpt(args.out)}: {reason}") from exc
        raise
    summary = ["summary: rows=%d" % csv.rows, "t_final=%.17g" % trajectory.t[-1]]
    summary += ["max_drift_%s=%.17g" % pair for pair in zip(names, trajectory.max_drift.tolist())]
    return [" ".join([*summary, f"status={status}"])], exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Read the spec, run the subcommand's handler, write its lines; returns its exit code."""
    args = build_parser().parse_args(argv)
    try:
        system = load_system_spec(args.system)
        with _unlimited_int_digits():
            lines, code = args.handler(system, args)
    except InputError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    _print(*lines)
    return code


def console_main() -> None:
    """The process entry of `python -m cycliclv.cli` and the `cycliclv` script.

    Runs main, reports an unwritable stdout with exit 2, freezes the heap and exits
    with main's code. main changes nothing process-wide, so tests call it.
    """
    try:
        code = main()
    except _StdoutUnwritable as exc:
        print(f"error: cannot write stdout: {_excerpt(exc.__cause__, REASON_BYTES)}",
              file=_sys.stderr)
        # the interpreter's final flush of what is still buffered must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = EXIT_INPUT_ERROR
    # Freeing the import heap object by object takes most of the exit; the
    # shutdown collections skip frozen objects and the OS takes the memory back.
    gc.freeze()
    _sys.exit(code)


if __name__ == "__main__":
    console_main()
