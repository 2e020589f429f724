"""Shared test helpers: seed-driven generators, the CLI subprocess runner,
and the oracles that only tests call.

The oracles check the package by routes other than its own: the vector
field in the state's own arithmetic for both of ``sim``'s RHS kernels,
hyperplane invariance by an independent expansion of each field row, the
raw field's divergence as the control for the Jacobi multiplier, and the
empirical order of RK4 from drift at two step sizes. The reference routes
are the plain forms of what the package computes on int pairs, once, or
with an early exit: the Jacobi divergence term by term at one point in
Fraction arithmetic, the independence rank as the RREF rank of the dense
gradient rows, the exponent walks of ``integral_basis`` on Fractions, and
``random_rational_state``'s draws through ``randint``. ``verify`` proves
the multiplier identity as a polynomial; its form's residual at one point
is evaluated only here.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

import cycliclv
from cycliclv import (
    Classification,
    CyclicLVSystem,
    InputError,
    IntegralBasis,
    IntegratorConfig,
    Method,
    as_fraction,
    integral_basis,
    integrate,
    make_system,
    structure_matrix,
)
from cycliclv import linalg
from cycliclv.model import Term, _row_quadratic
from cycliclv.verify import Monomial, _multiplier_form, _rational_point


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


def run_python(
    args: list[str], cwd, timeout: float | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run `python *args` in a child process started in `cwd`.

    The directory holding the `cycliclv` package that this process imported
    goes first on the child's PYTHONPATH, ahead of any inherited entries, so
    the child runs the code under test whether it came from `src/` or from an
    install, and a relative PYTHONPATH cannot break when `cwd` differs. A
    child still running after `timeout` seconds is killed and
    subprocess.TimeoutExpired raised. stderr is captured; stdout is too,
    unless `stdout` names a file or descriptor for it.
    """
    package_root = str(Path(cycliclv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


def run_cli(
    args: list[str], cwd, timeout: float | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run `python -m cycliclv.cli *args` in a child process, as run_python does."""
    return run_python(["-m", "cycliclv.cli", *args], cwd, timeout, stdout)


def stderr_of(*results: subprocess.CompletedProcess) -> str:
    """The children's decoded stderr, for the message of a failed assertion."""
    return "\n".join(r.stderr.decode(errors="replace") for r in results)


# -- oracles ---------------------------------------------------------------


def _form_times_coordinate(form, i0: int) -> dict[tuple[int, int], Fraction]:
    """Quadratic monomial coefficients of x_{i0+1} * form (0-based i0)."""
    terms: dict[tuple[int, int], Fraction] = {}
    for j0, c in form:
        key = tuple(sorted((i0, j0)))
        terms[key] = terms.get(key, Fraction(0)) + c
    return {key: c for key, c in terms.items() if c != 0}


def vector_field(sys: CyclicLVSystem, state: Sequence) -> list:
    """Right-hand side of the system at a state, the oracle for sim's RHS kernels.

    Component i is x_i * (k_i x_{i+1} - k_{i-1} x_{i-1}) with cyclic
    indices, read off row i of the structure matrix. Arithmetic follows the
    state's scalar type, so Fraction states give exact Fraction output and
    float states give floats.
    """
    n = sys.n
    if len(state) != n:
        raise InputError(f"state has length {len(state)}, system has n={n}")
    x = state
    return [
        x[i] * (c1 * x[j1] + c2 * x[j2])
        for i, ((j1, c1), (j2, c2)) in enumerate(structure_matrix(sys))
    ]


def verify_hyperplane_invariance(sys: CyclicLVSystem, i: int, cof=None) -> bool:
    """Exact symbolic check that X(x_i) - K_i * x_i is the zero polynomial.

    K_i is row i (1-based) of the structure matrix unless explicit
    (column, entry) terms are passed, which lets a test probe the check
    with a corrupted form. X(x_i) comes from model._row_quadratic, an
    expansion built from the index rules and not from the structure matrix.
    """
    if cof is None:
        cof = structure_matrix(sys)[i - 1]
    return _row_quadratic(sys, i - 1) == _form_times_coordinate(cof, i - 1)


def _jacobi_divergence(form: dict[Monomial, Fraction], state: Sequence, n: int) -> Fraction:
    """The multiplied field's divergence S(x) / (x1*...*xn) at one point, S the form.

    Raises InputError as verify._rational_point does, then for a zero
    coordinate, the refusals check_jacobi_multiplier applies to a sample.
    """
    x = _rational_point(state, n)
    for i0, v in enumerate(x):
        if not v:
            raise InputError(f"coordinate x{i0 + 1} is zero")
    if not form:
        return Fraction(0)
    return sum(c * math.prod(x[j] for j in mono) for mono, c in form.items()) / math.prod(x)


def jacobi_divergence(sys: CyclicLVSystem, state: Sequence) -> Fraction:
    """Exact sum_i d(M P_i)/dx_i with M = 1/(x1*...*xn) at one point of a system.

    verify's own route, the system's multiplier form, evaluated at the point.
    """
    return _jacobi_divergence(_multiplier_form(structure_matrix(sys)), state, sys.n)


def _cofactor_at(row: Sequence[Term], x: Sequence, i0: int) -> tuple:
    """K_i = sum c * x_j over the row's terms, and dK_i/dx_i from those on column i0."""
    return sum(c * x[j] for j, c in row), sum(c for j, c in row if j == i0)


def fraction_jacobi_divergence(rows: Sequence[Sequence[Term]], state: Sequence) -> Fraction:
    """The reference for verify's multiplier check, at one point in Fraction arithmetic.

    Each term is M * dP_i/dx_i + P_i * dM/dx_i with dM/dx_i = -M/x_i, every
    operation a Fraction operation and M multiplied into every term. A
    failing check's residual is this value at its witness sample.
    """
    x = [as_fraction(v) for v in state]
    if len(x) != len(rows):
        raise InputError("state length does not match the system")
    for i0, v in enumerate(x):
        if v == 0:
            raise InputError(f"coordinate x{i0 + 1} is zero")
    prod = Fraction(1)
    for v in x:
        prod *= v
    multiplier = 1 / prod
    total = Fraction(0)
    for i0, row in enumerate(rows):
        k_i, dk_i = _cofactor_at(row, x, i0)
        p_i = x[i0] * k_i
        dp_i = k_i + x[i0] * dk_i
        total += multiplier * dp_i + p_i * (-multiplier / x[i0])
    return total


def randint_rational_state(
    rng: random.Random, n: int, *, positive: bool = True
) -> tuple[Fraction, ...]:
    """The reference for verify.random_rational_state: each part from rng.randint(1, 99)."""
    out = []
    for _ in range(n):
        q = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        if not positive and rng.random() < 0.5:
            q = -q
        out.append(q)
    return tuple(out)


def fraction_integral_basis(
    sys: CyclicLVSystem, max_bits: int
) -> tuple[Classification, list[tuple[Fraction, ...]]]:
    """The reference for darboux.integral_basis: its walks in Fraction arithmetic.

    Returns the classification and each monomial's exponents. The walk from
    x1, and for even n at resonance the one from x2, each take
    lambda_{j+2} = k_j lambda_j / k_{j+1} as two Fraction operations, and
    InputError is raised once the exponents stored so far take more than
    max_bits bits, numerators and denominators together.
    """
    n, k = sys.n, sys.rates
    bits = 0

    def walk(start: int) -> tuple[tuple[Fraction, ...], bool]:
        nonlocal bits
        lam = [Fraction(0)] * n
        i, value = start, Fraction(1)
        while True:
            lam[i] = value
            bits += value.numerator.bit_length() + value.denominator.bit_length()
            if bits > max_bits:
                raise InputError(f"the integrals' exponents take more than {max_bits} bits")
            value = value * k[i] / k[(i + 1) % n]
            i = (i + 2) % n
            if i == start:
                return tuple(lam), value == 1

    if n == 2:
        return Classification.N2, []
    odd_chain, closes = walk(0)
    if n % 2 == 1:
        return Classification.ODD, [odd_chain]
    if not closes:
        return Classification.EVEN_NONRESONANT, []
    return Classification.EVEN_RESONANT, [odd_chain, walk(1)[0]]


def rank(rows, ncols: int) -> int:
    """Rank of sparse rows over columns 0..ncols-1, from the RREF's pivots."""
    return len(linalg.rref(rows, ncols)[1])


def dense_gradient_rank(sys: CyclicLVSystem, basis: IntegralBasis, state: Sequence) -> int:
    """The reference for verify._independence_rank: the rank of every row.

    Rows are (1,...,1) and (lambda_i / x_i)_i for each monomial, all of
    them built, and the rank is read off their full RREF.
    """
    x = [as_fraction(v) for v in state]
    rows = [dict.fromkeys(range(sys.n), Fraction(1))]
    for mono in basis.monomials:
        rows.append({j: lam / v for j, (lam, v) in enumerate(zip(mono.exponents, x)) if lam})
    return rank(rows, sys.n)


def field_divergence(sys: CyclicLVSystem, state: Sequence) -> Fraction:
    """Exact divergence sum_i dP_i/dx_i of the raw field at a rational point.

    Serves as the multiplier-equals-one control: generically nonzero, which
    is what makes the reciprocal-product multiplier informative.
    """
    x = [as_fraction(v) for v in state]
    if len(x) != sys.n:
        raise InputError("state length does not match the system")
    total = Fraction(0)
    for i0, row in enumerate(structure_matrix(sys)):
        k_i, dk_i = _cofactor_at(row, x, i0)
        # d/dx_i [x_i * K_i] = K_i + x_i * dK_i/dx_i  (product rule)
        total += k_i + x[i0] * dk_i
    return total


class NotMeasurable(Exception):
    """A convergence-order measurement is dominated by roundoff or is 0/0."""


def convergence_order(
    sys: CyclicLVSystem,
    x0: Sequence,
    t_end: float,
    steps: tuple[float, float],
    integral_index: int = 0,
) -> float:
    """Empirical order of the fixed-step scheme from drift at two resolutions.

    Integrates with RK4 at the coarse and fine steps (intended as h and
    h/2) and returns log(drift_coarse / drift_fine) / log(coarse / fine)
    for the selected integral, index 0 being the linear one. Raises
    NotMeasurable when either drift sits at roundoff level (below 100x
    machine epsilon), where the ratio says nothing about the scheme.

    Runge-Kutta steps conserve the linear integral exactly in real
    arithmetic, so its drift is pure roundoff at any step size and the
    order is typically NotMeasurable at index 0; a monomial integral
    (index 1 and up) drifts at the scheme's true order.
    """
    h_coarse, h_fine = steps
    if h_coarse <= 0 or h_fine <= 0:
        raise ValueError("steps must be positive")
    if h_fine >= h_coarse:
        raise ValueError("the second step must be the finer one")
    basis = integral_basis(sys)
    if not 0 <= integral_index <= len(basis.monomials):
        raise IndexError(f"integral index {integral_index} outside the basis")
    drifts = []
    for h in (h_coarse, h_fine):
        cfg = IntegratorConfig(method=Method.RK4_FIXED, step=h, t_end=t_end)
        drift = integrate(sys, x0, cfg, basis).drift[:, integral_index]
        drifts.append(float(drift.max()))
    floor = 100.0 * np.finfo(float).eps
    if drifts[0] <= floor or drifts[1] <= floor:
        raise NotMeasurable(
            f"drifts {drifts[0]:.3g}, {drifts[1]:.3g} are roundoff-dominated"
        )
    return math.log(drifts[0] / drifts[1]) / math.log(h_coarse / h_fine)
