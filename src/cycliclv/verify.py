"""Independent correctness oracles, all in exact rational arithmetic.

Every check here works by a route different from the construction it
verifies: cofactor cancellation is checked coefficient by coefficient,
conservation of the sum is checked by expanding the full quadratic
polynomial sum_i x_i K_i, the reciprocal-product multiplier identity is
evaluated through the generic product and quotient rules (letting the
cancellation emerge rather than assuming it), and gradient independence is
an exact rank computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import linalg
from .darboux import IntegralBasis, MonomialIntegral
from .model import (
    CyclicLVSystem,
    InputError,
    Term,
    as_fraction,
    structure_matrix,
    _row_quadratic,
)

__all__ = [
    "VerificationReport",
    "check_xh_zero",
    "check_linear_integral",
    "check_jacobi_multiplier",
    "check_independence",
    "cofactor_combination",
    "independence_rank",
    "random_rational_state",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check; witness holds the first failure, if any."""

    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def cofactor_combination(
    sys: CyclicLVSystem, exponents: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Coefficients of the linear form sum_i lambda_i K_i."""
    if len(exponents) != sys.n:
        raise InputError("exponent vector length does not match the system")
    total = [Fraction(0)] * sys.n
    for lam, row in zip(exponents, structure_matrix(sys)):
        lam = Fraction(lam)
        if lam == 0:
            continue
        for j, c in row:
            total[j] += lam * c
    return tuple(total)


def check_xh_zero(sys: CyclicLVSystem, integral: MonomialIntegral) -> VerificationReport:
    """Does the vector field annihilate the monomial integral?

    The derivative of prod x_i^(lambda_i) along the field equals the
    product itself times sum lambda_i K_i, so the integral is conserved iff
    that linear form has all coefficients exactly zero.
    """
    combo = cofactor_combination(sys, integral.exponents)
    for j, c in enumerate(combo):
        if c != 0:
            return VerificationReport(f"coefficient of x{j + 1} is {c}")
    return VerificationReport()


def check_linear_integral(sys: CyclicLVSystem) -> VerificationReport:
    """Expand sum_i x_i K_i and require every quadratic coefficient to cancel.

    Each product k_i x_i x_{i+1} appears once with sign + (row i) and once
    with sign - (row i+1), so the expansion is identically zero for every
    valid system; a sign slip anywhere in the index conventions shows up as
    a surviving monomial.
    """
    total: dict[tuple[int, int], Fraction] = {}
    for i0 in range(sys.n):
        for key, c in _row_quadratic(sys, i0).items():
            total[key] = total.get(key, Fraction(0)) + c
    for key in sorted(total):
        if total[key] != 0:
            a, b = key
            return VerificationReport(f"coefficient of x{a + 1}*x{b + 1} is {total[key]}")
    return VerificationReport()


def _rational_point(state: Sequence) -> list[Fraction]:
    return [as_fraction(x) for x in state]


def _cofactor_at(row: Sequence[Term], x: Sequence, i0: int) -> tuple:
    """K_i = sum c * x_j over the row's terms, and dK_i/dx_i from those on column i0."""
    return sum(c * x[j] for j, c in row), sum(c for j, c in row if j == i0)


def _jacobi_divergence(rows: Sequence[Sequence[Term]], state: Sequence) -> Fraction:
    """Exact value of sum_i d(M P_i)/dx_i with M = 1/(x1*...*xn).

    rows is the structure matrix, the cofactors K_1..K_n, built once per
    system so that each sample costs O(n) Fraction operations. Each term is
    computed by the generic product rule M * dP_i/dx_i + P_i * dM/dx_i with
    dM/dx_i = -M/x_i; the identity emerges from the cancellation rather
    than being assumed.
    """
    x = _rational_point(state)
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


def _first_failing_sample(
    samples: Sequence[Sequence], failure: Callable[[Sequence], Optional[str]]
) -> VerificationReport:
    """The report of the first sample whose failure(sample) is not None."""
    if not samples:
        raise InputError("at least one sample point is required")
    for idx, sample in enumerate(samples):
        reason = failure(sample)
        if reason is not None:
            return VerificationReport(f"sample {idx}: {reason}")
    return VerificationReport()


def check_jacobi_multiplier(
    sys: CyclicLVSystem, samples: Sequence[Sequence]
) -> VerificationReport:
    """Verify the reciprocal-product multiplier identity at rational samples.

    Passes iff the divergence of the multiplied field is exactly zero at
    every sample; all coordinates must be nonzero rationals.
    """
    rows = structure_matrix(sys)

    def residual(sample: Sequence) -> Optional[str]:
        value = _jacobi_divergence(rows, sample)
        return f"residual {value}" if value != 0 else None

    return _first_failing_sample(samples, residual)


def independence_rank(
    sys: CyclicLVSystem, basis: IntegralBasis, state: Sequence
) -> int:
    """Exact rank of the scaled gradient matrix at a positive rational point.

    Rows are (1,...,1) for the linear integral and (lambda_i / x_i)_i for
    each monomial integral. The monomial row is its gradient divided by the
    integral's (nonzero) value, and scaling a row by a nonzero scalar
    preserves rank, so this restates gradient independence exactly.
    """
    x = _rational_point(state)
    if len(x) != sys.n:
        raise InputError("state length does not match the system")
    if any(v <= 0 for v in x):
        raise InputError("independence samples must be strictly positive")
    rows: list[linalg.Row] = [dict.fromkeys(range(sys.n), Fraction(1))]
    for mono in basis.monomials:
        rows.append(
            {j: lam / v for j, (lam, v) in enumerate(zip(mono.exponents, x)) if lam}
        )
    return linalg.rank(rows, sys.n)


def check_independence(
    sys: CyclicLVSystem, basis: IntegralBasis, samples: Sequence[Sequence]
) -> VerificationReport:
    """Require full rank 1 + #monomials at every sample point."""
    required = 1 + len(basis.monomials)

    def rank_shortfall(sample: Sequence) -> Optional[str]:
        got = independence_rank(sys, basis, sample)
        return f"rank {got}, expected {required}" if got != required else None

    return _first_failing_sample(samples, rank_shortfall)


def random_rational_state(
    rng: random.Random, n: int, *, positive: bool = True
) -> tuple[Fraction, ...]:
    """Random exact-rational point with nonzero (optionally positive) parts.

    Each numerator and denominator is drawn from 1..99.
    """
    out = []
    for _ in range(n):
        q = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        if not positive and rng.random() < 0.5:
            q = -q
        out.append(q)
    return tuple(out)
