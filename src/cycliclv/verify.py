"""Independent correctness oracles, all in exact rational arithmetic.

Every check here works by a route different from the construction it
verifies: cofactor cancellation is checked coefficient by coefficient,
conservation of the sum is checked by expanding the full quadratic
polynomial sum_i x_i K_i, the reciprocal-product multiplier identity is
evaluated through the generic product and quotient rules (letting the
cancellation emerge rather than assuming it), and gradient independence is
an exact rank computation.

The two sample-based checks keep those routes but shed Fraction's
per-operation cost: the multiplier's product-rule terms run on unreduced
int pairs, reduced once each, and the rank scans the gradient matrix's
columns only until they span its 1 + m rows. Both return what plain
Fraction arithmetic over the whole matrix returns, witnesses included.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .darboux import IntegralBasis, MonomialIntegral
from .model import (
    CyclicLVSystem,
    InputError,
    Term,
    _Record,
    as_fraction,
    structure_matrix,
    _row_quadratic,
)

if TYPE_CHECKING:
    import random

__all__ = [
    "VerificationReport",
    "check_xh_zero",
    "check_linear_integral",
    "check_jacobi_multiplier",
    "check_independence",
    "random_rational_state",
]


class VerificationReport(_Record):
    """Outcome of one check; witness holds the first failure, if any."""

    __slots__ = ("witness",)

    def __init__(self, witness: Optional[str] = None):
        super().__init__(witness)

    @property
    def passed(self) -> bool:
        return self.witness is None


def _cofactor_combination(
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
    combo = _cofactor_combination(sys, integral.exponents)
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


def _jacobi_divergence(rows: Sequence[Sequence[Term]], state: Sequence) -> Fraction:
    """Exact value of sum_i d(M P_i)/dx_i with M = 1/(x1*...*xn).

    rows is the structure matrix, the cofactors K_1..K_n, built once per
    system. Each term is the generic product rule M * dP_i/dx_i +
    P_i * dM/dx_i with dM/dx_i = -M/x_i; M is common to every term, so by
    linearity the sum is M * sum_i (dP_i/dx_i - P_i/x_i). K_i, dK_i/dx_i,
    P_i = x_i K_i, dP_i/dx_i = K_i + x_i dK_i/dx_i and P_i/x_i are unreduced
    (numerator, denominator) int pairs, and each term is reduced once. The
    K_i - K_i cancellation is left to the arithmetic, not assumed, so the
    check does not rest on the structure matrix having a zero diagonal.
    """
    x = _rational_point(state)
    if len(x) != len(rows):
        raise InputError("state length does not match the system")
    for i0, v in enumerate(x):
        if v == 0:
            raise InputError(f"coordinate x{i0 + 1} is zero")
    pairs = [(v.numerator, v.denominator) for v in x]
    sum_n, sum_d = 0, 1
    for i0, row in enumerate(rows):
        k_n, k_d, dk_n, dk_d = 0, 1, 0, 1
        for j, c in row:
            c_n, c_d = c.numerator, c.denominator
            a, b = pairs[j]
            k_n, k_d = k_n * c_d * b + c_n * a * k_d, k_d * c_d * b
            if j == i0:
                dk_n, dk_d = dk_n * c_d + c_n * dk_d, dk_d * c_d
        a, b = pairs[i0]
        p_n, p_d = a * k_n, b * k_d
        dp_n, dp_d = k_n * b * dk_d + a * dk_n * k_d, k_d * b * dk_d
        px_n, px_d = p_n * b, p_d * a
        t_n, t_d = dp_n * px_d - px_n * dp_d, dp_d * px_d
        if t_n:
            g = gcd(t_n, t_d)
            t_n, t_d = t_n // g, t_d // g
            sum_n, sum_d = sum_n * t_d + t_n * sum_d, sum_d * t_d
    if not sum_n:
        return Fraction(0)
    prod_n, prod_d = 1, 1
    for a, b in pairs:
        prod_n, prod_d = prod_n * a, prod_d * b
    return Fraction(sum_n * prod_d, sum_d * prod_n)


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


def _independence_rank(
    sys: CyclicLVSystem, basis: IntegralBasis, state: Sequence
) -> int:
    """Exact rank of the scaled gradient matrix at a positive rational point.

    Rows are (1,...,1) for the linear integral and (lambda_i / x_i)_i for
    each monomial integral. The monomial row is its gradient divided by the
    integral's (nonzero) value, and scaling a row by a nonzero scalar
    preserves rank, so this restates gradient independence exactly.

    Row rank equals column rank, and the matrix has only 1 + m rows for m
    monomials, so the columns (1, lambda_j / x_j, mu_j / x_j, ...) are
    built one at a time and eliminated against an echelon basis of at most
    1 + m short vectors. The scan stops once that basis is full; at a
    rank-deficient point it reaches every column, and the rank it returns
    is still exact.
    """
    x = _rational_point(state)
    if len(x) != sys.n:
        raise InputError("state length does not match the system")
    if any(v <= 0 for v in x):
        raise InputError("independence samples must be strictly positive")
    full = 1 + len(basis.monomials)
    echelon: list[tuple[int, list[Fraction]]] = []  # (pivot, vector with 1 there)
    for j, v in enumerate(x):
        col = [Fraction(1)] + [mono.exponents[j] / v for mono in basis.monomials]
        for p, vec in echelon:
            f = col[p]
            if f:
                col = [a - f * b for a, b in zip(col, vec)]
        p = next((i for i, a in enumerate(col) if a), None)
        if p is not None:
            echelon.append((p, [a / col[p] for a in col]))
            if len(echelon) == full:
                break
    return len(echelon)


def check_independence(
    sys: CyclicLVSystem, basis: IntegralBasis, samples: Sequence[Sequence]
) -> VerificationReport:
    """Require full rank 1 + #monomials at every sample point.

    Raises InputError for a basis whose exponent vectors have another
    length than the system.
    """
    if any(len(mono.exponents) != sys.n for mono in basis.monomials):
        raise InputError("exponent vector length does not match the system")
    required = 1 + len(basis.monomials)

    def rank_shortfall(sample: Sequence) -> Optional[str]:
        got = _independence_rank(sys, basis, sample)
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
