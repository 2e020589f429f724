"""Independent correctness oracles, all in exact rational arithmetic.

Every check here works by a route different from the construction it
verifies: cofactor cancellation is checked coefficient by coefficient,
conservation of the sum H1 by expanding in full its Lie derivative X(H1)
along the field x_i K_i of the structure matrix, the reciprocal-product
multiplier identity is expanded through the generic product, power and
quotient rules (letting the cancellation emerge rather than assuming it),
and gradient independence is an exact rank computation.

Each of the three identities is built as its own sparse polynomial and
added up by one sum on int pairs; it holds at every point when that
polynomial is zero, and a failure names its first surviving monomial and
its coefficient, cut to 64 bytes. Of the two checks that take the caller's
sample points, only the independence check reads them; the multiplier
check proves its identity at every point and leaves them unread.
The rank is taken at each sample as the rank of [x; Lambda], x over the
m exponent vectors: the gradient matrix times diag(x). It runs on
Fractions, scans the columns only until they span the 1 + m rows, and
returns the rank of the whole matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .darboux import IntegralBasis, MonomialIntegral
from .model import (
    CyclicLVSystem,
    InputError,
    Term,
    _Record,
    _excerpt,
    as_fraction,
    structure_matrix,
)

__all__ = [
    "VerificationReport",
    "check_xh_zero",
    "check_linear_integral",
    "check_jacobi_multiplier",
    "check_independence",
]


class VerificationReport(_Record):
    """Outcome of one check; witness holds the first failure, if any."""

    __slots__ = ("witness",)

    def __init__(self, witness: Optional[str] = None):
        super().__init__(witness)

    @property
    def passed(self) -> bool:
        return self.witness is None


# A monomial as its coordinates in ascending order, each as often as its power.
Monomial = tuple[int, ...]


def _sparse_sum(terms: Iterable[tuple[Monomial, int, int]]) -> dict[Monomial, Fraction]:
    """Sum (monomial, numerator, denominator) terms as {monomial: nonzero coefficient}.

    Coefficients add up as unreduced (numerator, denominator) int pairs,
    each made a Fraction once.
    """
    total: dict[Monomial, tuple[int, int]] = {}
    for mono, p, q in terms:
        num, den = total.get(mono, (0, 1))
        total[mono] = (num * q + p * den, den * q)
    return {m: Fraction(num, den) for m, (num, den) in total.items() if num}


def _witness(form: dict[Monomial, Fraction]) -> VerificationReport:
    """Pass on the zero form, else name its first surviving monomial in sorted order."""
    if not form:
        return VerificationReport()
    mono = min(form)
    monomial = "*".join(f"x{j + 1}" for j in mono)
    return VerificationReport(f"coefficient of {monomial} is {_excerpt(form[mono])}")


def check_xh_zero(sys: CyclicLVSystem, integral: MonomialIntegral) -> VerificationReport:
    """Does the vector field annihilate the monomial integral?

    The derivative of prod x_i^(lambda_i) along the field equals the
    product itself times sum lambda_i K_i, so the integral is conserved iff
    that linear form has all coefficients exactly zero.
    """
    if len(integral.exponents) != sys.n:
        raise InputError("exponent vector length does not match the system")
    rows = zip(map(Fraction, integral.exponents), structure_matrix(sys))
    return _witness(_sparse_sum(
        ((j,), lam.numerator * c.numerator, lam.denominator * c.denominator)
        for lam, row in rows if lam for j, c in row
    ))


def _lie(sys: CyclicLVSystem, form: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    """X(F) = sum_i x_i K_i dF/dx_i, F and the result as {monomial: nonzero coefficient}.

    The cofactors K_i are the rows of the structure matrix. Since
    x_i d(x^m)/dx_i = m_i x^m, each term c x^m of F goes to c x^m K_i once
    for every factor x_i of m, as often as its power.
    """
    rows = structure_matrix(sys)
    return _sparse_sum(
        (tuple(sorted(mono + (j,))), c.numerator * e.numerator, c.denominator * e.denominator)
        for mono, c in form.items() for i in mono for j, e in rows[i]
    )


def check_linear_integral(sys: CyclicLVSystem) -> VerificationReport:
    """Expand X(H1), H1 = x1 + ... + xn, and require every coefficient to cancel.

    Each product k_i x_i x_{i+1} appears once with sign + (row i) and once
    with sign - (row i+1), so the expansion is identically zero for every
    valid system; a sign slip anywhere in the structure matrix shows up as
    a surviving monomial.
    """
    return _witness(_lie(sys, dict.fromkeys([(i,) for i in range(sys.n)], Fraction(1))))


def _multiplier_form(rows: Sequence[Sequence[Term]]) -> dict[Monomial, Fraction]:
    """S = sum_i (dP_i/dx_i - P_i/x_i), P_i = x_i K_i, as {monomial: nonzero coefficient}.

    rows is the structure matrix, the cofactors K_1..K_n. By the product
    rule with dM/dx_i = -M/x_i, the divergence of the field times
    M = 1/(x1*...*xn) is M * sum_i (dP_i/dx_i - P_i/x_i) = S / (x1*...*xn),
    so M is a Jacobi multiplier exactly when S is the zero form. Each term
    c x_j of K_i gives P_i the term c x_i x_j, in which x_i has the power
    a = 1 + [j = i]: its derivative by the power rule is a c x_j and its
    quotient by x_i is c x_j. The K_i - K_i cancellation is left to the
    arithmetic, not assumed, so the form does not rest on the structure
    matrix having a zero diagonal: an entry c there survives as c x_i.
    """
    return _sparse_sum(
        ((j,), a * c.numerator, c.denominator)
        for i0, row in enumerate(rows) for j, c in row for a in (1 + (j == i0), -1)
    )


def check_jacobi_multiplier(
    sys: CyclicLVSystem, samples: Sequence[Sequence]
) -> VerificationReport:
    """Verify the reciprocal-product multiplier identity as a polynomial identity.

    Passes when S of _multiplier_form is the zero form, which proves the
    identity at every point; otherwise the witness is S's first surviving
    monomial and its coefficient. samples is not read. The parameter stays
    because cli.run_check_battery hands one set of points to both sampled
    checks and bench/tracing.py counts them as len(samples) of this call;
    it goes when that count is taken from check_independence alone.
    """
    return _witness(_multiplier_form(structure_matrix(sys)))


def _independence_rank(
    sys: CyclicLVSystem, basis: IntegralBasis, state: Sequence
) -> int:
    """Exact rank of the scaled gradient matrix at a positive rational point.

    Rows are (1,...,1) for the linear integral and (lambda_i / x_i)_i for
    each monomial integral. The monomial row is its gradient divided by the
    integral's (nonzero) value, and scaling a row by a nonzero scalar
    preserves rank, so this restates gradient independence exactly.
    Scaling column j by x_j > 0 preserves it too, so the rank is that of
    [x; Lambda], x over the exponent vectors, whose column j is
    (x_j, lambda_j, mu_j, ...).

    Row rank equals column rank, and the matrix has only 1 + m rows for m
    monomials, so the columns are read one at a time and eliminated, by
    cross-multiplying, against an echelon basis of at most 1 + m short
    vectors. The scan stops once that basis is full; at a rank-deficient
    point it reaches every column, and the rank it returns is still exact.
    Raises InputError for a coordinate as_fraction refuses, then for a
    point of another length than the system, then for one not positive;
    cli.run_check_battery draws Fractions, which are taken as they are.
    """
    x = [v if isinstance(v, Fraction) else as_fraction(v) for v in state]
    if len(x) != sys.n:
        raise InputError("state length does not match the system")
    if any(v.numerator <= 0 for v in x):
        raise InputError("independence samples must be strictly positive")
    full = 1 + len(basis.monomials)
    echelon: list[tuple[int, Sequence[Fraction]]] = []  # (pivot, vector nonzero there)
    for col in zip(x, *(mono.exponents for mono in basis.monomials), strict=True):
        for p, vec in echelon:
            f, g = col[p], vec[p]
            if f:
                col = [g * c - f * v for c, v in zip(col, vec)]
        p = next((i for i, c in enumerate(col) if c), None)
        if p is not None:
            echelon.append((p, col))
            if len(echelon) == full:
                break
    return len(echelon)


def check_independence(
    sys: CyclicLVSystem, basis: IntegralBasis, samples: Sequence[Sequence]
) -> VerificationReport:
    """Require full rank 1 + #monomials at every sample point.

    The witness names the first sample short of that rank. Raises
    InputError for a basis whose exponent vectors have another length than
    the system, then for an empty sample set, then, in order, for the first
    sample that _independence_rank refuses.
    """
    if any(len(mono.exponents) != sys.n for mono in basis.monomials):
        raise InputError("exponent vector length does not match the system")
    if not samples:
        raise InputError("at least one sample point is required")
    required = 1 + len(basis.monomials)
    for idx, sample in enumerate(samples):
        got = _independence_rank(sys, basis, sample)
        if got != required:
            return VerificationReport(f"sample {idx}: rank {got}, expected {required}")
    return VerificationReport()
