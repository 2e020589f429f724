"""Monomial first integrals of the cyclic system, exactly.

A product of coordinate powers prod x_i^(lambda_i) is a first integral
precisely when the cofactor combination sum_i lambda_i K_i vanishes as a
polynomial. Collecting the coefficient of x_i turns that into the cyclic
linear system

    k_{i-1} lambda_{i-1} - k_i lambda_{i+1} = 0,    i = 1..n,

which links exponents two indices apart. For odd n the chain closes into a
single cycle and the solution space is one-dimensional; for even n it
splits into an odd-index and an even-index chain, each of which closes only
under the resonance condition k1 k3 ... k_{n-1} = k2 k4 ... kn. The
system's matrix is the transpose of the structure matrix A of
``model.structure_matrix``, so the monomial integrals are the vectors A
sends to zero. This module builds that matrix as sparse rows, solves it by
exact elimination, evaluates the closed-form exponent expressions, and
assembles the classified basis of first integrals (the linear integral
x1 + ... + xn is always present).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence, Union

from . import linalg
from .errors import (
    DimensionMismatch,
    DomainViolation,
    ResonanceViolated,
    UnsupportedDimension,
    WrongParity,
)
from .model import CyclicLVSystem, structure_matrix

__all__ = [
    "Classification",
    "MonomialIntegral",
    "LinearIntegral",
    "IntegralBasis",
    "build_exponent_system",
    "nullspace",
    "exponents_odd",
    "resonance_condition",
    "exponents_even",
    "integral_basis",
    "evaluate_integral",
]


class Classification(Enum):
    """How many monomial integrals the system admits, and why."""

    N2 = "N2"
    ODD = "ODD"
    EVEN_RESONANT = "EVEN_RESONANT"
    EVEN_NONRESONANT = "EVEN_NONRESONANT"


@dataclass(frozen=True)
class MonomialIntegral:
    """Exponent vector of a first integral prod x_i^(exponents[i-1]).

    Not all exponents are zero, and the first nonzero exponent is 1 (any
    nonzero scalar multiple of a solution is again a solution, so the
    representative is normalized).
    """

    exponents: tuple[Fraction, ...]

    def __post_init__(self):
        first = next((e for e in self.exponents if e != 0), None)
        if first is None:
            raise ValueError("exponent vector must not be identically zero")
        if first != 1:
            raise ValueError("first nonzero exponent must be normalized to 1")


@dataclass(frozen=True)
class LinearIntegral:
    """The integral x1 + ... + xn of an n-dimensional system."""

    n: int


@dataclass(frozen=True)
class IntegralBasis:
    """Classification plus the integrals: one linear, 0..2 monomial."""

    classification: Classification
    linear: LinearIntegral
    monomials: tuple[MonomialIntegral, ...]

    def __post_init__(self):
        expected = {
            Classification.N2: 0,
            Classification.ODD: 1,
            Classification.EVEN_RESONANT: 2,
            Classification.EVEN_NONRESONANT: 0,
        }[self.classification]
        if len(self.monomials) != expected:
            raise ValueError(
                f"{self.classification.name} basis must hold {expected} monomial "
                f"integrals, got {len(self.monomials)}"
            )


def build_exponent_system(sys: CyclicLVSystem) -> list[linalg.Row]:
    """The cyclic exponent equations for n >= 3, as sparse rows {column: entry}.

    Row i, the coefficient of x_i in sum_j lambda_j K_j, is column i of the
    structure matrix: +k_{i-1} in column i-1 and -k_i in column i+1,
    cyclically. For n >= 3 these are distinct entries. For n = 2 the two
    neighbor contributions of each row collide on the same exponent and the
    two-entry structure degenerates, so the system is not built; dimension 2
    is classified separately.
    """
    n = sys.n
    if n < 3:
        raise UnsupportedDimension("exponent system requires n >= 3")
    rows: list[linalg.Row] = [{} for _ in range(n)]
    for i, terms in enumerate(structure_matrix(sys)):
        for j, c in terms:
            rows[j][i] = c
    return rows


def nullspace(rows: linalg.Rows) -> list[tuple[Fraction, ...]]:
    """Exact nullspace basis of n sparse rows in n unknowns, normalized and ordered.

    Each basis vector is scaled so its first nonzero entry is 1, and the
    vectors are sorted by the index of that entry. An empty list means the
    nullspace is trivial.
    """
    raw = linalg.nullspace_basis(rows, len(rows))
    normalized = []
    for v in raw:
        lead = next(i for i, e in enumerate(v) if e != 0)
        normalized.append((lead, tuple(e / v[lead] for e in v)))
    normalized.sort(key=lambda pair: pair[0])
    return [vec for _, vec in normalized]


def _chain_products(k: Sequence[Fraction]) -> Callable[[int, int], Fraction]:
    """Products k_start k_{start+2} ... k_stop (1-based; empty -> 1) in O(1) each.

    prefix[j + 1] is the running product of k_i over i <= j with i of the
    parity of j, built in one pass; a chain is then the quotient of the
    prefixes ending at stop and at start - 2, which share that parity.
    """
    prefix = [Fraction(1), Fraction(1)]
    for j, kj in enumerate(k, start=1):
        prefix.append(prefix[j - 1] * kj)
    return lambda start, stop: prefix[stop + 1] / prefix[start - 1]


def exponents_odd(sys: CyclicLVSystem) -> MonomialIntegral:
    """Closed-form exponents of the single monomial integral for odd n >= 3.

    With the first exponent set to 1:

        lambda_j = (k1 k3 ... k_{j-2}) / (k2 k4 ... k_{j-1})     j >= 3 odd,
        lambda_j = (k_{j+1} k_{j+3} ... kn) / (kj k_{j+2} ... k_{n-1})
                                                                 j >= 2 even.
    """
    n = sys.n
    if n % 2 == 0:
        raise WrongParity(f"odd-n formulas requested for even n={n}")
    chain = _chain_products(sys.rates)
    lam = [Fraction(1)]
    for j in range(2, n + 1):
        if j % 2 == 1:
            lam.append(chain(1, j - 2) / chain(2, j - 1))
        else:
            lam.append(chain(j + 1, n) / chain(j, n - 1))
    return MonomialIntegral(exponents=tuple(lam))


def resonance_condition(sys: CyclicLVSystem) -> bool:
    """Exact test of k1 k3 ... k_{n-1} == k2 k4 ... kn for even n >= 4."""
    n = sys.n
    if n < 3:
        raise UnsupportedDimension("resonance condition requires n >= 4")
    if n % 2 == 1:
        raise WrongParity(f"resonance condition is an even-n notion, got n={n}")
    chain = _chain_products(sys.rates)
    return chain(1, n - 1) == chain(2, n)


def exponents_even(sys: CyclicLVSystem) -> tuple[MonomialIntegral, MonomialIntegral]:
    """Closed-form exponent pair for even n >= 4 under the resonance condition.

    The first integral is supported on odd coordinates:

        lambda_1 = 1,
        lambda_j = (k_{j+1} k_{j+3} ... kn) / (kj k_{j+2} ... k_{n-1})
                                                                j >= 3 odd,

    the second on even coordinates:

        lambda_2 = 1,
        lambda_j = (k2 k4 ... k_{j-2}) / (k3 k5 ... k_{j-1})    j >= 4 even.
    """
    n = sys.n
    if n % 2 == 1 or n < 4:
        raise WrongParity(f"even-n formulas requested for n={n}")
    if not resonance_condition(sys):
        raise ResonanceViolated(
            "k1*k3*...*k(n-1) != k2*k4*...*kn; no monomial integrals exist"
        )
    chain = _chain_products(sys.rates)
    odd_support = [Fraction(0)] * n
    odd_support[0] = Fraction(1)
    for j in range(3, n, 2):
        odd_support[j - 1] = chain(j + 1, n) / chain(j, n - 1)
    even_support = [Fraction(0)] * n
    even_support[1] = Fraction(1)
    for j in range(4, n + 1, 2):
        even_support[j - 1] = chain(2, j - 2) / chain(3, j - 1)
    return (
        MonomialIntegral(exponents=tuple(odd_support)),
        MonomialIntegral(exponents=tuple(even_support)),
    )


def integral_basis(sys: CyclicLVSystem) -> IntegralBasis:
    """Classify the system and collect every first integral it is known to have.

    n = 2 and even non-resonant systems report only the linear integral;
    odd n adds one monomial integral and even resonant n adds two.
    """
    linear = LinearIntegral(sys.n)
    if sys.n == 2:
        return IntegralBasis(Classification.N2, linear, ())
    if sys.n % 2 == 1:
        return IntegralBasis(Classification.ODD, linear, (exponents_odd(sys),))
    if resonance_condition(sys):
        return IntegralBasis(
            Classification.EVEN_RESONANT, linear, exponents_even(sys)
        )
    return IntegralBasis(Classification.EVEN_NONRESONANT, linear, ())


Integral = Union[LinearIntegral, MonomialIntegral]


def evaluate_integral(integral: Integral, state: Sequence) -> Union[Fraction, float]:
    """Value of an integral at a state.

    The linear integral is a plain sum. A monomial integral with integer
    exponents over a rational state is computed exactly; otherwise the
    state must be strictly positive and the value is exp(sum lam_i ln x_i)
    in floating point.
    """
    if isinstance(integral, LinearIntegral):
        if len(state) != integral.n:
            raise DimensionMismatch("state length does not match the integral")
        return sum(state)
    if len(state) != len(integral.exponents):
        raise DimensionMismatch("state length does not match the integral")
    lam = integral.exponents
    if all(e.denominator == 1 for e in lam):
        for e, x in zip(lam, state):
            if e < 0 and x == 0:
                raise DomainViolation(
                    "zero coordinate under a negative integer exponent"
                )
        if all(isinstance(x, (int, Fraction)) for x in state):
            out = Fraction(1)
            for e, x in zip(lam, state):
                if e != 0:
                    out *= Fraction(x) ** int(e)
            return out
        out_f = 1.0
        for e, x in zip(lam, state):
            if e != 0:
                out_f *= float(x) ** int(e)
        return out_f
    if any(x <= 0 for x in state):
        raise DomainViolation(
            "fractional exponents require a strictly positive state"
        )
    return math.exp(sum(float(e) * math.log(float(x)) for e, x in zip(lam, state) if e))
