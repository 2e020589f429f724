"""Monomial first integrals of the cyclic system, exactly.

A product of coordinate powers prod x_i^(lambda_i) is a first integral
precisely when sum_i lambda_i K_i vanishes as a polynomial, where K_i is
row i of the structure matrix A of ``model.structure_matrix``. Collecting
the coefficient of x_i turns that into the cyclic linear system

    k_{i-1} lambda_{i-1} - k_i lambda_{i+1} = 0,    i = 1..n,

which links exponents two indices apart. For odd n the chain closes into a
single cycle and the solution space is one-dimensional; for even n it
splits into an odd-index and an even-index chain, each of which closes only
under the resonance condition k1 k3 ... k_{n-1} = k2 k4 ... kn. The
system's matrix is the transpose of A, so the monomial integrals are the
vectors A sends to zero. ``integral_basis`` classifies the system and
takes the exponents from closed-form chains; ``build_exponent_system`` and
``nullspace`` solve the system by exact elimination, the independent route
that checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .model import CyclicLVSystem, InputError, structure_matrix

__all__ = [
    "Classification",
    "MonomialIntegral",
    "LinearIntegral",
    "IntegralBasis",
    "build_exponent_system",
    "nullspace",
    "integral_basis",
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
        raise InputError("exponent system requires n >= 3")
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


def _odd_exponents(chain: Callable[[int, int], Fraction], n: int) -> MonomialIntegral:
    """Closed-form exponents of the single monomial integral for odd n >= 3.

    With the first exponent set to 1:

        lambda_j = (k1 k3 ... k_{j-2}) / (k2 k4 ... k_{j-1})     j >= 3 odd,
        lambda_j = (k_{j+1} k_{j+3} ... kn) / (kj k_{j+2} ... k_{n-1})
                                                                 j >= 2 even.
    """
    lam = [Fraction(1)]
    for j in range(2, n + 1):
        if j % 2 == 1:
            lam.append(chain(1, j - 2) / chain(2, j - 1))
        else:
            lam.append(chain(j + 1, n) / chain(j, n - 1))
    return MonomialIntegral(exponents=tuple(lam))


def _even_exponents(
    chain: Callable[[int, int], Fraction], n: int
) -> tuple[MonomialIntegral, MonomialIntegral]:
    """Closed-form exponent pair for even n >= 4 under the resonance condition.

    The first integral is supported on odd coordinates:

        lambda_1 = 1,
        lambda_j = (k_{j+1} k_{j+3} ... kn) / (kj k_{j+2} ... k_{n-1})
                                                                j >= 3 odd,

    the second on even coordinates:

        lambda_2 = 1,
        lambda_j = (k2 k4 ... k_{j-2}) / (k3 k5 ... k_{j-1})    j >= 4 even.
    """
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

    Every basis holds the linear integral x1 + ... + xn. Odd n adds one
    monomial integral and even n at resonance, k1 k3 ... k_{n-1} ==
    k2 k4 ... kn exactly, adds two; n = 2 and even n off resonance add none.
    """
    n = sys.n
    linear = LinearIntegral(n)
    if n == 2:
        return IntegralBasis(Classification.N2, linear, ())
    chain = _chain_products(sys.rates)
    if n % 2 == 1:
        return IntegralBasis(Classification.ODD, linear, (_odd_exponents(chain, n),))
    if chain(1, n - 1) == chain(2, n):
        return IntegralBasis(
            Classification.EVEN_RESONANT, linear, _even_exponents(chain, n)
        )
    return IntegralBasis(Classification.EVEN_NONRESONANT, linear, ())
