"""Monomial first integrals of the cyclic system, exactly.

A product of coordinate powers prod x_i^(lambda_i) is a first integral
precisely when sum_i lambda_i K_i vanishes as a polynomial, where K_i is
row i of the structure matrix A of ``model.structure_matrix``. Collecting
the coefficient of x_i turns that into the cyclic linear system

    k_{i-1} lambda_{i-1} - k_i lambda_{i+1} = 0,    i = 1..n,

which links exponents two indices apart. Solved forward it is the
recurrence lambda_{j+2} = k_j lambda_j / k_{j+1}: from lambda_1 = 1,
lambda_j = (k1 k3 ... k_{j-2}) / (k2 k4 ... k_{j-1}) for odd j. For odd n
this walk goes on past xn through the even indices and closes for any
rates, so the solution space is one-dimensional; for even n a second walk
from lambda_2 = 1 covers the even indices, and each closes (comes back to
1) only under the resonance condition k1 k3 ... k_{n-1} = k2 k4 ... kn.
The system's matrix is the transpose of A, so the monomial integrals are
the vectors A sends to zero. ``integral_basis`` takes the exponents from
these walks. ``build_exponent_system`` writes the system as sparse rows,
and ``nullspace`` reads its solutions off their RREF from ``linalg.rref``,
one vector per free column: the independent route that checks the walks.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from math import gcd
from sys import version_info
from typing import TYPE_CHECKING, Sequence

from .model import CyclicLVSystem, InputError, _Record, structure_matrix

if TYPE_CHECKING:
    from . import linalg

__all__ = [
    "Classification",
    "MonomialIntegral",
    "IntegralBasis",
    "build_exponent_system",
    "nullspace",
    "integral_basis",
]

# Most bits, numerators and denominators together, one basis's exponents may
# take: alternating rates [2, 3, 2, ...], whose exponents grow as n^2, pass it
# at n = 7205, and the n = 1001 benchmark inputs take about 6e4.
MAX_EXPONENT_BITS = 1 << 25

# A Fraction from parts in lowest terms, denominator positive, without the gcd
# that Fraction(p, q) takes: past a few hundred bits that gcd costs more than
# the rest of a walk step (alternating rates at n = 7203: 0.03 s for the basis
# against 0.21 s). Both spellings are private to fractions: the _normalize
# flag before Python 3.12, _from_coprime_ints from it. Without the latter the
# public constructor gives the same value, only slower.
if version_info < (3, 12):
    _lowest_terms = partial(Fraction, _normalize=False)
else:
    _lowest_terms = getattr(Fraction, "_from_coprime_ints", Fraction)


class Classification(Enum):
    """How many monomial integrals the system admits, and why."""

    N2 = "N2"
    ODD = "ODD"
    EVEN_RESONANT = "EVEN_RESONANT"
    EVEN_NONRESONANT = "EVEN_NONRESONANT"


class MonomialIntegral(_Record):
    """Exponent vector of a first integral prod x_i^(exponents[i-1]).

    Not all exponents are zero, and the first nonzero exponent is 1 (any
    nonzero scalar multiple of a solution is again a solution, so the
    representative is normalized).
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: Sequence[Fraction]):
        exponents = tuple(exponents)
        first = next((e for e in exponents if e != 0), None)
        if first is None:
            raise InputError("exponent vector must not be identically zero")
        if first != 1:
            raise InputError("first nonzero exponent must be normalized to 1")
        super().__init__(exponents)


class IntegralBasis(_Record):
    """The classification, H1 = x1 + ... + xn as its dimension n, and 0..2 monomials."""

    __slots__ = ("classification", "linear", "monomials")

    def __init__(
        self,
        classification: Classification,
        linear: int,
        monomials: Sequence[MonomialIntegral],
    ):
        expected = {
            Classification.N2: 0,
            Classification.ODD: 1,
            Classification.EVEN_RESONANT: 2,
            Classification.EVEN_NONRESONANT: 0,
        }[classification]
        if len(monomials) != expected:
            raise InputError(
                f"{classification.name} basis must hold {expected} monomial "
                f"integrals, got {len(monomials)}"
            )
        super().__init__(classification, linear, tuple(monomials))


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

    One vector per free column f of the rows' RREF: 1 at f, minus each pivot
    row's entry at f at its pivot column, and 0 elsewhere, divided by its
    first nonzero entry. The vectors are sorted by that entry's index; an
    empty list means the nullspace is trivial. linalg loads on the first
    call, so integrals never imports it.
    """
    from . import linalg

    n = len(rows)
    reduced, pivots = linalg.rref(rows, n)
    basis = []
    for f in sorted(set(range(n)).difference(pivots)):
        entries = {c: -row[f] for row, c in zip(reduced, pivots) if f in row}
        entries[f] = Fraction(1)
        lead = min(entries)
        vector = [Fraction(0)] * n
        for j, e in entries.items():
            vector[j] = e / entries[lead]
        basis.append((lead, tuple(vector)))
    return [vector for _, vector in sorted(basis, key=lambda pair: pair[0])]


def _walk(
    k: Sequence[tuple[int, int]], start: int, bits: int = 0
) -> tuple[MonomialIntegral, bool, int]:
    """Exponents walked from lambda = 1 at coordinate start (0-based), closure, and bits.

    k holds each rate as its reduced (numerator, denominator) int pair. The
    walk steps j -> j + 2 (mod n) with lambda_{j+2} = k_j lambda_j / k_{j+1}
    until it is back at start, and closes when its value is back at 1: always
    for odd n, and at resonance for even n. The value is a pair (p, q) in
    lowest terms, q > 0, and each step multiplies it by k_j / k_{j+1} in
    lowest terms, cancelling as Fraction's product does, by gcds of a large
    part with a rate-sized one only. Each value becomes a Fraction once, as
    it is stored, with no gcd. bits adds each exponent's numerator and
    denominator bit lengths to the bits passed in; past MAX_EXPONENT_BITS it
    raises InputError before the next product.
    """
    n = len(k)
    lam = [Fraction(0)] * n
    i, p, q = start, 1, 1
    while True:
        lam[i] = _lowest_terms(p, q)
        bits += p.bit_length() + q.bit_length()
        if bits > MAX_EXPONENT_BITS:
            raise InputError(f"the integrals' exponents take more than {MAX_EXPONENT_BITS} bits")
        (a, b), (c, d) = k[i], k[(i + 1) % n]
        r, s = a * d, b * c
        g = gcd(r, s) if s > 0 else -gcd(r, s)
        r, s = r // g, s // g
        # p/q and r/s are in lowest terms, so the product's only common
        # factors are those of p with s and of r with q
        g, h = gcd(p, s), gcd(r, q)
        p, q = p // g * (r // h), q // h * (s // g)
        i = (i + 2) % n
        if i == start:
            return MonomialIntegral(exponents=tuple(lam)), p == q, bits


def integral_basis(sys: CyclicLVSystem) -> IntegralBasis:
    """Classify the system and collect every first integral it is known to have.

    Every basis holds the linear integral x1 + ... + xn. Odd n adds one
    monomial integral and even n at resonance, k1 k3 ... k_{n-1} ==
    k2 k4 ... kn exactly, adds two; n = 2 and even n off resonance add none.
    The exponents walk lambda_{j+2} = k_j lambda_j / k_{j+1} from lambda_1 = 1,
    and from lambda_2 = 1 too when even n's first walk closes (resonance).
    Exponents of more than MAX_EXPONENT_BITS bits in all raise InputError.
    """
    n = sys.n
    if n == 2:
        return IntegralBasis(Classification.N2, n, ())
    k = [(r.numerator, r.denominator) for r in sys.rates]
    odd_chain, closes, bits = _walk(k, 0)
    if n % 2 == 1:
        return IntegralBasis(Classification.ODD, n, (odd_chain,))
    if not closes:
        return IntegralBasis(Classification.EVEN_NONRESONANT, n, ())
    even_chain, _, _ = _walk(k, 1, bits)
    return IntegralBasis(Classification.EVEN_RESONANT, n, (odd_chain, even_chain))
