"""Cyclic Lotka-Volterra system definition and invariant-hyperplane cofactors.

The family under study is the n-dimensional cyclic system

    dx_i/dt = x_i * (k_i x_{i+1} - k_{i-1} x_{i-1}),    i = 1..n,

with cyclic index convention x_0 = x_n, x_{n+1} = x_1, k_0 = k_n and
nonzero rate constants k_i. Rates are exact rationals throughout; the
classification of first integrals is discontinuous in the rates, so
floating-point parameters would misclassify.

For n = 2 both neighbor terms of a row land on the same coordinate and are
summed, e.g. dx1/dt = (k1 - k2) x1 x2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from decimal import Decimal
from typing import Sequence, Union

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    ZeroParameter,
)

RationalLike = Union[int, str, Fraction, Decimal]

__all__ = [
    "CyclicLVSystem",
    "as_fraction",
    "make_system",
    "structure_matrix",
    "vector_field",
    "cofactor",
    "verify_hyperplane_invariance",
]


def as_fraction(value: RationalLike) -> Fraction:
    """Convert an exact-rational input to Fraction.

    Accepts integers, Fractions, Decimals, and strings holding an integer,
    an exact decimal literal ("0.25" -> 1/4), or a "p/q" quotient. Floats
    are rejected: a float has already lost the decimal literal, so the
    caller must pass the literal as a string to convert it exactly.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational parameters")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, Decimal)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(
            f"refusing to convert float {value!r}; pass the decimal literal as a "
            "string (e.g. '0.25') for an exact conversion"
        )
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class CyclicLVSystem:
    """The n >= 2 nonzero rational rate constants; n is their count.

    This is the one place rates are validated; every constructor path,
    ``make_system`` and the CLI spec loader included, ends here.
    """

    rates: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.rates)

    def __post_init__(self):
        if self.n < 2:
            raise DimensionTooSmall(f"need n >= 2, got n={self.n}")
        for i, k in enumerate(self.rates):
            if k == 0:
                raise ZeroParameter(i + 1)


def make_system(k: Sequence[RationalLike]) -> CyclicLVSystem:
    """Convert rate parameters exactly and build the system.

    CyclicLVSystem validates the rates: it raises DimensionTooSmall for
    fewer than two and ZeroParameter (with the 1-based position) for a zero.
    """
    return CyclicLVSystem(tuple(as_fraction(v) for v in k))


Term = tuple[int, Fraction]


def cofactor(sys: CyclicLVSystem, i: int) -> tuple[Term, Term]:
    """Cofactor K_i of the invariant hyperplane x_i = 0 (1-based i).

    The hyperplane satisfies X(x_i) = K_i * x_i, where
    K_i = k_i x_{i+1} - k_{i-1} x_{i-1} is row i of the structure matrix.
    It is returned as that row's two (0-based column, entry) terms, the
    x_{i+1} term first as in the field; for n = 2 they share a column.
    """
    n = sys.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"coordinate index {i} outside 1..{n}")
    k = sys.rates
    i0 = i - 1
    return ((i0 + 1) % n, k[i0]), ((i0 - 1) % n, -k[i0 - 1])


def structure_matrix(sys: CyclicLVSystem) -> tuple[tuple[Term, Term], ...]:
    """The n rows of the structure matrix A, each as two (column, entry) terms.

    With u = log x the system is u' = A e^u for this constant antisymmetric
    A. Row i is the cofactor K_i (see ``cofactor``). The terms stay
    unsummed: for n = 2 both land on one column, where a consumer that needs
    the entry adds them and the float right-hand side keeps two products.
    """
    return tuple(cofactor(sys, i) for i in range(1, sys.n + 1))


def vector_field(sys: CyclicLVSystem, state: Sequence) -> list:
    """Right-hand side of the system at a state.

    Component i is x_i * (k_i x_{i+1} - k_{i-1} x_{i-1}) with cyclic
    indices, read off row i of the structure matrix. Arithmetic follows the
    state's scalar type, so Fraction states give exact Fraction output and
    float states give floats.
    """
    n = sys.n
    if len(state) != n:
        raise DimensionMismatch(f"state has length {len(state)}, system has n={n}")
    x = state
    return [
        x[i] * (c1 * x[j1] + c2 * x[j2])
        for i, ((j1, c1), (j2, c2)) in enumerate(structure_matrix(sys))
    ]


def _row_quadratic(sys: CyclicLVSystem, i0: int) -> dict[tuple[int, int], Fraction]:
    """Quadratic monomial coefficients of row i0 (0-based) of the field.

    Row i expands to k_i x_i x_{i+1} - k_{i-1} x_{i-1} x_i; keys are sorted
    0-based coordinate pairs. Built straight from the index rules so it can
    serve as an independent expansion when cross-checking cofactors.
    """
    n = sys.n
    k = sys.rates
    terms: dict[tuple[int, int], Fraction] = {}
    for key, coeff in (
        (tuple(sorted((i0, (i0 + 1) % n))), k[i0]),
        (tuple(sorted(((i0 - 1) % n, i0))), -k[(i0 - 1) % n]),
    ):
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {key: c for key, c in terms.items() if c != 0}


def _form_times_coordinate(
    form: Sequence[Term], i0: int
) -> dict[tuple[int, int], Fraction]:
    """Quadratic monomial coefficients of x_{i0+1} * form (0-based i0)."""
    terms: dict[tuple[int, int], Fraction] = {}
    for j0, c in form:
        key = tuple(sorted((i0, j0)))
        terms[key] = terms.get(key, Fraction(0)) + c
    return {key: c for key, c in terms.items() if c != 0}


def verify_hyperplane_invariance(
    sys: CyclicLVSystem, i: int, cof: Sequence[Term] | None = None
) -> bool:
    """Exact symbolic check that X(x_i) - K_i * x_i is the zero polynomial.

    Always true for this family; kept as a regression guard on the cyclic
    index conventions. Passing explicit (column, entry) terms as the
    cofactor lets callers probe the check with a corrupted form.
    """
    n = sys.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"coordinate index {i} outside 1..{n}")
    if cof is None:
        cof = cofactor(sys, i)
    return _row_quadratic(sys, i - 1) == _form_times_coordinate(cof, i - 1)
