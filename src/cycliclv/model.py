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

from dataclasses import dataclass, field
from fractions import Fraction
from decimal import Decimal
from itertools import compress
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
    "LinearForm",
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
    """Dimension n >= 2 and the n nonzero rational rate constants.

    This is the one place rates are validated; every constructor path,
    ``make_system`` and the CLI spec loader included, ends here.
    """

    n: int
    rates: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 2 or len(self.rates) < 2:
            raise DimensionTooSmall(f"need n >= 2, got n={self.n}")
        if len(self.rates) != self.n:
            raise DimensionMismatch(
                f"n={self.n} but {len(self.rates)} rates were supplied"
            )
        for i, k in enumerate(self.rates):
            if k == 0:
                raise ZeroParameter(i + 1)


@dataclass(frozen=True)
class LinearForm:
    """Homogeneous degree-1 polynomial sum_j coeffs[j] * x_{j+1}.

    ``terms`` holds the (j, coeffs[j]) pairs with a nonzero coefficient, so
    evaluating a cofactor, which has at most two, costs O(1) rather than O(n).
    """

    coeffs: tuple[Fraction, ...]
    terms: tuple[tuple[int, Fraction], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        c = self.coeffs
        # compress keeps the indices whose coefficient is truthy, i.e. nonzero
        terms = tuple((j, c[j]) for j in compress(range(len(c)), c))
        object.__setattr__(self, "terms", terms)

    def evaluate(self, state: Sequence) -> object:
        if len(state) != len(self.coeffs):
            raise DimensionMismatch(
                f"form has {len(self.coeffs)} coefficients, state has {len(state)}"
            )
        return sum(c * state[j] for j, c in self.terms)


def make_system(k: Sequence[RationalLike]) -> CyclicLVSystem:
    """Convert rate parameters exactly and build the system.

    CyclicLVSystem validates the rates: it raises DimensionTooSmall for
    fewer than two and ZeroParameter (with the 1-based position) for a zero.
    """
    rates = tuple(as_fraction(v) for v in k)
    return CyclicLVSystem(n=len(rates), rates=rates)


Term = tuple[int, Fraction]


def _structure_row(sys: CyclicLVSystem, i0: int) -> tuple[Term, Term]:
    """Row i0 (0-based) of the structure matrix; see ``structure_matrix``."""
    n = sys.n
    k = sys.rates
    return ((i0 + 1) % n, k[i0]), ((i0 - 1) % n, -k[i0 - 1])


def structure_matrix(sys: CyclicLVSystem) -> tuple[tuple[Term, Term], ...]:
    """The n rows of the structure matrix A, each as two (column, entry) terms.

    With u = log x the system is u' = A e^u for this constant antisymmetric
    A. Row i holds (i+1, k_i) then (i-1, -k_{i-1}), cyclically and 0-based,
    in the order of the field's terms; it is the cofactor K_i. The terms
    stay unsummed: for n = 2 both land on one column, where a consumer that
    needs the entry adds them and the float right-hand side keeps two products.
    """
    return tuple(_structure_row(sys, i0) for i0 in range(sys.n))


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


def cofactor(sys: CyclicLVSystem, i: int) -> LinearForm:
    """Cofactor of the invariant hyperplane x_i = 0 (1-based i).

    The hyperplane satisfies X(x_i) = K_i * x_i, where K_i is row i of the
    structure matrix, k_i x_{i+1} - k_{i-1} x_{i-1}. For n = 2 both terms
    hit the same coordinate and are summed.
    """
    n = sys.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"coordinate index {i} outside 1..{n}")
    coeffs = [Fraction(0)] * n
    for j, c in _structure_row(sys, i - 1):
        coeffs[j] += c
    return LinearForm(coeffs=tuple(coeffs))


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
    form: LinearForm, i0: int
) -> dict[tuple[int, int], Fraction]:
    """Quadratic monomial coefficients of x_{i0+1} * form (0-based i0)."""
    terms: dict[tuple[int, int], Fraction] = {}
    for j0, c in enumerate(form.coeffs):
        if c != 0:
            key = tuple(sorted((i0, j0)))
            terms[key] = terms.get(key, Fraction(0)) + c
    return {key: c for key, c in terms.items() if c != 0}


def verify_hyperplane_invariance(
    sys: CyclicLVSystem, i: int, cof: LinearForm | None = None
) -> bool:
    """Exact symbolic check that X(x_i) - K_i * x_i is the zero polynomial.

    Always true for this family; kept as a regression guard on the cyclic
    index conventions. Passing an explicit cofactor lets callers probe the
    check with a corrupted form.
    """
    n = sys.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"coordinate index {i} outside 1..{n}")
    if cof is None:
        cof = cofactor(sys, i)
    return _row_quadratic(sys, i - 1) == _form_times_coordinate(cof, i - 1)
