"""Exact elimination cross-checked against an independent implementation."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from cycliclv import build_exponent_system, integral_basis, linalg
from helpers import dense, random_system, rank, resonant_system, sparse


def _random_matrix(rng, nrows, ncols, singularish=False, density=1.0):
    """Entries in [-5, 5]; below density 1 each is kept with that probability."""
    m = [
        [Fraction(rng.randint(-5, 5)) for _ in range(ncols)] for _ in range(nrows)
    ]
    if density < 1:
        m = [[v if rng.random() < density else Fraction(0) for v in row] for row in m]
    if singularish and nrows >= 2:
        # force a dependent row so the nullspace is nontrivial
        m[-1] = [2 * v for v in m[0]]
    return m


def _rref(m):
    """linalg.rref of a dense matrix, read back dense; no zero is stored."""
    ncols = len(m[0])
    reduced, pivots = linalg.rref(sparse(m), ncols)
    assert all(v != 0 for row in reduced for v in row.values())
    return dense(reduced, ncols), pivots


def _rank(m):
    return rank(sparse(m), len(m[0]))


def _nullspace_basis(m):
    return linalg.nullspace_basis(sparse(m), len(m[0]))


def test_rref_identity_passthrough():
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    reduced, pivots = _rref(m)
    assert reduced == m
    assert pivots == [0, 1]


def test_input_rows_left_unchanged():
    rows = sparse([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]])
    before = [dict(row) for row in rows]
    linalg.rref(rows, 2)
    assert rows == before


def test_no_rows_leave_every_column_free():
    assert linalg.nullspace_basis([], 2) == [[1, 0], [0, 1]]
    assert linalg.nullspace_basis([{}], 2) == [[1, 0], [0, 1]]


def test_rank_frozen():
    m = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert _rank(m) == 2


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    for trial in range(40):
        nrows = rng.randint(2, 6)
        ncols = rng.randint(2, 6)
        m = _random_matrix(rng, nrows, ncols, singularish=trial % 2 == 0)
        for v in _nullspace_basis(m):
            assert all(
                sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m
            )


def test_rank_matches_sympy():
    rng = random.Random(5)
    for trial in range(30):
        nrows = rng.randint(2, 6)
        ncols = rng.randint(2, 6)
        m = _random_matrix(rng, nrows, ncols, singularish=trial % 3 == 0)
        assert _rank(m) == sp.Matrix(m).rank()


def test_nullspace_span_matches_sympy():
    rng = random.Random(9)
    for trial in range(30):
        nrows = rng.randint(2, 6)
        ncols = rng.randint(2, 6)
        m = _random_matrix(rng, nrows, ncols, singularish=trial % 2 == 0)
        mine = _nullspace_basis(m)
        theirs = sp.Matrix(m).nullspace()
        assert len(mine) == len(theirs)
        if mine:
            # same span: stacking both bases must not raise the rank
            stacked = [list(v) for v in mine]
            stacked += [
                [Fraction(str(e)) for e in v] for v in theirs
            ]
            assert _rank(stacked) == len(mine)


def _sympy_rref(m):
    reduced, pivots = sp.Matrix(m).rref()
    rows = [[Fraction(str(e)) for e in reduced.row(i)] for i in range(reduced.rows)]
    return rows, list(pivots)


# square, wide and tall, including single rows and columns
SHAPES = [(1, 1), (1, 6), (2, 7), (3, 9), (4, 4), (6, 6), (6, 1), (7, 2), (9, 3)]


def test_rref_matches_sympy_exactly():
    rng = random.Random(11)
    for nrows, ncols in SHAPES:
        for density in (1.0, 0.5, 0.2):
            for blanked in (False, True):
                m = _random_matrix(rng, nrows, ncols, density=density)
                if blanked:
                    m[rng.randrange(nrows)] = [Fraction(0)] * ncols
                    col = rng.randrange(ncols)
                    for row in m:
                        row[col] = Fraction(0)
                assert _rref(m) == _sympy_rref(m), m


@pytest.mark.parametrize(
    "n, make, classification",
    [
        (41, random_system, "ODD"),
        # resonance is a condition on even n only
        (40, resonant_system, "EVEN_RESONANT"),
        (40, random_system, "EVEN_NONRESONANT"),
    ],
)
def test_rref_matches_sympy_on_cyclic_exponent_matrix(n, make, classification):
    sys = make(random.Random(n), n)
    assert integral_basis(sys).classification.name == classification
    rows = build_exponent_system(sys)
    reduced, pivots = linalg.rref(rows, n)
    assert (dense(reduced, n), pivots) == _sympy_rref(dense(rows, n))


def test_deterministic():
    m = [
        [Fraction(0), Fraction(1), Fraction(-1)],
        [Fraction(0), Fraction(2), Fraction(-2)],
    ]
    assert _nullspace_basis(m) == _nullspace_basis(m)
    assert _nullspace_basis(m) == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
