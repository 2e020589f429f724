"""Exact Gaussian elimination over Fraction: RREF, rank, nullspace.

Entries are arbitrary-precision rationals, so no pivoting heuristics are
needed; the first nonzero candidate in each column is taken as pivot,
which keeps the elimination fully deterministic.

Matrices are given and returned as sparse rows, dicts {column: nonzero
entry}, with the column count passed alongside; only the nullspace vectors
come back dense. A forward pass takes the pivots in column order and clears
each pivot column below its pivot, then a backward pass clears each pivot
column above its pivot, last pivot first, so every row it subtracts is
already reduced and carries only its pivot and free columns. The cost then
follows the nonzeros and their fill rather than the full matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Row = dict[int, Fraction]
Rows = Sequence[Mapping[int, Fraction]]

__all__ = ["rref", "rank", "nullspace_basis"]

_ZERO = Fraction(0)


def _subtract_multiple(target: Row, pivot: Row, c: int) -> None:
    """target -= target[c] * pivot, for a pivot row whose entry at c is 1."""
    f = target[c]
    for j, v in pivot.items():
        updated = target.get(j, _ZERO) - f * v
        if updated:
            target[j] = updated
        else:
            del target[j]


def rref(rows: Rows, ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows over columns 0..ncols-1.

    Returns (rows, pivot column indices). The input is not modified, and
    the returned rows hold only their nonzero entries.
    """
    m = [{j: Fraction(v) for j, v in row.items() if v} for row in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if c in m[i]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = pivot = {j: v / pv for j, v in m[r].items()}
        for i in range(r + 1, nrows):
            if c in m[i]:
                _subtract_multiple(m[i], pivot, c)
        pivots.append(c)
        r += 1
    for k in range(r - 1, 0, -1):
        c = pivots[k]
        for i in range(k):
            if c in m[i]:
                _subtract_multiple(m[i], m[k], c)
    return m, pivots


def rank(rows: Rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace_basis(rows: Rows, ncols: int) -> list[list[Fraction]]:
    """Basis of {v : M v = 0}, one dense vector per free column of the RREF.

    The vector for free column f has a 1 there, zeros at the other free
    columns, and the negated RREF entries at the pivot columns.
    """
    m, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row.get(f, _ZERO)
        basis.append(v)
    return basis
