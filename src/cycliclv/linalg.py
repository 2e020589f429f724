"""Exact Gaussian elimination over Fraction: RREF, rank, nullspace.

Entries are arbitrary-precision rationals, so no pivoting heuristics are
needed; the first nonzero candidate in each column is taken as pivot,
which keeps the elimination fully deterministic.

Rows are eliminated in sparse form, as dicts {column: nonzero entry}: a
forward pass takes the pivots in column order and clears each pivot column
below its pivot, then a backward pass clears each pivot column above its
pivot, last pivot first, so every row it subtracts is already reduced and
carries only its pivot and free columns. The cost then follows the nonzeros
and their fill rather than the full matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Sequence

Row = list[Fraction]

__all__ = ["rref", "rank", "nullspace_basis"]

_ZERO = Fraction(0)


def _subtract_multiple(
    target: dict[int, Fraction], pivot: dict[int, Fraction], c: int
) -> None:
    """target -= target[c] * pivot, for a pivot row whose entry at c is 1."""
    f = target[c]
    for j, v in pivot.items():
        updated = target.get(j, _ZERO) - f * v
        if updated:
            target[j] = updated
        else:
            del target[j]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form. Returns (matrix, pivot column indices)."""
    # compress keeps the columns whose entry is truthy, i.e. nonzero
    m = [{j: Fraction(row[j]) for j in compress(range(len(row)), row)} for row in rows]
    nrows = len(m)
    ncols = len(rows[0]) if m else 0
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
    return [_dense(row, ncols) for row in m], pivots


def _dense(row: dict[int, Fraction], ncols: int) -> Row:
    out = [_ZERO] * ncols
    for j, v in row.items():
        out[j] = v
    return out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace_basis(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    """Basis of {v : M v = 0}, one vector per free column of the RREF.

    The vector for free column f has a 1 there, zeros at the other free
    columns, and the negated RREF entries at the pivot columns.
    """
    if not rows:
        return []
    m, pivots = rref(rows)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Row] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r_i, c in enumerate(pivots):
            v[c] = -m[r_i][f]
        basis.append(v)
    return basis
