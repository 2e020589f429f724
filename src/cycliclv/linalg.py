"""Exact Gaussian elimination over Fraction: RREF and nullspace.

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

from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Sequence

Row = dict[int, Fraction]
Rows = Sequence[Mapping[int, Fraction]]

__all__ = ["rref", "nullspace_basis"]

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
    # column -> every row that holds it, and perhaps rows whose entry there
    # has since cancelled; rows are named by input index and swapped by
    # position, so the pivot taken is the first candidate in position order
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(m):
        for j in row:
            holders[j].add(i)
    order = list(range(nrows))  # the row at each position
    where = list(range(nrows))  # the position of each row
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        below = [i for i in holders.pop(c, ()) if where[i] >= r and c in m[i]]
        if not below:
            continue
        p = min(below, key=where.__getitem__)
        q = order[r]
        order[r], order[where[p]] = p, q
        where[q], where[p] = where[p], r
        pv = m[p][c]
        m[p] = pivot = {j: v / pv for j, v in m[p].items()}
        for i in below:
            if i != p:
                _subtract_multiple(m[i], pivot, c)
                for j in pivot:
                    holders[j].add(i)
        pivots.append(c)
        r += 1
    m = [m[i] for i in order]
    # each row subtracted here already holds only its own pivot and free
    # columns, so no pivot column fills in and one index serves the pass
    above: dict[int, list[int]] = {c: [] for c in pivots}
    for i in range(r):
        for j in m[i]:
            if j in above and j != pivots[i]:
                above[j].append(i)
    for k in range(r - 1, 0, -1):
        c = pivots[k]
        for i in above[c]:
            _subtract_multiple(m[i], m[k], c)
    return m, pivots


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
