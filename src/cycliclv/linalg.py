"""Exact Gaussian elimination over Fraction: the reduced row echelon form.

Entries are arbitrary-precision rationals, so no pivoting heuristics are
needed. A matrix has one RREF whatever nonzero pivot each step takes, so any
row that holds the column and no pivot yet will do; the lowest-numbered one
is taken, which keeps the elimination fully deterministic.

Matrices are given and returned as sparse rows, dicts {column: nonzero
entry}, with the column count passed alongside. A forward pass takes the
pivots in column order and clears each pivot column in the rows that hold no
pivot yet, then a backward pass clears each pivot column above its pivot,
last pivot first, so every row it subtracts is already reduced and carries
only its pivot and free columns. The cost then follows the nonzeros and
their fill rather than the full matrix.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Sequence

Row = dict[int, Fraction]
Rows = Sequence[Mapping[int, Fraction]]

__all__ = ["rref"]


def _subtract_multiple(target: Row, pivot: Row, c: int) -> None:
    """target -= target[c] * pivot, for a pivot row whose entry at c is 1."""
    f = target[c]
    for j, v in pivot.items():
        updated = target.get(j, 0) - f * v
        if updated:
            target[j] = updated
        else:
            del target[j]


def rref(rows: Rows, ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows over columns 0..ncols-1.

    Returns (rows, pivot column indices): the pivot rows in pivot order, then
    the empty rows. The input is not modified, and the returned rows hold
    only their nonzero entries.
    """
    m = [{j: Fraction(v) for j, v in row.items() if v} for row in rows]
    # column -> every row that holds it, and perhaps rows whose entry there
    # has since cancelled or that have since taken a pivot
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(m):
        for j in row:
            holders[j].add(i)
    unpivoted = set(range(len(m)))
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not unpivoted:
            break
        below = [i for i in holders.pop(c, ()) if i in unpivoted and c in m[i]]
        if not below:
            continue
        p = min(below)
        unpivoted.remove(p)
        pv = m[p][c]
        m[p] = pivot = {j: v / pv for j, v in m[p].items()}
        for i in below:
            if i != p:
                _subtract_multiple(m[i], pivot, c)
        # column c is cleared from every row but p, so its holders are done
        for j in pivot:
            if j != c:
                holders[j].update(below)
        pivot_rows.append(p)
        pivots.append(c)
    m = [m[i] for i in pivot_rows] + [m[i] for i in unpivoted]
    # each row subtracted here already holds only its own pivot and free
    # columns, so no pivot column fills in and one index serves the pass
    above: dict[int, list[int]] = {c: [] for c in pivots}
    for i, c in enumerate(pivots):
        for j in m[i]:
            if j in above and j != c:
                above[j].append(i)
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        for i in above[c]:
            _subtract_multiple(m[i], m[k], c)
    return m, pivots
