"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions (or ints).  Everything is computed
exactly; there are no tolerances anywhere.  Every elimination is a sequence
of one step, ``_insert``, which adds a row to a reduced row echelon form.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]


def _reduce(rows: Sequence[List[Fraction]], pivots: Sequence[int], v: Sequence) -> List[Fraction]:
    """v minus its components along echelon rows with the given pivots."""
    w = [Fraction(c) for c in v]
    for row, pc in zip(rows, pivots):
        f = w[pc]
        if f:
            w = [a - f * b for a, b in zip(w, row)]
    return w


def _insert(rows: List[List[Fraction]], pivots: List[int], v: Sequence) -> None:
    """The one echelon step: reduce v by the rows, scale it to pivot 1, clear
    its pivot column from the other rows, and insert it in pivot order.

    ``rows``/``pivots`` stay a reduced row echelon form of the span; the
    lists are updated in place, the row lists themselves are replaced.
    """
    w = _reduce(rows, pivots, v)
    lead = next((i for i, c in enumerate(w) if c), None)
    if lead is None:
        return
    lv = w[lead]
    if lv != 1:
        w = [c / lv for c in w]
    for k, row in enumerate(rows):
        f = row[lead]
        if f:
            rows[k] = [a - f * b for a, b in zip(row, w)]
    pos = bisect_left(pivots, lead)
    rows.insert(pos, w)
    pivots.insert(pos, lead)


def rref(m: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows: List[List[Fraction]] = []
    pivots: List[int] = []
    for v in m:
        _insert(rows, pivots, v)
    return rows, pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Sequence[Sequence]) -> List[Vector]:
    """Basis of the right null space {v : m v = 0}; exact."""
    if not m:
        return []
    ncols = len(m[0])
    echelon, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis: List[Vector] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -echelon[ri][fc]
        basis.append(tuple(v))
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return () if not any(b) else None
    ncols = len(m[0])
    echelon, pivots = rref([list(row) + [t] for row, t in zip(m, b)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = echelon[ri][ncols]
    return tuple(x)


class Subspace:
    """A subspace of Q^n held in reduced row echelon form.

    Supports membership, reduction modulo the space, and dimension; used for
    graded pieces of ideals and for limit computations.
    """

    def __init__(self, vectors: Sequence[Sequence], ncols: int):
        self.ncols = ncols
        self.rows, self.pivots = rref(vectors)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Sequence) -> List[Fraction]:
        """Normal form of v modulo the subspace (zero iff v is a member)."""
        return _reduce(self.rows, self.pivots, v)

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def extended(self, vectors: Sequence[Sequence]) -> "Subspace":
        s = Subspace([], self.ncols)
        s.rows, s.pivots = list(self.rows), list(self.pivots)
        for v in vectors:
            _insert(s.rows, s.pivots, v)
        return s
