"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions (or ints).  Everything is computed
exactly; there are no tolerances anywhere.  Every elimination is a sequence
of one step, ``_insert``, which adds a row to a reduced row echelon form held
fraction-free: each row is the unique primitive integer multiple, with a
positive pivot, of its reduced row over Q, and rows combine as a*w - b*row.
A ``Fraction`` is made once per entry, only where rows leave the kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]


def _reduce(rows: Sequence[List[int]], pivots: Sequence[int], v: Sequence) -> Tuple[List[int], int]:
    """(r, m): integral r, zero on every pivot column, with r / m the exact
    residue of v modulo the rows."""
    m = lcm(*(c.denominator for c in v))
    w = [c.numerator * (m // c.denominator) for c in v]
    for row, pc in zip(rows, pivots):
        f = w[pc]
        if f:
            g = gcd(f, row[pc])
            a, b = row[pc] // g, f // g
            m *= a
            w = [a * x - b * y for x, y in zip(w, row)]
    return w, m


def _primitive(w: List[int], lead: int) -> List[int]:
    """w divided by its content, signed so that w[lead] > 0."""
    g = gcd(*w) if w[lead] > 0 else -gcd(*w)
    return w if g == 1 else [x // g for x in w]


def _insert(rows: List[List[int]], pivots: List[int], v: Sequence) -> None:
    """The one echelon step: reduce v by the rows, make it primitive, clear
    its pivot column from the other rows, and insert it in pivot order.  The
    lists are updated in place; the row lists themselves are replaced."""
    w = _reduce(rows, pivots, v)[0]
    lead = next((i for i, c in enumerate(w) if c), None)
    if lead is None:
        return
    w = _primitive(w, lead)
    lv = w[lead]
    for k, row in enumerate(rows):
        f = row[lead]
        if f:
            g = gcd(f, lv)
            a, b = lv // g, f // g
            rows[k] = _primitive([a * x - b * y for x, y in zip(row, w)], pivots[k])
    pos = bisect_left(pivots, lead)
    rows.insert(pos, w)
    pivots.insert(pos, lead)


def _echelon(m: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    rows, pivots = [], []
    for v in m:
        _insert(rows, pivots, v)
    return rows, pivots


def _rational(rows: Sequence[List[int]], pivots: Sequence[int]) -> List[List[Fraction]]:
    return [[Fraction(c, row[pc]) for c in row] for row, pc in zip(rows, pivots)]


def rref(m: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows, pivots = _echelon(m)
    return _rational(rows, pivots), pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(_echelon(m)[1])


def kernel_basis(m: Sequence[Sequence]) -> List[Vector]:
    """Basis of the right null space {v : m v = 0}; exact."""
    if not m:
        return []
    ncols = len(m[0])
    echelon, pivots = _echelon(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis: List[Vector] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(echelon, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return () if not any(b) else None
    ncols = len(m[0])
    echelon, pivots = _echelon([list(row) + [t] for row, t in zip(m, b)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(echelon, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return tuple(x)


class Subspace:
    """A subspace of Q^n held in (integer) reduced row echelon form.

    Supports membership, reduction modulo the space, and dimension; used for
    graded pieces of ideals and for limit computations.
    """

    def __init__(self, vectors: Sequence[Sequence], ncols: int):
        self.ncols = ncols
        self._rows, self.pivots = _echelon(vectors)

    @property
    def rows(self) -> List[List[Fraction]]:
        return _rational(self._rows, self.pivots)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Sequence) -> List[Fraction]:
        """Exact normal form of v modulo the subspace (zero iff v is a member)."""
        r, m = _reduce(self._rows, self.pivots, v)
        return [Fraction(c, m) for c in r]

    def contains(self, v: Sequence) -> bool:
        return not any(_reduce(self._rows, self.pivots, v)[0])

    def extended(self, vectors: Sequence[Sequence]) -> "Subspace":
        s = Subspace([], self.ncols)
        s._rows, s.pivots = list(self._rows), list(self.pivots)
        for v in vectors:
            _insert(s._rows, s.pivots, v)
        return s
