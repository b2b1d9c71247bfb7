"""Monomial orders on exponent tuples, and the one-integer key they define.

A monomial is a plain tuple of non-negative integer exponents, one per ring
variable, with variables listed from greatest to least (default x > y > z > t).
Each order states weight rows, non-negative vectors compared in turn, and
``order.key(e)`` packs e into one int (Bachmann & Schönemann, ISSAC 1998): high
bits hold one field per row, the first highest, each wide enough for row . e;
low bits hold one FIELD_BITS-wide field per exponent with a guard bit above.
So ``<`` on keys is the order, key(a) + key(b) == key(a * b), and m divides e
iff ``((e | guard) - m) & guard == guard``.  ``key`` raises OverflowError on an
exponent past EXPONENT_LIMIT; a sum of keys past it sets a guard bit, which the
Groebner engine tests on every term it makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Tuple

Exponent = Tuple[int, ...]
Rows = Tuple[Tuple[int, ...], ...]

FIELD_BITS = 16
EXPONENT_LIMIT = (1 << FIELD_BITS) - 1


class Packing:
    """The keys of monomials in ``nvars`` variables under the given rows."""

    __slots__ = ("nvars", "units", "shifts", "guard")

    def __init__(self, rows: Rows, nvars: int):
        self.nvars = nvars
        self.shifts = tuple((FIELD_BITS + 1) * (nvars - 1 - i) for i in range(nvars))
        self.guard = sum(1 << (s + FIELD_BITS) for s in self.shifts)
        units, offset = [1 << s for s in self.shifts], (FIELD_BITS + 1) * nvars
        for row in reversed(rows):  # units[i] becomes the key of variable i
            units = [u + (w << offset) for u, w in zip(units, row)]
            offset += (sum(row) * EXPONENT_LIMIT).bit_length()
        self.units = tuple(units)

    def key(self, e: Exponent) -> int:
        if e and max(e) > EXPONENT_LIMIT:
            raise OverflowError(f"exponent past {EXPONENT_LIMIT} in {e}")
        return sum(map(mul, e, self.units))

    def exponents(self, k: int) -> Exponent:
        """The inverse of ``key``."""
        return tuple(k >> s & EXPONENT_LIMIT for s in self.shifts)

    def divides(self, m: int, k: int) -> bool:
        return ((k | self.guard) - m) & self.guard == self.guard

    def lcm(self, m: int, k: int) -> int:
        return self.key(tuple(map(max, self.exponents(m), self.exponents(k))))


class MonomialOrder:
    """Base class: a multiplicative total well-order on monomials."""

    name = "order"

    def rows(self, nvars: int) -> Rows:
        raise NotImplementedError

    def packing(self, nvars: int) -> Packing:
        packings = self.__dict__.setdefault("_packings", {})  # built once per ring size
        if nvars not in packings:
            packings[nvars] = Packing(self.rows(nvars), nvars)
        return packings[nvars]

    def key(self, e: Exponent) -> int:
        return self.packing(len(e)).key(e)

    def __repr__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class Lex(MonomialOrder):
    name = "lex"

    def rows(self, nvars: int) -> Rows:
        return tuple(tuple(int(i == k) for i in range(nvars)) for k in range(nvars))


@dataclass(frozen=True, repr=False)
class DegRevLex(MonomialOrder):
    """Degree first; ties broken by the reverse-lex rule (the monomial whose
    last nonzero exponent difference is negative wins).  Its rows sum the
    first nvars, nvars - 1, ..., 1 exponents."""

    name = "degrevlex"

    def rows(self, nvars: int) -> Rows:
        return tuple(tuple(int(i < k) for i in range(nvars)) for k in range(nvars, 0, -1))


@dataclass(frozen=True, repr=False)
class WeightOrder(MonomialOrder):
    """Weight-vector comparison refined by a tiebreak order."""

    weights: Tuple[int, ...]
    tiebreak: MonomialOrder

    @property
    def name(self):
        return f"weight{list(self.weights)}/{self.tiebreak.name}"

    def rows(self, nvars: int) -> Rows:
        if len(self.weights) != nvars or min(self.weights, default=0) < 0:
            raise ValueError(f"{self.name} needs {nvars} non-negative weights")
        return (tuple(self.weights),) + self.tiebreak.rows(nvars)


@dataclass(frozen=True, repr=False)
class BlockOrder(MonomialOrder):
    """Block (elimination) order: the first ``split`` variables are compared
    by ``first``, ties by ``second`` on the remaining variables.  Any monomial
    involving a block-one variable is greater than every monomial free of
    them, so block-one variables can be eliminated from a Groebner basis."""

    split: int
    first: MonomialOrder
    second: MonomialOrder

    @property
    def name(self):
        return f"block({self.split};{self.first.name},{self.second.name})"

    def rows(self, nvars: int) -> Rows:
        rest = nvars - self.split
        return tuple(r + (0,) * rest for r in self.first.rows(self.split)) + tuple(
            (0,) * self.split + r for r in self.second.rows(rest))


DEGREVLEX = DegRevLex()
LEX = Lex()


def elimination_order(num_eliminated: int) -> BlockOrder:
    """Order eliminating the first ``num_eliminated`` variables, degrevlex
    within each block."""
    return BlockOrder(num_eliminated, DEGREVLEX, DEGREVLEX)


def order_by_name(name: str) -> MonomialOrder:
    table = {"degrevlex": DEGREVLEX, "lex": LEX}
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}; choose from {sorted(table)}")
