"""Buchberger engine: normal forms, reduced Groebner bases, S-pair traces.

Reductions run fraction-free on primitive integer coefficient dicts (one
content gcd per full normal form instead of one per step); public results are
exact monic polynomials over Q.  Pair handling uses the degree-graded normal
strategy with both classical pair-elimination criteria.

Inside the engine a monomial is its packed key under the working order (see
orders.py), so a product is a sum of keys and divisibility one mask test.
Each term a product makes (in ``_normal_form_int`` and ``_mul_int``) is tested
against the guard bits once: an exponent past EXPONENT_LIMIT raises
OverflowError instead of giving a wrong order.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import rref
from .orders import DEGREVLEX, EXPONENT_LIMIT, MonomialOrder, Packing
from .poly import Polynomial, linear_form

IntPoly = Dict[int, int]  # packed monomial key -> integer coefficient


# ---------------------------------------------------------------------------
# integer polynomial helpers

def _content(p: IntPoly) -> int:
    g = 0
    for v in p.values():
        g = gcd(g, abs(v))
        if g == 1:
            return 1
    return g


def _to_int_poly(p: Polynomial, order: MonomialOrder) -> Tuple[IntPoly, Fraction]:
    """Primitive packed integer form: returns (q, s) with p = s * q and content(q)=1."""
    if not p.terms:
        return {}, Fraction(1)
    key = order.packing(p.nvars).key
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {key(e): int(c * den) for e, c in p.terms.items()}
    g = _content(ints)
    return {e: v // g for e, v in ints.items()}, Fraction(g, den)


def _mul_int(p: IntPoly, q: IntPoly, packing: Packing) -> IntPoly:
    guard = packing.guard
    out: IntPoly = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            k = ep + eq
            if k & guard:
                raise OverflowError(f"a product has an exponent past {EXPONENT_LIMIT}")
            out[k] = out.get(k, 0) + cp * cq
    return {e: c for e, c in out.items() if c}


def _as_poly(p: IntPoly, packing: Packing, factor: Fraction = Fraction(1)) -> Polynomial:
    return Polynomial({packing.exponents(e): factor * c for e, c in p.items()}, packing.nvars)


class _Basis:
    """Working basis element with cached leading data."""

    __slots__ = ("poly", "lm", "lc", "tail")

    def __init__(self, poly: IntPoly):
        self.poly = poly
        self.lm = max(poly)
        self.lc = poly[self.lm]
        self.tail = [(e, c) for e, c in poly.items() if e != self.lm]


def _normal_form_int(
    p: IntPoly,
    basis: Sequence[_Basis],
    packing: Packing,
    trace: Optional[List[IntPoly]] = None,
) -> Tuple[IntPoly, int]:
    """Fraction-free full normal form on keys packed by ``packing``.

    Returns (r, m) with m * p = r + sum(q_i * basis_i) and no monomial of r
    divisible by a basis leading monomial.  When ``trace`` is given it must
    hold one dict per basis element and receives the quotients q_i.  Terms
    are taken greatest first from a heap of negated keys, one entry per
    monomial as it enters ``work``; entries of monomials that have since
    cancelled are skipped.
    """
    guard = packing.guard
    work = dict(p)
    heap = [-e for e in work]
    heapify(heap)
    remainder: IntPoly = {}
    mult = 1
    while heap:
        e = -heappop(heap)
        c = work.pop(e, 0)
        if not c:
            continue
        probe = e | guard
        for gi, g in enumerate(basis):
            if (probe - g.lm) & guard == guard:
                break
        else:
            remainder[e] = c
            continue
        gg = gcd(c, g.lc)
        a = g.lc // gg  # scale everything by a
        b = c // gg     # subtract b * shift * g
        if a != 1:
            if a < 0:
                a, b = -a, -b
            mult *= a
            for k in work:
                work[k] *= a
            for k in remainder:
                remainder[k] *= a
            if trace is not None:
                for q in trace:
                    for k in q:
                        q[k] *= a
        shift = e - g.lm
        for ge, gc in g.tail:
            k = ge + shift
            if k & guard:
                raise OverflowError(f"a product has an exponent past {EXPONENT_LIMIT}")
            if k not in work:
                heappush(heap, -k)
            nv = work.get(k, 0) - b * gc
            if nv:
                work[k] = nv
            else:
                del work[k]
        if trace is not None:
            q = trace[gi]
            q[shift] = q.get(shift, 0) + b
    return remainder, mult


class _Prepared(tuple):
    """Basis polynomials whose integer forms are built once, for a batch of
    ``normal_form_poly`` calls under one order."""

    def __new__(cls, basis_polys: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX):
        self = super().__new__(cls, basis_polys)
        self.order, self.basis = order, [_Basis(_to_int_poly(g, order)[0]) for g in basis_polys if g]
        return self


def normal_form_poly(
    f: Polynomial, basis_polys: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX
) -> Polynomial:
    """Exact normal form of f modulo the given basis (need not be a GB)."""
    fi, scale = _to_int_poly(f, order)
    if not fi:
        return f
    if not (isinstance(basis_polys, _Prepared) and basis_polys.order == order):
        basis_polys = _Prepared(basis_polys, order)
    packing = order.packing(f.nvars)
    r, mult = _normal_form_int(fi, basis_polys.basis, packing)
    return _as_poly(r, packing, scale / mult)


def _spair_multipliers(f: _Basis, g: _Basis, packing: Packing) -> Tuple[int, int, int, int]:
    """(sf, a, sg, b) with S(f, g) = a x^sf f - b x^sg g, the leading terms
    cancelling; sf and sg are packed keys."""
    lcm = packing.lcm(f.lm, g.lm)
    gg = gcd(f.lc, g.lc)
    return lcm - f.lm, g.lc // gg, lcm - g.lm, f.lc // gg


def _spair(f: _Basis, g: _Basis, packing: Packing) -> IntPoly:
    sf, a, sg, b = _spair_multipliers(f, g, packing)
    out = _mul_int(f.poly, {sf: a}, packing)
    for k, c in _mul_int(g.poly, {sg: -b}, packing).items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX) -> List[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pairs are taken by the normal strategy (least lcm degree, then least lcm)
    and skipped by both classical criteria.
    """
    packing = order.packing(gens[0].nvars if gens else 0)
    basis = [_Basis(gi) for gi in (_to_int_poly(g, order)[0] for g in gens) if gi]

    def strategy_key(i: int, j: int):
        lcm = packing.lcm(basis[i].lm, basis[j].lm)
        return sum(packing.exponents(lcm)), lcm

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    # each pair's key is computed once; ties still fall to the set's order
    keys = {p: strategy_key(*p) for p in pairs}

    while pairs:
        i, j = min(pairs, key=keys.__getitem__)
        pairs.discard((i, j))
        lcm = keys[i, j][1]
        # coprime leading monomials (the lcm is the product): S-pair reduces to zero
        if lcm == basis[i].lm + basis[j].lm:
            continue
        # chain criterion
        if any(
            k not in (i, j)
            and packing.divides(basis[k].lm, lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue
        r, _ = _normal_form_int(_spair(basis[i], basis[j], packing), basis, packing)
        if not r:
            continue
        content = _content(r)
        basis.append(_Basis({e: c // content for e, c in r.items()}))
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))
            keys[k, new] = strategy_key(k, new)
    return _reduce_basis(basis, packing)


def _reduce_basis(basis: List[_Basis], packing: Packing) -> List[Polynomial]:
    # minimal generators: drop elements whose lm is divisible by another lm
    lms = [b.lm for b in basis]
    keep = [
        i
        for i, lm in enumerate(lms)
        if not any(
            k != i and packing.divides(lms[k], lm) and (lms[k] != lm or k < i)
            for k in range(len(basis))
        )
    ]
    # tail-reduce each against the others, make monic; the leading monomials
    # stay distinct, so they sort the result
    out = {}
    for i in keep:
        r, _ = _normal_form_int(basis[i].poly, [basis[k] for k in keep if k != i], packing)
        out[lms[i]] = _as_poly(r, packing, Fraction(1, r[lms[i]]))
    return [out[lm] for lm in sorted(out, reverse=True)]


# ---------------------------------------------------------------------------
# syzygies of a Groebner basis via traced S-pair reductions

def gb_syzygies(gb: Sequence[Polynomial]) -> List[List[Polynomial]]:
    """Generators of the syzygy module of a Groebner basis.

    Every S-pair of the basis reduces to zero; its traced reduction yields one
    relation.  The full pair set is processed, so by Schreyer's theorem the
    returned vectors generate all syzygies of ``gb`` (Eisenbud, *Commutative
    Algebra*, Thm 15.10).  A ``_Prepared`` basis lends its integer forms and
    its order; any other is taken as a degrevlex basis.
    """
    if not isinstance(gb, _Prepared):
        gb = _Prepared(gb)
    packing = gb.order.packing(gb[0].nvars if gb else 0)
    basis = gb.basis
    # basis[k] is gb[k] scaled by scales[k]
    scales = [b.lc / g.terms[packing.exponents(b.lm)] for g, b in zip(gb, basis)]
    syz: List[List[Polynomial]] = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            row = _spair_syzygy(basis, i, j, packing)
            # rescale to act on the exact basis elements
            row = [p.scale(scales[k]) if p else p for k, p in enumerate(row)]
            if any(row):
                syz.append(row)
    return syz


def _spair_syzygy(basis: Sequence[_Basis], i: int, j: int, packing: Packing) -> List[Polynomial]:
    """The relation sum(row[k] * basis[k]) = 0 traced from the reduction of
    S(basis[i], basis[j]) to zero."""
    trace: List[IntPoly] = [dict() for _ in basis]
    r, mult = _normal_form_int(_spair(basis[i], basis[j], packing), basis, packing, trace)
    if r:
        raise ArithmeticError("input was not a Groebner basis: S-pair did not vanish")
    # mult * S = sum(q_k * basis_k), with S = a x^sf basis_i - b x^sg basis_j
    sf, a, sg, b = _spair_multipliers(basis[i], basis[j], packing)
    row = [_as_poly(q, packing, Fraction(-1)) for q in trace]
    row[i] = row[i] + _as_poly({sf: a * mult}, packing)
    row[j] = row[j] + _as_poly({sg: -b * mult}, packing)
    return row


def division_quotients(
    f: Polynomial, basis_polys: Sequence[Polynomial]
) -> Tuple[Polynomial, List[Polynomial]]:
    """Exact degrevlex division: returns (r, [q_i]) with f = r + sum(q_i * basis_i)."""
    fi, scale = _to_int_poly(f, DEGREVLEX)
    if not fi:
        return f, [Polynomial.zero(f.nvars) for _ in basis_polys]
    packing = DEGREVLEX.packing(f.nvars)
    data = [_to_int_poly(g, DEGREVLEX) for g in basis_polys]
    basis = [_Basis(d[0]) for d in data]
    trace: List[IntPoly] = [dict() for _ in basis]
    r, mult = _normal_form_int(fi, basis, packing, trace=trace)
    factor = scale / mult
    remainder = _as_poly(r, packing, factor)
    quots = [_as_poly(q, packing, factor / data[k][1]) for k, q in enumerate(trace)]
    return remainder, quots


def reduce_by_linear_forms(gens: Sequence[Polynomial]) -> Tuple[List[Polynomial], List[Polynomial]]:
    """Split off the ideal's linear forms by exact substitution.

    Returns (linear, rest): ``linear`` is the reduced echelon basis of the
    degree-1 piece spanned by degree-1 generators, and ``rest`` generates the
    image of the remaining generators under the substitution killing each
    pivot variable.  The reduced GB of the input is the union of ``linear``
    and the reduced GB of ``rest`` under degrevlex, whose leading variable of
    a linear form is its pivot: the first variable it involves.
    """
    linear = [g for g in gens if g and g.homogeneous_degree() == 1]
    rest = [g for g in gens if g and g.homogeneous_degree() != 1]
    if not linear:
        return [], list(rest)
    nvars = gens[0].nvars
    units = [tuple(int(i == k) for k in range(nvars)) for i in range(nvars)]
    rows, pivots = rref([[g.coefficient(u) for u in units] for g in linear])
    echelon = [linear_form(row, nvars) for row in rows]
    # each form is its pivot variable plus a tail in the free variables only
    images = [Polynomial.variable(i, nvars) for i in range(nvars)]
    for f, pivot in zip(echelon, pivots):
        images[pivot] = images[pivot] - f
    substituted = [g.substitute(images) for g in rest]
    return echelon, [g for g in substituted if g]
