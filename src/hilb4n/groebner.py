"""Buchberger engine: normal forms, reduced Groebner bases, S-pair traces.

Reductions run fraction-free on primitive integer coefficient dicts (one
content gcd per full normal form instead of one per step); public results are
exact monic polynomials over Q.  Pair handling uses the degree-graded normal
strategy with both classical pair-elimination criteria.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import rref
from .orders import DEGREVLEX, Exponent, MonomialOrder
from .poly import (
    Polynomial,
    linear_form,
    monomial_div,
    monomial_divides,
    monomial_gcd,
    monomial_lcm,
    monomial_mul,
)

IntPoly = Dict[Exponent, int]


# ---------------------------------------------------------------------------
# integer polynomial helpers

def _content(p: IntPoly) -> int:
    g = 0
    for v in p.values():
        g = gcd(g, abs(v))
        if g == 1:
            return 1
    return g


def _to_int_poly(p: Polynomial) -> Tuple[IntPoly, Fraction]:
    """Primitive integer form: returns (q, s) with p = s * q and content(q)=1."""
    if not p.terms:
        return {}, Fraction(1)
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {e: int(c * den) for e, c in p.terms.items()}
    g = _content(ints)
    return {e: v // g for e, v in ints.items()}, Fraction(g, den)


def _mul_int(p: IntPoly, q: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            k = monomial_mul(ep, eq)
            out[k] = out.get(k, 0) + cp * cq
    return {e: c for e, c in out.items() if c}


def _as_poly(p: IntPoly, nvars: int, factor: Fraction = Fraction(1)) -> Polynomial:
    return Polynomial({e: factor * c for e, c in p.items()}, nvars)


class _Basis:
    """Working basis element with cached leading data."""

    __slots__ = ("poly", "lm", "lc", "tail")

    def __init__(self, poly: IntPoly, order: MonomialOrder):
        self.poly = poly
        self.lm = max(poly, key=order.key)
        self.lc = poly[self.lm]
        self.tail = [(e, c) for e, c in poly.items() if e != self.lm]


def _descending(key):
    """The sort key (ints in nested tuples) negated: a min-heap pops the greatest."""
    return -key if type(key) is int else tuple(map(_descending, key))


def _normal_form_int(
    p: IntPoly,
    basis: Sequence[_Basis],
    order: MonomialOrder,
    trace: Optional[List[IntPoly]] = None,
) -> Tuple[IntPoly, int]:
    """Fraction-free full normal form.

    Returns (r, m) with m * p = r + sum(q_i * basis_i) and no monomial of r
    divisible by a basis leading monomial.  When ``trace`` is given it must
    hold one dict per basis element and receives the quotients q_i.  Terms
    are taken greatest first from a heap keyed once per monomial as it enters
    ``work``; entries of monomials that have since cancelled are skipped.
    """
    key = order.key
    work = dict(p)
    heap = [(_descending(key(e)), e) for e in work]
    heapify(heap)
    remainder: IntPoly = {}
    mult = 1
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e, 0)
        if not c:
            continue
        for gi, g in enumerate(basis):
            if monomial_divides(g.lm, e):
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
        shift = monomial_div(e, g.lm)
        for ge, gc in g.tail:
            k = monomial_mul(ge, shift)
            if k not in work:
                heappush(heap, (_descending(key(k)), k))
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
        self.order, self.basis = order, [_Basis(_to_int_poly(g)[0], order) for g in basis_polys if g]
        return self


def normal_form_poly(
    f: Polynomial, basis_polys: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX
) -> Polynomial:
    """Exact normal form of f modulo the given basis (need not be a GB)."""
    fi, scale = _to_int_poly(f)
    if not fi:
        return f
    if not (isinstance(basis_polys, _Prepared) and basis_polys.order == order):
        basis_polys = _Prepared(basis_polys, order)
    r, mult = _normal_form_int(fi, basis_polys.basis, order)
    return _as_poly(r, f.nvars, scale / mult)


def _spair_multipliers(f: _Basis, g: _Basis) -> Tuple[Exponent, int, Exponent, int]:
    """(sf, a, sg, b) with S(f, g) = a x^sf f - b x^sg g, the leading terms
    cancelling."""
    lcm = monomial_lcm(f.lm, g.lm)
    gg = gcd(f.lc, g.lc)
    return monomial_div(lcm, f.lm), g.lc // gg, monomial_div(lcm, g.lm), f.lc // gg


def _spair(f: _Basis, g: _Basis) -> IntPoly:
    sf, a, sg, b = _spair_multipliers(f, g)
    out: IntPoly = {}
    for e, c in f.poly.items():
        out[monomial_mul(e, sf)] = a * c
    for e, c in g.poly.items():
        k = monomial_mul(e, sg)
        nv = out.get(k, 0) - b * c
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX) -> List[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pairs are taken by the normal strategy (least lcm degree, then least lcm)
    and skipped by both classical criteria.
    """
    nvars = gens[0].nvars if gens else 0
    basis = [_Basis(gi, order) for gi in (_to_int_poly(g)[0] for g in gens) if gi]

    def lcm_of(i: int, j: int) -> Exponent:
        return monomial_lcm(basis[i].lm, basis[j].lm)

    def strategy_key(i: int, j: int):
        lcm = lcm_of(i, j)
        return sum(lcm), order.key(lcm)

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    # each pair's key is computed once; ties still fall to the set's order
    keys = {p: strategy_key(*p) for p in pairs}

    while pairs:
        i, j = min(pairs, key=keys.__getitem__)
        pairs.discard((i, j))
        lcm = lcm_of(i, j)
        # coprime leading monomials: S-pair reduces to zero
        if not any(monomial_gcd(basis[i].lm, basis[j].lm)):
            continue
        # chain criterion
        if any(
            k not in (i, j)
            and monomial_divides(basis[k].lm, lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue
        r, _ = _normal_form_int(_spair(basis[i], basis[j]), basis, order)
        if not r:
            continue
        content = _content(r)
        basis.append(_Basis({e: c // content for e, c in r.items()}, order))
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))
            keys[k, new] = strategy_key(k, new)
    return _reduce_basis(basis, order, nvars)


def _reduce_basis(basis: List[_Basis], order: MonomialOrder, nvars: int) -> List[Polynomial]:
    # minimal generators: drop elements whose lm is divisible by another lm
    lms = [b.lm for b in basis]
    keep = [
        i
        for i, lm in enumerate(lms)
        if not any(
            k != i and monomial_divides(lms[k], lm) and (lms[k] != lm or k < i)
            for k in range(len(basis))
        )
    ]
    # tail-reduce each against the others, make monic
    out = []
    for i in keep:
        r, _ = _normal_form_int(basis[i].poly, [basis[k] for k in keep if k != i], order)
        out.append(_as_poly(r, nvars, Fraction(1, r[max(r, key=order.key)])))
    out.sort(key=lambda g: order.key(g.leading_monomial(order)), reverse=True)
    return out


# ---------------------------------------------------------------------------
# syzygies of a Groebner basis via traced S-pair reductions

def gb_syzygies(gb: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX) -> List[List[Polynomial]]:
    """Generators of the syzygy module of a Groebner basis.

    Every S-pair of the basis reduces to zero; its traced reduction yields one
    relation.  The full pair set is processed, so by Schreyer's theorem the
    returned vectors generate all syzygies of ``gb`` (Eisenbud, *Commutative
    Algebra*, Thm 15.10).  A ``_Prepared`` basis lends its integer forms.
    """
    if not (isinstance(gb, _Prepared) and gb.order == order):
        gb = _Prepared(gb, order)
    nvars = gb[0].nvars if gb else 0
    basis = gb.basis
    # basis[k] is gb[k] scaled by scales[k]
    scales = [b.lc / g.terms[b.lm] for g, b in zip(gb, basis)]
    syz: List[List[Polynomial]] = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            row = _spair_syzygy(basis, i, j, order, nvars)
            # rescale to act on the exact basis elements
            row = [p.scale(scales[k]) if p else p for k, p in enumerate(row)]
            if any(row):
                syz.append(row)
    return syz


def _spair_syzygy(
    basis: Sequence[_Basis], i: int, j: int, order: MonomialOrder, nvars: int
) -> List[Polynomial]:
    """The relation sum(row[k] * basis[k]) = 0 traced from the reduction of
    S(basis[i], basis[j]) to zero."""
    trace: List[IntPoly] = [dict() for _ in basis]
    r, mult = _normal_form_int(_spair(basis[i], basis[j]), basis, order, trace)
    if r:
        raise ArithmeticError("input was not a Groebner basis: S-pair did not vanish")
    # mult * S = sum(q_k * basis_k), with S = a x^sf basis_i - b x^sg basis_j
    sf, a, sg, b = _spair_multipliers(basis[i], basis[j])
    row = [_as_poly(q, nvars, Fraction(-1)) for q in trace]
    row[i] = row[i] + Polynomial({sf: Fraction(a * mult)}, nvars)
    row[j] = row[j] + Polynomial({sg: Fraction(-b * mult)}, nvars)
    return row


def division_quotients(
    f: Polynomial, basis_polys: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX
) -> Tuple[Polynomial, List[Polynomial]]:
    """Exact division: returns (r, [q_i]) with f = r + sum(q_i * basis_i)."""
    fi, scale = _to_int_poly(f)
    if not fi:
        return f, [Polynomial.zero(f.nvars) for _ in basis_polys]
    data = [_to_int_poly(g) for g in basis_polys]
    basis = [_Basis(d[0], order) for d in data]
    trace: List[IntPoly] = [dict() for _ in basis]
    r, mult = _normal_form_int(fi, basis, order, trace=trace)
    factor = scale / mult
    remainder = _as_poly(r, f.nvars, factor)
    quots = [_as_poly(q, f.nvars, factor / data[k][1]) for k, q in enumerate(trace)]
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
