"""Strongly stable (Borel-fixed) monomial ideals.

Includes the stability predicate, Borel closure, the exhaustive enumeration of
saturated strongly stable ideals with a given quotient Hilbert polynomial, the
lexicographic ideal, and the catalog of the four such ideals for the Hilbert
polynomial 4n.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Set, Tuple

from .hilbert import HilbertPolynomial, _quotient_hp_from_series, gotzmann_number, hilbert_function
from .hilbert import macaulay_bound
from .ideals import Ideal, graded_monomial_basis, monomial_ideal, saturate_irrelevant
from .orders import DEGREVLEX, Exponent
from .poly import NVARS, Polynomial, count_monomials, monomial_divides, monomials_of_degree


def _swaps_up(m: Exponent) -> List[Exponent]:
    """One-step Borel moves x_i/x_j with i < j (toward earlier variables)."""
    out = []
    n = len(m)
    for j in range(n):
        if m[j] == 0:
            continue
        for i in range(j):
            e = list(m)
            e[j] -= 1
            e[i] += 1
            out.append(tuple(e))
    return out


def is_strongly_stable(M: Ideal) -> bool:
    """True iff every Borel move of every minimal generator stays inside."""
    if not M.is_monomial():
        raise ValueError("strong stability is defined for monomial ideals")
    gens = M.monomial_generators()
    for m in gens:
        for up in _swaps_up(m):
            if not any(monomial_divides(g, up) for g in gens):
                return False
    return True


def borel_closure(monomials: Sequence, nvars: int = NVARS) -> Ideal:
    """Smallest strongly stable ideal containing the given monomials."""
    if not monomials:
        raise ValueError("borel_closure needs at least one monomial")
    exps: Set[Exponent] = set()
    for m in monomials:
        if isinstance(m, Polynomial):
            if not m.is_monomial():
                raise ValueError("borel_closure takes monomials only")
            exps.add(m.leading_monomial())
            nvars = m.nvars
        else:
            exps.add(tuple(m))
    queue = list(exps)
    while queue:
        m = queue.pop()
        for up in _swaps_up(m):
            if up not in exps:
                exps.add(up)
                queue.append(up)
    return monomial_ideal(exps, nvars)


# ---------------------------------------------------------------------------
# enumeration of saturated strongly stable ideals

@lru_cache(maxsize=None)
def _borel_order(degree: int, nvars: int):
    """The degree-d monomials, degrevlex-descending (a linear extension of the
    Borel order), with, for each, the indices of its one-step Borel moves and
    the indices in degree d + 1 of its products with the variables."""
    monos = graded_monomial_basis(degree, nvars)
    index = {m: i for i, m in enumerate(monos)}
    above = {m: i for i, m in enumerate(graded_monomial_basis(degree + 1, nvars))}
    ups = tuple(tuple(index[u] for u in _swaps_up(m)) for m in monos)
    products = tuple(tuple(above[m[:v] + (m[v] + 1,) + m[v + 1:]] for v in range(nvars))
                     for m in monos)
    return monos, ups, products


def _borel_upsets(degree: int, nvars: int, forced: Set[int], min_excluded: int, max_excluded: int):
    """The Borel-closed sets of degree-d monomials (as ``_borel_order``
    indices) containing ``forced`` whose complement has between
    ``min_excluded`` and ``max_excluded`` elements.

    A monomial may be included only when all its Borel moves, which come
    before it in the order, already are."""
    _, ups, _ = _borel_order(degree, nvars)
    size = len(ups)
    chosen = [False] * size
    results: List[List[int]] = []

    def descend(idx: int, excluded: int):
        if size - idx < min_excluded - excluded:
            return
        if idx == size:
            results.append([i for i in range(size) if chosen[i]])
            return
        if all(map(chosen.__getitem__, ups[idx])):
            chosen[idx] = True
            descend(idx + 1, excluded)
            chosen[idx] = False
        if idx not in forced and excluded < max_excluded:
            descend(idx + 1, excluded + 1)

    descend(0, 0)
    return results


@lru_cache(maxsize=None)
def _macaulay_reach(h: int, degree: int, rho: int) -> Tuple[int, int]:
    """For a quotient Hilbert function with value h in ``degree`` >= 1, by
    Macaulay's bound iterated: its largest sum over degrees ``degree``..rho
    and its largest value in degree rho + 1."""
    grown = macaulay_bound(h, degree)
    if degree == rho:
        return h, grown
    total, top = _macaulay_reach(grown, degree + 1, rho)
    return h + total, top


def enumerate_borel_ideals(p: HilbertPolynomial, nvars: int = NVARS) -> List[Ideal]:
    """All saturated strongly stable ideals of k[x,y,z,t] whose quotient
    Hilbert polynomial is p, sorted by their minimal generators.

    Saturated Borel-fixed ideals have no minimal generator divisible by the
    last variable, so the search runs over strongly stable ideals J in one
    variable fewer, degree by degree up to the Gotzmann number rho: each
    piece J_d is a Borel-closed set containing the products of J_(d-1), and
    the rest of it are the minimal generators of degree d.  A saturated ideal
    with quotient Hilbert polynomial p is rho-regular (Gotzmann, Math. Z. 158,
    1978), so its quotient Hilbert function equals p at rho + 1 too.  That
    count only filters: each candidate that passes it is certified by the
    Hilbert polynomial of its Hilbert series.

    Before that count, a branch is cut by Macaulay's bound on the growth of
    the quotient k[x,y,z]/J (``macaulay_bound``), which holds for every J, so
    the cut drops no answer: in each degree d the piece must leave out enough
    monomials that the bound, iterated, can still sum to p(rho) over degrees
    d..rho and grow to p(rho + 1) - p(rho) in degree rho + 1.
    """
    rho = gotzmann_number(p)
    target = int(p(rho))
    if target < 0:
        raise ValueError("not a quotient Hilbert polynomial")
    reduced = nvars - 1
    step = int(p(rho + 1)) - target  # the quotient's new monomials in degree rho + 1
    found: List[List[Exponent]] = []

    def extend(degree: int, forced: Set[int], gens: List[Exponent], partial_sum: int):
        if degree > rho:
            if count_monomials(degree, reduced) - len(forced) != step or not gens:
                return
            gens = sorted(gens, key=DEGREVLEX.key, reverse=True)
            if _quotient_hp_from_series(gens, nvars) == p:
                found.append(gens)
            return
        monos, _, products = _borel_order(degree, reduced)
        budget = target - partial_sum

        def reaches(h: int) -> bool:  # monotone in h
            total, top = _macaulay_reach(h, degree, rho)
            return total >= budget and top >= step

        # the least number left out from which degrees d..rho can still sum
        # to p(rho) and grow to step; in degree rho it is the whole budget
        least = bisect_left(range(budget + 1), True, key=reaches)
        if least > budget:
            return
        for piece in _borel_upsets(degree, reduced, forced, least, budget):
            new = [monos[i] + (0,) for i in piece if i not in forced]
            above = {j for i in piece for j in products[i]}
            extend(degree + 1, above, gens + new, partial_sum + len(monos) - len(piece))

    extend(1, set(), [], 1)  # degree 0: the quotient has dimension 1
    return [Ideal([Polynomial.monomial(e) for e in gens], nvars) for gens in sorted(found)]


def lex_ideal(p: HilbertPolynomial, nvars: int = NVARS) -> Ideal:
    """The saturated lexicographic ideal with quotient Hilbert polynomial p.

    By Gotzmann persistence the lex segment in the Gotzmann-number degree
    generates an ideal with quotient Hilbert polynomial p; its saturation is
    the lex point.
    """
    rho = gotzmann_number(p)
    size = count_monomials(rho, nvars) - int(p(rho))
    if size < 0:
        raise ValueError("not a quotient Hilbert polynomial")
    monos = sorted(monomials_of_degree(rho, nvars), reverse=True)
    segment = monos[:size]
    return saturate_irrelevant(monomial_ideal(segment, nvars))


# ---------------------------------------------------------------------------
# the catalog for quotient Hilbert polynomial 4n

@dataclass(frozen=True)
class BorelCatalogEntry:
    name: str
    ideal: Ideal
    phi: Tuple[int, ...]  # dim I_n for n = 0..7
    regularity: int


def _entry(name: str, gens: List[Polynomial], reg: int) -> BorelCatalogEntry:
    ideal = Ideal(gens)
    phi = tuple(hilbert_function(ideal, n) for n in range(8))
    return BorelCatalogEntry(name=name, ideal=ideal, phi=phi, regularity=reg)


def borel_catalog() -> Dict[str, BorelCatalogEntry]:
    """The four saturated Borel-fixed ideals with quotient Hilbert polynomial
    4n, keyed B3..B6 by regularity."""
    x, y, z, t = (Polynomial.variable(i) for i in range(NVARS))
    return {
        "B3": _entry("B3", [x * x, x * y, y**3], 3),
        "B4": _entry("B4", [x * x, x * y, x * z * z, y**4], 4),
        "B5": _entry("B5", [x * x, x * y, x * z, y**5, y**4 * z], 5),
        "B6": _entry("B6", [x, y**5, y**4 * z * z], 6),
    }
