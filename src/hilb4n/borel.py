"""Strongly stable (Borel-fixed) monomial ideals.

Includes the stability predicate, Borel closure, the exhaustive enumeration of
saturated strongly stable ideals with a given quotient Hilbert polynomial, the
lexicographic ideal, and the catalog of the four such ideals for the Hilbert
polynomial 4n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .hilbert import (
    HilbertPolynomial,
    gotzmann_number,
    hilbert_function,
    quotient_hilbert_polynomial,
)
from .ideals import Ideal, monomial_ideal, saturate_irrelevant
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

def _borel_upsets(
    degree: int,
    nvars: int,
    forced: FrozenSet[Exponent],
    max_excluded: int,
    exact: bool = False,
) -> Iterable[FrozenSet[Exponent]]:
    """All Borel-closed subsets of the degree-d monomials containing ``forced``
    whose complement has at most (exactly, when ``exact``) ``max_excluded``
    elements.

    Monomials are processed in descending degrevlex (a linear extension of the
    Borel order), so a monomial may be included only when everything above it
    already is.
    """
    monos = sorted(monomials_of_degree(degree, nvars), key=DEGREVLEX.key, reverse=True)
    results: List[FrozenSet[Exponent]] = []

    def descend(idx: int, chosen: Set[Exponent], excluded: int):
        if idx == len(monos):
            if not exact or excluded == max_excluded:
                results.append(frozenset(chosen))
            return
        m = monos[idx]
        if all(u in chosen for u in _swaps_up(m)):
            chosen.add(m)
            descend(idx + 1, chosen, excluded)
            chosen.discard(m)
        if m not in forced and excluded < max_excluded:
            descend(idx + 1, chosen, excluded + 1)

    descend(0, set(), 0)
    return results


def enumerate_borel_ideals(p: HilbertPolynomial, nvars: int = NVARS) -> List[Ideal]:
    """All saturated strongly stable ideals of k[x,y,z,t] whose quotient
    Hilbert polynomial is p, in canonical sorted form.

    Saturated Borel-fixed ideals have no minimal generator divisible by the
    last variable, so the search runs over strongly stable ideals in one
    variable fewer, with generator degrees bounded by the Gotzmann number.
    """
    rho = gotzmann_number(p)
    target = p(rho)
    if target < 0:
        raise ValueError("not a quotient Hilbert polynomial")
    reduced = nvars - 1
    found: Dict[Tuple[Exponent, ...], Ideal] = {}

    def extend(degree: int, pieces: List[FrozenSet[Exponent]], partial_sum: int):
        if partial_sum > target:
            return
        if degree > rho:
            if partial_sum != target:
                return
            candidate = _assemble(pieces, reduced, nvars)
            if candidate is None:
                return
            key = tuple(candidate.monomial_generators())
            if key in found:
                return
            if quotient_hilbert_polynomial(candidate) == p:
                found[key] = candidate
            return
        forced: Set[Exponent] = set()
        prev = pieces[-1] if pieces else frozenset()
        for m in prev:
            for v in range(reduced):
                e = list(m)
                e[v] += 1
                forced.add(tuple(e))
        budget = target - partial_sum
        # in the last degree the partial sums must land exactly on p(rho)
        pieces_iter = _borel_upsets(
            degree, reduced, frozenset(forced), budget, exact=(degree == rho)
        )
        for piece in pieces_iter:
            h = count_monomials(degree, reduced) - len(piece)
            extend(degree + 1, pieces + [piece], partial_sum + h)

    extend(1, [], 1)  # degree 0: the quotient has dimension 1
    out = sorted(found.values(), key=lambda I: tuple(I.monomial_generators()))
    return out


def _assemble(
    pieces: List[FrozenSet[Exponent]], reduced: int, nvars: int
) -> Optional[Ideal]:
    exps: List[Exponent] = []
    for piece in pieces:
        for m in piece:
            exps.append(tuple(m) + (0,) * (nvars - reduced))
    if not exps:
        return None
    return monomial_ideal(exps, nvars)


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
