"""Borel-fixed ideals: the stability predicate and closure, the lex point,
the catalog B3-B6, and the enumeration of saturated Borel-fixed ideals by
quotient Hilbert polynomial.

The enumeration is checked four ways: its counts are pinned for 18 small
polynomials, each ideal it returns is verified, it finds the Borel closure of
random monomials in x, y, z (each is saturated and strongly stable) under
its own Hilbert polynomial, and the work its Macaulay cuts leave is pinned as
a count of the pieces it lists, so losing a cut fails a test without timing
anything."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from hilb4n import borel
from hilb4n.borel import (
    borel_closure,
    enumerate_borel_ideals,
    is_strongly_stable,
    lex_ideal,
)
from hilb4n.gin import is_saturated
from hilb4n.hilbert import (
    HilbertPolynomial,
    gotzmann_number,
    hilbert_function,
    quotient_hilbert_function,
    quotient_hilbert_polynomial,
)
from hilb4n.ideals import Ideal, equal
from hilb4n.parser import parse_hilbert_polynomial
from hilb4n.poly import count_monomials, monomials_of_degree, variables
from hilb4n.strata import FOUR_N

x, y, z, t = variables()

# how many saturated Borel-fixed ideals each quotient Hilbert polynomial has,
# as the enumeration without the Gotzmann rho + 1 check and without the
# Macaulay cuts finds them; all have Gotzmann number at most 7, so the whole
# table enumerates in a fraction of a second
PINNED_COUNTS = {
    "1": 1, "2": 1, "3": 2, "n+1": 1, "n+2": 1, "2*n+1": 1, "2*n+2": 2, "2*n+3": 3,
    "3*n": 1, "3*n+1": 3, "3*n+2": 4, "3*n+3": 8, "4*n-2": 1, "4*n-1": 2, "4*n": 4,
    "4*n+1": 8, "5*n-4": 2, "5*n-3": 3,
}


@pytest.fixture(scope="module")
def pinned():
    """Each pinned polynomial and its enumeration."""
    out = {}
    for text in PINNED_COUNTS:
        p = parse_hilbert_polynomial(text)
        out[text] = (p, enumerate_borel_ideals(p))
    return out


def test_is_strongly_stable_examples(catalog):
    assert is_strongly_stable(catalog["B4"].ideal)
    assert not is_strongly_stable(Ideal([x * x, y * y]))
    assert is_strongly_stable(Ideal([x]))


def test_is_strongly_stable_rejects_nonmonomial():
    with pytest.raises(ValueError):
        is_strongly_stable(Ideal([x + y]))


def test_borel_closure_examples():
    closed = borel_closure([y**3])
    assert equal(closed, Ideal([x**3, x * x * y, x * y * y, y**3]))
    assert equal(borel_closure([x]), Ideal([x]))


def test_borel_closure_empty_rejected():
    with pytest.raises(ValueError):
        borel_closure([])


def test_borel_closure_minimality(rng):
    target = (0, 4, 2, 0)  # y^4 z^2
    closed = borel_closure([target])
    assert is_strongly_stable(closed)
    # minimal among random strongly stable ideals containing the monomial
    monos = [m for d in (4, 5, 6) for m in monomials_of_degree(d, 4)]
    for _ in range(20):
        extra = [rng.choice(monos) for _ in range(rng.randint(0, 3))]
        other = borel_closure([target] + extra)
        assert other.contains_ideal(closed)


def test_enumeration_is_the_catalog(catalog, four_n_borel):
    found = four_n_borel
    assert len(found) == 4
    keys = {tuple(I.monomial_generators()) for I in found}
    expected = {tuple(catalog[k].ideal.monomial_generators()) for k in catalog}
    assert keys == expected


def test_enumeration_outputs_verified(four_n_borel):
    for I in four_n_borel:
        assert is_strongly_stable(I)
        assert is_saturated(I)
        assert quotient_hilbert_polynomial(I) == FOUR_N


def test_enumeration_counts_are_pinned(pinned):
    assert {text: len(found) for text, (_, found) in pinned.items()} == PINNED_COUNTS


def test_pinned_enumerations_verified(pinned):
    for p, found in pinned.values():
        keys = [tuple(I.monomial_generators()) for I in found]
        assert keys == sorted(set(keys))  # distinct, sorted by their generators
        for I in found:
            assert is_strongly_stable(I)
            assert is_saturated(I)
            assert quotient_hilbert_polynomial(I) == p


def test_pinned_enumerations_meet_p_at_rho_and_rho_plus_one(pinned):
    # Gotzmann: a saturated ideal with Hilbert polynomial p is rho-regular
    for p, found in pinned.values():
        rho = gotzmann_number(p)
        for I in found:
            assert [quotient_hilbert_function(I, n) for n in (rho, rho + 1)] == [p(rho), p(rho + 1)]


# degree pieces ``_borel_upsets`` lists for the whole search: 1,583 and 6,467
# without the Macaulay cuts
PINNED_PIECES = {"4*n": 188, "4*n+1": 579}


def test_enumeration_work_is_pinned(monkeypatch):
    pieces = []
    upsets = borel._borel_upsets

    def counted(*args):
        out = upsets(*args)
        pieces.append(len(out))
        return out

    monkeypatch.setattr(borel, "_borel_upsets", counted)
    listed = {}
    for text in PINNED_PIECES:
        pieces.clear()
        enumerate_borel_ideals(parse_hilbert_polynomial(text))
        listed[text] = sum(pieces)
    assert listed == PINNED_PIECES


_t_free_monomial = st.integers(1, 5).flatmap(
    lambda d: st.sampled_from(sorted(m + (0,) for m in monomials_of_degree(d, 3))))


@pytest.fixture(scope="module")
def enumerated():
    """Hilbert polynomial -> generator sets of its enumeration, filled as drawn."""
    return {}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(monomials=st.lists(_t_free_monomial, min_size=1, max_size=4))
def test_enumeration_finds_every_borel_closure(enumerated, monomials):
    # the closure is strongly stable, and saturated since no generator has t
    J = borel_closure(monomials)
    p = quotient_hilbert_polynomial(J)
    assume(gotzmann_number(p) <= 7)
    if p not in enumerated:
        enumerated[p] = {frozenset(I.monomial_generators()) for I in enumerate_borel_ideals(p)}
    assert frozenset(J.monomial_generators()) in enumerated[p]


def test_enumeration_small_polynomials():
    point = enumerate_borel_ideals(HilbertPolynomial([1]))
    assert len(point) == 1 and equal(point[0], Ideal([x, y, z]))
    line = enumerate_borel_ideals(HilbertPolynomial([1, 1]))
    assert len(line) == 1 and equal(line[0], Ideal([x, y]))


def test_lex_ideal_examples(catalog):
    assert equal(lex_ideal(FOUR_N), catalog["B6"].ideal)
    assert equal(lex_ideal(HilbertPolynomial([1])), Ideal([x, y, z]))
    assert equal(lex_ideal(HilbertPolynomial([1, 1])), Ideal([x, y]))


def test_lex_ideal_is_lex_greatest(four_n_borel):
    # each graded piece of the lex point is spanned by the initial lex segment
    # of its dimension, so it is degreewise lex-greatest
    from hilb4n.ideals import graded_monomial_basis

    L = lex_ideal(FOUR_N)
    assert any(equal(L, I) for I in four_n_borel)
    for n in range(1, 8):
        dim = hilbert_function(L, n)
        piece = L.graded_piece(n)
        assert piece.dim == dim
        idx = {e: i for i, e in enumerate(graded_monomial_basis(n, 4))}
        for m in sorted(monomials_of_degree(n, 4), reverse=True)[:dim]:
            v = [0] * count_monomials(n, 4)
            v[idx[m]] = 1
            assert piece.contains(v)


def test_catalog_regularities(catalog):
    for name, entry in catalog.items():
        assert entry.regularity == int(name[1])
        assert max(sum(g) for g in entry.ideal.monomial_generators()) == entry.regularity
