"""Known results on Hilb^{3n+1}(P^3) from outside the paper, reproduced by
the same engine: Piene-Schlessinger (Amer. J. Math. 107, 1985) show that
twisted cubics and plane cubics plus a point fill two smooth components of
dimensions 12 and 15 meeting in dimension 11, and Reeves-Stillman (J. Alg.
Geom. 6, 1997) show that the lex point is smooth.  Regularities are checked
against known values and against the largest generator degree of the initial
ideal in random coordinates, the generic initial ideal (Bayer-Stillman,
Invent. Math. 87, 1987)."""

import pytest

from hilb4n import gin, hilbert, ideals
from hilb4n.borel import enumerate_borel_ideals
from hilb4n.gin import is_saturated
from hilb4n.hilbert import HilbertPolynomial, quotient_hilbert_polynomial, regularity
from hilb4n.ideals import Ideal, initial_ideal
from hilb4n.parser import parse_ideal
from hilb4n.poly import LinearChange
from hilb4n.strata import sample_stratum
from hilb4n.tangent import tangent_dimension

THREE_N_PLUS_ONE = HilbertPolynomial([1, 3])


@pytest.mark.parametrize(
    "generators, dimension",
    [
        # twisted cubic: a smooth point of the 12-dimensional component
        ("x*z - y^2; y*t - z^2; x*t - y*z", 12),
        # lex point: a smooth point of the 15-dimensional component
        ("x; y^4; y^3*z", 15),
        # nodal plane cubic with a spatial embedded point at the node: on the
        # intersection of the two components, one more than 15
        ("x^2; x*y; x*z; t*y^2 - t*z^2 - y^3", 16),
    ],
)
def test_tangent_dimensions_on_hilb_3n_plus_1(generators, dimension):
    I = parse_ideal(generators).ideal()
    assert quotient_hilbert_polynomial(I) == THREE_N_PLUS_ONE
    assert is_saturated(I)
    assert tangent_dimension(I).dimension == dimension


def test_three_borel_fixed_points_on_hilb_3n_plus_1():
    ideals = enumerate_borel_ideals(THREE_N_PLUS_ONE)
    assert len(ideals) == 3
    assert all(quotient_hilbert_polynomial(I) == THREE_N_PLUS_ONE for I in ideals)


REGULARITIES = [
    ("x*z - y^2; y*t - z^2; x*t - y*z", 2),  # twisted cubic
    ("x^2 + y*z; z^2 - x*t", 3),  # complete intersection of two quadrics
    ("x^2; x*y; x*z; x*t^4", 5),  # a plane with an embedded point of degree 4
    ("x^3; y^3; z^3", 7),
    ("x", 1),
    ("z; t", 1),  # a line on which t is a zerodivisor
]


@pytest.mark.parametrize("generators, reg", REGULARITIES)
def test_known_regularities(generators, reg):
    assert regularity(parse_ideal(generators).ideal()) == reg


def _generic_regularity(I, rng):
    """The largest generator degree of in(g I) for a random change g."""
    g = LinearChange.random(rng)
    moved = Ideal([g.apply(p) for p in I.gens])
    return max(sum(e) for e in initial_ideal(moved).monomial_generators())


def test_regularity_equals_generic_initial_degree(catalog, rng):
    samples = [sample_stratum(label, rng) for label in ("V", "R3'", "R4", "R5", "R6") * 4]
    g = LinearChange.random(rng, bound=5)
    samples.append(Ideal([g.apply(p) for p in catalog["B5"].ideal.gens]))
    for I in samples:
        assert regularity(Ideal(I.gens)) == _generic_regularity(I, rng), I


def test_regularity_draws_nothing(catalog, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("regularity must not draw a generic initial ideal")

    monkeypatch.setattr(gin, "generic_initial_ideal", forbidden)
    monkeypatch.setattr(LinearChange, "random", forbidden)
    fallbacks = []
    monkeypatch.setattr(hilbert, "saturating_form",
                        lambda I: fallbacks.append(I.nvars) or ideals.saturating_form(I))
    levels = {}
    for generators, reg in REGULARITIES:
        fallbacks.clear()
        assert regularity(parse_ideal(generators).ideal()) == reg
        levels[generators] = list(fallbacks)
    # t is a zerodivisor on the line, and so is z on the line in moved coordinates
    assert levels["z; t"] == [4, 3]
    fallbacks.clear()
    assert regularity(Ideal(catalog["B5"].ideal.gens)) == 5
    assert fallbacks == []  # every variable certifies at a Borel-fixed ideal
