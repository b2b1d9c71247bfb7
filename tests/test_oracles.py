"""Known results on Hilb^{3n+1}(P^3) from outside the paper, reproduced by
the same engine: Piene-Schlessinger (Amer. J. Math. 107, 1985) show that
twisted cubics and plane cubics plus a point fill two smooth components of
dimensions 12 and 15 meeting in dimension 11, and Reeves-Stillman (J. Alg.
Geom. 6, 1997) show that the lex point is smooth."""

import pytest

from hilb4n.borel import enumerate_borel_ideals
from hilb4n.gin import is_saturated
from hilb4n.hilbert import HilbertPolynomial, quotient_hilbert_polynomial
from hilb4n.parser import parse_ideal
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
