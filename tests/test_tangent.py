import pytest

from hilb4n.ideals import Ideal, intersect
from hilb4n.poly import LinearChange, apply_change, variables
from hilb4n.strata import sample_stratum
from hilb4n.tangent import tangent_dimension

x, y, z, t = variables()


def test_lex_point_dimension(catalog):
    report = tangent_dimension(catalog["B6"].ideal)
    assert report.dimension == 23
    assert sorted(report.generator_degrees) == [1, 5, 6]


def test_ci_dimension(rng):
    I = sample_stratum("V", rng)
    assert tangent_dimension(I).dimension == 16


def test_catalog_lower_bounds(catalog):
    assert tangent_dimension(catalog["B3"].ideal).dimension >= 16
    assert tangent_dimension(catalog["B4"].ideal).dimension >= 23
    assert tangent_dimension(catalog["B5"].ideal).dimension >= 23


def test_point_schemes():
    # bulletproof small cases: d points in P^3 move in 3d ways
    assert tangent_dimension(Ideal([x, y, z])).dimension == 3
    two_points = intersect(Ideal([x, y, t]), Ideal([x, z, t]))
    assert tangent_dimension(two_points).dimension == 6
    # no variable is a nonzerodivisor at the coordinate points, so the
    # section spaces use the form x + y + z + t
    four_points = Ideal([x * y, x * z, x * t, y * z, y * t, z * t])
    assert tangent_dimension(four_points).dimension == 12
    assert tangent_dimension(Ideal([t, x * y, x * z, y * z])).dimension == 9


def test_unsaturated_ideal_rejected():
    # the irrelevant ideal is associated to an unsaturated ideal, so no
    # linear nonzerodivisor exists; the certified saturation is larger than
    # the input, which is refused
    for I in (Ideal([x, y, z * z, z * t]), Ideal([x, y * y, y * z, y * t])):
        with pytest.raises(ValueError, match="saturated"):
            tangent_dimension(I)


def test_linear_change_invariance(rng):
    I = sample_stratum("R3'", rng)
    base = tangent_dimension(I).dimension
    for _ in range(5):
        g = LinearChange.random(rng, bound=5)
        moved = Ideal([apply_change(p, g) for p in I.gens])
        assert tangent_dimension(moved).dimension == base


def test_generator_permutation_invariance(catalog, rng):
    I = catalog["B5"].ideal
    base = tangent_dimension(I).dimension
    gens = list(I.gens)
    rng.shuffle(gens)
    assert tangent_dimension(Ideal(gens)).dimension == base


def test_syzygy_set_independence(catalog):
    # adding redundant Taylor syzygies does not change the kernel: recompute
    # with duplicated generators, which enlarges the presentation
    I = catalog["B6"].ideal
    doubled = Ideal(list(I.gens) + [I.gens[0]])
    assert tangent_dimension(doubled).dimension == tangent_dimension(I).dimension
