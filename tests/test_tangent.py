import pytest

from hilb4n import groebner
from hilb4n.groebner import gb_syzygies
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


def test_linear_change_invariance(catalog, rng):
    # a V sample's reduced basis has a cubic beyond its two minimal quadrics,
    # and B5 stops being monomial after a change of coordinates
    for I, changes in ((sample_stratum("R3'", rng), 5), (sample_stratum("V", rng), 2),
                       (catalog["B5"].ideal, 2)):
        base = tangent_dimension(I)
        for _ in range(changes):
            g = LinearChange.random(rng, bound=5)
            moved = tangent_dimension(Ideal([apply_change(p, g) for p in I.gens]))
            assert moved.dimension == base.dimension
            assert moved.generator_degrees == base.generator_degrees


def test_generator_permutation_invariance(catalog, rng):
    I = catalog["B5"].ideal
    base = tangent_dimension(I).dimension
    gens = list(I.gens)
    rng.shuffle(gens)
    assert tangent_dimension(Ideal(gens)).dimension == base


def test_syzygy_set_independence(catalog, monkeypatch):
    # redundant syzygies (a repeated row and multiples of every row by linear
    # forms) do not change the kernel
    def with_redundant_rows(gb):
        rows = gb_syzygies(gb)
        return rows + rows[:1] + [[p * v for p in row] for row in rows for v in (x, z + t)]

    for name in ("B4", "B6"):
        I = catalog[name].ideal
        base = tangent_dimension(I)
        monkeypatch.setattr(groebner, "gb_syzygies", with_redundant_rows)
        padded = tangent_dimension(I)
        monkeypatch.undo()
        assert padded.dimension == base.dimension
        assert padded.constraint_count > base.constraint_count
