import random

import pytest

from hilb4n import groebner
from hilb4n.groebner import gb_syzygies, normal_form_poly
from hilb4n.hilbert import regularity
from hilb4n.ideals import FormSpace, Ideal, intersect, saturate_irrelevant, saturating_form
from hilb4n.poly import LinearChange, variables
from hilb4n.strata import _subring_contains, sample_stratum, sample_stratum_with_shape
from hilb4n.tangent import TangentReport, _section_space, _standard_monomials, tangent_dimension

x, y, z, t = variables()


def test_lex_point_dimension(catalog):
    report = tangent_dimension(catalog["B6"].ideal)
    assert report.dimension == 23
    assert sorted(report.generator_degrees) == [1, 5, 6]


def test_catalog_reports_pinned(catalog):
    # the row count is pinned too, so a change in the constraint system shows
    pinned = {"B3": (16, (2, 2, 3), 60), "B4": (24, (2, 2, 3, 4), 164),
              "B5": (27, (2, 2, 2, 5, 5), 336), "B6": (23, (1, 5, 6), 140)}
    for name, report in pinned.items():
        assert tangent_dimension(catalog[name].ideal) == TangentReport(*report)


def _reference_section_space(I, ell, k, degree_r):
    """The former route: the degree-R piece of the saturation of I + (ell^k),
    reduced modulo I."""
    bumped = saturate_irrelevant(Ideal(list(I.gens) + [ell**k], I.nvars))
    gb = I.groebner_basis()
    reduced = (normal_form_poly(w, gb) for w in FormSpace(bumped.gens, degree_r, I.nvars).basis())
    return [w for w in reduced if w]


def test_section_space_matches_reference(catalog, rng):
    ideals = [catalog[name].ideal for name in ("B3", "B4", "B5", "B6")]
    ideals += [sample_stratum("V", rng), sample_stratum("R4", rng)]
    # at monomial ideals and at these samples every u lies in the saturation
    # itself; at this R5 draw the forms u - NF(u) have tails
    ideals.append(sample_stratum_with_shape("R5", random.Random("tangent-points:4:(2, 7)"))[1])
    for I in ideals:
        ell = saturating_form(I)[0]
        gb = I.groebner_basis()
        degrees = {g.homogeneous_degree() for g in gb}
        degree_r = max(regularity(I), max(degrees))
        in_gens = [g.leading_monomial() for g in gb]
        standard = _standard_monomials(in_gens, degree_r, I.nvars)
        for k in {degree_r - d for d in degrees if d < degree_r}:
            basis = _section_space(I, ell, k, standard)
            reference = _reference_section_space(I, ell, k, degree_r)
            # the same subspace of (P/I)_R, given by reduced forms with
            # distinct leading monomials
            assert all(normal_form_poly(w, gb) == w for w in basis)
            assert len({w.leading_monomial() for w in basis}) == len(basis)
            assert FormSpace(basis, degree_r, I.nvars).dim == len(basis)
            assert FormSpace(reference, degree_r, I.nvars).dim == len(basis)
            assert FormSpace(basis + reference, degree_r, I.nvars).dim == len(basis)


def test_r5_planar_draw_has_the_larger_tangent_space():
    # two case-2 draws without a torus term: only the planar one, whose ell1,
    # ell2 and h avoid w, has the tangent space of B5
    for key, planar, dimension in (("tangent-points:1:(1, 7)", True, 27),
                                   ("tangent-points:4:(2, 7)", False, 23)):
        shape, I = sample_stratum_with_shape("R5", random.Random(key))
        assert (shape.case, shape.alpha) == (2, 0)
        plane = shape.complement_frame()[:2]
        assert planar == (FormSpace(plane, 1).contains(shape.ell1)
                          and FormSpace(plane, 1).contains(shape.ell2)
                          and _subring_contains(plane, shape.h))
        assert tangent_dimension(I).dimension == dimension


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
            moved = tangent_dimension(Ideal([g.apply(p) for p in I.gens]))
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
