import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from hilb4n.gin import is_saturated
from hilb4n.hilbert import hilbert_function
from hilb4n.ideals import (
    FormSpace,
    Ideal,
    divide_exact,
    equal,
    forms_to_change,
    graded_monomial_basis,
    groebner_basis,
    initial_ideal,
    intersect,
    minimal_generators,
    normal_form,
    quotient,
    saturate,
    saturate_by_variable,
    saturate_irrelevant,
    saturating_form,
)
from hilb4n.orders import LEX
from hilb4n.poly import Polynomial, random_form, variables

x, y, z, t = variables()


def _contains_ideal(big, small):
    return all(normal_form(g, big).is_zero() for g in small.gens)


def test_inhomogeneous_generator_rejected():
    with pytest.raises(ValueError):
        Ideal([x + y * z])


def test_initial_ideal_examples(catalog):
    assert equal(initial_ideal(catalog["B5"].ideal), catalog["B5"].ideal)
    assert equal(initial_ideal(Ideal([x + y]), LEX), Ideal([x]))


def test_initial_ideal_of_generic_ci_is_b3(catalog, rng):
    from hilb4n.strata import gcd_forms

    # forced: a generic-coordinates complete intersection of two quadrics has
    # the regularity-3 catalog ideal as initial ideal
    from hilb4n.poly import LinearChange

    while True:
        f, g = random_form(rng, 2), random_form(rng, 2)
        if gcd_forms(f, g).homogeneous_degree() == 0:
            break
    change = LinearChange.random(rng)
    moved = Ideal([change.apply(f), change.apply(g)])
    assert equal(initial_ideal(moved), catalog["B3"].ideal)


def test_quotient_examples(catalog):
    assert equal(quotient(Ideal([x * x, x * y]), x), Ideal([x, y]))
    assert equal(quotient(Ideal([x * y]), y), Ideal([x]))
    b3 = catalog["B3"].ideal
    q = quotient(b3, t)
    # double inclusion
    assert _contains_ideal(q, b3)
    for g in q.gens:
        assert normal_form(g * t, b3).is_zero()
    assert equal(q, b3)


def test_quotient_by_zero_rejected(catalog):
    with pytest.raises(ValueError):
        quotient(catalog["B3"].ideal, Polynomial.zero())


def test_saturate_examples():
    assert equal(saturate(Ideal([x * t * t]), t), Ideal([x]))
    I = Ideal([(x * x - y * t) * t])
    sat = saturate(I, t)
    assert equal(sat, Ideal([x * x - y * t]))
    # idempotence
    assert equal(saturate(sat, t), sat)


def test_saturate_by_linear_form():
    I = Ideal([(x * x - y * t) * (x + y + t)])
    sat = saturate(I, x + y + t)
    assert equal(sat, Ideal([x * x - y * t]))


def test_forms_to_change_sends_each_form_to_its_variable():
    for nvars in (2, 4, 5):
        xs = variables(nvars)
        forms = [xs[1] + xs[0], *xs[2:], xs[0] - xs[-1].scale(3)]
        change = forms_to_change(forms)
        assert [change.apply(f) for f in forms] == list(xs)


def test_saturate_by_general_form(rng):
    q = x * x + y * z
    I = Ideal([(x * x - y * t) * q])
    assert equal(saturate(I, q), Ideal([x * x - y * t]))


def test_saturate_irrelevant_cone(catalog):
    I = Ideal([x * x, x * y, x * z, x * t**4])
    sat = saturate_irrelevant(I)
    assert equal(sat, Ideal([x]))
    assert equal(saturate_irrelevant(catalog["B6"].ideal), catalog["B6"].ideal)
    assert equal(saturate_irrelevant(Ideal([x * x, x * y, x * z, x * t])), Ideal([x]))
    # idempotence
    assert equal(saturate_irrelevant(sat), sat)


def test_unit_ideal_absorbs_linear_forms():
    one = Polynomial.constant(1, 4)
    assert groebner_basis([x + y, one]) == [one]
    assert groebner_basis([x + y, z * z - t * t, t * (x - y), one]) == [one]
    assert equal(Ideal([x + y, one]), Ideal([one]))


# ---------------------------------------------------------------------------
# the certified single-form saturation against the intersection route

def reference_saturate_irrelevant(I):
    """The intersection of the saturations by each variable, unit ones
    dropped: the irrelevant saturation before the single-form search."""
    sats = [saturate_by_variable(I, v) for v in range(I.nvars)]
    nontrivial = [s for s in sats if not any(g.homogeneous_degree() == 0 for g in s.gens)]
    if not nontrivial:
        return Ideal([Polynomial.constant(1, I.nvars)], I.nvars)
    return reduce(intersect, nontrivial)


FOUR_POINTS = Ideal([x * y, x * z, x * t, y * z, y * t, z * t])


def _saturation_inputs():
    from hilb4n.strata import sample_stratum

    rng = random.Random(909)
    m = (x, y, z, t)
    out = [
        Ideal([x * x, x * y, x * z, x * t**4]),  # the cone over a plane
        FOUR_POINTS,
        Ideal([g * v for g in FOUR_POINTS.gens for v in m]),
        Ideal([x * x, y * y, z * z, t * t, x * y + z * t]),  # m-primary
        Ideal([random_form(rng, 2) for _ in range(4)]),  # m-primary for these draws
    ]
    for _ in range(6):
        gens = [random_form(rng, rng.randint(1, 3), bound=2) for _ in range(rng.randint(1, 3))]
        J = Ideal([g * rng.choice(m) ** rng.randint(0, 2) for g in gens])
        out += [J, Ideal([g * v for g in J.gens for v in m])]  # J and J*m, unsaturated
    for name in ("V", "R3'", "R5"):
        I = sample_stratum(name, rng)
        out.append(Ideal(list(I.gens) + [t * t]))  # zero-dimensional
        out.append(Ideal([x * g for g in I.gens]))  # an extra plane
    return out


def test_saturate_irrelevant_matches_intersection_route():
    for I in _saturation_inputs():
        expected = reference_saturate_irrelevant(I)
        assert equal(saturate_irrelevant(I), expected), I
        assert is_saturated(I) == equal(expected, I), I


def test_saturating_form_needs_the_hilbert_polynomial_check():
    # every variable vanishes at one of the four coordinate points, so the
    # search passes all four variables and stops at the first moment form;
    # stopping at t, unchecked, would keep only the point (0:0:0:1)
    h, sat = saturating_form(FOUR_POINTS)
    assert h == x + y + z + t
    assert equal(sat, FOUR_POINTS)
    assert not equal(saturate(FOUR_POINTS, t), FOUR_POINTS)


def test_intersect_examples():
    assert equal(intersect(Ideal([x]), Ideal([y])), Ideal([x * y]))
    assert equal(
        intersect(Ideal([x, y]), Ideal([z, t])),
        Ideal([x * z, x * t, y * z, y * t]),
    )


def test_intersect_nonmonomial(rng):
    f = x * x - y * t
    inter = intersect(Ideal([f]), Ideal([t]))
    assert equal(inter, Ideal([f * t]))


def test_equal_examples(catalog):
    assert equal(Ideal([x, y]), Ideal([y, x + y]))
    assert not equal(catalog["B3"].ideal, catalog["B4"].ideal)


def test_gcd_lcm_adjunction(rng):
    # on principal ideals: gcd * lcm = f * g up to scalar
    from hilb4n.strata import gcd_forms

    for _ in range(10):
        f = random_form(rng, rng.randint(1, 2))
        g = random_form(rng, rng.randint(1, 2))
        inter = intersect(Ideal([f]), Ideal([g]))
        assert len(inter.gens) == 1
        lcm = inter.gens[0]
        gcd = gcd_forms(f, g)
        product = gcd * lcm
        ratio_ok = divide_exact(f * g, product) or divide_exact(product, f * g)
        assert ratio_ok is not None and ratio_ok.homogeneous_degree() == 0


def test_minimal_generators(catalog):
    gens = minimal_generators(Ideal([x, x + y, y, x * x, z * t]))
    assert sorted(g.homogeneous_degree() for g in gens) == [1, 1, 2]
    assert [g.homogeneous_degree() for g in minimal_generators(catalog["B6"].ideal)] == [1, 5, 6]


def test_graded_piece_dimension(catalog):
    b3 = catalog["B3"].ideal
    assert b3.graded_piece(3).dim == 8
    assert b3.graded_piece(2).dim == 2


# ---------------------------------------------------------------------------
# FormSpace on random small homogeneous generator sets

@st.composite
def forms(draw, nvars, degree):
    """A sparse form of the given degree with small integer coefficients
    (zero when every drawn coefficient is zero)."""
    terms = draw(st.dictionaries(
        st.sampled_from(graded_monomial_basis(degree, nvars)), st.integers(-3, 3),
        min_size=1, max_size=4,
    ))
    return Polynomial(terms, nvars)


@st.composite
def generator_sets(draw):
    nvars = draw(st.integers(2, 4))
    degrees = draw(st.lists(st.integers(1, 3), max_size=3))
    return nvars, [draw(forms(nvars, d)) for d in degrees]


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.integers(0, 4))
def test_form_space_dim_is_hilbert_function(gens_nvars, n):
    # the Macaulay-matrix rank against the standard monomials of the basis
    nvars, gens = gens_nvars
    assert FormSpace(gens, n, nvars).dim == hilbert_function(Ideal(gens, nvars), n)


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.integers(0, 4), st.data())
def test_form_space_coordinates_and_residues(gens_nvars, n, data):
    nvars, gens = gens_nvars
    space = FormSpace(gens, n, nvars)
    f = data.draw(forms(nvars, n))
    assert space.form(space.coords(f)) == f
    residue = space.reduce(f)
    assert space.contains(f) == residue.is_zero()
    assert space.contains(f - residue)
    for b in space.basis():
        assert space.contains(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_form_space_add_grows_exactly_off_the_span(nvars, n, data):
    fs = data.draw(st.lists(forms(nvars, n), min_size=2, max_size=5))
    fs.append(fs[0] + fs[1])  # never grows the span
    space = FormSpace([], n, nvars)
    for f in fs:
        dim, outside = space.dim, not space.contains(f)
        assert space.add(f) == outside
        assert space.dim == dim + outside
        assert space.contains(f)
    assert space.dim == FormSpace(fs, n, nvars).dim


@st.composite
def colon_inputs(draw):
    """1-3 nonzero forms of degree at most 3 in 3-4 variables, each times a
    power of a variable, and the variable to saturate by."""
    nvars = draw(st.integers(3, 4))
    gens = []
    for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        var = Polynomial.variable(draw(st.integers(0, nvars - 1)), nvars)
        gens.append(draw(forms(nvars, d).filter(bool)) * var ** draw(st.integers(0, 2)))
    return Ideal(gens, nvars), draw(st.integers(0, nvars - 1))


def _stable_colon(I, f):
    """I : f^infinity by the quotient loop, the reference route."""
    while not equal(nxt := quotient(I, f), I):
        I = nxt
    return I


@settings(max_examples=40, deadline=None, derandomize=True)
@given(colon_inputs())
def test_saturate_by_variable_is_the_stable_colon(ideal_var):
    I, v = ideal_var
    assert equal(saturate_by_variable(I, v), _stable_colon(I, Polynomial.variable(v, I.nvars)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(colon_inputs(), st.integers(1, 2), st.data())
def test_saturate_by_a_form_is_the_stable_colon(ideal_var, degree, data):
    # a form that is not a variable goes through the new variable w = f; the
    # first generator is multiplied by f so the saturation has work to do
    I, _ = ideal_var
    f = data.draw(forms(I.nvars, degree).filter(lambda f: len(f.terms) > 1))
    I = Ideal([I.gens[0] * f, *I.gens[1:]], I.nvars)
    assert equal(saturate(I, f), _stable_colon(I, f))


def test_form_space_rejects_inhomogeneous_generators():
    with pytest.raises(ValueError):
        FormSpace([x + y * z], 2)
