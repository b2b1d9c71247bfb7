import hashlib
import random
from fractions import Fraction

import pytest

from hilb4n.hilbert import (
    HilbertPolynomial,
    hilbert_function,
    quotient_hilbert_polynomial,
    regularity,
)
from hilb4n import verify
from hilb4n.ideals import FormSpace, Ideal, equal
from hilb4n.parser import format_ideal
from hilb4n.poly import (
    LinearChange,
    Polynomial,
    monomials_of_degree,
    random_form,
    variables,
)
from hilb4n.strata import (
    FOUR_N,
    PHI,
    CIShape,
    R3PrimeShape,
    R4Shape,
    R5Shape,
    R6Shape,
    RSFamilyShape,
    ShapeError,
    _sample_r5,
    _subring_contains,
    build_stratum_ideal,
    classify,
    coprime_quadrics,
    dimension_table,
    factor_quadric_net,
    gcd_forms,
    point_ideal,
    rs_family_ideal,
    sample_stratum,
    sample_stratum_with_shape,
    sample_rs_family,
)

x, y, z, t = variables()


def test_gcd_examples(rng):
    assert gcd_forms(x * y, x * z) == x
    assert gcd_forms((x + y) * (y + z), (x + y) * (z + t)) == x + y
    f, g = random_form(rng, 2), random_form(rng, 2)
    d = gcd_forms(f, g)
    assert d.homogeneous_degree() in (0, 1, 2)
    # the quintics of _extract_case1/2 share a quartic h
    h = random_form(rng, 4)
    ell1, ell2, q = x - 2 * z + t, 3 * y + z, random_form(rng, 2)
    assert gcd_forms(ell1 * h, ell2 * h) == h.monic()
    # unequal degrees, in both orders, and constants
    assert gcd_forms(ell1 * h, q * h) == h.monic()
    assert gcd_forms(q * h, ell1) == Polynomial.constant(1)
    assert gcd_forms(x * y * z, (x * z).scale(5)) == x * z
    assert gcd_forms(ell2 * q, ell2**3 * x) == ell2.monic()
    assert gcd_forms(Polynomial.constant(3), x) == gcd_forms(x, Polynomial.constant(3))
    # proportional forms
    assert gcd_forms(h, h.scale(Fraction(-3, 2))) == h.monic()
    assert gcd_forms(ell1, ell1.scale(7)) == ell1.monic()


def test_gcd_of_generic_quadrics_is_one(rng):
    # coprimality certified by the graded dimension: dim (f,g)_3 = 8
    for _ in range(5):
        f, g = random_form(rng, 2), random_form(rng, 2)
        if gcd_forms(f, g).homogeneous_degree() == 0:
            assert hilbert_function(Ideal([f, g]), 3) == 8


def _product_span_contains(frame, f):
    """The former route: f against the span of the products of the frame
    of f's degree."""
    degree = f.homogeneous_degree()
    products = []
    for e in monomials_of_degree(degree, len(frame)):
        p = Polynomial.constant(1, f.nvars)
        for form, k in zip(frame, e):
            p = p * form**k
        products.append(p)
    return FormSpace(products, degree, f.nvars).contains(f)


def test_subring_contains_matches_product_span():
    # R5 complement frames of 3 forms and their planes of 2 forms, each with
    # a form outside it; draws of both cases, planar ones and a torus term
    answers = []
    for seed in range(7000, 7012):
        shape = _sample_r5(random.Random(seed), 5)
        frame = shape.complement_frame()
        for forms, outside in ((frame, shape.ell), (frame[:2], frame[2])):
            for f in (shape.h, shape.h + outside**4, shape.ell1 * shape.ell2,
                      shape.ell2 * outside):
                answer = _subring_contains(forms, f)
                assert answer == _product_span_contains(forms, f), (seed, len(forms), f)
                answers.append(answer)
    assert True in answers and False in answers
    assert _subring_contains([x + y, z], (x + y) ** 2 * z)
    assert not _subring_contains([x + y, z], x**2 * z)
    # a dependent frame generates the subring of its span
    assert _subring_contains([x + y, (x + y).scale(2), z], (x + y) * z)


def test_r5_validate_agrees_with_the_stratum_contract():
    # raw draws of both cases, with and without a torus term: validate
    # accepts exactly the shapes whose ideal has the Hilbert function and the
    # regularity of R5; a draw whose quintics miss the point V(L) loses it
    kinds, point_rejections = set(), 0
    for seed in range(7000, 7020):
        shape = _sample_r5(random.Random(seed), 5)
        kinds.add((shape.case, shape.alpha != 0))
        I = Ideal(shape.generators())
        contract = (tuple(hilbert_function(I, n) for n in range(9)) == PHI[5]
                    and regularity(I) == 5)
        try:
            shape.validate()
        except ShapeError as e:
            assert not contract, seed
            if "V(L)" in str(e):
                point_rejections += 1
                assert quotient_hilbert_polynomial(I) == HilbertPolynomial([-1, 4])
        else:
            assert contract, seed
            assert equal(build_stratum_ideal(shape), I)
    assert kinds == {(1, False), (2, False), (2, True)}
    assert point_rejections


def test_coprime_quadrics_agrees_with_gcd(rng):
    def quadric_pair(I):
        quadrics = FormSpace(I.gens, 2, I.nvars).basis()
        assert len(quadrics) == 2
        return quadrics

    pairs = [quadric_pair(sample_stratum(label, rng)) for label in ("V", "V", "R3'", "R3'")]
    f = random_form(rng, 2)
    pairs += [(f, f.scale(Fraction(-3, 2))), (x * y, x * z), (x * x, y * y)]
    for f, g in pairs:
        assert coprime_quadrics(f, g) == (gcd_forms(f, g).homogeneous_degree() == 0)
    assert [coprime_quadrics(f, g) for f, g in pairs] == [True, True, False, False,
                                                         False, False, True]


def test_factor_quadric_net_examples():
    ell, L = factor_quadric_net([x * y, x * z, x * t])
    assert ell == x and [f.leading_monomial() for f in L]
    ell2, L2 = factor_quadric_net([x * x, x * y, x * z])
    assert ell2 == x
    assert factor_quadric_net([x * x, y * y, z * z]) is None


def test_factor_quadric_net_roundtrip(rng):
    for _ in range(5):
        ell = random_form(rng, 1)
        forms = [random_form(rng, 1) for _ in range(3)]
        try:
            result = factor_quadric_net([ell * f for f in forms])
        except ValueError:
            continue  # dependent draw
        assert result is not None
        ell_found, L = result
        rebuilt = Ideal([ell_found * f for f in L])
        assert equal(rebuilt, Ideal([ell * f for f in forms]))


def test_factor_quadric_net_wrong_size():
    with pytest.raises(ValueError):
        factor_quadric_net([x * y, x * z])


def test_build_examples_match_catalog(catalog):
    b4 = build_stratum_ideal(R4Shape(ell=x, ell1=x, ell2=y, q=z * z, p=y**4))
    assert equal(b4, catalog["B4"].ideal)
    b6 = build_stratum_ideal(R6Shape(ell=x, f=y**4, h=y, g=z * z))
    assert equal(b6, catalog["B6"].ideal)


def test_build_r5_case1_example():
    shape = R5Shape(case=1, ell=t, L=(x, y, z), ell1=x, ell2=y, h=x**4)
    I = build_stratum_ideal(shape)
    assert equal(I, Ideal([t * x, t * y, t * z, x**5, x**4 * y]))
    assert tuple(hilbert_function(I, n) for n in range(6)) == (0, 0, 3, 9, 19, 36)
    assert hilbert_function(Ideal([t * x, t * y, t * z]), 5) == 34


def test_shape_validation_names_clause():
    with pytest.raises(ShapeError, match="independent"):
        build_stratum_ideal(R4Shape(ell=x, ell1=y, ell2=y, q=z * z, p=y**4))
    with pytest.raises(ShapeError, match="divisible"):
        R3PrimeShape(ell=x, ell1=x, ell2=y, cubic=x * x * y).validate()
    with pytest.raises(ShapeError, match="common divisor"):
        CIShape(x * y, x * z).validate()
    with pytest.raises(ShapeError, match="must not lie"):
        R6Shape(ell=x, f=y**4, h=y, g=x * y).validate()


def test_sampler_contracts(rng):
    for label, reg in (("V", 3), ("R3'", 3), ("R4", 4), ("R5", 5), ("R6", 6)):
        I = sample_stratum(label, rng)
        assert tuple(hilbert_function(I, n) for n in range(9)) == PHI[reg]


# SHA-256 of three seeded samples per stratum, as ``format_ideal`` text.  The
# bench pools are drawn the same way, so a change in how the samplers use
# their generator shows here first.
DRAW_DIGESTS = {
    "V": "7f0cf2dcd05d8f7eaa90c457b7b9e041fbb14f2c62b91d46373a6741a3217a57",
    "R3'": "37298ab3e7db5d900903fadd75e48008398a4654360d14c88365542f5c363307",
    "R4": "142d7c7750d095c6d676cf3dcf8db8980be8b455a9cfacd0cd3516aad6b60077",
    "R5": "93fcc19249296f2becff9ad5a480e5bdf78cb459ca0e3f40ac2a35369f2cbf38",
    "R6": "69ca3c542eab610b83d6ef0d2e24edf7413e30b4a418370fe40b8a5176a4d2f7",
}


def test_seeded_draws_are_pinned():
    for label, digest in DRAW_DIGESTS.items():
        rng = random.Random(f"draws:{label}")
        text = "\n\n".join(format_ideal(sample_stratum(label, rng)) for _ in range(3))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, label


def test_a_contract_break_is_a_counterexample(monkeypatch):
    # with PHI[3] wrong, the first valid V shape is raised, not drawn again,
    # and every sample of the regularity-3 suites counts as a failure
    monkeypatch.setitem(PHI, 3, (0,) * 9)
    validated, validate = [], CIShape.validate
    monkeypatch.setattr(CIShape, "validate", lambda self: validated.append(self) or validate(self))
    with pytest.raises(ArithmeticError, match="of stratum V has Hilbert function") as raised:
        sample_stratum_with_shape("V", random.Random(1))
    assert len(validated) == 1 and repr(validated[0]) in str(raised.value)
    items = verify.run_prop21(verify.DEFAULT_SEED)
    assert [item.computed for item in items] == [{"samples": 100, "failures": 100}] * 2
    assert {item.status for item in items} == {"fail"}
    assert verify._sample_failures("V", 3, random.Random(2), lambda shape, I: True) == [3, 3]


def test_classify_examples(catalog, rng):
    rep = classify(catalog["B6"].ideal)
    assert (rep.regularity, rep.stratum) == (6, "R6")
    assert rep.components_certain == ("H_RS",)
    rep = classify(catalog["B4"].ideal)
    assert (rep.regularity, rep.stratum) == (4, "R4")
    assert rep.components_certain == ("H_RS",)
    I = sample_stratum("V", rng)
    rep = classify(I)
    assert (rep.stratum, rep.ci) == ("V", True)
    assert rep.components_certain == ("H_VA",)
    assert rep.components_unknown == ("H_RS",)


def test_classify_rejects_wrong_input(catalog):
    with pytest.raises(ValueError, match="4n"):
        classify(Ideal([x]))
    with pytest.raises(ValueError, match="saturated"):
        classify(Ideal([g * v for g in catalog["B3"].ideal.gens for v in (x, y, z, t)]))


def test_classify_is_change_invariant(rng):
    I = sample_stratum("R3'", rng)
    base = classify(I)
    for _ in range(5):
        g = LinearChange.random(rng, bound=6)
        moved = Ideal([g.apply(p) for p in I.gens])
        rep = classify(moved)
        assert (rep.stratum, rep.regularity, rep.components_certain) == (
            base.stratum,
            base.regularity,
            base.components_certain,
        )


def test_dimension_table_values():
    table = dimension_table()
    assert {name: e.dimension for name, e in table.items()} == {
        "V": 16,
        "R3'": 15,
        "R4": 23,
        "R5": 22,
        "R6": 21,
        "H1": 19,
        "Hq": 6,
        "Z": 23,
    }
    for entry in table.values():
        assert sum(v for _, v in entry.terms) == entry.dimension


def test_rs_family_ideal(rng):
    I = sample_rs_family(rng)
    assert quotient_hilbert_polynomial(I) == FOUR_N
    rep = classify(I)
    assert rep.stratum == "R4"


def test_rs_family_rejects_coincident_points():
    shape = RSFamilyShape(
        ell=x,
        f=y**4 + z**4 + t**4,
        pt1=(Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        pt2=(Fraction(0), Fraction(2), Fraction(0), Fraction(0)),
    )
    with pytest.raises(ShapeError, match="distinct"):
        rs_family_ideal(shape)


def test_rs_family_rejects_point_on_curve():
    shape = RSFamilyShape(
        ell=x,
        f=y**4,
        pt1=(Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        pt2=(Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
    )
    with pytest.raises(ShapeError, match="curve"):
        rs_family_ideal(shape)


def test_point_ideal():
    P = point_ideal((1, 2, 3, 4))
    assert all(g.homogeneous_degree() == 1 for g in P.gens)
    for g in P.gens:
        assert g.evaluate((1, 2, 3, 4)) == 0
