from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilb4n.poly import (
    FAMILY_VARS,
    LinearChange,
    Polynomial,
    count_monomials,
    monomials_of_degree,
    random_form,
    variables,
)

x, y, z, t = variables()


def test_zero_terms_dropped():
    p = Polynomial({(1, 0, 0, 0): 1, (0, 1, 0, 0): 0})
    assert list(p.terms) == [(1, 0, 0, 0)]


def test_homogeneous_degree():
    assert (x * y).homogeneous_degree() == 2
    assert (x + y * z).homogeneous_degree() is None
    assert Polynomial.zero().is_homogeneous()


def test_arithmetic_ring_axioms(rng):
    for _ in range(40):
        p = random_form(rng, rng.randint(1, 3))
        q = random_form(rng, rng.randint(1, 3))
        r = random_form(rng, rng.randint(1, 3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p - p == Polynomial.zero()


def test_scalar_field_axioms(rng):
    # exact rational scalars: canonical form makes equality structural
    for _ in range(100):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert a + (b + c) == (a + b) + c
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a
        assert Fraction(a.numerator, a.denominator) == a
        assert a.denominator > 0


def test_count_monomials():
    for n in range(8):
        assert count_monomials(n, 4) == len(list(monomials_of_degree(n, 4)))


def test_apply_change_shear():
    # the shear t -> -x + t sends t*x to -x^2 + t*x
    shear = LinearChange([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 1]])
    assert shear.apply(t * x) == -(x * x) + t * x


def test_apply_change_identity(rng):
    identity = LinearChange.identity()
    p = random_form(rng, 3)
    assert identity.apply(p) == p


def test_apply_change_scaling():
    # y -> (1/4) y scales y^2 by 1/16
    g = LinearChange([[1, 0, 0, 0], [0, Fraction(1, 4), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert g.apply(y * y) == (y * y).scale(Fraction(1, 16))


def test_apply_change_is_ring_map(rng):
    g = LinearChange.random(rng)
    p = random_form(rng, 2)
    q = random_form(rng, 3)
    assert g.apply(p * q) == g.apply(p) * g.apply(q)
    assert g.apply(p + p) == g.apply(p) + g.apply(p)


def test_apply_change_roundtrip(rng):
    for _ in range(10):
        g = LinearChange.random(rng)
        p = random_form(rng, rng.randint(1, 4))
        assert g.inverse().apply(g.apply(p)) == p


def test_apply_change_preserves_degree(rng):
    g = LinearChange.random(rng)
    p = random_form(rng, 3)
    assert g.apply(p).homogeneous_degree() == 3


def test_singular_change_rejected():
    with pytest.raises(ValueError):
        LinearChange([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


# ---------------------------------------------------------------------------
# the integer substitution kernel against the term-by-term reference

def _reference_substitute(p, images):
    """Term-by-term substitution with Fraction polynomial products, as an
    oracle for Polynomial.substitute."""
    tgt = images[0].nvars if images else p.nvars
    powers = [{0: Polynomial.constant(1, tgt)} for _ in images]
    out = Polynomial.zero(tgt)
    for e, c in p.terms.items():
        term = Polynomial.constant(c, tgt)
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            cache = powers[i]
            if ei not in cache:
                q = cache[max(cache)]
                for k in range(max(cache) + 1, ei + 1):
                    q = q * images[i]
                    cache[k] = q
            term = term * cache[ei]
        out = out + term
    return out


SUBST = settings(max_examples=40, deadline=None)
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def polynomials(draw, nvars=4, max_degree=4, max_terms=6):
    monos = [e for d in range(max_degree + 1) for e in monomials_of_degree(d, nvars)]
    terms = draw(st.lists(st.tuples(st.sampled_from(monos), RATIONALS), max_size=max_terms))
    return Polynomial(terms, nvars)


@st.composite
def changes(draw):
    m = draw(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=4, max_size=4))
    try:
        return LinearChange(m)
    except ValueError:
        return LinearChange.identity()


def _agree(p, images):
    got = p.substitute(images)
    want = _reference_substitute(p, images)
    assert got == want and got.nvars == want.nvars
    assert all(type(c) is Fraction and c for c in got.terms.values())


@SUBST
@given(polynomials(), changes())
def test_substitute_matches_reference_under_changes(p, g):
    _agree(p, g.images())
    _agree(p, g.inverse().images())


@SUBST
@given(polynomials(nvars=3), st.lists(polynomials(max_degree=1), min_size=3, max_size=3))
def test_substitute_matches_reference_three_to_four(p, frame):
    _agree(p, frame)


@SUBST
@given(polynomials(), st.lists(RATIONALS, min_size=4, max_size=4),
       st.lists(polynomials(nvars=5, max_degree=2, max_terms=3), min_size=5, max_size=5))
def test_substitute_matches_reference_four_to_five(p, scales, images):
    # the shear t -> t - a*x of the family ring, then arbitrary images
    n = len(FAMILY_VARS)
    x5, y5, z5, t5, a = (Polynomial.variable(i, n) for i in range(n))
    p5 = p.extend()
    _agree(p5, [x5, y5, z5, t5 - a * x5, a])
    _agree(p5, images)
    _agree(p, [v.scale(c) for v, c in zip((x5, y5, z5, t5), scales)])


@SUBST
@given(polynomials(), RATIONALS, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_substitute_matches_reference_scaled_monomials(p, value, weights):
    value = value or Fraction(1)
    _agree(p, [Polynomial.variable(i).scale(value ** w) for i, w in enumerate(weights)])


@SUBST
@given(RATIONALS, changes())
def test_substitute_zero_and_constants(c, g):
    for p in (Polynomial.zero(), Polynomial.constant(c)):
        _agree(p, g.images())
    assert Polynomial.zero().substitute(g.images()) == Polynomial.zero()
    if c:
        assert Polynomial.constant(c).substitute(g.images()) == Polynomial.constant(c)


@SUBST
@given(polynomials(), changes())
def test_apply_change_inverse_roundtrip_property(p, g):
    assert g.inverse().apply(g.apply(p)) == p
