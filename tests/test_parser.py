from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hilb4n.hilbert import HilbertPolynomial
from hilb4n.ideals import equal
from hilb4n.parser import (
    ParseError,
    format_hilbert_polynomial,
    format_ideal,
    parse_family,
    parse_hilbert_polynomial,
    parse_ideal,
    parse_polynomial,
)
from hilb4n.poly import Polynomial, format_polynomial, variables

x, y, z, t = variables()


def test_parse_catalog_generators(catalog):
    doc = parse_ideal("x^2; x*y; y^3")
    assert equal(doc.ideal(), catalog["B3"].ideal)


def test_exact_coefficient():
    p = parse_polynomial("x*y - 3*z*t")
    assert p.coefficient((0, 0, 1, 1)) == Fraction(-3)


def test_rational_coefficient():
    p = parse_polynomial("1/2*x^2 - 2/3*y^2")
    assert p.coefficient((2, 0, 0, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 2, 0, 0)) == Fraction(-2, 3)


def test_newline_separator():
    doc = parse_ideal("x^2\nx*y\ny^3")
    assert len(doc.generators) == 3


def test_inhomogeneous_rejected():
    with pytest.raises(ParseError, match="inhomogeneous"):
        parse_ideal("x + y^2")


def test_unknown_variable_with_position():
    with pytest.raises(ParseError) as err:
        parse_ideal("x*y;\nx + w^2")
    assert err.value.line == 2
    assert "w" in str(err.value)


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y")
    assert err.value.line == 1 and err.value.column == 5


def test_zero_denominator():
    with pytest.raises(ParseError, match="denominator"):
        parse_polynomial("1/0*x")


def test_roundtrip(catalog, rng):
    from hilb4n.poly import random_form
    from hilb4n.ideals import Ideal

    for _ in range(10):
        I = Ideal([random_form(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
        text = format_ideal(I)
        assert equal(parse_ideal(text).ideal(), I)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(
    st.tuples(*[st.integers(0, 6)] * 4), st.fractions(max_denominator=40), max_size=5,
))
def test_printed_polynomial_parses_back(terms):
    p = Polynomial(terms, 4)
    assert parse_polynomial(format_polynomial(p)) == p


def test_parse_hilbert_polynomial():
    assert parse_hilbert_polynomial("4*n") == HilbertPolynomial([0, 4])
    assert parse_hilbert_polynomial("3*n + 1") == HilbertPolynomial([1, 3])
    assert format_hilbert_polynomial(HilbertPolynomial([0, 4])) == "4*n"
    roundtrip = parse_hilbert_polynomial(format_hilbert_polynomial(HilbertPolynomial([1, -2, 3])))
    assert roundtrip == HilbertPolynomial([1, -2, 3])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(max_denominator=40), max_size=5))
@example([])
@example([0, 0, 0])
@example([Fraction(1, 3), 0, Fraction(-7, 2)])
def test_printed_hilbert_polynomial_parses_back(coeffs):
    p = HilbertPolynomial(coeffs)
    assert parse_hilbert_polynomial(format_hilbert_polynomial(p)) == p


def test_parse_family():
    doc = parse_family("x*y + a*y^2; x*z - a*t^2")
    assert len(doc.generators) == 2
    assert doc.variables[-1] == "a"
    with pytest.raises(ParseError, match="homogeneous"):
        parse_family("x + a*y^2")
