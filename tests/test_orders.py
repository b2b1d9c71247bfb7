import random

import pytest
from hypothesis import given, settings, strategies as st

from hilb4n.groebner import _mul_int, _to_int_poly, normal_form_poly
from hilb4n.orders import (
    DEGREVLEX,
    EXPONENT_LIMIT,
    LEX,
    BlockOrder,
    DegRevLex,
    Lex,
    WeightOrder,
    elimination_order,
    order_by_name,
)
from hilb4n.poly import monomial_divides, monomial_mul, monomials_of_degree, variables


def test_degrevlex_examples():
    # x^2 > x*y, x*t < y^2
    assert DEGREVLEX.key((2, 0, 0, 0)) > DEGREVLEX.key((1, 1, 0, 0))
    assert DEGREVLEX.key((1, 0, 0, 1)) < DEGREVLEX.key((0, 2, 0, 0))


def test_lex_example():
    assert LEX.key((1, 0, 0, 1)) > LEX.key((0, 2, 0, 0))


def test_equal_iff_identical():
    assert DEGREVLEX.key((1, 2, 0, 0)) == DEGREVLEX.key((1, 2, 0, 0))
    assert DEGREVLEX.key((1, 2, 0, 0)) != DEGREVLEX.key((2, 1, 0, 0))


@pytest.mark.parametrize(
    "order",
    [DEGREVLEX, LEX, WeightOrder((3, 1, 1, 0), DEGREVLEX), BlockOrder(1, LEX, DEGREVLEX)],
)
def test_multiplicativity(order):
    rng = random.Random(7)
    monos = [m for d in range(0, 9) for m in monomials_of_degree(d, 4)]
    for _ in range(300):
        a, b, c = (rng.choice(monos) for _ in range(3))
        ka, kb = order.key(a), order.key(b)
        kac, kbc = order.key(monomial_mul(a, c)), order.key(monomial_mul(b, c))
        assert (ka < kb, ka == kb) == (kac < kbc, kac == kbc)


def test_degrevlex_is_graded():
    rng = random.Random(11)
    for _ in range(200):
        d1, d2 = rng.randint(0, 6), rng.randint(0, 6)
        a = rng.choice(list(monomials_of_degree(d1, 4)))
        b = rng.choice(list(monomials_of_degree(d2, 4)))
        if d1 != d2:
            assert (DEGREVLEX.key(a) > DEGREVLEX.key(b)) == (d1 > d2)


def test_block_order_eliminates():
    order = BlockOrder(1, DEGREVLEX, DEGREVLEX)
    # any monomial with the first variable beats any without
    assert order.key((1, 0, 0, 0)) > order.key((0, 5, 5, 5))


def test_order_by_name():
    assert order_by_name("lex") is LEX
    with pytest.raises(ValueError):
        order_by_name("mystery")


# ---------------------------------------------------------------------------
# the packed keys against the tuple keys they replaced

def reference_key(order, e):
    """The tuple sort key of e under order, as the orders defined it before
    monomials were packed into one integer."""
    if isinstance(order, Lex):
        return e
    if isinstance(order, DegRevLex):
        return (sum(e), tuple(-x for x in reversed(e)))
    if isinstance(order, WeightOrder):
        return (sum(w * x for w, x in zip(order.weights, e)), reference_key(order.tiebreak, e))
    if isinstance(order, BlockOrder):
        return (reference_key(order.first, e[: order.split]),
                reference_key(order.second, e[order.split :]))
    raise TypeError(order)


PACKED_ORDERS = [
    (DEGREVLEX, 4),
    (DEGREVLEX, 5),
    (LEX, 4),
    (WeightOrder((1, 3, 0, 2), DEGREVLEX), 4),
    (BlockOrder(1, LEX, DEGREVLEX), 4),
    (elimination_order(1), 5),
]
EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from([EXPONENT_LIMIT]), st.integers(0, EXPONENT_LIMIT))


@st.composite
def monomial_pairs(draw):
    """An order, its variable count and two monomials whose product stays
    within the field limit."""
    order, nvars = draw(st.sampled_from(PACKED_ORDERS))
    a = tuple(draw(st.lists(EXPONENTS, min_size=nvars, max_size=nvars)))
    b = tuple(draw(st.integers(0, EXPONENT_LIMIT - x) | st.integers(0, min(3, EXPONENT_LIMIT - x)))
              for x in a)
    return order, nvars, a, b


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_packed_keys_match_the_tuple_keys(case):
    order, nvars, a, b = case
    packing = order.packing(nvars)
    ka, kb = order.key(a), order.key(b)
    assert (ka < kb) == (reference_key(order, a) < reference_key(order, b))
    assert (ka == kb) == (a == b)
    assert ka + kb == order.key(monomial_mul(a, b))
    assert packing.divides(ka, kb) == monomial_divides(a, b)
    assert packing.divides(kb, ka) == monomial_divides(b, a)
    assert packing.divides(ka, ka + kb)
    assert packing.exponents(ka) == a and packing.exponents(kb) == b
    assert packing.exponents(order.key((EXPONENT_LIMIT,) * nvars)) == (EXPONENT_LIMIT,) * nvars


def test_exponent_past_the_field_width_overflows():
    x, y, z, t = variables()
    with pytest.raises(OverflowError):
        DEGREVLEX.key((EXPONENT_LIMIT + 1, 0, 0, 0))
    # the product of two valid monomials sets a guard bit
    top = _to_int_poly(x**EXPONENT_LIMIT, DEGREVLEX)[0]
    with pytest.raises(OverflowError):
        _mul_int(top, _to_int_poly(x * y, DEGREVLEX)[0], DEGREVLEX.packing(4))
    # so does a reduction step: y -> x pushes x^LIMIT * y past the limit
    with pytest.raises(OverflowError):
        normal_form_poly(x**EXPONENT_LIMIT * y, [y - x])


def test_weights_must_be_non_negative_and_fit_the_ring():
    with pytest.raises(ValueError):
        WeightOrder((1, -1, 0, 0), DEGREVLEX).key((1, 0, 0, 0))
    with pytest.raises(ValueError):
        WeightOrder((1, 1, 1), DEGREVLEX).key((1, 0, 0, 0))
