from collections import namedtuple
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from hilb4n.groebner import (
    _Basis,
    _normal_form_int,
    _Prepared,
    _to_int_poly,
    buchberger,
    division_quotients,
    gb_syzygies,
    normal_form_poly,
    reduce_by_linear_forms,
)
from hilb4n.orders import DEGREVLEX, LEX, WeightOrder, elimination_order
from hilb4n.poly import (
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_mul,
    monomials_of_degree,
    random_form,
    variables,
)

x, y, z, t = variables()
B3 = [x * x, x * y, y**3]


def _is_reduced_basis(gb, order=DEGREVLEX):
    lms = [g.leading_monomial(order) for g in gb]
    for i, g in enumerate(gb):
        assert g.leading_coefficient(order) == 1
        for e in g.terms:
            assert not any(
                monomial_divides(lms[k], e) for k in range(len(gb)) if k != i
            ), "tail divisible by another leading monomial"
        assert not any(
            monomial_divides(lms[k], lms[i]) for k in range(len(gb)) if k != i
        )


def _spoly(f, g, order=DEGREVLEX):
    from hilb4n.poly import monomial_lcm

    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = monomial_lcm(lf, lg)
    return f.mul_monomial(monomial_div(lcm, lf)) * g.leading_coefficient(order) - g.mul_monomial(
        monomial_div(lcm, lg)
    ) * f.leading_coefficient(order)


def test_normal_form_examples():
    assert normal_form_poly(x * x * y, B3).is_zero()
    assert normal_form_poly(t**3, B3) == t**3
    assert normal_form_poly(y**3 + z * t * t, B3) == z * t * t


def test_normal_form_membership_difference():
    # f - nf(f) lies in the ideal
    f = x * x * z + y**3 * t - z * t * t * t
    nf = normal_form_poly(f, B3)
    assert normal_form_poly(f - nf, B3).is_zero()


def test_monomial_ideal_is_own_basis():
    gb = buchberger([x * x, x * y, x * z * z, y**4])
    assert sorted(g.leading_monomial() for g in gb) == sorted(
        [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 2, 0), (0, 4, 0, 0)]
    )


def test_linear_algebra_degree_one():
    gb = buchberger([x, x + y])
    assert gb == [x, y]


def test_buchberger_criterion_oracle():
    # every S-polynomial of the output reduces to zero, and the basis is reduced
    gens = [x * x - y * t, x * y - z * t]
    gb = buchberger(gens)
    _is_reduced_basis(gb)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form_poly(_spoly(gb[i], gb[j]), gb).is_zero()
    # the input generators live in the ideal
    for g in gens:
        assert normal_form_poly(g, gb).is_zero()


def test_reduced_basis_unique_under_permutation(rng):
    for _ in range(15):
        gens = [random_form(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(gens) == buchberger(shuffled)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
def test_membership_of_random_combinations(order, rng):
    gens = [random_form(rng, 2), random_form(rng, 2)]
    gb = buchberger(gens, order)
    combo = gens[0] * random_form(rng, 2) + gens[1] * random_form(rng, 2)
    assert normal_form_poly(combo, gb, order).is_zero()


def test_division_quotients_identity(rng):
    gens = [random_form(rng, 2), random_form(rng, 1)]
    f = random_form(rng, 3)
    r, quots = division_quotients(f, gens)
    recomposed = r
    for q, g in zip(quots, gens):
        recomposed = recomposed + q * g
    assert recomposed == f


def test_gb_syzygies_annihilate(rng):
    gens = [random_form(rng, 2), random_form(rng, 2)]
    gb = buchberger(gens)
    for row in gb_syzygies(gb):
        total = Polynomial.zero(4)
        for coeff, g in zip(row, gb):
            total = total + coeff * g
        assert total.is_zero()


def _syzygy_span_dimension(syzygies, degrees, degree):
    """Dimension of the degree-``degree`` part of the submodule of
    directsum_i S(-degrees[i]) that the rows generate."""
    from hilb4n.ideals import FormSpace
    from hilb4n.linalg import Subspace

    spaces = [FormSpace((), degree - d) for d in degrees]
    vectors = []
    for row in syzygies:
        row_degree = next(p.homogeneous_degree() + d for p, d in zip(row, degrees) if p)
        for m in monomials_of_degree(degree - row_degree, 4):
            vectors.append([c for p, space in zip(row, spaces)
                            for c in space.coords(p.mul_monomial(m) if p else p)])
    return Subspace(vectors, sum(len(space.monos) for space in spaces)).dim


def _generation_samples(catalog, rng):
    from hilb4n.ideals import Ideal
    from hilb4n.strata import sample_stratum

    yield from (catalog[name].ideal for name in ("B3", "B4", "B5", "B6"))
    yield from (sample_stratum(label, rng) for label in ("V", "R3'", "R4", "R5", "R6"))
    yield Ideal([x * z - y * y, y * t - z * z, x * t - y * z])  # twisted cubic


def test_gb_syzygies_generate(catalog, rng):
    """In every degree through the largest pair lcm plus one, the syzygy rows
    span the whole kernel of directsum_i S_{D - d_i} -> I_D, whose dimension
    is sum_i dim S_{D - d_i} - dim I_D.  Schreyer syzygies live in the lcm
    degrees, so this proves that they generate."""
    from hilb4n.hilbert import hilbert_function
    from hilb4n.poly import monomial_lcm

    for I in _generation_samples(catalog, rng):
        gb = list(I.groebner_basis())
        degrees = [g.homogeneous_degree() for g in gb]
        syzygies = gb_syzygies(gb)
        lms = [g.leading_monomial() for g in gb]
        top = max(sum(monomial_lcm(a, b)) for k, a in enumerate(lms) for b in lms[k + 1:])
        for D in range(top + 2):
            module = sum(comb(D - d + 3, 3) for d in degrees if D >= d)
            kernel = module - hilbert_function(I, D)
            assert _syzygy_span_dimension(syzygies, degrees, D) == kernel, (I, D)


def test_reduce_by_linear_forms_consistency(rng):
    gens = [x + y, random_form(rng, 2), random_form(rng, 3)]
    linear, rest = reduce_by_linear_forms(gens)
    assert [g.homogeneous_degree() for g in linear] == [1]
    combined = sorted(
        linear + buchberger(rest), key=lambda p: DEGREVLEX.key(p.leading_monomial())
    )
    direct = sorted(buchberger(gens), key=lambda p: DEGREVLEX.key(p.leading_monomial()))
    assert combined == direct


# ---------------------------------------------------------------------------
# the heap-ordered normal form against the max-scan it replaced

ORDERS = [DEGREVLEX, LEX, WeightOrder((1, 3, 0, 2), DEGREVLEX), elimination_order(1)]


# a basis element on exponent tuples: leading monomial, coefficient, tail
Unpacked = namedtuple("Unpacked", "lm lc tail")


def reference_normal_form_int(p, basis, order, trace=None, reappeared=None):
    """The max-scan normal form on exponent tuples: each step takes
    max(work, key=order.key), and ``basis`` holds ``Unpacked`` elements.
    ``reappeared`` collects monomials that cancel and later come back."""
    key = order.key
    work = dict(p)
    remainder = {}
    mult = 1
    cancelled = set()
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        if not c:
            continue
        for gi, g in enumerate(basis):
            if monomial_divides(g.lm, e):
                break
        else:
            remainder[e] = c
            continue
        gg = gcd(c, g.lc)
        a = g.lc // gg
        b = c // gg
        if a != 1:
            if a < 0:
                a, b = -a, -b
            mult *= a
            for k in work:
                work[k] *= a
            for k in remainder:
                remainder[k] *= a
            if trace is not None:
                for q in trace:
                    for k in q:
                        q[k] *= a
        shift = monomial_div(e, g.lm)
        for ge, gc in g.tail:
            k = monomial_mul(ge, shift)
            if reappeared is not None and k in cancelled and k not in work:
                reappeared.add(k)
            nv = work.get(k, 0) - b * gc
            if nv:
                work[k] = nv
            elif k in work:
                del work[k]
                cancelled.add(k)
        if trace is not None:
            q = trace[gi]
            q[shift] = q.get(shift, 0) + b
    return remainder, mult


def _unpacked(p, order):
    """The packed integer form of p, and the same dict on exponent tuples."""
    exponents = order.packing(p.nvars).exponents
    packed = _to_int_poly(p, order)[0]
    return packed, {exponents(e): c for e, c in packed.items()}


def _unpacked_basis(gens, order):
    """The packed ``_Basis`` of gens, and the same elements unpacked."""
    exponents = order.packing(gens[0].nvars).exponents
    basis = [_Basis(_unpacked(g, order)[0]) for g in gens]
    return basis, [
        Unpacked(exponents(g.lm), g.lc, [(exponents(e), c) for e, c in g.tail]) for g in basis]


def _both_normal_forms(p, gens, order):
    """(packed heap result, reference result), each as (r, mult, trace) on
    exponent tuples with the dicts listed in insertion order."""
    exponents = order.packing(p.nvars).exponents
    basis, unpacked = _unpacked_basis(gens, order)
    packed, reference = _unpacked(p, order)
    heap_trace, reference_trace = [dict() for _ in basis], [dict() for _ in basis]
    r, mult = _normal_form_int(packed, basis, order.packing(p.nvars), heap_trace)
    heap = ([(exponents(e), c) for e, c in r.items()], mult,
            [[(exponents(e), c) for e, c in q.items()] for q in heap_trace])
    r, mult = reference_normal_form_int(reference, unpacked, order, reference_trace)
    return heap, (list(r.items()), mult, [list(q.items()) for q in reference_trace])


def test_heap_normal_form_with_a_reappearing_monomial():
    p = x * x + x * z - y * z
    gens = [y - x, y * z - y * y]
    reappeared = set()
    unpacked = _unpacked_basis(gens, DEGREVLEX)[1]
    reference_normal_form_int(_unpacked(p, DEGREVLEX)[1], unpacked, DEGREVLEX, None, reappeared)
    assert reappeared == {(0, 1, 1, 0)}  # y*z cancels, then comes back
    for order in ORDERS:
        heap, reference = _both_normal_forms(p, gens, order)
        assert heap == reference


MONOMIALS = st.tuples(*[st.integers(0, 3)] * 4)
INT_POLYS = st.dictionaries(MONOMIALS, st.integers(-5, 5).filter(bool), min_size=1, max_size=7)


@settings(max_examples=80, deadline=None)
@given(INT_POLYS, st.lists(INT_POLYS, min_size=1, max_size=4), st.sampled_from(ORDERS))
def test_heap_normal_form_equals_max_scan(p, gens, order):
    """Identical (remainder, multiplier, quotients) on bases that are not
    Groebner bases, for every order."""
    polys = [Polynomial({e: c for e, c in g.items()}, 4) for g in gens]
    heap, reference = _both_normal_forms(Polynomial(p, 4), polys, order)
    assert heap == reference


def test_prepared_basis_gives_the_same_normal_forms(rng):
    gens = [random_form(rng, 2), random_form(rng, 2), random_form(rng, 3)]
    gb = buchberger(gens)
    prepared = _Prepared(gb)
    assert prepared == tuple(gb)
    for _ in range(5):
        f = random_form(rng, 4)
        assert normal_form_poly(f, prepared) == normal_form_poly(f, gb)
    # a basis prepared for one order is rebuilt for another
    f = random_form(rng, 3)
    assert normal_form_poly(f, prepared, LEX) == normal_form_poly(f, gb, LEX)
