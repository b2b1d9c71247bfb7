import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hilb4n.hilbert import (
    HilbertPolynomial,
    ambient_hilbert_polynomial,
    gotzmann_decomposition,
    gotzmann_number,
    hilbert_function,
    hilbert_polynomial,
    macaulay_bound,
    macaulay_min_growth,
    quotient_hilbert_function,
    quotient_hilbert_polynomial,
    regularity,
    standard_monomial_count,
    _series_numerator,
)
from hilb4n.ideals import Ideal, monomial_ideal
from hilb4n.linalg import rank
from hilb4n.poly import (
    Polynomial,
    count_monomials,
    monomial_divides,
    monomials_of_degree,
    random_form,
    variables,
)

x, y, z, t = variables()
FOUR_N = HilbertPolynomial([0, 4])

# the four ideal-side tables, frozen
PHI3 = (0, 0, 2, 8, 19, 36, 60, 92)
PHI4 = (0, 0, 2, 8, 19, 36)
PHI5 = (0, 0, 3, 9, 19, 36)
PHI6 = (0, 1, 4, 10, 20, 36)


def test_phi_tables(catalog):
    assert catalog["B3"].phi == PHI3
    assert catalog["B4"].phi[:6] == PHI4
    assert catalog["B5"].phi[:6] == PHI5
    assert catalog["B6"].phi[:6] == PHI6


def test_hilbert_function_examples(catalog):
    assert hilbert_function(catalog["B3"].ideal, 4) == 19
    assert hilbert_function(catalog["B6"].ideal, 1) == 1
    assert hilbert_function(catalog["B5"].ideal, 2) == 3
    assert hilbert_function(Ideal([], 4), 5) == 0


def test_hilbert_function_negative_degree(catalog):
    with pytest.raises(ValueError):
        hilbert_function(catalog["B3"].ideal, -1)


def test_hilbert_function_rank_oracle(rng):
    # independent route: rank of the monomial-shift span
    for _ in range(15):
        gens = [random_form(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        I = Ideal(gens)
        n = rng.randint(0, 6)
        assert hilbert_function(I, n) == I.graded_piece(n).dim


def test_monotone_growth(catalog):
    for entry in catalog.values():
        values = [hilbert_function(entry.ideal, n) for n in range(9)]
        assert all(values[i + 1] >= values[i] for i in range(8))
        assert all(values[n] <= count_monomials(n, 4) for n in range(9))


def reference_standard_monomial_count(gens, n, nvars):
    """Brute force: enumerate the degree-n monomials and keep those outside the ideal."""
    return sum(
        1 for m in monomials_of_degree(n, nvars) if not any(monomial_divides(g, m) for g in gens)
    )


@st.composite
def monomial_generators(draw):
    """(nvars, gens): 1-5 variables, 0-6 generators with exponents 0-4."""
    nvars = draw(st.integers(1, 5))
    exponent = st.tuples(*[st.integers(0, 4)] * nvars)
    return nvars, draw(st.lists(exponent, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_generators(), st.integers(0, 10))
@example((4, []), 3)
@example((3, [(0, 0, 0)]), 0)
@example((5, [(0, 0, 0, 0, 0), (1, 2, 0, 0, 0)]), 4)
@example((1, [(4,)]), 2)
def test_standard_monomial_count_matches_enumeration(ideal, n):
    nvars, gens = ideal
    assert standard_monomial_count(gens, n, nvars) == reference_standard_monomial_count(
        gens, n, nvars
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(monomial_generators())
@example((4, []))
@example((3, [(0, 0, 0)]))
@example((2, [(4, 0), (0, 3)]))
def test_hilbert_polynomial_matches_enumeration_past_the_series_cutoff(ideal):
    # the Hilbert function equals the polynomial from max deg(numerator) - nvars + 1 on
    nvars, gens = ideal
    hp = hilbert_polynomial(monomial_ideal(gens, nvars))
    cutoff = max(0, max(_series_numerator(tuple(gens), nvars), default=0) - nvars + 1)
    for n in range(cutoff, cutoff + 5):
        ideal_dim = count_monomials(n, nvars) - reference_standard_monomial_count(gens, n, nvars)
        assert hp(n) == ideal_dim


def test_hilbert_polynomial_values(catalog):
    for entry in catalog.values():
        hp = hilbert_polynomial(entry.ideal)
        assert (hp(5), hp(6), hp(7)) == (36, 60, 92)
        # agreement with the function at and beyond the regularity
        reg = entry.regularity
        for n in range(reg, reg + 5):
            assert hp(n) == hilbert_function(entry.ideal, n)


def test_hilbert_polynomial_principal():
    hp = hilbert_polynomial(Ideal([x]))
    assert hp == HilbertPolynomial.binomial(2, 3)  # C(n+2, 3)


def test_quotient_hp_point():
    assert quotient_hilbert_polynomial(Ideal([x, y, z])) == HilbertPolynomial([1])
    hp = hilbert_polynomial(Ideal([x, y, z]))
    assert hp == ambient_hilbert_polynomial(4) - HilbertPolynomial([1])


def test_quotient_hp_catalog(catalog):
    for entry in catalog.values():
        assert quotient_hilbert_polynomial(entry.ideal) == FOUR_N


def test_regularity_catalog(catalog):
    for name, entry in catalog.items():
        assert regularity(entry.ideal) == int(name[1])


def test_regularity_principal():
    assert regularity(Ideal([x])) == 1


def test_quotient_macaulay_growth_bound(rng):
    # quotient growth never exceeds the lex-segment bound in three variables'
    # worth of checks: c_{d+1} <= growth of the lex segment of size c_d
    for _ in range(10):
        gens = [random_form(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        I = Ideal(gens)
        for d in range(1, 7):
            c_d = quotient_hilbert_function(I, d)
            c_next = quotient_hilbert_function(I, d + 1)
            # Macaulay bound, restated through minimal ideal growth
            total_next = count_monomials(d + 1, 4)
            bound = total_next - macaulay_min_growth(count_monomials(d, 4) - c_d, d, 4)
            assert c_next <= bound


def test_macaulay_examples():
    assert macaulay_min_growth(3, 1, 4) == 9
    assert macaulay_min_growth(0, 3, 4) == 0
    assert macaulay_min_growth(10, 2, 4) == 20


def test_macaulay_monotone():
    values = [macaulay_min_growth(a, 2, 3) for a in range(7)]
    assert values == sorted(values)


def test_macaulay_min_growth_is_the_lex_segment_growth():
    # Macaulay: the lex segment of each size grows least; its growth is read
    # here off the segment itself, for every size, r <= 4 and 1 <= d <= 5
    for r in range(1, 5):
        for d in range(1, 6):
            monos = sorted(monomials_of_degree(d, r), reverse=True)
            for a in range(len(monos) + 1):
                grown = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in monos[:a] for i in range(r)}
                assert macaulay_min_growth(a, d, r) == len(grown), (a, d, r)


def test_macaulay_bound_examples():
    # 5 = C(3, 2) + C(2, 1), so 5^<2> = C(4, 3) + C(3, 2) = 7
    assert macaulay_bound(5, 2) == 7
    assert macaulay_bound(0, 3) == 0
    assert macaulay_bound(1, 4) == 1
    assert macaulay_bound(count_monomials(3, 4), 3) == count_monomials(4, 4)
    with pytest.raises(ValueError):
        macaulay_bound(1, 0)
    with pytest.raises(ValueError):
        macaulay_bound(-1, 2)


def test_macaulay_bruteforce_oracle(rng):
    # exhaustive minimum over monomial subspaces equals the lex value, and no
    # random rational subspace ever does better
    for a, d, r in [(1, 1, 2), (2, 2, 2), (3, 2, 3), (2, 1, 3), (4, 2, 3)]:
        lex_value = macaulay_min_growth(a, d, r)
        monos = list(monomials_of_degree(d, r))
        best = None
        for subset in itertools.combinations(monos, a):
            grown = {
                tuple(m[k] + (1 if k == i else 0) for k in range(r))
                for m in subset
                for i in range(r)
            }
            best = len(grown) if best is None else min(best, len(grown))
        assert best == lex_value
        up_monos = list(monomials_of_degree(d + 1, r))
        index = {m: i for i, m in enumerate(up_monos)}
        for _ in range(40):
            basis = [
                [Fraction(rng.randint(-4, 4)) for _ in monos] for _ in range(a)
            ]
            if rank(basis) != a:
                continue
            rows = []
            for vec in basis:
                for i in range(r):
                    row = [Fraction(0)] * len(up_monos)
                    for coeff, m in zip(vec, monos):
                        shifted = tuple(m[k] + (1 if k == i else 0) for k in range(r))
                        row[index[shifted]] += coeff
                    rows.append(row)
            assert rank(rows) >= lex_value


def test_gotzmann_examples():
    assert gotzmann_number(FOUR_N) == 6
    assert gotzmann_number(HilbertPolynomial([1])) == 1
    assert gotzmann_number(HilbertPolynomial([1, 3])) == 4


def test_gotzmann_decomposition_identity():
    # the decomposition really sums back to the polynomial
    for p in (FOUR_N, HilbertPolynomial([1, 3]), HilbertPolynomial([2]), HilbertPolynomial([1, 1])):
        exps = gotzmann_decomposition(p)
        assert exps == sorted(exps, reverse=True)
        total = HilbertPolynomial([])
        for i, a in enumerate(exps, start=1):
            total = total + HilbertPolynomial.binomial(a - i + 1, a)
        assert total == p


def test_gotzmann_hand_check_3n_plus_1():
    # (n+1) + n + (n-1) + 1
    p = HilbertPolynomial([1, 3])
    assert gotzmann_decomposition(p) == [1, 1, 1, 0]


def test_gotzmann_invalid():
    with pytest.raises(ValueError):
        gotzmann_number(HilbertPolynomial([0, -1]))
    with pytest.raises(ValueError):
        gotzmann_number(HilbertPolynomial([0, 2]))


def test_hilbert_polynomial_repr_uses_the_parser_format():
    assert repr(HilbertPolynomial([1, 4])) == "HilbertPolynomial(4*n + 1)"
    assert repr(HilbertPolynomial([0, Fraction(-1, 2), 1])) == "HilbertPolynomial(n^2 - 1/2*n)"
