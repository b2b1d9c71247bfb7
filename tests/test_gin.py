import pytest

from hilb4n import gin
from hilb4n.borel import is_strongly_stable
from hilb4n.gin import generic_initial_ideal, is_saturated
from hilb4n.hilbert import hilbert_function, regularity
from hilb4n.ideals import Ideal, equal, monomial_ideal
from hilb4n.poly import LinearChange, random_form, variables
from hilb4n.strata import gcd_forms, sample_stratum

x, y, z, t = variables()


def _random_ci(rng):
    while True:
        f, g = random_form(rng, 2), random_form(rng, 2)
        if gcd_forms(f, g).homogeneous_degree() == 0:
            return Ideal([f, g])


def test_gin_fixed_point(catalog):
    result = generic_initial_ideal(catalog["B6"].ideal)
    assert equal(result.gin, catalog["B6"].ideal)


def test_gin_of_ci_is_b3(catalog, rng):
    result = generic_initial_ideal(_random_ci(rng), rng)
    assert equal(result.gin, catalog["B3"].ideal)
    assert result.trials >= 2


def test_gin_of_r4_sample_is_b4(catalog, rng):
    I = sample_stratum("R4", rng)
    result = generic_initial_ideal(I, rng)
    assert equal(result.gin, catalog["B4"].ideal)


def test_gin_idempotent(rng):
    result = generic_initial_ideal(_random_ci(rng), rng)
    again = generic_initial_ideal(result.gin, rng)
    assert equal(again.gin, result.gin)


def test_gin_preserves_hilbert_function(rng):
    I = _random_ci(rng)
    result = generic_initial_ideal(I, rng)
    for n in range(9):
        assert hilbert_function(result.gin, n) == hilbert_function(I, n)


@pytest.mark.parametrize("gens", [(x, y**2, z**3), (x**2, y**2, z**4)])
def test_gin_of_a_monomial_complete_intersection(gens, rng):
    # in(I) = I is coprime, its gin is not, and their series numerators
    # have a cancelled term (T^3, T^4) that must not tell them apart
    I = Ideal(list(gens))
    result = generic_initial_ideal(I, rng)
    assert is_strongly_stable(result.gin)
    for n in range(12):
        assert hilbert_function(result.gin, n) == hilbert_function(I, n)


def test_gin_coordinate_invariance(rng):
    I = _random_ci(rng)
    base = generic_initial_ideal(I, rng).gin
    for _ in range(5):
        g = LinearChange.random(rng, bound=6)
        moved = Ideal([g.apply(p) for p in I.gens])
        assert equal(generic_initial_ideal(moved, rng).gin, base)


def test_gin_rejects_a_candidate_with_the_wrong_hilbert_series(monkeypatch, rng):
    I = _random_ci(rng)
    # strongly stable, top degree reg(I) = 3, but x*z puts one form too many in degree 2
    wrong = ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 3, 0, 0))
    M = monomial_ideal(wrong, 4)
    assert is_strongly_stable(M) and max(map(sum, wrong)) == regularity(I)
    assert hilbert_function(M, 2) != hilbert_function(I, 2)
    draws = []
    monkeypatch.setattr(gin, "_draw", lambda I, rng, bound: draws.append(bound) or wrong)
    with pytest.raises(ArithmeticError, match="did not stabilize"):
        generic_initial_ideal(I, rng)
    # two agreeing draws per round, and every round escalates
    assert draws == [10 << (k // 2) for k in range(2 * gin._MAX_ESCALATIONS)]


def test_gin_zero_rejected():
    with pytest.raises(ValueError):
        generic_initial_ideal(Ideal([], 4))


def test_is_saturated_examples(catalog):
    assert is_saturated(catalog["B3"].ideal)
    assert not is_saturated(Ideal([x * x, x * y, x * z, x * t**4]))
    assert is_saturated(Ideal([x]))
    # no variable is a nonzerodivisor: the search reaches x + y + z + t
    four_points = Ideal([x * y, x * z, x * t, y * z, y * t, z * t])
    assert is_saturated(four_points)
    assert not is_saturated(Ideal([g * v for g in four_points.gens for v in (x, y, z, t)]))


def test_is_saturated_nonmonomial(rng):
    I = _random_ci(rng)
    assert is_saturated(I)
    thick = Ideal([g * v for g in I.gens for v in (x, y, z, t)])
    assert not is_saturated(thick)
