import pytest

from hilb4n.gin import generic_initial_ideal, is_saturated
from hilb4n.hilbert import hilbert_function
from hilb4n.ideals import Ideal, equal
from hilb4n.poly import LinearChange, apply_change, random_form, variables
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


def test_gin_coordinate_invariance(rng):
    I = _random_ci(rng)
    base = generic_initial_ideal(I, rng).gin
    for _ in range(5):
        g = LinearChange.random(rng, bound=6)
        moved = Ideal([apply_change(p, g) for p in I.gens])
        assert equal(generic_initial_ideal(moved, rng).gin, base)


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
