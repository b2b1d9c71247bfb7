import functools
import random
from fractions import Fraction
from math import gcd

import pytest

from hilb4n.borel import borel_catalog
from hilb4n.families import (
    FAMILY_NVARS,
    PARAM,
    FamilyError,
    ParamFamily,
    family_limit,
    family_limit_data,
    limit_graded_piece,
    rs_degeneration,
    va_degeneration,
    weight_action_family,
    weight_limit,
)
from hilb4n.hilbert import (
    gotzmann_number,
    hilbert_function,
    quotient_hilbert_polynomial,
)
from hilb4n.ideals import Ideal, equal, graded_monomial_basis, saturate_irrelevant
from hilb4n.linalg import Subspace
from hilb4n.poly import NVARS, Polynomial, monomial_mul, monomials_of_degree, variables
from hilb4n.strata import FOUR_N, R5Shape, build_stratum_ideal, sample_stratum

x, y, z, t = variables()


def _pencil(ell, ell1, ell2, p, q):
    """The family (ell*ell1 + a*q, ell*ell2 - a*p)."""
    a = Polynomial.variable(4, 5)
    return ParamFamily(
        ((ell * ell1).extend() + a * q.extend(), (ell * ell2).extend() - a * p.extend()),
        description="test pencil",
    )


def test_specialize_at_zero_gives_base_pencil():
    fam = _pencil(x, y, z, t * t, y * y)
    fiber = fam.specialize(0)
    assert equal(fiber, Ideal([x * y, x * z]))


def test_specialize_generic_is_complete_intersection():
    from hilb4n.strata import gcd_forms

    fam = _pencil(x, y, z, t * t, y * y)
    for value in (1, 2, 7):
        fiber = fam.specialize(value)
        assert gcd_forms(fiber.gens[0], fiber.gens[1]).homogeneous_degree() == 0


def test_specialize_degenerate_rejected():
    a = Polynomial.variable(4, 5)
    fam = ParamFamily((a * x.extend(),), "collapses at zero")
    with pytest.raises(FamilyError):
        fam.specialize(0)


def test_constant_family_limit(catalog):
    fam = ParamFamily(tuple(g.extend() for g in catalog["B3"].ideal.gens), "constant family")
    assert equal(family_limit(fam, 0), catalog["B3"].ideal)
    assert equal(family_limit(fam, "inf"), catalog["B3"].ideal)


def test_pencil_limit_recovers_shared_factor_ideal():
    # limit at 0 of (x*y + a*y^2, x*z - a*t^2) is (x*y, x*z, y*t^2 + y^2*z)
    fam = _pencil(x, y, z, t * t, y * y)
    expected = Ideal([x * y, x * z, y * (t * t) + y * y * z])
    assert equal(family_limit(fam, 0), expected)


def test_weight_limit_examples(catalog):
    assert equal(weight_limit(Ideal([x + y]), (0, 1, 0, 0), 0), Ideal([x]))
    assert equal(weight_limit(catalog["B4"].ideal, (1, 0, 0, 0), "inf"), catalog["B4"].ideal)


def test_weight_limit_trivial_weights_rejected():
    with pytest.raises(ValueError):
        weight_action_family(Ideal([x + y]), (1, 1, 1, 1))


def test_family_generators_validated():
    a = Polynomial.variable(4, 5)
    with pytest.raises(ValueError, match="homogeneous"):
        ParamFamily((x.extend() + a * (y * y).extend(),), "mixed degrees")
    with pytest.raises(ValueError, match="parameter"):
        ParamFamily((x,), "wrong ring")


def test_va_degeneration_example():
    I = Ideal([x * y, x * z, y * t * t + y * y * z])
    family, limit = va_degeneration(I)
    assert equal(limit, I)
    assert len(family.generators) == 2


def test_va_degeneration_b3(catalog):
    family, limit = va_degeneration(catalog["B3"].ideal)
    assert equal(limit, catalog["B3"].ideal)


def test_va_degeneration_rejects_ci(rng):
    I = sample_stratum("V", rng)
    with pytest.raises(ValueError, match="R3'"):
        va_degeneration(I)


def test_rs_degeneration_case1_example():
    I = Ideal([t * x, t * y, t * z, x**5, x**4 * y])
    chain = rs_degeneration(I)
    assert len(chain.steps) == 1
    last = chain.steps[-1]
    assert last.report.stratum == "R6"
    # the saturated limit contains a linear form
    assert min(g.homogeneous_degree() for g in chain.terminal.gens) == 1
    # before the final saturation, the limit contains the distinguished cone
    xcone = Ideal([x * x, x * y, x * z, x * t**4])
    assert last.raw_limit.contains_ideal(xcone)


def test_rs_degeneration_case2_nonzero_torus_term():
    shape = R5Shape(
        case=2, ell=x, L=(x, y, z), ell1=y, ell2=z,
        h=y**4 + z**4 + t**4, alpha=Fraction(2), w=t,
    )
    I = build_stratum_ideal(shape)
    chain = rs_degeneration(I)
    assert chain.steps[-1].report.stratum == "R6"
    xcone = Ideal([x * x, x * y, x * z, x * t**4])
    assert chain.steps[-1].raw_limit.contains_ideal(xcone)


def test_rs_degeneration_two_step_chain(catalog):
    chain = rs_degeneration(catalog["B5"].ideal)
    assert len(chain.steps) == 2
    assert chain.steps[0].report.stratum == "R5"
    assert chain.steps[1].report.stratum == "R6"
    # every step limit is saturated with the right quotient Hilbert polynomial
    for step in chain.steps:
        assert quotient_hilbert_polynomial(step.limit) == FOUR_N


def test_rs_degeneration_rejects_wrong_stratum(catalog):
    with pytest.raises(ValueError, match="R5"):
        rs_degeneration(catalog["B4"].ideal)


def test_semicontinuity_of_limits(rng):
    I = sample_stratum("R3'", rng)
    family, limit = va_degeneration(I, rng)
    fiber = family.specialize(17)
    for n in range(9):
        assert hilbert_function(limit, n) >= hilbert_function(fiber, n)


def test_limit_preserves_quotient_hp(rng):
    I = sample_stratum("V", rng)
    fam = weight_action_family(I, (2, 1, 0, 0))
    data = family_limit_data(fam, 0)
    assert data.quotient_hp == FOUR_N
    assert quotient_hilbert_polynomial(data.saturated) == FOUR_N


def test_a_torsion_is_not_lost():
    # specializing (x + a*y, a*z) at 0 drops a*z, but z = (a*z)/a lies in the
    # saturated family, so the flat limit at 0 is (x, z); at infinity it is (y, z)
    a = Polynomial.variable(PARAM, FAMILY_NVARS)
    fam = ParamFamily((x.extend() + a * y.extend(), a * z.extend()), "a-torsion")
    assert equal(fam.specialize(0), Ideal([x]))
    assert equal(family_limit(fam, 0), Ideal([x, z]))
    assert equal(family_limit(fam, "inf"), Ideal([y, z]))
    padded = ParamFamily((Polynomial.zero(FAMILY_NVARS),) + fam.generators, "with a zero generator")
    assert equal(family_limit(padded, 0), Ideal([x, z]))
    assert equal(_old_limit_data(fam, 0)[2], Ideal([x, z]))
    assert equal(_old_limit_data(fam, "inf")[2], Ideal([y, z]))


# ---------------------------------------------------------------------------
# reference: the elimination over k[a] that computed flat limits degree by
# degree before the saturation route, with its rank target read off a fibre


class _KaVector:
    """Vector over k[a]: integer coefficient layers by ascending a-power."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        while layers and not any(layers[-1]):
            layers.pop()
        self.layers = layers

    def valuation_strip(self):
        layers = self.layers
        while layers and not any(layers[0]):
            layers = layers[1:]
        return _KaVector([row[:] for row in layers])

    def combine(self, s, other, t):
        """s * self + t * other."""
        width = len(self.layers[0]) if self.layers else len(other.layers[0])
        out = []
        for k in range(max(len(self.layers), len(other.layers))):
            row = [0] * width
            if k < len(self.layers):
                row = [s * c for c in self.layers[k]]
            if k < len(other.layers):
                row = [r + t * c for r, c in zip(row, other.layers[k])]
            out.append(row)
        return _KaVector(out)

    def content_reduce(self):
        g = 0
        for row in self.layers:
            for c in row:
                g = gcd(g, c)
        if g > 1:
            self.layers = [[c // g for c in row] for row in self.layers]


def _limit_space(vectors, rank_target):
    """Integer rows spanning the limit at a = 0 of the moving span of the
    k[a]-vectors, which has the given generic rank."""
    pivots = {}

    def insert(v, cap):
        for _ in range(cap):
            v = v.valuation_strip()
            if not v.layers:
                return True
            v.content_reduce()
            for col in sorted(pivots):
                if not v.layers or not v.layers[0][col]:
                    continue
                p = pivots[col]
                g = gcd(p.layers[0][col], v.layers[0][col])
                v = v.combine(p.layers[0][col] // g, p, -(v.layers[0][col] // g))
            if not v.layers:
                return True
            lead = next((i for i, c in enumerate(v.layers[0]) if c), None)
            if lead is not None:
                v.content_reduce()
                pivots[lead] = v
                return True
            # the fibre collapsed: divide by a and try again
        return False

    deferred = [v for v in vectors if len(pivots) < rank_target and not insert(v, 40)]
    for v in deferred:
        if len(pivots) < rank_target:
            insert(v, 2000)
    assert len(pivots) == rank_target
    return [pivots[col].layers[0][:] for col in sorted(pivots)]


def _old_piece(F, degree, fibre):
    monos = graded_monomial_basis(degree, NVARS)
    index = {e: i for i, e in enumerate(monos)}
    vectors = []
    for g in F.generators:
        gd = ParamFamily.geometric_degree(g)
        if gd > degree:
            continue
        den = 1
        for c in g.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        top = max(e[PARAM] for e in g.terms)
        for m in monomials_of_degree(degree - gd, NVARS):
            layers = [[0] * len(monos) for _ in range(top + 1)]
            for e, c in g.terms.items():
                layers[e[PARAM]][index[monomial_mul(e[:NVARS], m)]] += int(c * den)
            vectors.append(_KaVector(layers))
    rows = _limit_space(vectors, hilbert_function(fibre, degree))
    return Subspace(rows, len(monos))


def _invert(F):
    """The family with a -> 1/a, denominators cleared generator by generator."""
    gens = []
    for g in F.generators:
        top = max(e[PARAM] for e in g.terms)
        gens.append(Polynomial({e[:NVARS] + (top - e[PARAM],): c for e, c in g.terms.items()},
                               FAMILY_NVARS))
    return ParamFamily(tuple(gens), F.description)


def _old_limit_data(F, at, degrees=()):
    """(pieces, raw, saturated) with the limit pieces in the given degrees."""
    if at in ("inf", "infinity"):
        F = _invert(F)
    rng = random.Random(97)
    fibres = []
    while len(fibres) < 3:
        try:
            fibres.append(F.specialize(rng.randint(1, 999983)))
        except FamilyError:
            pass
    p = quotient_hilbert_polynomial(fibres[0])
    assert all(quotient_hilbert_polynomial(f) == p for f in fibres)
    rho = gotzmann_number(p)
    pieces = {d: _old_piece(F, d, fibres[0]) for d in sorted(set(range(rho + 1)) | set(degrees))}
    # raw: the rows that grow the ideal generated so far
    gens = []
    for d in range(rho + 1):
        monos = graded_monomial_basis(d, NVARS)
        space = Ideal(gens, NVARS).graded_piece(d)
        for row in pieces[d].rows:
            grown = space.extended([row])
            if grown.dim > space.dim:
                gens.append(Polynomial({monos[i]: c for i, c in enumerate(row) if c}, NVARS))
                space = grown
    raw = Ideal(gens, NVARS)
    return pieces, raw, saturate_irrelevant(raw)


@functools.lru_cache(maxsize=None)
def _oracle_families():
    rng = random.Random(31)
    out = [(va_degeneration(sample_stratum("R3'", rng), rng)[0], "0") for _ in range(3)]
    V = sample_stratum("V", rng)
    out += [(weight_action_family(V, (1, 0, 0, 0)), at) for at in ("0", "inf")]
    # an R5 case-1 composite family at infinity, then the case-2 bridge
    # back at 0 and forward at infinity
    for I in (Ideal([t * x, t * y, t * z, x**5, x**4 * y]), borel_catalog()["B5"].ideal):
        out += [(step.family, step.at) for step in rs_degeneration(I).steps]
    return tuple(out)


@pytest.mark.parametrize("k", range(8))
def test_saturation_route_matches_ka_elimination(k):
    F, at = _oracle_families()[k]
    pieces, raw, saturated = _old_limit_data(F, at, range(7))
    data = family_limit_data(F, at)
    assert equal(data.saturated, saturated)
    assert equal(data.raw, raw)
    at_zero = _invert(F) if at == "inf" else F
    for d in range(7):
        assert limit_graded_piece(at_zero, d).rows == pieces[d].rows
