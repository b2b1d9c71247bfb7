"""One-parameter families of ideals and exact flat limits.

A family lives in the ring k[x,y,z,t,a] with generators homogeneous in the
geometric variables; the parameter a has its own exponent slot.  The limit at
a -> 0 is the Hilbert-scheme limit: the saturation of the family by a,
specialized at 0, then saturated by the irrelevant ideal (Eisenbud,
Commutative Algebra, Prop. 15.16 and Thm 15.17).  The saturation by a is one
Groebner computation: the generators are homogenised in a second parameter
b, saturated by a with the last-variable trick, and set to a = 0, b = 1.
Limits at infinity swap the roles of a and b.  Flatness holds by
construction, since the saturated family has no a-torsion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .hilbert import HilbertPolynomial, gotzmann_number, quotient_hilbert_polynomial
from .ideals import (
    FormSpace,
    Ideal,
    divide_exact,
    equal,
    forms_to_change,
    saturate_by_variable,
    saturate_irrelevant,
)
from .linalg import Subspace, solve
from .orders import Exponent
from .poly import NVARS, LinearChange, Polynomial, monomial_divides, variables
from .strata import (
    R5Shape,
    StratumReport,
    build_stratum_ideal,
    classify,
    coprime_quadrics,
    factor_quadric_net,
    gcd_forms,
)

PARAM = NVARS  # index of the parameter variable in the extended ring
FAMILY_NVARS = NVARS + 1


class FamilyError(ValueError):
    """A family violated its flatness or shape preconditions."""


@dataclass(frozen=True)
class ParamFamily:
    """Ideal generators over the ring extended by one parameter."""

    generators: Tuple[Polynomial, ...]
    description: str = ""

    def __post_init__(self):
        for g in self.generators:
            if g.nvars != FAMILY_NVARS:
                raise ValueError("family generators must carry the parameter slot")
            if g and self.geometric_degree(g) is None:
                raise ValueError(f"family generator is not homogeneous in x,y,z,t: {g!r}")

    @staticmethod
    def geometric_degree(g: Polynomial) -> Optional[int]:
        degs = {sum(e[:NVARS]) for e in g.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def specialize(self, value) -> Ideal:
        """Substitute the parameter; not automatically saturated."""
        value = Fraction(value)
        gens = []
        for g in self.generators:
            terms: Dict[Exponent, Fraction] = {}
            for e, c in g.terms.items():
                coeff = c * value ** e[PARAM]
                if coeff:
                    key = e[:NVARS]
                    terms[key] = terms.get(key, Fraction(0)) + coeff
            p = Polynomial(terms, NVARS)
            if p:
                gens.append(p)
        if not gens:
            raise FamilyError(f"family degenerates at parameter {value}")
        return Ideal(gens, NVARS)


def weight_action_family(I: Ideal, weights: Sequence[int], description: str = "") -> ParamFamily:
    """The family sigma_w(a) . I for the torus action scaling x_i by a^w_i."""
    if len(weights) != NVARS:
        raise ValueError("one weight per geometric variable")
    if len(set(weights)) == 1:
        raise ValueError("weight vector must not be constant (trivial action)")
    gens = []
    for g in I.gens:
        exps = [sum(w * ei for w, ei in zip(weights, e)) for e in g.terms]
        base = min(exps)
        terms = {
            e + (k - base,): c
            for (e, c), k in zip(g.terms.items(), exps)
        }
        gens.append(Polynomial(terms, FAMILY_NVARS))
    return ParamFamily(tuple(gens), description or f"torus action with weights {list(weights)}")


def apply_torus(I: Ideal, weights: Sequence[int], value) -> Ideal:
    value = Fraction(value)
    images = [
        Polynomial.variable(i, NVARS).scale(value ** weights[i]) for i in range(NVARS)
    ]
    return Ideal([g.substitute(images) for g in I.gens], NVARS)


# ---------------------------------------------------------------------------
# flat limits by one saturation

def _special_fibre(F: ParamFamily, at) -> Ideal:
    """(I : a^inf) specialized at a = 0, or the same at a = infinity.

    Each generator is homogenised in a new variable b (x^e a^k becomes
    x^e a^k b^(top-k)), so the family is the affine chart b = 1 of a
    homogeneous ideal in six variables.  Saturating by the variable that
    vanishes at the limit point and then setting it to 0 and the other to 1
    is the flat limit: dehomogenising localises at the other variable, which
    commutes with the saturation.
    """
    if at in ("inf", "infinity"):
        var = PARAM + 1
    elif at in (0, "0"):
        var = PARAM
    else:
        raise ValueError("limits are taken at 0 or at infinity")
    gens = []
    for g in filter(None, F.generators):
        top = max(e[PARAM] for e in g.terms)
        gens.append(Polynomial({e + (top - e[PARAM],): c for e, c in g.terms.items()}, NVARS + 2))
    saturated = saturate_by_variable(Ideal(gens, NVARS + 2), var)
    return Ideal(
        (Polynomial(((e[:NVARS], c) for e, c in g.terms.items() if not e[var]), NVARS)
         for g in saturated.gens),
        NVARS,
    )


def limit_graded_piece(F: ParamFamily, degree: int) -> Subspace:
    """Degree-d piece of the flat limit at a -> 0, before the irrelevant saturation."""
    return _special_fibre(F, 0).graded_piece(degree)


@dataclass(frozen=True)
class LimitData:
    raw: Ideal          # the special fibre's generators through the Gotzmann degree
    saturated: Ideal    # the Hilbert-scheme limit
    quotient_hp: HilbertPolynomial


def family_limit_data(F: ParamFamily, at=0) -> LimitData:
    fibre = _special_fibre(F, at)
    p = quotient_hilbert_polynomial(fibre)
    rho = gotzmann_number(p)
    # the generators through the Gotzmann number already determine the
    # saturation (Gotzmann persistence; the check below guards it), and
    # fewer generators keep saturate_irrelevant small
    raw = Ideal([g for g in fibre.gens if g.homogeneous_degree() <= rho], NVARS)
    saturated = saturate_irrelevant(raw)
    if quotient_hilbert_polynomial(saturated) != p:
        raise ArithmeticError("flat limit lost the quotient Hilbert polynomial")
    return LimitData(raw=raw, saturated=saturated, quotient_hp=p)


def family_limit(F: ParamFamily, at=0) -> Ideal:
    """The Hilbert-scheme limit of the family: saturate by the parameter,
    specialize, then saturate by the irrelevant ideal."""
    return family_limit_data(F, at).saturated


def weight_limit(I: Ideal, weights: Sequence[int], at=0) -> Ideal:
    """Flat limit of the torus orbit of I under the weight action."""
    if len(weights) != NVARS or len(set(weights)) == 1:
        raise ValueError("weight vector must have one entry per variable, not all equal")
    if I.is_monomial():
        return Ideal([Polynomial.monomial(e) for e in I.monomial_generators()], I.nvars)
    F = weight_action_family(I, weights)
    limit = family_limit(F, at)
    fixed = apply_torus(limit, weights, 2)
    if not equal(fixed, limit):
        raise ArithmeticError("weight limit is not fixed by the torus action")
    return limit


# ---------------------------------------------------------------------------
# the complete-intersection degeneration of a non-CI regularity-3 ideal

def _basis_search_forms() -> List[Polynomial]:
    xs = variables()
    out = [Polynomial.zero(NVARS)]
    for v in xs:
        out.append(v)
        out.append(-v)
    for v in xs:
        out.append(v * 2)
    for i in range(NVARS):
        for j in range(i + 1, NVARS):
            out.append(xs[i] + xs[j])
            out.append(xs[i] - xs[j])
    return out


def r3prime_data(I: Ideal) -> Tuple[Polynomial, Polynomial, Polynomial, Polynomial,
                                    Polynomial, Polynomial]:
    """Extract (ell, ell1, ell2, F, p, q) with I = (ell*ell1, ell*ell2, F) and
    F = ell1*p + ell2*q, neither p nor q divisible by ell."""
    quadrics = FormSpace(I.gens, 2).basis()
    if len(quadrics) != 2:
        raise FamilyError("expected two quadric generators")
    ell = gcd_forms(quadrics[0], quadrics[1])
    if ell.homogeneous_degree() != 1:
        raise FamilyError("the quadric pencil must share a linear factor")
    ell1 = divide_exact(quadrics[0], ell)
    ell2 = divide_exact(quadrics[1], ell)
    # a cubic generator outside P1 * I2
    from_quadrics = FormSpace(quadrics, 3)
    residues = (from_quadrics.reduce(c) for c in FormSpace(I.gens, 3).basis())
    cubic = next(filter(None, residues), None)
    if cubic is None:
        raise FamilyError("no cubic generator beyond the quadrics")
    # solve F = ell1 * p + ell2 * q
    cubics, quads = FormSpace((), 3), FormSpace((), 2)
    columns = [cubics.coords(form.mul_monomial(m)) for form in (ell1, ell2) for m in quads.monos]
    sol = solve(list(zip(*columns)), cubics.coords(cubic))
    if sol is None:
        raise FamilyError("cubic generator does not lie in (ell1, ell2)")
    half = len(quads.monos)
    p, q = quads.form(sol[:half]), quads.form(sol[half:])
    # adjust along the Koszul relation so neither piece is divisible by ell
    for s in _basis_search_forms():
        p2 = p + ell2 * s
        q2 = q - ell1 * s
        if divide_exact(p2, ell) is None and divide_exact(q2, ell) is None:
            return ell, ell1, ell2, cubic, p2, q2
    raise FamilyError("could not arrange the decomposition off the shared factor")


def va_degeneration(I: Ideal, rng: Optional[random.Random] = None) -> Tuple[ParamFamily, Ideal]:
    """Present a non-CI regularity-3 ideal as the limit at 0 of a family of
    complete intersections of two quadrics.

    Returns the family (ell*ell1 + a*q, ell*ell2 - a*p) and its limit, which
    is asserted to equal the input; three sampled fibres are checked to be
    complete intersections.
    """
    rng = rng if rng is not None else random.Random(1009)
    report = classify(I)
    if report.stratum != "R3'":
        raise ValueError(f"degeneration applies to the R3' stratum, got {report.stratum}")
    ell, ell1, ell2, cubic, p, q = r3prime_data(I)
    f0 = (ell * ell1).extend()
    g0 = (ell * ell2).extend()
    a = Polynomial.variable(PARAM, FAMILY_NVARS)
    family = ParamFamily(
        (f0 + a * q.extend(), g0 - a * p.extend()),
        description="pencil of complete intersections through a shared-factor ideal",
    )
    checked = 0
    attempts = 0
    while checked < 3 and attempts < 25:
        attempts += 1
        value = Fraction(rng.randint(1, 999983))
        fiber = family.specialize(value)
        fgens = fiber.gens
        if len(fgens) == 2 and coprime_quadrics(fgens[0], fgens[1]):
            checked += 1
    if checked < 3:
        raise ArithmeticError("generic fibres failed the complete-intersection check")
    limit = family_limit(family, 0)
    if not equal(limit, I):
        raise ArithmeticError("limit of the complete-intersection family must recover the ideal")
    return family, limit


# ---------------------------------------------------------------------------
# the degeneration chain from regularity 5 to regularity 6

@dataclass(frozen=True)
class DegenerationStep:
    family: ParamFamily
    at: str
    limit: Ideal
    report: StratumReport
    raw_limit: Ideal


@dataclass(frozen=True)
class DegenerationChain:
    steps: Tuple[DegenerationStep, ...]
    terminal: Ideal


def _quintic_residues(I: Ideal, modulus: Ideal) -> List[Polynomial]:
    """Basis of the image of I_5 in P_5 modulo a monomial ideal, which must be
    two-dimensional."""
    gens = modulus.monomial_generators()
    filtered = [
        Polynomial(
            {e: c for e, c in b.terms.items() if not any(monomial_divides(g, e) for g in gens)},
            NVARS,
        )
        for b in FormSpace(I.gens, 5).basis()
    ]
    residues = FormSpace(filtered, 5).basis()
    if len(residues) != 2:
        raise FamilyError("expected a two-dimensional space of quintics beyond the quadrics")
    return residues


def _normalize_case1(I: Ideal, ell: Polynomial, L: List[Polynomial]) -> Tuple[Ideal, LinearChange]:
    change = forms_to_change(L + [ell])  # L -> (x, y, z), ell -> t
    moved = Ideal([change.apply(g) for g in I.gens])
    return moved, change


def _extract_case1(moved: Ideal) -> Tuple[Polynomial, Polynomial, Polynomial]:
    """On (t(x,y,z), f, g) coordinates: the shared quartic h and the two
    linear cofactors, living in k[x,y,z]."""
    x, y, z, t = variables()
    residues = _quintic_residues(moved, Ideal([t * x, t * y, t * z]))
    for r in residues:
        if any(e[3] for e in r.terms):
            raise FamilyError("quintic representatives must avoid the distinguished variable")
    return _quartic_and_cofactors(*residues)


def _case1_inner_change(h, ell1, ell2) -> LinearChange:
    """A further change fixing t, sending a basis of the cofactor pencil to
    (x, y) while making the quartic's x^4 coefficient nonzero.

    The coefficient is h at the point dual to x; varying the second basis form
    through the pencil and shifting the completing form walks that point over
    enough of the plane to escape the at most four lines where h vanishes.
    """
    t_form = variables()[3]
    x4 = (4, 0, 0, 0)
    small = (0, 1, -1, 2, -2, 3, -3, 4, -4)
    for d in small:
        second = ell2 + ell1.scale(d) if d else ell2
        first = ell1
        axis = next(v for v in variables()[:3] if FormSpace([first, second, v], 1).dim == 3)
        for shift in small:
            third = axis + first.scale(shift) if shift else axis
            if FormSpace([first, second, third, t_form], 1).dim != 4:
                continue
            change = forms_to_change([first, second, third, t_form])
            h2 = change.apply(h)
            if h2.coefficient(x4):
                return change
    raise FamilyError("no coordinate adjustment exposes the quartic's leading power")


def _psi_sigma_family(moved: Ideal) -> ParamFamily:
    """The composite family: scale y, z by a^{-2}, then shear t by -a*x."""
    sigma = weight_action_family(moved, (0, -2, -2, 0))
    a = Polynomial.variable(PARAM, FAMILY_NVARS)
    x5, y5, z5, t5 = (Polynomial.variable(i, FAMILY_NVARS) for i in range(4))
    images = [x5, y5, z5, t5 - a * x5, Polynomial.variable(PARAM, FAMILY_NVARS)]
    gens = tuple(g.substitute(images) for g in sigma.generators)
    return ParamFamily(gens, "scale the plane directions, then shear the distinguished axis")


def _extract_case2(moved: Ideal) -> Tuple[Polynomial, Polynomial, Polynomial, Fraction]:
    """On (x(x,y,z), f, g) coordinates: h, the cofactors, and the coefficient
    of x*t^4; representatives live in k[y,z,t] + k*x*t^4."""
    x, y, z, t = variables()
    residues = _quintic_residues(moved, Ideal([x * x, x * y, x * z]))
    xt4 = (1, 0, 0, 4)
    alphas = [r.coefficient(xt4) for r in residues]
    if alphas[0] == 0 and alphas[1] == 0:
        f, g = residues
        alpha = Fraction(0)
    else:
        carrier = 0 if alphas[0] else 1
        f = residues[carrier]
        g = residues[1 - carrier] - f.scale(alphas[1 - carrier] / alphas[carrier])
        alpha = alphas[carrier]
    f_prime = f - Polynomial.monomial(xt4, alpha)
    for r in (f_prime, g):
        if any(e[0] for e in r.terms):
            raise FamilyError("representatives must be free of the shared linear form")
    return (*_quartic_and_cofactors(f_prime, g), alpha)


def _quartic_and_cofactors(f: Polynomial, g: Polynomial) -> Tuple[Polynomial, ...]:
    """The quartic h two quintic representatives share, and their linear
    cofactors f / h and g / h."""
    h = gcd_forms(f, g) if f and g else None
    if h is None or h.homogeneous_degree() != 4:
        raise FamilyError("quintics must share a quartic factor")
    return h, divide_exact(f, h), divide_exact(g, h)


def rs_degeneration(I: Ideal) -> DegenerationChain:
    """Degenerate a regularity-5 ideal into the regularity-6 stratum along the
    one-parameter families dictated by its normal form."""
    report = classify(I)
    if report.stratum != "R5":
        raise ValueError(f"degeneration applies to the R5 stratum, got {report.stratum}")
    factored = factor_quadric_net(FormSpace(I.gens, 2).basis())
    if factored is None:
        raise FamilyError("regularity-5 quadrics must factor through a linear form")
    ell, L = factored
    if not FormSpace(L, 1).contains(ell):
        return _rs_case1(I, ell, L)
    return _rs_case2(I, ell, L)


def _rs_case1(I: Ideal, ell, L) -> DegenerationChain:
    moved, _ = _normalize_case1(I, ell, L)
    h, ell1, ell2 = _extract_case1(moved)
    inner = _case1_inner_change(h, ell1, ell2)
    normalized = Ideal([inner.apply(g) for g in moved.gens])
    step = _r6_step(_psi_sigma_family(normalized), "composite")
    return DegenerationChain(steps=(step,), terminal=step.limit)


def _r6_step(family: ParamFamily, kind: str) -> DegenerationStep:
    """The step to the limit at infinity of a family, which must land in the
    regularity-6 stratum."""
    data = family_limit_data(family, at="inf")
    report = classify(data.saturated)
    if report.stratum != "R6":
        raise ArithmeticError(f"{kind} degeneration must land in the regularity-6 stratum")
    return DegenerationStep(family=family, at="inf", limit=data.saturated, report=report,
                            raw_limit=data.raw)


def _case2_normalized(I: Ideal, ell, L) -> Ideal:
    completion = R5Shape.frame_completion(ell, L)
    selected = FormSpace([ell] + completion, 1)
    w = next(v for v in variables() if not selected.contains(v))
    change = forms_to_change([ell] + completion + [w])
    return Ideal([change.apply(g) for g in I.gens])


def _rs_case2(I: Ideal, ell, L) -> DegenerationChain:
    x, y, z, t = variables()
    moved = _case2_normalized(I, ell, L)
    h, ell1, ell2, alpha = _extract_case2(moved)
    weights = (1, 0, 0, 0)
    if alpha != 0:
        step = _r6_step(weight_action_family(moved, weights, "scale the shared linear form"),
                        "torus")
        return DegenerationChain(steps=(step,), terminal=step.limit)
    # alpha = 0: route through the auxiliary ideal carrying an x*t^4 term
    plane = FormSpace([y, z], 1)
    if not plane.contains(ell2):
        if plane.contains(ell1):
            ell1, ell2 = ell2, ell1
        else:
            # combine the cofactors to land the second one in <y, z>
            c1 = ell1.coefficient((0, 0, 0, 1))
            c2 = ell2.coefficient((0, 0, 0, 1))
            ell2 = ell2.scale(c1) - ell1.scale(c2)
            if ell2.is_zero():
                raise FamilyError("cofactors cannot be combined into the designated plane")
    shape = R5Shape(
        case=2, ell=x, L=(x, y, z), ell1=ell1, ell2=ell2, h=h, alpha=Fraction(1), w=t
    )
    bridge = build_stratum_ideal(shape)
    back_family = weight_action_family(bridge, weights, "undo the torus term")
    back = family_limit_data(back_family, at=0)
    if not equal(back.saturated, moved):
        raise ArithmeticError("the bridge ideal must degenerate back to the input")
    step1 = DegenerationStep(
        family=back_family, at="0", limit=back.saturated, report=classify(back.saturated),
        raw_limit=back.raw,
    )
    step2 = _r6_step(weight_action_family(bridge, weights, "scale the shared linear form"),
                     "torus")
    return DegenerationChain(steps=(step1, step2), terminal=step2.limit)
