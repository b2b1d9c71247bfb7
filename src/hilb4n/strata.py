"""Regularity strata of the Hilbert scheme of quotient Hilbert polynomial 4n.

Shape constructors and validators for every ideal pattern occurring in the
stratification (complete intersections, the non-CI regularity-3 ideals, and
the regularity 4/5/6 strata), random samplers, the stratum classifier, and
the dimension ledger with recomputed parameter counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from .gin import is_saturated
from .hilbert import (
    HilbertPolynomial,
    hilbert_function,
    quotient_hilbert_polynomial,
    regularity,
)
from .ideals import FormSpace, Ideal, divide_exact, forms_to_change, intersect
from .linalg import kernel_basis, rank
from .poly import NVARS, Polynomial, count_monomials, linear_form, random_form, variables

FOUR_N = HilbertPolynomial([0, 4])

PHI = {
    3: (0, 0, 2, 8, 19, 36, 60, 92, 133),
    4: (0, 0, 2, 8, 19, 36, 60, 92, 133),
    5: (0, 0, 3, 9, 19, 36, 60, 92, 133),
    6: (0, 1, 4, 10, 20, 36, 60, 92, 133),
}

STRATA = ("V", "R3'", "R4", "R5", "R6")


class ShapeError(ValueError):
    """A shape invariant failed; the message names the violated clause."""


def _require(cond: bool, clause: str):
    if not cond:
        raise ShapeError(clause)


def _subring_contains(frame: Sequence[Polynomial], f: Polynomial) -> bool:
    """Membership of a form in the subring generated by linear forms.

    The coordinate change sending a basis of the frame's span, completed by
    variables, to the variables in order takes f into the subring generated
    by the first variables exactly when f is a polynomial in the frame."""
    span = FormSpace((), 1, f.nvars)
    inside = [b for b in frame if span.add(b)]
    outside = [v for v in variables(f.nvars) if span.add(v)]
    image = forms_to_change(inside + outside).apply(f)
    return not any(any(e[len(inside):]) for e in image.terms)


# ---------------------------------------------------------------------------
# gcd of forms and quadric-net factorization

def gcd_forms(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two forms, read off their least-degree
    relation u*f = v*g.

    The relations are generated by (g, f) / gcd, so the least degree of u in
    a nonzero relation is deg g - deg gcd, the relation there is unique up to
    scale, and gcd = g / u.  One kernel per degree of u; none below deg g
    means the forms are coprime."""
    if f.is_zero() or g.is_zero():
        raise ValueError("gcd of forms requires nonzero inputs")
    a, b = f.homogeneous_degree(), g.homogeneous_degree()
    if a is None or b is None:
        raise ValueError("gcd of forms requires homogeneous inputs")
    for k in range(max(0, b - a), b):
        us, vs = FormSpace((), k, f.nvars), FormSpace((), k + a - b, f.nvars)
        products = FormSpace((), a + k, f.nvars)
        columns = [products.coords(f.mul_monomial(m)) for m in us.monos]
        columns += [products.coords(g.mul_monomial(m)) for m in vs.monos]
        kernel = kernel_basis(list(zip(*columns)))
        if kernel:
            u = us.form(kernel[0][: len(us.monos)])
            return divide_exact(g, u).monic()
    return Polynomial.constant(1, f.nvars)


def coprime_quadrics(f: Polynomial, g: Polynomial) -> bool:
    """Whether two quadrics have no common factor, by one rank check.

    Independent quadrics share a linear factor exactly when they have a
    linear syzygy a*f = b*g, so f and g are coprime exactly when their
    products with the variables are independent; proportional quadrics fail
    the same check."""
    return FormSpace([f, g], 3, f.nvars).dim == 2 * f.nvars


def factor_quadric_net(
    quadrics: Sequence[Polynomial],
) -> Optional[Tuple[Polynomial, List[Polynomial]]]:
    """Factor a 3-dimensional space of quadrics as (linear form) * (3-space of
    linear forms), when possible."""
    basis = list(quadrics)
    if len(basis) != 3:
        raise ValueError("a quadric net is given by three independent quadrics")
    if FormSpace(basis, 2, basis[0].nvars).dim != 3:
        raise ValueError("quadrics are not independent")
    # two independent quadrics share at most a linear factor
    g = gcd_forms(basis[0], basis[1])
    if g.homogeneous_degree() == 0:
        return None
    quotients = [divide_exact(q, g) for q in basis]
    if any(q is None for q in quotients):
        return None
    if FormSpace(quotients, 1).dim != 3:
        raise ArithmeticError("factored net must give independent linear forms")
    return g, [q.monic() for q in quotients]


# ---------------------------------------------------------------------------
# shapes

@dataclass(frozen=True)
class CIShape:
    f: Polynomial
    g: Polynomial
    label: ClassVar[str] = "V"
    regularity: ClassVar[int] = 3

    def generators(self) -> List[Polynomial]:
        return [self.f, self.g]

    def validate(self):
        _require(self.f.homogeneous_degree() == 2, "f must be a quadric")
        _require(self.g.homogeneous_degree() == 2, "g must be a quadric")
        _require(coprime_quadrics(self.f, self.g), "f and g must have no common divisor")


@dataclass(frozen=True)
class R3PrimeShape:
    ell: Polynomial
    ell1: Polynomial
    ell2: Polynomial
    cubic: Polynomial
    label: ClassVar[str] = "R3'"
    regularity: ClassVar[int] = 3

    def generators(self) -> List[Polynomial]:
        return [self.ell * self.ell1, self.ell * self.ell2, self.cubic]

    def validate(self):
        for name, form in (("ell", self.ell), ("ell1", self.ell1), ("ell2", self.ell2)):
            _require(form.homogeneous_degree() == 1, f"{name} must be a nonzero linear form")
        _require(FormSpace([self.ell1, self.ell2], 1).dim == 2, "ell1, ell2 must be independent")
        _require(self.cubic.homogeneous_degree() == 3, "the extra generator must be a cubic")
        _require(Ideal([self.ell1, self.ell2]).contains(self.cubic),
                 "the cubic must lie in (ell1, ell2)")
        _require(divide_exact(self.cubic, self.ell) is None, "the cubic must not be divisible by ell")

    @staticmethod
    def from_pq(ell, ell1, ell2, p, q) -> "R3PrimeShape":
        return R3PrimeShape(ell, ell1, ell2, ell1 * p + ell2 * q)


@dataclass(frozen=True)
class R4Shape:
    ell: Polynomial
    ell1: Polynomial
    ell2: Polynomial
    q: Polynomial
    p: Polynomial
    label: ClassVar[str] = "R4"
    regularity: ClassVar[int] = 4

    def generators(self) -> List[Polynomial]:
        return [self.ell * self.ell1, self.ell * self.ell2, self.ell * self.q, self.p]

    def validate(self):
        for name, form in (("ell", self.ell), ("ell1", self.ell1), ("ell2", self.ell2)):
            _require(form.homogeneous_degree() == 1, f"{name} must be a nonzero linear form")
        _require(FormSpace([self.ell1, self.ell2], 1).dim == 2, "ell1, ell2 must be independent")
        _require(self.q.homogeneous_degree() == 2, "q must be a quadric")
        _require(
            not FormSpace([self.ell1, self.ell2], 2).contains(self.q),
            "q must not lie in (ell1, ell2)",
        )
        _require(self.p.homogeneous_degree() == 4, "p must be a quartic")
        _require(
            Ideal([self.ell1, self.ell2, self.q]).contains(self.p),
            "p must lie in (ell1, ell2, q)",
        )
        _require(divide_exact(self.p, self.ell) is None, "p must not be divisible by ell")


@dataclass(frozen=True)
class R5Shape:
    case: int
    ell: Polynomial
    L: Tuple[Polynomial, Polynomial, Polynomial]
    ell1: Polynomial
    ell2: Polynomial
    h: Polynomial
    alpha: Fraction = Fraction(0)
    w: Optional[Polynomial] = None  # distinguished complement variable, case 2
    label: ClassVar[str] = "R5"
    regularity: ClassVar[int] = 5

    def generators(self) -> List[Polynomial]:
        f = self.ell1 * self.h
        if self.case == 2 and self.alpha != 0:
            f = f + (self.ell * self.w**4).scale(self.alpha)
        return [self.ell * b for b in self.L] + [f, self.ell2 * self.h]

    def complement_frame(self) -> List[Polynomial]:
        if self.case == 1:
            return list(self.L)
        completion = R5Shape.frame_completion(self.ell, self.L)
        return completion + ([self.w] if self.w is not None else [])

    @staticmethod
    def frame_completion(ell: Polynomial, L: Sequence[Polynomial]) -> List[Polynomial]:
        """The forms of L, in order, that each stay independent of ell and of
        the forms kept before them: the case-2 completion of ell inside L."""
        span = FormSpace([ell], 1)
        return [b for b in L if span.add(b)]

    def validate(self):
        """The clauses of the R5 normal form.

        The quadrics ell * L cut out the plane ell = 0 and the point V(L).
        The scheme keeps that point only if both quintics vanish there;
        otherwise its quotient Hilbert polynomial is 4n - 1.  In case 1 this
        holds by construction, since ell1, ell2 and h lie in k[L]; in case 2
        it needs h or both cofactors to vanish at the point."""
        _require(self.case in (1, 2), "case must be 1 or 2")
        _require(self.ell.homogeneous_degree() == 1, "ell must be a nonzero linear form")
        span_L = FormSpace(self.L, 1)
        _require(len(self.L) == 3 and span_L.dim == 3, "L must be 3-dimensional")
        _require(self.h.homogeneous_degree() == 4, "h must be a quartic")
        if self.case == 1:
            _require(not span_L.contains(self.ell), "case 1 needs ell outside L")
            _require(self.alpha == 0, "case 1 carries no torus term")
        else:
            _require(span_L.contains(self.ell), "case 2 needs ell inside L")
            _require(self.w is not None and self.w.homogeneous_degree() == 1, "case 2 needs w")
            _require(not span_L.contains(self.w), "w must complement L")
        frame = self.complement_frame()
        span_frame = FormSpace(frame, 1)
        _require(len(frame) == 3 and span_frame.dim == 3, "complement frame degenerate")
        _require(span_frame.contains(self.ell1), "ell1 must lie in the complement ring")
        _require(span_frame.contains(self.ell2), "ell2 must lie in the complement ring")
        _require(FormSpace([self.ell1, self.ell2], 1).dim == 2, "ell1, ell2 must be independent")
        _require(_subring_contains(frame, self.h), "h must lie in the complement ring")
        if self.case == 2 and self.alpha != 0:
            _require(
                span_L.contains(self.ell2),
                "with a nonzero torus term, ell2 must lie in the designated 2-space",
            )
        # the torus term vanishes at V(L): ell lies in L, or alpha is 0
        point = kernel_basis([span_L.coords(b) for b in self.L])[0]
        _require(
            self.h.evaluate(point) == 0
            or self.ell1.evaluate(point) == self.ell2.evaluate(point) == 0,
            "the quintics must vanish at the point V(L)",
        )


@dataclass(frozen=True)
class R6Shape:
    ell: Polynomial
    f: Polynomial
    h: Polynomial
    g: Polynomial
    label: ClassVar[str] = "R6"
    regularity: ClassVar[int] = 6

    def generators(self) -> List[Polynomial]:
        return [self.ell, self.f * self.h, self.f * self.g]

    def validate(self):
        _require(self.ell.homogeneous_degree() == 1, "ell must be a nonzero linear form")
        _require(self.f.homogeneous_degree() == 4, "f must be a quartic")
        _require(divide_exact(self.f, self.ell) is None, "f must not be divisible by ell")
        _require(self.h.homogeneous_degree() == 1, "h must be a nonzero linear form")
        _require(not FormSpace([self.ell], 1).contains(self.h), "h must not be proportional to ell")
        _require(self.g.homogeneous_degree() == 2, "g must be a quadric")
        _require(
            not FormSpace([self.ell, self.h], 2).contains(self.g),
            "g must not lie in (ell, h)",
        )


@dataclass(frozen=True)
class RSFamilyShape:
    ell: Polynomial
    f: Polynomial
    pt1: Tuple[Fraction, ...]
    pt2: Tuple[Fraction, ...]

    def validate(self):
        _require(self.ell.homogeneous_degree() == 1, "ell must be a nonzero linear form")
        _require(self.f.homogeneous_degree() == 4, "f must be a quartic")
        _require(divide_exact(self.f, self.ell) is None, "f must not be divisible by ell")
        for name, pt in (("pt1", self.pt1), ("pt2", self.pt2)):
            _require(len(pt) == NVARS and any(pt), f"{name} must be a point of projective space")
        _require(not _proportional(self.pt1, self.pt2), "the two points must be distinct")
        for name, pt in (("pt1", self.pt1), ("pt2", self.pt2)):
            on_curve = self.ell.evaluate(pt) == 0 and self.f.evaluate(pt) == 0
            _require(not on_curve, f"{name} must avoid the curve")


def _proportional(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    return rank([list(a), list(b)]) < 2


# ---------------------------------------------------------------------------
# building ideals from shapes

def build_stratum_ideal(shape) -> Ideal:
    """The ideal a shape denotes.  A broken shape clause raises ShapeError;
    a valid shape whose ideal breaks its stratum's contract raises
    ArithmeticError (see ``_contract_ideal``)."""
    shape.validate()
    return _contract_ideal(shape)


def _contract_ideal(shape) -> Ideal:
    """The ideal of a valid shape, checked against its stratum's contract:
    Hilbert function PHI[r] through degree 8 and regularity r.  A break
    contradicts the stratification, so it raises ArithmeticError naming the
    shape."""
    ideal = Ideal(shape.generators())
    got = tuple(hilbert_function(ideal, n) for n in range(9)), regularity(ideal)
    expected = PHI[shape.regularity], shape.regularity
    if got != expected:
        raise ArithmeticError(f"{shape!r} of stratum {shape.label} has Hilbert function and "
                              f"regularity {got}, expected {expected}")
    return ideal


# ---------------------------------------------------------------------------
# random samplers

_MAX_DRAWS = 200


def _random_independent_linears(rng, count: int, bound: int = 5) -> List[Polynomial]:
    for _ in range(_MAX_DRAWS):
        forms = [random_form(rng, 1, bound=bound) for _ in range(count)]
        if FormSpace(forms, 1).dim == count:
            return forms
    raise ArithmeticError("failed to draw independent linear forms")


def sample_stratum_with_shape(label: str, rng: random.Random, bound: int = 5):
    """A random (shape, ideal) pair of the stratum, with integer coefficients.

    Each draw's shape is validated once; a ShapeError means the next draw.
    The first valid shape's ideal is then checked once against the stratum's
    contract, and a break raises ArithmeticError naming the shape instead of
    being drawn again (``_contract_ideal``)."""
    if label not in STRATA:
        raise ValueError(f"unknown stratum {label!r}; choose from {STRATA}")
    for _ in range(_MAX_DRAWS):
        if label == "V":
            shape = CIShape(random_form(rng, 2, bound=bound), random_form(rng, 2, bound=bound))
        elif label == "R3'":
            ell, ell1, ell2 = (
                random_form(rng, 1, bound=bound),
                *_random_independent_linears(rng, 2, bound),
            )
            shape = R3PrimeShape.from_pq(
                ell, ell1, ell2, random_form(rng, 2, bound=bound), random_form(rng, 2, bound=bound)
            )
        elif label == "R4":
            ell = random_form(rng, 1, bound=bound)
            ell1, ell2 = _random_independent_linears(rng, 2, bound)
            q = random_form(rng, 2, bound=bound)
            p = (
                ell1 * random_form(rng, 3, bound=bound)
                + ell2 * random_form(rng, 3, bound=bound)
                + q * random_form(rng, 2, bound=bound)
            )
            shape = R4Shape(ell, ell1, ell2, q, p)
        elif label == "R5":
            shape = _sample_r5(rng, bound)
        else:
            ell, h = _random_independent_linears(rng, 2, bound)
            f, g = random_form(rng, 4, bound=bound), random_form(rng, 2, bound=bound)
            shape = R6Shape(ell, f, h, g)
        try:
            shape.validate()
        except ShapeError:
            continue
        return shape, _contract_ideal(shape)
    raise ArithmeticError(f"rejection sampling for stratum {label} exhausted")


def _sample_r5(rng: random.Random, bound: int) -> R5Shape:
    case = rng.choice((1, 2))
    frame_all = _random_independent_linears(rng, 4, bound)
    if case == 1:
        ell, L = frame_all[0], tuple(frame_all[1:])
        frame = list(L)
        w = None
        alpha = Fraction(0)
    else:
        ell = frame_all[0]
        L = (ell, frame_all[1], frame_all[2])
        w = frame_all[3]
        frame = [frame_all[1], frame_all[2], w]
        alpha = Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(1, bound))
    # with alpha = 0, half the samples avoid the complement variable entirely,
    # which keeps the torus term absent in every renormalization
    planar = case == 2 and alpha == 0 and rng.random() < 0.5
    coeff_sets = []
    for idx in (
        (0, 1) if planar else (0, 1, 2),
        (0, 1) if planar or (case == 2 and alpha != 0) else (0, 1, 2),
    ):
        coeffs = [Fraction(0)] * 3
        while not any(coeffs):
            coeffs = [
                Fraction(rng.randint(-bound, bound)) if i in idx else Fraction(0)
                for i in range(3)
            ]
        coeff_sets.append(coeffs)
    ell1 = sum((f.scale(c) for f, c in zip(frame, coeff_sets[0])), Polynomial.zero(NVARS))
    ell2 = sum((f.scale(c) for f, c in zip(frame, coeff_sets[1])), Polynomial.zero(NVARS))
    h3 = random_form(rng, 4, nvars=3, bound=bound,
                     var_subset=(0, 1) if planar else None)
    h = h3.substitute(frame)
    return R5Shape(case=case, ell=ell, L=L, ell1=ell1, ell2=ell2, h=h, alpha=alpha, w=w)


def sample_stratum(label: str, rng: random.Random, bound: int = 5) -> Ideal:
    """The ideal of ``sample_stratum_with_shape``: a random ideal of the
    stratum whose contract has been checked once."""
    return sample_stratum_with_shape(label, rng, bound)[1]


# ---------------------------------------------------------------------------
# the family of plane-quartic-plus-two-points ideals

def point_ideal(pt: Sequence) -> Ideal:
    pt = [Fraction(c) for c in pt]
    if len(pt) != NVARS or not any(pt):
        raise ValueError("a point needs a nonzero coordinate 4-tuple")
    pivot = next(i for i, c in enumerate(pt) if c)
    gens = []
    for i in range(NVARS):
        if i == pivot:
            continue
        coeffs = [Fraction(0)] * NVARS
        coeffs[i] = pt[pivot]
        coeffs[pivot] = -pt[i]
        gens.append(linear_form(coeffs))
    return Ideal(gens)


def rs_family_ideal(shape: RSFamilyShape) -> Ideal:
    """(ell, f) intersected with two point ideals; quotient Hilbert polynomial
    4n is asserted."""
    shape.validate()
    plane_curve = Ideal([shape.ell, shape.f])
    result = intersect(intersect(plane_curve, point_ideal(shape.pt1)), point_ideal(shape.pt2))
    if quotient_hilbert_polynomial(result) != FOUR_N:
        raise ArithmeticError("family member must have quotient Hilbert polynomial 4n")
    return result


def sample_rs_family(rng: random.Random, bound: int = 5) -> Ideal:
    """A generic member of the plane-quartic-plus-two-points family: the
    points avoid the plane of the curve, not just the curve itself."""
    for _ in range(_MAX_DRAWS):
        try:
            ell = random_form(rng, 1, bound=bound)
            f = random_form(rng, 4, bound=bound)
            pt1 = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(NVARS))
            pt2 = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(NVARS))
            if ell.evaluate(pt1) == 0 or ell.evaluate(pt2) == 0:
                continue
            shape = RSFamilyShape(ell, f, pt1, pt2)
            return rs_family_ideal(shape)
        except (ShapeError, ValueError):
            continue
    raise ArithmeticError("rejection sampling for the curve-plus-points family exhausted")


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class StratumReport:
    regularity: int
    stratum: str
    hilbert_values: Tuple[int, ...]
    ci: bool
    components_certain: Tuple[str, ...]
    components_unknown: Tuple[str, ...]

    def to_dict(self) -> Dict:
        return {
            "regularity": self.regularity,
            "stratum": self.stratum,
            "hilbert_values": list(self.hilbert_values),
            "ci": self.ci,
            "components": list(self.components_certain),
            "components_unknown": list(self.components_unknown),
        }


def classify(I: Ideal) -> StratumReport:
    """Regularity stratum and component memberships of a Hilbert scheme point.

    Regularity 3 points lie on the complete-intersection component (CI points
    by definition, the rest by degeneration); regularity 4, 5, 6 points lie on
    the lex-point component (its closure is the regularity-4 closure).
    Membership in the other component is reported as unknown.
    """
    if quotient_hilbert_polynomial(I) != FOUR_N:
        raise ValueError("classification requires quotient Hilbert polynomial 4n")
    if not is_saturated(I):
        raise ValueError("classification requires a saturated ideal")
    reg = regularity(I)
    if reg not in (3, 4, 5, 6):
        raise ArithmeticError(f"impossible regularity {reg} for this Hilbert scheme")
    values = tuple(hilbert_function(I, n) for n in range(8))
    ci = False
    if reg == 3:
        quadrics = FormSpace(I.gens, 2, I.nvars).basis()
        if len(quadrics) != 2:
            raise ArithmeticError("a regularity-3 point must have two quadric generators")
        ci = coprime_quadrics(quadrics[0], quadrics[1])
        stratum = "V" if ci else "R3'"
        certain, unknown = ("H_VA",), ("H_RS",)
    else:
        stratum = f"R{reg}"
        certain, unknown = ("H_RS",), ("H_VA",)
    return StratumReport(
        regularity=reg,
        stratum=stratum,
        hilbert_values=values,
        ci=ci,
        components_certain=certain,
        components_unknown=unknown,
    )


# ---------------------------------------------------------------------------
# the dimension ledger

@dataclass(frozen=True)
class DimensionEntry:
    name: str
    dimension: int
    terms: Tuple[Tuple[str, int], ...]

    def derivation(self) -> str:
        return " + ".join(f"{label}={value}" for label, value in self.terms)


def _grass_dim(k: int, n: int) -> int:
    return k * (n - k)


def _proj_dim(n: int) -> int:
    return n - 1


def dimension_table() -> Dict[str, DimensionEntry]:
    """Dimensions of the strata and auxiliary spaces, each recomputed from
    Grassmannian / projective-space dimensions and graded piece counts."""
    x, y, z, t = variables()
    dim_p1 = count_monomials(1, NVARS)
    dim_p2 = count_monomials(2, NVARS)
    dim_p4 = count_monomials(4, NVARS)

    # representative graded dimensions, computed by the engine
    line = Ideal([y, z])  # (ell1, ell2) for ell1=y, ell2=z
    cubic_choices = hilbert_function(line, 3) - hilbert_function(Ideal([x * y, x * z]), 3)
    conic = Ideal([y, z, t * t])  # (ell1, ell2, q) with q outside (ell1, ell2)
    quartic_choices = hilbert_function(conic, 4) - hilbert_function(
        Ideal([x * y, x * z, x * t * t]), 4
    )
    q_choices = dim_p2 - hilbert_function(line, 2)
    f_choices = dim_p4 - hilbert_function(Ideal([x]), 4)
    h_choices = dim_p1 - 1
    g_choices = dim_p2 - hilbert_function(Ideal([x, y]), 2)

    entries = [
        DimensionEntry("V", _grass_dim(2, dim_p2), (("Grass(2,P2)", _grass_dim(2, dim_p2)),)),
        DimensionEntry(
            "R3'",
            _proj_dim(dim_p1) + _grass_dim(2, dim_p1) + _proj_dim(cubic_choices),
            (
                ("P(P1)", _proj_dim(dim_p1)),
                ("Grass(2,P1)", _grass_dim(2, dim_p1)),
                ("P(cubics)", _proj_dim(cubic_choices)),
            ),
        ),
        DimensionEntry(
            "Hq",
            _grass_dim(2, dim_p1) + _proj_dim(q_choices),
            (("Grass(2,P1)", _grass_dim(2, dim_p1)), ("P(quadrics)", _proj_dim(q_choices))),
        ),
        DimensionEntry(
            "R4",
            _proj_dim(dim_p1) + (_grass_dim(2, dim_p1) + _proj_dim(q_choices)) + _proj_dim(quartic_choices),
            (
                ("P(P1)", _proj_dim(dim_p1)),
                ("Hq", _grass_dim(2, dim_p1) + _proj_dim(q_choices)),
                ("P(quartics)", _proj_dim(quartic_choices)),
            ),
        ),
        DimensionEntry(
            "H1",
            _proj_dim(dim_p1) + _grass_dim(2, dim_p1 - 1) + _proj_dim(f_choices),
            (
                ("P(P1)", _proj_dim(dim_p1)),
                ("Grass(2,P1/ell)", _grass_dim(2, dim_p1 - 1)),
                ("P(P4/ell*P3)", _proj_dim(f_choices)),
            ),
        ),
        DimensionEntry(
            "R5",
            _proj_dim(dim_p1) + _grass_dim(2, dim_p1 - 1) + _proj_dim(f_choices) + 3,
            (
                ("H1", _proj_dim(dim_p1) + _grass_dim(2, dim_p1 - 1) + _proj_dim(f_choices)),
                ("fibre", 3),
            ),
        ),
        DimensionEntry(
            "R6",
            _proj_dim(dim_p1) + _proj_dim(f_choices) + _proj_dim(h_choices) + _proj_dim(g_choices),
            (
                ("P(P1)", _proj_dim(dim_p1)),
                ("P(P4/ell*P3)", _proj_dim(f_choices)),
                ("P(P1/ell)", _proj_dim(h_choices)),
                ("P(P2/(ell,h))", _proj_dim(g_choices)),
            ),
        ),
        DimensionEntry(
            "Z",
            _proj_dim(dim_p1) + _proj_dim(f_choices) + 3 + 3,
            (
                ("P(P1)", _proj_dim(dim_p1)),
                ("P(P4/ell*P3)", _proj_dim(f_choices)),
                ("point1", 3),
                ("point2", 3),
            ),
        ),
    ]
    return {e.name: e for e in entries}
