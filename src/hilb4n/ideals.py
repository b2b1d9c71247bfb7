"""Homogeneous ideals: Groebner caches, initial ideals, quotients, saturation,
intersection and equality.

Monomial ideals take combinatorial fast paths throughout; everything else goes
through the Buchberger engine.  Intersections use a single elimination tag
variable; saturation by a variable uses the degrevlex last-variable division
trick (exact), and any other form f becomes a new last variable w = f, whose
saturation is the same trick under a weighted order.  Saturation by the
irrelevant ideal is one saturation by the first linear form of a fixed
sequence that keeps the Hilbert polynomial, which certifies it
(Bayer-Stillman).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .linalg import Subspace
from .orders import DEGREVLEX, DegRevLex, Exponent, MonomialOrder, WeightOrder, elimination_order
from .poly import (
    NVARS,
    LinearChange,
    Polynomial,
    format_polynomial,
    linear_form,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomials_of_degree,
    variables,
)
from . import groebner as _gb


class Ideal:
    """Homogeneous ideal given by generators, with cached reduced bases."""

    __slots__ = ("gens", "nvars", "_gb_cache", "_gin", "_hp", "_lead", "_reg")

    def __init__(self, gens: Iterable[Polynomial], nvars: Optional[int] = None):
        gens = [g for g in gens if g and not g.is_zero()]
        if nvars is None:
            if not gens:
                raise ValueError("empty ideal needs an explicit variable count")
            nvars = gens[0].nvars
        for g in gens:
            if g.nvars != nvars:
                raise ValueError("generators live in different rings")
            if not g.is_homogeneous():
                raise ValueError(f"generator is not homogeneous: {g!r}")
        self.gens: Tuple[Polynomial, ...] = tuple(gens)
        self.nvars = nvars
        self._gb_cache: Dict[MonomialOrder, Tuple[Polynomial, ...]] = {}
        self._gin = None
        self._hp = None
        self._lead = None  # minimal degrevlex leading exponents, see hilbert
        self._reg = None  # regularity, see hilbert

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.gens)

    def monomial_generators(self) -> List[Exponent]:
        """Minimal monomial generators (monomial ideals only)."""
        if not self.is_monomial():
            raise ValueError("not a monomial ideal")
        return minimalize_monomials([g.leading_monomial() for g in self.gens])

    def groebner_basis(self, order: MonomialOrder = DEGREVLEX) -> Tuple[Polynomial, ...]:
        cached = self._gb_cache.get(order)
        if cached is not None:
            return cached
        gb = tuple(groebner_basis(list(self.gens), order))
        self._gb_cache[order] = gb
        return gb

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def graded_piece(self, n: int) -> Subspace:
        """Degree-n piece of the ideal as a subspace of P_n in the monomial
        coordinate basis (degrevlex-descending)."""
        return FormSpace(self.gens, n, self.nvars).space

    def __eq__(self, other):
        return isinstance(other, Ideal) and equal(self, other)

    def __hash__(self):
        # canonical: hash of the reduced degrevlex basis
        return hash(self.groebner_basis(DEGREVLEX))

    def __repr__(self):
        inner = ", ".join(format_polynomial(g) for g in self.gens) or "0"
        return f"Ideal({inner})"


@lru_cache(maxsize=None)
def graded_monomial_basis(n: int, nvars: int) -> Tuple[Exponent, ...]:
    """The degree-n monomials, degrevlex-descending; built once per (n, nvars)."""
    return tuple(sorted(monomials_of_degree(n, nvars), key=DEGREVLEX.key, reverse=True))


class FormSpace:
    """The degree-d piece of the ideal the homogeneous forms ``gens``
    generate; for forms of degree d, simply their span.

    The piece is held as ``space``, a ``Subspace`` in the coordinates of
    ``graded_monomial_basis(degree, nvars)``.  This is the one place where a
    form becomes a coefficient vector and a row becomes a form.
    """

    __slots__ = ("monos", "nvars", "_index", "space")

    def __init__(self, gens: Iterable[Polynomial], degree: int, nvars: int = NVARS):
        self.monos = graded_monomial_basis(degree, nvars)
        self.nvars = nvars
        self._index = {e: i for i, e in enumerate(self.monos)}
        vectors = []
        for g in gens:
            if g.is_zero():
                continue
            d = g.homogeneous_degree()
            if d is None:
                raise ValueError(f"generator is not homogeneous: {g!r}")
            if d <= degree:
                vectors.extend(
                    self.coords(g.mul_monomial(m)) for m in monomials_of_degree(degree - d, nvars)
                )
        self.space = Subspace(vectors, len(self.monos))

    @property
    def dim(self) -> int:
        return self.space.dim

    def coords(self, f: Polynomial) -> List[Fraction]:
        """Coefficient vector of a degree-d form."""
        v = [Fraction(0)] * len(self.monos)
        for e, c in f.terms.items():
            v[self._index[e]] = c
        return v

    def form(self, row: Sequence) -> Polynomial:
        """The degree-d form with the given coefficient vector."""
        return Polynomial({m: c for m, c in zip(self.monos, row) if c}, self.nvars)

    def basis(self) -> List[Polynomial]:
        """The forms of the reduced row echelon basis."""
        return [self.form(row) for row in self.space.rows]

    def contains(self, f: Polynomial) -> bool:
        return self.space.contains(self.coords(f))

    def reduce(self, f: Polynomial) -> Polynomial:
        """The exact residue of f modulo the space (zero iff f is a member)."""
        return self.form(self.space.reduce(self.coords(f)))

    def add(self, f: Polynomial) -> bool:
        """Extend the space by f; True when it grew."""
        dim = self.space.dim
        self.space = self.space.extended([self.coords(f)])
        return self.space.dim > dim


# ---------------------------------------------------------------------------
# monomial combinatorics

def minimalize_monomials(monos: Iterable[Exponent]) -> List[Exponent]:
    ms = sorted(set(monos), key=lambda e: (sum(e), DEGREVLEX.key(e)))
    out: List[Exponent] = []
    for m in ms:
        if not any(monomial_divides(k, m) for k in out):
            out.append(m)
    return sorted(out, key=DEGREVLEX.key, reverse=True)


def monomial_ideal(monos: Iterable[Exponent], nvars: int = NVARS) -> Ideal:
    return Ideal([Polynomial.monomial(e) for e in minimalize_monomials(monos)], nvars)


def _monomial_intersect(a: Sequence[Exponent], b: Sequence[Exponent], nvars: int) -> Ideal:
    return monomial_ideal([monomial_lcm(x, y) for x in a for y in b], nvars)


def _monomial_saturate_var(monos: Sequence[Exponent], var: int, nvars: int) -> List[Exponent]:
    out = []
    for m in monos:
        e = list(m)
        e[var] = 0
        out.append(tuple(e))
    return minimalize_monomials(out)


# ---------------------------------------------------------------------------
# core operations

def groebner_basis(
    gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX
) -> List[Polynomial]:
    """Reduced Groebner basis of the ideal the generators span."""
    gens = [g for g in gens if g and not g.is_zero()]
    if not gens:
        return []
    if all(g.is_monomial() for g in gens):
        monic = [g.leading_monomial() for g in gens]
        return [Polynomial.monomial(e) for e in minimalize_monomials(monic)]
    if isinstance(order, DegRevLex):
        linear, rest = _gb.reduce_by_linear_forms(gens)
        if linear and rest:
            inner = _gb.buchberger(rest, order)
            if any(g.homogeneous_degree() == 0 for g in inner):
                return inner  # the unit ideal absorbs the linear forms
            combined = linear + inner
            combined.sort(key=lambda p: order.key(p.leading_monomial(order)), reverse=True)
            return combined
        if linear and not rest:
            return linear
    return _gb.buchberger(gens, order)


def normal_form(f: Polynomial, I: Ideal) -> Polynomial:
    """Unique remainder of f modulo I under degrevlex."""
    return _gb.normal_form_poly(f, I.groebner_basis())


def initial_ideal(I: Ideal, order: MonomialOrder = DEGREVLEX) -> Ideal:
    """Monomial ideal of leading monomials."""
    gb = I.groebner_basis(order)
    return monomial_ideal([g.leading_monomial(order) for g in gb], I.nvars)


def equal(I: Ideal, J: Ideal) -> bool:
    if I.nvars != J.nvars:
        return False
    return I.groebner_basis(DEGREVLEX) == J.groebner_basis(DEGREVLEX)


def minimal_generators(I: Ideal) -> List[Polynomial]:
    """Minimal homogeneous generators, by ascending degree.

    In each degree d, the reduced basis elements of degree d span I_d together
    with P_1 * I_{d-1}, so a basis of I_d modulo P_1 * I_{d-1} chosen among
    them is a minimal generating set in that degree.
    """
    if I.is_zero():
        return []
    if I.is_monomial():
        return [Polynomial.monomial(e) for e in sorted(I.monomial_generators(), key=sum)]
    gb = list(I.groebner_basis(DEGREVLEX))
    degrees = sorted({g.homogeneous_degree() for g in gb})
    kept: List[Polynomial] = []
    for d in degrees:
        space = FormSpace(kept, d, I.nvars)
        kept.extend([g for g in gb if g.homogeneous_degree() == d and space.add(g)])
    return kept


# ---------------------------------------------------------------------------
# elimination machinery

def _tag_extend(p: Polynomial) -> Polynomial:
    """View p in the ring with a leading elimination tag variable."""
    return Polynomial({(0,) + e: c for e, c in p.terms.items()}, p.nvars + 1)


def eliminate_tag(gens_ext: Sequence[Polynomial], nvars: int) -> List[Polynomial]:
    """Groebner-eliminate the leading tag variable; returns generators of the
    contraction to the original ring."""
    order = elimination_order(1)
    gb = _gb.buchberger(list(gens_ext), order)
    out = []
    for g in gb:
        if all(e[0] == 0 for e in g.terms):
            out.append(Polynomial({e[1:]: c for e, c in g.terms.items()}, nvars))
    return out


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """Exact ideal intersection via one auxiliary tag variable."""
    if I.nvars != J.nvars:
        raise ValueError("ideals live in different rings")
    if I.is_zero() or J.is_zero():
        return Ideal([], I.nvars)
    if I.is_monomial() and J.is_monomial():
        return _monomial_intersect(I.monomial_generators(), J.monomial_generators(), I.nvars)
    n = I.nvars
    u = Polynomial.variable(0, n + 1)
    one = Polynomial.constant(1, n + 1)
    ext = [u * _tag_extend(g) for g in I.gens]
    ext += [(one - u) * _tag_extend(g) for g in J.gens]
    return Ideal(eliminate_tag(ext, n), n)


def divide_exact(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """f / g when g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    r, quots = _gb.division_quotients(f, [g])
    return quots[0] if r.is_zero() else None


def quotient(I: Ideal, f: Polynomial) -> Ideal:
    """Colon ideal I : f = {g : g*f in I}."""
    if f.is_zero():
        raise ValueError("cannot form the colon ideal by zero")
    if not f.is_homogeneous():
        raise ValueError("colon divisor must be homogeneous")
    if I.is_zero():
        return Ideal([], I.nvars)
    if I.is_monomial() and f.is_monomial():
        fm = f.leading_monomial()
        quots = [
            monomial_div(monomial_lcm(m, fm), fm) for m in I.monomial_generators()
        ]
        return monomial_ideal(quots, I.nvars)
    inter = intersect(I, Ideal([f], I.nvars))
    out = []
    for g in inter.gens:
        q = divide_exact(g, f)
        if q is None:
            raise ArithmeticError("intersection with a principal ideal must be divisible")
        out.append(q)
    return Ideal(out, I.nvars)


def _permute_poly(p: Polynomial, perm: Sequence[int]) -> Polynomial:
    return Polynomial({tuple(e[i] for i in perm): c for e, c in p.terms.items()}, p.nvars)


def saturate_by_variable(I: Ideal, var: int) -> Ideal:
    """I : x_var^infinity via the degrevlex last-variable division trick."""
    if I.is_zero():
        return I
    if I.is_monomial():
        return monomial_ideal(
            _monomial_saturate_var(I.monomial_generators(), var, I.nvars), I.nvars
        )
    n = I.nvars
    perm = [i for i in range(n) if i != var] + [var]
    inv = [perm.index(i) for i in range(n)]
    if var == n - 1:  # the identity permutation: the cached basis serves
        gb = I.groebner_basis()
    else:
        gb = groebner_basis([_permute_poly(g, perm) for g in I.gens], DEGREVLEX)
    return Ideal([_permute_poly(_divide_out_last(g), inv) for g in gb], n)


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """Stable colon ideal I : f^infinity.

    A variable takes ``saturate_by_variable``.  Any other form f, of degree
    d, becomes a new last variable w of weight d: J = I + (w - f) is
    homogeneous for that grading, and under degrevlex refined by it (or plain
    degrevlex when d = 1) the leading term of a homogeneous form has its
    least power of w.  So J : w^infinity is generated by the reduced basis of
    J with each element's power of w divided out, and w -> f maps it onto
    I : f^infinity, since k[x, w] / (w - f) is k[x] with w = f."""
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    var = _as_variable(f)
    if var is not None:
        return saturate_by_variable(I, var)
    d, n = f.homogeneous_degree(), I.nvars
    if d is None:
        raise ValueError("the saturating form must be homogeneous")
    order = DEGREVLEX if d == 1 else WeightOrder((1,) * n + (d,), DEGREVLEX)
    w = Polynomial.variable(n, n + 1)
    gb = groebner_basis([g.extend() for g in I.gens] + [w - f.extend()], order)
    images = variables(n) + (f,)
    return Ideal([_divide_out_last(g).substitute(images) for g in gb], n)


def _divide_out_last(g: Polynomial) -> Polynomial:
    """g divided by the largest power of the last variable dividing it."""
    v = min(e[-1] for e in g.terms)
    if not v:
        return g
    return Polynomial({e[:-1] + (e[-1] - v,): c for e, c in g.terms.items()}, g.nvars)


def _as_variable(f: Polynomial) -> Optional[int]:
    if len(f.terms) != 1:
        return None
    (e,) = f.terms
    if sum(e) == 1:
        return e.index(1)
    return None


def forms_to_change(forms: Sequence[Polynomial]) -> LinearChange:
    """The change of coordinates sending the i-th given linear form to the
    i-th variable (forms transform by v -> v A, so A inverts the row matrix)."""
    linear = FormSpace((), 1, forms[0].nvars)
    return LinearChange([linear.coords(f) for f in forms]).inverse()


def to_last_variable(f: Polynomial) -> LinearChange:
    """The change of coordinates sending the linear form f to the last
    variable and the other variables, in order, to the first ones."""
    lead = f.leading_monomial().index(1)
    others = [v for i, v in enumerate(variables(f.nvars)) if i != lead]
    return forms_to_change(others + [f])


def _search_forms(nvars: int) -> Iterator[Polynomial]:
    """t, z, y, x, then the moment forms x + c*y + c^2*z + c^3*t, c = 1, 2, ..."""
    yield from reversed(variables(nvars))
    for c in count(1):
        yield linear_form([c**i for i in range(nvars)], nvars)


def saturating_form(I: Ideal) -> Tuple[Polynomial, Ideal]:
    """The first form h of ``_search_forms`` whose saturation I : h^infinity
    has the Hilbert polynomial of I, and that saturation, which is I^sat.

    I : h^infinity is saturated and contains I^sat, and two saturated ideals,
    one inside the other, with the same Hilbert polynomial are equal (the
    quotient has finite length, so it is irrelevant-torsion in S/I^sat, which
    has none).  So h is a nonzerodivisor on S/I^sat.  The search ends: a
    homogeneous prime other than the irrelevant ideal contains at most
    nvars - 1 moment forms (Vandermonde), and I^sat has finitely many
    associated primes.
    """
    return _first_saturating(I, _search_forms(I.nvars))


def _first_saturating(I: Ideal, forms: Iterable[Polynomial]) -> Tuple[Polynomial, Ideal]:
    """The first of ``forms`` whose saturation keeps the Hilbert polynomial of
    I, and that saturation (see ``saturating_form``)."""
    from .hilbert import hilbert_polynomial

    target = hilbert_polynomial(I)
    for h in forms:
        sat = saturate(I, h)
        if hilbert_polynomial(sat) == target:
            return h, sat


def saturate_irrelevant(I: Ideal) -> Ideal:
    """Saturation by the irrelevant maximal ideal: the largest homogeneous
    ideal with the same sheaf, as one certified saturation by a linear form
    (``saturating_form``)."""
    return saturating_form(I)[1]
