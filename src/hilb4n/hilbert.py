"""Hilbert functions, Hilbert polynomials, regularity, Macaulay growth, and
Gotzmann numbers.

Conventions are ideal-side: hilbert_function(I, n) = dim I_n; quotient-side
values are obtained by subtracting from dim P_n.  All values are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .ideals import Ideal, groebner_basis, minimalize_monomials
from .ideals import saturating_form, to_last_variable
from .orders import Exponent
from .poly import Polynomial, count_monomials, format_polynomial


# ---------------------------------------------------------------------------
# Hilbert polynomials

class HilbertPolynomial:
    """Polynomial in n with rational coefficients, ascending-power storage."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    @lru_cache(maxsize=1024)  # shared: a HilbertPolynomial is never changed
    def binomial(shift: int, k: int) -> "HilbertPolynomial":
        """The polynomial n -> C(n + shift, k)."""
        out = HilbertPolynomial([1])
        for j in range(k):
            out = out * HilbertPolynomial([shift - j, 1])
        return out * Fraction(1, factorial(k))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, n: int) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * n + c
        return total

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        a, b = self.coeffs, other.coeffs
        length = max(len(a), len(b))
        return HilbertPolynomial(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(length)
            ]
        )

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        return self + other * Fraction(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HilbertPolynomial([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return HilbertPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, HilbertPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __repr__(self):
        return f"HilbertPolynomial({format_hilbert_polynomial(self)})"


def format_hilbert_polynomial(p: HilbertPolynomial) -> str:
    """p in the parser's polynomial syntax over the one variable n."""
    return format_polynomial(Polynomial({(i,): c for i, c in enumerate(p.coeffs)}, 1), ("n",))


def gotzmann_decomposition(p: HilbertPolynomial) -> List[int]:
    """Exponents (a_1 >= a_2 >= ... >= a_r >= 0) of the unique binomial
    decomposition p(n) = sum_i C(n + a_i - i + 1, a_i)."""
    if p.is_zero():
        return []
    q = p
    exponents: List[int] = []
    i = 0
    while not q.is_zero():
        i += 1
        if i > 10000:  # bounds the work on hostile input
            raise ValueError("no Gotzmann decomposition: too many terms")
        a = q.degree()
        if a < 0 or q.leading_coefficient() <= 0:
            raise ValueError("no Gotzmann decomposition: not a quotient Hilbert polynomial")
        if exponents and a > exponents[-1]:
            raise ValueError("no Gotzmann decomposition: exponents not descending")
        term = HilbertPolynomial.binomial(a - i + 1, a)
        q = q - term
        exponents.append(a)
        if not q.is_zero() and (q.degree() > a or q.leading_coefficient() < 0):
            raise ValueError("no Gotzmann decomposition: not a quotient Hilbert polynomial")
    return exponents


def gotzmann_number(p: HilbertPolynomial) -> int:
    """Number of terms of the binomial decomposition; bounds the regularity of
    every saturated ideal with quotient Hilbert polynomial p."""
    return len(gotzmann_decomposition(p))


# ---------------------------------------------------------------------------
# Hilbert functions

def _initial_generators(I: Ideal) -> Tuple[Exponent, ...]:
    """The minimal generators of the degrevlex initial ideal, cached."""
    if I._lead is None:
        I._lead = tuple(minimalize_monomials(g.leading_monomial() for g in I.groebner_basis()))
    return I._lead


def standard_monomial_count(gens: Sequence[Exponent], n: int, nvars: int) -> int:
    """Number of degree-n monomials outside the monomial ideal:
    sum_{k <= n} c_k C(n - k + nvars - 1, nvars - 1) over the series numerator."""
    num = _series_numerator(tuple(gens), nvars)
    return sum(c * comb(n - k + nvars - 1, nvars - 1) for k, c in num.items() if k <= n)


def hilbert_function(I: Ideal, n: int) -> int:
    """dim_k I_n, via standard monomials of the degrevlex initial ideal."""
    if n < 0:
        raise ValueError("Hilbert function is defined for non-negative degrees")
    if I.is_zero():
        return 0
    gens = _initial_generators(I)
    return count_monomials(n, I.nvars) - standard_monomial_count(gens, n, I.nvars)


def quotient_hilbert_function(I: Ideal, n: int) -> int:
    return count_monomials(n, I.nvars) - hilbert_function(I, n)


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals (exact numerator over (1-T)^nvars)

def _series_numerator(gens: Tuple[Exponent, ...], nvars: int) -> Dict[int, int]:
    """Degree -> nonzero coefficient, so equal series give equal dicts."""
    gens = tuple(sorted(minimalize_monomials(gens)))
    return dict(_series_numerator_cached(gens, nvars))


@lru_cache(maxsize=None)
def _series_numerator_cached(gens: Tuple[Exponent, ...], nvars: int) -> Tuple[Tuple[int, int], ...]:
    if not gens:
        return ((0, 1),)
    # pairwise coprime generators: Koszul product
    coprime = all(
        not any(min(a, b) for a, b in zip(gens[i], gens[j]))
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
    if coprime:
        num = {0: 1}
        for g in gens:
            d = sum(g)
            new: Dict[int, int] = {}
            for k, c in num.items():
                new[k] = new.get(k, 0) + c
                new[k + d] = new.get(k + d, 0) - c
            num = new
        return tuple(sorted((k, c) for k, c in num.items() if c))
    # split on a variable power occurring in several generators
    counts = [sum(1 for g in gens if g[v]) for v in range(nvars)]
    var = max(range(nvars), key=lambda v: counts[v])
    exp = min(g[var] for g in gens if g[var])
    pivot = tuple(exp if i == var else 0 for i in range(nvars))
    plus = minimalize_monomials(list(gens) + [pivot])
    colon = minimalize_monomials(
        tuple(max(gi - pi, 0) for gi, pi in zip(g, pivot)) for g in gens
    )
    n_plus = _series_numerator(tuple(plus), nvars)
    n_colon = _series_numerator(tuple(colon), nvars)
    out: Dict[int, int] = dict(n_plus)
    d = sum(pivot)
    for k, c in n_colon.items():
        out[k + d] = out.get(k + d, 0) + c
    return tuple(sorted((k, c) for k, c in out.items() if c))


def _quotient_hp_from_series(gens: Sequence[Exponent], nvars: int) -> HilbertPolynomial:
    """Quotient Hilbert polynomial of a monomial ideal:
    sum_k c_k C(n - k + nvars - 1, nvars - 1) over the series numerator."""
    coeffs = [0] * nvars
    for d, c in _series_numerator(tuple(gens), nvars).items():
        for i, b in enumerate(HilbertPolynomial.binomial(nvars - 1 - d, nvars - 1).coeffs):
            coeffs[i] += c * b
    return HilbertPolynomial(coeffs)


def ambient_hilbert_polynomial(nvars: int) -> HilbertPolynomial:
    return HilbertPolynomial.binomial(nvars - 1, nvars - 1)


def hilbert_polynomial(I: Ideal) -> HilbertPolynomial:
    """The unique polynomial agreeing with hilbert_function(I, n) for large n,
    read off the Hilbert-series numerator of the degrevlex initial ideal."""
    if I._hp is None:
        gens = _initial_generators(I)
        I._hp = ambient_hilbert_polynomial(I.nvars) - _quotient_hp_from_series(gens, I.nvars)
    return I._hp


def quotient_hilbert_polynomial(I: Ideal) -> HilbertPolynomial:
    return ambient_hilbert_polynomial(I.nvars) - hilbert_polynomial(I)


# ---------------------------------------------------------------------------
# regularity

def _torsion_top(lead: Sequence[Exponent], nvars: int) -> Optional[int]:
    """For the monomial ideal M = (lead) and v the last variable: the last
    degree where the quotient Hilbert functions of M and M : v^infinity
    differ (-1 when they agree), or None when their Hilbert polynomials
    differ.  The difference of the series numerators is divided exactly by
    (1 - T)^nvars; a nonzero remainder means an infinite difference."""
    diff = _series_numerator(tuple(lead), nvars)
    sat = minimalize_monomials(m[:-1] + (0,) for m in lead)
    for k, c in _series_numerator(tuple(sat), nvars).items():
        diff[k] = diff.get(k, 0) - c
    coeffs = [diff.get(k, 0) for k in range(max(diff, default=0) + nvars + 1)]
    for _ in range(nvars):
        coeffs = list(accumulate(coeffs))  # times 1 / (1 - T)
        if coeffs.pop():
            return None
    return max((k for k, c in enumerate(coeffs) if c), default=-1)


def _cut_last_variable(g: Polynomial) -> Polynomial:
    """g divided by the largest power of the last variable v dividing it, at
    v = 0, in the ring without v."""
    k = min(e[-1] for e in g.terms)
    return Polynomial._exact({e[:-1]: c for e, c in g.terms.items() if e[-1] == k}, g.nvars - 1)


def regularity(I: Ideal) -> int:
    """Castelnuovo-Mumford regularity reg(I) = reg(S/I) + 1, read off the
    cached degrevlex initial ideal M (Bayer-Stillman, Invent. Math. 87, 1987).

    For v the last variable, in(I : v^inf) = M : v^inf (Eisenbud, Commutative
    Algebra, Prop. 15.12).  When that keeps the Hilbert polynomial, it is
    I^sat and v is a nonzerodivisor on S/I^sat, so reg(S/I) is the larger of
    ``_torsion_top`` and reg(S/(I^sat + v)), one variable down: the basis
    divided by powers of v and cut at v = 0.  An Artinian level contributes
    its top degree.  When v is a zerodivisor, one Buchberger moves the level
    so that ``saturating_form``'s form is the last variable.  The value is
    cached on I.
    """
    if I._reg is not None:
        return I._reg
    if I.is_zero():
        raise ValueError("regularity of the zero ideal is undefined")
    level, basis, nvars, top = I, I.groebner_basis(), I.nvars, -1
    lead = _initial_generators(I)
    while nvars:
        if not sum(lead[-1]):
            break  # the unit ideal
        end = _torsion_top(lead, nvars)
        if end is None:
            change = to_last_variable(saturating_form(level)[0])
            basis = groebner_basis([change.apply(g) for g in level.gens])
        else:
            top = max(top, end)
            basis = [_cut_last_variable(g) for g in basis]
            nvars -= 1
            level = Ideal(basis, nvars)
        lead = minimalize_monomials(g.leading_monomial() for g in basis)
    I._reg = top + 1
    return I._reg


# ---------------------------------------------------------------------------
# Macaulay growth

def macaulay_bound(h: int, d: int) -> int:
    """h^<d>: the largest value in degree d + 1 of the Hilbert function of a
    standard graded algebra whose value in degree d >= 1 is h (Macaulay).
    With h = C(k_d, d) + C(k_(d-1), d - 1) + ... + C(k_j, j), k_d > ... >
    k_j >= j >= 1, it is C(k_d + 1, d + 1) + ... + C(k_j + 1, j + 1)."""
    if d < 1 or h < 0:
        raise ValueError(f"no Macaulay bound for value {h} in degree {d}")
    out = 0
    while h:  # degree 1 takes the rest, so d stays >= 1
        k = d
        while comb(k + 1, d) <= h:
            k += 1
        h -= comb(k, d)
        out += comb(k + 1, d + 1)
        d -= 1
    return out


def macaulay_min_growth(a: int, d: int, r: int) -> int:
    """Minimal dimension of P_1 * W over a-dimensional subspaces W of the
    degree-d forms in r variables, d >= 1: the quotient by W keeps at most
    macaulay_bound of its codimension in degree d + 1."""
    total = count_monomials(d, r)
    if not 0 <= a <= total:
        raise ValueError(f"subspace dimension {a} out of range 0..{total}")
    return count_monomials(d + 1, r) - macaulay_bound(total - a, d)
