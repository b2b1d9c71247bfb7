"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples (see orders.py); a polynomial is an immutable
map monomial -> Fraction with no zero coefficients stored.  The default ring
is k[x,y,z,t] with x > y > z > t; internal constructions extend it by a family
parameter ``a`` or an elimination tag.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
from operator import add
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .linalg import rank, rref
from .orders import DEGREVLEX, Exponent, MonomialOrder

RING_VARS = ("x", "y", "z", "t")
NVARS = len(RING_VARS)
PARAM_VAR = "a"
FAMILY_VARS = RING_VARS + (PARAM_VAR,)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def monomial_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Exponent, b: Exponent) -> bool:
    """True iff the monomial a divides b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Exponent, b: Exponent) -> Exponent:
    """Exponent tuple of a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_of_degree(n: int, nvars: int) -> Iterator[Exponent]:
    """All exponent tuples of total degree n."""
    if nvars == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in monomials_of_degree(n - first, nvars - 1):
            yield (first,) + rest


def count_monomials(n: int, nvars: int) -> int:
    """dim of the degree-n graded piece of a polynomial ring in nvars variables."""
    return comb(n + nvars - 1, nvars - 1) if n >= 0 else 0


class Polynomial:
    """Immutable sparse polynomial; terms map exponent tuples to Fractions."""

    __slots__ = ("terms", "nvars", "_hash")

    def __init__(self, terms: Dict[Exponent, Fraction] | Iterable, nvars: int = NVARS):
        items = terms.items() if isinstance(terms, dict) else terms
        clean: Dict[Exponent, Fraction] = {}
        for exp, coeff in items:
            c = Fraction(coeff)
            if c:
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} does not fit a {nvars}-variable ring")
                clean[exp] = clean.get(exp, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c}
        self.nvars = nvars
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _exact(terms: Dict[Exponent, Fraction], nvars: int) -> "Polynomial":
        """Adopt terms that are already clean: nonzero Fractions keyed by
        exponent tuples of length nvars."""
        p = Polynomial.__new__(Polynomial)
        p.terms, p.nvars, p._hash = terms, nvars, None
        return p

    @staticmethod
    def zero(nvars: int = NVARS) -> "Polynomial":
        return Polynomial({}, nvars)

    @staticmethod
    def constant(c, nvars: int = NVARS) -> "Polynomial":
        return Polynomial({(0,) * nvars: Fraction(c)}, nvars)

    @staticmethod
    def variable(i: int, nvars: int = NVARS) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return Polynomial({tuple(e): Fraction(1)}, nvars)

    @staticmethod
    def monomial(e: Exponent, coeff=1) -> "Polynomial":
        return Polynomial({tuple(e): Fraction(coeff)}, len(e))

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self) -> Optional[int]:
        """The common degree of all terms, or None if inhomogeneous / zero."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.packing(self.nvars).key)

    def leading_coefficient(self, order: MonomialOrder = DEGREVLEX) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        return Polynomial({e: c / lc for e, c in self.terms.items()}, self.nvars)

    def coefficient(self, e: Exponent) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        """The terms, greatest first in degrevlex."""
        return sorted(self.terms.items(), key=lambda t: DEGREVLEX.key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(out, self.nvars)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return Polynomial(out, self.nvars)

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self.terms.items()}, self.nvars)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: Dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = monomial_mul(ea, eb)
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return Polynomial(out, self.nvars)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial({e: cf * c for e, cf in self.terms.items()}, self.nvars)

    def mul_monomial(self, e: Exponent) -> "Polynomial":
        return Polynomial({monomial_mul(m, e): c for m, c in self.terms.items()}, self.nvars)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1, self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- substitution --------------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Ring map sending variable i to images[i]; exact.

        Works on integers: image i is P_i / d_i with P_i integral, and the
        image of a monomial m is image(m / x_i) * P_i for the first variable
        x_i of m.  Images are built degree by degree and only those of the
        previous degree are kept.  The output numerators are summed over one
        common denominator, so each coefficient becomes a Fraction once.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        tgt = images[0].nvars if images else self.nvars
        ints: List[List[Tuple[Exponent, int]]] = []
        dens: List[int] = []
        for image in images:
            if image.nvars != tgt:
                raise ValueError("polynomials live in different rings")
            d = lcm(*(c.denominator for c in image.terms.values()))
            ints.append([(e, c.numerator * (d // c.denominator)) for e, c in image.terms.items()])
            dens.append(d)
        # the monomials whose images are needed: the terms and, below each,
        # the chain m -> (m / x_i, i) down to 1
        steps: Dict[Exponent, Tuple[Exponent, int]] = {}
        for m in self.terms:
            while any(m) and m not in steps:
                i = next(k for k, mk in enumerate(m) if mk)
                low = m[:i] + (m[i] - 1,) + m[i + 1:]
                steps[m] = (low, i)
                m = low
        lows = {low for low, _ in steps.values()}
        # term m with coefficient c contributes c * image(m) / prod d_i^m_i
        quotients = {
            m: c.denominator * prod(d**k for d, k in zip(dens, m)) for m, c in self.terms.items()
        }
        den = lcm(*quotients.values())
        out: Dict[Exponent, int] = {}

        def accumulate(m: Exponent, img: Dict[Exponent, int]) -> None:
            f = self.terms[m].numerator * (den // quotients[m])
            for e, v in img.items():
                out[e] = out.get(e, 0) + f * v

        one = (0,) * self.nvars
        below = {one: {(0,) * tgt: 1}}  # images one degree below the current one
        if one in self.terms:
            accumulate(one, below[one])
        level: Dict[Exponent, Dict[Exponent, int]] = {}
        deg = 1
        for m in sorted(steps, key=sum):
            if sum(m) > deg:
                below, level, deg = level, {}, deg + 1
            low, i = steps[m]
            img: Dict[Exponent, int] = {}
            for e1, c1 in below[low].items():
                for e2, c2 in ints[i]:
                    e = tuple(map(add, e1, e2))
                    img[e] = img.get(e, 0) + c1 * c2
            if m in lows:
                level[m] = img
            if m in self.terms:
                accumulate(m, img)
        return Polynomial._exact({e: Fraction(v, den) for e, v in out.items() if v}, tgt)

    def evaluate(self, values: Sequence) -> Fraction:
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for ei, v in zip(e, vals):
                if ei:
                    term *= v**ei
            total += term
        return total

    def extend(self, extra: int = 1) -> "Polynomial":
        """View in a ring with ``extra`` additional trailing variables."""
        pad = (0,) * extra
        return Polynomial({e + pad: c for e, c in self.terms.items()}, self.nvars + extra)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


# ---------------------------------------------------------------------------
# formatting

def format_polynomial(p: Polynomial, names: Sequence[str] | None = None) -> str:
    if p.is_zero():
        return "0"
    if names is None:
        names = RING_VARS if p.nvars == NVARS else FAMILY_VARS[: p.nvars]
        if len(names) < p.nvars:
            names = tuple(f"v{i}" for i in range(p.nvars))
    parts = []
    for e, c in p.sorted_terms():
        factors = []
        for name, ei in zip(names, e):
            if ei == 1:
                factors.append(name)
            elif ei > 1:
                factors.append(f"{name}^{ei}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# building blocks in the default ring

def variables(nvars: int = NVARS) -> Tuple[Polynomial, ...]:
    return tuple(Polynomial.variable(i, nvars) for i in range(nvars))


def linear_form(coeffs: Sequence, nvars: int = NVARS) -> Polynomial:
    terms = {}
    for i, c in enumerate(coeffs):
        e = [0] * nvars
        e[i] = 1
        terms[tuple(e)] = Fraction(c)
    return Polynomial(terms, nvars)


def random_form(rng, degree: int, nvars: int = NVARS, bound: int = 5,
                var_subset: Sequence[int] | None = None) -> Polynomial:
    """Random homogeneous form with integer coefficients in [-bound, bound];
    resamples until nonzero.  var_subset restricts the variables used."""
    idx = list(range(nvars)) if var_subset is None else list(var_subset)
    monos = [
        e
        for e in monomials_of_degree(degree, nvars)
        if all(e[i] == 0 for i in range(nvars) if i not in idx)
    ]
    while True:
        terms = {e: Fraction(rng.randint(-bound, bound)) for e in monos}
        p = Polynomial(terms, nvars)
        if p:
            return p


# ---------------------------------------------------------------------------
# linear changes of coordinates

class LinearChange:
    """Invertible substitution: variable i maps to the linear form with
    coefficient row matrix[i]."""

    __slots__ = ("matrix", "nvars")

    def __init__(self, matrix: Sequence[Sequence]):
        m = [[Fraction(c) for c in row] for row in matrix]
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValueError("matrix must be square")
        if rank(m) != n:
            raise ValueError("linear change must be invertible (nonzero determinant)")
        self.matrix = tuple(tuple(row) for row in m)
        self.nvars = n

    @staticmethod
    def identity(nvars: int = NVARS) -> "LinearChange":
        return LinearChange([[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)])

    @staticmethod
    def random(rng, nvars: int = NVARS, bound: int = 10) -> "LinearChange":
        while True:
            m = [[rng.randint(-bound, bound) for _ in range(nvars)] for _ in range(nvars)]
            try:
                return LinearChange(m)
            except ValueError:
                continue

    def images(self) -> Tuple[Polynomial, ...]:
        return tuple(linear_form(row, self.nvars) for row in self.matrix)

    def apply(self, p: Polynomial) -> Polynomial:
        if p.nvars != self.nvars:
            raise ValueError("polynomial and change act on different rings")
        return p.substitute(self.images())

    def inverse(self) -> "LinearChange":
        n = self.nvars
        # the reduced echelon form of [M | I] is [I | M^-1]
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.matrix)]
        return LinearChange([row[n:] for row in rref(aug)[0]])

    def __repr__(self):
        return f"LinearChange({[list(map(str, row)) for row in self.matrix]})"
