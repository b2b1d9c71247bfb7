"""Tangent spaces of the Hilbert scheme at points given by saturated ideals.

The tangent space at [X] is the degree-0 part of Hom(I, M) where I is the
saturated ideal and M = directsum_n H0(X, O_X(n)) is the module of twisted
sections.  It does not depend on the presentation of I, so I is presented by
its reduced degrevlex Groebner basis: one image per basis element, constrained
by the basis's Schreyer syzygies, the traced reductions of its S-pairs, which
generate all its syzygies (Eisenbud, Commutative Algebra, Thm 15.10).  M
agrees with P/I from the regularity on, and its low graded pieces are realized
inside a fixed high degree R by multiplication with a power of a linear
nonzerodivisor l: the image of M_d in (P/I)_R is J_R / I_R, where J is the
saturation of I + (l^{R-d}).  l is the form ``saturating_form`` returns, whose
saturation of I is certified equal to I: the first of t, z, y, x that is a
nonzerodivisor, else the first such moment form x + c*y + c^2*z + c^3*t.

The basis of J_R / I_R is read off J's reduced degrevlex basis: the forms
u - NF_J(u) for the monomials u of degree R in in(J) but not in in(I)
(Macaulay; Eisenbud, Thm 15.3).  in(I) lies in in(J), so no term of NF_J(u)
lies in in(I): the forms are already reduced modulo I, and their leading
monomials u are distinct.  The constraint rows are built on primitive integer
forms, each syzygy's block scaled by one integer, and the dimension is the
exact kernel dimension of that linear system over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from typing import Dict, List, Tuple

from .hilbert import _initial_generators, regularity
from .ideals import (
    Ideal,
    _first_saturating,
    _search_forms,
    equal,
    graded_monomial_basis,
    minimal_generators,
    saturating_form,
)
from .linalg import kernel_basis
from .orders import Exponent
from .poly import Polynomial, monomial_divides
from . import groebner as _gb


@dataclass(frozen=True)
class TangentReport:
    dimension: int
    generator_degrees: Tuple[int, ...]
    constraint_count: int


def _standard_monomials(in_gens, degree: int, nvars: int) -> List[Exponent]:
    return [
        m
        for m in graded_monomial_basis(degree, nvars)
        if not any(monomial_divides(g, m) for g in in_gens)
    ]


def _section_space(I: Ideal, ell: Polynomial, k: int,
                   standard: List[Exponent]) -> List[Polynomial]:
    """Basis of the image of H0(O_X(R - k)) in (P/I)_R, reduced modulo I;
    ``standard`` lists the degree-R monomials outside in(I)."""
    if k == 0:
        return [Polynomial.monomial(m) for m in standard]
    # l^k lies in I + (l^k), so saturating by l gives the unit ideal, which
    # certifies only when every other form gives it too: skip l
    forms = (h for h in _search_forms(I.nvars) if h != ell)
    saturation = _first_saturating(Ideal(list(I.gens) + [ell**k], I.nvars), forms)[1]
    bumped = _gb._Prepared(saturation.groebner_basis())
    lead = _initial_generators(saturation)
    monos = [Polynomial.monomial(u) for u in standard if any(monomial_divides(g, u) for g in lead)]
    return [u - _gb.normal_form_poly(u, bumped) for u in monos]


def tangent_dimension(I: Ideal) -> TangentReport:
    """Dimension of the Hilbert-scheme tangent space at a saturated ideal,
    as degree-0 homomorphisms from the ideal to the twisted-section module,
    constrained by the Schreyer syzygies of the reduced Groebner basis.
    ``generator_degrees`` are the degrees of the minimal generators;
    ``constraint_count`` is the number of rows of the linear system."""
    if I.is_zero():
        raise ValueError("tangent space at the zero ideal is undefined")
    ell, saturation = saturating_form(I)  # ell is a nonzerodivisor when I is saturated
    if not equal(saturation, I):
        raise ValueError("the tangent space is computed at a saturated ideal")
    gb = _gb._Prepared(I.groebner_basis())  # one integer form for every normal form below
    packing = gb.order.packing(I.nvars)
    degrees = tuple(g.homogeneous_degree() for g in gb)
    syzygies = _gb.gb_syzygies(gb)
    in_gens = _initial_generators(I)
    degree_r = max(regularity(I), max(degrees))
    standard_r = _standard_monomials(in_gens, degree_r, I.nvars)

    # image of each needed section space inside degree R, modulo I, as
    # primitive integer forms: rescaling a column keeps the kernel dimension
    section_bases = {d: [_gb._to_int_poly(w, gb.order)[0]
                         for w in _section_space(I, ell, degree_r - d, standard_r)]
                     for d in set(degrees)}
    blocks = [section_bases[d] for d in degrees]
    offsets = [0, *accumulate(len(b) for b in blocks)]
    total_unknowns = offsets[-1]
    shift = degree_r - min(degrees)  # uniform multiplier exponent
    # s_i * l^shift * phi_i = s_i * l^(shift - k_i) * w_i with k_i = R - d_i
    powers = {d: ell ** (shift - (degree_r - d)) for d in set(degrees)}
    targets: Dict[int, Dict[int, int]] = {}  # row of each standard monomial's key, by degree

    rows: List[List[int]] = []
    for syz in syzygies:
        syz_degree = next((s.homogeneous_degree() + d for s, d in zip(syz, degrees) if s), None)
        if syz_degree is None:
            continue
        target_degree = syz_degree + shift
        index = targets.get(target_degree)
        if index is None:
            standard = _standard_monomials(in_gens, target_degree, I.nvars)
            index = targets[target_degree] = {packing.key(m): i for i, m in enumerate(standard)}
        columns = []  # (column, integer image, its rational factor)
        for gi, s in enumerate(syz):
            if not s:
                continue
            multiplier, m_scale = _gb._to_int_poly(s * powers[degrees[gi]], gb.order)
            for bi, w in enumerate(blocks[gi]):
                image, mult = _gb._normal_form_int(_gb._mul_int(multiplier, w, packing), gb.basis, packing)
                if image:
                    columns.append((offsets[gi] + bi, image, m_scale / mult))
        # scaling the block by the lcm of the factors' denominators keeps its kernel
        scale = lcm(*(f.denominator for _, _, f in columns))
        block_rows = [[0] * total_unknowns for _ in index]
        for col, image, f in columns:
            f = f.numerator * (scale // f.denominator)
            for e, c in image.items():
                block_rows[index[e]][col] = f * c
        rows.extend(block_rows)

    return TangentReport(
        dimension=len(kernel_basis(rows)) if rows else total_unknowns,
        generator_degrees=tuple(g.homogeneous_degree() for g in minimal_generators(I)),
        constraint_count=len(rows),
    )
