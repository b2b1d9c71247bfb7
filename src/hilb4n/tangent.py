"""Tangent spaces of the Hilbert scheme at points given by saturated ideals.

The tangent space at [X] is the degree-0 part of Hom(I, M) where I is the
saturated ideal and M = directsum_n H0(X, O_X(n)) is the module of twisted
sections.  It does not depend on the presentation of I, so I is presented by
its reduced degrevlex Groebner basis: one image per basis element, constrained
by the basis's Schreyer syzygies, the traced reductions of its S-pairs, which
generate all its syzygies (Eisenbud, Commutative Algebra, Thm 15.10).  M
agrees with P/I from the regularity on, and its low graded pieces are realized
inside a fixed high degree R by multiplication with a power of a linear
nonzerodivisor l: the image of M_d in (P/I)_R is the degree-R part of the
saturation of I + (l^{R-d}).  l is the form ``saturating_form`` returns, whose
saturation of I is certified equal to I: the first of t, z, y, x that is a
nonzerodivisor, else the first such moment form x + c*y + c^2*z + c^3*t.  The
dimension is then the exact kernel dimension of a linear system over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Tuple

from .hilbert import regularity
from .ideals import (
    FormSpace,
    Ideal,
    equal,
    graded_monomial_basis,
    initial_ideal,
    minimal_generators,
    saturate_irrelevant,
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


def _section_space(I: Ideal, ell: Polynomial, k: int, degree_r: int,
                   in_gens, gb) -> List[Polynomial]:
    """Basis of the image of H0(O_X(degree_r - k)) in (P/I)_{degree_r}: the
    degree-R part of the saturation of I + (ell^k), reduced modulo I."""
    if k == 0:
        return [Polynomial.monomial(m) for m in _standard_monomials(in_gens, degree_r, I.nvars)]
    bumped = saturate_irrelevant(Ideal(list(I.gens) + [ell**k], I.nvars))
    space = FormSpace((), degree_r, I.nvars)
    basis: List[Polynomial] = []
    for rep in FormSpace(bumped.gens, degree_r, I.nvars).basis():
        reduced = _gb.normal_form_poly(rep, gb)
        if reduced and space.add(reduced):
            basis.append(reduced)
    return basis


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
    degrees = tuple(g.homogeneous_degree() for g in gb)
    syzygies = _gb.gb_syzygies(gb)
    in_gens = initial_ideal(I).monomial_generators()
    degree_r = max(regularity(I), max(degrees))

    # image of each needed section space inside degree R, modulo I
    section_bases = {d: _section_space(I, ell, degree_r - d, degree_r, in_gens, gb)
                     for d in sorted(set(degrees))}
    blocks = [section_bases[d] for d in degrees]
    offsets = [0, *accumulate(len(b) for b in blocks)]
    total_unknowns = offsets[-1]
    shift = degree_r - min(degrees)  # uniform multiplier exponent

    rows: List[List[Fraction]] = []
    for syz in syzygies:
        syz_degree = next((s.homogeneous_degree() + d for s, d in zip(syz, degrees) if s), None)
        if syz_degree is None:
            continue
        target_degree = syz_degree + shift
        target = _standard_monomials(in_gens, target_degree, I.nvars)
        index = {m: i for i, m in enumerate(target)}
        block_rows = [[Fraction(0)] * total_unknowns for _ in target]
        for gi, s in enumerate(syz):
            if not s:
                continue
            # s_i * l^shift * phi_i = s_i * l^(shift - k_i) * w_i with k_i = R - d_i
            multiplier = s * ell ** (shift - (degree_r - degrees[gi]))
            for bi, w in enumerate(blocks[gi]):
                image = _gb.normal_form_poly(multiplier * w, gb)
                col = offsets[gi] + bi
                for e, c in image.terms.items():
                    block_rows[index[e]][col] += c
        rows.extend(block_rows)

    return TangentReport(
        dimension=len(kernel_basis(rows)) if rows else total_unknowns,
        generator_degrees=tuple(g.homogeneous_degree() for g in minimal_generators(I)),
        constraint_count=len(rows),
    )
