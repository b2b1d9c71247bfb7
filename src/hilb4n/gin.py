"""Generic initial ideals via randomized coordinate changes.

Genericity is enforced as a runtime contract: a candidate gin is accepted only
if it is strongly stable, two independent trials agree, the Hilbert function
is preserved in low degrees, and its largest generator degree is the
regularity of the ideal (Bayer-Stillman, characteristic 0), which
``hilbert.regularity`` reads deterministically off the degrevlex initial
ideal; otherwise the coefficient bound doubles and the draw repeats.  The
saturation test ``is_saturated`` draws nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .borel import is_strongly_stable
from .hilbert import hilbert_function, regularity
from .ideals import Ideal, equal, groebner_basis, monomial_ideal, saturate_irrelevant
from .orders import DEGREVLEX, Exponent
from .poly import LinearChange

_HF_CHECK_DEGREE = 8
_MAX_ESCALATIONS = 6
_DEFAULT_SEED = 31415926


@dataclass(frozen=True)
class GinResult:
    gin: Ideal
    trials: int
    coefficient_bound: int
    seeds: Tuple[int, ...] = field(default_factory=tuple)


def _initial_of_transformed(I: Ideal, change: LinearChange) -> Tuple[Exponent, ...]:
    moved = [change.apply(g) for g in I.gens]
    gb = groebner_basis(moved, DEGREVLEX)
    return tuple(monomial_ideal([g.leading_monomial() for g in gb], I.nvars).monomial_generators())


def generic_initial_ideal(I: Ideal, rng: Optional[random.Random] = None) -> GinResult:
    """Degrevlex generic initial ideal with verified genericity.

    Accepts a candidate only when (a) it is strongly stable, (b) two
    independent random trials agree, (c) the Hilbert function of I is
    preserved through degree 8, and (d) its largest generator degree is
    ``regularity(I)``.  Retries with doubled coefficient bound.
    """
    if I.is_zero():
        raise ValueError("gin of the zero ideal is undefined")
    if I._gin is not None:
        return I._gin
    if I.is_monomial() and is_strongly_stable(I):
        result = GinResult(gin=monomial_ideal(I.monomial_generators(), I.nvars), trials=0,
                           coefficient_bound=0)
        I._gin = result
        return result
    rng = rng if rng is not None else random.Random(_DEFAULT_SEED)
    hf_target = [hilbert_function(I, n) for n in range(_HF_CHECK_DEGREE + 1)]
    reg_target = regularity(I)

    def acceptable(cand: Tuple[Exponent, ...]) -> bool:
        M = monomial_ideal(cand, I.nvars)
        if not is_strongly_stable(M) or max(sum(g) for g in cand) != reg_target:
            return False
        return all(hilbert_function(M, n) == hf_target[n] for n in range(_HF_CHECK_DEGREE + 1))

    bound = 10
    seeds: List[int] = []
    trials = 0
    for _ in range(_MAX_ESCALATIONS):
        draws = []
        for _ in range(2):
            seed = rng.getrandbits(48)
            seeds.append(seed)
            trials += 1
            change = LinearChange.random(random.Random(seed), I.nvars, bound)
            draws.append(_initial_of_transformed(I, change))
        if draws[0] != draws[1]:
            seed = rng.getrandbits(48)
            seeds.append(seed)
            trials += 1
            change = LinearChange.random(random.Random(seed), I.nvars, bound)
            third = _initial_of_transformed(I, change)
            if third == draws[0] or third == draws[1]:
                draws = [third, third]
        if draws[0] == draws[1] and acceptable(draws[0]):
            result = GinResult(
                gin=monomial_ideal(draws[0], I.nvars),
                trials=trials,
                coefficient_bound=bound,
                seeds=tuple(seeds),
            )
            I._gin = result
            return result
        bound *= 2
    raise ArithmeticError(
        "generic initial ideal did not stabilize after repeated escalation"
    )


def is_saturated(I: Ideal) -> bool:
    """True iff I equals its saturation by the irrelevant maximal ideal, the
    certified saturation by one linear form of ``saturate_irrelevant`` (no
    random draw)."""
    return equal(saturate_irrelevant(I), I)
