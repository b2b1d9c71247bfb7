"""Generic initial ideals via randomized coordinate changes.

Genericity is enforced as a runtime contract: a candidate gin is accepted only
if two independent trials agree, its largest generator degree is the
regularity of the ideal (Bayer-Stillman, characteristic 0), which
``hilbert.regularity`` reads deterministically off the degrevlex initial
ideal, it has the ideal's whole Hilbert series, which every initial ideal of
I shares with I (Green, *Generic initial ideals*, 1998), and it is strongly
stable; otherwise the coefficient bound doubles and the draw repeats.  The
saturation test ``is_saturated`` draws nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from .borel import is_strongly_stable
from .hilbert import _initial_generators, _series_numerator, regularity
from .hilbert import hilbert_function  # noqa: F401  bench/test_bench.py checks the tracer rebinds it
from .ideals import Ideal, equal, groebner_basis, monomial_ideal, saturate_irrelevant
from .orders import DEGREVLEX, Exponent
from .poly import LinearChange

_MAX_ESCALATIONS = 6
_DEFAULT_SEED = 31415926


@dataclass(frozen=True)
class GinResult:
    gin: Ideal
    trials: int
    coefficient_bound: int


def _draw(I: Ideal, rng: random.Random, bound: int) -> Tuple[Exponent, ...]:
    """The degrevlex initial ideal of I after a random change of coordinates
    with entries in [-bound, bound]."""
    change = LinearChange.random(random.Random(rng.getrandbits(48)), I.nvars, bound)
    moved = [change.apply(g) for g in I.gens]
    gb = groebner_basis(moved, DEGREVLEX)
    return tuple(monomial_ideal([g.leading_monomial() for g in gb], I.nvars).monomial_generators())


def generic_initial_ideal(I: Ideal, rng: Optional[random.Random] = None) -> GinResult:
    """Degrevlex generic initial ideal with verified genericity.

    Accepts a candidate only when (a) two independent random trials agree,
    (b) its largest generator degree is ``regularity(I)``, (c) its Hilbert
    series is that of I, in every degree, and (d) it is strongly stable.
    Retries with doubled coefficient bound.
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
    reg_target = regularity(I)
    series_target = _series_numerator(_initial_generators(I), I.nvars)

    def acceptable(cand: Tuple[Exponent, ...]) -> bool:
        return (max(sum(g) for g in cand) == reg_target
                and _series_numerator(cand, I.nvars) == series_target
                and is_strongly_stable(monomial_ideal(cand, I.nvars)))

    bound = 10
    trials = 0
    for _ in range(_MAX_ESCALATIONS):
        first, second = _draw(I, rng, bound), _draw(I, rng, bound)
        trials += 2
        if first == second and acceptable(first):
            result = GinResult(gin=monomial_ideal(first, I.nvars), trials=trials,
                               coefficient_bound=bound)
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
