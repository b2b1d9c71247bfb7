"""Exact computer algebra for the Hilbert scheme of degree-4, genus-1 curves
in projective 3-space: Groebner bases over Q, Hilbert functions and
regularity, Borel-fixed ideal enumeration, regularity strata, flat limits,
and tangent spaces."""

from .borel import borel_catalog, borel_closure, enumerate_borel_ideals, is_strongly_stable, lex_ideal
from .families import (
    DegenerationChain,
    ParamFamily,
    family_limit,
    rs_degeneration,
    va_degeneration,
    weight_limit,
)
from .gin import GinResult, generic_initial_ideal, is_saturated
from .hilbert import (
    HilbertPolynomial,
    gotzmann_decomposition,
    gotzmann_number,
    hilbert_function,
    hilbert_polynomial,
    macaulay_bound,
    macaulay_min_growth,
    quotient_hilbert_polynomial,
    regularity,
)
from .ideals import (
    Ideal,
    equal,
    initial_ideal,
    intersect,
    normal_form,
    quotient,
    saturate,
    saturate_irrelevant,
)
from .linalg import kernel_basis
from .orders import DEGREVLEX, LEX
from .poly import LinearChange, Polynomial
from .strata import (
    StratumReport,
    build_stratum_ideal,
    classify,
    dimension_table,
    factor_quadric_net,
    gcd_forms,
    rs_family_ideal,
    sample_stratum,
)
from .tangent import TangentReport, tangent_dimension
from .verify import VerificationReport, verify_paper

__version__ = "0.1.0"
