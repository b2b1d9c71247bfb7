"""Command-line interface.

Exit codes: 0 on success, 1 on a mathematical-check failure, 2 on usage or
input errors.  The subcommands that draw random numbers (gin, sample and
verify-paper) take them from --seed; no other subcommand accepts it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from .borel import enumerate_borel_ideals, lex_ideal
from .families import ParamFamily, family_limit
from .gin import generic_initial_ideal
from .hilbert import (
    gotzmann_number,
    hilbert_function,
    hilbert_polynomial,
    quotient_hilbert_polynomial,
    regularity,
)
from .ideals import Ideal, groebner_basis, minimal_generators, saturate, saturate_irrelevant
from .orders import order_by_name
from .parser import (
    ParseError,
    format_hilbert_polynomial,
    format_ideal,
    parse_family,
    parse_hilbert_polynomial,
    parse_ideal,
    parse_polynomial,
)
from .poly import format_polynomial
from .strata import classify, dimension_table, sample_stratum
from .tangent import tangent_dimension
from .verify import DEFAULT_SEED, verify_paper

USAGE_ERROR = 2
MATH_ERROR = 1
MAX_UPTO = 1000  # the largest degree hf prints
MAX_GOTZMANN = 8  # the largest Gotzmann number --hp takes; borel-enum grows steeply past it


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_ideal(path: str) -> Ideal:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", USAGE_ERROR)
    try:
        return parse_ideal(text).ideal()
    except ValueError as exc:  # ParseError included
        raise CliError(f"{path}: {exc}", USAGE_ERROR)


def _emit(args, payload: dict, text_lines: List[str]):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _emit_ideal(args, payload: dict, I: Ideal):
    """Print I's generators, one per line; ``payload`` gets them as a list."""
    lines = format_ideal(I).split("\n")
    _emit(args, {**payload, "generators": [l.rstrip(";") for l in lines]}, lines)


def _cmd_hf(args) -> int:
    if not 0 <= args.upto <= MAX_UPTO:
        raise CliError(f"--upto must lie in 0..{MAX_UPTO}, got {args.upto}", USAGE_ERROR)
    I = _read_ideal(args.ideal)
    values = [hilbert_function(I, n) for n in range(args.upto + 1)]
    _emit(args, {"values": values}, [" ".join(str(v) for v in values)])
    return 0


def _cmd_hp(args) -> int:
    I = _read_ideal(args.ideal)
    hp = quotient_hilbert_polynomial(I) if args.quotient else hilbert_polynomial(I)
    text = format_hilbert_polynomial(hp)
    _emit(args, {"polynomial": text, "coefficients": [str(c) for c in hp.coeffs]}, [text])
    return 0


def _cmd_reg(args) -> int:
    I = _read_ideal(args.ideal)
    value = regularity(I)
    _emit(args, {"regularity": value}, [str(value)])
    return 0


def _cmd_gb(args) -> int:
    I = _read_ideal(args.ideal)
    order = order_by_name(args.order)
    gb = groebner_basis(list(I.gens), order)
    lines = [format_polynomial(g) for g in gb]
    _emit(args, {"order": args.order, "basis": lines}, lines)
    return 0


def _cmd_gin(args) -> int:
    I = _read_ideal(args.ideal)
    result = generic_initial_ideal(I, random.Random(args.seed))
    lines = [format_polynomial(g) for g in result.gin.gens]
    _emit(
        args,
        {
            "gin": lines,
            "trials": result.trials,
            "coefficient_bound": result.coefficient_bound,
        },
        lines,
    )
    return 0


def _cmd_sat(args) -> int:
    I = _read_ideal(args.ideal)
    if args.by:
        try:
            f = parse_polynomial(args.by)
        except ParseError as exc:
            raise CliError(str(exc), USAGE_ERROR)
        if not f or not f.is_homogeneous():
            raise CliError(f"--by needs a nonzero homogeneous form, got {args.by!r}", USAGE_ERROR)
        result = saturate(I, f)
    else:
        result = saturate_irrelevant(I)
    _emit_ideal(args, {}, Ideal(minimal_generators(result)))
    return 0


def _cmd_classify(args) -> int:
    I = _read_ideal(args.ideal)
    try:
        report = classify(I)
    except (ValueError, ArithmeticError) as exc:
        raise CliError(str(exc), MATH_ERROR)
    payload = report.to_dict()
    lines = [
        f"regularity: {report.regularity}",
        f"stratum: {report.stratum}",
        f"complete intersection: {report.ci}",
        f"components: {', '.join(report.components_certain)}"
        + (f" (unknown: {', '.join(report.components_unknown)})" if report.components_unknown else ""),
        f"hilbert function (n=0..7): {' '.join(str(v) for v in report.hilbert_values)}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_tangent(args) -> int:
    I = _read_ideal(args.ideal)
    report = tangent_dimension(I)
    payload = {
        "dimension": report.dimension,
        "generator_degrees": list(report.generator_degrees),
        "constraint_count": report.constraint_count,
    }
    _emit(args, payload, [f"tangent dimension: {report.dimension}"])
    return 0


def _parse_hp_arg(text: str):
    """A quotient Hilbert polynomial from --hp; one with no Gotzmann
    decomposition, or with a Gotzmann number past MAX_GOTZMANN, is bad input,
    not a failed check."""
    try:
        p = parse_hilbert_polynomial(text)
        rho = gotzmann_number(p)
    except ValueError as exc:  # ParseError included
        raise CliError(str(exc), USAGE_ERROR)
    if rho > MAX_GOTZMANN:
        raise CliError(
            f"--hp must have Gotzmann number at most {MAX_GOTZMANN}, got {rho}", USAGE_ERROR
        )
    return p


def _cmd_borel_enum(args) -> int:
    p = _parse_hp_arg(args.hp)
    try:
        ideals = enumerate_borel_ideals(p)
    except ValueError as exc:
        raise CliError(str(exc), MATH_ERROR)
    payload = {"count": len(ideals), "ideals": []}
    lines = []
    named = sorted(
        ((max(g.homogeneous_degree() for g in I.gens), I) for I in ideals),
        key=lambda pair: (pair[0], format_ideal(pair[1])),
    )
    seen: dict = {}
    for reg, I in named:
        seen[reg] = seen.get(reg, 0) + 1
        name = f"B{reg}" + (f".{seen[reg]}" if seen[reg] > 1 else "")
        gens = format_ideal(I).replace("\n", " ")
        payload["ideals"].append({"name": name, "generators": gens})
        lines.append(f"{name}: {gens}")
    _emit(args, payload, lines)
    return 0


def _cmd_lex_point(args) -> int:
    p = _parse_hp_arg(args.hp)
    try:
        I = lex_ideal(p)
    except ValueError as exc:
        raise CliError(str(exc), MATH_ERROR)
    _emit_ideal(args, {}, I)
    return 0


def _cmd_sample(args) -> int:
    rng = random.Random(args.seed)
    try:
        I = sample_stratum(args.stratum, rng)
    except (ValueError, ArithmeticError) as exc:
        raise CliError(str(exc), MATH_ERROR)
    _emit_ideal(args, {"stratum": args.stratum}, I)
    return 0


def _cmd_limit(args) -> int:
    try:
        with open(args.family, "r", encoding="utf-8") as fh:
            doc = parse_family(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {args.family}: {exc}", USAGE_ERROR)
    except ParseError as exc:
        raise CliError(f"{args.family}: {exc}", USAGE_ERROR)
    family = ParamFamily(doc.generators, description=f"family from {args.family}")
    at = 0 if args.at == "0" else "inf"
    try:
        limit = family_limit(family, at)
    except (ValueError, ArithmeticError) as exc:
        raise CliError(str(exc), MATH_ERROR)
    _emit_ideal(args, {"at": args.at}, limit)
    return 0


def _cmd_dims(args) -> int:
    table = dimension_table()
    payload = {
        name: {"dimension": e.dimension, "derivation": e.derivation()}
        for name, e in table.items()
    }
    lines = [f"{name}: {e.dimension}  ({e.derivation()})" for name, e in table.items()]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    only = args.only.split(",") if args.only else None
    try:
        report = verify_paper(seed=args.seed, only=only)
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        for item in sorted(report.items, key=lambda i: i.id):
            print(f"[{item.status.upper():4}] {item.id}: {item.description}")
            if item.status != "pass":
                print(f"       expected: {item.expected}")
                print(f"       computed: {item.computed}")
        print(f"passed {report.passed} of {len(report.items)} checks")
    return 0 if report.failed == 0 else MATH_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilb4n",
        description=(
            "Exact computations on the Hilbert scheme of degree-4, genus-1 space curves: "
            "Hilbert functions, Groebner bases, generic initial ideals, stratum "
            "classification, flat limits, and tangent spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    def add_seed(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")

    p = add("hf", _cmd_hf, "Hilbert function values of an ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--upto", type=int, default=7)

    p = add("hp", _cmd_hp, "Hilbert polynomial of an ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--quotient", action="store_true", help="quotient-side polynomial")

    p = add("reg", _cmd_reg, "Castelnuovo-Mumford regularity")
    p.add_argument("--ideal", required=True)

    p = add("gb", _cmd_gb, "reduced Groebner basis")
    p.add_argument("--ideal", required=True)
    p.add_argument(
        "--order", default="degrevlex", choices=("degrevlex", "lex"), help="monomial order"
    )

    p = add("gin", _cmd_gin, "generic initial ideal")
    p.add_argument("--ideal", required=True)
    add_seed(p)

    p = add("sat", _cmd_sat, "saturation (by the irrelevant ideal, or --by a form)")
    p.add_argument("--ideal", required=True)
    p.add_argument("--by", default=None, help="polynomial to saturate by")

    p = add("classify", _cmd_classify, "regularity stratum and component membership")
    p.add_argument("--ideal", required=True)

    p = add("tangent", _cmd_tangent, "Hilbert scheme tangent-space dimension")
    p.add_argument("--ideal", required=True)

    p = add("borel-enum", _cmd_borel_enum, "enumerate saturated Borel-fixed ideals")
    p.add_argument("--hp", required=True, help='quotient Hilbert polynomial, e.g. "4*n"')

    p = add("lex-point", _cmd_lex_point, "the saturated lexicographic ideal")
    p.add_argument("--hp", required=True)

    p = add("sample", _cmd_sample, "random ideal from a stratum")
    p.add_argument("--stratum", required=True, choices=("V", "R3'", "R4", "R5", "R6"))
    add_seed(p)

    p = add("limit", _cmd_limit, "flat limit of a one-parameter family (parameter a)")
    p.add_argument("--family", required=True, help="file of generators over x,y,z,t,a")
    p.add_argument("--at", default="0", choices=("0", "inf"))

    p = add("dims", _cmd_dims, "dimension ledger of the strata")

    p = add("verify-paper", _cmd_verify, "run the full verification suite")
    p.add_argument("--only", default=None, help="comma-separated criteria subset")
    p.add_argument("--out", default=None, help="write the JSON report to a file")
    add_seed(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())
