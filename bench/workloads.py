"""The benchmark's workloads, one table entry each.

An entry says how the pool of op inputs is made and how an op runs:

- ``groups``: how many groups the pool has.  A group is one cycle of the
  workload's mix, drawn by ``group(seed, g)`` from its own seeded generator,
  so the inputs do not depend on which process samples which group;
- ``warmup()``: a fixed input outside every pool, for the warm-up op;
- ``chunk``: how many ops one measuring process runs.  A pass runs every
  input of the pool once, each chunk in a fresh process, so no op input
  repeats inside a process and no cache of the program can serve an op from
  an earlier identical one;
- ``prepare(item)``: the op's argument, parsed fresh from the input's text;
- ``op(arg, item)``: the op itself, one user-facing library call;
- ``check(arg, item, out)``: empty when the op's answer is right, else what
  is wrong.

An input is a dict {"text", "label", "expect"}: ideal-file text (or a
Hilbert polynomial), a label for reports and the answer the op must give.
Why each workload is there is in BENCHMARK.json.

The program is imported inside the functions: the process that drives a run
reads only the table's sizes and never loads the program; the samplers and
the measuring processes do.  Ops call the program through module
attributes, so a traced run calls the wrappers.
"""

from __future__ import annotations

import random

# One cycle of each mix.  The weights put the median op, and the tail of
# latency_tail_s, inside one cluster of op times and not on the gap between
# two.  On classify-mix R4 has double weight.  On tangent-points B3-B6 add
# four cheap ops to the pool, so R4 has five times the weight, and the pool
# has two cycles, because R5 and R6 take about 3 s each there.  On borel-enum
# 4*n-2 takes about as long as 3*n+1, so the median is the middle 3*n+2.
CLASSIFY_CYCLE = ("V", "R3'", "R4", "R4", "R5", "R6")
TANGENT_CYCLE = ("V", "R3'", "R4", "R4", "R4", "R4", "R4", "R5", "R6")
BOREL_CYCLE = ("3*n+1", "4*n-2", "3*n+2", "4*n-1", "4*n")
REGULARITY = {"V": 3, "R3'": 3, "R4": 4, "R5": 5, "R6": 6}
# Borel-fixed ideal counts; 3*n+1 has 3, 4*n has B3-B6, the rest are pinned
# to what the seed commit computes
BOREL_COUNTS = {"3*n+1": 3, "4*n-2": 1, "3*n+2": 4, "4*n-1": 2, "4*n": 4}
# Tangent dimensions, (lower bound, value).  B6 = 23 and V = 16 are the
# paper's; B3/B4/B5 have the paper's lower bounds; the remaining values are
# pinned to what the seed commit computes.
TANGENT_CATALOG = {"B3": (16, 16), "B4": (23, 24), "B5": (23, 27), "B6": (23, 23)}
TANGENT_STRATUM = {"V": 16, "R3'": 16, "R4": 23, "R6": 23}
TWISTED_CUBIC = "x*z - y^2;\ny*t - z^2;\nx*t - y*z"


def _rng(workload: str, seed, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _parse_ideal(item: dict):
    from hilb4n.parser import parse_ideal
    return parse_ideal(item["text"]).ideal()


# -- classify-mix: strata.classify --------------------------------------------

def _classify_input(rng: random.Random, label: str) -> dict:
    from hilb4n import strata
    from hilb4n.parser import format_ideal
    return {
        "text": format_ideal(strata.sample_stratum(label, rng)),
        "label": label,
        "expect": {"stratum": label,
                   "hilbert_values": list(strata.PHI[REGULARITY[label]][:8])},
    }


def _classify_group(seed: int, g: int) -> list:
    return [_classify_input(_rng("classify-mix", seed, (g, i)), label)
            for i, label in enumerate(CLASSIFY_CYCLE)]


def _classify_op(arg, item):
    from hilb4n import strata
    return strata.classify(arg)


def _classify_check(arg, item, out) -> str:
    got = {"stratum": out.stratum, "hilbert_values": list(out.hilbert_values)}
    return "" if got == item["expect"] else f"classified as {got}, expected {item['expect']}"


# -- pencil-limits: families.va_degeneration ----------------------------------

def _pencil_input(rng: random.Random, bound=None) -> dict:
    from hilb4n import strata
    from hilb4n.parser import format_ideal
    kwargs = {} if bound is None else {"bound": bound}
    return {"text": format_ideal(strata.sample_stratum("R3'", rng, **kwargs)), "label": "R3'",
            "rng": rng.getrandbits(32), "expect": {}}


def _pencil_op(arg, item):
    from hilb4n import families
    # asserts its own round trip and fibre checks, so a wrong answer raises
    return families.va_degeneration(arg, random.Random(item["rng"]))


# -- borel-enum: borel.enumerate_borel_ideals ---------------------------------

def _sorted_generators(ideal) -> list:
    from hilb4n.parser import format_ideal
    return sorted(format_ideal(ideal).split(";\n"))


def _borel_group(seed: int, g: int) -> list:
    from hilb4n import borel
    catalog = borel.borel_catalog()
    four_n = sorted(_sorted_generators(catalog[k].ideal) for k in ("B3", "B4", "B5", "B6"))
    return [{"text": hp, "label": hp,
             "expect": {"count": BOREL_COUNTS[hp], **({"ideals": four_n} if hp == "4*n" else {})}}
            for hp in BOREL_CYCLE]


def _borel_prepare(item: dict):
    from hilb4n.parser import parse_hilbert_polynomial
    return parse_hilbert_polynomial(item["text"])


def _borel_op(arg, item):
    from hilb4n import borel
    return borel.enumerate_borel_ideals(arg)


def _borel_check(arg, item, out) -> str:
    from hilb4n import borel, gin, hilbert
    expect = item["expect"]
    if len(out) != expect["count"]:
        return f"{len(out)} ideals, expected {expect['count']}"
    for ideal in out:
        if not borel.is_strongly_stable(ideal):
            return f"not strongly stable: {ideal}"
        if not gin.is_saturated(ideal):
            return f"not saturated: {ideal}"
        if hilbert.quotient_hilbert_polynomial(ideal) != arg:
            return f"wrong quotient Hilbert polynomial: {ideal}"
    if "ideals" in expect:
        found = sorted(_sorted_generators(ideal) for ideal in out)
        if found != expect["ideals"]:
            return f"found {found}, expected {expect['ideals']}"
    return ""


# -- tangent-points: tangent.tangent_dimension --------------------------------

def _tangent_group(seed: int, g: int) -> list:
    """Group 0 is B3-B6; the others are cycles of sampled strata."""
    from hilb4n import borel, strata
    from hilb4n.parser import format_ideal
    if g == 0:
        catalog = borel.borel_catalog()
        return [{"text": format_ideal(catalog[name].ideal), "label": name,
                 "expect": {"minimum": low, "dimension": pinned}}
                for name, (low, pinned) in TANGENT_CATALOG.items()]
    items = []
    for i, label in enumerate(TANGENT_CYCLE):
        shape, ideal = strata.sample_stratum_with_shape(label, _rng("tangent-points", seed, (g, i)))
        if label == "R5":
            # the second R5 shape without a torus term has the larger tangent space
            dimension = 27 if shape.case == 2 and shape.alpha == 0 else 23
        else:
            dimension = TANGENT_STRATUM[label]
        items.append({"text": format_ideal(ideal), "label": label,
                      "expect": {"dimension": dimension}})
    return items


def _tangent_op(arg, item):
    from hilb4n import tangent
    return tangent.tangent_dimension(arg)


def _tangent_check(arg, item, out) -> str:
    expect = item["expect"]
    if out.dimension < expect.get("minimum", 0) or out.dimension != expect["dimension"]:
        return f"tangent dimension {out.dimension}, expected {expect}"
    return ""


WORKLOADS = {
    "classify-mix": {
        "groups": 4,  # 24 ops
        "chunk": 24,
        "group": _classify_group,
        "warmup": lambda: _classify_input(_rng("classify-mix", "warmup", 0), "V"),
        "prepare": _parse_ideal,
        "op": _classify_op,
        "check": _classify_check,
    },
    "pencil-limits": {
        "groups": 16,  # one R3' sample each
        "chunk": 8,
        "group": lambda seed, g: [_pencil_input(_rng("pencil-limits", seed, g))],
        "warmup": lambda: _pencil_input(_rng("pencil-limits", "warmup", 0), bound=1),
        "prepare": _parse_ideal,
        "op": _pencil_op,
        "check": lambda arg, item, out: "",
    },
    "borel-enum": {
        "groups": 3,  # 15 ops; the seed fixes only their order
        "chunk": 5,
        "group": _borel_group,
        "warmup": lambda: {"text": "2*n+2", "label": "2*n+2", "expect": {"count": 2}},
        "prepare": _borel_prepare,
        "op": _borel_op,
        "check": _borel_check,
    },
    "tangent-points": {
        "groups": 3,  # B3-B6, then 2 cycles: 22 ops
        "chunk": 22,
        "group": _tangent_group,
        "warmup": lambda: {"text": TWISTED_CUBIC, "label": "twisted cubic",
                           "expect": {"dimension": 12}},
        "prepare": _parse_ideal,
        "op": _tangent_op,
        "check": _tangent_check,
    },
}
