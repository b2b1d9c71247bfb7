"""The verify-paper suite: reproduces every number the two-component
decomposition of this Hilbert scheme rests on, as exact checks with
machine-readable results.

Each criterion runner returns items carrying the expected and computed values;
a report collects them with pass/fail status.  All randomness is derived
deterministically from the master seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .borel import borel_catalog, enumerate_borel_ideals, lex_ideal
from .families import (
    family_limit,
    rs_degeneration,
    va_degeneration,
    weight_action_family,
)
from .gin import generic_initial_ideal
from .hilbert import (
    gotzmann_number,
    hilbert_function,
    hilbert_polynomial,
    macaulay_min_growth,
    quotient_hilbert_polynomial,
    regularity,
)
from .ideals import Ideal, equal, groebner_basis, initial_ideal, saturate
from .orders import LEX
from .parser import format_ideal
from .poly import random_form, variables
from .strata import FOUR_N, dimension_table, sample_stratum, sample_stratum_with_shape
from .tangent import tangent_dimension

DEFAULT_SEED = 414243


@dataclass(frozen=True)
class VerificationItem:
    id: str
    description: str
    paper_anchor: str
    expected: object
    computed: object
    status: str  # "pass" or "fail"

    @staticmethod
    def check(id: str, description: str, anchor: str, expected, computed) -> "VerificationItem":
        ok = expected == computed
        return VerificationItem(
            id=id,
            description=description,
            paper_anchor=anchor,
            expected=_plain(expected),
            computed=_plain(computed),
            status="pass" if ok else "fail",
        )


def _plain(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else value.numerator
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    return value


@dataclass
class VerificationReport:
    seed: int
    items: List[VerificationItem] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for i in self.items if i.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for i in self.items if i.status != "pass")

    def to_dict(self, include_timings: bool = True) -> Dict:
        out = {
            "seed": self.seed,
            "items": [
                {
                    "id": i.id,
                    "description": i.description,
                    "paper_anchor": i.paper_anchor,
                    "expected": i.expected,
                    "computed": i.computed,
                    "status": i.status,
                }
                for i in sorted(self.items, key=lambda i: i.id)
            ],
            "summary": {
                "total": len(self.items),
                "passed": self.passed,
                "failed": self.failed,
            },
        }
        if include_timings:
            out["timings"] = {k: round(v, 3) for k, v in sorted(self.timings.items())}
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2, sort_keys=True)


def _rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _canonical_gens(I: Ideal) -> List[str]:
    return sorted(format_ideal(I).replace("\n", " ").split("; "))


# ---------------------------------------------------------------------------
# criterion runners

def run_borel(seed: int) -> List[VerificationItem]:
    start = time.monotonic()
    found = enumerate_borel_ideals(FOUR_N)
    elapsed = time.monotonic() - start
    catalog = borel_catalog()
    expected = sorted(_canonical_gens(catalog[k].ideal) for k in ("B3", "B4", "B5", "B6"))
    computed = sorted(_canonical_gens(I) for I in found)
    items = [
        VerificationItem.check(
            "borel/enumeration",
            "exactly four saturated strongly stable ideals with quotient Hilbert polynomial 4n",
            "borel-ideals/enumeration",
            expected,
            computed,
        ),
        VerificationItem.check(
            "borel/runtime",
            "enumeration finishes within 60 seconds",
            "borel-ideals/enumeration-runtime",
            True,
            elapsed < 60.0,
        ),
    ]
    shuffled = enumerate_borel_ideals(FOUR_N)
    items.append(
        VerificationItem.check(
            "borel/determinism",
            "enumeration output is canonical across runs",
            "borel-ideals/canonical-form",
            computed,
            sorted(_canonical_gens(I) for I in shuffled),
        )
    )
    return items


_PRINTED_PHI = {
    "B3": (0, 0, 2, 8, 19, 36, 60, 92),
    "B4": (0, 0, 2, 8, 19, 36),
    "B5": (0, 0, 3, 9, 19, 36),
    "B6": (0, 1, 4, 10, 20, 36),
}


def run_tables(seed: int) -> List[VerificationItem]:
    catalog = borel_catalog()
    items = []
    for name, entry in catalog.items():
        printed = _PRINTED_PHI[name]
        values = tuple(hilbert_function(entry.ideal, n) for n in range(len(printed)))
        items.append(
            VerificationItem.check(
                f"tables/phi-{name}",
                f"Hilbert function table of {name}",
                f"hilbert-tables/{name}",
                list(printed),
                list(values),
            )
        )
        hp = hilbert_polynomial(entry.ideal)
        items.append(
            VerificationItem.check(
                f"tables/hp-values-{name}",
                f"Hilbert polynomial of {name} at n = 5, 6, 7",
                "hilbert-tables/polynomial-values",
                [36, 60, 92],
                [int(hp(5)), int(hp(6)), int(hp(7))],
            )
        )
        items.append(
            VerificationItem.check(
                f"tables/regularity-{name}",
                f"regularity of {name}",
                "regularity-table",
                int(name[1]),
                regularity(entry.ideal),
            )
        )
    return items


def run_quotient_hp(seed: int) -> List[VerificationItem]:
    catalog = borel_catalog()
    items = []
    for name, entry in catalog.items():
        q = quotient_hilbert_polynomial(entry.ideal)
        items.append(
            VerificationItem.check(
                f"quotient-hp/{name}",
                f"quotient Hilbert polynomial of {name} is 4n",
                "quotient-hilbert-polynomial",
                True,
                q == FOUR_N,
            )
        )
    return items


def _no_failures(id: str, description: str, anchor: str, samples: int,
                 failures: int) -> VerificationItem:
    """The item for ``samples`` random draws, of which none may fail."""
    return VerificationItem.check(id, description, anchor, {"samples": samples, "failures": 0},
                                  {"samples": samples, "failures": failures})


def _sample_failures(label: str, count: int, rng: random.Random, *checks) -> List[int]:
    """Draw ``count`` samples of a stratum and count, first, those whose
    ideal breaks the stratum's contract (``sample_stratum_with_shape``
    raises), then, for each check(shape, ideal), those that break the
    contract or fail the check.  Checks run in order after each draw, so
    they may draw from ``rng`` too."""
    failures = [0] * (1 + len(checks))
    for _ in range(count):
        try:
            shape, I = sample_stratum_with_shape(label, rng)
        except ArithmeticError:
            failures = [f + 1 for f in failures]
            continue
        for k, check in enumerate(checks, 1):
            failures[k] += not check(shape, I)
    return failures


def run_prop21(seed: int) -> List[VerificationItem]:
    rng = _rng(seed, "prop21")
    return [
        _no_failures(
            "prop21/ci-suite",
            "100 random coprime quadric pairs: Hilbert function and regularity 3",
            "regularity-3/complete-intersections",
            100, _sample_failures("V", 100, rng)[0],
        ),
        _no_failures(
            "prop21/shared-factor-suite",
            "100 random shared-factor ideals: Hilbert function and regularity 3",
            "regularity-3/shared-factor-shape",
            100, _sample_failures("R3'", 100, rng)[0],
        ),
    ]


def run_prop22(seed: int) -> List[VerificationItem]:
    def aux(shape, I):
        return hilbert_function(Ideal([shape.ell * b for b in (shape.ell1, shape.ell2, shape.q)]),
                                4) == 18

    failures, aux_failures = _sample_failures("R4", 100, _rng(seed, "prop22"), aux)
    return [
        _no_failures(
            "prop22/suite",
            "100 random regularity-4 shapes: Hilbert function and regularity 4",
            "regularity-4/shape",
            100, failures,
        ),
        _no_failures(
            "prop22/aux-dimension",
            "the degree-4 piece of ell*(ell1, ell2, q) has dimension 18",
            "regularity-4/auxiliary-dimension",
            100, aux_failures,
        ),
    ]


def run_r5r6(seed: int) -> List[VerificationItem]:
    rng = _rng(seed, "r5r6")
    case1 = []

    def net(shape, I):
        if shape.case != 1:
            return True
        case1.append(shape)
        return hilbert_function(Ideal([shape.ell * b for b in shape.L]), 5) == 34

    failures, net_failures = _sample_failures("R5", 50, rng, net)
    return [
        _no_failures(
            "r5r6/r5-suite",
            "50 random regularity-5 shapes: Hilbert function and regularity 5",
            "regularity-5/shape",
            50, failures,
        ),
        VerificationItem.check(
            "r5r6/net-dimension",
            "the degree-5 piece of ell*L has dimension 34 (case-1 samples)",
            "regularity-5/net-dimension",
            {"case1_samples_nonzero": True, "failures": 0},
            {"case1_samples_nonzero": bool(case1), "failures": net_failures},
        ),
        _no_failures(
            "r5r6/r6-suite",
            "50 random regularity-6 shapes: Hilbert function and regularity 6",
            "regularity-6/shape",
            50, _sample_failures("R6", 50, rng)[0],
        ),
    ]


def run_macaulay(seed: int) -> List[VerificationItem]:
    catalog = borel_catalog()
    max_reg = max(entry.regularity for entry in catalog.values())
    return [
        VerificationItem.check(
            "macaulay/growth",
            "minimal growth of a 3-dimensional space of linear forms in 4 variables",
            "macaulay-growth/3-1-4",
            9,
            macaulay_min_growth(3, 1, 4),
        ),
        VerificationItem.check(
            "macaulay/gotzmann-4n",
            "Gotzmann number of 4n matches the maximal catalog regularity",
            "gotzmann-number/4n",
            max_reg,
            gotzmann_number(FOUR_N),
        ),
        VerificationItem.check(
            "macaulay/lex-point",
            "the lexicographic ideal for 4n is the regularity-6 catalog ideal",
            "lexicographic-point",
            _canonical_gens(catalog["B6"].ideal),
            _canonical_gens(lex_ideal(FOUR_N)),
        ),
    ]


def run_gin(seed: int) -> List[VerificationItem]:
    rng = _rng(seed, "gin")
    catalog = borel_catalog()
    expectations = [
        ("V", "B3", 13),
        ("R3'", "B3", 12),
        ("R4", "B4", 25),
        ("R5", "B5", 25),
        ("R6", "B6", 25),
    ]
    items = []
    for label, target, count in expectations:
        def gin_ok(shape, I, expected=catalog[target].ideal):
            return equal(generic_initial_ideal(I, rng).gin, expected)

        items.append(
            _no_failures(
                f"gin/{label}",
                f"{count} random {label} samples have generic initial ideal {target}",
                f"generic-initial-ideals/{label}",
                count, _sample_failures(label, count, rng, gin_ok)[-1],
            )
        )
    return items


def run_dims(seed: int) -> List[VerificationItem]:
    expected = {"V": 16, "R3'": 15, "R4": 23, "R5": 22, "R6": 21, "H1": 19, "Hq": 6, "Z": 23}
    table = dimension_table()
    items = [
        VerificationItem.check(
            "dims/table",
            "dimensions of the strata and auxiliary spaces",
            "dimension-ledger",
            expected,
            {name: entry.dimension for name, entry in table.items()},
        )
    ]
    items.append(
        VerificationItem.check(
            "dims/identities",
            "every dimension equals the sum of its recomputed parameter counts",
            "dimension-ledger/identities",
            True,
            all(sum(v for _, v in e.terms) == e.dimension for e in table.values()),
        )
    )
    return items


def run_tangent(seed: int) -> List[VerificationItem]:
    rng = _rng(seed, "tangent")
    catalog = borel_catalog()
    items = [
        VerificationItem.check(
            "tangent/B6",
            "tangent dimension at the lexicographic point",
            "tangent-spaces/lexicographic-point",
            23,
            tangent_dimension(catalog["B6"].ideal).dimension,
        )
    ]
    failures = _sample_failures("V", 10, rng, lambda shape, I: tangent_dimension(I).dimension == 16)
    items.append(
        _no_failures(
            "tangent/ci-suite",
            "10 random complete intersections have tangent dimension 16",
            "tangent-spaces/complete-intersections",
            10, failures[-1],
        )
    )
    for name, bound in (("B3", 16), ("B4", 23), ("B5", 23)):
        value = tangent_dimension(catalog[name].ideal).dimension
        items.append(
            VerificationItem.check(
                f"tangent/{name}-lower-bound",
                f"tangent dimension at {name} is at least {bound} (computed: {value})",
                f"tangent-spaces/{name}",
                True,
                value >= bound,
            )
        )
    return items


def run_va(seed: int) -> List[VerificationItem]:
    rng = _rng(seed, "va-degeneration")

    def round_trip(shape, I):
        try:
            va_degeneration(I, rng)  # asserts the round trip and fibre checks
        except (ArithmeticError, ValueError):
            return False
        return True

    return [
        _no_failures(
            "va/round-trip",
            "25 random shared-factor ideals are limits of complete-intersection pencils",
            "degenerations/ci-pencil-round-trip",
            25, _sample_failures("R3'", 25, rng, round_trip)[-1],
        )
    ]


def run_rs(seed: int) -> List[VerificationItem]:
    rng = _rng(seed, "rs-degeneration")
    x, y, z, t = variables()
    xcone = Ideal([x * x, x * y, x * z, x * t**4])
    count = 25
    failures = 0
    raw_failures = 0
    for _ in range(count):
        I = sample_stratum("R5", rng)
        try:
            chain = rs_degeneration(I)
        except (ArithmeticError, ValueError):
            failures += 1
            continue
        last = chain.steps[-1]
        terminal_ok = (
            last.report.stratum == "R6"
            and min(g.homogeneous_degree() for g in chain.terminal.gens) == 1
        )
        if not terminal_ok:
            failures += 1
        if not last.raw_limit.contains_ideal(xcone):
            raw_failures += 1
    return [
        _no_failures(
            "rs/terminal",
            "25 random regularity-5 ideals degenerate into the regularity-6 stratum",
            "degenerations/regularity-5-to-6",
            count, failures,
        ),
        _no_failures(
            "rs/pre-saturation-cone",
            "the limit contains the shared-linear-form cone before final saturation",
            "degenerations/pre-saturation-cone",
            count, raw_failures,
        ),
    ]


def _random_small_ideal(rng: random.Random) -> Ideal:
    n = rng.randint(1, 3)
    gens = []
    for _ in range(n):
        d = rng.randint(1, 3)
        gens.append(random_form(rng, d, bound=4))
    return Ideal(gens)


def run_properties(seed: int) -> List[VerificationItem]:
    rng = _rng(seed, "properties")
    items = []

    failures = 0
    for _ in range(50):
        I = _random_small_ideal(rng)
        n = rng.randint(0, 6)
        by_count = hilbert_function(I, n)
        by_rank = I.graded_piece(n).dim
        lex_count = hilbert_function(initial_ideal(I, LEX), n)
        if not (by_count == by_rank == lex_count):
            failures += 1
    items.append(
        _no_failures(
            "properties/initial-ideal-hilbert",
            "graded dimensions agree between initial-ideal counting, rank, and lex route",
            "engine/macaulay-initial-ideal",
            50, failures,
        )
    )

    failures = 0
    for _ in range(50):
        I = _random_small_ideal(rng)
        gens = list(I.gens)
        rng.shuffle(gens)
        if groebner_basis(list(I.gens)) != groebner_basis(gens):
            failures += 1
    items.append(
        _no_failures(
            "properties/groebner-determinism",
            "reduced bases are independent of generator order",
            "engine/reduced-basis-uniqueness",
            50, failures,
        )
    )

    failures = 0
    for _ in range(50):
        I = _random_small_ideal(rng)
        f = random_form(rng, rng.randint(1, 2), bound=3)
        once = saturate(I, f)
        if not equal(saturate(once, f), once):
            failures += 1
    items.append(
        _no_failures(
            "properties/saturation-idempotence",
            "saturation is idempotent",
            "engine/saturation",
            50, failures,
        )
    )

    failures = 0
    for k in range(50):
        if k % 2 == 0:
            I = sample_stratum("R3'", rng)
            try:
                family, _ = va_degeneration(I, rng)
            except (ArithmeticError, ValueError):
                failures += 1
                continue
        else:
            I = sample_stratum("V", rng)
            family = weight_action_family(I, (1, 0, 0, 0))
        try:
            limit = family_limit(family, 0)
        except (ArithmeticError, ValueError):
            failures += 1
            continue
        fiber = family.specialize(Fraction(rng.randint(1, 999983)))
        if any(
            hilbert_function(limit, n) < hilbert_function(fiber, n) for n in range(9)
        ):
            failures += 1
    items.append(
        _no_failures(
            "properties/semicontinuity",
            "limit Hilbert functions dominate generic-fibre Hilbert functions",
            "degenerations/semicontinuity",
            50, failures,
        )
    )

    failures = 0
    for k in range(50):
        I = sample_stratum(rng.choice(("V", "R3'")), rng)
        result = generic_initial_ideal(I, rng)
        fresh = Ideal(list(I.gens))
        again = generic_initial_ideal(fresh, _rng(seed, f"gin-again-{k}"))
        if result.trials < 2 and result.coefficient_bound != 0:
            failures += 1
        if not equal(result.gin, again.gin):
            failures += 1
    items.append(
        _no_failures(
            "properties/gin-agreement",
            "independent generic-initial-ideal runs agree",
            "engine/gin-two-trial",
            50, failures,
        )
    )
    return items


CRITERIA: Dict[str, Callable[[int], List[VerificationItem]]] = {
    "borel": run_borel,
    "tables": run_tables,
    "quotient-hp": run_quotient_hp,
    "prop21": run_prop21,
    "prop22": run_prop22,
    "r5r6": run_r5r6,
    "macaulay": run_macaulay,
    "gin": run_gin,
    "dims": run_dims,
    "tangent": run_tangent,
    "va": run_va,
    "rs": run_rs,
    "properties": run_properties,
}


def verify_paper(seed: int = DEFAULT_SEED, only: Optional[Sequence[str]] = None) -> VerificationReport:
    """Run the verification suite; deterministic for a fixed seed."""
    report = VerificationReport(seed=seed)
    selected = list(CRITERIA) if not only else [k for k in CRITERIA if k in set(only)]
    if only and not selected:
        raise ValueError(f"no criteria match {only!r}; available: {list(CRITERIA)}")
    for name in selected:
        start = time.monotonic()
        report.items.extend(CRITERIA[name](seed))
        report.timings[name] = time.monotonic() - start
    return report
