"""Acceptance suite: every verification criterion at its stated count, all
checks exact (tolerance zero).  One test per criterion; each prints a
PASS/FAIL line per item.

Each criterion's items are also held to the default-seed report stored in
``data/``: id, expected value, computed value and status must match it
exactly, so any change in what the engine computes shows up here.
"""

import json
import os

from hilb4n.verify import CRITERIA, DEFAULT_SEED, VerificationReport

GOLDEN_REPORT = os.path.join(os.path.dirname(__file__), "data", "verify_report_default_seed.json")
GOLDEN_FIELDS = ("id", "expected", "computed", "status")

_CACHE = {}


def _golden_items(name):
    with open(GOLDEN_REPORT, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["seed"] == DEFAULT_SEED
    return [
        {k: item[k] for k in GOLDEN_FIELDS}
        for item in report["items"]
        if item["id"].split("/")[0] == name
    ]


def _run(name):
    if name not in _CACHE:
        _CACHE[name] = CRITERIA[name](DEFAULT_SEED)
    items = _CACHE[name]
    failures = []
    for item in items:
        print(f"[{item.status.upper():4}] {item.id}: {item.description}")
        if item.status != "pass":
            failures.append(f"{item.id}: expected {item.expected}, computed {item.computed}")
    assert not failures, "; ".join(failures)
    # the report's own serialisation, read back as the stored file is
    report = json.loads(VerificationReport(seed=DEFAULT_SEED, items=items).to_json(False))
    computed = [{k: item[k] for k in GOLDEN_FIELDS} for item in report["items"]]
    assert computed == _golden_items(name)


def test_criterion_01_borel_enumeration():
    _run("borel")


def test_criterion_02_hilbert_tables_and_regularity():
    _run("tables")


def test_criterion_03_quotient_hilbert_polynomial():
    _run("quotient-hp")


def test_criterion_04_regularity_three_suites():
    _run("prop21")


def test_criterion_05_regularity_four_suite():
    _run("prop22")


def test_criterion_06_regularity_five_six_suites():
    _run("r5r6")


def test_criterion_07_macaulay_gotzmann():
    _run("macaulay")


def test_criterion_08_gin_classification():
    _run("gin")


def test_criterion_09_dimension_table():
    _run("dims")


def test_criterion_10_tangent_dimensions():
    _run("tangent")


def test_criterion_11_ci_pencil_degeneration():
    _run("va")


def test_criterion_12_regularity_five_degeneration():
    _run("rs")


def test_criterion_13_engine_property_suites():
    _run("properties")
