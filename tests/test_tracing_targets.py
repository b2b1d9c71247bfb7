"""The benchmark calls hilb4n by name: its tracer (bench/tracing.py) wraps
the functions of its ``WRAPPED`` table, and its workloads (bench/workloads.py)
read hilb4n module attributes.

Every such name must resolve in hilb4n, so deleting or renaming one fails
here, and not first in a benchmark run.  The names are read from the files'
source; the bench code is not run.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def _wrapped():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED table")


def _workload_names():
    """(module, attribute) for every name workloads.py imports from a hilb4n
    module, and for every attribute it reads off an imported hilb4n module."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hilb4n":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("hilb4n."):
            names.update((node.module[len("hilb4n."):], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((node.value.id, node.attr))
    return names


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module, attribute in wrapped:
        obj = importlib.import_module(f"hilb4n.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"{module}.{attribute}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attribute}"


def test_every_name_the_workloads_read_resolves():
    names = _workload_names()
    assert {("strata", "sample_stratum_with_shape"), ("strata", "PHI"), ("gin", "is_saturated"),
            ("parser", "parse_ideal")} <= names
    for module, attribute in sorted(names):
        assert hasattr(importlib.import_module(f"hilb4n.{module}"), attribute), f"{module}.{attribute}"
