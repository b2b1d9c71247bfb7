"""The benchmark's tracer (bench/tracing.py) wraps hilb4n functions by name.

Every name in its ``WRAPPED`` table must resolve in hilb4n, so deleting or
renaming a wrapped function fails here, and not first in a traced benchmark
run.  The table is read from the file's source; the bench code is not run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED table")


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module, attribute in wrapped:
        obj = importlib.import_module(f"hilb4n.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"{module}.{attribute}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attribute}"
