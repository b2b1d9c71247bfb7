"""The benchmark's own tests (not part of the program's test suite).

    python3 -m pytest -q bench/test_bench.py

They run the benchmark itself, so they take a few minutes: every workload is
traced twice on one seed and once on a second seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the workload on which each wrapped function is predicted to be called
PREDICTED = {
    "poly.Polynomial.substitute": "classify-mix",
    "poly.LinearChange.apply": "classify-mix",
    "linalg.rref": "pencil-limits",
    "linalg.kernel_basis": "tangent-points",
    "linalg.Subspace.extended": "pencil-limits",
    "hilbert.standard_monomial_count": "borel-enum",
    "hilbert.hilbert_function": "borel-enum",
    "hilbert.hilbert_polynomial": "borel-enum",
    "groebner.buchberger": "classify-mix",
    "groebner.normal_form_poly": "tangent-points",
    "groebner.reduce_by_linear_forms": "classify-mix",
    "ideals.groebner_basis": "classify-mix",
    "ideals.Ideal.groebner_basis": "classify-mix",
    "ideals.Ideal.graded_piece": "pencil-limits",
    "ideals.saturate": "pencil-limits",
    "ideals.saturate_irrelevant": "pencil-limits",
    "ideals.intersect": "pencil-limits",
    "gin.generic_initial_ideal": "classify-mix",
    "families.family_limit_data": "pencil-limits",
    "families.limit_graded_piece": "pencil-limits",
    "tangent.tangent_dimension": "tangent-points",
    "borel.enumerate_borel_ideals": "borel-enum",
    "borel.is_strongly_stable": "classify-mix",
    "strata.classify": "classify-mix",
}
SEED, OTHER_SEED = 11, 12


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=400)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(workload: str, seed: int) -> dict:
    return result(bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                        "--trace", "1"))


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert set(PREDICTED) == {f"{m}.{p}" for m, p in tracing.WRAPPED}


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(40)], 40) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0], 3) == (1.0, 100.0 / 3, 2)


def test_tail_percentile_does_not_depend_on_the_number_of_passes():
    pool = [float(i) for i in range(24)]
    one = run.tail(pool, 24)
    assert one == (13.0, 100.0 * 14 / 24, 10)
    assert run.tail(pool * 2, 24) == (13.0, one[1], 20)
    assert run.tail(pool * 3, 24) == (13.0, one[1], 30)


def test_every_binding_of_a_wrapped_function_is_replaced():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hilb4n
    from hilb4n import gin, hilbert, ideals, tangent

    originals = (hilbert.hilbert_function, tangent.kernel_basis, ideals.Ideal.graded_piece)
    tracing.Tracer().install()
    assert gin.hilbert_function is hilbert.hilbert_function is hilb4n.hilbert_function
    assert gin.hilbert_function.__wrapped__ is originals[0]
    assert tangent.kernel_basis.__wrapped__ is originals[1]
    assert ideals.Ideal.graded_piece.__wrapped__ is originals[2]
    assert tangent._gb.normal_form_poly.__wrapped__ is not None


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_predicted_calls_happen(workload):
    first, second = traced(workload, SEED), traced(workload, SEED)
    assert first["correct"] and first["failed"] == 0
    names = [name for name, _ in run.per_layer_names()]
    assert list(first["metrics"]) == names
    for fn, predicted in PREDICTED.items():
        if predicted == workload:
            assert first["metrics"][f"{fn}.calls"]["value"] > 0, fn
    # calls, work counts and the ratios of counts are exact; timings are not
    counts = [name for name, unit in run.per_layer_names()
              if unit != "s/op" and not name.startswith("layer.")
              and name != "trace.overhead_ratio"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert traced(workload, OTHER_SEED)["correct"]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "borel-enum", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
