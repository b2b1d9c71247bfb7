"""The hilb4n benchmark: one workload, one client, one op at a time.

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 5 --trace 0

The op inputs are made from --seed by the program's samplers, in processes of
their own (bench/sampler.py).  Measuring processes (bench/worker.py) then run
whole passes over that pool, each chunk of a pass in a fresh process, until
the ops have taken --seconds in all.  Every op's output is checked.  Op and
set-up times are scaled for the machine's speed at the moment (bench/speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
run, with spans around the public functions of each layer, followed by one
untraced pass over the same inputs for the tracing overhead, and prints the
per-layer metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

from speed import REFERENCE_PROBE_S, scaled  # noqa: E402
from tracing import OP_SPAN, WRAPPED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".bench_out")

RUN_LIMIT_S = 170  # a run is cut (and fails) past this much wall time
LAST_PASS_START_S = 120  # no pass starts later than this, once one has ended
MIN_SETUPS = 3  # set-up samples per run, for the median
# sampling runs before measuring, so it may use both cores of the machine; it
# takes about 12 s in one process on classify-mix and 11 s on tangent-points
SAMPLER_PROCESSES = 2

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
LAYERS = tuple(dict.fromkeys(module for module, _ in WRAPPED))  # the hilb4n modules
UNWRAPPED = "unwrapped"  # op time that no wrapped function covers
# unit of each counter of the tracer that is reported per op
COUNTER_UNITS = {
    "poly.Polynomial.substitute.terms_out": "terms/op",
    "linalg.rref.cells_in": "cells/op",
    "linalg.kernel_basis.cells_in": "cells/op",
    "groebner.buchberger.basis_out": "polys/op",
    "gin.trials": "trials/op",
    "gin.escalations": "1/op",
    "tangent.tangent_dimension.constraint_rows": "rows/op",
    "borel.enumerate_borel_ideals.found": "ideals/op",
}


def per_layer_names():
    """(name, unit) of every per-layer metric, in the order printed."""
    names = []
    for module, path in WRAPPED:
        names += [(f"{module}.{path}.calls", "calls/op"), (f"{module}.{path}.self_s", "s/op")]
    names += list(COUNTER_UNITS.items())
    names += [("strata.classify.total_s", "s/op"),
              ("ideals.gb_cache_hit_ratio", "ratio"),
              ("gin.useful_trial_ratio", "ratio")]
    names += [(f"layer.{layer}.self_share", "ratio") for layer in LAYERS + (UNWRAPPED,)]
    names += [("trace.spans", "spans/op"), ("trace.overhead_ratio", "ratio")]
    return names


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def sample(workload: str, seed: int, deadline: float) -> dict:
    """The pool and the warm-up input, sampled by SAMPLER_PROCESSES processes.

    The order of the pool is drawn from the seed: inputs are shuffled within
    each cycle, and the cycles among themselves."""
    parts = min(SAMPLER_PROCESSES, len(os.sched_getaffinity(0)))
    procs = [subprocess.Popen(
        [sys.executable, "-B", os.path.join(BENCH, "sampler.py"), workload, str(seed),
         str(part), str(parts)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True) for part in range(parts)]
    outputs = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
            if proc.returncode != 0:
                raise BenchError("sampler failed")
            outputs.append(json.loads(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    groups = {}
    for out in outputs:
        groups.update({int(g): items for g, items in out["groups"].items()})
    rng = random.Random(f"{workload}:{seed}:order")
    cycles = [groups[g] for g in sorted(groups)]
    for cycle in cycles:
        rng.shuffle(cycle)
    rng.shuffle(cycles)
    pool = [item for cycle in cycles for item in cycle]
    for i, item in enumerate(pool):
        item["id"] = i
    return {"pool": pool, "warmup": outputs[0]["warmup"]}


def run_worker(job: dict, deadline: float):
    """Run one measuring process; returns (report, set-up seconds, the probe
    time beside and within the set-up).

    The set-up is timed from here, without the probes' own time, and scaled
    by the probes that the measuring process runs beside and within its
    set-up: a probe in this process, which may run on the other core, did
    not track the measuring process's speed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-B", os.path.join(BENCH, "worker.py")],
        cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise BenchError(f"measuring process failed (exit code {code})")
    report = json.loads(lines[-1])
    if not report["hilb4n"].startswith(SRC + os.sep):
        raise BenchError(f"measured {report['hilb4n']}, not the program under {SRC}")
    return report, setup - report["setup_probe_s"], report["setup_probe"]


def measure(workload: str, inputs: dict, seconds: float, trace: bool, start: float,
            span_prefix: str = "", min_setups: int = 0) -> dict:
    """Whole passes over the pool until the ops have taken `seconds` (scaled
    for the machine's speed); then set-up-only processes until `min_setups`
    set-ups were measured."""
    pool, chunk = inputs["pool"], WORKLOADS[workload]["chunk"]
    deadline = start + RUN_LIMIT_S
    ops, setups, probes, rss, summaries = [], [], [], [], []
    passes = 0
    while True:
        pass_start = time.monotonic()
        for k in range(0, len(pool), chunk):
            job = {"workload": workload, "inputs": pool[k:k + chunk], "warmup": inputs["warmup"],
                   "trace": trace, "run_ops": True,
                   "span_file": f"{span_prefix}-pass{passes}-chunk{k // chunk}.tsv"
                   if span_prefix else ""}
            report, setup, setup_probe = run_worker(job, deadline)
            ops += report["ops"]
            setups.append((setup, setup_probe))
            probes += report["probes"]
            rss.append(report["maxrss_kib"])
            if trace:
                summaries.append(report["trace"])
        passes += 1
        now = time.monotonic()
        if sum(scaled(op["seconds"], op["probe"]) for op in ops) >= seconds:
            break
        if now + (now - pass_start) > start + LAST_PASS_START_S:
            break
    while len(setups) < min_setups:
        job = {"workload": workload, "inputs": pool[:chunk], "warmup": inputs["warmup"],
               "trace": False, "run_ops": False, "span_file": ""}
        report, setup, setup_probe = run_worker(job, deadline)
        setups.append((setup, setup_probe))
        probes += report["probes"]
        rss.append(report["maxrss_kib"])
    return {"ops": ops, "setups": setups, "probes": probes, "rss_kib": rss,
            "summaries": summaries, "passes": passes, "pool_size": len(pool)}


def tail(latencies, pool_size: int):
    """The highest percentile with at least 10 samples beyond it in one pass
    over a pool of pool_size ops (all but the smallest sample when the pool is
    smaller): (value, percentile, samples beyond).

    The percentile is fixed by the pool, 100 * (P - 10) / P, whatever the
    number of passes: k whole passes put 10k samples beyond it.  A faster
    program, which makes more passes, is then compared at the same percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = n * min(10, pool_size - 1) // pool_size
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


def scaled_times(run: dict):
    """Op times, scaled for the machine's speed beside and within each op (see
    speed.py)."""
    return [scaled(op["seconds"], op["probe"]) for op in run["ops"]]


def end_to_end_metrics(run: dict):
    latencies = scaled_times(run)
    setups = [scaled(s, p) for s, p in run["setups"]]
    failed = sum(1 for op in run["ops"] if op["error"])
    n = len(latencies)
    tail_value, tail_pct, beyond = tail(latencies, run["pool_size"])
    values = {
        "ops_per_s": n / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "success_ratio": (n - failed) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(run["rss_kib"]) / 1024.0,
    }
    raw = [op["seconds"] for op in run["ops"]]
    detail = {"tail_percentile": tail_pct, "tail_samples_beyond": beyond, "samples": n,
              "pool_size": run["pool_size"], "setup_samples": len(setups),
              "passes": run["passes"],
              "unscaled": {"ops_per_s": n / sum(raw), "latency_p50_s": statistics.median(raw),
                           "setup_s": statistics.median(s for s, _ in run["setups"])},
              "median_probe_s": statistics.median(run["probes"]),
              "reference_probe_s": REFERENCE_PROBE_S}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, detail


def _merge(summaries):
    functions, counters, spans = {}, {}, 0
    for s in summaries:
        for name, f in s["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for key in acc:
                acc[key] += f[key]
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
        spans += s["spans"]
    return functions, counters, spans


def per_layer_metrics(traced: dict, untraced: dict):
    n = len(traced["ops"])
    functions, counters, spans = _merge(traced["summaries"])
    values = {}
    for name, f in functions.items():
        if name != OP_SPAN:
            values[f"{name}.calls"] = f["calls"] / n
            values[f"{name}.self_s"] = f["self_ns"] / 1e9 / n
    for name in COUNTER_UNITS:
        values[name] = counters[name] / n
    values["strata.classify.total_s"] = functions["strata.classify"]["total_ns"] / 1e9 / n
    gb_calls = functions["ideals.Ideal.groebner_basis"]["calls"]
    values["ideals.gb_cache_hit_ratio"] = (
        counters["ideals.Ideal.groebner_basis.hits"] / gb_calls if gb_calls else 0.0)
    values["gin.useful_trial_ratio"] = (
        2 * counters["gin.fresh_nonmonomial"] / counters["gin.trials"]
        if counters["gin.trials"] else 0.0)
    op_ns = functions[OP_SPAN]["total_ns"]
    shares = {layer: 0.0 for layer in LAYERS}
    for name, f in functions.items():
        layer = UNWRAPPED if name == OP_SPAN else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + f["self_ns"] / op_ns
    for layer, share in shares.items():
        values[f"layer.{layer}.self_share"] = share
    values["trace.spans"] = spans / n
    traced_rate = n / sum(scaled_times(traced))
    untraced_rate = len(untraced["ops"]) / sum(scaled_times(untraced))
    values["trace.overhead_ratio"] = traced_rate / untraced_rate
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    top = max(shares, key=shares.get)
    detail = {"top_layer": top, "top_layer_share": shares[top], "samples": n,
              "passes": traced["passes"]}
    return metrics, detail


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = ["git", "-C", ROOT]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                    check=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, check=True,
                                        timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "loadavg_before": list(os.getloadavg()),
            "git_commit": commit, "git_dirty": dirty, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hilb4n", "__init__.py")):
        print(f"no hilb4n sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    env = environment(args.seed)
    try:
        inputs = sample(args.workload, args.seed, start + RUN_LIMIT_S)
        sample_s = time.monotonic() - start
        if args.trace:
            os.makedirs(SPAN_DIR, exist_ok=True)
            prefix = os.path.join(SPAN_DIR, f"{args.workload}-seed{args.seed}")
            for old in glob.glob(prefix + "-pass*.tsv"):
                os.remove(old)
            run = measure(args.workload, inputs, args.seconds, True, start, prefix)
            untraced = measure(args.workload, inputs, 0, False, start)
            metrics, detail = per_layer_metrics(run, untraced)
            detail["span_files"] = os.path.relpath(prefix, ROOT) + "-pass*.tsv"
        else:
            run = measure(args.workload, inputs, args.seconds, False, start,
                          min_setups=MIN_SETUPS)
            metrics, detail = end_to_end_metrics(run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    env["loadavg_after"] = list(os.getloadavg())
    env["wall_s"] = time.monotonic() - start
    detail["sample_s"] = sample_s

    errors = [op for op in run["ops"] if op["error"]]
    for op in errors[:10]:
        print(f"wrong op {op['id']} ({op['label']}): {op['error']}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(run['ops'])}  failed {len(errors)}  sampling {sample_s:.1f} s  "
          f"wall {env['wall_s']:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    if "tail_percentile" in detail:
        print(f"  latency_tail_s is p{detail['tail_percentile']:.1f} of {detail['samples']} ops")
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps({"correct": not errors, "attempted": len(run["ops"]),
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
