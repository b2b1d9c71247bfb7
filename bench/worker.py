"""One measuring process: set up, run a chunk of ops one at a time, report.

Reads one JSON job on stdin: {"workload", "inputs", "warmup", "trace",
"run_ops", "span_file"}.  Set-up is the import, parsing every input into a
fresh object (the hand-off) and one warm-up op on an input outside the pool;
then the process prints "ready", and with run_ops false it stops there.
Set-up and each op are timed with the speed probe beside and within them
(speed.Sampler); each op runs alone and is checked after its timer stops
(with tracing paused).  The last line printed is one
JSON object with the per-op results, the probe times, the peak resident
memory and, when traced, the span summary.
"""

from __future__ import annotations

import json
import resource
import sys

from speed import Sampler
from tracing import Tracer
from workloads import WORKLOADS


def main() -> int:
    job = json.load(sys.stdin)
    # a traced op's spans would cover the probes within it
    sampler = Sampler(periodic=not job["trace"])
    sampler.begin()
    import hilb4n  # workloads.py imports the program only when it is used

    spec = WORKLOADS[job["workload"]]
    prepare, run_op, check = spec["prepare"], spec["op"], spec["check"]
    args = [prepare(item) for item in job["inputs"]]
    warm = job["warmup"]
    warm_arg = prepare(warm)
    problem = check(warm_arg, warm, run_op(warm_arg, warm))
    if problem:
        raise SystemExit(f"warm-up op gave a wrong answer: {problem}")
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    _, setup_probe = sampler.end()
    setup_probe_s = sampler.spent  # the parent takes it out of the set-up it times
    print("ready", flush=True)

    results = []
    todo = zip(job["inputs"], args) if job["run_ops"] else ()
    for i, (item, arg) in enumerate(todo):
        sampler.begin()
        if tracer is not None:
            tracer.begin_op(i)
        try:
            out, error = run_op(arg, item), ""
        except Exception as exc:  # a failed op is counted, the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end_op()
        seconds, op_probe = sampler.end()
        if not error:
            error = check(arg, item, out)
        results.append({"id": item["id"], "label": item["label"], "seconds": seconds,
                        "probe": op_probe, "error": error})

    report = {
        "hilb4n": hilb4n.__file__,
        "ops": results,
        "setup_probe": setup_probe,
        "setup_probe_s": setup_probe_s,
        "probes": sampler.probes,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if job.get("span_file"):
            tracer.write_spans(job["span_file"], [item["id"] for item in job["inputs"]])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
