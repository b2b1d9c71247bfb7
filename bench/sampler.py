"""Make one workload's op inputs from a seed, with the program's own samplers.

Runs in a process of its own, so nothing the samplers cache reaches the
measuring processes.  Ideals are handed over as ideal-file text, each with the
answer its op must give.

    python3 bench/sampler.py <workload> <seed> <part> <parts>

prints one JSON object {"groups": {index: [input, ...]}, "warmup": input}
with groups part, part + parts, ... of the pool, so that several processes
can share the sampling (see workloads.py).  Part 0 adds the warm-up input.
"""

from __future__ import annotations

import json
import sys

from workloads import WORKLOADS


def main(argv) -> dict:
    workload, seed, part, parts = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    spec = WORKLOADS[workload]
    out = {"groups": {g: spec["group"](seed, g) for g in range(part, spec["groups"], parts)}}
    if part == 0:
        out["warmup"] = spec["warmup"]()
    return out


if __name__ == "__main__":
    json.dump(main(sys.argv[1:]), sys.stdout)
