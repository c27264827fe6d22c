"""Run one library operation kind in a fresh process and time it on request.

    python perfbench/child.py --op score_exact_s --seed 1 --trace 0

The process imports cubescore, builds its inputs from the seed, makes one
untimed warm-up call of the same operation and nothing else, and prints a
JSON line with the moment it became ready.  Then, for every request line
``<seconds> <min_calls>`` on stdin, it makes timed calls until that many
seconds have passed and at least that many calls were made, and prints one
JSON line: the seconds and minor page faults of each call and a summary of
each result for the parent to check.  At end of input it prints its peak RSS
and exits.  The parent keeps one child per operation kind alive and asks each
in turn for short slices, so every operation is sampled at many moments
across a run while paying its set-up once.

Why one operation kind per fresh process, with nothing else run before it:
glibc's malloc raises its mmap threshold the first time a large block is
freed, so the cost of a call depends on what the process allocated earlier.
On a 2-core box one ``exact_score`` call at n=22 took 327,680 minor page
faults and about 700 ms in a fresh process, and 0 faults and about 193 ms
after an unrelated 32 MB allocate-and-free earlier in the same process, a
3.6x difference.  Running several operations in one process would credit or
blame each for its neighbours' allocations; so does any extra allocation
added here, which is why this file allocates nothing large of its own.

With ``--trace 1`` the ready line also carries the time of one untraced
call, every later call is traced, and each reply carries per-layer totals
for each call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from time import perf_counter

import common
import ops


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--op", required=True, choices=sorted(ops.BY_METRIC))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    common.use_checkout_src()
    op = ops.BY_METRIC[a.op]
    module = importlib.import_module(f"cubescore.{op.module}")
    args, kwargs = ops.call_args(a.op, a.seed)

    def call():
        # looked up on every call, so the traced run's wrapper is seen
        return getattr(module, op.func)(*args, **kwargs)

    ready = {"results": [ops.summarize(a.op, call())], "ready": perf_counter()}
    traced = None
    if a.trace:
        import tracer as tr

        t0 = perf_counter()
        ready["results"].append(ops.summarize(a.op, call()))
        ready["untraced_s"] = perf_counter() - t0
        traced = tr.Tracer()
        traced.install_kernel(importlib.import_module("cubescore._kernel"))
        traced.install_ops({o.func: importlib.import_module(f"cubescore.{o.module}") for o in ops.OPS})
    print(json.dumps(ready), flush=True)

    for line in iter(sys.stdin.readline, ""):
        slice_s, min_calls = float(line.split()[0]), int(line.split()[1])
        reply = {"times": [], "minflt": [], "results": [], "layers": []}
        start = perf_counter()
        while len(reply["times"]) < min_calls or perf_counter() - start < slice_s:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = perf_counter()
            res = call()
            reply["times"].append(perf_counter() - t0)
            reply["minflt"].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            reply["results"].append(ops.summarize(a.op, res))
            if traced is not None:
                reply["layers"].append(tr.summarize(traced.spans))
                traced.clear()
        print(json.dumps(reply), flush=True)
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
