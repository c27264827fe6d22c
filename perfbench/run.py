"""Benchmark entry point.

    python3 perfbench/run.py --workload library --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from any directory; it measures the checkout it sits in, importing
``cubescore`` from that checkout's ``src/``.  Human-readable lines come
first (environment, metrics with units, sample counts, failures); the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a separate traced run.  The exit
status is 1 when any output failed its check, 2 when the checkout has no
``src/cubescore`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

import cliwork
import common
import library

WORKLOADS = {"library": library.run, "cli": cliwork.run}

#: (name, unit); every workload reports each of them.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("score_exact_s", "s"),
    ("threshold_exact_s", "s"),
    ("bernoulli_exact_s", "s"),
    ("ryser_s", "s"),
    ("rho_s", "s"),
    ("rank1_s", "s"),
    ("mc_score_s", "s"),
    ("mc_score_2t_s", "s"),
    ("threshold_mc_s", "s"),
    ("bernoulli_mc_s", "s"),
    ("bins_s", "s"),
]

#: (name, unit, key of the per-pass totals it is read from).  The module
#: prefixes drop the leading underscore of ``_kernel`` and ``_json``.
PER_LAYER = [
    ("kernel.iter_sign_blocks.blocks", "count", "kernel.iter_sign_blocks.next.blocks"),
    ("kernel.iter_sign_blocks.step_s", "s", "kernel.iter_sign_blocks.next.s"),
    ("kernel.iter_sign_blocks.bytes_computed", "bytes", "kernel.iter_sign_blocks.next.bytes"),
    ("score.exact_score.self_s", "s", None),
    ("score.exact_score.minflt", "count", None),
    ("score.threshold_score.exact.self_s", "s", None),
    ("score.threshold_score.exact.minflt", "count", None),
    ("permanent.bernoulli_permanent.exact.self_s", "s", None),
    ("permanent.bernoulli_permanent.exact.minflt", "count", None),
    ("permanent.ryser_value.self_s", "s", None),
    ("permanent.ryser_value.minflt", "count", None),
    ("kernel.modal_signed_sum.self_s", "s", None),
    ("structure.concentration_probability.minflt", "count", None),
    ("constructors.rank_one_orthogonal.self_s", "s", None),
    ("constructors.rank_one_orthogonal.minflt", "count", None),
    ("kernel.block_rng.calls", "count", None),
    ("kernel.block_rng.s", "s", None),
    ("kernel.block_rng.draw_s", "s", "kernel.block_rng.draw.s"),
    ("kernel.sample_signs.samples", "count", "kernel.sample_signs.rows"),
    ("kernel.sample_signs.s", "s", None),
    ("score.mc_score.block_rest_s", "s", None),
    ("score.mc_score.minflt", "count", None),
    ("score.mc_score.2t.block_rest_s", "s", None),
    ("score.mc_score.2t.minflt", "count", None),
    ("score.threshold_score.mc.block_rest_s", "s", None),
    ("score.threshold_score.mc.minflt", "count", None),
    ("permanent.bernoulli_permanent.mc.block_rest_s", "s", None),
    ("permanent.bernoulli_permanent.mc.minflt", "count", None),
    ("permanent.balls_in_bins_estimate.block_rest_s", "s", None),
    ("permanent.balls_in_bins_estimate.minflt", "count", None),
    ("kernel.map_blocks.blocks", "count", "kernel.map_blocks.block.calls"),
    ("kernel.map_blocks.wall_s", "s", "kernel.map_blocks.s"),
    ("kernel.map_blocks.busy_s", "s", "kernel.map_blocks.block.s"),
    ("kernel.map_blocks.parallel_eff", "ratio", None),
    ("cli.process_start_s", "s", None),
    ("cli.import_s", "s", None),
    ("cli.handler_s", "s", "cli.handler.s"),
    ("core.load_matrix_s", "s", "core.load_matrix.s"),
    ("core.load_matrix.bytes", "bytes", None),
    ("json.dumps_s", "s", "json.dumps.s"),
    ("json.bytes", "bytes", "json.dumps.bytes"),
    ("trace.overhead_frac", "ratio", None),
]


def layer_metrics(totals: dict) -> dict:
    out = {}
    for name, unit, key in PER_LAYER:
        if name == "kernel.map_blocks.parallel_eff":
            thread_s = totals.get("kernel.map_blocks.mt_thread_s", 0.0)
            value = totals.get("kernel.map_blocks.mt_busy_s", 0.0) / thread_s if thread_s else 0.0
        else:
            value = totals.get(key or name, 0.0)
        out[name] = (value, unit)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, work) -> dict:
    res = WORKLOADS[name](seed, seconds, trace, work)
    if trace:
        metrics = layer_metrics(res.get("layers", {}))
    else:
        metrics = {m: (res["metrics"].get(m, math.nan), u) for m, u in END_TO_END}
    attempted = max(1, res["attempted"])
    failed = min(attempted, len(res["failures"]))
    notes = dict(res["notes"])
    notes["fail_frac"] = (failed / attempted, "ratio", f"{failed} of {attempted}")
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
            "failures": res["failures"]}


def print_table(workload: str, res: dict) -> None:
    print(f"# workload {workload}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:48s} {value:16.6g} {unit}")
    for name, (value, unit, note) in sorted(res["notes"].items()):
        print(f"  {name:48s} {value:16.6g} {unit} {note}")
    for why in res["failures"][:20]:
        print(f"  FAILED {why}")


def as_json(metrics: dict) -> dict:
    return {name: {"value": None if math.isnan(v) else v, "unit": u} for name, (v, u) in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not common.checkout_ok():
        print(f"no cubescore package under {common.SRC}; nothing to measure", file=sys.stderr)
        return 2
    common.use_checkout_src()

    print("# env " + json.dumps(common.environment(), sort_keys=True), flush=True)
    work = common.ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    try:
        results = {w: run_workload(w, a.seed, a.seconds, bool(a.trace), work) for w in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for w, res in results.items():
        print_table(w, res)
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, res in results.items() for m, v in res["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": as_json(metrics)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
