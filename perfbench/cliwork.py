"""The ``cli`` workload: one ``python -m cubescore.cli`` process at a time.

A closed loop with one client: each invocation starts only after the previous
one exited.  The loop cycles round-robin through the 16 invocations that
``cli_child.write_inputs`` lists, which cover all 13 subcommands on n=8
inputs; ``construct`` writes the matrix file that ``analyze`` reads next.
At n=8 every computation takes well under a millisecond, so process start,
``import cubescore.cli``, argument parsing, ``core.load_matrix`` and ``_json``
rendering are what this workload measures.
"""

from __future__ import annotations

import json
import math
import re
import resource
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import common
import ops

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Whole cycles per run at least: ten samples of each invocation for its
#: median, and 160 invocations, so at least ten lie above the p90.
MIN_CYCLES = 10
#: Cycles of the traced run; each variant also runs once untraced per cycle.
TRACE_CYCLES = 2
#: Bare interpreter starts and ``import cubescore.cli`` runs in a start-up probe.
PROBES = 5

WALL_TIME = re.compile(r'"wall_time_ms":[0-9eE+.\-]+')


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "cubescore.cli", *argv]


def setup_once(seed: int, d: Path) -> tuple[float, list, str | None]:
    t0 = perf_counter()
    rc, out, err = common.run_process(
        [sys.executable, str(common.HERE / "cli_child.py"), "setup", "--seed", str(seed), "--dir", str(d)])
    elapsed = perf_counter() - t0
    if rc != 0:
        return elapsed, [], f"setup exited {rc}: {err.strip()[-300:]}"
    return elapsed, json.loads((d / "variants.json").read_text()), None


def _read_matrix(path: str):
    import numpy as np

    return np.loadtxt(common.ROOT / path, skiprows=1, ndmin=2)


class Checker:
    """Checks every invocation's stdout: it must validate against the envelope
    schema, rerun byte for byte apart from ``wall_time_ms``, and carry the
    right numbers where this file can compute them independently."""

    def __init__(self):
        import jsonschema

        self.invalid = (ValueError, jsonschema.ValidationError)
        self.validate = jsonschema.Draft7Validator(json.loads(common.SCHEMA.read_text())).validate
        self.first: dict[str, str] = {}
        self.reports: dict[str, dict] = {}

    def __call__(self, label: str, argv: list[str], rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-300:]}"
        try:
            obj = json.loads(out)
            self.validate(obj)
        except self.invalid as e:
            return f"stdout is not a valid result envelope: {type(e).__name__}: {str(e)[:200]}"
        masked = WALL_TIME.sub('"wall_time_ms":0', out)
        if label not in self.first:
            self.first[label] = masked
            self.reports[label] = obj["report"]
            return self.semantic(label, argv, obj["report"])
        if masked != self.first[label]:
            return "stdout differs from the first run of the same invocation"
        return None

    def semantic(self, label: str, argv: list[str], rep: dict) -> str | None:
        n = 8
        if label == "score-exact" and rep["hit_count"] != ops.reflection_hits(n):
            return f"hit_count {rep['hit_count']}, expected {ops.reflection_hits(n)}"
        if label == "threshold-exact" and rep["hit_count"] != ops.reflection_threshold_hits(n, ops.THETA):
            return f"hit_count {rep['hit_count']}, expected {ops.reflection_threshold_hits(n, ops.THETA)}"
        if label in ("score-mc", "threshold-mc"):
            total = 1 << n
            exact = (ops.reflection_hits(n) if label == "score-mc"
                     else ops.reflection_threshold_hits(n, ops.THETA)) / total
            se = math.sqrt(exact * (1 - exact) / rep["total"])
            if abs(rep["score"] - exact) > ops.Z * se:
                return f"estimate {rep['score']} is more than {ops.Z} SE from {exact}"
        if label == "score-mc-2t" and "score-mc" in self.reports and rep != self.reports["score-mc"]:
            return "2-thread report differs from the 1-thread report"
        if label in ("perm-bernoulli", "perm-bernoulli-mc") and "perm" in self.reports:
            exact = self.reports["perm"]["value"]
            if label == "perm-bernoulli":
                if not ops.permanents_agree(rep["value"], exact, n):
                    return f"permanent {rep['value']} disagrees with Ryser's {exact}"
            elif abs(rep["value"] - exact) > ops.Z * rep["stderr"]:
                return f"estimate {rep['value']} is more than {ops.Z} SE from {exact}"
        if label == "classify-stochastic" and "bins" in self.reports:
            b = self.reports["bins"]
            if abs(b["value"] - rep["permanent"]) > ops.Z * b["stderr"]:
                return f"balls-in-bins {b['value']} is more than {ops.Z} SE from {rep['permanent']}"
        if label == "rho":
            expected = ops.modal_count(_read_matrix(argv[argv.index("--vectors-file") + 1]))
            if rep["count"] != expected:
                return f"modal count {rep['count']}, expected {expected}"
        if label == "construct-rank1":
            import numpy as np

            t = np.asarray(rep["parameters"]["t"])
            expected = ops.zero_sum_count(t) / (1 << n)
            if rep["claimed_score_lower_bound"] != expected or not rep["orthogonal"]:
                return f"claimed bound {rep['claimed_score_lower_bound']}, expected {expected}"
        return None


def timed_invocation(argv: list[str]):
    t0 = perf_counter()
    rc, out, err = common.run_process(argv)
    return perf_counter() - t0, rc, out, err


def startup_probe() -> dict:
    """Seconds for a bare interpreter start and for ``import cubescore.cli`` on
    top of it, medians over ``PROBES`` fresh processes each."""
    bare, imp = [], []
    for _ in range(PROBES):
        bare.append(timed_invocation([sys.executable, "-c", "pass"])[0])
        imp.append(timed_invocation([sys.executable, "-c", "import cubescore.cli"])[0])
    start = common.median(bare)
    return {"cli.process_start_s": start, "cli.import_s": common.median(imp) - start}


def traced_cycles(variants: list, work: Path, cycles: int, check) -> tuple[dict, float, int, list]:
    """Runs every variant ``cycles`` times traced (and as often untraced, when
    ``check`` is given).  Returns per-layer totals for one pass over the
    variants, the tracing overhead, attempts and failures."""
    layers = defaultdict(list)
    traced_s, untraced_s = defaultdict(list), defaultdict(list)
    attempted, failures = 0, []
    spans_file = work / "spans.json"
    for _ in range(cycles):
        for label, _metric, argv in variants:
            if check is not None:
                dt, rc, out, err = timed_invocation(cli_argv(argv))
                untraced_s[label].append(dt)
                attempted += 1
                why = check(label, argv, rc, out, err)
                if why:
                    failures.append(f"{label}: {why}")
            dt, rc, out, err = timed_invocation(
                [sys.executable, str(common.HERE / "cli_child.py"), "traced", "--out", str(spans_file), "--", *argv])
            traced_s[label].append(dt)
            attempted += 1
            why = f"traced run exited {rc}: {err.strip()[-300:]}" if rc != 0 else None
            if why is None and check is not None:
                why = check(label, argv, rc, out, err)
            if why:
                failures.append(f"{label} (traced): {why}")
                continue
            layers[label].append(json.loads(spans_file.read_text()))
    per_pass = common.sum_of_medians(layers)
    overhead = float("nan")
    if untraced_s:
        base = sum(common.median(v) for v in untraced_s.values())
        overhead = sum(common.median(traced_s[k]) for k in untraced_s) / base - 1.0
    return per_pass, overhead, attempted, failures


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    d = work / "cli"
    setups, variants, failures = [], [], []
    start = perf_counter()  # the set-ups count against ``seconds``
    for _ in range(SETUPS):
        elapsed, variants, why = setup_once(seed, d)
        setups.append(elapsed)
        if why:
            failures.append(f"setup: {why}")
    result = {"attempted": SETUPS, "failures": failures, "metrics": {}, "notes": {}}
    if not variants:
        return result
    check = Checker()
    if trace:
        probe = startup_probe()
        per_pass, overhead, attempted, fails = traced_cycles(variants, work, TRACE_CYCLES, check)
        result["attempted"] += attempted
        failures.extend(fails)
        result["layers"] = {**per_pass, **probe, "trace.overhead_frac": overhead}
        return result

    times = defaultdict(list)
    everything = []
    cycles = 0
    while cycles < MIN_CYCLES or perf_counter() - start < seconds:
        for label, _metric, argv in variants:
            dt, rc, out, err = timed_invocation(cli_argv(argv))
            times[label].append(dt)
            everything.append(dt)
            result["attempted"] += 1
            why = check(label, argv, rc, out, err)
            if why:
                failures.append(f"{label}: {why}")
        cycles += 1
    metrics = result["metrics"]
    for label, metric, _argv in variants:
        if metric:
            metrics[metric] = common.median(times[label])
    metrics["setup_s"] = common.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["notes"] = {
        "cli_p50_ms": (common.percentile(everything, 50) * 1e3, "ms", f"n={len(everything)}"),
        "cli_p90_ms": (common.percentile(everything, 90) * 1e3, "ms", f"n={len(everything)}"),
    }
    return result
