"""The ``library`` workload: every exhaustive and Monte Carlo operation, each
kind in its own fresh child process (see ``child.py`` for why).

A closed loop with one client: a child makes its next call only after the
previous one returned, and only one child computes at a time.  On a 2-core
box the speed of the same call swings by up to 1.8x within seconds as other
tenants come and go, so every operation is sampled evenly across the whole
run: one child per operation is kept alive, and round after round each child
in turn is asked for a short slice of calls, with the order reversed on
alternate rounds.  After each slice the parent waits for the child to go
idle (``common.wait_idle``), so no child is timed beside another's spinning
BLAS threads.  Halfway through, every child is replaced by a fresh one, so
each run also pools two processes per operation and measures each
operation's set-up twice.  The set-ups count against ``--seconds``.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import cliwork
import common
import ops

#: Sets of fresh children per run, one child per operation kind in each.
SETS = 2
#: Seconds of calls a child is asked for at a time; a slice holds at least
#: one call, so the slowest operations overrun it.
SLICE_S = 0.2
#: Rounds per set at least, even where that overruns the run.  A round asks
#: every child for one slice.
MIN_ROUNDS = 3
#: Rounds of the traced run, which has a single set.
TRACE_ROUNDS = 3

_CHILD_ERRORS = (OSError, EOFError, TimeoutError, ValueError, subprocess.TimeoutExpired)


class OpChild:
    """One ``child.py`` process, alive across slices."""

    def __init__(self, metric: str, seed: int, trace: bool, err: Path):
        t0 = perf_counter()
        with open(err, "w") as fh:
            self.proc = subprocess.Popen(
                [sys.executable, str(common.HERE / "child.py"), "--op", metric, "--seed", str(seed),
                 "--trace", str(int(trace))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=fh,
                cwd=common.ROOT, env=common.child_env())
        self.err = err
        try:
            self.ready = self._read()
        except _CHILD_ERRORS:
            self.kill()
            raise
        self.setup_s = self.ready["ready"] - t0

    def _read(self) -> dict:
        buf = b""
        deadline = perf_counter() + common.CHILD_TIMEOUT_S
        while not buf.endswith(b"\n"):
            left = deadline - perf_counter()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise TimeoutError(f"no reply within {common.CHILD_TIMEOUT_S} s")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise EOFError(f"child exited: {self.err.read_text().strip()[-300:]}")
            buf += chunk
        return json.loads(buf)

    def run_slice(self, slice_s: float, min_calls: int) -> dict:
        self.proc.stdin.write(f"{slice_s!r} {min_calls}\n".encode())
        self.proc.stdin.flush()
        reply = self._read()
        common.wait_idle(self.proc.pid)  # before any other child computes
        return reply

    def close(self) -> dict:
        self.proc.stdin.close()
        final = self._read()
        self.proc.wait(timeout=common.CHILD_TIMEOUT_S)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    refs = ops.references(seed, [op.metric for op in ops.OPS])
    sets = 1 if trace else SETS
    runs = defaultdict(lambda: defaultdict(list))  # metric -> field -> values
    failures = []
    start = perf_counter()
    for k in range(sets):
        set_end = start + seconds * (k + 1) / sets
        children: dict[str, OpChild] = {}
        try:
            for op in ops.OPS:
                try:
                    child = children[op.metric] = OpChild(op.metric, seed, trace, work / f"{op.metric}.err")
                except _CHILD_ERRORS as e:
                    failures.append(f"{op.metric}: set-up failed: {e}")
                    continue
                runs[op.metric]["setup_s"].append(child.setup_s)
                runs[op.metric]["results"].extend(child.ready["results"])
                if trace:
                    runs[op.metric]["untraced_s"].append(child.ready["untraced_s"])
            rounds = 0
            while children and (rounds < TRACE_ROUNDS if trace
                                else rounds < MIN_ROUNDS or perf_counter() < set_end):
                for op in (ops.OPS if rounds % 2 == 0 else ops.OPS[::-1]):
                    if op.metric not in children:
                        continue
                    try:
                        reply = children[op.metric].run_slice(0.0 if trace else SLICE_S, 1)
                    except _CHILD_ERRORS as e:
                        failures.append(f"{op.metric}: call failed: {e}")
                        children.pop(op.metric).kill()
                        continue
                    for field in ("times", "minflt", "results", "layers"):
                        runs[op.metric][field].extend(reply[field])
                rounds += 1
            for metric, child in children.items():
                try:
                    runs[metric]["maxrss_kb"].append(child.close()["maxrss_kb"])
                except _CHILD_ERRORS as e:
                    failures.append(f"{metric}: exit failed: {e}")
        finally:
            for child in children.values():
                child.kill()

    checked, wrong = check_results({m: r["results"] for m, r in runs.items()}, refs)
    result = {"attempted": checked + len(failures), "failures": failures + wrong, "metrics": {}, "notes": {}}
    if any(not runs[op.metric]["times"] or not runs[op.metric]["maxrss_kb"] for op in ops.OPS):
        return result

    if trace:
        per_pass = common.sum_of_medians({m: r["layers"] for m, r in runs.items()})
        traced = sum(common.median(r["times"]) for r in runs.values())
        untraced = sum(common.median(r["untraced_s"]) for r in runs.values())
        # the CLI layers are not used here; a start-up probe and one traced
        # pass of the CLI invocations report them, so every run has them
        probe = cliwork.startup_probe()
        cli_pass, _, cli_attempted, cli_fails = cliwork.traced_cycles(
            _cli_variants(seed, work, result["failures"]), work, 1, None)
        result["attempted"] += cli_attempted
        result["failures"].extend(cli_fails)
        cli_layers = {k: v for k, v in cli_pass.items() if k.startswith(("cli.", "core.", "json."))}
        result["layers"] = {**per_pass, **cli_layers, **probe, "trace.overhead_frac": traced / untraced - 1.0}
        return result

    metrics = result["metrics"]
    for m, r in runs.items():
        metrics[m] = common.median(r["times"])
    metrics["setup_s"] = sum(common.median(r["setup_s"]) for r in runs.values())
    metrics["peak_rss_mb"] = max(max(r["maxrss_kb"]) for r in runs.values()) / 1024.0
    result["notes"] = {f"{m}.calls": (len(r["times"]), "count", "") for m, r in runs.items()}
    return result


def check_results(results: dict, refs: dict) -> tuple[int, list]:
    """Checks every result (warm-up calls included) of every operation;
    returns the number checked and one line per wrong result."""
    peers = {m: rs[0] for m, rs in results.items() if rs}
    checked, failures = 0, []
    for m, rs in results.items():
        for summary in rs:
            checked += 1
            why = ops.check(m, summary, refs, peers)
            if why:
                failures.append(f"{m}: {why}")
    return checked, failures


def _cli_variants(seed: int, work: Path, failures: list) -> list:
    _, variants, why = cliwork.setup_once(seed, work / "cli")
    if why:
        failures.append(f"cli probe: {why}")
    return variants
