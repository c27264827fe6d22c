"""Tests of the benchmark itself, chiefly that a wrong result counts as failed.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import cliwork
import common
import library
import ops
import run
import tracer

common.use_checkout_src()


def test_closed_forms_match_brute_force():
    n = 8
    m = ops.signed_reflection(n, np.random.default_rng(3))
    k = np.arange(1 << n)
    x = 1.0 - 2.0 * ((k[:, None] >> np.arange(n)) & 1)
    y = x @ m.T
    hits = np.count_nonzero(np.abs(np.abs(y) - 1.0).max(axis=1) <= 1e-9)
    assert hits == ops.reflection_hits(n)
    assert np.count_nonzero(np.prod(np.abs(y), axis=1) >= ops.THETA) == ops.reflection_threshold_hits(n, ops.THETA)
    assert ops.reflection_hits(22) == 705_434


def test_brute_force_counts():
    t = np.array([1.0, 2.0, 3.0, 2.0])
    # x.t = 0: (+,+,-,+)? 1+2-3+2=2 no; (+,+,+,-): 4 no; (-,+,-,+): 0 yes; (+,-,+,-): 0 yes
    assert ops.zero_sum_count(t) == 2
    a = np.array([[1.0, 1.0, 1.0]])
    assert ops.modal_count(a) == 3  # sums -3, -1, 1, 3 with counts 1, 3, 3, 1


def test_wrong_library_results_count_as_failed():
    refs = ops.references(1, ["score_exact_s", "mc_score_s", "mc_score_2t_s"])
    total = 1 << ops.EXACT_N
    good = {"hits": ops.reflection_hits(ops.EXACT_N), "total": total}
    p = refs["mc_score_s"]
    mc = {"hits": round(p * ops.SAMPLES["mc_score_s"]), "total": ops.SAMPLES["mc_score_s"]}
    results = {
        "score_exact_s": [good, {"hits": good["hits"] - 1, "total": total}],
        "ryser_s": [{"value": 3e10}],
        "bernoulli_exact_s": [{"value": 3e10 * (1 + 1e-6), "stderr": 0.0}],
        "mc_score_s": [mc],
        "mc_score_2t_s": [{**mc, "hits": mc["hits"] + 1}],
    }
    attempted, failures = library.check_results(results, refs)
    assert attempted == 6
    # the wrong hit count, both permanent routes, and the 2-thread mismatch
    assert len(failures) == 4


def test_permanents_agree_relative_to_the_typical_size():
    assert ops.permanents_agree(3e10, 3e10 * (1 + 5e-10), 22)
    assert not ops.permanents_agree(3e10, 3e10 * (1 + 5e-9), 22)
    # a draw that cancels to near zero: an error far below 1e-9 * sqrt(22!)
    assert ops.permanents_agree(23592282.802644603, 23592282.751878828, 22)
    assert not ops.permanents_agree(2.0, float("nan"), 22)


def test_real_child_results_are_checked(tmp_path):
    child = library.OpChild("rank1_s", seed=5, trace=False, err=tmp_path / "err")
    try:
        results = child.ready["results"] + child.run_slice(0.05, 2)["results"]
        assert child.close()["maxrss_kb"] > 0
    finally:
        child.kill()
    refs = ops.references(5, ["rank1_s"])
    attempted, failures = library.check_results({"rank1_s": results}, refs)
    assert attempted == len(results) >= 3 and failures == []
    results[1]["claimed"] *= 1.5
    assert len(library.check_results({"rank1_s": results}, refs)[1]) == 1


@pytest.fixture
def cli_output(tmp_path):
    from cubescore.cli import main
    from cubescore.core import save_matrix

    path = tmp_path / "reflection.txt"
    save_matrix(path, ops.signed_reflection(8, np.random.default_rng(0)))
    argv = ["score-exact", "--matrix", str(path)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return argv, buf.getvalue()


def test_cli_checker_counts_bad_output(cli_output):
    argv, out = cli_output
    check = cliwork.Checker()
    assert check("score-exact", argv, 0, out, "") is None
    rerun = cliwork.WALL_TIME.sub('"wall_time_ms":12345.5', out)
    assert check("score-exact", argv, 0, rerun, "") is None
    assert check("score-exact", argv, 0, out.replace('"hit_count":72', '"hit_count":71'), "")
    assert check("score-exact", argv, 0, out[:-5], "")
    assert check("score-exact", argv, 2, "", "boom")
    fresh = cliwork.Checker()
    assert fresh("score-exact", argv, 0, out.replace('"hit_count":72', '"hit_count":71'), "")


def test_run_reports_failures(monkeypatch):
    def fake(seed, seconds, trace, work):
        return {"attempted": 10, "failures": ["x: wrong"], "metrics": {"setup_s": 1.0}, "notes": {}}

    monkeypatch.setitem(run.WORKLOADS, "library", fake)
    res = run.run_workload("library", 1, 1.0, False, None)
    assert res["failed"] == 1 and res["attempted"] == 10
    assert res["notes"]["fail_frac"][0] == pytest.approx(0.1)
    assert math.isnan(res["metrics"]["ryser_s"][0])


def test_summarize_self_and_block_rest_time():
    spans = [
        ["score.mc_score", 0.0, 10.0, None, 1, {"minflt": 7}],
        ["kernel.map_blocks", 1.0, 9.0, 0, 1, {"threads": 2}],
        [tracer.BLOCK, 1.0, 8.0, 1, 1, {}],
        ["kernel.block_rng", 1.0, 2.0, 2, 1, {}],
        [tracer.BLOCK, 1.5, 9.0, 1, 1, {}],
        ["kernel.sample_signs", 2.0, 5.0, 4, 1, {"rows": 100}],
    ]
    out = tracer.summarize(spans)
    assert out["score.mc_score.self_s"] == pytest.approx(2.0)
    assert out["score.mc_score.block_rest_s"] == pytest.approx(6.0 + 4.5)
    assert out["kernel.map_blocks.mt_busy_s"] == pytest.approx(14.5)
    assert out["kernel.map_blocks.mt_thread_s"] == pytest.approx(16.0)
    assert out["kernel.sample_signs.rows"] == 100
    assert out["score.mc_score.minflt"] == 7


def test_refuses_a_checkout_without_src(tmp_path):
    shutil.copytree(common.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_metric_tables_match_benchmark_json():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
