"""Helper processes of the ``cli`` workload.

    python perfbench/cli_child.py setup --seed 1 --dir .perfbench_work/cli
    python perfbench/cli_child.py traced --out spans.json -- score-exact --matrix m.txt

``setup`` pays what a CLI process pays before it computes (``import
cubescore.cli``), writes the workload's n=8 input files from the seed, makes
one warm-up call of the CLI in-process, and writes ``variants.json``: the
argument lists the timed loop cycles through, covering all 13 subcommands.

``traced`` runs one CLI invocation like ``python -m cubescore.cli`` with the
tracer's wrappers installed where ``cubescore.cli`` looks names up, and
writes the per-layer totals of its spans to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import common

N = 8
SAMPLES = "20000"


def write_inputs(seed: int, d: Path) -> list:
    import numpy as np

    import ops
    from cubescore.constructors import rank_r_orthogonal
    from cubescore.core import save_matrix

    rng = np.random.default_rng([seed, *b"cli"])
    d.mkdir(parents=True, exist_ok=True)

    def put(name, m):
        path = d / name
        save_matrix(path, m)
        return os.path.relpath(path, common.ROOT)

    refl = put("reflection.txt", ops.signed_reflection(N, rng))
    gauss = put("gaussian.txt", rng.standard_normal((N, N)))
    stoch = put("stochastic.txt", ops.column_stochastic(N, rng))
    vectors = put("vectors.txt", rng.integers(-3, 4, size=(4, N)).astype(float))
    dmat = rng.standard_normal((N - 2, 2))
    dfile = put("d.txt", dmat)
    ufile = put("u.txt", np.asarray(rank_r_orthogonal(N, dmat).parameters["u"]))
    b = rng.standard_normal((3, 3))
    bfile = put("b.txt", b - b.T)
    e = ",".join(format(v, ".6g") for v in rng.uniform(0.25, 2.0, size=3))
    xs = rng.choice([-1.0, 1.0], size=(12, N))
    perm = np.zeros((N, N))
    perm[rng.permutation(N), np.arange(N)] = rng.choice([-1.0, 1.0], size=N)
    xfile = put("x.txt", xs)
    yfile = put("y.txt", xs @ perm.T)
    t = ",".join(str(int(v)) for v in [1, *rng.integers(1, 4, size=N - 1)])
    rank1 = os.path.relpath(d / "rank1.txt", common.ROOT)
    s = str(ops.mc_seed(seed))
    mc = ["--samples", SAMPLES, "--seed", s]
    # (label, end-to-end metric the invocation stands for, argv)
    return [
        ("score-exact", "score_exact_s", ["score-exact", "--matrix", refl]),
        ("score-mc", "mc_score_s", ["score-mc", "--matrix", refl, *mc]),
        ("score-mc-2t", "mc_score_2t_s", ["score-mc", "--matrix", refl, *mc, "--threads", "2"]),
        ("threshold-exact", "threshold_exact_s",
         ["threshold-score", "--matrix", refl, "--theta", str(ops.THETA)]),
        ("threshold-mc", "threshold_mc_s",
         ["threshold-score", "--matrix", refl, "--theta", str(ops.THETA), "--mode", "mc", *mc]),
        ("perm", "ryser_s", ["perm", "--matrix", gauss]),
        ("perm-bernoulli", "bernoulli_exact_s", ["perm-bernoulli", "--matrix", gauss]),
        ("perm-bernoulli-mc", "bernoulli_mc_s", ["perm-bernoulli", "--matrix", gauss, "--mode", "mc", *mc]),
        ("bins", "bins_s", ["bins", "--matrix", stoch, *mc]),
        ("rho", "rho_s", ["rho", "--vectors-file", vectors]),
        # writes the file the next invocation reads
        ("construct-rank1", "rank1_s",
         ["construct", "--family", "rank1", "--n", str(N), "--t", t, "--out", rank1]),
        ("analyze", None, ["analyze", "--matrix", rank1]),
        ("classify-stochastic", None, ["classify-stochastic", "--matrix", stoch]),
        ("verify-rankr", None, ["verify-rankr", "--u-file", ufile, "--d-file", dfile]),
        ("trace-claim", None, ["trace-claim", "--e", e, "--b-file", bfile]),
        ("fit-map", None, ["fit-map", "--x-file", xfile, "--y-file", yfile]),
    ]


def setup(seed: int, d: Path) -> int:
    common.use_checkout_src()
    import cubescore.cli as cli

    variants = write_inputs(seed, d)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(variants[0][2])
    (d / "variants.json").write_text(json.dumps(variants))
    return code


def traced(out: Path, argv: list[str]) -> int:
    common.use_checkout_src()
    import cubescore._json as cjson
    import cubescore._kernel as kernel
    import cubescore.cli as cli
    import cubescore.permanent as permanent

    import tracer as tr

    t = tr.Tracer()
    t.install_kernel(kernel)
    owners = {f: cli for f in tr.OPERATIONS if hasattr(cli, f)}
    owners["ryser_value"] = permanent  # reached through ryser_permanent
    t.install_ops(owners)
    for name in dir(cli):
        if name.startswith("_cmd_"):
            t.wrap_call(cli, name, "cli.handler")
    t.wrap_call(cli, "load_matrix", "core.load_matrix",
                attrs_of=lambda args, result: {"bytes": os.path.getsize(args[0])})
    t.wrap_call(cli, "save_matrix", "core.save_matrix")
    t.wrap_call(cjson, "dumps", "json.dumps", attrs_of=lambda args, result: {"bytes": len(result)})
    code = cli.main(argv)
    out.write_text(json.dumps(tr.summarize(t.spans)))
    return code


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="what", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p = sub.add_parser("traced")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    if a.what == "setup":
        return setup(a.seed, a.dir)
    argv = a.argv[1:] if a.argv[:1] == ["--"] else a.argv
    return traced(a.out, argv)


if __name__ == "__main__":
    sys.exit(main())
