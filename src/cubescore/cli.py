"""Command line interface.

Every subcommand prints one JSON object to stdout:

    {"command": ..., "inputs": ..., "report": ..., "wall_time_ms": ..., "seed": ...}

Floats carry 17 significant digits, and a rerun with the same flags and seed
reproduces the output byte for byte apart from ``wall_time_ms``.  Errors are
reported as JSON on stderr; exit status is 0 on success, 2 for bad input
(precondition, parse, capacity, usage), and 1 for internal failures.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import _json
from .core import (
    CubescoreError,
    DEFAULT_TOLERANCES,
    InternalCheckError,
    PreconditionError,
    load_matrix,
    save_matrix,
)
from .constructors import (
    GapDescriptor,
    gap_perturbed_selector,
    perm_reflection,
    rank_one_orthogonal,
    rank_r_orthogonal,
    selector_matrix,
)
from .permanent import (
    balls_in_bins_estimate,
    bernoulli_permanent,
    naive_permanent,
    ryser_permanent,
)
from .score import exact_score, mc_score, threshold_score
from .structure import (
    concentration_probability,
    decompose,
    dominance_analysis,
    procrustes_fit,
    stochastic_certificate,
    trace_bound_check,
    verify_rank_r_structure,
)


def _csv_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise PreconditionError(f"{flag} must be a comma-separated list of numbers, got {text!r}") from None


def _csv_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise PreconditionError(f"{flag} must be a comma-separated list of integers, got {text!r}") from None


def _load_gap(path: str) -> GapDescriptor:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise PreconditionError(f"GAP file {path!r} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise PreconditionError(f"GAP file {path!r} must hold a JSON object")
    return GapDescriptor.from_dict(data)


def _require(args, flag: str, family: str):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise PreconditionError(f"{flag} is required for family {family!r}")
    return value


# --- subcommand handlers: each returns (report, seed); main echoes every
# flag of the subcommand as the envelope's inputs ---


def _cmd_score_exact(args):
    m = load_matrix(args.matrix)
    return exact_score(m, args.tol), None


def _cmd_score_mc(args):
    m = load_matrix(args.matrix)
    return mc_score(m, args.samples, args.seed, args.tol, args.threads), args.seed


def _cmd_threshold_score(args):
    m = load_matrix(args.matrix)
    rep = threshold_score(m, args.theta, args.mode, args.samples, args.seed, args.threads)
    return rep, args.seed if args.mode == "mc" else None


def _cmd_perm(args):
    m = load_matrix(args.matrix)
    return (ryser_permanent(m) if args.method == "ryser" else naive_permanent(m)), None


def _cmd_perm_bernoulli(args):
    m = load_matrix(args.matrix)
    rep = bernoulli_permanent(m, args.mode, args.samples, args.seed, args.threads)
    return rep, args.seed if args.mode == "mc" else None


def _cmd_bins(args):
    m = load_matrix(args.matrix)
    return balls_in_bins_estimate(m, args.samples, args.seed, args.threads, args.stochastic_tol), args.seed


def _cmd_construct(args):
    family = args.family
    seed = None
    if family == "perm":
        n = _require(args, "--n", family)
        pi = _csv_ints(_require(args, "--pi", family), "--pi")
        signs = _csv_floats(_require(args, "--signs", family), "--signs")
        cert = perm_reflection(n, pi, signs)
    elif family == "selector":
        n = _require(args, "--n", family)
        cols = _csv_ints(_require(args, "--columns", family), "--columns")
        signs = _csv_floats(_require(args, "--signs", family), "--signs")
        if len(cols) != len(signs):
            raise PreconditionError("--columns and --signs must have the same length")
        cert = selector_matrix(n, list(zip(cols, signs)))
    elif family == "rank1":
        n = _require(args, "--n", family)
        t = _csv_floats(_require(args, "--t", family), "--t")
        cert = rank_one_orthogonal(n, t)
    elif family == "rankr":
        d = load_matrix(_require(args, "--d-file", family))
        a = load_matrix(args.a_file) if args.a_file else None
        signs = _csv_floats(args.diag_signs, "--diag-signs") if args.diag_signs else None
        n = d.shape[0] + d.shape[1]
        if args.n is not None and args.n != n:
            raise PreconditionError(f"--n {args.n} conflicts with d of shape {d.shape} (implies n={n})")
        cert = rank_r_orthogonal(n, d, a, signs)
    elif family == "gap-perturbed":
        f0 = load_matrix(_require(args, "--f0-file", family))
        gap = _load_gap(_require(args, "--gap-file", family))
        seed = _require(args, "--seed", family)
        cert = gap_perturbed_selector(f0, gap, seed, args.group_tol)
    else:  # argparse choices make this unreachable
        raise PreconditionError(f"unknown family {family!r}")

    save_matrix(args.out, cert.matrix)
    report = _json.to_jsonable(cert)
    del report["matrix"]  # written to --out instead
    report["matrix_path"] = args.out
    return report, seed


def _cmd_analyze(args):
    m = load_matrix(args.matrix)
    dom = dominance_analysis(m, args.epsilon)
    dec = decompose(m, args.snap_tol, args.rank_tol)
    return {"dominance": dom, "decomposition": dec}, None


def _cmd_rho(args):
    vectors = load_matrix(args.vectors_file)
    return concentration_probability(vectors, args.group_tol), None


def _cmd_classify_stochastic(args):
    m = load_matrix(args.matrix)
    return stochastic_certificate(m, args.stochastic_tol, not args.skip_permanent), None


def _cmd_verify_rankr(args):
    u = load_matrix(args.u_file)
    d = load_matrix(args.d_file)
    return verify_rank_r_structure(u, d, args.psd_tol), None


def _cmd_trace_claim(args):
    e = _csv_floats(args.e, "--e")
    b = load_matrix(args.b_file) if args.b_file else None
    return trace_bound_check(e, b, args.psd_tol), None


def _cmd_fit_map(args):
    xs = load_matrix(args.x_file)
    ys = load_matrix(args.y_file)
    if xs.shape != ys.shape:
        raise PreconditionError(
            f"point files must have matching shapes, got {xs.shape} and {ys.shape}"
        )
    return procrustes_fit(list(zip(xs, ys))), None


# --- parser construction ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubescore",
        description="Measure, construct, and structurally analyze matrices that "
        "nearly map the sign hypercube onto itself.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--pretty", action="store_true", help="render a human-readable table instead of JSON")
        return p

    p = add("score-exact", _cmd_score_exact, "exhaustive hypercube hit score")
    p.add_argument("--matrix", required=True, help="matrix file ('rows cols' header, one row per line)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCES.membership_tol,
                   help="membership tolerance around +-1")

    p = add("score-mc", _cmd_score_mc, "Monte Carlo hypercube hit score")
    p.add_argument("--matrix", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCES.membership_tol)
    p.add_argument("--threads", type=int, default=1, help="worker threads (never changes results)")

    p = add("threshold-score", _cmd_threshold_score, "probability the product of image coordinates clears a threshold")
    p.add_argument("--matrix", required=True)
    p.add_argument("--theta", type=float, required=True, help="product threshold in (0, 1]")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)

    p = add("perm", _cmd_perm, "exact permanent")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=["ryser", "naive"], default="ryser")

    p = add("perm-bernoulli", _cmd_perm_bernoulli, "permanent via the sign-vector expectation identity")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)

    p = add("bins", _cmd_bins, "balls-in-bins collision estimate of a column-stochastic permanent")
    p.add_argument("--matrix", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--stochastic-tol", type=float, default=1e-9)

    p = add("construct", _cmd_construct, "build a matrix from one of the certified families")
    p.add_argument("--family", required=True,
                   choices=["perm", "selector", "rank1", "rankr", "gap-perturbed"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--pi", default=None, help="comma-separated permutation of 0..n-1 (family perm)")
    p.add_argument("--columns", default=None, help="comma-separated source column per row (family selector)")
    p.add_argument("--signs", default=None, help="comma-separated +-1 signs (families perm, selector)")
    p.add_argument("--t", default=None, help="comma-separated direction vector with t[0]=1 (family rank1)")
    p.add_argument("--d-file", default=None, help="matrix file for the (n-r) x r block D (family rankr)")
    p.add_argument("--a-file", default=None, help="matrix file for the antisymmetric r x r block (family rankr)")
    p.add_argument("--diag-signs", default=None, help="comma-separated +-1 diagonal signs (family rankr)")
    p.add_argument("--f0-file", default=None, help="matrix file for the base selector (family gap-perturbed)")
    p.add_argument("--gap-file", default=None,
                   help="JSON file {generators, lower, upper, symmetric} (family gap-perturbed)")
    p.add_argument("--group-tol", type=float, default=DEFAULT_TOLERANCES.membership_tol)
    p.add_argument("--seed", type=int, default=None, help="draw seed (family gap-perturbed)")
    # declared last, so inputs echo it last
    p.add_argument("--out", required=True, help="path for the constructed matrix file")

    p = add("analyze", _cmd_analyze, "row dominance plus sign/low-rank decomposition")
    p.add_argument("--matrix", required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--snap-tol", type=float, default=0.25)
    p.add_argument("--rank-tol", type=float, default=DEFAULT_TOLERANCES.rank_tol)

    p = add("rho", _cmd_rho, "exhaustive concentration probability of a signed vector sum")
    p.add_argument("--vectors-file", required=True,
                   help="matrix file whose columns are the vectors being signed")
    p.add_argument("--group-tol", type=float, default=DEFAULT_TOLERANCES.membership_tol)

    p = add("classify-stochastic", _cmd_classify_stochastic,
            "row classes and collision bounds of a column-stochastic matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--stochastic-tol", type=float, default=1e-9)
    p.add_argument("--skip-permanent", action="store_true",
                   help="do not attach the exact permanent even when feasible")

    p = add("verify-rankr", _cmd_verify_rankr, "check the rank-r orthogonality identities for U and D")
    p.add_argument("--u-file", required=True)
    p.add_argument("--d-file", required=True)
    p.add_argument("--psd-tol", type=float, default=DEFAULT_TOLERANCES.psd_tol)

    p = add("trace-claim", _cmd_trace_claim, "trace of (I + E - B)^{-1} against its [0, r] range")
    p.add_argument("--e", required=True, help="comma-separated positive diagonal of E")
    p.add_argument("--b-file", default=None, help="matrix file for the antisymmetric B (default zero)")
    p.add_argument("--psd-tol", type=float, default=DEFAULT_TOLERANCES.psd_tol)

    p = add("fit-map", _cmd_fit_map, "best orthogonal map between paired sign-vector files")
    p.add_argument("--x-file", required=True, help="matrix file of source sign vectors, one per row")
    p.add_argument("--y-file", required=True, help="matrix file of target sign vectors, one per row")

    return parser


def _pretty_lines(value, label: str, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        out.append(f"{pad}{label}:")
        for k, v in value.items():
            _pretty_lines(v, k, depth + 1, out)
    elif isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        out.append(f"{pad}{label}:")
        for row in value:
            out.append("  " * (depth + 1) + "  ".join(_pretty_scalar(v) for v in row))
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        out.append(f"{pad}{label}:")
        for i, v in enumerate(value):
            _pretty_lines(v, f"[{i}]", depth + 1, out)
    elif isinstance(value, list):
        out.append(f"{pad}{label}: [" + ", ".join(_pretty_scalar(v) for v in value) + "]")
    else:
        out.append(f"{pad}{label}: {_pretty_scalar(value)}")


def _pretty_scalar(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    if v is None:
        return "-"
    return str(v)


def _emit_error(command: str | None, exc: BaseException) -> None:
    payload = {
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    print(_json.dumps(payload), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, seed = args.handler(args)
        wall_ms = (time.perf_counter() - start) * 1000.0
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "pretty")}
        result = {
            "command": args.command,
            "inputs": inputs,
            "report": report,
            "wall_time_ms": wall_ms,
            "seed": seed,
        }
        if args.pretty:
            lines: list[str] = []
            for k, v in _json.to_jsonable(result).items():
                _pretty_lines(v, k, 0, lines)
            text = "\n".join(lines)
        else:
            text = _json.dumps(result)
    except (CubescoreError, OSError) as e:
        _emit_error(args.command, e)
        return 1 if isinstance(e, InternalCheckError) else 2
    except Exception as e:  # unexpected, or unrenderable output: an internal failure
        _emit_error(args.command, e)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
