import json
import re
from pathlib import Path

import numpy as np
import pytest

import cubescore
from cubescore import _json
from cubescore.cli import build_parser, main
from cubescore.constructors import rank_r_orthogonal
from cubescore.core import save_matrix

from .conftest import run_python

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = Path(cubescore.__file__).parent / "schemas" / "command_result.schema.json"
VALIDATOR = jsonschema.Draft7Validator(json.loads(SCHEMA_PATH.read_text()))

WALL_TIME = re.compile(r'"wall_time_ms":[0-9eE+.\-]+')
PRETTY_WALL_TIME = re.compile(r"^wall_time_ms: .*$", re.M)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    obj = json.loads(out)
    VALIDATOR.validate(obj)
    return obj


@pytest.fixture
def reflected4(tmp_path):
    path = tmp_path / "reflected4.txt"
    save_matrix(path, np.eye(4) - 0.5 * np.ones((4, 4)))
    return str(path)


@pytest.fixture
def uniform3(tmp_path):
    path = tmp_path / "uniform3.txt"
    save_matrix(path, np.ones((3, 3)) / 3.0)
    return str(path)


def test_score_exact_envelope(capsys, reflected4):
    obj = run_json(capsys, "score-exact", "--matrix", reflected4)
    assert obj["command"] == "score-exact"
    assert obj["report"]["hit_count"] == 8
    assert obj["report"]["score"] == 0.5
    assert obj["seed"] is None
    assert obj["inputs"]["matrix"] == reflected4


def test_score_mc_envelope_and_threads(capsys, reflected4):
    base = run_json(capsys, "score-mc", "--matrix", reflected4,
                    "--samples", "50000", "--seed", "9")
    wide = run_json(capsys, "score-mc", "--matrix", reflected4,
                    "--samples", "50000", "--seed", "9", "--threads", "4")
    assert base["seed"] == 9
    assert base["report"] == wide["report"]
    assert base["report"]["method"] == "monte_carlo"


def test_threshold_score_both_modes(capsys, reflected4):
    exact = run_json(capsys, "threshold-score", "--matrix", reflected4, "--theta", "0.9")
    assert exact["report"]["score"] == 0.5
    assert exact["seed"] is None
    mc = run_json(capsys, "threshold-score", "--matrix", reflected4, "--theta", "0.9",
                  "--mode", "mc", "--samples", "20000", "--seed", "3")
    assert mc["seed"] == 3
    assert abs(mc["report"]["score"] - 0.5) < 0.02


def test_perm_both_methods_agree(capsys, uniform3):
    ryser = run_json(capsys, "perm", "--matrix", uniform3)
    naive = run_json(capsys, "perm", "--matrix", uniform3, "--method", "naive")
    assert ryser["report"]["value"] == pytest.approx(2.0 / 9.0)
    assert naive["report"]["value"] == pytest.approx(ryser["report"]["value"])
    assert ryser["report"]["samples"] is None


def test_perm_bernoulli_modes(capsys, uniform3):
    exact = run_json(capsys, "perm-bernoulli", "--matrix", uniform3)
    assert exact["report"]["value"] == pytest.approx(2.0 / 9.0)
    mc = run_json(capsys, "perm-bernoulli", "--matrix", uniform3,
                  "--mode", "mc", "--samples", "30000", "--seed", "8")
    assert mc["report"]["method"] == "bernoulli_mc"
    assert mc["report"]["stderr"] > 0.0


def test_bins_envelope(capsys, uniform3):
    obj = run_json(capsys, "bins", "--matrix", uniform3,
                   "--samples", "200000", "--seed", "4")
    assert obj["report"]["method"] == "balls_in_bins"
    assert abs(obj["report"]["value"] - 2.0 / 9.0) <= 5.0 * obj["report"]["stderr"]


def test_construct_perm_family(capsys, tmp_path):
    out = tmp_path / "m.txt"
    obj = run_json(capsys, "construct", "--family", "perm", "--n", "3",
                   "--pi", "1,2,0", "--signs", "1,-1,1", "--out", str(out))
    assert obj["report"]["family"] == "perm_reflection"
    assert obj["report"]["claimed_score_lower_bound"] == 1.0
    assert obj["report"]["matrix_path"] == str(out)
    assert out.exists()


def test_construct_selector_family(capsys, tmp_path):
    out = tmp_path / "m.txt"
    obj = run_json(capsys, "construct", "--family", "selector", "--n", "3",
                   "--columns", "0,0,2", "--signs", "1,-1,1", "--out", str(out))
    assert obj["report"]["family"] == "selector"
    assert obj["report"]["orthogonal"] is False


def test_construct_rank1_then_score_pipeline(capsys, tmp_path):
    out = tmp_path / "m.txt"
    built = run_json(capsys, "construct", "--family", "rank1", "--n", "6",
                     "--t", "1,1,1,1,1,1", "--out", str(out))
    scored = run_json(capsys, "score-exact", "--matrix", str(out))
    assert scored["report"]["score"] >= built["report"]["claimed_score_lower_bound"]
    assert scored["report"]["hit_count"] == 22


def test_construct_rankr_family(capsys, tmp_path, rng):
    d = rng.normal(size=(4, 2))
    dfile = tmp_path / "d.txt"
    save_matrix(dfile, d)
    out = tmp_path / "m.txt"
    obj = run_json(capsys, "construct", "--family", "rankr",
                   "--d-file", str(dfile), "--out", str(out))
    assert obj["report"]["family"] == "rank_r"
    assert obj["report"]["n"] == 6
    assert obj["report"]["orthogonal"] is True


def test_construct_gap_perturbed_family(capsys, tmp_path):
    f0 = tmp_path / "f0.txt"
    save_matrix(f0, np.eye(4))
    gap_file = tmp_path / "gap.json"
    gap_file.write_text(json.dumps({
        "generators": [[1.0, 0.0, 0.0, 0.0]],
        "lower": [-1],
        "upper": [1],
        "symmetric": True,
    }))
    out = tmp_path / "m.txt"
    obj = run_json(capsys, "construct", "--family", "gap-perturbed",
                   "--f0-file", str(f0), "--gap-file", str(gap_file),
                   "--seed", "11", "--out", str(out))
    assert obj["report"]["family"] == "gap_perturbed"
    assert obj["seed"] == 11
    assert 0.0 < obj["report"]["claimed_score_lower_bound"] <= 1.0


def test_analyze_envelope(capsys, tmp_path, reflected4):
    # diagonal 0.5 sits outside the snap window, so nothing is absorbed
    # into the sparse part and the residual is the whole orthogonal matrix
    obj = run_json(capsys, "analyze", "--matrix", reflected4)
    assert obj["report"]["dominance"]["n"] == 4
    assert obj["report"]["decomposition"]["residual_rank"] == 4
    assert obj["report"]["decomposition"]["f"]["entries"] == [None] * 4

    # at n=16 the same family has diagonal 0.875, inside the window, and
    # the left-over rank-one block is recovered
    near = tmp_path / "near_identity.txt"
    save_matrix(near, np.eye(16) - np.ones((16, 16)) / 8.0)
    obj = run_json(capsys, "analyze", "--matrix", str(near))
    assert obj["report"]["decomposition"]["residual_rank"] == 1
    assert obj["report"]["decomposition"]["f"]["entries"] == [[i, 1] for i in range(16)]


def test_rho_envelope(capsys, tmp_path):
    path = tmp_path / "vectors.txt"
    save_matrix(path, np.ones((1, 4)))
    obj = run_json(capsys, "rho", "--vectors-file", str(path))
    assert obj["report"]["rho"] == 0.375
    assert obj["report"]["count"] == 6


def test_classify_stochastic_envelope(capsys, uniform3):
    obj = run_json(capsys, "classify-stochastic", "--matrix", uniform3)
    assert obj["report"]["n"] == 3
    assert obj["report"]["permanent"] == pytest.approx(2.0 / 9.0)
    skipped = run_json(capsys, "classify-stochastic", "--matrix", uniform3,
                       "--skip-permanent")
    assert skipped["report"]["permanent"] is None


def test_verify_rankr_envelope(capsys, tmp_path, rng):
    d = rng.normal(size=(5, 2))
    cert = rank_r_orthogonal(7, d)
    ufile = tmp_path / "u.txt"
    dfile = tmp_path / "d.txt"
    save_matrix(ufile, np.asarray(cert.parameters["u"]))
    save_matrix(dfile, d)
    obj = run_json(capsys, "verify-rankr", "--u-file", str(ufile), "--d-file", str(dfile))
    assert obj["report"]["sym_nsd"] is True
    assert obj["report"]["trace_ok"] is True
    assert obj["report"]["identity_residual"] <= 1e-10


def test_trace_claim_envelope(capsys):
    obj = run_json(capsys, "trace-claim", "--e", "0.5,1,2")
    assert obj["report"]["within_bounds"] is True
    assert obj["report"]["trace"] == pytest.approx(1 / 1.5 + 1 / 2 + 1 / 3)


def test_trace_claim_with_b_file(capsys, tmp_path):
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    bfile = tmp_path / "b.txt"
    save_matrix(bfile, b)
    obj = run_json(capsys, "trace-claim", "--e", "1,1", "--b-file", str(bfile))
    assert obj["report"]["within_bounds"] is True


def test_fit_map_envelope(capsys, tmp_path):
    xs = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, 1.0, -1.0]])
    m = np.zeros((3, 3))
    m[[1, 2, 0], np.arange(3)] = [1.0, -1.0, 1.0]
    ys = xs @ m.T
    xfile = tmp_path / "x.txt"
    yfile = tmp_path / "y.txt"
    save_matrix(xfile, xs)
    save_matrix(yfile, ys)
    obj = run_json(capsys, "fit-map", "--x-file", str(xfile), "--y-file", str(yfile))
    assert obj["report"]["max_residual"] <= 1e-9
    assert obj["report"]["orthogonal"] is True


def test_rerun_is_byte_identical_modulo_wall_time(capsys, reflected4):
    argv = ["score-mc", "--matrix", reflected4, "--samples", "30000", "--seed", "5"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert WALL_TIME.sub('"wall_time_ms":0', out1) == WALL_TIME.sub('"wall_time_ms":0', out2)
    assert out1 != ""


def test_missing_file_reports_json_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "score-exact", "--matrix", str(tmp_path / "absent.txt"))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["command"] == "score-exact"
    assert payload["error"]["type"] == "FileNotFoundError"


def test_precondition_failure_exits_two(capsys, reflected4):
    code, out, err = run_cli(capsys, "threshold-score", "--matrix", reflected4,
                             "--theta", "1.5")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("seed, code", [(2**128, 2), (2**128 - 1, 0)])
def test_a_seed_must_lie_below_2_128(capsys, reflected4, seed, code):
    # a Philox key of 2**128 or more was a bare ValueError, an exit 1
    got, out, err = run_cli(capsys, "score-mc", "--matrix", reflected4, "--samples", "1000", "--seed", str(seed))
    assert got == code, err
    if code:
        assert json.loads(err)["error"]["type"] == "PreconditionError"
    else:
        assert json.loads(out)["seed"] == seed


def test_capacity_failure_exits_two(capsys, tmp_path):
    # half the identity is no signed permutation plus rank one, so the walk runs
    path = tmp_path / "big.txt"
    save_matrix(path, 0.5 * np.eye(31))
    code, _, err = run_cli(capsys, "score-exact", "--matrix", str(path))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "CapacityError"


def test_parse_failure_exits_two(capsys, tmp_path):
    path = tmp_path / "mangled.txt"
    path.write_text("2 2\n1 2\n3 oops\n")
    code, _, err = run_cli(capsys, "score-exact", "--matrix", str(path))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_construct_missing_flag_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "construct", "--family", "rank1",
                           "--out", str(tmp_path / "m.txt"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("field, bad", [("lower", -1), ("upper", "1"), ("generators", "x"),
                                        ("generators", [[1, "2", 0, 0]]), ("generators", [[1, True, 0, 0]]),
                                        ("symmetric", "no"), ("symmetric", 1)])
def test_a_mistyped_gap_file_exits_two(capsys, tmp_path, field, bad):
    # a bare TypeError or ValueError exited 1, and "no" was read as True
    f0 = tmp_path / "f0.txt"
    save_matrix(f0, np.eye(4))
    gap = {"generators": [[1, 0, 0, 0]], "lower": [-1], "upper": [1], "symmetric": False, field: bad}
    gap_file = tmp_path / "gap.json"
    gap_file.write_text(json.dumps(gap))
    code, out, err = run_cli(capsys, "construct", "--family", "gap-perturbed", "--f0-file", str(f0),
                             "--gap-file", str(gap_file), "--seed", "1", "--out", str(tmp_path / "m.txt"))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "PreconditionError"


def test_bad_choice_is_usage_error(capsys, reflected4):
    with pytest.raises(SystemExit) as exc:
        main(["perm", "--matrix", reflected4, "--method", "bogus"])
    assert exc.value.code == 2


def test_pretty_renders_text(capsys, reflected4, uniform3):
    code, out, _ = run_cli(capsys, "score-exact", "--matrix", reflected4, "--pretty")
    assert code == 0
    assert out.startswith("command: score-exact")
    assert "hit_count: 8" in out
    assert "{" not in out
    # a list of reports renders as nested blocks, not as a Python repr
    code, out, _ = run_cli(capsys, "classify-stochastic", "--matrix", uniform3, "--pretty")
    assert code == 0
    assert "  row_classes:\n    [0]:\n      kind: splittable\n" in out
    assert "{" not in out


def test_every_float_in_output_round_trips(capsys, uniform3):
    obj = run_json(capsys, "perm", "--matrix", uniform3)
    # 17 significant digits keep the parsed value identical to the computed one
    _, out, _ = run_cli(capsys, "perm", "--matrix", uniform3)
    reparsed = json.loads(out)
    assert reparsed["report"]["value"] == obj["report"]["value"]


@pytest.fixture
def cli_files(tmp_path, reflected4, uniform3):
    rng = np.random.default_rng(77)
    d = rng.normal(size=(4, 2))
    files = {"reflected": reflected4, "uniform": uniform3, "out": str(tmp_path / "out.txt")}
    mats = {
        "d": d,
        "u": np.asarray(rank_r_orthogonal(6, d).parameters["u"]),
        "b": np.array([[0.0, 0.5], [-0.5, 0.0]]),
        "f0": np.eye(4),
        "vectors": np.ones((1, 4)),
        "x": np.array([[1.0, 1.0], [1.0, -1.0]]),
        "y": np.array([[-1.0, 1.0], [1.0, 1.0]]),
        # the residual is rank one, so the decomposition carries a gap_fit
        "near16": np.eye(16) - np.ones((16, 16)) / 8.0,
    }
    for name, m in mats.items():
        files[name] = str(tmp_path / f"{name}.txt")
        save_matrix(files[name], m)
    files["gap"] = str(tmp_path / "gap.json")
    Path(files["gap"]).write_text(json.dumps(
        {"generators": [[1.0, 0.0, 0.0, 0.0]], "lower": [-1], "upper": [1], "symmetric": True}))
    return files


ENVELOPE = ["command", "inputs", "report", "wall_time_ms", "seed"]
SCORE = ["hit_count", "total", "score", "stderr", "method", "tolerance"]
PERMANENT = ["value", "method", "samples", "stderr"]
MC_INPUTS = ["samples", "seed", "threads"]
CONSTRUCT_INPUTS = ["family", "n", "pi", "columns", "signs", "t", "d_file", "a_file",
                    "diag_signs", "f0_file", "gap_file", "group_tol", "seed", "out"]
CERTIFICATE = ["family", "n", "claimed_score_lower_bound", "orthogonal", "parameters", "matrix_path"]
GAP = ["generators", "lower", "upper", "symmetric"]
DOMINANCE = ["n", "epsilon", "threshold", "row_max", "row_argmax", "dominated",
             "dominated_count", "column_injective"]
DECOMPOSITION = ["f", "residual", "residual_rank", "gap_fit"]

# label -> (argv with {file} placeholders, {dotted path: keys in order})
KEY_ORDER_CASES = {
    "score-exact": (
        ["score-exact", "--matrix", "{reflected}"],
        {"inputs": ["matrix", "tol"], "report": SCORE}),
    "score-mc": (
        ["score-mc", "--matrix", "{reflected}", "--samples", "100", "--seed", "1"],
        {"inputs": ["matrix", "samples", "seed", "tol", "threads"], "report": SCORE}),
    "threshold-score": (
        ["threshold-score", "--matrix", "{reflected}", "--theta", "0.5"],
        {"inputs": ["matrix", "theta", "mode", *MC_INPUTS], "report": [*SCORE, "threshold"]}),
    "perm": (
        ["perm", "--matrix", "{uniform}"],
        {"inputs": ["matrix", "method"], "report": PERMANENT}),
    "perm-bernoulli": (
        ["perm-bernoulli", "--matrix", "{uniform}"],
        {"inputs": ["matrix", "mode", *MC_INPUTS], "report": PERMANENT}),
    "bins": (
        ["bins", "--matrix", "{uniform}", "--samples", "100", "--seed", "1"],
        {"inputs": ["matrix", *MC_INPUTS, "stochastic_tol"], "report": PERMANENT}),
    "construct-perm": (
        ["construct", "--family", "perm", "--n", "2", "--pi", "1,0", "--signs", "1,-1", "--out", "{out}"],
        {"inputs": CONSTRUCT_INPUTS, "report": CERTIFICATE, "report.parameters": ["pi", "signs"]}),
    "construct-selector": (
        ["construct", "--family", "selector", "--n", "2", "--columns", "0,0", "--signs", "1,-1",
         "--out", "{out}"],
        {"inputs": CONSTRUCT_INPUTS, "report": CERTIFICATE, "report.parameters": ["columns", "signs"]}),
    "construct-rank1": (
        ["construct", "--family", "rank1", "--n", "3", "--t", "1,1,1", "--out", "{out}"],
        {"inputs": CONSTRUCT_INPUTS, "report": CERTIFICATE, "report.parameters": ["t", "x"]}),
    "construct-rankr": (
        ["construct", "--family", "rankr", "--d-file", "{d}", "--out", "{out}"],
        {"inputs": CONSTRUCT_INPUTS, "report": CERTIFICATE,
         "report.parameters": ["r", "d", "a", "diag_signs", "u"]}),
    "construct-gap-perturbed": (
        ["construct", "--family", "gap-perturbed", "--f0-file", "{f0}", "--gap-file", "{gap}",
         "--seed", "2", "--out", "{out}"],
        {"inputs": CONSTRUCT_INPUTS, "report": CERTIFICATE,
         "report.parameters": ["seed", "gap", "coefficients", "mode_count", "mode_vector", "group_tol"],
         "report.parameters.gap": GAP}),
    "analyze": (
        ["analyze", "--matrix", "{near16}"],
        {"inputs": ["matrix", "epsilon", "snap_tol", "rank_tol"],
         "report": ["dominance", "decomposition"],
         "report.dominance": DOMINANCE,
         "report.decomposition": DECOMPOSITION,
         "report.decomposition.f": ["rows", "cols", "entries"],
         "report.decomposition.gap_fit": ["gap", "generator_columns", "coefficients", "max_fit_residual"],
         "report.decomposition.gap_fit.gap": GAP}),
    "rho": (
        ["rho", "--vectors-file", "{vectors}"],
        {"inputs": ["vectors_file", "group_tol"],
         "report": ["n", "ambient_dim", "count", "total", "rho", "mode", "group_tol"]}),
    "classify-stochastic": (
        ["classify-stochastic", "--matrix", "{uniform}"],
        {"inputs": ["matrix", "stochastic_tol", "skip_permanent"],
         "report": ["n", "row_classes", "little_count", "splittable_count", "dominated_count",
                    "dominated_injective", "little_bound", "splittable_bound", "permanent"],
         "report.row_classes.0": ["kind", "ell1", "col", "entry", "tail", "part", "part_sum",
                                  "rest_sum"]}),
    "verify-rankr": (
        ["verify-rankr", "--u-file", "{u}", "--d-file", "{d}"],
        {"inputs": ["u_file", "d_file", "psd_tol"],
         "report": ["r", "identity_residual", "sym_max_eig", "sym_nsd", "diag_max",
                    "diag_nonpositive", "trace", "trace_bound", "trace_ok"]}),
    "trace-claim": (
        ["trace-claim", "--e", "1,2", "--b-file", "{b}"],
        {"inputs": ["e", "b_file", "psd_tol"], "report": ["r", "trace", "lower", "upper", "within_bounds"]}),
    "fit-map": (
        ["fit-map", "--x-file", "{x}", "--y-file", "{y}"],
        {"inputs": ["x_file", "y_file"],
         "report": ["n", "pairs", "matrix", "residuals", "max_residual", "orthogonal"]}),
}


def test_key_order_cases_cover_every_subcommand():
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert sorted({argv[0] for argv, _ in KEY_ORDER_CASES.values()}) == sorted(commands)


@pytest.mark.parametrize("label", list(KEY_ORDER_CASES))
def test_envelope_key_order(capsys, cli_files, label):
    argv, expected = KEY_ORDER_CASES[label]
    obj = run_json(capsys, *(a.format(**cli_files) for a in argv))
    assert list(obj) == ENVELOPE
    for path, keys in expected.items():
        node = obj
        for part in path.split("."):
            node = node[int(part)] if part.isdigit() else node[part]
        assert list(node) == keys, path


def test_inputs_echo_every_flag(capsys, tmp_path):
    # a seed that the family ignores is still echoed; the envelope's seed
    # names only a seed that was used
    obj = run_json(capsys, "construct", "--family", "rank1", "--n", "3", "--t", "1,1,1",
                   "--seed", "3", "--out", str(tmp_path / "m.txt"))
    assert obj["inputs"]["seed"] == 3
    assert obj["inputs"]["pi"] is None
    assert obj["seed"] is None


def test_unrenderable_output_is_a_json_error(capsys, tmp_path):
    # the permanent of this matrix overflows, and an echoed --group-tol of inf
    # cannot be written as JSON either: neither may leave a partial stdout,
    # and numpy's overflow warnings (errors under pytest) must not reach stderr
    big = tmp_path / "big.txt"
    save_matrix(big, np.full((2, 2), 1e200))
    code, out, err = run_cli(capsys, "perm", "--matrix", str(big))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == {"type": "ValueError",
                                        "message": "cannot serialize non-finite float nan"}
    # the same holds on the Monte Carlo pool's threads
    code, out, err = run_cli(capsys, "threshold-score", "--matrix", str(big), "--theta", "0.5",
                             "--mode", "mc", "--samples", "70000", "--seed", "1", "--threads", "2")
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "construct", "--family", "rank1", "--n", "2", "--t", "1,1",
                             "--group-tol", "inf", "--out", str(tmp_path / "m.txt"))
    assert (code, out) == (1, "")
    assert json.loads(err)["command"] == "construct"


# label -> (argv with {file} placeholders, error type); each input is refused
# before any work is done
REFUSED_CASES = {
    "comma-list-not-a-number": (
        ["construct", "--family", "perm", "--n", "2", "--pi", "0,x", "--signs", "1,1", "--out", "{out}"],
        "PreconditionError"),
    "gap-file-not-json": (
        ["construct", "--family", "gap-perturbed", "--f0-file", "{f0}", "--gap-file", "{not_json}",
         "--seed", "1", "--out", "{out}"], "PreconditionError"),
    "gap-file-not-an-object": (
        ["construct", "--family", "gap-perturbed", "--f0-file", "{f0}", "--gap-file", "{json_list}",
         "--seed", "1", "--out", "{out}"], "PreconditionError"),
    "selector-lengths-differ": (
        ["construct", "--family", "selector", "--n", "2", "--columns", "0,1", "--signs", "1",
         "--out", "{out}"], "PreconditionError"),
    "rankr-n-conflicts-with-d": (
        ["construct", "--family", "rankr", "--d-file", "{d}", "--n", "9", "--out", "{out}"],
        "PreconditionError"),
    "fit-map-shapes-differ": (["fit-map", "--x-file", "{x}", "--y-file", "{d}"], "PreconditionError"),
    "header-not-integers": (["score-exact", "--matrix", "{header_text}"], "ParseError"),
    "header-not-positive": (["score-exact", "--matrix", "{header_zero}"], "ParseError"),
    # exact mode checks the Monte Carlo flags it is given, as mc mode does
    "threshold-exact-threads-zero": (
        ["threshold-score", "--matrix", "{reflected}", "--theta", "0.25", "--threads", "0"], "PreconditionError"),
    "bernoulli-exact-threads-negative": (
        ["perm-bernoulli", "--matrix", "{reflected}", "--threads", "-3"], "PreconditionError"),
    "bernoulli-exact-samples-zero": (
        ["perm-bernoulli", "--matrix", "{reflected}", "--samples", "0"], "PreconditionError"),
}


@pytest.mark.parametrize("label", list(REFUSED_CASES))
def test_refused_inputs_exit_two(capsys, cli_files, label):
    extra = {"not_json": "{not json", "json_list": "[1]", "header_text": "a 2\n1 2\n",
             "header_zero": "0 2\n"}
    for name, text in extra.items():
        cli_files[name] = cli_files["out"] + f".{name}"
        Path(cli_files[name]).write_text(text)
    argv, error = REFUSED_CASES[label]
    code, out, err = run_cli(capsys, *(a.format(**cli_files) for a in argv))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == error


def test_json_rendering_rules():
    # numpy scalars become plain values; a non-string key or an unknown
    # type cannot be rendered
    assert type(_json.to_jsonable(np.int64(3))) is int
    assert _json.dumps([np.int64(3), np.bool_(True), np.float64(0.5)]) == "[3,true,0.5]"
    with pytest.raises(ValueError, match="keys must be strings"):
        _json.dumps({1: 2})
    with pytest.raises(ValueError, match="type object"):
        _json.dumps(object())


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    # only a threaded Monte Carlo call needs concurrent.futures
    code = "import sys, cubescore.cli\nprint('concurrent.futures' in sys.modules)\n"
    assert run_python(code) == "False\n"


# The CLI's outputs on fixed inputs: mostly integer and signed-permutation
# matrices, whose every number is exact, plus seeded Monte Carlo runs and a
# grid-rounded rho on non-integer vectors, which are deterministic too.  So
# stdout must match the bytes recorded in tests/data/cli/ (one file per
# label) once wall_time_ms is masked and the temporary directory is written
# as {tmp}.  A change to these bytes is a change to the
# CLI's output and belongs in the changelog along with the new file.
GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
GOLDEN_CASES = {
    "score-exact": ["score-exact", "--matrix", "{signed_perm}"],
    "threshold-score": ["threshold-score", "--matrix", "{signed_perm}", "--theta", "0.5"],
    "perm": ["perm", "--matrix", "{zero_one}"],
    "construct-perm": ["construct", "--family", "perm", "--n", "4", "--pi", "2,0,3,1",
                       "--signs", "1,-1,-1,1", "--out", "{tmp}/perm.txt"],
    "construct-selector": ["construct", "--family", "selector", "--n", "3", "--columns", "0,0,2",
                           "--signs", "1,-1,1", "--out", "{tmp}/selector.txt"],
    "construct-rank1": ["construct", "--family", "rank1", "--n", "4", "--t", "1,1,2,-2",
                        "--out", "{tmp}/rank1.txt"],
    "rho": ["rho", "--vectors-file", "{int_vectors}"],
    "analyze": ["analyze", "--matrix", "{perm4}"],
    "classify-stochastic": ["classify-stochastic", "--matrix", "{perm4}"],
    "score-mc": ["score-mc", "--matrix", "{halves}", "--samples", "70000", "--seed", "9", "--threads", "2"],
    "threshold-score-mc": ["threshold-score", "--matrix", "{halves}", "--theta", "0.9", "--mode", "mc",
                           "--samples", "70000", "--seed", "3"],
    "construct-gap-perturbed": ["construct", "--family", "gap-perturbed", "--f0-file", "{signed_perm}",
                                "--gap-file", "{gap}", "--seed", "11", "--out", "{tmp}/gap.txt"],
    "analyze-rank-one": ["analyze", "--matrix", "{rank_one_residual}"],
    "rho-grid": ["rho", "--vectors-file", "{real_vectors}", "--group-tol", "0.05"],
    "perm-bernoulli": ["perm-bernoulli", "--matrix", "{zero_one}"],
    "perm-bernoulli-mc": ["perm-bernoulli", "--matrix", "{zero_one}", "--mode", "mc",
                          "--samples", "70000", "--seed", "5"],
    # a t the integer reducer declines, so its claim comes from the walk
    "construct-rank1-walk": ["construct", "--family", "rank1", "--n", "4", "--t", "1,0.5,0.5,-1",
                             "--out", "{tmp}/rank1.txt"],
    "bins": ["bins", "--matrix", "{quarters}", "--samples", "70000", "--seed", "4"],
    # u = -2 / (1 + |d|^2) = -0.5 exactly, so the identity residual is 0
    "verify-rankr": ["verify-rankr", "--u-file", "{u_half}", "--d-file", "{ones31}"],
    "trace-claim": ["trace-claim", "--e", "1,1"],
    "trace-claim-b": ["trace-claim", "--e", "1,1", "--b-file", "{antisym}"],
    # the whole cube and its signed-permutation image fit to an exact 0/+-1 matrix
    "fit-map": ["fit-map", "--x-file", "{cube3}", "--y-file", "{cube3_image}"],
    "construct-rankr": ["construct", "--family", "rankr", "--d-file", "{ones31}", "--out", "{tmp}/rankr.txt"],
    "construct-rankr-pretty": ["construct", "--family", "rankr", "--d-file", "{ones31}",
                               "--out", "{tmp}/rankr.txt", "--pretty"],
}


@pytest.fixture
def golden_files(tmp_path):
    perm4 = np.zeros((4, 4))
    perm4[[1, 3, 0, 2], np.arange(4)] = 1.0
    signed = np.zeros((5, 5))
    signed[[2, 0, 4, 1, 3], np.arange(5)] = [1.0, -1.0, -1.0, 1.0, -1.0]
    cube3 = 1.0 - 2.0 * ((np.arange(8)[:, None] >> np.arange(3)) & 1)
    matrices = {
        "signed_perm": signed,
        "zero_one": np.array([[1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]], dtype=float),
        "int_vectors": np.array([[1, 2, 0, -1, 1, 3], [0, 1, 1, 1, -2, 0]], dtype=float),
        "perm4": perm4,
        # entries on the 1/8 grid: the reflection I - J/2, and a signed
        # permutation plus the rank-one residual u v^T / 8
        "halves": np.eye(4) - 0.5,
        "rank_one_residual": signed + np.outer([1, -1, 0, 1, 1], [1, 0, -1, 1, -1]) / 8.0,
        "real_vectors": np.array([[0.1, 0.21, 0.31, 0.09, 0.2, 0.11, 0.4, 0.3],
                                  [0.2, 0.1, 0.1, 0.21, -0.1, 0.09, 0.2, 0.0]]),
        "quarters": np.array([[0.5, 0.25, 0, 0.25], [0.25, 0.5, 0.25, 0], [0, 0.25, 0.5, 0.25],
                              [0.25, 0, 0.25, 0.5]]),
        "u_half": np.array([[-0.5]]),
        "ones31": np.ones((3, 1)),
        "antisym": np.array([[0.0, 2.0], [-2.0, 0.0]]),
        "cube3": cube3,
        "cube3_image": cube3 @ np.array([[0.0, 0, 1], [-1, 0, 0], [0, 1, 0]]).T,
    }
    files = {"tmp": str(tmp_path)}
    for name, m in matrices.items():
        files[name] = str(tmp_path / f"{name}.txt")
        save_matrix(files[name], m)
    files["gap"] = str(tmp_path / "gap.json")
    Path(files["gap"]).write_text(json.dumps({
        "generators": [[1, 0, -1, 0, 2], [0, 1, 1, -1, 0]], "lower": [-1, -2], "upper": [1, 2], "symmetric": True,
    }))
    return files


def test_recorded_bytes_cover_every_subcommand():
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert sorted({argv[0] for argv in GOLDEN_CASES.values()}) == sorted(commands)


@pytest.mark.parametrize("label", list(GOLDEN_CASES))
def test_stdout_matches_the_recorded_bytes(capsys, golden_files, label):
    argv = GOLDEN_CASES[label]
    code, out, err = run_cli(capsys, *(a.format(**golden_files) for a in argv))
    assert (code, err) == (0, "")
    masked = WALL_TIME.sub('"wall_time_ms":0', out).replace(golden_files["tmp"], "{tmp}")
    masked = PRETTY_WALL_TIME.sub("wall_time_ms: 0", masked)
    suffix = ".txt" if "--pretty" in argv else ".json"
    assert masked == (GOLDEN_DIR / f"{label}{suffix}").read_text(encoding="ascii")
