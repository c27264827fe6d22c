import numpy as np
import pytest

from cubescore.constructors import (
    GapDescriptor,
    gap_perturbed_selector,
    perm_reflection,
    rank_one_orthogonal,
    rank_r_orthogonal,
    selector_matrix,
)
from cubescore.core import (
    CapacityError,
    ENUMERATION_CAP,
    ParseError,
    PreconditionError,
    ShapeError,
    SignVector,
    ToleranceConfig,
    as_matrix,
    is_column_stochastic,
    is_orthogonal,
    load_matrix,
    numeric_rank,
    save_matrix,
    sign_matrix_from_rows,
)
from cubescore.permanent import balls_in_bins_estimate, bernoulli_permanent, ryser_value
from cubescore.score import exact_score, mc_score, threshold_score
from cubescore.structure import (
    SparseSignMatrix,
    classify_row,
    collision_probability_bounds,
    concentration_probability,
    decompose,
    dominance_analysis,
    hamming_check,
    procrustes_fit,
    stochastic_certificate,
    trace_bound_check,
)


def test_sign_vector_components_round_trip():
    sv = SignVector.from_components([1, -1, -1, 1, -1])
    assert sv.n == 5
    assert sv.bits == 0b10110
    assert sv.components().tolist() == [1.0, -1.0, -1.0, 1.0, -1.0]
    assert len(sv) == 5


def test_sign_vector_validation():
    with pytest.raises(CapacityError):
        SignVector(0, 0)
    with pytest.raises(CapacityError):
        SignVector(ENUMERATION_CAP + 1, 0)
    with pytest.raises(PreconditionError):
        SignVector(3, 8)
    with pytest.raises(PreconditionError):
        SignVector.from_components([1.0, 0.5])
    with pytest.raises(PreconditionError):
        SignVector(3, 1.5)


def test_tolerance_config_defaults_and_validation():
    cfg = ToleranceConfig()
    assert cfg.membership_tol == 1e-9
    assert cfg.rank_tol == 1e-8
    assert cfg.psd_tol == 1e-9
    with pytest.raises(PreconditionError):
        ToleranceConfig(membership_tol=0.0)
    with pytest.raises(PreconditionError):
        ToleranceConfig(rank_tol=1.0)


def test_as_matrix_validation():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(PreconditionError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_as_matrix_keeps_a_float_array():
    a = np.zeros((3, 2))
    assert as_matrix(a) is a
    assert as_matrix(np.arange(4).reshape(2, 2)).dtype == np.float64


def test_gap_descriptor_keeps_its_own_generators():
    g = np.ones((1, 4))
    gap = GapDescriptor(g, (-1,), (1,))
    g[0, 0] = 5.0
    assert gap.generators[0, 0] == 1.0


def test_is_orthogonal_accepts_signed_permutations(rng):
    m = np.zeros((4, 4))
    m[[2, 0, 3, 1], np.arange(4)] = [1, -1, -1, 1]
    assert is_orthogonal(m)
    assert not is_orthogonal(np.ones((3, 3)))


def test_is_orthogonal_invariant_under_permutation_and_signs(rng):
    from .conftest import rand_orthogonal

    q = rand_orthogonal(rng, 6)
    assert is_orthogonal(q, 1e-9)
    p = rng.permutation(6)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=6)
    assert is_orthogonal(q[p][:, p] * signs, 1e-9)


def test_is_column_stochastic():
    a = np.array([[0.25, 0.5], [0.75, 0.5]])
    assert is_column_stochastic(a)
    assert not is_column_stochastic(a.T * 1.01)
    assert not is_column_stochastic(np.array([[1.1, 0.0], [-0.1, 1.0]]))


def test_numeric_rank_small_matrices(rng):
    assert numeric_rank(np.zeros((5, 5))) == 0
    assert numeric_rank(np.eye(7)) == 7
    u = rng.normal(size=(40, 3))
    v = rng.normal(size=(3, 40))
    assert numeric_rank(u @ v) == 3


def test_numeric_rank_large_matrices(rng):
    u = rng.normal(size=(520, 7))
    v = rng.normal(size=(7, 520))
    assert numeric_rank(u @ v) == 7
    assert numeric_rank(np.zeros((520, 520))) == 0


def test_numeric_rank_tol_validation():
    with pytest.raises(PreconditionError):
        numeric_rank(np.eye(3), rank_tol=0.0)


def test_save_load_round_trip_is_bit_exact(tmp_path, rng):
    m = rng.normal(size=(7, 5))
    m[0, 0] = 1.0 / 3.0
    m[1, 1] = 1e-300
    m[2, 2] = -0.0
    m[3, 3] = 12345678901234567.0
    path = tmp_path / "m.txt"
    save_matrix(path, m)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


def test_load_matrix_reports_header_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(ParseError):
        load_matrix(p)
    p.write_text("2\n1 2\n3 4\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert err.value.line == 1


def test_load_matrix_reports_row_and_token_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert err.value.line == 3

    p.write_text("2 2\n1 2\n3 x\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert err.value.line == 3
    assert err.value.column == 2

    p.write_text("1 2\n1 2\n3 4\n")
    with pytest.raises(ParseError):
        load_matrix(p)

    p.write_text("2 2\n1 2\n3 inf\n")
    with pytest.raises(ParseError):
        load_matrix(p)


def test_sign_matrix_from_rows_mixes_packed_and_dense():
    rows = sign_matrix_from_rows([SignVector(3, 0b101), [1, 1, -1]])
    assert rows.tolist() == [[-1.0, 1.0, -1.0], [1.0, 1.0, -1.0]]
    with pytest.raises(PreconditionError):
        sign_matrix_from_rows([[1.0, 0.0]])
    with pytest.raises(ShapeError):
        sign_matrix_from_rows([[1.0, 1.0], [1.0, 1.0, -1.0]])


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, float("nan"), float("inf"), float("-inf")])
def test_check_fraction_rejects_values_outside_the_open_unit_interval(value):
    from cubescore.core import check_fraction

    with pytest.raises(PreconditionError, match="rank_tol must lie strictly between 0 and 1"):
        check_fraction(value, "rank_tol")
    assert check_fraction(0.25) == 0.25


def test_stochastic_tol_must_be_a_fraction():
    a = np.array([[1.5, 0.0], [-0.5, 1.0]])
    assert not is_column_stochastic(a)
    with pytest.raises(PreconditionError, match="stochastic_tol"):
        is_column_stochastic(a, float("inf"))


def _rejection_cases():
    # (label, call, error class) for every entry point whose input rule lives
    # in one shared check; each call must fail before any work is done
    eye, uniform = np.eye(2), np.full((2, 2), 0.5)
    gap = GapDescriptor(np.ones((1, 4)), (-1,), (1,))
    d = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    mc_entry_points = {
        "mc_score": lambda samples, seed, threads: mc_score(eye, samples, seed, threads=threads),
        "threshold_mc": lambda samples, seed, threads: threshold_score(eye, 0.5, "mc", samples, seed, threads),
        "bernoulli_mc": lambda samples, seed, threads: bernoulli_permanent(eye, "mc", samples, seed, threads),
        "bins": lambda samples, seed, threads: balls_in_bins_estimate(uniform, samples, seed, threads),
    }
    bad_draws = [("seed", -1), ("seed", 1.5), ("seed", True), ("seed", 2**128),
                 ("samples", 0), ("samples", 2.5), ("samples", True),
                 ("threads", 0), ("threads", 1.0), ("threads", True), ("threads", "x")]
    cases = []
    for name, call in mc_entry_points.items():
        for flag, bad in bad_draws:
            args = {"samples": 100, "seed": 1, "threads": 1, flag: bad}
            cases.append((f"{name}-{flag}={bad!r}", lambda call=call, args=args: call(**args),
                          PreconditionError))
    # exact mode checks each of these that is given, by the same rule
    exact_entry_points = {
        "threshold_exact": lambda **args: threshold_score(eye, 0.5, **args),
        "bernoulli_exact": lambda **args: bernoulli_permanent(eye, **args),
    }
    for name, call in exact_entry_points.items():
        for flag, bad in bad_draws:
            cases.append((f"{name}-{flag}={bad!r}", lambda call=call, args={flag: bad}: call(**args),
                          PreconditionError))
    for bad in (-1, 1.5, True, 2**128):
        cases.append((f"gap_perturbed-seed={bad!r}", lambda bad=bad: gap_perturbed_selector(np.eye(4), gap, bad),
                      PreconditionError))
    signs = {
        "perm_reflection": lambda s: perm_reflection(2, [1, 0], s),
        "selector_matrix": lambda s: selector_matrix(2, [(0, s[0]), (1, s[1])]),
        "rank_r_diag_signs": lambda s: rank_r_orthogonal(5, d, diag_signs=[1, 1, 1, *s]),
        "procrustes_fit": lambda s: procrustes_fit([(s, [1, 1])]),
        "hamming_check": lambda s: hamming_check(s, [1, 1]),
        "from_components": lambda s: SignVector.from_components(s),
    }
    for name, call in signs.items():
        for bad in ([1, 0.5], [1, 0], [1, -2], [1, float("nan")]):
            cases.append((f"{name}-signs={bad!r}", lambda call=call, bad=bad: call(bad), PreconditionError))
    cases += [
        ("perm_reflection-signs-length", lambda: perm_reflection(2, [1, 0], [1, 1, 1]), PreconditionError),
        ("rank_r_diag_signs-length", lambda: rank_r_orthogonal(5, d, diag_signs=[1, 1]), PreconditionError),
        ("procrustes_fit-ragged", lambda: procrustes_fit([([1, 1], [1, 1, 1])]), PreconditionError),
        ("hamming_check-length", lambda: hamming_check([1, 1], [1, 1, 1]), PreconditionError),
        ("from_components-empty", lambda: SignVector.from_components([]), ShapeError),
        ("from_components-2d", lambda: SignVector.from_components([[1, 1]]), ShapeError),
        ("sign_matrix_from_rows-empty", lambda: sign_matrix_from_rows([]), ShapeError),
        ("perm_reflection-pi-length", lambda: perm_reflection(2, [0, 1, 2], [1, 1]), PreconditionError),
        ("rank_r_d-columns", lambda: rank_r_orthogonal(2, np.ones((1, 2))), PreconditionError),
        ("gap-size-cap", lambda: GapDescriptor(np.ones((1, 4)), (-10**6,), (10**6,)).is_proper(),
         CapacityError),
    ]
    # outside sequences: each of these raised a bare TypeError, ValueError or
    # AttributeError before they went through one sequence rule
    cases += [
        ("selector_matrix-targets-int", lambda: selector_matrix(2, 5), PreconditionError),
        ("sparse_sign_matrix-entries-int", lambda: SparseSignMatrix(2, 2, 5), PreconditionError),
        ("perm_reflection-pi-ragged", lambda: perm_reflection(2, [[0], [1, 2]], [1, 1]), PreconditionError),
        ("procrustes_fit-int", lambda: procrustes_fit(5), PreconditionError),
        ("procrustes_fit-pair-int", lambda: procrustes_fit([5]), PreconditionError),
        ("procrustes_fit-1-tuple", lambda: procrustes_fit([(1,)]), PreconditionError),
        ("procrustes_fit-3-tuple", lambda: procrustes_fit([([1], [1], [1])]), PreconditionError),
        ("sign_matrix_from_rows-int", lambda: sign_matrix_from_rows(5), PreconditionError),
        ("gap-from_dict-list", lambda: GapDescriptor.from_dict([1]), PreconditionError),
        ("gap_perturbed-gap-int", lambda: gap_perturbed_selector(np.eye(2), 5, 1), PreconditionError),
    ]
    not_stochastic = [np.ones((2, 2)), np.array([[1.5, 0.0], [-0.5, 1.0]])]
    for k, a in enumerate(not_stochastic):
        cases.append((f"bins-not-stochastic-{k}", lambda a=a: balls_in_bins_estimate(a, 100, 1), PreconditionError))
        cases.append((f"stochastic_certificate-not-stochastic-{k}", lambda a=a: stochastic_certificate(a),
                      PreconditionError))
    blocks = {
        "rank_r_a": lambda blk: rank_r_orthogonal(5, d, a=blk),
        "trace_bound_b": lambda blk: trace_bound_check([1.0, 2.0], blk),
    }
    for name, call in blocks.items():
        for label, blk, err in [("symmetric", np.array([[0.0, 1.0], [1.0, 0.0]]), PreconditionError),
                                ("diagonal", np.eye(2), PreconditionError),
                                ("3x3", np.zeros((3, 3)), PreconditionError),
                                ("2x3", np.zeros((2, 3)), ShapeError),
                                ("1-d", np.zeros(2), ShapeError)]:
            cases.append((f"{name}-{label}", lambda call=call, blk=blk: call(blk), err))
    pairs = {
        "selector_matrix": lambda pair: selector_matrix(2, [pair, (1, 1)]),
        "sparse_sign_matrix": lambda pair: SparseSignMatrix(2, 2, (pair, None)),
    }
    for name, call in pairs.items():
        for label, bad in [("int", 1), ("1-tuple", (0,)), ("3-tuple", (0, 1, 1))]:
            cases.append((f"{name}-pair-{label}", lambda call=call, bad=bad: call(bad), PreconditionError))
    cases += [
        ("selector_matrix-pair-none", lambda: selector_matrix(2, [None, (1, 1)]), PreconditionError),
        ("selector_matrix-bare-columns", lambda: selector_matrix(2, [0, 1]), PreconditionError),
        ("gap-lower-scalar", lambda: GapDescriptor(np.ones((1, 4)), -1, (1,)), PreconditionError),
        ("gap-generators-string", lambda: GapDescriptor("x", (0,), (1,)), PreconditionError),
        ("gap-generators-ragged", lambda: GapDescriptor([[1, 0], [1]], (0, 0), (1, 1)), PreconditionError),
        ("gap-symmetric-string", lambda: GapDescriptor(np.ones((1, 4)), (-1,), (1,), "no"), PreconditionError),
        ("exact_score-tol-string", lambda: exact_score(eye, "0.1"), PreconditionError),
        ("threshold_score-theta-string", lambda: threshold_score(eye, "0.5"), PreconditionError),
        ("threshold_score-theta-bool", lambda: threshold_score(eye, True), PreconditionError),
        ("dominance_analysis-epsilon-string", lambda: dominance_analysis(np.eye(3), "x"), PreconditionError),
        ("bins-stochastic_tol-string", lambda: balls_in_bins_estimate(eye, 10, 1, stochastic_tol="x"),
         PreconditionError),
        ("rank_one-t-bools", lambda: rank_one_orthogonal(2, [True, True]), PreconditionError),
        ("rank_one-t-strings", lambda: rank_one_orthogonal(2, ["1", "2"]), PreconditionError),
        ("concentration-vectors-strings", lambda: concentration_probability(["1", "2"]), PreconditionError),
        ("concentration-vectors-bools", lambda: concentration_probability(np.array([True, False])),
         PreconditionError),
        ("concentration-vector-list-bool", lambda: concentration_probability([[1, 2], [True, 1]]),
         PreconditionError),
    ]
    matrices = {
        "exact_score": exact_score,
        "ryser_value": ryser_value,
        "decompose": decompose,
        "rank_r_d": lambda m: rank_r_orthogonal(len(m) + 2, m),
    }
    for name, call in matrices.items():
        for label, bad in [("bools", [[True, False], [False, True]]), ("strings", [["1", "0"], ["0", "1"]]),
                           ("complex", [[1 + 1j, 0], [0, 1]]), ("ragged", [[1, 0], [0]]),
                           ("ragged-arrays", [np.zeros((2, 2)), np.zeros((2, 3))])]:
            cases.append((f"{name}-matrix-{label}", lambda call=call, bad=bad: call(bad), PreconditionError))
    vectors = {
        "classify_row": classify_row,
        "trace_bound_e_diag": trace_bound_check,
    }
    for name, call in vectors.items():
        for label, bad in [("bools", [True, True]), ("strings", ["0.5", "0.5"]), ("nan", [0.5, float("nan")])]:
            cases.append((f"{name}-vector-{label}", lambda call=call, bad=bad: call(bad), PreconditionError))
    for bad in ("0.1", float("nan"), 0.0):
        cases.append((f"hamming_check-tol={bad!r}", lambda bad=bad: hamming_check([1, 1], [1, 1], bad),
                      PreconditionError))
        cases.append((f"is_orthogonal-tol={bad!r}", lambda bad=bad: is_orthogonal(eye, bad), PreconditionError))
    for bad in (1.5, True, "1"):
        cases.append((f"collision_bounds-little={bad!r}", lambda bad=bad: collision_probability_bounds(bad, 0),
                      PreconditionError))
        cases.append((f"collision_bounds-splittable={bad!r}",
                      lambda bad=bad: collision_probability_bounds(0, bad), PreconditionError))
    return cases


def test_seeds_below_2_128_run():
    seed, gap = 2**128 - 1, GapDescriptor(np.ones((1, 4)), (-1,), (1,))
    assert mc_score(np.eye(2), 100, seed).hit_count == 100
    assert bernoulli_permanent(np.eye(2), "mc", 100, seed).samples == 100
    assert balls_in_bins_estimate(np.eye(2), 100, seed).value == 1.0
    assert threshold_score(np.eye(2), 0.5, "mc", 100, seed).hit_count == 100
    assert gap_perturbed_selector(np.eye(4), gap, seed).parameters["seed"] == seed


@pytest.mark.parametrize("call, error", [pytest.param(c, e, id=label) for label, c, e in _rejection_cases()])
def test_entry_points_reject_bad_inputs(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
