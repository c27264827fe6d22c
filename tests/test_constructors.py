import itertools
import json
import math

import numpy as np
import pytest

from cubescore import _json
from cubescore.cli import main
from cubescore.constructors import (
    ConstructionCertificate,
    GapDescriptor,
    gap_perturbed_selector,
    perm_reflection,
    rank_one_orthogonal,
    rank_r_orthogonal,
    selector_matrix,
)
from cubescore.core import (
    CapacityError,
    InternalCheckError,
    PreconditionError,
    is_orthogonal,
    numeric_rank,
    save_matrix,
)
from cubescore.score import exact_score

from .conftest import rand_antisymmetric


def test_perm_reflection_two_by_two():
    cert = perm_reflection(2, [1, 0], [1, -1])
    assert cert.matrix.tolist() == [[0.0, -1.0], [1.0, 0.0]]
    assert cert.family == "perm_reflection"
    assert cert.claimed_score_lower_bound == 1.0
    assert cert.orthogonal


def test_perm_reflection_achieves_its_claim(rng):
    for _ in range(10):
        n = int(rng.integers(1, 10))
        pi = rng.permutation(n)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        cert = perm_reflection(n, pi, signs)
        assert is_orthogonal(cert.matrix)
        assert exact_score(cert.matrix).score >= cert.claimed_score_lower_bound


def test_perm_reflection_validation():
    with pytest.raises(PreconditionError):
        perm_reflection(3, [0, 0, 1], [1, 1, 1])
    with pytest.raises(PreconditionError):
        perm_reflection(3, [0, 1, 2], [1, 2, 1])
    with pytest.raises(PreconditionError):
        perm_reflection(0, [], [])


def test_selector_repeated_column():
    cert = selector_matrix(2, [(0, 1), (0, 1)])
    assert cert.matrix.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert cert.claimed_score_lower_bound == 1.0
    assert not cert.orthogonal
    assert cert.parameters["columns"] == [0, 0]


def test_selector_permutation_is_orthogonal():
    cert = selector_matrix(3, [(2, -1), (0, 1), (1, 1)])
    assert cert.orthogonal
    assert exact_score(cert.matrix).score == 1.0


def test_selector_always_scores_one(rng):
    for _ in range(10):
        n = int(rng.integers(1, 11))
        targets = [(int(rng.integers(0, n)), int(1 - 2 * rng.integers(0, 2))) for _ in range(n)]
        cert = selector_matrix(n, targets)
        assert exact_score(cert.matrix).score == 1.0


def test_selector_validation():
    with pytest.raises(PreconditionError):
        selector_matrix(2, [(0, 1)])
    with pytest.raises(PreconditionError):
        selector_matrix(2, [(2, 1), (0, 1)])
    with pytest.raises(PreconditionError):
        selector_matrix(2, [(0, 2), (0, 1)])


def test_rank_one_all_ones_gives_reflection():
    cert = rank_one_orthogonal(4, np.ones(4))
    expected = np.eye(4) - 0.5 * np.ones((4, 4))
    assert np.max(np.abs(cert.matrix - expected)) == 0.0
    assert cert.claimed_score_lower_bound == 0.375
    assert exact_score(cert.matrix).score == 0.5


def test_rank_one_halves_example():
    t = np.array([1.0, 0.5, 0.5, 0.5, 0.5])
    cert = rank_one_orthogonal(5, t)
    assert cert.parameters["x"] == pytest.approx(-1.0)
    # column 0 of M is e_0 + x t; unit length by construction
    col = cert.matrix[:, 0]
    assert float(col @ col) == pytest.approx(1.0)
    # t.x = 0 forces x_0 = -(x_1+..+x_4)/2, so the tail must sum to +-2
    # (4 arrangements each) with x_0 pinned: 8 of the 32 vectors
    assert cert.claimed_score_lower_bound == pytest.approx(8.0 / 32.0)
    measured = exact_score(cert.matrix, 1e-8).score
    assert measured >= cert.claimed_score_lower_bound


def test_rank_one_bound_is_achieved(rng):
    for _ in range(10):
        n = int(rng.integers(2, 11))
        t = np.ones(n)
        t[1:] = rng.choice([0.5, 1.0, 2.0], size=n - 1)
        cert = rank_one_orthogonal(n, t)
        assert is_orthogonal(cert.matrix, 1e-9)
        assert exact_score(cert.matrix, 1e-8).score >= cert.claimed_score_lower_bound


def test_rank_one_irrational_direction_claims_zero_sum_fraction(rng):
    # a generic t has no orthogonal sign vectors at all
    t = np.ones(6)
    t[1:] = rng.uniform(0.3, 0.7, size=5)
    cert = rank_one_orthogonal(6, t)
    assert cert.claimed_score_lower_bound == 0.0


def test_rank_one_validation():
    with pytest.raises(PreconditionError):
        rank_one_orthogonal(3, [2.0, 1.0, 1.0])
    with pytest.raises(PreconditionError):
        rank_one_orthogonal(3, [1.0, np.inf, 0.0])
    with pytest.raises(PreconditionError):
        rank_one_orthogonal(4, [1.0, 1.0])


def test_rank_r_block_structure(rng):
    n, r = 9, 3
    d = rng.normal(size=(n - r, r))
    a = rand_antisymmetric(rng, r, 0.5)
    cert = rank_r_orthogonal(n, d, a)
    m = cert.matrix
    assert cert.family == "rank_r"
    assert cert.orthogonal
    assert is_orthogonal(m, 1e-9)
    u = np.asarray(cert.parameters["u"])
    # the identity-plus-correction layout is recoverable from the blocks
    core = m - np.eye(n)
    assert np.max(np.abs(core[:r, :r] - u)) < 1e-9
    assert np.max(np.abs(core[:r, r:] - u @ d.T)) < 1e-9
    assert np.max(np.abs(core[r:, :r] - d @ u)) < 1e-9
    assert np.max(np.abs(core[r:, r:] - d @ u @ d.T)) < 1e-9
    assert numeric_rank(core) == r


def test_rank_r_diag_signs_flip_rows(rng):
    n, r = 6, 2
    d = rng.normal(size=(n - r, r))
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    plain = rank_r_orthogonal(n, d)
    flipped = rank_r_orthogonal(n, d, diag_signs=signs)
    assert np.max(np.abs(flipped.matrix - signs[:, None] * plain.matrix)) == 0.0


def test_rank_r_reduces_to_rank_one(rng):
    # with r=1, D = t[1:] as a column and A = 0, the construction matches
    # the rank-one family up to the shared normalization t[0] = 1
    n = 7
    t = np.ones(n)
    t[1:] = rng.uniform(0.5, 1.5, size=n - 1)
    one = rank_one_orthogonal(n, t)
    r1 = rank_r_orthogonal(n, t[1:][:, None])
    assert np.max(np.abs(one.matrix - r1.matrix)) < 1e-12


def test_rank_r_validation(rng):
    with pytest.raises(PreconditionError):
        rank_r_orthogonal(5, np.zeros((3, 2)))  # rank-deficient d
    with pytest.raises(PreconditionError):
        rank_r_orthogonal(5, rng.normal(size=(2, 2)))  # wrong shape for n
    with pytest.raises(PreconditionError):
        rank_r_orthogonal(5, rng.normal(size=(3, 2)), a=np.eye(2))  # not antisymmetric
    with pytest.raises(PreconditionError):
        rank_r_orthogonal(5, rng.normal(size=(3, 2)), diag_signs=[1, 1, 1, 1, 2])


def test_gap_descriptor_basics():
    gap = GapDescriptor(np.array([[1.0, 0.0], [0.0, 1.0]]), (-1, -2), (1, 2), symmetric=True)
    assert gap.rank == 2
    assert gap.ambient_dim == 2
    assert gap.size() == 15
    assert gap.is_proper()
    rebuilt = GapDescriptor.from_dict(_json.to_jsonable(gap))
    assert rebuilt.size() == 15
    assert rebuilt.symmetric


def test_gap_descriptor_validation():
    with pytest.raises(PreconditionError):
        GapDescriptor(np.eye(2), (0,), (1, 1))
    with pytest.raises(PreconditionError):
        GapDescriptor(np.eye(2), (1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        GapDescriptor(np.eye(2), (-1, 0), (1, 1), symmetric=True)
    with pytest.raises(CapacityError):
        GapDescriptor(np.ones((11, 3)), (0,) * 11, (1,) * 11)
    with pytest.raises(PreconditionError):
        GapDescriptor.from_dict({"generators": [[1.0]]})


def test_gap_properness_detects_collisions():
    # 1 and 2 generate overlapping sums: 2*1 = 1*2
    gap = GapDescriptor(np.array([[1.0], [2.0]]).reshape(2, 1), (0, 0), (2, 1))
    assert not gap.is_proper()
    singleton = GapDescriptor(np.array([[3.0]]), (0,), (5,))
    assert singleton.is_proper()


def test_gap_perturbed_cap(capsys, tmp_path):
    # 26 equal rows of sums in [-25, 25] pass int64 as one key, so the modal
    # sum walks the 25 drawn columns, past its cap, and the CLI exits 2
    gap = GapDescriptor(np.ones((1, 26)), (-1,), (1,))
    with pytest.raises(CapacityError, match="capped at n=24, got 25"):
        gap_perturbed_selector(np.eye(26), gap, 11)
    f0, gap_file = tmp_path / "f0.txt", tmp_path / "gap.json"
    save_matrix(f0, np.eye(26))
    gap_file.write_text(json.dumps(_json.to_jsonable(gap)))
    code = main(["construct", "--family", "gap-perturbed", "--f0-file", str(f0), "--gap-file", str(gap_file),
                 "--seed", "11", "--out", str(tmp_path / "m.txt")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err)["error"]["type"] == "CapacityError"


def test_gap_perturbed_past_the_walk_on_one_coordinate():
    # a GAP on e_0 makes every sum integer and nonzero in row 0 alone, so the
    # integer histogram takes n=30: the mode is 0 over the k nonzero draws
    n = 30
    gap = GapDescriptor(np.eye(n)[:1], (-1,), (1,))
    cert = gap_perturbed_selector(np.eye(n), gap, 11)
    k = int(np.count_nonzero(cert.parameters["coefficients"]))
    assert k == 17
    assert cert.parameters["mode_count"] == 2 ** (n - 1 - k) * math.comb(k, k // 2) == 99_573_760
    assert cert.claimed_score_lower_bound == 99_573_760 / 2 ** (n - 1)


def test_too_fine_group_tol_is_not_an_improper_gap():
    # keys of 1/1e-300 would overflow int64; that is a too-fine grid, not a
    # collision of distinct coefficients
    gap = GapDescriptor(np.ones((1, 4)), (-1,), (1,))
    assert gap_perturbed_selector(np.eye(4), gap, 11, group_tol=1e-12).n == 4
    with pytest.raises(PreconditionError, match="too fine"):
        gap_perturbed_selector(np.eye(4), gap, 11, group_tol=1e-300)
    with pytest.raises(PreconditionError, match="too fine"):
        gap.is_proper(1e-300)


def test_gap_properness_matches_a_recount(rng):
    # proper and improper GAPs, against a per-element recount over itertools
    gaps = [
        (GapDescriptor(np.eye(2), (-1, -2), (1, 2), symmetric=True), True),
        (GapDescriptor(np.array([[1.0], [2.0]]), (0, 0), (2, 1)), False),
        (GapDescriptor(np.array([[3.0]]), (0,), (5,)), True),
        (GapDescriptor(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), (-2, -1), (2, 1)), True),
        (GapDescriptor(np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 3.0, -1.0, 2.0]]), (-3, -2), (3, 2)), True),
        (GapDescriptor(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), (0, 0), (2, 1)), False),
        (GapDescriptor(np.zeros((1, 4)), (0,), (0,)), True),
        (GapDescriptor(rng.normal(size=(3, 5)), (-2, 0, -1), (2, 3, 1)), True),
    ]
    for gap, proper in gaps:
        ranges = [range(l, u + 1) for l, u in zip(gap.lower, gap.upper)]
        elements = [np.asarray(c, dtype=float) @ gap.generators for c in itertools.product(*ranges)]
        distinct = all(np.abs(u - v).max() > 1e-9 for u, v in itertools.combinations(elements, 2))
        assert gap.is_proper() == distinct == proper


def test_gap_perturbed_selector_axis_gap():
    # GAP {k e_1 : -1 <= k <= 1} in ambient dimension 4
    n = 4
    gens = np.zeros((1, n))
    gens[0, 0] = 1.0
    gap = GapDescriptor(gens, (-1,), (1,), symmetric=True)
    f0 = selector_matrix(n, [(i, 1) for i in range(n)]).matrix
    cert = gap_perturbed_selector(f0, gap, seed=5)
    assert cert.family == "gap_perturbed"
    assert 0.0 < cert.claimed_score_lower_bound <= 1.0
    assert cert.parameters["seed"] == 5
    measured = exact_score(cert.matrix).score
    assert measured >= cert.claimed_score_lower_bound - 1e-12


def test_gap_perturbed_selector_zero_gap_keeps_score_one():
    # the only GAP element is 0, so every partial sum is modal
    n = 3
    gap = GapDescriptor(np.zeros((1, n)), (0,), (0,))
    f0 = np.eye(n)
    cert = gap_perturbed_selector(f0, gap, seed=1)
    assert cert.claimed_score_lower_bound == 1.0
    assert np.max(np.abs(cert.matrix - np.eye(n))) == 0.0


def test_gap_perturbed_selector_claim_holds_over_seeds(rng):
    n = 6
    gens = np.zeros((2, n))
    gens[0, 0] = 1.0
    gens[1, 3] = 2.0
    gap = GapDescriptor(gens, (-1, -1), (1, 1), symmetric=True)
    f0 = selector_matrix(n, [(i, -1) for i in range(n)]).matrix
    for _ in range(8):
        seed = int(rng.integers(0, 1 << 30))
        cert = gap_perturbed_selector(f0, gap, seed=seed)
        measured = exact_score(cert.matrix).score
        assert measured >= cert.claimed_score_lower_bound - 1e-12


def test_gap_perturbed_selector_reproducible():
    n = 5
    gens = np.zeros((1, n))
    gens[0, 2] = 1.0
    gap = GapDescriptor(gens, (-2,), (2,), symmetric=True)
    f0 = np.eye(n)
    a = gap_perturbed_selector(f0, gap, seed=77)
    b = gap_perturbed_selector(f0, gap, seed=77)
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.claimed_score_lower_bound == b.claimed_score_lower_bound


def test_gap_perturbed_selector_validation():
    n = 3
    gap = GapDescriptor(np.zeros((1, n)), (0,), (0,))
    with pytest.raises(PreconditionError):
        gap_perturbed_selector(np.ones((n, n)), gap, seed=1)  # not selector style
    wide = GapDescriptor(np.zeros((1, 4)), (0,), (0,))
    with pytest.raises(PreconditionError):
        gap_perturbed_selector(np.eye(n), wide, seed=1)  # ambient mismatch
    improper = GapDescriptor(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), (0, 0), (2, 1))
    with pytest.raises(PreconditionError):
        gap_perturbed_selector(np.eye(n), improper, seed=1)
    with pytest.raises(PreconditionError):
        gap_perturbed_selector(np.eye(1), GapDescriptor(np.zeros((1, 1)), (0,), (0,)), seed=1)


def test_certificate_dict_key_order(tmp_path, capsys):
    # the library renders every field in declaration order, matrix first;
    # the CLI writes the matrix to --out and reports its path last
    cert = perm_reflection(2, [0, 1], [1, 1])
    assert isinstance(cert, ConstructionCertificate)
    assert list(_json.to_jsonable(cert)) == [
        "matrix",
        "family",
        "n",
        "claimed_score_lower_bound",
        "orthogonal",
        "parameters",
    ]
    out = tmp_path / "m.txt"
    assert main(["construct", "--family", "perm", "--n", "2", "--pi", "0,1", "--signs", "1,1",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert list(report) == [
        "family",
        "n",
        "claimed_score_lower_bound",
        "orthogonal",
        "parameters",
        "matrix_path",
    ]


def test_selector_rejects_a_fractional_column():
    # int(0.7) is 0: a truncated column would certify a matrix nobody asked for
    with pytest.raises(PreconditionError, match="column of row 0 must be a nonnegative integer"):
        selector_matrix(3, [(0.7, 1), (1, -1), (2, 1)])


def test_perm_reflection_rejects_a_fractional_index():
    with pytest.raises(PreconditionError, match="every entry of pi must be a nonnegative integer"):
        perm_reflection(3, [0.9, 1, 2], [1, 1, 1])


def test_a_bool_is_not_a_sign():
    with pytest.raises(PreconditionError, match="exactly \\+1 or -1, got True"):
        selector_matrix(2, [(0, True), (1, 1)])
    with pytest.raises(PreconditionError, match="exactly \\+1 or -1, got True"):
        perm_reflection(2, [1, 0], [True, 1])


@pytest.mark.parametrize("n", [2.0, True])
def test_perm_reflection_rejects_a_non_integer_n(n):
    with pytest.raises(PreconditionError, match="n must be a positive integer"):
        perm_reflection(n, [1, 0], [1, 1])


def test_integer_arrays_are_exact_indices(rng):
    pi = rng.permutation(5)
    cert = perm_reflection(np.int64(5), pi, np.array([1, -1, 1, 1, -1]))
    assert cert.parameters["pi"] == pi.tolist()
    assert all(type(v) is int for v in cert.parameters["pi"])
    cols = np.array([2, 0, 2], dtype=np.int32)
    cert = selector_matrix(3, list(zip(cols, np.array([1.0, -1.0, 1.0]))))
    assert cert.parameters == {"columns": [2, 0, 2], "signs": [1, -1, 1]}
    assert cert.matrix.tolist() == [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


def test_gap_bounds_must_be_integers():
    with pytest.raises(PreconditionError, match="every entry of lower must be an integer"):
        GapDescriptor(np.eye(1), (0.5,), (1,))
