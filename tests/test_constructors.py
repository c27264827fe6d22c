import json

import numpy as np
import pytest

from cubescore import _json
from cubescore.cli import main
from cubescore.constructors import (
    ConstructionCertificate,
    GapDescriptor,
    gap_membership,
    gap_perturbed_selector,
    perm_reflection,
    rank_one_orthogonal,
    rank_r_orthogonal,
    selector_matrix,
)
from cubescore.core import (
    CapacityError,
    DegenerateGeneratorsError,
    InternalCheckError,
    PreconditionError,
    is_orthogonal,
    numeric_rank,
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
    elements = list(gap.enumerate_elements())
    assert len(elements) == 15
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


def test_gap_membership_round_trip():
    gap = GapDescriptor(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), (-2, -1), (2, 1))
    assert gap_membership(np.array([1.0, 0.0, 0.0]), gap) == (1, 0)
    assert gap_membership(np.array([-2.0, 2.0, 0.0]), gap) == (-2, 1)
    assert gap_membership(np.array([0.5, 0.0, 0.0]), gap) is None
    assert gap_membership(np.array([3.0, 0.0, 0.0]), gap) is None  # out of bounds
    assert gap_membership(np.array([0.0, 0.0, 1.0]), gap) is None  # off the span
    with pytest.raises(PreconditionError):
        gap_membership(np.array([1.0, 0.0]), gap)


def test_gap_membership_every_element(rng):
    gens = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 3.0, -1.0, 2.0]])
    gap = GapDescriptor(gens, (-3, -2), (3, 2))
    assert gap.is_proper()
    for coeffs, vec in gap.enumerate_elements():
        assert gap_membership(vec, gap) == coeffs


def test_gap_membership_degenerate_generators():
    gap = GapDescriptor(np.array([[1.0, 0.0], [2.0, 0.0]]), (0, 0), (1, 1))
    with pytest.raises(DegenerateGeneratorsError):
        gap_membership(np.array([1.0, 0.0]), gap)


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
