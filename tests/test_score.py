import math

import numpy as np
import pytest

from cubescore import _json, _kernel
from cubescore.constructors import perm_reflection, rank_one_orthogonal, selector_matrix
from cubescore.core import CapacityError, PreconditionError, SignVector
from cubescore.score import (
    exact_hit_indices,
    exact_score,
    mc_score,
    naive_exact_score,
    naive_hit_indices,
    product_statistic,
    threshold_score,
)


def reflected_ones(n):
    # I - (2/n) J maps the all-ones corner onto its own negation
    return np.eye(n) - 2.0 / n * np.ones((n, n))


def test_exact_score_reflection_n4_is_half():
    rep = exact_score(reflected_ones(4))
    assert rep.hit_count == 8
    assert rep.total == 16
    assert rep.score == 0.5
    assert rep.stderr == 0.0
    assert rep.method == "exact"


def test_exact_score_identity_and_scaled():
    assert exact_score(np.eye(9)).score == 1.0
    assert exact_score(0.5 * np.eye(6)).score == 0.0


def test_exact_score_counts_majority_orthant_for_rank_one():
    # hits of I - (2/n) J at even n are exactly the balanced vectors
    # plus the two all-equal corners
    import math

    for n in (4, 6, 8, 10):
        rep = exact_score(reflected_ones(n))
        assert rep.hit_count == math.comb(n, n // 2) + 2


def test_exact_matches_naive_hit_for_hit(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        kind = rng.integers(0, 3)
        if kind == 0:
            m = rng.normal(size=(n, n))
        elif kind == 1:
            m = np.diag(1.0 - 2.0 * rng.integers(0, 2, size=n).astype(float))
            m += 0.02 * rng.normal(size=(n, n))
        else:
            t = np.ones(n)
            t[1:] = rng.choice([0.5, 1.0], size=n - 1)
            m = rank_one_orthogonal(n, t).matrix
        fast = exact_hit_indices(m)
        slow = naive_hit_indices(m)
        assert fast.tolist() == slow.tolist()
        assert exact_score(m).hit_count == naive_exact_score(m).hit_count


def test_half_cube_walk_matches_naive_for_every_small_n(rng):
    # n = 1..14 covers a walk with no high coordinates, blocks narrower than
    # LOW_BITS, the first high bit, and odd n
    for n in range(1, 15):
        signs = rng.choice([-1.0, 1.0], size=n)
        t = np.ones(n)
        t[1:] = rng.choice([0.5, 1.0], size=n - 1)
        for m in (
            signs[:, None] * reflected_ones(n)[rng.permutation(n)],
            rank_one_orthogonal(n, t).matrix,
        ):
            fast = exact_hit_indices(m)
            assert fast.tolist() == naive_hit_indices(m).tolist()
            assert exact_score(m).hit_count == fast.size


def test_hits_near_the_tolerance_edge_survive_large_entries(rng):
    # I + 200 u 1^T (u random signs) with three entries nudged.  Only
    # balanced vectors can hit.  Row 1 moves every balanced vector's image
    # 0.5*tol off the unit sphere, inside the tolerance; row 0 moves it a
    # further 1.5*tol away, outside, unless x[n-1] != x[n-2].  So every
    # balanced vector sits 0.5*tol from the membership edge, and the hits
    # are the 2 * C(n-2, n/2-1) balanced vectors with x[n-1] != x[n-2].
    n, tol = 20, 1e-9
    m = np.eye(n) + 200.0 * np.outer(rng.choice([-1.0, 1.0], size=n), np.ones(n))
    m[0, n - 1] += 0.75 * tol
    m[0, n - 2] += 0.75 * tol
    m[1, n - 3] += 0.5 * tol
    fast = exact_hit_indices(m, tol)
    assert fast.size == 2 * math.comb(n - 2, n // 2 - 1)
    assert fast.tolist() == naive_hit_indices(m, tol).tolist()
    assert exact_score(m, tol).hit_count == fast.size


@pytest.mark.parametrize("walk", [{}, {"half": True}], ids=["full", "half"])
def test_walk_does_not_drift(rng, walk):
    # the last block of the n=24 walk must be as accurate as one direct
    # product: within n * eps * max row l1-norm of M @ x (1.5e-11 here); a
    # walk that updates its block in place by rank-one steps drifts to 9e-11
    n = 24
    m = rng.uniform(-200.0, 200.0, size=(n, n))
    for y, gray, _ in _kernel.iter_sign_blocks(m, **walk):
        pass
    b = y.shape[1].bit_length() - 1
    idx = (gray << b) | np.arange(y.shape[1])
    x = 1.0 - 2.0 * ((idx[None, :] >> np.arange(n)[:, None]) & 1)
    bound = n * np.finfo(float).eps * np.abs(m).sum(axis=1).max()
    assert np.abs(y - m @ x).max() <= bound


def test_exact_score_invariant_under_row_permutation_and_column_signs(rng):
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = rank_one_orthogonal(n, np.ones(n)).matrix
        p = rng.permutation(n)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        assert exact_score(m[p] * signs).hit_count == exact_score(m).hit_count


def test_exact_score_of_transpose_matches_for_orthogonal(rng):
    # for orthogonal M the map x -> Mx is a bijection of hit vectors with
    # the hit vectors of M.T, so the counts agree
    for _ in range(10):
        n = int(rng.integers(3, 10))
        t = np.ones(n)
        t[1:] = rng.choice([0.5, 1.0, 2.0], size=n - 1)
        m = rank_one_orthogonal(n, t).matrix
        assert exact_score(m, 1e-8).hit_count == exact_score(m.T, 1e-8).hit_count


def test_exact_hit_indices_selector():
    cert = selector_matrix(3, [(0, 1), (0, 1), (0, 1)])
    idx = exact_hit_indices(cert.matrix)
    assert idx.tolist() == list(range(8))


def test_exact_score_validation():
    with pytest.raises(PreconditionError):
        exact_score(np.eye(3), tol=0.0)
    with pytest.raises(CapacityError):
        exact_score(np.eye(31))
    with pytest.raises(CapacityError):
        naive_exact_score(np.eye(21))


def test_tiny_matrix_scores_zero(rng):
    m = rng.uniform(-0.01, 0.01, size=(8, 8))
    assert exact_score(m).hit_count == 0
    assert exact_hit_indices(m).size == 0


def test_mc_score_identity_hits_everything():
    rep = mc_score(np.eye(12), samples=5000, seed=7)
    assert rep.hit_count == 5000
    assert rep.score == 1.0
    assert rep.stderr == 0.0
    assert rep.method == "monte_carlo"


def test_mc_score_is_deterministic_and_thread_invariant():
    m = reflected_ones(6)
    a = mc_score(m, samples=200000, seed=123)
    b = mc_score(m, samples=200000, seed=123)
    c = mc_score(m, samples=200000, seed=123, threads=4)
    assert a.hit_count == b.hit_count == c.hit_count
    assert a.score == b.score == c.score
    d = mc_score(m, samples=200000, seed=124)
    assert d.hit_count != a.hit_count


def test_mc_score_tracks_exact(rng):
    m = reflected_ones(8)
    truth = exact_score(m).score
    rep = mc_score(m, samples=400000, seed=42)
    assert abs(rep.score - truth) <= 5.0 * rep.stderr + 1e-12


def test_mc_score_validation():
    with pytest.raises(PreconditionError):
        mc_score(np.eye(3), samples=0, seed=1)
    with pytest.raises(PreconditionError):
        mc_score(np.eye(3), samples=10, seed=-1)


def test_threshold_score_reflection():
    rep = threshold_score(reflected_ones(4), 0.9)
    assert rep.score == 0.5
    assert rep.threshold == 0.9
    assert rep.tolerance == 0.0
    assert rep.method == "exact"


def test_threshold_score_identity_always_hits():
    rep = threshold_score(np.eye(5), 1.0)
    assert rep.score == 1.0


def test_threshold_weakens_monotonically(rng):
    m = rng.normal(size=(7, 7)) / np.sqrt(7)
    lo = threshold_score(m, 0.01).score
    hi = threshold_score(m, 0.8).score
    assert lo >= hi


def test_threshold_score_mc_matches_exact(rng):
    m = reflected_ones(6)
    truth = threshold_score(m, 0.5).score
    rep = threshold_score(m, 0.5, mode="mc", samples=300000, seed=9)
    assert rep.method == "monte_carlo"
    assert abs(rep.score - truth) <= 5.0 * rep.stderr + 1e-12
    again = threshold_score(m, 0.5, mode="mc", samples=300000, seed=9, threads=3)
    assert again.hit_count == rep.hit_count


def test_threshold_score_validation():
    with pytest.raises(PreconditionError):
        threshold_score(np.eye(3), 0.0)
    with pytest.raises(PreconditionError):
        threshold_score(np.eye(3), 1.5)
    with pytest.raises(PreconditionError):
        threshold_score(np.eye(3), 0.5, mode="bogus")
    with pytest.raises(PreconditionError):
        threshold_score(np.eye(3), 0.5, mode="mc", samples=100)
    with pytest.raises(PreconditionError):
        threshold_score(np.eye(3), 0.5, mode="mc", seed=3)


def test_product_statistic_matches_manual(rng):
    m = rng.normal(size=(5, 5))
    x = SignVector.from_components([1, -1, 1, 1, -1])
    manual = float(np.prod(np.abs(m @ x.components())))
    assert product_statistic(m, x) == manual
    assert product_statistic(m, [1, -1, 1, 1, -1]) == manual
    with pytest.raises(PreconditionError):
        product_statistic(m, [1, 0, 1, 1, -1])
    with pytest.raises(PreconditionError):
        product_statistic(m, [1, -1])


def test_report_dict_key_order():
    rep = exact_score(np.eye(2))
    assert list(_json.to_jsonable(rep)) == ["hit_count", "total", "score", "stderr", "method", "tolerance"]
    trep = threshold_score(np.eye(2), 0.5)
    assert list(_json.to_jsonable(trep)) == [
        "hit_count",
        "total",
        "score",
        "stderr",
        "method",
        "tolerance",
        "threshold",
    ]


def test_perm_reflection_scores_one(rng):
    pi = rng.permutation(6)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=6)
    cert = perm_reflection(6, pi, signs)
    assert exact_score(cert.matrix).score == 1.0


#: Three full Monte Carlo blocks and a last one of 37 rows, which is
#: neither full nor a multiple of the 64 samples in one word of sign bits.
PARTIAL_SAMPLES = 3 * _kernel.MC_BLOCK + 37


def test_mc_samplers_with_a_partial_last_block_are_thread_invariant(rng):
    m = rng.normal(size=(7, 7)) / np.sqrt(7)
    for run in (
        lambda t: mc_score(m, PARTIAL_SAMPLES, 5, tol=0.5, threads=t),
        lambda t: threshold_score(m, 0.05, mode="mc", samples=PARTIAL_SAMPLES, seed=5, threads=t),
    ):
        reports = [run(t) for t in (1, 2, 3)]
        assert reports[0].total == PARTIAL_SAMPLES
        assert 0 < reports[0].hit_count < PARTIAL_SAMPLES
        assert reports[1] == reports[0] and reports[2] == reports[0]


def test_sample_signs_layout_balance_and_reproducibility():
    n, rows = 5, 1000
    bits = _kernel.sample_signs(_kernel.block_rng(9, 3), rows, n)
    assert bits.shape == (n, rows) and bits.dtype == np.uint8
    assert set(np.unique(bits).tolist()) <= {0, 1}
    # sample r of coordinate i is bit r % 64, low bit first, of word r // 64
    words = _kernel.block_rng(9, 3).integers(
        0, 2**64 - 1, size=(n, -(-rows // 64)), endpoint=True, dtype=np.uint64
    )
    for i in range(n):
        expect = [(int(words[i, k // 64]) >> (k % 64)) & 1 for k in range(rows)]
        assert bits[i].tolist() == expect
    big = _kernel.sample_signs(_kernel.block_rng(9, 0), _kernel.MC_BLOCK, 20)
    se = 0.5 / np.sqrt(_kernel.MC_BLOCK)
    assert np.all(np.abs(big.mean(axis=1) - 0.5) <= 5.0 * se)
    again = _kernel.sample_signs(_kernel.block_rng(9, 0), _kernel.MC_BLOCK, 20)
    assert np.array_equal(big, again)
    other = _kernel.sample_signs(_kernel.block_rng(9, 1), _kernel.MC_BLOCK, 20)
    assert not np.array_equal(big, other)


def test_mc_block_image_matches_direct_product(rng):
    # y comes from one product [-2M | M 1] @ [bits; 1]; it must match
    # M @ (1 - 2 bits) to (n + 1) * eps * max row l1-norm of M
    n = 20
    m = rng.normal(size=(n, n))
    blocks = _kernel.mc_sign_blocks(m, 3000, 4, lambda y, bits: (y.copy(), bits.copy()))
    bound = (n + 1) * np.finfo(float).eps * np.abs(m).sum(axis=1).max()
    for y, bits in blocks:
        assert y.shape == (n, 3000)
        assert np.abs(y - m @ (1.0 - 2.0 * bits)).max() <= bound
