import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cubescore import _json, _kernel, score
from cubescore.constructors import perm_reflection, rank_one_orthogonal, selector_matrix
from cubescore.core import CapacityError, PreconditionError
from cubescore.score import (
    exact_hit_indices,
    exact_score,
    mc_score,
    naive_exact_score,
    naive_hit_indices,
    threshold_score,
)
from cubescore.structure import perm_plus_rank_one

from .conftest import rand_orthogonal, run_python


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


def _no_dense_walk(*args, **kwargs):
    raise AssertionError("the window filter fell back to the dense walk")


def each_walk_path(monkeypatch):
    """Yield twice: with every windowed walk forced through the sorted-window
    filter, and with every one forced past it."""
    for share in (1.0, -1.0):
        monkeypatch.setattr(_kernel, "_FILTER_SHARE", share)
        if share > 0:
            monkeypatch.setattr(_kernel, "iter_sign_blocks", _no_dense_walk)
        yield
        monkeypatch.undo()


def test_half_cube_walk_matches_naive_for_every_small_n(rng, monkeypatch):
    # n = 1..14 covers a walk with no high coordinates, blocks narrower than
    # LOW_BITS, the first high bit, and odd n; the random orthogonal matrices
    # have next to no hits, the others many
    cases = []
    for n in range(1, 15):
        signs = rng.choice([-1.0, 1.0], size=n)
        t = np.ones(n)
        t[1:] = rng.choice([0.5, 1.0], size=n - 1)
        for m in (
            signs[:, None] * reflected_ones(n)[rng.permutation(n)],
            rank_one_orthogonal(n, t).matrix,
            rand_orthogonal(rng, n),
            np.eye(n)[rng.permutation(n)] * signs,
        ):
            cases += [(m, tol, naive_hit_indices(m, tol).tolist()) for tol in (1e-9, 0.3)]
    for _ in each_walk_path(monkeypatch):
        for m, tol, naive in cases:
            fast = exact_hit_indices(m, tol)
            assert fast.tolist() == naive
            assert exact_score(m, tol).hit_count == fast.size


def test_hits_near_the_tolerance_edge_survive_large_entries(rng, monkeypatch):
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
    naive = naive_hit_indices(m, tol).tolist()
    assert len(naive) == 2 * math.comb(n - 2, n // 2 - 1)
    for _ in each_walk_path(monkeypatch):
        fast = exact_hit_indices(m, tol)
        assert fast.tolist() == naive
        assert exact_score(m, tol).hit_count == fast.size


@pytest.mark.parametrize("walk", [{}, {"half": True}], ids=["full", "half"])
def test_walk_does_not_drift(rng, walk):
    # the last block of the n=24 walk must be as accurate as one direct
    # product: within n * eps * max row l1-norm of M @ x (1.5e-11 here); a
    # walk that updates its block in place by rank-one steps drifts to 9e-11
    n = 24
    m = rng.uniform(-200.0, 200.0, size=(n, n))
    for y, k, _ in _kernel.iter_sign_blocks(*_kernel.sign_walk(m, **walk)):
        pass
    b = y.shape[1].bit_length() - 1
    idx = (k << b) | np.arange(y.shape[1])
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
        exact_score(0.5 * np.eye(31))  # no signed permutation plus rank one: the walk runs
    with pytest.raises(CapacityError):
        exact_score(np.eye(63))  # the histogram's counts stop at n=62
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


def walk_hits(m, tol=1e-9):
    return _kernel.count_signs(m, _kernel.Window(1.0, tol))[0]


def signed_rows(rng, m):
    # S P M for a random signed permutation S P
    n = m.shape[0]
    return rng.choice([-1.0, 1.0], size=n)[:, None] * m[rng.permutation(n)]


def results_of(monkeypatch, name):
    """The result of every call of ``_kernel.<name>`` from here on."""
    seen = []
    call = getattr(_kernel, name)

    def spy(*args):
        seen.append(call(*args))
        return seen[-1]

    monkeypatch.setattr(_kernel, name, spy)
    return seen


@pytest.fixture
def structured(monkeypatch):
    """The counts of the structured path that ran, ``None`` for a decline."""
    return results_of(monkeypatch, "rank_one_window_hits")


def structured_hits(m, tol):
    """The structured count of ``m``'s hits, ``None`` for a decline,
    whatever the size (``exact_score`` walks up to n = 13)."""
    split = score._rank_one_split(m)
    return None if split is None else _kernel.rank_one_window_hits(*split, _kernel.Window(1.0, tol))


def test_structured_path_matches_the_walk_for_every_small_n(rng, structured):
    # signed permutations, and signed-permuted rank-one reflections: the
    # all-ones t, integer t in [-3, 3] (most do not snap to a signed
    # permutation and walk), and t of +-1 and 0 entries with one 3 or 2
    # (these snap from n=8 or so on)
    # (up to n = 13 the half walk is one block and exact_score walks, so
    # the count is checked on the kernel directly)
    taken = set()
    for n in range(1, 21):
        cases = [("perm", np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n))]
        for t in (np.ones(n), rng.integers(-3, 4, size=n), rng.integers(-3, 4, size=n),
                  rng.choice([-1, 0, 1, 1], size=n), np.r_[rng.choice([-1, 1], size=n - 1), 3][:n],
                  np.r_[rng.choice([-1, 1], size=n - 1), 2][:n]):
            t = t.astype(float)
            t[0] = 1.0
            cases.append(("rank one", signed_rows(rng, rank_one_orthogonal(n, t).matrix)))
        for kind, m in cases:
            split = score._rank_one_split(m)
            for tol in (1e-9, 0.3):
                structured.clear()
                assert exact_score(m, tol).hit_count == walk_hits(m, tol)
                assert len(structured) == (n > _kernel.LOW_BITS + 1 and split is not None)
                hits = structured_hits(m, tol)
                if hits is not None:
                    assert hits == walk_hits(m, tol)
                    taken.add((kind, n))
    assert {n for kind, n in taken if kind == "perm"} == set(range(1, 21))
    assert {n for kind, n in taken if kind == "rank one"} >= set(range(8, 21))


def _no_walk(*args, **kwargs):
    raise AssertionError("the structured count walked")


@pytest.mark.parametrize("n", [20, 32, 40, 62])
def test_reflection_closed_form_without_the_walk(rng, monkeypatch, n):
    # n=20 is the benchmark's input; the others lie past the walk's cap
    monkeypatch.setattr(_kernel, "sign_walk", _no_walk)
    rep = exact_score(signed_rows(rng, reflected_ones(n)))
    assert rep.hit_count == math.comb(n, n // 2) + 2
    assert rep.total == 1 << n
    assert rep.score == rep.hit_count / 2**n


def test_signed_permutation_scores_one_without_the_walk(rng, monkeypatch):
    # a residual of rank 0: u = 0 and v = 0, so every x is a hit (exact_score
    # walks up to n = 13, so n = 1 and 5 are counted on the kernel directly)
    monkeypatch.setattr(_kernel, "sign_walk", _no_walk)
    for n in (1, 5, 14, 40, 62):
        m = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
        assert _kernel.rank_one_window_hits(*score._rank_one_split(m), _kernel.Window(1.0, 1e-9)) == 1 << n
        if n > _kernel.LOW_BITS + 1:
            rep = exact_score(m)
            assert rep.hit_count == rep.total == 1 << n
            assert rep.score == 1.0


def test_a_tol_on_an_attainable_distance_falls_back_to_the_walk():
    # I - J/5 at n=10: u = -0.2 per row and z = sum(x), so z = +-2 puts
    # every row 0.4 from +-1, up to rounding; tol = 0.4 sits on that edge
    m = reflected_ones(10)
    for tol, fell_back in ((0.4, True), (0.4 + 1e-6, False), (0.4 - 1e-6, False)):
        walked = naive_exact_score(m, tol).hit_count
        assert exact_score(m, tol).hit_count == walked
        assert structured_hits(m, tol) == (None if fell_back else walked)
    # an exact split, as 1 + c is a float: only rounding, in the walk and
    # here, separates the distance at z = 2 from a tol one ulp off it
    c = round(-0.2 * 2**53) / 2**53
    m = np.eye(10) + c
    d = abs(abs(1.0 + 2.0 * c) - 1.0)
    assert perm_plus_rank_one(m)[4].max() == 0.0
    for tol in (np.nextafter(d, 1.0), np.nextafter(d, 0.0)):
        assert exact_score(m, tol).hit_count == walk_hits(m, tol)
        assert structured_hits(m, tol) is None


def test_a_split_error_across_tol_falls_back_to_the_walk():
    # I - J/6 with entries of row 0 nudged down.  By 1.5 tol in all, over
    # columns 4 and 5, the residual keeps rank one but row 0 of a balanced x
    # moves 1.5 tol off +-1 unless x_4 != x_5: the split's error crosses tol,
    # and the walk counts.  By 0.5 tol, in column 5, no image crosses it, and
    # the structured path counts every balanced x and the two corners.
    n, tol = 12, 1e-9
    for nudged, fell_back in (((4, 5, -0.75 * tol), True), ((5, -0.5 * tol), False)):
        m = reflected_ones(n)
        m[0, list(nudged[:-1])] += nudged[-1]
        hits = exact_score(m, tol).hit_count
        assert hits == naive_exact_score(m, tol).hit_count
        if fell_back:
            assert structured_hits(m, tol) is None
            assert 0 < hits < math.comb(n, n // 2)
        else:
            assert structured_hits(m, tol) == hits == math.comb(n, n // 2) + 2


def test_rank_two_and_non_integer_residuals_decline(rng, structured):
    n = 16
    s = np.eye(n)[rng.permutation(n)]
    rank_two = s + 0.01 * np.outer(rng.normal(size=n), rng.normal(size=n)) \
        + 0.01 * np.outer(rng.normal(size=n), rng.normal(size=n))
    assert perm_plus_rank_one(rank_two) is None
    assert exact_score(rank_two, 0.1).hit_count == walk_hits(rank_two, 0.1)
    assert structured == []
    for t in (np.r_[1.0, 1.5, np.ones(18)], np.r_[1.0, math.sqrt(2.0), np.ones(18)]):
        m = signed_rows(rng, rank_one_orthogonal(20, t).matrix)
        structured.clear()
        assert exact_score(m).hit_count == walk_hits(m)
        assert structured == [None]


def test_the_split_reads_an_integer_t_with_a_unit_entry(rng):
    # every residual column is an integer multiple of the smallest nonzero one
    # (n=70 keeps the diagonal entry of the 3 within the snap)
    t = np.r_[1.0, -3.0, 0.0, 2.0, rng.choice([-1.0, 1.0], size=66)]
    m = rank_one_orthogonal(70, t).matrix
    cols, signs, u, v, error = perm_plus_rank_one(m)
    assert cols.tolist() == list(range(70)) and signs.tolist() == [1] * 70
    assert abs(v[0]) == 1 and (v / v[0]).tolist() == t.tolist()
    assert np.abs(np.outer(u, v) - (m - np.eye(70))).max() <= 1e-15
    assert error.max() <= 1e-14
    # signed-permuted rows, at an n the split takes (n <= 62): it puts row
    # i's term at coordinate cols[i]
    m = signed_rows(rng, rank_one_orthogonal(20, np.r_[1.0, rng.choice([-1.0, 1.0], size=19)]).matrix)
    cols, signs, u, v, error = perm_plus_rank_one(m)
    assert sorted(cols.tolist()) == list(range(20)) and sorted(set(signs.tolist())) == [-1, 1]
    w, v_split, b = score._rank_one_split(m)
    assert np.array_equal(w[cols], signs * u)
    assert np.array_equal(v_split, v)
    assert np.all(b[cols] >= error)


def test_exact_score_and_decompose_leave_scipy_and_numpy_ma_unloaded():
    # importing scipy.linalg costs about 220 ms and 29 MB, and numpy.ma, which
    # np.unique loads when asked for the unique values alone, about 15 ms;
    # with scipy blocked any import of it fails, so the 600-row calls show
    # that no size needs it (mc_score and threshold_score of the reflection
    # take the same split)
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
from cubescore.core import CapacityError, numeric_rank
from cubescore.score import exact_score, mc_score, threshold_score
from cubescore.structure import decompose
rng = np.random.default_rng(5)
n = 20
r = np.eye(n) - 2.0 / n
exact_score(r)
mc_score(r, 1000, 1)
threshold_score(r, 0.25)
threshold_score(r, 0.25, mode="mc", samples=1000, seed=1)
exact_score(rng.normal(size=(12, 12)))
exact_score(np.eye(40))
decompose(r)
decompose(np.eye(30) + 0.01 * rng.normal(size=(30, 3)) @ rng.normal(size=(3, 30)))
decompose(rng.normal(size=(512, 512)))
print(numeric_rank(rng.normal(size=(600, 7)) @ rng.normal(size=(7, 600))))
print(decompose(np.eye(600) + 0.01 * rng.normal(size=(600, 3)) @ rng.normal(size=(3, 600))).residual_rank)
try:
    exact_score(np.eye(600))
except CapacityError:
    print("refused")
print(sys.modules["scipy"], "numpy.ma" in sys.modules)
"""
    assert run_python(code) == "7\n3\nrefused\nNone False\n"


@pytest.fixture
def dense_mc(monkeypatch):
    """One entry per run of the dense Monte Carlo engine."""
    seen = []
    engine = _kernel.mc_sign_blocks

    def spy(*args):
        seen.append(args)
        return engine(*args)

    monkeypatch.setattr(_kernel, "mc_sign_blocks", spy)
    return seen


def dense_mc_hits(m, samples, seed, threads=1, tol=1e-9):
    return _kernel.count_signs(m, _kernel.Window(1.0, tol), "mc", samples, seed, threads)[0]


def structured_mc(dense_mc, m, samples, seed, threads=1, tol=1e-9):
    """``mc_score``'s hit count, or ``None`` where the dense engine ran."""
    dense_mc.clear()
    hits = mc_score(m, samples, seed, tol, threads).hit_count
    return None if dense_mc else hits


#: Sample counts at block edges: one sample, a ragged last word, one past a
#: full block, and three full blocks plus a ragged one.
EDGE_SAMPLES = (1, 63, _kernel.MC_BLOCK + 1, 3 * _kernel.MC_BLOCK + 5)


def test_structured_mc_matches_the_dense_engine(rng, dense_mc):
    # signed permutations (score 1) and signed-permuted reflections decide
    # every sample from its bits, and count what the dense engine counts
    perms = [np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n) for n in (1, 7, 20, 62)]
    reflections = [signed_rows(rng, reflected_ones(n)) for n in [*range(2, 21), 40, 62]]
    for i, m in enumerate(perms + reflections):
        n = m.shape[0]
        samples, threads = EDGE_SAMPLES[i % 4], 1 + (i // 4) % 2
        hits = structured_mc(dense_mc, m, samples, i, threads)
        if hits is None:
            # the reflection's diagonal 1 - 2/n snaps to 1 from n=8 on, and
            # I - J at n=2 is a signed permutation
            assert i >= len(perms) and 3 <= n <= 7
        else:
            assert hits == dense_mc_hits(m, samples, i, threads), (n, samples, threads)
    assert structured_mc(dense_mc, perms[2], 1000, 3) == 1000
    # -I + 1 v^T / (sum v / 2) with v >= 0 counts z = 0 and z = +-sum v; the
    # sample with every bit set has v . bits = sum v, here 128 or 32768, one
    # past int8 or int16
    for weights in ([1, 15] + [14] * 8, [1] + [3641] * 7 + [3640] * 2):
        m = -np.eye(10) + np.outer(np.ones(10), weights) / (sum(weights) // 2)
        for samples, threads in ((_kernel.MC_BLOCK + 1, 1), (3 * _kernel.MC_BLOCK + 5, 2)):
            assert structured_mc(dense_mc, m, samples, 5, threads) == dense_mc_hits(m, samples, 5, threads)


def test_structured_mc_checks_the_fixed_coordinates(rng, dense_mc):
    # row 0 of I - 0.2 e_0 1^T at n=20 is x_0 - 0.2 z with z = sum(x): a
    # hit needs z = 0, or z = 10 x_0, which fixes coordinate 0 alone, so
    # about half the samples with z = +-10 miss
    n = 20
    m = np.eye(n)
    m[0] -= 0.2
    m = signed_rows(rng, m)
    for samples, threads in zip(EDGE_SAMPLES, (1, 2, 1, 2)):
        hits = structured_mc(dense_mc, m, samples, 6, threads)
        assert hits == dense_mc_hits(m, samples, 6, threads)
    # the same count from the bits themselves
    x = 1 - 2 * np.concatenate(_kernel.mc_bit_blocks(EDGE_SAMPLES[-1], n, 6, np.copy), axis=1).astype(int)
    z = x.sum(axis=0)
    assert hits == np.count_nonzero(z == 0) + np.count_nonzero(z == 10 * x[0])
    assert np.count_nonzero(z == 0) < hits < np.count_nonzero((z == 0) | (np.abs(z) == 10))


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_structured_mc_is_the_dense_engine_at_every_block_edge(rng, dense_mc, samples):
    m = signed_rows(rng, reflected_ones(20))
    for threads in (1, 2):
        hits = structured_mc(dense_mc, m, samples, 17, threads)
        assert hits == dense_mc_hits(m, samples, 17, threads)


def test_structured_mc_of_rank_one_orthogonals_matches_the_dense_engine(rng, dense_mc):
    # integer t in [-3, 3]: many do not split, and those take the engine
    taken = set()
    for n in range(2, 31):
        for threads in (1, 2, 1):
            t = rng.integers(-3, 4, size=n).astype(float)
            t[0] = 1.0
            m = signed_rows(rng, rank_one_orthogonal(n, t).matrix)
            seed = int(rng.integers(1 << 31))
            for tol in (1e-9, 0.3):
                hits = structured_mc(dense_mc, m, 4000, seed, threads, tol)
                if hits is not None:
                    assert hits == dense_mc_hits(m, 4000, seed, threads, tol)
                    taken.add(n)
    assert len(taken) >= 15


def test_structured_mc_reflection_past_the_walk_without_the_engine(rng, monkeypatch):
    monkeypatch.setattr(_kernel, "mc_sign_blocks", _no_walk)
    n, samples = 62, 200_000
    rep = mc_score(signed_rows(rng, reflected_ones(n)), samples, 8)
    p = (math.comb(n, n // 2) + 2) / 2**n
    assert rep.total == samples and rep.stderr > 0
    assert abs(rep.score - p) <= 5.0 * math.sqrt(p * (1 - p) / samples)


def test_structured_mc_declines_to_the_dense_engine(rng, dense_mc):
    # I - J/2 at n=4 (the score-mc recording's matrix) does not snap
    halves = np.eye(4) - 0.5
    assert structured_mc(dense_mc, halves, 70000, 9, 2) is None
    assert mc_score(halves, 70000, 9, threads=2).hit_count == 35038
    n = 16
    s = np.eye(n)[rng.permutation(n)]
    rank_two = s + 0.01 * np.outer(rng.normal(size=n), rng.normal(size=n)) \
        + 0.01 * np.outer(rng.normal(size=n), rng.normal(size=n))
    non_integer = signed_rows(rng, rank_one_orthogonal(20, np.r_[1.0, 1.5, np.ones(18)]).matrix)
    # I - J/5 at n=10 puts every row 0.4 from +-1 at z = +-2, on tol; all 256
    # values of z = v . x allow a hit of I + c 1 v^T with v = (1, 2, .., 128)
    # at n=8, more than 8 n
    powers = np.eye(8) + 0.3 / 255.5 * np.outer(np.ones(8), 2.0 ** np.arange(8))
    for m, tol in ((rank_two, 0.1), (non_integer, 1e-9), (reflected_ones(10), 0.4), (powers, 0.3)):
        assert structured_mc(dense_mc, m, 5000, 4, 1, tol) is None
        assert mc_score(m, 5000, 4, tol).hit_count == dense_mc_hits(m, 5000, 4, 1, tol)
    assert structured_mc(dense_mc, reflected_ones(10), 5000, 4, 1, 0.4 + 1e-6) is not None
    # 101 values of z allow a hit with v = (1, 2, .., 20) and c = 0.3 / 100.5
    # at n=20, and 21 of I + J/100 (every one), all with free coordinates:
    # at most 8 n, so the bits decide
    for m in (np.eye(20) + 0.3 / 100.5 * np.outer(np.ones(20), np.arange(1.0, 21)), np.eye(20) + 0.01):
        hits = structured_mc(dense_mc, m, 5000, 4, 1, 0.3)
        assert hits == dense_mc_hits(m, 5000, 4, 1, 0.3) > 0


def test_no_split_past_the_histograms_limit(monkeypatch):
    # integer_sum_counts declines n > 62, so neither score splits a matrix
    # that wide: a snapping one of 600 rows would pay a 600 x 600 SVD first
    def no_split(arr):
        raise AssertionError("split a matrix past the histogram's limit")

    monkeypatch.setattr(score, "perm_plus_rank_one", no_split)
    assert mc_score(np.eye(63), 100, 1).hit_count == 100
    with pytest.raises(CapacityError):
        exact_score(np.eye(63))


def test_structured_mc_refuses_as_the_dense_engine(rng):
    m = signed_rows(rng, reflected_ones(20))
    for kwargs, message in (({"samples": 0}, "samples must be a positive integer, got 0"),
                            ({"seed": 2**128}, r"seed must be an integer in \[0, 2\*\*128\)"),
                            ({"threads": 0}, "threads must be a positive integer, got 0")):
        with pytest.raises(PreconditionError, match=message):
            mc_score(m, **{"samples": 10, "seed": 1, **kwargs})


def threshold_walk(m, theta, *draws):
    """The walk's threshold count, or the dense engine's with ``draws`` =
    ``(samples, seed, threads)``, past the table."""
    def clears(y):
        return np.prod(np.abs(y, out=y), axis=0) >= theta

    return _kernel.count_signs(m, clears, "mc" if draws else "exact", *draws)[0]


def product_table(m, theta):
    split = score._rank_one_split(m)
    if split is None:
        return None
    return _kernel.rank_one_product_table(_kernel.rank_one_classes(*split[:2]), *split, theta)


@pytest.fixture
def tables(monkeypatch):
    """The tables that ``threshold_score`` built, ``None`` for a decline."""
    return results_of(monkeypatch, "rank_one_product_table")


THETAS = (0.01, 0.25, 0.9, 1.0)


def test_threshold_table_matches_the_walk_for_every_small_n(rng, tables):
    # signed permutations, signed reflections and signed-permuted integer
    # rank-one orthogonals (most integer t in [-3, 3] do not split); the
    # table is checked directly, as threshold_score walks up to n = 13
    taken = {}
    for n in range(1, 21):
        cases = [("perm", np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)),
                 ("reflection", signed_rows(rng, reflected_ones(n)))]
        for t in (rng.integers(-3, 4, size=n), rng.choice([-1, 0, 1, 1], size=n),
                  rng.choice([-1, 0, 1, 1], size=n), rng.choice([-1, 1, 1, 2], size=n)):
            t = t.astype(float)
            t[0] = 1.0
            cases.append(("rank one", signed_rows(rng, rank_one_orthogonal(n, t).matrix)))
        for kind, m in cases:
            split = score._rank_one_split(m)
            classes = None if split is None else _kernel.rank_one_classes(*split[:2])
            built = n > _kernel.LOW_BITS + 1 and split is not None and not score._table_walks(classes)
            for theta in THETAS:
                walked = threshold_walk(m, theta)
                tables.clear()
                assert threshold_score(m, theta).hit_count == walked
                declined = [table is None for table in tables]
                found = None if split is None else _kernel.rank_one_product_table(classes, *split, theta)
                assert declined == [found is None] * built
                if found is not None:
                    hit, counts = found
                    assert int(counts[hit].sum()) == walked, (kind, n, theta)
                    assert counts.sum() == 1 << n
                    taken.setdefault(kind, set()).add(n)
    assert taken["perm"] == taken["reflection"] | {3, 4, 5, 6, 7} == set(range(1, 21))
    assert taken["rank one"] == {1, 2, 4, *range(10, 21)}


@pytest.mark.parametrize("n", [20, 32, 40, 62])
def test_threshold_closed_form_without_the_walk(rng, monkeypatch, n):
    # with k minus signs z = n - 2k, and |(Mx)_i| = |1 -+ 2z/n| on the plus
    # and minus coordinates: an exact rational count
    monkeypatch.setattr(_kernel, "sign_walk", _no_walk)
    m = signed_rows(rng, reflected_ones(n))
    for theta in (0.01, 0.25, 0.9):
        c = [Fraction(2 * (n - 2 * k), n) for k in range(n + 1)]
        want = sum(math.comb(n, k) for k in range(n + 1)
                   if abs(1 - c[k]) ** (n - k) * abs(1 + c[k]) ** k >= Fraction(theta))
        rep = threshold_score(m, theta)
        assert (rep.hit_count, rep.total, rep.method) == (want, 1 << n, "exact")
        assert rep.score == want / 2**n


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_threshold_bit_path_is_the_dense_engine(rng, dense_mc, samples):
    t = np.resize([1.0, -1.0, 0.0, 1.0, 1.0], 20)
    for m in (signed_rows(rng, reflected_ones(20)), signed_rows(rng, rank_one_orthogonal(20, t).matrix)):
        for theta, threads in itertools.product((0.01, 0.25, 0.9), (1, 2)):
            dense_mc.clear()
            rep = threshold_score(m, theta, mode="mc", samples=samples, seed=11, threads=threads)
            assert dense_mc == []
            assert (rep.hit_count, rep.total) == (threshold_walk(m, theta, samples, 11, threads), samples)


def test_threshold_bit_path_past_the_walk_without_the_engine(rng, monkeypatch):
    monkeypatch.setattr(_kernel, "mc_sign_blocks", _no_walk)
    n, samples = 62, 100_000
    rep = threshold_score(signed_rows(rng, reflected_ones(n)), 0.25, mode="mc", samples=samples, seed=8)
    p = threshold_score(reflected_ones(n), 0.25).score
    assert rep.total == samples and rep.stderr > 0
    assert abs(rep.score - p) <= 5.0 * math.sqrt(p * (1 - p) / samples)


def test_a_theta_on_an_attainable_product_declines(rng, tables, dense_mc):
    # I - J/8 at n=16 is exact in floats, so the walk forms its products
    # exactly: 0.5^10 1.5^6 with 6 minus signs, and 0 with 4 (z = 8 makes
    # 1 - z/8 vanish).  A theta within a few ulps of a product, or within
    # the split's rounding bound of it, declines, and so does the identity
    # at theta = 1 and a subnormal theta above the zero product.
    reflection = reflected_ones(16)
    product = 0.5**10 * 1.5**6
    ulps = [product]
    for _ in range(3):
        ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], 1.0)]
    near = (*ulps, product * (1 + 1e-12), product * (1 - 1e-12), 5e-324, 1e-310)
    for m, theta in [*((reflection, theta) for theta in near), (np.eye(16), 1.0), (np.eye(20), 1.0)]:
        tables.clear()
        assert threshold_score(m, theta).hit_count == threshold_walk(m, theta)
        assert tables == [None]
        dense_mc.clear()
        rep = threshold_score(m, theta, mode="mc", samples=5000, seed=3, threads=2)
        assert len(dense_mc) == 1 and rep.hit_count == threshold_walk(m, theta, 5000, 3, 2)
    assert threshold_walk(reflection, ulps[3]) > threshold_walk(reflection, ulps[4])
    # a theta clear of every product by more than the bounds is decided
    assert product_table(reflection, product * (1 + 1e-9)) is not None


def test_a_theta_below_tiny_near_an_underflowing_product_declines(rng, dense_mc):
    # I - J/16 at n=32: with 8 minus signs 24 factors vanish exactly, and their
    # upper ends, about 1e-13 each, multiply below tiny, where the relative
    # rounding bound fails; a theta below tiny there declines to the engine
    m = reflected_ones(32)
    for theta in (np.finfo(float).tiny / 2, 5e-324):
        assert product_table(m, theta) is None
        dense_mc.clear()
        rep = threshold_score(m, theta, mode="mc", samples=70000, seed=4)
        assert len(dense_mc) == 1 and rep.hit_count == threshold_walk(m, theta, 70000, 4, 1)
    assert product_table(m, np.finfo(float).tiny * 1e10) is not None


def test_a_theta_inside_the_rounding_slack_declines():
    # I - J/8 at n=16 again: with k minus signs the walk's product lies in
    # [prod (|y| - b), prod (|y| + b)] widened by its own rounding, which
    # these ends, a few ulps from the table's, leave out; a theta between
    # them and the widened ends declines
    n = 16
    m = reflected_ones(n)
    w, _, b = score._rank_one_split(m)
    b, w = b.max(), w[0]
    for k in (2, 6, 7):
        z = float(n - 2 * k)
        plus, minus = abs(1.0 + w * z), abs(1.0 - w * z)
        low = max(minus - b, 0.0) ** k * max(plus - b, 0.0) ** (n - k)
        high = (minus + b) ** k * (plus + b) ** (n - k)
        for theta in (low * (1 - 16 * np.finfo(float).eps), high * (1 + 16 * np.finfo(float).eps)):
            assert product_table(m, theta) is None
            assert product_table(m, theta * (1 - 1e-9) if theta < low else theta * (1 + 1e-9)) is not None


def test_exact_counts_walk_while_the_half_walk_is_one_block(monkeypatch):
    # up to n = 13 neither exact count splits the matrix, as the CLI's n = 8
    # reflection showed the split to cost more than the walk
    def no_split(arr):
        raise AssertionError("split a matrix whose half walk is one block")

    monkeypatch.setattr(score, "_rank_one_split", no_split)
    for n in (1, 8, 13):
        m = reflected_ones(n)
        assert exact_score(m).hit_count == walk_hits(m)
        assert threshold_score(m, 0.25).hit_count == threshold_walk(m, 0.25)
    with pytest.raises(AssertionError, match="one block"):
        threshold_score(reflected_ones(14), 0.25)
    with pytest.raises(AssertionError, match="one block"):
        exact_score(reflected_ones(14))


def test_exact_threshold_walks_where_the_table_has_more_factors_than_the_half_walk_has_vectors(tables,
                                                                                               monkeypatch):
    # I + c 1 v^T with v = (1..12, 1, 1, 1, 1) at n=16 forms 13 classes and
    # 20,480 choices, so the table has 327,680 factors against the half
    # walk's 32,768 vectors: exact mode walks, mc mode still builds it
    m = np.eye(16) + 0.01 * np.outer(np.ones(16), np.r_[np.arange(1.0, 13), np.ones(4)])
    split = score._rank_one_split(m)
    classes = _kernel.rank_one_classes(*split[:2])
    assert (len(classes), math.prod(c.size + 1 for c in classes)) == (13, 20480)
    assert score._table_walks(classes)
    walks = results_of(monkeypatch, "count_signs")
    for theta in (0.25, 0.5, 0.9):
        hit, counts = _kernel.rank_one_product_table(classes, *split, theta)
        tables.clear()
        walks.clear()
        rep = threshold_score(m, theta)
        assert tables == [] and len(walks) == 1
        assert rep.hit_count == walks[0][0] == int(counts[hit].sum())
    threshold_score(m, 0.5, mode="mc", samples=1000, seed=1)
    assert len(tables) == 1 and tables[0] is not None
    # the benchmark's reflection at n=20: 21 choices of 20 factors
    assert not score._table_walks(_kernel.rank_one_classes(*score._rank_one_split(reflected_ones(20))[:2]))
