"""The reducers of ``_kernel``: hit counts, parity-weighted product sums and the
modal signed sum, pinned to values they must keep bit for bit; and the Monte
Carlo pool's single-threaded BLAS scope."""

import collections
import concurrent.futures
import hashlib
import math
import os
import sys
import threading

import numpy as np
import pytest

from cubescore import _kernel
from cubescore.constructors import _zero_sum_probability, rank_one_orthogonal
from cubescore.core import CapacityError, PreconditionError
from cubescore.permanent import bernoulli_permanent, ryser_value
from cubescore.score import exact_score, mc_score, threshold_score
from cubescore.structure import concentration_probability

from .conftest import run_python


def pinned_matrices():
    # small-integer entries keep every permanent and Monte Carlo sum exact,
    # so the float pins hold on any BLAS; the hit counts on the 0.2-entry
    # reflection r sit far from their tolerance edges
    i, j = np.indices((8, 8))
    a = (((i * i + 3 * j + i * j) % 5) - 2).astype(float)
    d = (((i * i * j + j) % 5) - 2).astype(float)
    b = np.eye(13)  # 13 coordinates: two blocks of the full walk
    for k in range(13):
        b[k, (k + 1) % 13] = 1.0
        b[k, (k + 5) % 13] = -1.0
    r = np.eye(10) - 0.2 * np.ones((10, 10))
    return a, d, b, r


def test_hit_counts_are_pinned():
    a, d, b, r = pinned_matrices()
    exact = [exact_score(m, tol).hit_count for m, tol in ((r, 1e-9), (d / 4, 0.3), (b, 0.5))]
    assert exact == [254, 12, 132]
    cases = ((r, 0.25), (d / 4, 0.01), (a / 4, 0.01))
    thresholded = [threshold_score(m, theta).hit_count for m, theta in cases]
    assert thresholded == [254, 130, 98]
    assert exact_score(b, 0.5).total == threshold_score(b, 0.5).total == 1 << 13
    cert = rank_one_orthogonal(10, [1, 2, 1, 1, 3, 1, 1, 2, 1, 1])
    assert cert.claimed_score_lower_bound.hex() == "0x1.3800000000000p-3"


def test_seeded_monte_carlo_counts_are_pinned():
    a, d, b, r = pinned_matrices()
    assert mc_score(r, 70000, 5).hit_count == mc_score(r, 70000, 5, threads=2).hit_count == 17555
    assert threshold_score(r, 0.25, "mc", 70000, 6).hit_count == 17309
    assert threshold_score(d / 4, 0.01, "mc", 70000, 6, 2).hit_count == 35654
    rep = bernoulli_permanent(b, "mc", 70000, 7)
    assert (rep.value.hex(), rep.stderr.hex()) == ("0x1.d88a53e8d40e4p+4", "0x1.32d9e4cb7dfe7p+1")


def test_parity_product_sums_are_pinned():
    a, d, b, _ = pinned_matrices()
    pins = ((a, "-0x1.c400000000000p+12"), (d, "0x1.2000000000000p+14"), (b, "0x1.b000000000000p+4"))
    for m, value in pins:
        assert ryser_value(m).hex() == value
        assert bernoulli_permanent(m).value.hex() == value


def test_count_signs_in_both_modes():
    m = np.eye(3)
    everything = lambda y: np.ones(y.shape[1], dtype=bool)
    assert _kernel.count_signs(m, everything) == (8, 8, 0.0)
    assert _kernel.count_signs(m, everything, "mc", 100, 1) == (100, 100, 0.0)
    with pytest.raises(PreconditionError, match="mode"):
        _kernel.count_signs(m, everything, "sampled", 100, 1)
    with pytest.raises(PreconditionError, match="both samples and seed"):
        _kernel.count_signs(m, everything, "mc", 100)


def _no_walk(*args, **kwargs):
    raise AssertionError("the integer reducer fell back to the walk")


def each_sum_path(monkeypatch):
    """Integer signed sums forced through ``integer_sum_counts`` (the walk
    raises), then past it (the reducer declines); yields the path's name."""
    for path in ("reducer", "walk"):
        with monkeypatch.context() as patch:
            if path == "reducer":
                patch.setattr(_kernel, "iter_sign_blocks", _no_walk)
            else:
                patch.setattr(_kernel, "_sum_keys", lambda a: None)
            yield path


def test_modal_sum_pinned_across_blocks(monkeypatch):
    v = np.array([[1, 2, -1, 3, 0, 2, 1, -2, 1, 1, 3, -1, 2, 1],
                  [0, 1, 1, -1, 2, 0, 1, 1, -2, 1, 0, 1, 1, 2.0]])
    for path in each_sum_path(monkeypatch):
        rep = concentration_probability(v)
        assert (rep.count, rep.total, rep.mode.tolist()) == (328, 16384, [-1.0, 0.0]), path


def test_modal_tie_breaks_to_smallest_key(monkeypatch):
    # +1 and -1 occur once each; the walk sees +1 first, the tie goes to -1
    for path in each_sum_path(monkeypatch):
        count, rep, total = _kernel.modal_signed_sum(np.array([[1.0]]), 1e-9)
        assert (count, rep.tolist(), total) == (1, [-1.0], 2), path


def test_modal_representative_is_first_visited_in_its_cell():
    # the cell around 0 holds -0.3 + 0.31 (bitmask 1, visited first) and
    # 0.3 - 0.31 (bitmask 2); the other two sums are alone in their cells
    count, rep, _ = _kernel.modal_signed_sum(np.array([[0.3, 0.31]]), 0.5)
    assert count == 2
    assert rep.tolist() == [-0.3 + 0.31]


def test_modal_representative_is_the_smallest_bitmask_across_blocks():
    # four blocks of 4096 equal sums: 1.01, 0.99, -0.99 and -1.01 for high
    # bitmasks 0..3.  The cells at +-1 tie and the tie goes to -1, whose
    # smallest bitmask is in block 2, so the representative is -0.99
    a = np.array([[0.0] * 12 + [0.01, 1.0]])
    count, rep, total = _kernel.modal_signed_sum(a, 0.5)
    assert (count, rep.tolist(), total) == (8192, [0.01 - 1.0], 16384)


@pytest.mark.parametrize("group_tol", [float("nan"), 0.0, 1.0, float("inf")])
def test_group_tol_out_of_range_is_rejected(group_tol):
    with pytest.raises(PreconditionError, match="group_tol"):
        concentration_probability(np.ones(3), group_tol)


def test_grid_keys_must_stay_exact(monkeypatch):
    # 1e-300 would need keys near 1e300, far past int64 and 2**53
    for path in each_sum_path(monkeypatch):
        with pytest.raises(PreconditionError, match="too fine"):
            concentration_probability(np.array([1.0, 1.0, 2.0]), 1e-300)
        with pytest.raises(PreconditionError, match="too fine"):
            _kernel.modal_signed_sum(np.array([[1e8, 1e8]]), 1e-9)
        count, _, _ = _kernel.modal_signed_sum(np.array([[1e6, 1e6]]), 1e-9)
        assert count == 2, path


@pytest.mark.parametrize("width", [1, 3])
def test_grouping_matches_np_unique(width):
    # random int64 keys with negative entries and many duplicates; the
    # first row of each group is its first occurrence, groups in key order
    rng = np.random.default_rng(width)
    for size in (1, 2, 50, 4096):
        keys = rng.integers(-3, 3, size=(size, width)) * (1 << 40) + rng.integers(-2, 2, size=(size, width))
        order, starts = _kernel.group_rows(keys)
        uniq, first, counts = np.unique(keys, axis=0, return_index=True, return_counts=True)
        assert order.tolist() == sorted(order.tolist(), key=lambda i: (keys[i].tolist(), i))
        assert order[starts].tolist() == first.tolist()
        assert keys[order[starts]].tolist() == uniq.tolist()
        assert np.diff(starts, append=size).tolist() == counts.tolist()


WALKS = [(half, members) for half in (False, True) for members in (False, True)]


def left_to_right(cols, masks, members):
    # column k: a plain left-to-right sum of value_j * cols[:, j], value_j
    # the set or clear value of bit j of masks[k]
    clear, flip = (0.0, 1.0) if members else (1.0, -1.0)
    table = []
    for mask in masks:
        column = []
        for row in cols.tolist():
            total = 0.0
            for j, entry in enumerate(row):
                total += (flip if mask >> j & 1 else clear) * entry
            column.append(total)
        table.append(column)
    return np.array(table).T


def walk_oracle(m, half, members):
    # both tables in natural bitmask order, the offsets over the high
    # coordinates, the fixed last one of a half walk last
    n = m.shape[1]
    b = min(n - half, _kernel.LOW_BITS)
    return (left_to_right(m[:, :b], range(1 << b), members),
            left_to_right(m[:, b:], range(1 << (n - half - b)), members))


@pytest.mark.parametrize("half, members", WALKS, ids=["full", "full-members", "half", "half-members"])
@pytest.mark.parametrize("n", [1, 12, 13, 15, 20])
def test_offset_table_is_a_left_to_right_sum(half, members, n):
    # n=1 and 12 have no walked high coordinate, 13 one, 15 three; with the
    # eight of n=20 one np.dot per column rounds some entries differently.
    # The low image is held to the same rule over its up to 12 coordinates;
    # for one row, a BLAS product of it sums in another order from n=12
    m = np.random.default_rng(n).normal(size=(3, n))
    low_oracle, offsets_oracle = walk_oracle(m, half, members)
    for rows in (1, 3):
        low, offsets = _kernel.sign_walk(m[:rows], half=half, members=members)
        assert low.tobytes() == low_oracle[:rows].tobytes()
        assert offsets.tobytes() == offsets_oracle[:rows].tobytes()
    k = -1
    for k, (y, high, parity) in enumerate(_kernel.iter_sign_blocks(low, offsets)):
        assert (high, parity) == (k, (-1) ** k.bit_count())
        assert y.tobytes() == (low + offsets[:, k, None]).tobytes()
    assert k + 1 == offsets.shape[1]


def test_offset_table_does_not_follow_the_blas_thread_count(blas_threads):
    # 32 rows and 2048 blocks: wide enough for OpenBLAS to thread a product
    m = np.random.default_rng(10).normal(size=(32, 24))
    for half, members in WALKS:
        assert blas_threads() == 2
        low, offsets = _kernel.sign_walk(m, half=half, members=members)
        with _kernel._single_threaded_blas():
            assert blas_threads() == 1
            low1, offsets1 = _kernel.sign_walk(m, half=half, members=members)
        assert offsets.tobytes() == offsets1.tobytes()
        assert low.tobytes() == low1.tobytes()


def signed_sums(t):
    # every signed sum t . x in plain integer arithmetic
    k = np.arange(1 << t.size)
    return (1 - 2 * ((k[:, None] >> np.arange(t.size)) & 1)) @ t


def zero_sum_recount(t):
    # meet in the middle: a zero sum is a left half-sum cancelled by a right one
    h = t.size // 2
    right = collections.Counter(signed_sums(t[h:]).tolist())
    return sum(right[-s] for s in signed_sums(t[:h]).tolist())


@pytest.mark.parametrize("share", [1.0, -1.0], ids=["filter", "dense"])
def test_zero_sum_count_matches_a_recount(monkeypatch, share):
    # integer t walks too: the integer reducer declines here
    monkeypatch.setattr(_kernel, "_sum_keys", lambda a: None)
    monkeypatch.setattr(_kernel, "_FILTER_SHARE", share)
    rng = np.random.default_rng(6)
    for n in (1, 2, 9, 13, 14, 16, 24):
        t = rng.integers(1, 4, size=n)
        t[0] = 1
        expected = zero_sum_recount(t) / (1 << n)
        assert _zero_sum_probability(t.astype(float), 1e-9) == expected
    # entries on the 2**-49 grid with |t|_1 < 16 make every partial sum
    # exact, so the recount is exact too.  1036 sums each lie at exactly
    # +-tol and 2**-48 inside and outside it: one and two ulps of the
    # operands, within the window's widened edges, where each is checked
    tol, e = 2.0**-10, 2.0**-49
    t = np.array([1, 1 + tol, 1 + tol + e, 1 + tol - e, 1, 1, 1, 1, 0.5, 0.5, 0.25, 0.25, 0.75, 1, 1, 0.75])
    units = np.round(t / e).astype(np.int64)
    sums = np.abs(signed_sums(units)) - round(tol / e)
    assert [np.count_nonzero(sums == d) for d in (-2, 0, 2)] == [1036, 1036, 1036]
    assert _zero_sum_probability(t, tol) == np.count_nonzero(sums <= 0) / (1 << t.size)


def walk_histogram(a):
    # the walk's distinct images in lexicographic order, and their counts
    images = np.concatenate([y.T.copy() for y, _, _ in _kernel.iter_sign_blocks(*_kernel.sign_walk(a))])
    ranked = images[np.lexsort(images.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    return ranked[starts], np.diff(starts, append=ranked.shape[0])


def walked(monkeypatch, fn, *args):
    with monkeypatch.context() as patch:
        patch.setattr(_kernel, "_sum_keys", lambda a: None)
        return fn(*args)


def assert_reducer_matches_the_walk(monkeypatch, a, group_tol=1e-9):
    sums, counts = _kernel.integer_sum_counts(a)
    expected = walk_histogram(a)
    assert sums.astype(float).tobytes() == expected[0].tobytes()
    assert counts.tolist() == expected[1].tolist()
    count, rep, total = _kernel.modal_signed_sum(a, group_tol)
    c, r, t = walked(monkeypatch, _kernel.modal_signed_sum, a, group_tol)
    assert (count, rep.tobytes(), total) == (c, r.tobytes(), t)
    assert _zero_sum_probability(a[0], 1e-9) == walked(monkeypatch, _zero_sum_probability, a[0], 1e-9)


def test_integer_sums_match_the_walk(monkeypatch):
    # entries in [-3, 3], zeros and negatives included: one row at every n
    # up to 20 (dense counts), two to four rows up to n=14 (sorted states)
    rng = np.random.default_rng(13)
    for n in range(1, 21):
        assert_reducer_matches_the_walk(monkeypatch, rng.integers(-3, 4, size=(1, n)).astype(float))
    for d in (2, 3, 4):
        for n in (1, 5, 12, 13, 14):
            assert_reducer_matches_the_walk(monkeypatch, rng.integers(-3, 4, size=(d, n)).astype(float))
    # a key range just inside int64, and an all-zero row
    big = np.array([[2**29, -3, 1, 2**29 - 5, 7], [1, 2**30, 0, -3, 3], [0, 0, 0, 0, 0]]) * 1.0
    assert 2**62 < math.prod(2 * int(s) + 1 for s in np.abs(big).sum(axis=1)) < 2**63
    assert_reducer_matches_the_walk(monkeypatch, big, 0.5)
    # near 2.14e15 a 0.9 grid puts many pairs of integers 1 apart in one
    # cell, but signed sums share the parity of S_r and are 2 apart at least
    near = np.array([[2139209823000990.0, 1, 1, 3]])
    assert np.round(near[0, 0] / 0.9) == np.round((near[0, 0] + 1) / 0.9)
    assert_reducer_matches_the_walk(monkeypatch, near, 0.9)


def test_declined_integer_sums_take_the_walk(monkeypatch):
    # a half entry, S_r at 2**53, a key range just past int64 and one past
    # the state budget (cut to 64 states here) all leave the answer to the walk
    half = np.array([[1.0, 0.5, 2.0]])
    at_2_53 = np.array([[2.0**52, 2.0**52]])
    wide = np.array([[2.0**31 - 1, 0.0], [0.0, 2.0**30]])
    assert 2**63 < (2**32 - 1) * (2**31 + 1) < 2**64
    over = np.arange(1.0, 15.0).reshape(2, 7)
    monkeypatch.setattr(_kernel, "_INTEGER_STATES", 64)
    for a in (half, wide, over):
        assert _kernel.integer_sum_counts(a) is None
        count, rep, total = _kernel.modal_signed_sum(a, 0.5)
        c, r, t = walked(monkeypatch, _kernel.modal_signed_sum, a, 0.5)
        assert (count, rep.tobytes(), total) == (c, r.tobytes(), t)
    assert _kernel.integer_sum_counts(at_2_53) is None
    assert _zero_sum_probability(at_2_53[0], 1e-9) == 0.5
    with pytest.raises(PreconditionError, match="too fine"):
        _kernel.modal_signed_sum(at_2_53, 1e-9)
    assert _kernel.integer_sum_counts(over[:, :6]) is not None  # min(5461, 2**6) = 64 states: taken


def test_integer_claims_pass_the_walk_caps():
    # n=32 against the meet-in-the-middle recount, n=62 against the
    # binomial count; t the reducer declines walks up to the walk's cap
    # and claims 0 past it
    t = np.random.default_rng(32).integers(1, 4, size=32)
    t[0] = 1
    assert rank_one_orthogonal(32, t).claimed_score_lower_bound == zero_sum_recount(t) / 2**32
    assert rank_one_orthogonal(62, np.ones(62)).claimed_score_lower_bound == math.comb(62, 31) / 2**62
    # at n=63 a count could pass int64 (2**63 for zeros), so the reducer declines
    assert rank_one_orthogonal(63, np.r_[np.ones(62), 2.0]).claimed_score_lower_bound == 0.0
    assert concentration_probability(np.zeros(62)).count == 2**62
    with pytest.raises(CapacityError):
        concentration_probability(np.zeros(63))
    # dyadic t: every partial sum is exact, so the integer recount of 4 t is exact too
    halves = np.r_[1.0, np.full(24, 0.5)]
    claim = rank_one_orthogonal(25, halves).claimed_score_lower_bound
    assert claim == 2 * math.comb(24, 11) / 2**25 == zero_sum_recount((4 * halves).astype(np.int64)) / 2**25
    quarters = np.random.default_rng(27).choice([0.25, 0.5, 0.75, 1.0], size=26)
    quarters[0] = 1.0
    expected = zero_sum_recount((4 * quarters).astype(np.int64)) / 2**26
    assert rank_one_orthogonal(26, quarters).claimed_score_lower_bound == expected > 0.0
    assert rank_one_orthogonal(31, np.r_[1.0, np.full(30, 0.5)]).claimed_score_lower_bound == 0.0
    # the modal count of the same t: meet in the middle over every sum
    left, right = (collections.Counter(signed_sums(part).tolist()) for part in (t[:16], t[16:]))
    counts = {s: sum(left[s - r] * k for r, k in right.items()) for s in range(-t.sum(), t.sum() + 1)}
    best = max(counts.values())
    rep = concentration_probability(t * 1.0)
    assert (rep.count, rep.total, rep.mode.tolist()) == (best, 2**32, [min(s for s in counts if counts[s] == best)])


def test_dense_hits_take_the_dense_walk():
    # a signed permutation hits everywhere and the signed reflection on 18%
    # of the cube: too many candidates for the filter to pay
    rng = np.random.default_rng(7)
    n = 20
    window = _kernel.Window(1.0, 1e-9)
    signs = rng.choice([-1.0, 1.0], size=n)
    for m in (np.eye(n)[rng.permutation(n)] * signs,
              signs[:, None] * (np.eye(n) - 0.1)[rng.permutation(n)]):
        assert _kernel._window_filter(*_kernel.sign_walk(m, half=True), window, False) is None
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))  # next to no hits: filtered
    assert sum(_kernel._window_filter(*_kernel.sign_walk(q, half=True), window, False)) == 0


def test_half_cube_hits_builds_its_walk_once(monkeypatch):
    # a filtered call, one declined on the sample share (a signed
    # permutation: every vector hits) and one declined on the column count.
    # For the last, the sample is cut to the all-ones vector alone, which no
    # row of (I - 0.1J) diag(s) maps near +-1 (sum(s) = 2, so its image is
    # s - 0.2), while every vector with s . x = 0 is a hit: 19.6% of them
    calls = collections.Counter()

    def counted(name):
        fn = getattr(_kernel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(_kernel, name, wrapper)

    for name in ("sign_walk", "_window_bounds", "iter_sign_blocks"):
        counted(name)
    rng = np.random.default_rng(11)
    n = 16
    s = np.repeat([1.0, -1.0], [9, 7])
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    cases = [(q, 1024, [1, 1, 0]), (np.eye(n) * s, 1024, [1, 0, 1]), ((np.eye(n) - 0.1) * s, 1, [1, 1, 1])]
    hits = []
    for m, sample, expected in cases:
        monkeypatch.setattr(_kernel, "_FILTER_SAMPLE", sample)
        calls.clear()
        hits.append(_kernel.half_cube_hits(m, _kernel.Window(1.0, 1e-9)))
        assert [calls[name] for name in ("sign_walk", "_window_bounds", "iter_sign_blocks")] == expected
    assert hits == [0, 1 << (n - 1), math.comb(n, n // 2) // 2]


def test_overflowing_sums_are_checked_not_counted(monkeypatch):
    # pairs of 1e308 overflow to +-inf unless they cancel, in the low image
    # (coordinates 0, 1) and in the offsets (12, 13); no window fits around
    # an infinite offset, and inf + -inf is no hit, so such blocks check
    # every column, and the count equals the dense walk's
    t = np.ones(15)
    t[[0, 1, 12, 13]] = 1e308
    t[14] = 2.0  # the fixed last coordinate; 6 of the 10 other ones must be -1
    counts = []
    for share in (1.0, -1.0):
        monkeypatch.setattr(_kernel, "_FILTER_SHARE", share)
        with np.errstate(over="ignore", invalid="ignore"):
            counts.append(_kernel.half_cube_hits(t[None, :], _kernel.Window(0.0, 1e-9)))
    assert counts[0] == counts[1] == 4 * 210


@pytest.mark.parametrize("rows", [1, 3])
def test_columns_on_the_window_edge_count_as_in_the_dense_walk(monkeypatch, rows):
    # tol is set to some vector's own distance from the centers, as the walk
    # computes it, so that vector and its rounding neighbours sit on the edge
    rng = np.random.default_rng(9)
    center = 0.0 if rows == 1 else 1.0
    # the tolerances come from the first block and from the last of the
    # four, whose offset the table builds by doubling
    for _ in range(10):
        m = rng.normal(size=(rows, 15)) * 0.1 + (rows > 1)
        walk = _kernel.sign_walk(m, half=True)
        gaps = [np.abs(np.abs(y) - center).max(axis=0) for y, _, _ in _kernel.iter_sign_blocks(*walk)]
        assert len(gaps) == 4
        for gap in (gaps[0], gaps[-1]):
            for tol in gap[rng.integers(0, gap.size, 3)]:
                counts = []
                for share in (1.0, -1.0):
                    monkeypatch.setattr(_kernel, "_FILTER_SHARE", share)
                    counts.append(_kernel.half_cube_hits(m, _kernel.Window(center, tol)))
                assert counts[0] == counts[1] > 0


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and restored afterwards; skips where numpy's BLAS is not OpenBLAS."""
    blas = _kernel._openblas_threads()
    if blas is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def reflection(n=20):
    return np.eye(n) - (2.0 / n) * np.ones((n, n))


def test_a_thread_pool_runs_blas_single_threaded_and_restores_it(blas_threads):
    m = reflection()
    assert mc_score(m, 1 << 18, 3, threads=2) == mc_score(m, 1 << 18, 3)
    assert blas_threads() == 2
    inside = _kernel.map_blocks(lambda i: blas_threads(), 4, threads=2)
    assert inside == [1, 1, 1, 1] and blas_threads() == 2
    assert _kernel.map_blocks(lambda i: blas_threads(), 4) == [2, 2, 2, 2]

    def fail(i):
        if i == 2:
            raise ValueError("block 2")
        return i

    with pytest.raises(ValueError, match="block 2"):
        _kernel.map_blocks(fail, 4, threads=2)
    assert blas_threads() == 2


def test_the_pool_starts_no_more_workers_than_blocks_or_cpus(monkeypatch):
    # threads is an upper bound: each worker keeps its own scratch, so
    # workers past the blocks or the usable CPUs would only add memory
    started = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    m = reflection(4)  # four blocks at 1 << 18 samples
    expected = mc_score(m, 1 << 18, 3)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert mc_score(m, 1 << 18, 3, threads=2000) == expected
    assert _kernel.map_blocks(lambda i: i, 2, threads=2000) == [0, 1]
    assert _kernel.map_blocks(lambda i: i, 5, threads=2) == list(range(5))
    # without sched_getaffinity the CPU count bounds the pool
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _kernel.map_blocks(lambda i: i, 64, threads=2000) == list(range(64))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _kernel.map_blocks(lambda i: i, 64, threads=2000) == list(range(64))
    assert started == [3, 2, 2, 4, 1]


def test_overlapping_scopes_restore_the_count_once(blas_threads):
    # the first scope to leave must not restore the count under the second
    outer = _kernel._single_threaded_blas()
    inner = _kernel._single_threaded_blas()
    outer.__enter__()
    inner.__enter__()
    try:
        outer.__exit__(None, None, None)
        assert blas_threads() == 1
    finally:
        inner.__exit__(None, None, None)
    assert blas_threads() == 2


def test_concurrent_threaded_calls_restore_the_count(blas_threads):
    # more calling threads than cores, switching often, each call opening
    # and closing its own scope while others are open
    m = reflection(4)
    expected = mc_score(m, 1 << 18, 4)
    start = threading.Barrier(4)
    reports = []

    def call():
        start.wait()
        for _ in range(3):
            reports.append(mc_score(m, 1 << 18, 4, threads=2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=call) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert reports == [expected] * 12
    assert blas_threads() == 2


def test_results_are_unchanged_without_the_blas_symbols(monkeypatch):
    m = reflection()
    reports = [mc_score(m, 1 << 18, 5, threads=2)]
    monkeypatch.setattr(_kernel, "_openblas_threads", lambda: None)
    reports += [mc_score(m, 1 << 18, 5, threads=t) for t in (1, 2)]
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("n", [1, 20, 64, 65, 400])
def test_block_images_are_equal_at_every_thread_count(n):
    # one thread multiplies with OpenBLAS's own threads, a pool with one
    # BLAS thread each; three blocks, the last of 37 rows.  A block of 64,527
    # rows (n=65) ends in a ragged word, and n=400 needs two products per
    # block.  16 rows of M are enough for OpenBLAS to sum a ragged word
    # differently when threaded, and with a digest of each block's bytes
    # they keep the memory to the pool's scratch buffers
    m = np.random.default_rng(n).normal(size=(16, n))
    samples = 2 * _kernel.mc_rows(n) + 37
    image = lambda y, _: hashlib.sha256(y.tobytes()).digest()
    first = _kernel.mc_sign_blocks(m, samples, 11, image)
    assert len(first) == 3
    for threads in (2, 3):
        assert _kernel.mc_sign_blocks(m, samples, 11, image, threads) == first


@pytest.mark.parametrize("n", [20, 600])
def test_block_images_do_not_follow_the_blas_thread_count(n):
    # OpenBLAS splits a product deeper than its inner-sum block by its own
    # thread count; the _MC_DEPTH slices must keep every block's image the
    # same in a process with one BLAS thread and one with two (n=600 takes
    # three slices; one product of its full depth differs)
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from cubescore import _kernel\n"
        f"m = np.random.default_rng({n}).normal(size=(16, {n}))\n"
        f"samples = 2 * _kernel.mc_rows({n}) + 37\n"
        "image = lambda y, _: hashlib.sha256(y.tobytes()).hexdigest()\n"
        "print(_kernel.mc_sign_blocks(m, samples, 11, image))\n"
    )
    one, two = (run_python(code, OPENBLAS_NUM_THREADS=k) for k in ("1", "2"))
    assert one == two


def test_bit_blocks_are_the_engines_draws():
    # the structured Monte Carlo count reads the same sign bits that the
    # dense engine multiplies, block for block and at any thread count
    n, samples = 9, _kernel.MC_BLOCK + 100
    dense = _kernel.mc_sign_blocks(np.eye(n), samples, 3, lambda y, bits: bits.copy())
    for threads in (1, 2):
        bits = _kernel.mc_bit_blocks(samples, n, 3, np.copy, threads)
        assert len(bits) == len(dense) == 2
        assert all(np.array_equal(a, b) for a, b in zip(bits, dense))
