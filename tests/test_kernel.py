"""The reducers of ``_kernel``: hit counts, parity-weighted product sums and the
modal signed sum, pinned to values they must keep bit for bit."""

import numpy as np
import pytest

from cubescore import _kernel
from cubescore.constructors import rank_one_orthogonal
from cubescore.core import PreconditionError
from cubescore.permanent import bernoulli_permanent, ryser_value
from cubescore.score import exact_score, mc_score, threshold_score
from cubescore.structure import concentration_probability


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


def test_modal_sum_pinned_across_blocks():
    v = np.array([[1, 2, -1, 3, 0, 2, 1, -2, 1, 1, 3, -1, 2, 1],
                  [0, 1, 1, -1, 2, 0, 1, 1, -2, 1, 0, 1, 1, 2.0]])
    rep = concentration_probability(v)
    assert (rep.count, rep.total, rep.mode.tolist()) == (328, 16384, [-1.0, 0.0])


def test_modal_tie_breaks_to_smallest_key():
    # +1 and -1 occur once each; the walk sees +1 first, the tie goes to -1
    count, rep, total = _kernel.modal_signed_sum(np.array([[1.0]]), 1e-9)
    assert (count, rep.tolist(), total) == (1, [-1.0], 2)


def test_modal_representative_is_first_visited_in_its_cell():
    # the cell around 0 holds -0.3 + 0.31 (bitmask 1, visited first) and
    # 0.3 - 0.31 (bitmask 2); the other two sums are alone in their cells
    count, rep, _ = _kernel.modal_signed_sum(np.array([[0.3, 0.31]]), 0.5)
    assert count == 2
    assert rep.tolist() == [-0.3 + 0.31]


@pytest.mark.parametrize("group_tol", [float("nan"), 0.0, 1.0, float("inf")])
def test_group_tol_out_of_range_is_rejected(group_tol):
    with pytest.raises(PreconditionError, match="group_tol"):
        concentration_probability(np.ones(3), group_tol)


def test_grid_keys_must_stay_exact():
    # 1e-300 would need keys near 1e300, far past int64 and 2**53
    with pytest.raises(PreconditionError, match="too fine"):
        concentration_probability(np.array([1.0, 1.0, 2.0]), 1e-300)
    with pytest.raises(PreconditionError, match="too fine"):
        _kernel.modal_signed_sum(np.array([[1e8, 1e8]]), 1e-9)
    count, _, _ = _kernel.modal_signed_sum(np.array([[1e6, 1e6]]), 1e-9)
    assert count == 2
