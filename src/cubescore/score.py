"""Hypercube hit scores.

The exact score of a square matrix ``M`` is the fraction of sign vectors
``x`` in ``{-1,+1}^n`` whose image ``M @ x`` again has every coordinate
within a tolerance of ``+-1``.  The thresholded variant replaces strict
membership with a cutoff on ``prod_i |(Mx)_i|``, and both come in exhaustive
and Monte Carlo flavors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import (
    CapacityError,
    DEFAULT_TOLERANCES,
    PreconditionError,
    _is_number,
    as_matrix,
    check_fraction,
)
from .structure import perm_plus_rank_one


@dataclass(frozen=True)
class ScoreReport:
    """Outcome of a hit-score computation.

    ``stderr`` is zero for exhaustive runs and the binomial standard error
    ``sqrt(p(1-p)/samples)`` for Monte Carlo runs.
    """

    hit_count: int
    total: int
    score: float
    stderr: float
    method: str
    tolerance: float


@dataclass(frozen=True)
class ThresholdScoreReport(ScoreReport):
    """Like :class:`ScoreReport` but for the product-threshold hit rule."""

    threshold: float


#: Sign vectors per matrix product in the naive oracle.
_NAIVE_CHUNK = 4096


def exact_score(m, tol: float = DEFAULT_TOLERANCES.membership_tol) -> ScoreReport:
    """Exhaustive hit score over all ``2**n`` sign vectors.

    A vector counts as a hit when ``max_i ||(Mx)_i| - 1| <= tol``.  A signed
    permutation plus an integer rank-one term, ``M = S P + u v^T``
    (:func:`structure.perm_plus_rank_one`), is counted without the walk:
    per coordinate ``|(Mx)_i| = |x_j + w_j z|`` with ``z = v . x``
    (:func:`_rank_one_split`), so for each value of ``z`` the rule fixes the
    signs each coordinate may take, and the exact histogram of ``v . x`` over
    those signs gives the hits (:func:`_kernel.rank_one_window_hits`).  That count equals the walk's:
    where an evaluated distance lies within a rounding bound of ``tol``, or
    the histogram declines (``n > 62`` among others), the walk runs instead,
    and so it does where its half walk is one block, ``n <= 13``.
    The walk takes half the cube, as the rule is invariant under ``x ->
    -x``, and doubles the count.  Where hits are rare it checks only the
    vectors whose image can be near ``+-1`` in one row
    (``_kernel.half_cube_hits``), with the same count.  The walk is capped at
    ``n <= 30`` (``core.ENUMERATION_CAP``); the structured count is not.
    """
    arr = as_matrix(m, square=True)
    tol = check_fraction(tol)
    window = _kernel.Window(1.0, tol)
    split = _exact_split(arr)
    hits = None if split is None else _kernel.rank_one_window_hits(*split, window)
    if hits is None:
        hits = _kernel.count_signs(arr, window)[0]
    total = 1 << arr.shape[0]
    return ScoreReport(hits, total, hits / total, 0.0, "exact", tol)


def _exact_split(arr: np.ndarray):
    """:func:`_rank_one_split` for an exhaustive count, or ``None`` where the
    walk is cheaper: where its half walk is one block, ``n - 1 <=
    _kernel.LOW_BITS``."""
    return None if arr.shape[0] - 1 <= _kernel.LOW_BITS else _rank_one_split(arr)


def _table_walks(classes: list[np.ndarray]) -> bool:
    """Whether an exhaustive threshold count walks instead of building
    :func:`_kernel.rank_one_product_table` over ``classes``: where the
    table's factors, one per choice and coordinate, outnumber the half walk's
    ``2**(n - 1)`` vectors.  A factor costs more than a vector of the walk
    (about 40 against 27 ns at n = 20)."""
    n = sum(c.size for c in classes)
    return math.prod(c.size + 1 for c in classes) * n > 1 << (n - 1)


def _rank_one_split(arr: np.ndarray):
    """:func:`structure.perm_plus_rank_one`'s split ``M = S P + u v^T`` of
    ``M`` per coordinate, as ``(w, v, b)``, or ``None`` where it has none.

    Row ``i`` of ``S P`` holds ``signs[i]`` in column ``j = cols[i]``; then
    ``w_j = signs[i] u[i]`` and, with ``z = v . x``, ``|(Mx)_i| = |x_j + w_j
    z|``.  ``b_j`` bounds how far a distance evaluated from the split may lie
    from the one that the walk or the Monte Carlo block product decides row
    ``i`` on.  Every rank-one rule of :mod:`_kernel` reads this form.
    """
    # b_j, for the row i holding coordinate j: write S_i = sum_j |m_ij| and
    # r_i for the row sum as numpy evaluates it.  A sum of k terms, in any
    # order, errs by at most gamma_k = k (eps/2) / (1 - k eps/2) <= k eps
    # times the sum of their magnitudes (Higham, Accuracy and Stability of
    # Numerical Algorithms, ch. 4):
    # - the walk forms (Mx)_i from n terms +-m_ij, and errs by gamma_n S_i;
    # - the block product forms r_i - 2 sum_j m_ij d_j from n + 1 terms of
    #   [-2M | r], each exact as every bit d_j is 0 or 1, and errs by
    #   gamma_{n+1} (2 S_i + |r_i|), on top of r_i's own gamma_n S_i.
    # Either way add the split's error, error_i, whose sum errs by gamma_n
    # error_i, and a few roundings of the row's scale S_i + error_i + 2 +
    # |u_i| sum_j |v_j|: forming E = M - S P - u v^T, then u_i z (|z| <= sum_j
    # |v_j|), +-1 + u_i z and each side's ||y| - 1|.  (n + 4) eps times the
    # scale covers gamma_n S_i with all of these, and (n + 1) eps (2 S_i +
    # |r_i|) adds the block product's own term.
    n = arr.shape[0]
    if not _kernel.counts_fit(n):  # the table's histogram would decline, so skip the split's SVD
        return None
    split = perm_plus_rank_one(arr)
    if split is None:
        return None
    cols, signs, u, v, error = split
    l1 = np.abs(arr).sum(axis=1)
    scale = l1 + error + 2.0 + np.abs(u) * float(np.abs(v).sum())
    product = (n + 1) * (2.0 * l1 + np.abs(arr.sum(axis=1)))
    w, b = np.empty(n), np.empty(n)
    w[cols] = signs * u
    b[cols] = error + np.finfo(float).eps * ((n + 4) * scale + product)
    return w, v, b


def exact_hit_indices(m, tol: float = DEFAULT_TOLERANCES.membership_tol) -> np.ndarray:
    """Sorted bitmask indices of every hit vector (bit i set means x_i = -1)."""
    arr = as_matrix(m, square=True)
    tol = check_fraction(tol)
    half = _kernel.half_cube_hits(arr, _kernel.Window(1.0, tol), indices=True)
    return np.sort(np.concatenate([half, half ^ ((1 << arr.shape[0]) - 1)]))


def mc_score(
    m,
    samples: int,
    seed: int,
    tol: float = DEFAULT_TOLERANCES.membership_tol,
    threads: int = 1,
) -> ScoreReport:
    """Monte Carlo hit score from uniform sign-vector samples.

    Uses one Philox substream per fixed-size sample block, so a rerun with
    the same seed and sample count reproduces the estimate bit for bit
    regardless of ``threads``.  A signed permutation plus an integer
    rank-one term decides each sample from its sign bits, by the rule that
    :func:`exact_score` counts with, and forms no image
    (:func:`_kernel.rank_one_mc_hits`).  Every other matrix takes the block
    product of :func:`_kernel.mc_sign_blocks`, and so does one of that form
    where a distance of the rule lies within rounding of ``tol`` or more
    than ``8 n`` values of ``z`` allow a hit, a timed cutoff.  The hit count
    is the block product's either way.
    """
    arr = as_matrix(m, square=True)
    tol = check_fraction(tol)
    window = _kernel.Window(1.0, tol)

    def structured(samples: int, seed: int, threads: int) -> int | None:
        split = _rank_one_split(arr)
        return None if split is None else _kernel.rank_one_mc_hits(*split, window, samples, seed, threads)

    hits, total, stderr = _kernel.count_signs(arr, window, "mc", samples, seed, threads, structured)
    return ScoreReport(hits, total, hits / total, stderr, "monte_carlo", tol)


def threshold_score(
    m,
    theta: float,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> ThresholdScoreReport:
    """Probability that ``prod_i |(Mx)_i| >= theta`` over sign vectors.

    ``mode`` is ``"exact"`` (exhaustive; the statistic is invariant under ``x
    -> -x``, so half the cube is walked, ``n <= 30``) or ``"mc"``.  A signed
    permutation plus an integer rank-one term, ``M = S P + u v^T``
    (:func:`structure.perm_plus_rank_one`), is counted without the walk and
    sampled without the block product: the product depends only on how many
    minus signs each class of interchangeable coordinates takes, so a table
    over those counts decides every vector
    (:func:`_kernel.rank_one_product_table`), the exact count is read from
    it, and each Monte Carlo sample looks up its counts
    (:func:`_kernel.class_count_hits`).  Where ``theta`` lies within a
    rounding bound of a product the table holds, or the table would be too
    large, the walk or the block product runs instead, so the count is
    theirs either way.  Exact mode walks first where its half walk is one
    block, ``n <= 13``, or holds fewer vectors than the table has factors,
    and counts this form up to ``n = 62``.
    """
    arr = as_matrix(m, square=True)
    if not (_is_number(theta) and 0.0 < theta <= 1.0):
        raise PreconditionError(f"theta must lie in (0, 1], got {theta!r}")
    exact = _kernel.check_mode(mode, samples, seed, threads) is None

    def clears(y: np.ndarray) -> np.ndarray:
        return np.prod(np.abs(y, out=y), axis=0) >= theta

    def table(split):
        # (classes, hit, counts) of the split's threshold table, or None
        if split is None:
            return None
        classes = _kernel.rank_one_classes(*split[:2])
        if exact and _table_walks(classes):
            return None
        found = _kernel.rank_one_product_table(classes, *split, theta)
        return None if found is None else (classes, *found)

    def structured(samples: int, seed: int, threads: int) -> int | None:
        found = table(_rank_one_split(arr))
        return None if found is None else _kernel.class_count_hits(*found[:2], samples, seed, threads)

    found = table(_exact_split(arr)) if exact else None
    if found is not None:
        _, hit, counts = found
        hits, total, stderr = int(counts[hit].sum()), 1 << arr.shape[0], 0.0
    else:
        hits, total, stderr = _kernel.count_signs(arr, clears, mode, samples, seed, threads, structured)
    method = "exact" if exact else "monte_carlo"
    return ThresholdScoreReport(hits, total, hits / total, stderr, method, 0.0, float(theta))


def naive_exact_score(m, tol: float = DEFAULT_TOLERANCES.membership_tol) -> ScoreReport:
    """Reference implementation: every ``M @ x`` computed directly.

    Kept deliberately independent of the blocked kernel so the two can be
    cross-checked hit for hit; capped at ``n <= 20`` for runtime reasons.
    """
    arr = as_matrix(m, square=True)
    hits = int(naive_hit_indices(arr, tol).size)
    total = 1 << arr.shape[0]
    return ScoreReport(hits, total, hits / total, 0.0, "exact", float(tol))


def naive_hit_indices(m, tol: float = DEFAULT_TOLERANCES.membership_tol) -> np.ndarray:
    """Reference hit set matching :func:`naive_exact_score`.

    Walks the bitmasks in plain counting order, building each sign vector
    from its bits and multiplying it out, a few thousand vectors per matrix
    product; nothing is carried over from one vector to the next.
    """
    arr = as_matrix(m, square=True)
    tol = check_fraction(tol)
    n = arr.shape[0]
    if n > 20:
        raise CapacityError(f"naive score walk is capped at n=20, got {n}")
    out = []
    for start in range(0, 1 << n, _NAIVE_CHUNK):
        bits = np.arange(start, min(start + _NAIVE_CHUNK, 1 << n))
        x = 1.0 - 2.0 * ((bits[None, :] >> np.arange(n)[:, None]) & 1)
        out.append(bits[np.abs(np.abs(arr @ x) - 1.0).max(axis=0) <= tol])
    return np.concatenate(out).astype(np.int64)
