"""Hypercube hit scores.

The exact score of a square matrix ``M`` is the fraction of sign vectors
``x`` in ``{-1,+1}^n`` whose image ``M @ x`` again has every coordinate
within a tolerance of ``+-1``.  The thresholded variant replaces strict
membership with a cutoff on ``prod_i |(Mx)_i|``, and both come in exhaustive
and Monte Carlo flavors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import (
    CapacityError,
    DEFAULT_TOLERANCES,
    PreconditionError,
    SignVector,
    as_matrix,
    check_fraction,
)


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


def _membership_hits(y: np.ndarray, tol: float) -> np.ndarray:
    # overwrites the scratch block y with ||y| - 1|
    np.abs(y, out=y)
    np.subtract(y, 1.0, out=y)
    np.abs(y, out=y)
    return y.max(axis=0) <= tol


def exact_score(m, tol: float = DEFAULT_TOLERANCES.membership_tol) -> ScoreReport:
    """Exhaustive hit score over all ``2**n`` sign vectors.

    A vector counts as a hit when ``max_i ||(Mx)_i| - 1| <= tol``.  The rule
    is invariant under ``x -> -x``, so half the cube is walked and the count
    doubled.  Capped at ``n <= 30``.
    """
    arr = as_matrix(m, square=True)
    tol = check_fraction(tol)
    hits, total, _ = _kernel.count_signs(arr, lambda y: _membership_hits(y, tol))
    return ScoreReport(hits, total, hits / total, 0.0, "exact", tol)


def exact_hit_indices(m, tol: float = DEFAULT_TOLERANCES.membership_tol) -> np.ndarray:
    """Sorted bitmask indices of every hit vector (bit i set means x_i = -1)."""
    arr = as_matrix(m, square=True)
    tol = check_fraction(tol)
    n = arr.shape[0]
    found = []
    for y, gray, _ in _kernel.iter_sign_blocks(arr, half=True):
        mask = _membership_hits(y, tol)
        if mask.any():
            found.append(gray * mask.size + np.nonzero(mask)[0])
    if not found:
        return np.empty(0, dtype=np.int64)
    half = np.concatenate(found).astype(np.int64)
    return np.sort(np.concatenate([half, half ^ ((1 << n) - 1)]))


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
    regardless of ``threads``.
    """
    arr = as_matrix(m, square=True)
    tol = check_fraction(tol)
    hits, total, stderr = _kernel.count_signs(
        arr, lambda y: _membership_hits(y, tol), "mc", samples, seed, threads)
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

    ``mode`` is ``"exact"`` (exhaustive, ``n <= 30``; the statistic is
    invariant under ``x -> -x``, so half the cube is walked) or ``"mc"``.
    """
    arr = as_matrix(m, square=True)
    if not (0.0 < theta <= 1.0):
        raise PreconditionError(f"theta must lie in (0, 1], got {theta!r}")

    def clears(y: np.ndarray) -> np.ndarray:
        return np.prod(np.abs(y, out=y), axis=0) >= theta

    hits, total, stderr = _kernel.count_signs(arr, clears, mode, samples, seed, threads)
    method = "exact" if mode == "exact" else "monte_carlo"
    return ThresholdScoreReport(hits, total, hits / total, stderr, method, 0.0, float(theta))


def product_statistic(m, x) -> float:
    """The single-vector statistic ``prod_i |(Mx)_i|``."""
    arr = as_matrix(m, square=True)
    if isinstance(x, SignVector):
        vec = x.components()
    else:
        vec = np.asarray(x, dtype=float)
        if vec.ndim != 1:
            raise PreconditionError("x must be a 1-D sign vector")
        if not np.all(np.abs(vec) == 1.0):
            raise PreconditionError("every component of x must be exactly +1 or -1")
    if vec.size != arr.shape[1]:
        raise PreconditionError(f"x has length {vec.size}, expected {arr.shape[1]}")
    return float(np.prod(np.abs(arr @ vec)))


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
