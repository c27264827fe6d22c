"""Permanent computation and estimation.

Four routes with very different trust profiles: Ryser's inclusion-exclusion
(exact, ``O(2**n * n)`` via a Gray-code subset walk), the naive permutation
sum (exact, tiny ``n``, kept as an independent oracle), the sign-vector
expectation identity ``per(M) = E[prod_i x_i (Mx)_i]`` (exact enumeration or
Monte Carlo), and a balls-in-bins collision experiment that estimates the
permanent of a column-stochastic matrix as the probability that ``n`` balls,
ball ``j`` landing in bin ``i`` with probability ``A[i, j]``, occupy ``n``
distinct bins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import (
    CapacityError,
    ENUMERATION_CAP,
    PreconditionError,
    as_matrix,
    is_column_stochastic,
)

#: Cap on the exact expectation-identity walk.  Its half-cube walk costs less
#: than Ryser's full walk at equal n, so this cap, below ``ENUMERATION_CAP``,
#: is not a runtime limit.
BERNOULLI_EXACT_CAP = 25

#: Permutation-sum oracle cap (10! terms).
NAIVE_CAP = 10


@dataclass(frozen=True)
class PermanentReport:
    """Computed or estimated permanent.

    ``samples`` and ``stderr`` are ``None`` for exact methods.
    """

    value: float
    method: str
    samples: int | None = None
    stderr: float | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "samples": self.samples,
            "stderr": self.stderr,
        }


def ryser_value(m) -> float:
    """Exact permanent by Ryser's formula, as a bare float.

    Column subsets are walked by the shared Gray-code kernel in its 0/1
    membership form, the low twelve columns batched into one vectorized
    block; block partial sums are reduced with exact float summation.
    Capped at ``n <= 30``; runtime grows as ``2**n``, so the top of that
    range takes tens of seconds.
    """
    arr = as_matrix(m, square=True)
    n = arr.shape[0]
    if n > ENUMERATION_CAP:
        raise CapacityError(f"Ryser enumeration is capped at n={ENUMERATION_CAP}, got {n}")
    plow = _kernel.low_sign_parity(min(n, _kernel.LOW_BITS))  # (-1)**|S| over the low columns
    parts = []
    for y, _, parity in _kernel.iter_sign_blocks(arr, members=True):
        parts.append(parity * float(plow @ np.prod(y, axis=0)))
    return math.fsum(parts) * (1.0 if n % 2 == 0 else -1.0)


def ryser_permanent(m) -> PermanentReport:
    return PermanentReport(ryser_value(m), "ryser")


def naive_value(m) -> float:
    """Exact permanent straight from the permutation-sum definition.

    Independent of the Ryser path on purpose; capped at ``n <= 10``.
    """
    arr = as_matrix(m, square=True)
    n = arr.shape[0]
    if n > NAIVE_CAP:
        raise CapacityError(f"naive permanent is capped at n={NAIVE_CAP}, got {n}")
    rows = np.arange(n)[None, :]
    parts = []
    chunk: list[tuple] = []

    def flush():
        if chunk:
            pa = np.asarray(chunk, dtype=np.int64)
            parts.append(float(arr[rows, pa].prod(axis=1).sum()))
            chunk.clear()

    for perm in itertools.permutations(range(n)):
        chunk.append(perm)
        if len(chunk) == 65536:
            flush()
    flush()
    return math.fsum(parts)


def naive_permanent(m) -> PermanentReport:
    return PermanentReport(naive_value(m), "naive")


def bernoulli_permanent(
    m,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> PermanentReport:
    """Permanent via the identity ``per(M) = E[prod_i x_i (Mx)_i]``.

    The expectation runs over uniform sign vectors ``x``.  Exact mode
    enumerates them (``n <= 25``); the summand is invariant under
    ``x -> -x``, so it walks the half with ``x_n = +1``, which is Glynn's
    formula.  mc mode averages over samples and reports the empirical
    standard error.
    """
    arr = as_matrix(m, square=True)
    n = arr.shape[0]
    if mode == "exact":
        if n > BERNOULLI_EXACT_CAP:
            raise CapacityError(
                f"exact expectation enumeration is capped at n={BERNOULLI_EXACT_CAP}, got {n}"
            )
        plow = _kernel.low_sign_parity(min(n - 1, _kernel.LOW_BITS))
        parts = []
        for y, _, parity in _kernel.iter_sign_blocks(arr, half=True):
            parts.append(parity * float(plow @ np.prod(y, axis=0)))
        return PermanentReport(math.fsum(parts) / (1 << (n - 1)), "bernoulli_exact")

    if mode != "mc":
        raise PreconditionError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if samples is None or seed is None:
        raise PreconditionError("mc mode requires both samples and seed")
    samples = _kernel.check_samples(samples)
    seed = _kernel.check_seed(seed)
    block = _kernel.mc_rows(n)
    mt = arr.T.copy()

    def one_block(i: int) -> tuple[float, float]:
        rows = min(block, samples - i * block)
        x = _kernel.sample_signs(_kernel.block_rng(seed, i), rows, n)
        g = np.prod(x, axis=1) * np.prod(x @ mt, axis=1)
        return float(g.sum()), float((g * g).sum())

    sums = _kernel.map_blocks(one_block, _kernel.num_blocks(samples, block), threads)
    total = math.fsum(s for s, _ in sums)
    total_sq = math.fsum(q for _, q in sums)
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return PermanentReport(mean, "bernoulli_mc", samples, math.sqrt(var / samples))


def balls_in_bins_estimate(
    a,
    samples: int,
    seed: int,
    threads: int = 1,
    stochastic_tol: float = 1e-9,
) -> PermanentReport:
    """No-collision probability estimate of a column-stochastic permanent.

    Ball ``j`` falls into bin ``i`` with probability ``A[i, j]``; the
    permanent of ``A`` equals the probability that all ``n`` balls land in
    distinct bins, estimated here by seeded sampling.
    """
    arr = as_matrix(a, square=True)
    if not is_column_stochastic(arr, stochastic_tol):
        raise PreconditionError(
            "matrix must be column-stochastic (nonnegative entries, columns summing to 1)"
        )
    samples = _kernel.check_samples(samples)
    seed = _kernel.check_seed(seed)
    n = arr.shape[0]
    cdf = np.cumsum(arr, axis=0)
    block = _kernel.mc_rows(n)

    def one_block(i: int) -> int:
        rows = min(block, samples - i * block)
        u = _kernel.block_rng(seed, i).random((rows, n))
        bins = np.empty((rows, n), dtype=np.int64)
        for j in range(n):
            bins[:, j] = np.searchsorted(cdf[:, j], u[:, j], side="right")
        np.clip(bins, 0, n - 1, out=bins)
        s = np.sort(bins, axis=1)
        return int(np.count_nonzero(np.all(s[:, 1:] != s[:, :-1], axis=1)))

    counts = _kernel.map_blocks(one_block, _kernel.num_blocks(samples, block), threads)
    hits = int(sum(counts))
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return PermanentReport(p, "balls_in_bins", samples, stderr)
