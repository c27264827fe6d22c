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

#: Permutations per vectorized product in the permutation-sum oracle.
_NAIVE_CHUNK = 65536


@dataclass(frozen=True)
class PermanentReport:
    """Computed or estimated permanent.

    ``samples`` and ``stderr`` are ``None`` for exact methods.
    """

    value: float
    method: str
    samples: int | None = None
    stderr: float | None = None


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
    return _kernel.parity_product_sum(arr, members=True) * (1.0 if n % 2 == 0 else -1.0)


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
    perms = _permutation_table(n)
    rows = np.arange(n)[None, :]
    parts = [
        float(arr[rows, perms[k : k + _NAIVE_CHUNK]].prod(axis=1).sum())
        for k in range(0, len(perms), _NAIVE_CHUNK)
    ]
    return math.fsum(parts)


def _permutation_table(n: int) -> np.ndarray:
    """Every permutation of ``range(n)`` as an ``(n!, n)`` ``int8`` table, in
    lexicographic order: the block of rows starting with ``j`` is ``j``
    followed by the table for ``n - 1`` with every entry ``>= j`` raised by
    one."""
    table = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        table = np.concatenate(
            [np.column_stack([np.full(len(table), j, np.int8), table + (table >= j)]) for j in range(k)]
        )
    return table


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
    draws = _kernel.check_mode(mode, samples, seed)
    if draws is None:
        if n > BERNOULLI_EXACT_CAP:
            raise CapacityError(
                f"exact expectation enumeration is capped at n={BERNOULLI_EXACT_CAP}, got {n}"
            )
        return PermanentReport(_kernel.parity_product_sum(arr, half=True) / (1 << (n - 1)), "bernoulli_exact")
    samples, seed = draws

    def one_block(y: np.ndarray, bits: np.ndarray) -> tuple[float, float]:
        g = np.prod(y, axis=0)
        # prod_i x_i is -1 where the block has an odd number of -1 signs
        np.negative(g, out=g, where=np.bitwise_xor.reduce(bits, axis=0).view(bool))
        return float(g.sum()), float(g @ g)

    sums = _kernel.mc_sign_blocks(arr, samples, seed, one_block, threads)
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
    distinct bins, estimated here by seeded sampling.  Each ball draws its
    bin from its column's alias table with one uniform, whose integer part
    picks the slot and whose fraction is the slot's coin.
    """
    arr = as_matrix(a, square=True)
    if not is_column_stochastic(arr, stochastic_tol):
        raise PreconditionError(
            "matrix must be column-stochastic (nonnegative entries, columns summing to 1)"
        )
    samples = _kernel.check_samples(samples)
    seed = _kernel.check_seed(seed)
    n = arr.shape[0]
    prob, alias = _alias_tables(arr)
    # Each sample marks its balls' bins in a bitmask of ceil(n/64) words.
    # bit_tables[w, j, 2k + c] is the bit in word w of ball j's bin when its
    # uniform falls in alias slot k, with c = 1 when the coin keeps bin k,
    # and 0 when that bin lies in another word.
    pick = np.stack([alias, np.broadcast_to(np.arange(n), alias.shape)], axis=2).reshape(n, 2 * n)
    word, bit = np.divmod(pick, 64)
    words = np.arange(-(-n // 64))[:, None, None]
    bit_tables = np.where(word == words, np.left_shift(np.uint64(1), bit.astype(np.uint64)), np.uint64(0))

    def one_block(i: int, rows: int) -> int:
        seen = np.zeros((len(bit_tables), rows), dtype=np.uint64)
        clash = np.zeros(rows, dtype=np.uint64)
        u = _kernel.block_rng(seed, i).random((n, rows))
        for j, t in enumerate(u):  # row j holds ball j's uniforms
            t *= n
            k = np.floor(t)
            np.minimum(k, n - 1, out=k)
            t -= k  # the coin, uniform in [0, 1)
            k = k.astype(np.intp)
            keep = t < prob[j].take(k)
            k += k
            k += keep
            for mask, table in zip(seen, bit_tables):
                bit = table[j].take(k)
                clash |= mask & bit  # the bin already holds a ball
                mask |= bit
        return int(np.count_nonzero(clash == 0))

    hits = int(sum(_kernel.map_sample_blocks(one_block, samples, n, threads)))
    p, stderr = _kernel.binomial_estimate(hits, samples)
    return PermanentReport(p, "balls_in_bins", samples, stderr)


def _alias_tables(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias tables of the columns of ``a``, each a distribution over rows.

    Returns ``(prob, alias)``, each ``(cols, rows)``: slot ``k`` of column
    ``j`` yields bin ``k`` with probability ``prob[j, k]`` and bin
    ``alias[j, k]`` otherwise, so drawing a uniform slot reproduces column
    ``j`` (Walker 1977; Vose 1991).
    """
    n, cols = a.shape
    prob = np.ones((cols, n))
    alias = np.tile(np.arange(n), (cols, 1))
    for j in range(cols):
        q = (a[:, j] * n).tolist()
        small = [k for k, v in enumerate(q) if v < 1.0]
        large = [k for k, v in enumerate(q) if v >= 1.0]
        while small and large:
            s, g = small.pop(), large.pop()
            prob[j, s], alias[j, s] = q[s], g
            q[g] = (q[g] + q[s]) - 1.0
            (small if q[g] < 1.0 else large).append(g)
        # slots left over by rounding keep probability 1 of their own bin
    return prob, alias
