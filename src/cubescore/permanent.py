"""Permanent computation and estimation.

Four routes with very different trust profiles: Ryser's inclusion-exclusion
(exact, ``O(2**n * n)`` via a blocked subset walk), the naive permutation
sum (exact, tiny ``n``, kept as an independent oracle), the sign-vector
expectation identity ``per(M) = E[prod_i x_i (Mx)_i]`` (exact enumeration or
Monte Carlo), and a balls-in-bins collision experiment that estimates the
permanent of a column-stochastic matrix as the probability that ``n`` balls,
ball ``j`` landing in bin ``i`` with probability ``A[i, j]``, occupy ``n``
distinct bins; a sample stops drawing balls at its first collision.  Both
exact walks are capped only by the walk's ``n <= 30``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import CapacityError, as_matrix, check_column_stochastic

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

    Column subsets are walked by the shared exhaustive kernel in its 0/1
    membership form, the low twelve columns batched into one vectorized
    block; block partial sums are reduced with exact float summation.
    Capped at ``n <= 30``, where the walk raises :class:`CapacityError`;
    runtime grows as ``2**n``, so the top of that range takes tens of seconds.
    """
    arr = as_matrix(m, square=True)
    return _kernel.parity_product_sum(arr, members=True) * (1.0 if arr.shape[0] % 2 == 0 else -1.0)


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
    enumerates them (``n <= 30``, as for :func:`ryser_value`); the summand is
    invariant under ``x -> -x``, so it walks the half with ``x_n = +1``,
    which is Glynn's formula.  mc mode averages over samples and reports the
    empirical standard error.
    """
    arr = as_matrix(m, square=True)
    n = arr.shape[0]
    draws = _kernel.check_mode(mode, samples, seed, threads)
    if draws is None:
        return PermanentReport(_kernel.parity_product_sum(arr, half=True) / (1 << (n - 1)), "bernoulli_exact")
    samples, seed, threads = draws

    def one_block(y: np.ndarray, bits: np.ndarray) -> tuple[float, float]:
        g = np.prod(y, axis=0)
        # prod_i x_i is -1 where the block has an odd number of -1 signs
        np.negative(g, out=g, where=np.bitwise_xor.reduce(bits, axis=0).view(bool))
        # numpy's pairwise sums, not a BLAS dot, whose split of the sum
        # would follow the BLAS thread count
        total = float(g.sum())
        return total, float(np.square(g, out=g).sum())

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
    picks the slot and whose fraction is the slot's coin.  A sample stops
    drawing at its first collision: in each block of samples, ball ``j``
    draws one uniform from the block's own substream per sample that is
    still free of collisions, in sample order, so a ball's law is unchanged,
    the estimate stays unbiased and the thread count changes no number.
    """
    arr = check_column_stochastic(as_matrix(a, square=True), stochastic_tol)
    samples, seed, threads = _kernel.check_mode("mc", samples, seed, threads)
    n = arr.shape[0]
    prob, alias = _alias_tables(arr)
    # Each sample marks its balls' bins in a bitmask of ceil(n/64) words.
    # bit_tables[w, j, 2k + c] is the bit in word w of ball j's bin when its
    # uniform falls in alias slot k, with c = 1 when the coin keeps bin k,
    # and 0 when that bin lies in another word.
    pick = np.stack([alias, np.broadcast_to(np.arange(n), alias.shape)], axis=2).reshape(n, 2 * n)
    word, bit = np.divmod(pick, 64)
    nwords = -(-n // 64)
    words = np.arange(nwords)[:, None, None]
    bit_tables = np.where(word == words, np.left_shift(np.uint64(1), bit.astype(np.uint64)), np.uint64(0))

    def one_block(i: int, rows: int) -> int:
        rng = _kernel.block_rng(seed, i)
        # One array holds the block's scratch rows, which every ball reuses:
        # the uniforms, their slots as floats and as indices, the balls' bin
        # bits and the all-zero words the samples start from.  Separate arrays
        # of this size went back to the system and were faulted in again
        # block after block.
        scratch = np.empty((3 + 2 * nwords, rows))
        uniforms, slots, indices = scratch[0], scratch[1], scratch[2].view(np.intp)
        marks = scratch[3 : 3 + nwords].view(np.uint64)
        seen = scratch[3 + nwords :].view(np.uint64)  # the words of the samples with no collision yet
        seen[...] = 0
        flags = np.empty(rows, dtype=bool)
        for j in range(n):
            live = seen.shape[1]
            t, k, slot = uniforms[:live], slots[:live], indices[:live]
            flag, mark = flags[:live], marks[:, :live]
            rng.random(out=t)  # ball j's uniforms, one per surviving sample
            t *= n
            np.floor(t, out=k)
            np.minimum(k, n - 1, out=k)
            t -= k  # the coin, uniform in [0, 1)
            slot[...] = k
            np.less(t, prob[j].take(slot, out=k, mode="clip"), out=flag)  # the coin keeps bin k
            slot += slot
            slot += flag
            bit_tables[:, j].take(slot, axis=1, out=mark, mode="clip")
            mark |= seen
            # a ball that lands in an occupied bin leaves every word unchanged
            (mark != seen).any(axis=0, out=flag)
            seen = mark.compress(flag, axis=1)
            if not seen.shape[1]:
                break
        return seen.shape[1]

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
