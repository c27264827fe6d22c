"""Blocked enumeration and sampling kernels.

Every exhaustive statistic over ``{-1,+1}^n`` walks the hypercube through
:func:`iter_sign_blocks`: the low ``b`` coordinates form one vectorized block
of ``2**b`` columns whose image is computed once, and the remaining high
coordinates follow a reflected Gray code, each block adding the image of the
current high coordinates to that fixed low image.

Operations state a rule and the reducers here apply it: :func:`count_signs`
counts the vectors whose image satisfies a rule, over the half-cube walk or
over Monte Carlo samples; :func:`parity_product_sum` sums ``parity(x) *
prod_i (Mx)_i`` over the walk, the shared core of Ryser's and Glynn's
permanent formulas; :func:`modal_signed_sum` finds the most frequent image.

Every Monte Carlo statistic over sign vectors runs through
:func:`mc_sign_blocks`.  Samples come in blocks of :func:`mc_rows` rows,
each drawn from its own counter-based Philox substream (:func:`block_rng`).
A block's signs are packed bits (:func:`sample_signs`): full-range
``uint64`` words read as little-endian bytes and unpacked low bit first, so
one word gives 64 samples of one coordinate on any platform.  The block's
image ``M @ x`` is one matrix product of ``[-2M | M 1]`` with the bits and a
row of ones, into a scratch buffer that its reducer then overwrites in
place.  Everything here is deterministic: fixed block layout, fixed visit
order, and per-block substreams, which make results independent of how
blocks are dispatched to threads.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from .core import CapacityError, ENUMERATION_CAP, PreconditionError, check_fraction

#: Coordinates handled as one vectorized block in exhaustive walks.
LOW_BITS = 12

#: Sample rows generated per Monte Carlo block.
MC_BLOCK = 1 << 16


def low_signs(b: int) -> np.ndarray:
    # column k holds the sign pattern of index k (bit set -> -1)
    return 1.0 - 2.0 * low_members(b)


def low_sign_parity(b: int) -> np.ndarray:
    # parity[k] = product of the k-th column of low_signs(b)
    k = np.arange(1 << b)
    pop = ((k[:, None] >> np.arange(b)[None, :]) & 1).sum(axis=1)
    return 1.0 - 2.0 * (pop & 1).astype(np.float64)


def low_members(b: int) -> np.ndarray:
    # 0/1 membership columns, for subset-sum walks
    k = np.arange(1 << b)
    bits = (k[None, :] >> np.arange(b)[:, None]) & 1
    return bits.astype(np.float64)


def iter_sign_blocks(
    m: np.ndarray,
    low_bits: int = LOW_BITS,
    *,
    half: bool = False,
    members: bool = False,
) -> Iterator[tuple[np.ndarray, int, int]]:
    """Yield ``(y, high_gray, high_parity)`` blocks covering ``M @ x`` for all x.

    ``y`` has shape ``(rows, 2**b)``; its column ``c`` is ``M @ x`` for the
    sign vector with bitmask ``(high_gray << b) | c`` (bit set means -1).
    ``high_parity`` is the product of the high-coordinate signs.

    ``half=True`` walks only the vectors whose last coordinate is +1, one of
    each pair ``{x, -x}``.  ``members=True`` replaces every sign ``1 - 2*bit``
    by the 0/1 membership ``bit``, so ``y`` holds column subset sums.

    Each block is ``low + offset``: the low image is computed once and the
    offset of the high coordinates is recomputed from their current values,
    so every block is exact to a few ulps however long the walk.  ``y`` is
    one scratch buffer rewritten at each step; consumers may overwrite it
    but must finish with a block before advancing.
    """
    rows, n = m.shape
    if n > ENUMERATION_CAP:
        raise CapacityError(f"exhaustive enumeration is capped at n={ENUMERATION_CAP}, got {n}")
    walked = n - 1 if half else n
    b = min(walked, low_bits)
    if members:
        low, clear, flip = m[:, :b] @ low_members(b), 0.0, 1.0
    else:
        low, clear, flip = m[:, :b] @ low_signs(b), 1.0, -1.0
    high = np.ascontiguousarray(m[:, b:])
    values = np.full(n - b, clear)  # current value of each high coordinate
    offset = high @ values
    y = np.empty_like(low)
    # row by row: adding a scalar to a contiguous row is about twice as fast
    # as numpy's broadcast of a (rows, 1) column over the block
    row_pairs = list(zip(low, y))
    gray = 0
    parity = 1
    for k in range(1 << (walked - b)):
        if k:
            j = (k & -k).bit_length() - 1
            gray ^= 1 << j
            parity = -parity
            values[j] = clear + flip - values[j]
            np.dot(high, values, out=offset)
        for (lo, out), o in zip(row_pairs, offset.tolist()):
            np.add(lo, o, out=out)
        yield y, gray, parity


def count_signs(m: np.ndarray, hit: Callable, mode: str = "exact", samples: int | None = None,
                seed: int | None = None, threads: int = 1) -> tuple[int, int, float]:
    """``(hits, total, stderr)`` for the sign vectors whose image satisfies ``hit``.

    ``hit(y)`` maps an image block ``y`` (one column per vector; it may be
    overwritten) to a boolean mask over its columns, by a rule invariant under
    ``x -> -x``.  Exact mode walks the half-cube and doubles the count
    (``stderr`` 0); mc mode counts ``samples`` seeded draws.
    """
    draws = check_mode(mode, samples, seed)
    if draws is None:
        hits = sum(int(np.count_nonzero(hit(y))) for y, _, _ in iter_sign_blocks(m, half=True))
        return 2 * hits, 1 << m.shape[1], 0.0
    samples, seed = draws
    hits = int(sum(mc_sign_blocks(m, samples, seed, lambda y, _: int(np.count_nonzero(hit(y))), threads)))
    return hits, samples, binomial_estimate(hits, samples)[1]


def parity_product_sum(m: np.ndarray, *, half: bool = False, members: bool = False) -> float:
    """``fsum`` over the walk of :func:`iter_sign_blocks` (same ``half`` and
    ``members``) of ``parity(x) * prod_i (Mx)_i``, where ``parity(x)`` is the
    product of the signs of ``x``, or ``(-1)**|S|`` for a member set ``S``."""
    plow = low_sign_parity(min(m.shape[1] - half, LOW_BITS))
    return math.fsum(
        parity * float(plow @ np.prod(y, axis=0))
        for y, _, parity in iter_sign_blocks(m, half=half, members=members)
    )


def modal_signed_sum(a: np.ndarray, group_tol: float) -> tuple[int, np.ndarray, int]:
    """Most frequent value of ``A @ x`` over ``x`` in ``{-1,+1}^m``.

    Values are grouped by rounding each coordinate to the ``group_tol`` grid,
    which is exact for integer-valued sums and a documented approximation
    otherwise.  Returns ``(count, representative, total)`` where the
    representative is the first vector seen in the winning group and ties
    between groups break to the lexicographically smallest grid key.

    Each block contributes its distinct keys, their counts and their first
    images; one ``np.unique`` over all blocks' keys, in walk order, merges them.
    """
    group_tol = check_fraction(group_tol, "group_tol")
    if float(np.abs(a).sum(axis=1).max()) / group_tol >= 2.0**53:
        raise PreconditionError(
            f"group_tol {group_tol!r} is too fine for sums of this size: grid keys would not be exact"
        )
    blocks = []
    for y, _, _ in iter_sign_blocks(a):
        keys = np.round(y.T / group_tol).astype(np.int64)
        uniq, first, cnt = np.unique(keys, axis=0, return_index=True, return_counts=True)
        blocks.append((uniq, cnt, y.T[first]))
    keys, counts, reps = (np.concatenate(part) for part in zip(*blocks))
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    totals = np.bincount(inverse.reshape(-1), weights=counts)
    best = int(np.argmax(totals))  # keys come sorted, so a tie goes to the smallest
    return int(totals[best]), reps[first[best]], 1 << a.shape[1]


def mc_rows(n: int) -> int:
    """Sample rows per Monte Carlo block, keeping each block's arrays around
    32 MB however wide the matrix is."""
    return max(1, min(MC_BLOCK, (1 << 22) // max(n, 1)))


def num_blocks(samples: int, block: int) -> int:
    return (samples + block - 1) // block


def block_rng(seed: int, index: int) -> np.random.Generator:
    """Independent Philox substream for one Monte Carlo block."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def sample_signs(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Sign bits of one Monte Carlo block, as an ``(n, rows)`` 0/1 ``uint8`` array.

    Bit 1 means the coordinate is -1.  Coordinate ``i`` takes its bits from
    row ``i`` of ``(n, ceil(rows/64))`` full-range ``uint64`` words, drawn in
    one call: sample ``r`` is bit ``r % 64`` of word ``r // 64``, counted
    from the least significant bit.  The words are read as little-endian
    bytes, so the bits do not depend on the platform's byte order.
    """
    words = rng.integers(0, 2**64 - 1, size=(n, -(-rows // 64)), endpoint=True, dtype=np.uint64)
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=rows, bitorder="little")


def map_sample_blocks(fn: Callable[[int, int], object], samples: int, n: int, threads: int = 1) -> list:
    """``fn(i, rows)`` for every Monte Carlo block of ``samples`` draws in
    ``n`` coordinates, in block order; block ``i`` holds ``rows`` samples,
    ``mc_rows(n)`` except in the last block."""
    block = mc_rows(n)
    return map_blocks(lambda i: fn(i, min(block, samples - i * block)), num_blocks(samples, block), threads)


def mc_sign_blocks(
    m: np.ndarray,
    samples: int,
    seed: int,
    stat: Callable[[np.ndarray, np.ndarray], object],
    threads: int = 1,
) -> list:
    """``stat(y, bits)`` for every block of uniform sign-vector samples, in
    block order.

    ``bits`` is the block's :func:`sample_signs` array and ``y`` the
    ``(rows_of_M, block_rows)`` image ``M @ (1 - 2*bits)``, computed as one
    matrix product ``[-2M | M 1] @ [bits; 1]`` into a scratch buffer owned
    by the pool thread; ``stat`` may overwrite ``y`` but not keep it.  Every
    block is drawn from its own substream and multiplied by itself, so the
    thread count never changes a number.
    """
    mrows, n = m.shape
    a = np.column_stack([-2.0 * m, m.sum(axis=1)])
    width = min(mc_rows(n), samples)  # the widest block
    scratch = threading.local()

    def one_block(i: int, rows: int):
        bits = sample_signs(block_rng(seed, i), rows, n)
        if not hasattr(scratch, "x"):
            scratch.x = np.ones((n + 1, width))  # the last row stays 1
            scratch.y = np.empty((mrows, width))
        x, y = scratch.x[:, :rows], scratch.y[:, :rows]
        x[:n] = bits
        np.matmul(a, x, out=y)
        return stat(y, bits)

    return map_sample_blocks(one_block, samples, n, threads)


def binomial_estimate(hits: int, samples: int) -> tuple[float, float]:
    """Hit fraction and its standard error ``sqrt(p(1-p)/samples)``."""
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def check_mode(mode: str, samples: int | None, seed: int | None) -> tuple[int, int] | None:
    """``None`` in exact mode, the checked ``(samples, seed)`` pair in mc mode."""
    if mode == "exact":
        return None
    if mode != "mc":
        raise PreconditionError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if samples is None or seed is None:
        raise PreconditionError("mc mode requires both samples and seed")
    return check_samples(samples), check_seed(seed)


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise PreconditionError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def check_samples(samples: int) -> int:
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool) or samples < 1:
        raise PreconditionError(f"samples must be a positive integer, got {samples!r}")
    return int(samples)


def map_blocks(fn: Callable[[int], object], nblocks: int, threads: int = 1) -> list:
    """Apply ``fn`` to block indices ``0..nblocks-1``, in-order results.

    With ``threads > 1`` blocks run on a thread pool; because every block owns
    its Philox substream and results are reduced in block order, the thread
    count never changes the outcome.
    """
    if not isinstance(threads, (int, np.integer)) or isinstance(threads, bool) or threads < 1:
        raise PreconditionError(f"threads must be a positive integer, got {threads!r}")
    if threads == 1 or nblocks <= 1:
        return [fn(i) for i in range(nblocks)]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, range(nblocks)))
