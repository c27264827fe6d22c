"""Blocked Gray-code enumeration kernel.

Every exhaustive statistic over ``{-1,+1}^n`` walks the hypercube through
:func:`iter_sign_blocks`: the low ``b`` coordinates form one vectorized block
of ``2**b`` columns whose image is computed once, and the remaining high
coordinates follow a reflected Gray code, each block adding the image of the
current high coordinates to that fixed low image.  Everything here is
deterministic: fixed block layout, fixed visit order, and (for the Monte
Carlo helpers) one counter-based Philox substream per block, which makes
results independent of how blocks are dispatched to threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from .core import CapacityError, ENUMERATION_CAP, PreconditionError

#: Coordinates handled as one vectorized block in exhaustive walks.
LOW_BITS = 12

#: Sample rows generated per Monte Carlo block.
MC_BLOCK = 1 << 16


def low_signs(b: int) -> np.ndarray:
    # column k holds the sign pattern of index k (bit set -> -1)
    k = np.arange(1 << b)
    bits = (k[None, :] >> np.arange(b)[:, None]) & 1
    return 1.0 - 2.0 * bits.astype(np.float64)


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


def modal_signed_sum(a: np.ndarray, group_tol: float) -> tuple[int, np.ndarray, int]:
    """Most frequent value of ``A @ x`` over ``x`` in ``{-1,+1}^m``.

    Values are grouped by rounding each coordinate to the ``group_tol`` grid,
    which is exact for integer-valued sums and a documented approximation
    otherwise.  Returns ``(count, representative, total)`` where the
    representative is the first vector seen in the winning group and ties
    between groups break to the lexicographically smallest grid key.
    """
    if group_tol <= 0.0:
        raise PreconditionError(f"group_tol must be positive, got {group_tol!r}")
    counts: dict[tuple, int] = {}
    reps: dict[tuple, np.ndarray] = {}
    total = 0
    for y, _, _ in iter_sign_blocks(a):
        total += y.shape[1]
        keys = np.round(y.T / group_tol).astype(np.int64)
        uniq, first, cnt = np.unique(keys, axis=0, return_index=True, return_counts=True)
        for row, fi, c in zip(uniq, first, cnt):
            key = tuple(int(v) for v in row)
            if key not in counts:
                counts[key] = 0
                reps[key] = y[:, fi].copy()
            counts[key] += int(c)
    best_count = max(counts.values())
    best_key = min(k for k, c in counts.items() if c == best_count)
    return best_count, reps[best_key], total


def mc_rows(n: int) -> int:
    """Sample rows per Monte Carlo block, keeping each block's arrays around
    32 MB however wide the matrix is."""
    return max(1, min(MC_BLOCK, (1 << 22) // max(n, 1)))


def num_blocks(samples: int, block: int = MC_BLOCK) -> int:
    return (samples + block - 1) // block


def block_rng(seed: int, index: int) -> np.random.Generator:
    """Independent Philox substream for one Monte Carlo block."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def sample_signs(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    bits = rng.integers(0, 2, size=(rows, n), dtype=np.int8)
    return 1.0 - 2.0 * bits.astype(np.float64)


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
