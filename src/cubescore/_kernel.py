"""Blocked enumeration and sampling kernels.

Every exhaustive statistic over ``{-1,+1}^n`` walks the hypercube through
:func:`sign_walk`: the low ``b`` coordinates form one vectorized block of
``2**b`` columns whose image is computed once, and each block adds the image
of the remaining high coordinates to that fixed low image.  Those images
are one table of offsets, one column per block.  Both tables are in natural
bitmask order and built by doubling, one coordinate at a time, without a
matrix product, so the walk's sums do not depend on the BLAS build or its
thread count.  :func:`iter_sign_blocks` forms every block of a walk densely.

Operations state a rule and the reducers here apply it: :func:`count_signs`
counts the vectors whose image satisfies a rule, over the half-cube walk or
over Monte Carlo samples, and :func:`half_cube_hits` finds them.  A
:class:`Window`, the rule ``max_r ||y_r| - center| <= tol``, lets the walk
skip the columns that cannot pass (:func:`_window_filter`).
:func:`parity_product_sum` sums ``parity(x) * prod_i (Mx)_i`` over the
walk, the shared core of Ryser's and Glynn's permanent formulas;
:func:`modal_signed_sum` finds the most frequent image, grouping equal grid
keys by :func:`group_rows`: a stable lexicographic sort of the rows and the
start of each run of equal rows.

Integer-valued sums skip the walk: :func:`integer_sum_counts` packs each
vector of sums ``A @ x`` into one ``int64`` key and doubles the set of keys
one coordinate at a time, which gives every distinct sum exactly and its
count.  :func:`modal_signed_sum` and the rank-one zero-sum count read their
answers from it, and take the walk only where it declines: a non-integral
entry, a row with ``sum_j |a_rj| >= 2**53``, a key range past ``int64``,
``n > 62`` or more than :data:`_INTEGER_STATES` states.  Past
:data:`RHO_N_CAP` columns :func:`modal_signed_sum` does not walk.
For a signed permutation plus an integer rank-one term,
:func:`rank_one_table` states which signs a :class:`Window` allows each
coordinate, per value of the rank-one term's sum;
:func:`rank_one_window_hits` counts the hits from the same histogram and
:func:`rank_one_mc_hits` decides Monte Carlo samples from their bits.
:func:`rank_one_product_table` decides ``prod_i |(Mx)_i| >= theta`` per
count of minus signs in each class of interchangeable coordinates, which
gives the exact count, and :func:`class_count_hits` decides Monte Carlo
samples by their counts.

Every Monte Carlo statistic over sign vectors draws its samples through
:func:`mc_bit_blocks`.  Samples come in blocks of :func:`mc_rows` rows,
each drawn from its own counter-based Philox substream (:func:`block_rng`).
A block's signs are packed bits (:func:`sample_signs`): full-range
``uint64`` words read as little-endian bytes and unpacked low bit first, so
one word gives 64 samples of one coordinate on any platform.  The dense
engine, :func:`mc_sign_blocks`, forms the block's image ``M @ x`` as the
matrix product of ``[-2M | M 1]`` with the bits and a row of ones, into a
scratch buffer that its reducer then overwrites in place;
:func:`rank_one_mc_hits` and :func:`class_count_hits` form no image.
Everything here is deterministic: fixed block layout, fixed visit order,
per-block substreams, and products whose sums do not depend on OpenBLAS's
thread count, which make results independent of how blocks are dispatched
to threads.  While a thread pool runs, OpenBLAS runs single-threaded
(:func:`_single_threaded_blas`), so the two kinds of thread do not compete
for the same cores.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import dataclasses
import functools
import itertools
import math
import os
import threading
from typing import Callable, Iterator

import numpy as np

from .core import CapacityError, ENUMERATION_CAP, PreconditionError, check_fraction, check_int, check_seed

#: Coordinates handled as one vectorized block in exhaustive walks.
LOW_BITS = 12

#: The sorted-window filter runs when the columns it checks are at most
#: this share of the half-cube; denser candidates take the dense walk.
_FILTER_SHARE = 1 / 8

#: Walk columns whose images rank the rows as filter rows.
_FILTER_SAMPLE = 1024

#: Candidate columns checked per batch by the window filter.
_FILTER_BATCH = 1 << 15

#: States that :func:`integer_sum_counts` keeps at most, ``min(P, 2**n)``:
#: a dense count per key, or one key per sign vector; beyond it the walk runs.
_INTEGER_STATES = 1 << 20

#: Columns up to which :func:`modal_signed_sum` walks the cube when the
#: integer reducer declines.
RHO_N_CAP = 24

#: Sample rows generated per Monte Carlo block.
MC_BLOCK = 1 << 16

#: Columns of ``[-2M | M 1]`` per matrix product in a Monte Carlo block.
#: OpenBLAS sums a product of at most its K block (256 or more on common
#: kernels) in one pass, but splits a deeper one by its thread count.
_MC_DEPTH = 256


def sign_walk(m: np.ndarray, *, half: bool = False, members: bool = False
              ) -> tuple[np.ndarray, np.ndarray]:
    """The walk over ``M @ x`` for all x: a fixed low image and a table of
    per-block offsets.

    Returns ``(low, offsets)``.  ``low`` has shape ``(rows, 2**b)``, ``b`` at
    most :data:`LOW_BITS`; its column ``c`` is the image of the low
    coordinates with bitmask ``c`` (bit set means -1).  ``offsets`` has shape
    ``(rows, nblocks)``; its column ``k`` is the image of the high
    coordinates with bitmask ``k``, so ``low[:, c] + offsets[:, k]`` is
    ``M @ x`` for the vector with bitmask ``(k << b) | c``.

    ``half=True`` walks only the vectors whose last coordinate is +1, one of
    each pair ``{x, -x}``.  ``members=True`` replaces every sign ``1 - 2*bit``
    by the 0/1 membership ``bit``, so the images are column subset sums.

    Both tables come from :func:`_doubling`; a half walk's fixed last
    coordinate then adds its clear value to every offset.  Each entry is
    thus a left-to-right sum over its coordinates: exact to one direct
    product's error bound however long the walk, and the same on any BLAS
    build or thread count.  The offsets take ``8 * rows * nblocks``
    bytes, 31 MB for a 30-row half walk at n=30.
    """
    n = m.shape[1]
    if n > ENUMERATION_CAP:
        raise CapacityError(f"exhaustive enumeration is capped at n={ENUMERATION_CAP}, got {n}")
    walked = n - 1 if half else n
    b = min(walked, LOW_BITS)
    clear, flip = (0.0, 1.0) if members else (1.0, -1.0)
    low = _doubling(m[:, :b], clear, flip)
    offsets = _doubling(m[:, b:walked], clear, flip)
    if half:
        offsets += clear * m[:, -1, None]  # the fixed last coordinate
    return low, offsets


def _doubling(a: np.ndarray, clear: float, flip: float) -> np.ndarray:
    """Per bitmask ``k`` of ``a``'s columns, column ``k``: the sum over
    ``j`` of ``flip`` (bit ``j`` set) or ``clear`` times column ``j``.  For
    each ``j`` in order, the new upper half is the lower half plus ``flip``
    times column ``j``, then the lower half adds ``clear`` times it."""
    table = np.zeros((a.shape[0], 1 << a.shape[1]))
    for j in range(a.shape[1]):
        size = 1 << j
        np.add(table[:, :size], flip * a[:, j, None], out=table[:, size:2 * size])
        table[:, :size] += clear * a[:, j, None]
    return table


def iter_sign_blocks(low: np.ndarray, offsets: np.ndarray) -> Iterator[tuple[np.ndarray, int, int]]:
    """Yield ``(y, k, high_parity)`` blocks covering a :func:`sign_walk`.

    Block ``k`` is ``y = low + offsets[:, k]``, whose column ``c`` is
    ``M @ x`` for the sign vector with bitmask ``(k << b) | c``, and
    ``high_parity = (-1)**popcount(k)`` is the product of its high signs.
    ``y`` is one scratch buffer rewritten at each step; consumers may
    overwrite it but must finish with a block before advancing.
    """
    y = np.empty_like(low)
    # row by row: adding a scalar to a contiguous row is about twice as fast
    # as numpy's broadcast of a (rows, 1) column over the block
    row_pairs = list(zip(low, y))
    for k in range(offsets.shape[1]):
        for (lo, out), o in zip(row_pairs, offsets[:, k].tolist()):
            np.add(lo, o, out=out)
        yield y, k, -1 if k.bit_count() & 1 else 1


@dataclasses.dataclass(frozen=True)
class Window:
    """The hit rule ``max_r ||y_r| - center| <= tol``, applied in place: a
    call overwrites the image block ``y`` with its :meth:`distance` and
    returns the mask of the columns that pass."""

    center: float
    tol: float

    def distance(self, y: np.ndarray) -> np.ndarray:
        """``||y| - center|``, in place of ``y``."""
        np.abs(y, out=y)
        np.subtract(y, self.center, out=y)
        return np.abs(y, out=y)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.distance(y).max(axis=0) <= self.tol


def count_signs(m: np.ndarray, hit: Callable, mode: str = "exact", samples: int | None = None,
                seed: int | None = None, threads: int = 1,
                mc_hits: Callable[[int, int, int], int | None] | None = None) -> tuple[int, int, float]:
    """``(hits, total, stderr)`` for the sign vectors whose image satisfies ``hit``.

    ``hit(y)`` maps an image block ``y`` (one column per vector; it may be
    overwritten) to a boolean mask over its columns, by a rule invariant under
    ``x -> -x``.  Exact mode doubles the :func:`half_cube_hits` count
    (``stderr`` 0); mc mode counts ``samples`` seeded draws of
    :func:`mc_sign_blocks`.  There ``mc_hits(samples, seed, threads)``, once
    those are checked, may give that count without the images, or ``None``
    for the engine to count it.
    """
    draws = check_mode(mode, samples, seed, threads)
    if draws is None:
        return 2 * half_cube_hits(m, hit), 1 << m.shape[1], 0.0
    samples, seed, threads = draws
    hits = None if mc_hits is None else mc_hits(samples, seed, threads)
    if hits is None:
        hits = int(sum(mc_sign_blocks(m, samples, seed, lambda y, _: int(np.count_nonzero(hit(y))), threads)))
    return hits, samples, binomial_estimate(hits, samples)[1]


def half_cube_hits(m: np.ndarray, hit: Callable, *, indices: bool = False):
    """Hits of ``hit`` among the vectors whose last coordinate is +1: their
    count, or with ``indices=True`` their ``int64`` bitmasks in no set order.

    The walk is built once; a :class:`Window` rule may check only its
    columns that can pass (:func:`_window_filter`), and the hits are the same
    either way.
    """
    walk = sign_walk(m, half=True)
    found = _window_filter(*walk, hit, indices) if isinstance(hit, Window) else None
    if found is None:
        found = []
        for y, k, _ in iter_sign_blocks(*walk):
            mask = hit(y)
            found.append(k * mask.size + np.flatnonzero(mask) if indices else int(np.count_nonzero(mask)))
    return np.concatenate(found).astype(np.int64) if indices else sum(found)


def _window_filter(low: np.ndarray, offsets: np.ndarray, window: Window, indices: bool) -> list | None:
    """:func:`half_cube_hits` over the half walk ``(low, offsets)`` through
    a sorted-window filter, as a list of counts or bitmask arrays to add up,
    or ``None`` where the dense walk is cheaper.

    A coordinate ``r`` of a hit is ``low[r, c] + offset[r]`` and lies within
    ``tol`` of ``-center`` or ``+center``.  With row ``r`` of the low image
    sorted, each block's offset gives the only columns that can pass that
    row: one window around each of those centers minus ``offset[r]``, found
    by ``searchsorted`` and widened by a few ulps of the operands (the
    Horowitz-Sahni split, *J. ACM* 21:277, 1974).  The rule then decides
    those columns alone, on the same float sums that the dense walk forms,
    so the hits are identical.  For a one-row matrix the columns inside the
    window narrowed by those ulps pass for certain: they are counted, and
    only the columns at its edges are checked.

    The filter row is the one with the fewest images near a center among a
    fixed sample of the walk's own columns.  When that share, or the exact
    share of columns left to check, exceeds ``_FILTER_SHARE`` of the walk,
    the dense walk is cheaper and the answer is ``None``.
    """
    rows, width = low.shape
    nblocks = offsets.shape[1]
    total = width * nblocks
    tol = window.tol
    centers = sorted({window.center, -window.center})
    row = 0
    if rows > 1:
        # the share of a fixed spread of walk positions near a center ranks
        # the rows (an odd multiplier permutes the positions)
        spread = np.arange(min(_FILTER_SAMPLE, total)) * 0x9E3779B1 % total
        y = low[:, spread % width] + offsets[:, spread // width]
        share = (window.distance(y) <= tol).mean(axis=1)
        row = int(np.argmin(share))
        if share[row] > _FILTER_SHARE:
            return None
    order = np.argsort(low[row])
    bounds = _window_bounds(low[row, order], offsets[row], centers, tol, rows == 1)
    # each center's window is [i0, i1) [i1, j1) [j1, j0): edge, certain, edge
    begin, end = bounds[:, 0::2], bounds[:, 1::2]
    done = np.cumsum((end - begin).sum(axis=1))  # edge columns up to each block
    if done[-1] > _FILTER_SHARE * total:
        return None
    certain = bounds[:, 1::4], bounds[:, 2::4]
    if indices:
        block, pos = _ranges(*certain)
        found = [block * width + order[pos]]
    else:
        found = [int((certain[1] - certain[0]).sum())]
    cuts = np.searchsorted(done, np.arange(_FILTER_BATCH, done[-1], _FILTER_BATCH), "right")
    for k0, k1 in itertools.pairwise(sorted({0, *cuts.tolist(), nblocks})):
        block, pos = _ranges(begin[k0:k1], end[k0:k1])
        if pos.size:
            block += k0
            cols = order[pos]
            y = low[:, cols]
            y += offsets[:, block]
            mask = window(y)
            found.append(block[mask] * width + cols[mask] if indices else int(np.count_nonzero(mask)))
    return found


def _window_bounds(srow: np.ndarray, offset: np.ndarray, centers: list[float], tol: float,
                   certain: bool) -> np.ndarray:
    """Per block, ``[i0, i1, j1, j0]`` for each center in ascending order:
    the columns ``[i0, j0)`` of the sorted row ``srow`` are the only ones
    whose sum with the block's ``offset`` can lie within ``tol`` of the
    center, and with ``certain`` those in ``[i1, j1)`` surely do (otherwise
    ``i1 = j1 = j0``).  The bounds never decrease along a block, so no
    column falls in two ranges.

    The window is widened, and the certain range narrowed, by eight ulps of
    the largest operand: ``srow + offset``, the subtraction of the center,
    the bounds' own arithmetic and the window's rounding each err by at most
    half an ulp of it.  Overflow needs no special case: an infinite slack
    makes every column a candidate and none certain, and a nan bound, which
    only a non-finite offset gives, sorts past every column; then every sum
    of the block is non-finite and passes no window anyway.
    """
    slack = 8 * np.finfo(float).eps * (np.abs(srow).max() + np.abs(offset) + max(map(abs, centers)) + tol)
    mid = np.subtract.outer(centers, offset)
    i0, i1 = np.searchsorted(srow, [mid - tol - slack, mid - tol + slack], "left")
    j1, j0 = np.searchsorted(srow, [mid + tol - slack, mid + tol + slack], "right")
    if not certain:
        i1 = j1 = j0
    bounds = np.stack([i0, i1, j1, j0], axis=2).transpose(1, 0, 2).reshape(offset.size, -1)
    return np.maximum.accumulate(bounds, axis=1)


def _ranges(begin: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position in the ranges ``[begin, end)``, two ``(blocks, k)``
    arrays, block by block, and the block each position belongs to."""
    lens = (end - begin).ravel()
    owner = np.repeat(np.arange(lens.size), lens)
    pos = np.arange(owner.size) + np.repeat(begin.ravel() - (np.cumsum(lens) - lens), lens)
    return owner // begin.shape[1], pos


def rank_one_window_hits(w: np.ndarray, v: np.ndarray, b: np.ndarray, window: Window) -> int | None:
    """Hits of ``window`` over all of ``{-1,+1}^n`` for the split ``(w, v,
    b)`` without the walk, or ``None`` where :func:`rank_one_table` declines.

    The hits with a live value of ``z = v . x`` are the sign choices with
    ``v . x = z``, read from the histogram of the coordinates free to take
    either sign.  One histogram serves every ``z`` with the same free
    coordinates.
    """
    table = rank_one_table(w, v, b, window)
    if table is None:
        return None
    z, plus, minus = table
    # the free coordinates must sum to z less the sum of the fixed ones
    target = z - (plus.astype(np.int64) - minus) @ v
    hits = 0
    masks, group = np.unique(plus & minus, axis=0, return_inverse=True)
    for g, mask in enumerate(masks):
        sums, counts = integer_sum_counts(v[None, mask])
        want = target[group.ravel() == g]
        at = np.minimum(np.searchsorted(sums[:, 0], want), sums.shape[0] - 1)
        hits += int(counts[at][sums[at, 0] == want].sum())
    return hits


def rank_one_table(w: np.ndarray, v: np.ndarray, b: np.ndarray,
                   window: Window) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The signs that ``window`` allows each coordinate, per value of ``z =
    v . x``, for the split ``(w, v, b)``; ``None`` where it declines.

    The row holding coordinate ``j`` has ``|(Mx)_i| = |x_j + w_j z|``, so for
    each value of ``z`` that :func:`integer_sum_counts` finds, the window
    decides which signs each coordinate may take.  Returns ``(z, plus,
    minus)`` for the live values alone, those where every coordinate may
    take some sign: ``plus[k, j]`` (``minus[k, j]``) says whether coordinate
    ``j`` may be +1 (-1) when ``v . x = z[k]``.  A vector is a hit exactly
    when its ``z`` is live and each of its signs is allowed.

    Where any distance lies within ``b_j`` of ``tol`` the answer is
    ``None``, so every vector is decided as the walk or
    :func:`mc_sign_blocks` decides it.  It is also ``None`` where the
    histogram declines or the table of distances, one per value of ``z`` and
    coordinate, would pass :data:`_INTEGER_STATES` entries.
    """
    found = integer_sum_counts(v[None, :])
    if found is None or found[0].size * v.size > _INTEGER_STATES:
        return None
    z = found[0][:, 0]
    shift = np.multiply.outer(z.astype(float), w)
    dist = np.stack([window.distance(shift + 1.0), window.distance(shift - 1.0)])  # x_j = +1, -1
    if np.any(np.abs(dist - window.tol) <= b):
        return None
    plus, minus = dist <= window.tol  # coordinate j may be +1, -1
    live = (plus | minus).all(axis=1)
    return z[live], plus[live], minus[live]


def rank_one_mc_hits(w: np.ndarray, v: np.ndarray, b: np.ndarray, window: Window, samples: int, seed: int,
                     threads: int = 1) -> int | None:
    """Hits of ``window`` among the Monte Carlo samples of the split ``(w,
    v, b)``, decided from each sample's sign bits, or ``None`` where it
    declines.

    The samples are :func:`mc_sign_blocks`' draws, and :func:`rank_one_table`
    decides each one as that engine's product and ``window`` would, so the
    count is the engine's for every seed, sample count and thread count.
    Per block, ``z = v . x`` comes from per-weight sums of bit rows.  A live
    ``z`` whose coordinates are all free counts the samples with that ``z``;
    another checks its fixed coordinates on those samples alone.  Each live
    ``z`` costs a pass over the block, and more of them than ``8 n`` decline
    to the engine: timed at ``n`` = 8 to 62 over ``2**20`` samples on one
    thread of a 2-core Xeon, this path was at least 1.2 times as fast up to
    ``10 n`` live values, and the engine overtook it past about ``18 n``
    where most of them fix a coordinate, ``30 n`` where none does.
    """
    table = rank_one_table(w, v, b, window)
    if table is None or table[0].size > 8 * v.size:
        return None
    zs, plus, minus = table
    n = v.size
    # a sample's z is v . (1 - 2 bits) = sum(v) - 2 q with q = v . bits, and
    # q and every partial sum of it lie in [-sum|v|, sum|v|]: the smallest
    # signed type holding -sum|v| - 1 holds +sum|v| too
    key = np.min_scalar_type(-int(np.abs(v).sum()) - 1)
    weights = [(key.type(c), np.flatnonzero(v == c)) for c in sorted(set(v.tolist()) - {0})]
    total = int(v.sum())
    live = []  # per live z: its q, the coordinates with one allowed sign and the bit each needs
    for k, z in enumerate(zs.tolist()):
        fixed = np.flatnonzero(plus[k] != minus[k])
        live.append(((total - z) // 2, fixed, minus[k, fixed, None]))

    def block_hits(bits: np.ndarray) -> int:
        q = np.zeros(bits.shape[1], key)
        for weight, rows in weights:
            q += (bits if rows.size == n else bits[rows]).sum(axis=0, dtype=np.uint8).astype(key) * weight
        hits = 0
        for qk, fixed, need in live:
            if fixed.size == 0:
                hits += int(np.count_nonzero(q == qk))
            else:
                at = np.flatnonzero(q == qk)
                hits += int(np.count_nonzero((bits[np.ix_(fixed, at)] == need).all(axis=0)))
        return hits

    return int(sum(mc_bit_blocks(samples, n, seed, block_hits, threads)))


def rank_one_classes(w: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """The coordinates of each class of :func:`rank_one_product_table`, in
    :func:`group_rows` order: coordinates with equal ``(v_j, w_j)``."""
    order, starts = group_rows(np.column_stack([v.astype(float), w]))
    return np.split(order, starts[1:])


def rank_one_product_table(classes: list[np.ndarray], w: np.ndarray, v: np.ndarray, b: np.ndarray,
                           theta: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Whether ``prod_i |(Mx)_i| >= theta`` for the split ``(w, v, b)``, per
    count of minus signs in each class of coordinates; ``None`` where it
    declines.

    With ``z = v . x``, ``|(Mx)_i|`` is ``|1 + w_j z|`` where ``x_j = +1``
    and ``|1 - w_j z|`` where ``x_j = -1``, so coordinates with equal ``(v_j,
    w_j)`` form one class and may be swapped freely; ``classes`` holds each
    class's coordinates (:func:`rank_one_classes`).  Taking ``k_c`` minus
    signs among the ``n_c`` coordinates of each class ``c`` gives ``z =
    sum_c v_c (n_c - 2 k_c)``, the product ``prod_c |1 + w_c z|^(n_c - k_c)
    |1 - w_c z|^k_c``, and ``prod_c C(n_c, k_c)`` vectors.

    Returns ``(hit, counts)``: per choice of the ``k_c``, whether its product
    clears ``theta`` and how many vectors make it.  Choice ``(k_c)`` has the
    mixed-radix index whose digit ``k_c`` has radix ``n_c + 1``, the first
    class most significant.

    Each choice is decided on an interval that holds the product that the
    walk or :func:`mc_sign_blocks`' images give every vector making it.
    Where ``theta`` lies in any interval, the walk's product would need
    deciding vector by vector, and the answer is ``None``.  It is also
    ``None`` where the table's factors, one per choice and coordinate, would
    pass :data:`_INTEGER_STATES`, or the products could overflow.
    """
    # The walk (or the block product) forms each |y_i| within b_j of the
    # |1 +- w_j z| evaluated here, so its factors lie in [lo_i, hi_i] = [|y| -
    # b, |y| + b], b the class's largest bound, and in exact arithmetic their
    # product lies in [prod lo_i, prod hi_i].  Each product of n factors
    # rounds n - 1 times, in any order: relative error (1 + eps/2)^(n - 1),
    # plus, where a partial product falls below tiny, an absolute error of at
    # most half the smallest subnormal, tiny eps / 2, times the factors that
    # multiply it later.  Every product of a subset of the factors lies below prod_i
    # max(hi_i, 1), and so below umax = prod_c (1 + |w_c| sum|v| + b_c)^n_c,
    # as |z| <= sum|v|; those errors add at most n tiny eps / 2 umax (1 +
    # eps/2)^(n + 2).  The ends computed here round each factor lo_i or hi_i
    # once and multiply n - 1 times, also left to right.  So with r = 2 (n +
    # 1) eps, which covers (1 + eps/2)^(3n + 3) - 1, and a = 2 n tiny eps
    # umax, which covers both products' subnormal errors and umax's own
    # rounding, the walk's product lies in [prod lo (1 - r) - a, prod hi (1 +
    # r) + a].  With 2 umax finite no partial product overflows.
    n = v.size
    sizes = [c.size for c in classes]
    choices = math.prod(s + 1 for s in sizes)
    if not counts_fit(n) or choices * n > _INTEGER_STATES:
        return None
    first = [int(c[0]) for c in classes]
    reach = [float(b[c].max()) for c in classes]  # each class's largest bound
    span = float(np.abs(v).sum())
    umax = 1.0
    for j, s, bc in zip(first, sizes, reach):
        for _ in range(s):
            umax *= 1.0 + abs(w[j]) * span + bc  # a Python float: inf on overflow
    if not math.isfinite(2.0 * umax):
        return None
    rest, minus = np.arange(choices), []  # per class, k_c of each choice
    for s in reversed(sizes):
        rest, k = np.divmod(rest, s + 1)
        minus.insert(0, k)
    z = sum(int(v[j]) * (s - 2 * k) for j, s, k in zip(first, sizes, minus)).astype(float)
    counts = np.ones(choices, np.int64)
    low, high = np.ones(choices), np.ones(choices)
    for j, s, bc, k in zip(first, sizes, reach, minus):
        counts *= np.array([math.comb(s, i) for i in range(s + 1)])[k]
        shift = w[j] * z
        ends = []
        for y in (np.abs(shift + 1.0), np.abs(shift - 1.0)):  # x_j = +1, -1
            ends += [np.maximum(y - bc, 0.0), y + bc]
        lo_plus, hi_plus, lo_minus, hi_minus = ends
        for e in range(s):  # the class's first k_c factors are its minus signs
            sign = e < k
            low *= np.where(sign, lo_minus, lo_plus)
            high *= np.where(sign, hi_minus, hi_plus)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    r, a = 2 * (n + 1) * eps, 2 * n * umax * (tiny * eps)
    low, high = low * (1.0 - r) - a, high * (1.0 + r) + a
    if np.any((low <= theta) & (theta <= high)):
        return None
    return low > theta, counts


def class_count_hits(classes: list[np.ndarray], hit: np.ndarray, samples: int, seed: int,
                     threads: int = 1) -> int:
    """How many of :func:`mc_bit_blocks`' samples make a choice that ``hit``
    marks, for :func:`rank_one_product_table`'s ``classes`` and ``hit``.

    Per block, each class's bit rows sum to its count of minus signs, and
    those counts form the choice's mixed-radix index.
    """
    n = sum(coords.size for coords in classes)
    # the index type holds every index and every partial one, and every
    # radix: a lone class's n + 1 <= 63 fits uint8, any other's is at most
    # hit.size / 2; a class's count, at most 62, fits the uint8 sum
    index = np.min_scalar_type(hit.size - 1)

    def block_hits(bits: np.ndarray) -> int:
        key = np.zeros(bits.shape[1], index)
        for coords in classes:
            key *= coords.size + 1
            key += (bits if coords.size == n else bits[coords]).sum(axis=0, dtype=np.uint8)
        return int(np.count_nonzero(hit.take(key)))

    return int(sum(mc_bit_blocks(samples, n, seed, block_hits, threads)))


def parity_product_sum(m: np.ndarray, *, half: bool = False, members: bool = False) -> float:
    """``fsum`` over the walk of :func:`sign_walk` (same ``half`` and
    ``members``) of ``parity(x) * prod_i (Mx)_i``, where ``parity(x)`` is the
    product of the signs of ``x``, or ``(-1)**|S|`` for a member set ``S``."""
    low, offsets = sign_walk(m, half=half, members=members)
    plow = np.ones(1)  # entry c: (-1)**(bits set in c), by sign doubling
    while plow.size < low.shape[1]:
        plow = np.concatenate([plow, -plow])
    return math.fsum(
        parity * float(plow @ np.prod(y, axis=0)) for y, _, parity in iter_sign_blocks(low, offsets)
    )


def counts_fit(n: int) -> bool:
    """Whether :func:`integer_sum_counts` may take ``n`` columns: a count
    reaches ``2**n``, past ``int64`` when ``n > 62``."""
    return n <= 62


def integer_sum_counts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Every distinct value of ``A @ x`` over ``x`` in ``{-1,+1}^n``, exactly,
    for an integer-valued ``(d, n)`` array ``A``; ``None`` when it declines.

    Returns ``(sums, counts)``: the distinct sums as a ``(k, d)`` ``int64``
    array in lexicographic order, row 0 most significant, and how many ``x``
    reach each (:func:`_sum_keys`, unpacked).
    """
    found = _sum_keys(a)
    if found is None:
        return None
    keys, counts, radix, span = found
    return _unpack_sums(keys, radix, span), counts


def _sum_keys(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int], list[int]] | None:
    """:func:`integer_sum_counts` with each sum still packed in its key:
    ``(keys, counts, radix, span)``, or ``None`` when it declines.

    A sum vector packs into one ``int64`` key: row ``r`` is offset by
    ``S_r = sum_j |a_rj|`` and has radix ``2 S_r + 1``, row 0 most
    significant, so key order is lexicographic order.  Starting from ``x =
    1``, coordinate ``j`` doubles the states: the old ones and the old ones
    shifted by ``-2 packed(a_j)``.  When the key range ``P`` is at most
    ``2**n`` the states are a dense count per key.  Otherwise they are the
    ``2**n`` keys themselves, and one sort groups them.

    Declines non-integral entries, ``S_r >= 2**53`` (where float sums stop
    being exact), a ``P`` past ``int64``, ``n > 62`` (counts past
    ``int64``) and ``min(P, 2**n)`` above :data:`_INTEGER_STATES`.
    """
    d, n = a.shape
    span = np.abs(a).sum(axis=1)
    if not counts_fit(n) or not np.all(a == np.round(a)) or span.max() >= 2.0**53:
        return None
    span = [int(s) for s in span]
    radix = [2 * s + 1 for s in span]
    size = math.prod(radix)
    if size >= 1 << 63 or min(size, 1 << n) > _INTEGER_STATES:
        return None
    weight = np.array([math.prod(radix[r + 1:]) for r in range(d)])
    step = (weight @ a.astype(np.int64)).tolist()
    start = (size - 1) // 2 + sum(step)  # the zero sum packs to (size - 1) // 2
    if size <= 1 << n:
        counts = np.zeros(size, np.int64)
        counts[start] = 1
        for s in step:
            # old key k + 2s moves to k; the shift stays inside [0, size)
            src, dst = (slice(2 * s, None), slice(None, size - 2 * s)) if s >= 0 else \
                       (slice(None, size + 2 * s), slice(-2 * s, None))
            counts[dst] += counts[src]
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    else:
        raw = np.array([start])
        for s in step:
            raw = np.concatenate([raw, raw - 2 * s])
        keys, counts = np.unique(raw, return_counts=True)
    return keys, counts, radix, span


def _unpack_sums(keys: np.ndarray, radix: list[int], span: list[int]) -> np.ndarray:
    """The ``(k, d)`` sums that :func:`_sum_keys` packed into ``keys``."""
    sums = np.empty((keys.size, len(radix)), np.int64)
    for r in reversed(range(len(radix))):
        high = keys // radix[r]
        sums[:, r] = keys - high * radix[r] - span[r]
        keys = high
    return sums


def modal_signed_sum(a: np.ndarray, group_tol: float) -> tuple[int, np.ndarray, int]:
    """Most frequent value of ``A @ x`` over ``x`` in ``{-1,+1}^m``.

    Values are grouped by rounding each coordinate to the ``group_tol`` grid,
    which is exact for integer-valued sums and a documented approximation
    otherwise.  Returns ``(count, representative, total)`` where the
    representative is the image of the smallest bitmask in the winning group
    and ties between groups break to the lexicographically smallest grid key.

    Integer-valued ``A`` goes through :func:`integer_sum_counts` where it
    takes it.  Every sum of ``+-a_rj`` has the parity of ``S_r``, so
    distinct sums differ by at least 2 in some row, and below ``2**53`` the
    grid quotient errs by at most 1/2: each grid cell holds one exact sum,
    which is its own representative, and the reducer's groups, counts,
    order and float images are the walk's.  Otherwise the walk runs,
    refused with :class:`CapacityError` past :data:`RHO_N_CAP` columns:
    each block contributes its distinct keys, their counts and their images
    of smallest bitmask; one stable :func:`group_rows` over all blocks'
    keys, in block order, merges them.
    """
    group_tol = check_fraction(group_tol, "group_tol")
    found = _sum_keys(a)
    if found is not None:
        keys, counts, radix, span = found
        # raises where the walk's keys would: row r's largest |sum| is S_r
        grid_keys(np.abs(a).sum(axis=1), group_tol)
        best = int(np.argmax(counts))  # keys come sorted, so a tie goes to the smallest sum
        # only the modal sum is unpacked, not a (k, d) array of all of them
        mode = _unpack_sums(keys[best : best + 1], radix, span)[0]
        return int(counts[best]), mode.astype(float), 1 << a.shape[1]
    if a.shape[1] > RHO_N_CAP:
        raise CapacityError(
            f"the walk over signed sums is capped at n={RHO_N_CAP}, got {a.shape[1]}; only integer"
            f" entries whose exact sums fit {_INTEGER_STATES} states go beyond it"
        )
    blocks = []
    for y, _, _ in iter_sign_blocks(*sign_walk(a)):
        keys = grid_keys(y.T, group_tol)
        order, starts = group_rows(keys)
        first = order[starts]
        blocks.append((keys[first], np.diff(starts, append=order.size), y.T[first]))
    keys, counts, reps = (np.concatenate(part) for part in zip(*blocks))
    order, starts = group_rows(keys)
    totals = np.add.reduceat(counts[order], starts)
    best = int(np.argmax(totals))  # groups come sorted, so a tie goes to the smallest key
    return int(totals[best]), reps[order[starts[best]]], 1 << a.shape[1]


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: ``order`` sorts the rows of the 2-D ``keys``
    lexicographically, first column most significant and equal rows in their
    given order, and ``starts`` marks where each run of equal rows begins."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    return order, np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])


def grid_keys(values: np.ndarray, group_tol: float) -> np.ndarray:
    """``values`` rounded to the ``group_tol`` grid, as ``int64`` keys.

    Raises :class:`PreconditionError` when a key would reach ``2**53``,
    beyond which neither the quotient nor the cast to ``int64`` is exact.
    """
    if float(np.abs(values).max()) / group_tol >= 2.0**53:
        raise PreconditionError(
            f"group_tol {group_tol!r} is too fine for sums of this size: grid keys would not be exact"
        )
    return np.round(values / group_tol).astype(np.int64)


def mc_rows(n: int) -> int:
    """Sample rows per Monte Carlo block, keeping each block's arrays around
    32 MB however wide the matrix is."""
    return max(1, min(MC_BLOCK, (1 << 22) // max(n, 1)))


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
    return map_blocks(lambda i: fn(i, min(block, samples - i * block)), -(-samples // block), threads)


def mc_bit_blocks(samples: int, n: int, seed: int, stat: Callable[[np.ndarray], object],
                  threads: int = 1) -> list:
    """``stat(bits)`` for every block of ``samples`` uniform sign-vector
    samples in ``n`` coordinates, in block order: ``bits`` is the block's
    :func:`sample_signs` array, drawn from its own substream
    (:func:`block_rng`)."""
    def one_block(i: int, rows: int):
        return stat(sample_signs(block_rng(seed, i), rows, n))

    return map_sample_blocks(one_block, samples, n, threads)


def mc_sign_blocks(
    m: np.ndarray,
    samples: int,
    seed: int,
    stat: Callable[[np.ndarray, np.ndarray], object],
    threads: int = 1,
) -> list:
    """``stat(y, bits)`` for every block of :func:`mc_bit_blocks`, in block
    order.

    ``y`` is the ``(rows_of_M, block_rows)`` image ``M @ (1 - 2*bits)``,
    computed as the matrix product ``[-2M | M 1] @ [bits; 1]`` into a
    scratch buffer owned by the pool thread; ``stat`` may overwrite ``y``
    but not keep it.  Every block is drawn from its own substream and
    multiplied by itself, so the thread count never changes a number.

    The product does not depend on OpenBLAS's own thread count either, which
    is lower inside a thread pool: it covers whole 64-sample words, because
    OpenBLAS sums a ragged last few columns differently when threaded, and
    it takes ``_MC_DEPTH`` columns of ``[-2M | M 1]`` at a time.
    """
    mrows, n = m.shape
    a = np.column_stack([-2.0 * m, m.sum(axis=1)])
    width = -(-min(mc_rows(n), samples) // 64) * 64  # the widest block, in whole words
    scratch = threading.local()

    def one_block(bits: np.ndarray):
        if not hasattr(scratch, "x"):
            scratch.x = np.ones((n + 1, width))  # the last row stays 1
            scratch.y = np.empty((mrows, width))
            scratch.part = np.empty((mrows, width)) if n >= _MC_DEPTH else None
        rows = bits.shape[1]
        cols = -(-rows // 64) * 64  # whole words; the columns past rows hold finite leftovers
        x, y = scratch.x[:, :cols], scratch.y[:, :cols]
        x[:n, :rows] = bits
        np.matmul(a[:, :_MC_DEPTH], x[:_MC_DEPTH], out=y)
        for k in range(_MC_DEPTH, n + 1, _MC_DEPTH):
            part = scratch.part[:, :cols]
            np.matmul(a[:, k : k + _MC_DEPTH], x[k : k + _MC_DEPTH], out=part)
            y += part
        return stat(y[:, :rows], bits)

    return mc_bit_blocks(samples, n, seed, one_block, threads)


def binomial_estimate(hits: int, samples: int) -> tuple[float, float]:
    """Hit fraction and its standard error ``sqrt(p(1-p)/samples)``."""
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def check_mode(mode: str, samples: int | None, seed: int | None, threads: int) -> tuple[int, int, int] | None:
    """``None`` in exact mode, the checked ``(samples, seed, threads)`` in mc
    mode.  Either way ``threads``, and ``samples`` and ``seed`` where given,
    must pass their checks, before any work is done."""
    if mode not in ("exact", "mc"):
        raise PreconditionError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if mode == "mc" and (samples is None or seed is None):
        raise PreconditionError("mc mode requires both samples and seed")
    samples = None if samples is None else check_int(samples, "samples", 1)
    seed = None if seed is None else check_seed(seed)
    threads = check_int(threads, "threads", 1)
    return (samples, seed, threads) if mode == "mc" else None


def map_blocks(fn: Callable[[int], object], nblocks: int, threads: int = 1) -> list:
    """Apply ``fn`` to block indices ``0..nblocks-1``, in-order results.

    With ``threads > 1`` blocks run on a thread pool, with OpenBLAS
    single-threaded for the pool's lifetime; because every block owns its
    Philox substream and results are reduced in block order, the thread
    count never changes the outcome.  ``threads`` is an upper bound: each
    worker keeps its own scratch, so at most ``min(threads, nblocks, usable
    CPUs)`` start.  Each block runs in a copy of the caller's context, so
    the caller's ``np.errstate`` holds there too.
    """
    if threads == 1 or nblocks <= 1:
        return [fn(i) for i in range(nblocks)]
    from concurrent.futures import ThreadPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, nblocks, cpus)
    with _single_threaded_blas(), ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, i) for i in range(nblocks)]
        return [f.result() for f in futures]


@functools.cache
def _openblas_threads():
    """``(set, get)`` for the thread count of numpy's bundled OpenBLAS, or
    ``None`` when numpy links another BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None


_blas_lock = threading.Lock()
_blas_depth = 0  # open scopes of _single_threaded_blas
_blas_saved = 1  # the count to restore when the last scope closes


@contextlib.contextmanager
def _single_threaded_blas():
    """Run OpenBLAS on one thread inside the block, then restore its count.

    A matmul on a pool thread would otherwise start OpenBLAS's own threads,
    which compete with the pool for the same cores.  The count is
    process-global, so overlapping scopes share one setting: the first to
    enter saves the count and the last to leave restores it.  Without the
    OpenBLAS symbols this does nothing.
    """
    global _blas_depth, _blas_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get_threads()
            set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_threads(_blas_saved)
