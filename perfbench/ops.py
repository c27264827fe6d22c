"""The library operations the benchmark times: inputs, result summaries, checks.

Each operation is one public ``cubescore`` function called with inputs drawn
from the benchmark seed.  A child process calls it through its module
attribute (``cubescore.score.exact_score``, not a copy of the name), so the
traced run can replace that attribute and see every call.

Checks never use the code under test as their own oracle: hit counts of the
signed reflection have closed forms, concentration and zero-sum counts are
recounted here by brute force, Ryser and the Bernoulli identity check each
other, and every Monte Carlo estimate must lie within five standard errors
of its exact counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Product threshold for ``threshold_score``; far from every attainable
#: value of the statistic on the reflection, so rounding cannot flip a count.
THETA = 0.25

#: Sizes keep every call between about 10 and 200 ms, so that a run holds
#: dozens of calls of each operation spread over its whole length: on a
#: shared 2-core host the speed of one call swings by up to 1.8x within
#: seconds, and a median over a handful of long calls moved by 20 to 40%
#: from run to run.
EXACT_N = 20
SAMPLING_N = 20
RHO_D, RHO_N = 4, 14
RANK1_N = 24
#: Samples per Monte Carlo call, in whole blocks of ``_kernel.MC_BLOCK``
#: (65,536).  ``mc_score`` takes 16 blocks at both thread counts: with four,
#: the 2-thread call's peak RSS ranged from 134 to 147 MB between processes,
#: as the two threads' blocks overlapped more or less; with 16 it was
#: 144.0 to 144.4 MB.
SAMPLES = {
    "mc_score_s": 1 << 20,
    "mc_score_2t_s": 1 << 20,
    "threshold_mc_s": 1 << 18,
    "bernoulli_mc_s": 1 << 17,
    "bins_s": 1 << 17,
}
#: Monte Carlo estimates must land within this many standard errors.
Z = 5.0
#: Ryser and the Bernoulli identity must agree to this relative error.
PERM_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    metric: str      # end-to-end metric name, seconds per call
    module: str      # cubescore submodule holding the function
    func: str


OPS = [
    Op("score_exact_s", "score", "exact_score"),
    Op("threshold_exact_s", "score", "threshold_score"),
    Op("bernoulli_exact_s", "permanent", "bernoulli_permanent"),
    Op("ryser_s", "permanent", "ryser_value"),
    Op("rho_s", "structure", "concentration_probability"),
    Op("rank1_s", "constructors", "rank_one_orthogonal"),
    Op("mc_score_s", "score", "mc_score"),
    Op("mc_score_2t_s", "score", "mc_score"),
    Op("threshold_mc_s", "score", "threshold_score"),
    Op("bernoulli_mc_s", "permanent", "bernoulli_permanent"),
    Op("bins_s", "permanent", "balls_in_bins_estimate"),
]
BY_METRIC = {op.metric: op for op in OPS}


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def signed_reflection(n: int, rng: np.random.Generator) -> np.ndarray:
    """``S (I - (2/n) J)`` for a random signed permutation ``S``.

    ``S`` permutes and negates the coordinates of ``M x``, so the hit count and
    the product statistic keep the closed forms of the plain reflection.
    """
    r = np.eye(n) - (2.0 / n) * np.ones((n, n))
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs[:, None] * r[rng.permutation(n)]


def column_stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    """``0.8 P + 0.2 U`` for a random permutation ``P`` and a random
    column-stochastic ``U``.  A uniform random one has a permanent near
    ``n!/n^n`` (2e-8 at n=20), which a million samples cannot resolve."""
    u = rng.uniform(0.05, 1.0, size=(n, n))
    p = np.zeros((n, n))
    p[rng.permutation(n), np.arange(n)] = 1.0
    return 0.8 * p + 0.2 * u / u.sum(axis=0)


def small_int_vectors(rng: np.random.Generator) -> np.ndarray:
    """A fixed set of small-integer vectors, each negated at random and with
    their coordinates permuted at random.  Neither changes how many distinct
    sums each walk block holds, so every seed costs the same work."""
    base = np.random.default_rng(0).integers(-3, 4, size=(RHO_D, RHO_N)).astype(float)
    return base[rng.permutation(RHO_D)] * rng.choice([-1.0, 1.0], size=RHO_N)


def rank1_direction(rng: np.random.Generator) -> np.ndarray:
    t = rng.integers(1, 4, size=RANK1_N)
    t[0] = 1
    if t.sum() % 2:  # an odd sum has no zero-sum sign vector at all
        t[-1] += 1 if t[-1] < 3 else -1
    return t.astype(float)


def permanents_agree(v: float, w: float, n: int) -> bool:
    """Whether two exact permanents of an n x n standard Gaussian matrix agree
    to ``PERM_RTOL``, relative to the larger of their magnitude and
    ``sqrt(n!)``, the root-mean-square permanent of such a matrix.  Both routes
    sum terms far larger than a permanent that cancels to near zero, so a
    purely relative test would fail on such draws however exact the sums are
    (one seed at n=22 gave 2.4e7 against a typical 3.4e10, and the routes
    differed by 0.05)."""
    scale = max(abs(v), abs(w), math.sqrt(math.factorial(n)))
    return math.isfinite(v) and math.isfinite(w) and abs(v - w) <= PERM_RTOL * scale


def mc_seed(seed: int) -> int:
    return int(_rng(seed, "mc-seed").integers(0, 2**31))


def call_args(metric: str, seed: int) -> tuple[tuple, dict]:
    """Positional and keyword arguments of one call of ``metric``'s operation."""
    s = mc_seed(seed)
    if metric in ("score_exact_s", "threshold_exact_s"):
        m = signed_reflection(EXACT_N, _rng(seed, "reflection-exact"))
        return ((m,), {}) if metric == "score_exact_s" else ((m, THETA), {"mode": "exact"})
    if metric in ("bernoulli_exact_s", "ryser_s"):
        g = _rng(seed, "gaussian-exact").standard_normal((EXACT_N, EXACT_N))
        return ((g,), {}) if metric == "ryser_s" else ((g,), {"mode": "exact"})
    if metric == "rho_s":
        return (small_int_vectors(_rng(seed, "rho")),), {}
    if metric == "rank1_s":
        return (RANK1_N, rank1_direction(_rng(seed, "rank1"))), {}
    if metric in ("mc_score_s", "mc_score_2t_s", "threshold_mc_s"):
        m = signed_reflection(SAMPLING_N, _rng(seed, "reflection-mc"))
        if metric == "threshold_mc_s":
            return (m, THETA), {"mode": "mc", "samples": SAMPLES[metric], "seed": s}
        return (m, SAMPLES[metric], s), {"threads": 2 if metric == "mc_score_2t_s" else 1}
    if metric == "bernoulli_mc_s":
        g = _rng(seed, "gaussian-mc").standard_normal((SAMPLING_N, SAMPLING_N))
        return (g,), {"mode": "mc", "samples": SAMPLES[metric], "seed": s}
    if metric == "bins_s":
        a = column_stochastic(SAMPLING_N, _rng(seed, "stochastic"))
        return (a, SAMPLES[metric], s), {}
    raise KeyError(metric)


def summarize(metric: str, result) -> dict:
    """The part of a result that the checks need, as plain JSON values."""
    if metric in ("score_exact_s", "threshold_exact_s", "mc_score_s", "mc_score_2t_s", "threshold_mc_s"):
        return {"hits": int(result.hit_count), "total": int(result.total)}
    if metric == "ryser_s":
        return {"value": float(result)}
    if metric in ("bernoulli_exact_s", "bernoulli_mc_s", "bins_s"):
        return {"value": float(result.value), "stderr": float(result.stderr or 0.0)}
    if metric == "rho_s":
        return {"count": int(result.count), "total": int(result.total)}
    if metric == "rank1_s":
        return {"claimed": float(result.claimed_score_lower_bound), "orthogonal": bool(result.orthogonal)}
    raise KeyError(metric)


# --- references, computed in the parent process, never in a timed child ---


def reflection_hits(n: int) -> int:
    # x orthogonal to the all-ones vector is fixed; x = +-1 is negated
    return math.comb(n, n // 2) + 2


def reflection_threshold_hits(n: int, theta: float) -> int:
    # with k minus signs, |(Mx)_i| is |1 - 2s/n| on the n-k plus coordinates
    # and |1 + 2s/n| on the k minus coordinates, where s = n - 2k
    hits = 0
    for k in range(n + 1):
        c = 2.0 * (n - 2 * k) / n
        prod = abs(1.0 - c) ** (n - k) * abs(1.0 + c) ** k
        if abs(prod - theta) <= 1e-6 * theta:
            raise ValueError(f"theta={theta} lies too close to an attainable product")
        hits += math.comb(n, k) if prod >= theta else 0
    return hits


def all_signed_sums(a: np.ndarray) -> np.ndarray:
    """Every ``A @ x`` over ``x`` in ``{-1,+1}^n`` for integer ``A``, as int64 rows."""
    n = a.shape[1]
    k = np.arange(1 << n, dtype=np.int64)
    x = 1 - 2 * ((k[:, None] >> np.arange(n)) & 1)
    return x @ a.astype(np.int64).T


def modal_count(a: np.ndarray) -> int:
    _, counts = np.unique(all_signed_sums(a), axis=0, return_counts=True)
    return int(counts.max())


def zero_sum_count(t: np.ndarray) -> int:
    # meet in the middle: sums of the two halves must cancel exactly
    h = t.size // 2
    left = all_signed_sums(t[None, :h])[:, 0]
    right = all_signed_sums(t[None, h:])[:, 0]
    lv, lc = np.unique(left, return_counts=True)
    rv, rc = np.unique(-right, return_counts=True)
    _, li, ri = np.intersect1d(lv, rv, return_indices=True)
    return int((lc[li] * rc[ri]).sum())


def references(seed: int, metrics) -> dict:
    """Expected values for the checks of the given operations."""
    refs: dict = {}
    want = set(metrics)
    if "score_exact_s" in want:
        refs["score_exact_s"] = reflection_hits(EXACT_N)
    if "threshold_exact_s" in want:
        refs["threshold_exact_s"] = reflection_threshold_hits(EXACT_N, THETA)
    if "rho_s" in want:
        refs["rho_s"] = modal_count(small_int_vectors(_rng(seed, "rho")))
    if "rank1_s" in want:
        refs["rank1_s"] = zero_sum_count(rank1_direction(_rng(seed, "rank1"))) / (1 << RANK1_N)
    if want & {"mc_score_s", "mc_score_2t_s"}:
        refs["mc_score_s"] = refs["mc_score_2t_s"] = reflection_hits(SAMPLING_N) / (1 << SAMPLING_N)
    if "threshold_mc_s" in want:
        refs["threshold_mc_s"] = reflection_threshold_hits(SAMPLING_N, THETA) / (1 << SAMPLING_N)
    if want & {"bernoulli_mc_s", "bins_s"}:
        from cubescore import permanent

        if "bernoulli_mc_s" in want:
            g = call_args("bernoulli_mc_s", seed)[0][0]
            refs["bernoulli_mc_s"] = permanent.ryser_value(g)
        if "bins_s" in want:
            a = call_args("bins_s", seed)[0][0]
            refs["bins_s"] = permanent.ryser_value(a)
    return refs


def check(metric: str, summary: dict, refs: dict, peers: dict) -> str | None:
    """``None`` when ``summary`` is a correct result of ``metric``'s operation,
    otherwise a one-line reason.  ``peers`` maps a metric to the first result
    another child reported for it, for checks between operations."""
    try:
        return _check(metric, summary, refs, peers)
    except (KeyError, TypeError, ValueError) as e:
        return f"malformed result {summary!r}: {e}"


def _check(metric, s, refs, peers):
    if metric in ("score_exact_s", "threshold_exact_s"):
        if s["total"] != 1 << EXACT_N or s["hits"] != refs[metric]:
            return f"hits {s['hits']} of {s['total']}, expected {refs[metric]} of {1 << EXACT_N}"
        return None
    if metric in ("ryser_s", "bernoulli_exact_s"):
        other = peers.get("bernoulli_exact_s" if metric == "ryser_s" else "ryser_s")
        if other is None:
            return None  # the other route failed; its own check reports that
        v, w = s["value"], other["value"]
        if not permanents_agree(v, w, EXACT_N):
            return f"permanent {v!r} disagrees with the other exact route's {w!r}"
        return None
    if metric == "rho_s":
        if s["total"] != 1 << RHO_N or s["count"] != refs[metric]:
            return f"modal count {s['count']} of {s['total']}, expected {refs[metric]}"
        return None
    if metric == "rank1_s":
        if not s["orthogonal"] or s["claimed"] != refs[metric]:
            return f"claimed bound {s['claimed']!r}, expected {refs[metric]!r}"
        return None
    if metric in ("mc_score_s", "mc_score_2t_s", "threshold_mc_s"):
        p, samples = refs[metric], SAMPLES[metric]
        if s["total"] != samples:
            return f"{s['total']} samples, expected {samples}"
        se = math.sqrt(p * (1.0 - p) / samples)
        if abs(s["hits"] / samples - p) > Z * se:
            return f"estimate {s['hits'] / samples} is more than {Z} SE from {p}"
        if metric == "mc_score_2t_s" and "mc_score_s" in peers and peers["mc_score_s"]["hits"] != s["hits"]:
            return f"2-thread hits {s['hits']} differ from 1-thread hits {peers['mc_score_s']['hits']}"
        return None
    if metric in ("bernoulli_mc_s", "bins_s"):
        exact, v, se = refs[metric], s["value"], s["stderr"]
        if not (se > 0.0 and abs(v - exact) <= Z * se):
            return f"estimate {v!r} (SE {se!r}) is more than {Z} SE from {exact!r}"
        return None
    raise KeyError(metric)
