"""Print one ``label sha256`` line per exhaustive result of the ``cubescore``
found on ``PYTHONPATH``, so two checkouts can be compared line by line.

    PYTHONPATH=src python tests/digest.py > new.txt
    PYTHONPATH=/path/to/other/src python tests/digest.py > old.txt
    diff old.txt new.txt

Each windowed walk runs twice, forced through the sorted-window filter and
forced past it.  The results are exact hit sets at two tolerances, exact
and threshold counts, Ryser and Glynn permanents (as float hex), rank-one
zero-sum claims and concentration counts and modes, on matrices of 1 to 26
rows.  The last lines take inputs past caps that a checkout may or may not
have: integer rank-one claims at n=26..40 and one-row concentration at
n=26..32, then non-integer rank-one claims at n=25..28, Glynn's
permanent of one Gaussian 26 x 26 matrix, and exact threshold counts of
signed reflections and integer rank-one orthogonals at n=32, 40 and 62.  A
checkout that refuses an input prints the hash of ``CapacityError``.  Not
collected by pytest; it takes about fifteen seconds.
"""

import contextlib
import hashlib

import numpy as np

from cubescore import _kernel
from cubescore.constructors import rank_one_orthogonal
from cubescore.core import CapacityError
from cubescore.permanent import bernoulli_permanent, ryser_value
from cubescore.score import exact_hit_indices, exact_score, threshold_score
from cubescore.structure import concentration_probability


def _no_dense_walk(*args, **kwargs):
    raise AssertionError("the window filter fell back to the dense walk")


@contextlib.contextmanager
def walk_path(path):
    """Every windowed walk inside forced through the filter or past it."""
    saved = _kernel._FILTER_SHARE, _kernel.iter_sign_blocks
    _kernel._FILTER_SHARE = 1.0 if path == "filter" else -1.0
    if path == "filter":
        _kernel.iter_sign_blocks = _no_dense_walk
    try:
        yield
    finally:
        _kernel._FILTER_SHARE, _kernel.iter_sign_blocks = saved


def emit(label, value):
    data = value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
    print(label, hashlib.sha256(data).hexdigest(), flush=True)


def rand_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def matrices(n):
    rng = np.random.default_rng(n)
    yield "orth", rand_orthogonal(rng, n)
    yield "reflection", np.eye(n) - (2.0 / n) * np.ones((n, n))


def hit_sets():
    for path in ("filter", "dense"):
        with walk_path(path):
            for n in range(1, 23):
                for name, m in matrices(n):
                    for tol in (1e-9, 0.3):
                        emit(f"hits/{path}/{name}/n={n}/tol={tol}", exact_hit_indices(m, tol))
                        emit(f"score/{path}/{name}/n={n}/tol={tol}", exact_score(m, tol).hit_count)
            for n in (24, 26):
                m = rand_orthogonal(np.random.default_rng(n), n)
                emit(f"hits/{path}/orth/n={n}/tol=1e-09", exact_hit_indices(m, 1e-9))


def threshold_counts():
    for n in range(1, 19):
        for name, m in matrices(n):
            for theta in (0.01, 0.25, 1.0):
                emit(f"threshold/{name}/n={n}/theta={theta}", threshold_score(m, theta).hit_count)


def permanents():
    for n in range(1, 21):
        rng = np.random.default_rng(100 + n)
        for name, m in (("normal", rng.normal(size=(n, n))), ("int", rng.integers(-2, 3, size=(n, n)) * 1.0)):
            emit(f"ryser/{name}/n={n}", ryser_value(m).hex())
            emit(f"glynn/{name}/n={n}", bernoulli_permanent(m).value.hex())


def rank_one_claims():
    for path in ("filter", "dense"):
        with walk_path(path):
            for n in range(1, 25):
                rng = np.random.default_rng(200 + n)
                for name, t in (("ones", np.ones(n)), ("halves", rng.choice([0.5, 1.0], size=n)),
                                ("ints", rng.integers(1, 4, size=n))):
                    t = t * 1.0
                    t[0] = 1.0
                    claim = rank_one_orthogonal(n, t).claimed_score_lower_bound
                    emit(f"rank1/{path}/{name}/n={n}", claim.hex())


def concentration():
    for n in range(1, 19):
        rng = np.random.default_rng(300 + n)
        for d in (1, 2, 4):
            for name, v in (("int", rng.integers(-3, 4, size=(d, n)) * 1.0), ("real", rng.normal(size=(d, n)))):
                rep = concentration_probability(v, 0.25 if name == "real" else 1e-9)
                emit(f"rho-count/{name}/d={d}/n={n}", rep.count)
                emit(f"rho-mode/{name}/d={d}/n={n}", rep.mode)
    emit("rho-mode/tie-across-blocks/n=14", concentration_probability([0.0] * 12 + [0.01, 1.0], 0.5).mode)


def past_the_caps():
    for n in range(26, 41):
        t = np.random.default_rng(200 + n).integers(1, 4, size=n) * 1.0
        t[0] = 1.0
        emit(f"rank1/ints/n={n}", rank_one_orthogonal(n, t).claimed_score_lower_bound.hex())
    for n in range(26, 33):
        v = np.random.default_rng(300 + n).integers(-3, 4, size=(1, n)) * 1.0
        try:
            rep = concentration_probability(v, 1e-9)
        except CapacityError:
            emit(f"rho-count/int/d=1/n={n}", "CapacityError")
            emit(f"rho-mode/int/d=1/n={n}", "CapacityError")
        else:
            emit(f"rho-count/int/d=1/n={n}", rep.count)
            emit(f"rho-mode/int/d=1/n={n}", rep.mode)


def walks_past_the_claim_caps():
    for n in range(25, 29):
        rng = np.random.default_rng(400 + n)
        for name, unit in (("halves", 2), ("tenths", 10)):
            k = rng.integers(1, unit + 1, size=n)
            k[0] = unit
            k[-1] += k.sum() % 2  # an odd sum has no zero signed sum
            emit(f"rank1/{name}/n={n}", rank_one_orthogonal(n, k / unit).claimed_score_lower_bound.hex())
        t = rng.normal(size=n)
        t[0] = 1.0
        emit(f"rank1/normal/n={n}", rank_one_orthogonal(n, t).claimed_score_lower_bound.hex())
    try:
        value = bernoulli_permanent(np.random.default_rng(126).normal(size=(26, 26))).value.hex()
    except CapacityError:
        value = "CapacityError"
    emit("glynn/normal/n=26", value)


def thresholds_past_the_walk_cap():
    for n in (32, 40, 62):
        rng = np.random.default_rng(500 + n)
        reflection = (np.eye(n) - 2.0 / n)[rng.permutation(n)]
        cases = {"reflection": rng.choice([-1.0, 1.0], size=n)[:, None] * reflection}
        for name, values in (("signs", [-1, 0, 1, 1]), ("ints", [1, 2, 3])):
            t = rng.choice(values, size=n) * 1.0
            t[0] = 1.0
            cases[name] = rank_one_orthogonal(n, t).matrix
        for name, m in cases.items():
            for theta in (0.01, 0.25, 0.9):
                try:
                    value = threshold_score(m, theta).hit_count
                except CapacityError:
                    value = "CapacityError"
                emit(f"threshold/{name}/n={n}/theta={theta}", value)


if __name__ == "__main__":
    hit_sets()
    threshold_counts()
    permanents()
    rank_one_claims()
    concentration()
    past_the_caps()
    walks_past_the_claim_caps()
    thresholds_past_the_walk_cap()
