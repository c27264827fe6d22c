import math

import numpy as np
import pytest

from cubescore import _json, _kernel
from cubescore.core import CapacityError, PreconditionError
from cubescore.permanent import (
    _alias_tables,
    balls_in_bins_estimate,
    bernoulli_permanent,
    naive_permanent,
    naive_value,
    ryser_permanent,
    ryser_value,
)

from .conftest import rand_col_stochastic, run_python


def test_hand_values_two_by_two():
    assert ryser_value([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(1 * 4 + 2 * 3)
    assert naive_value([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(10.0)
    assert ryser_value(np.ones((2, 2))) == pytest.approx(2.0)


def test_hand_values_identity_and_permutation():
    assert ryser_value(np.eye(6)) == pytest.approx(1.0)
    p = np.zeros((4, 4))
    p[[2, 0, 3, 1], np.arange(4)] = 1.0
    assert ryser_value(p) == pytest.approx(1.0)
    assert ryser_value(np.diag([1.0, 2.0, 3.0])) == pytest.approx(6.0)


def test_uniform_doubly_stochastic_closed_form():
    # per(J_n / n) = n! / n**n
    for n in range(2, 11):
        expected = math.factorial(n) / n**n
        assert ryser_value(np.ones((n, n)) / n) == pytest.approx(expected, rel=1e-12)


def test_ryser_matches_naive_on_random(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = rng.normal(size=(n, n))
        r = ryser_value(m)
        v = naive_value(m)
        assert r == pytest.approx(v, rel=1e-11, abs=1e-11)


def test_ryser_row_and_column_permutation_invariance(rng):
    m = rng.normal(size=(6, 6))
    base = ryser_value(m)
    p = rng.permutation(6)
    q = rng.permutation(6)
    assert ryser_value(m[p][:, q]) == pytest.approx(base, rel=1e-11)
    assert ryser_value(m.T) == pytest.approx(base, rel=1e-11)


def test_ryser_expands_along_scaled_row(rng):
    m = rng.normal(size=(5, 5))
    scaled = m.copy()
    scaled[2] *= 3.0
    assert ryser_value(scaled) == pytest.approx(3.0 * ryser_value(m), rel=1e-11)


def test_bernoulli_exact_matches_ryser(rng):
    for _ in range(15):
        n = int(rng.integers(2, 10))
        m = rng.normal(size=(n, n))
        rep = bernoulli_permanent(m)
        assert rep.method == "bernoulli_exact"
        assert rep.samples is None and rep.stderr is None
        assert rep.value == pytest.approx(ryser_value(m), rel=1e-10, abs=1e-10)


def test_bernoulli_exact_spans_the_low_block_boundary(rng):
    # n = 13 exercises the walk over high columns, not just the
    # vectorized low block
    m = rng.normal(size=(13, 13)) / 4.0
    rep = bernoulli_permanent(m)
    assert rep.value == pytest.approx(ryser_value(m), rel=1e-9, abs=1e-12)


def test_exact_walks_match_naive_for_every_small_n(rng):
    # n = 1 leaves the half-cube walk no free coordinate at all
    for n in range(1, 11):
        m = rng.normal(size=(n, n))
        v = naive_value(m)
        assert ryser_value(m) == pytest.approx(v, rel=1e-11, abs=1e-11)
        assert bernoulli_permanent(m).value == pytest.approx(v, rel=1e-11, abs=1e-11)


def test_bernoulli_mc_is_deterministic_and_near_truth(rng):
    m = rand_col_stochastic(rng, 5)
    truth = ryser_value(m)
    a = bernoulli_permanent(m, mode="mc", samples=200000, seed=11)
    b = bernoulli_permanent(m, mode="mc", samples=200000, seed=11, threads=4)
    assert a.value == b.value
    assert a.method == "bernoulli_mc"
    assert a.samples == 200000
    assert abs(a.value - truth) <= 6.0 * a.stderr + 1e-9


def test_bernoulli_validation():
    with pytest.raises(PreconditionError):
        bernoulli_permanent(np.eye(3), mode="joke")
    with pytest.raises(PreconditionError):
        bernoulli_permanent(np.eye(3), mode="mc", samples=100)
    # the walk's own cap is the only one: n=26 runs, n=31 is refused
    assert bernoulli_permanent(np.eye(26)).value == 1.0
    with pytest.raises(CapacityError):
        bernoulli_permanent(np.eye(31))


def test_naive_cap():
    with pytest.raises(CapacityError):
        naive_value(np.eye(11))
    with pytest.raises(CapacityError):
        ryser_value(np.eye(31))


def test_balls_in_bins_identity_is_collision_free():
    rep = balls_in_bins_estimate(np.eye(6), samples=5000, seed=3)
    assert rep.value == 1.0
    assert rep.method == "balls_in_bins"


def test_balls_in_bins_uniform_matches_closed_form():
    n = 5
    truth = math.factorial(n) / n**n
    rep = balls_in_bins_estimate(np.ones((n, n)) / n, samples=400000, seed=21)
    assert abs(rep.value - truth) <= 5.0 * rep.stderr


def test_balls_in_bins_tracks_ryser(rng):
    for _ in range(5):
        a = rand_col_stochastic(rng, 6)
        truth = ryser_value(a)
        rep = balls_in_bins_estimate(a, samples=300000, seed=int(rng.integers(1, 1 << 30)))
        assert abs(rep.value - truth) <= 5.0 * rep.stderr + 1e-9


def test_balls_in_bins_is_deterministic(rng):
    a = rand_col_stochastic(rng, 7)
    r1 = balls_in_bins_estimate(a, samples=100000, seed=5)
    r2 = balls_in_bins_estimate(a, samples=100000, seed=5, threads=3)
    assert r1.value == r2.value


def test_balls_in_bins_requires_column_stochastic():
    with pytest.raises(PreconditionError):
        balls_in_bins_estimate(np.eye(3) * 1.5, samples=10, seed=1)
    with pytest.raises(PreconditionError):
        balls_in_bins_estimate(np.array([[0.5, -0.1], [0.5, 1.1]]), samples=10, seed=1)


def test_report_dict_key_order():
    rep = ryser_permanent(np.eye(2))
    assert list(_json.to_jsonable(rep)) == ["value", "method", "samples", "stderr"]
    assert naive_permanent(np.eye(2)).method == "naive"


def test_mc_samplers_with_a_partial_last_block_are_thread_invariant(rng):
    # three full blocks of 65536 rows and a last one of 37 rows, which is
    # neither full nor a multiple of the 64 samples in one word of sign bits
    samples = 3 * 65536 + 37
    g = rng.normal(size=(7, 7))
    a = rand_col_stochastic(rng, 7)
    for run in (
        lambda t: bernoulli_permanent(g, mode="mc", samples=samples, seed=5, threads=t),
        lambda t: balls_in_bins_estimate(a, samples, 5, threads=t),
    ):
        reports = [run(t) for t in (1, 2, 3)]
        assert reports[0].samples == samples and reports[0].stderr > 0.0
        assert reports[1] == reports[0] and reports[2] == reports[0]


def test_seeded_bernoulli_mc_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot splits its sum across BLAS threads; the sums of squares
    # behind stderr must not, so two processes give the same digits
    code = (
        "import numpy as np\n"
        "from cubescore.permanent import bernoulli_permanent\n"
        "g = np.random.default_rng(0).normal(size=(7, 7))\n"
        "rep = bernoulli_permanent(g, mode='mc', samples=3 * 65536 + 37, seed=5)\n"
        "print(repr(rep.value), repr(rep.stderr))\n"
    )
    one, two = (run_python(code, OPENBLAS_NUM_THREADS=k) for k in ("1", "2"))
    assert one == two


@pytest.mark.parametrize("n", [6, 7])
def test_bernoulli_mc_parity_on_a_diagonal(n):
    # x_i (D x)_i = d_i for every sign vector, so every sample of
    # prod_i x_i (D x)_i is prod(d); the dyadic entries keep every sum exact
    d = np.array([1.5, -2.0, 0.5, -1.0, 3.0, 0.25, -1.25])[:n]
    rep = bernoulli_permanent(np.diag(d), mode="mc", samples=70000, seed=2)
    assert rep.value == np.prod(d)
    assert rep.stderr == 0.0


def test_alias_tables_reproduce_every_column(rng):
    for n in (1, 2, 5, 13, 20):
        a = rand_col_stochastic(rng, n)
        prob, alias = _alias_tables(a)
        for j in range(n):
            rebuilt = (prob[j] + np.bincount(alias[j], weights=1.0 - prob[j], minlength=n)) / n
            assert np.abs(rebuilt - a[:, j]).max() <= 1e-15


def test_balls_in_bins_wide_identity_and_forced_collision():
    # n = 70 spreads the balls' bitmask over two 64-bit words
    assert balls_in_bins_estimate(np.eye(70), samples=3000, seed=1).value == 1.0
    for n, shared in ((5, 0), (70, 68)):
        a = np.eye(n)
        a[:, 1] = a[:, shared]  # balls 1 and `shared` always share a bin
        rep = balls_in_bins_estimate(a, samples=3000, seed=1)
        assert rep.value == 0.0 and rep.stderr == 0.0


def oracle_bins_hits(a, samples, seed):
    """Balls-in-bins hits of the seeded stream, in plain Python: in each
    Monte Carlo block, ball j draws one uniform from the block's substream
    per sample still free of collisions, in sample order, and each sample
    keeps the set of its bins."""
    n = a.shape[0]
    prob, alias = (t.tolist() for t in _alias_tables(a))
    rows = _kernel.mc_rows(n)
    hits = 0
    for i, start in enumerate(range(0, samples, rows)):
        rng = _kernel.block_rng(seed, i)
        free = [set() for _ in range(min(rows, samples - start))]
        for j in range(n):
            left = []
            for bins, u in zip(free, rng.random(len(free)).tolist()):
                k = min(int(u * n), n - 1)
                b = k if u * n - k < prob[j][k] else alias[j][k]
                if b not in bins:
                    bins.add(b)
                    left.append(bins)
            free = left
        hits += len(free)
    return hits


def test_balls_in_bins_counts_the_oracles_hits(rng):
    # n = 5 over three full blocks and a partial one, at three thread counts
    a = rand_col_stochastic(rng, 5)
    samples = 3 * 65536 + 37
    want = oracle_bins_hits(a, samples, 7)
    assert 0 < want < samples
    for threads in (1, 2, 3):
        assert balls_in_bins_estimate(a, samples, 7, threads=threads).value == want / samples
    # n = 70 spreads each sample's bins over two 64-bit words
    p = np.zeros((70, 70))
    p[rng.permutation(70), np.arange(70)] = 1.0
    a = 0.98 * p + 0.02 * rand_col_stochastic(rng, 70)
    want = oracle_bins_hits(a, 3000, 2)
    assert 0 < want < 3000
    assert balls_in_bins_estimate(a, 3000, 2).value == want / 3000


def test_balls_in_bins_draws_only_for_samples_free_of_collisions(rng, monkeypatch):
    drawn = []
    block_rng = _kernel.block_rng

    class Counted:
        def __init__(self, gen):
            self.gen = gen

        def random(self, *args, **kwargs):
            out = self.gen.random(*args, **kwargs)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(_kernel, "block_rng", lambda seed, index: Counted(block_rng(seed, index)))
    samples = 65536 + 1000
    for n in (1, 6, 20):
        drawn.clear()
        assert balls_in_bins_estimate(np.eye(n), samples, 3).value == 1.0
        assert sum(drawn) == n * samples
    a = np.eye(6)
    a[:, 1] = a[:, 0]  # balls 0 and 1 always share a bin
    drawn.clear()
    assert balls_in_bins_estimate(a, samples, 3).value == 0.0
    assert sum(drawn) == 2 * samples
    # the benchmark's shape, 0.8 P + 0.2 U at n = 20: about half the balls
    n = 20
    p = np.zeros((n, n))
    p[rng.permutation(n), np.arange(n)] = 1.0
    drawn.clear()
    assert balls_in_bins_estimate(0.8 * p + 0.2 * rand_col_stochastic(rng, n), samples, 3).value > 0.0
    assert sum(drawn) < 0.6 * n * samples


def test_balls_in_bins_rejects_an_infinite_stochastic_tol():
    # with tol = inf every matrix would pass as column-stochastic
    with pytest.raises(PreconditionError, match="stochastic_tol"):
        balls_in_bins_estimate(np.array([[1.5, 0.0], [-0.5, 1.0]]), samples=10, seed=1,
                               stochastic_tol=float("inf"))
