"""End-to-end acceptance suite.

Each test is one named guarantee of the package, checked at its stated
tolerance.  Seeds are fixed so every run exercises the exact same instances.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from cubescore.cli import main
from cubescore.constructors import (
    gap_perturbed_selector,
    perm_reflection,
    rank_one_orthogonal,
    rank_r_orthogonal,
    selector_matrix,
)
from cubescore.core import is_orthogonal, numeric_rank, save_matrix
from cubescore.permanent import (
    balls_in_bins_estimate,
    bernoulli_permanent,
    naive_value,
    ryser_value,
)
from cubescore.score import (
    exact_hit_indices,
    exact_score,
    naive_exact_score,
    naive_hit_indices,
)
from cubescore.structure import (
    classify_row,
    concentration_probability,
    decompose,
    dominance_analysis,
    hamming_check,
    procrustes_fit,
    stochastic_certificate,
    trace_bound_check,
    verify_rank_r_structure,
)

from .conftest import rand_antisymmetric, rand_col_stochastic, rand_orthogonal


def test_criterion_01_score_oracle_equivalence():
    # blocked-walk scoring equals the naive per-vector recompute,
    # hit for hit, on 50 seeded matrices with n <= 12, in under 5 seconds
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    nonempty = 0
    for i in range(50):
        n = int(rng.integers(2, 13))
        kind = i % 4
        if kind == 0:
            m = rng.normal(size=(n, n))
            tol = 1e-9
        elif kind == 1:
            pi = rng.permutation(n)
            signs = 1.0 - 2.0 * rng.integers(0, 2, size=n)
            m = np.zeros((n, n))
            m[pi, np.arange(n)] = signs
            m += rng.uniform(-0.02, 0.02, size=(n, n))
            tol = 0.05
        elif kind == 2:
            t = np.ones(n)
            t[1:] = rng.choice([0.5, 1.0], size=n - 1)
            m = rank_one_orthogonal(n, t).matrix
            tol = 1e-9
        else:
            pi = rng.permutation(n)
            signs = 1.0 - 2.0 * rng.integers(0, 2, size=n)
            m = perm_reflection(n, pi, signs).matrix
            tol = 1e-9
        fast = exact_hit_indices(m, tol)
        slow = naive_hit_indices(m, tol)
        assert fast.tolist() == slow.tolist()
        assert exact_score(m, tol).hit_count == naive_exact_score(m, tol).hit_count
        if fast.size:
            nonempty += 1
    elapsed = time.perf_counter() - start
    assert nonempty >= 20  # the comparison is not vacuous
    assert elapsed < 5.0


def test_criterion_02_reflection_family():
    # the all-ones rank-one reflection I - (2/n)J scores exactly 1/2 at n=4;
    # at even n up to 16 its hits cover the balanced vectors plus two corners
    # and every row is dominated in its own column
    start = time.perf_counter()
    cert4 = rank_one_orthogonal(4, np.ones(4))
    rep4 = exact_score(cert4.matrix, 1e-9)
    assert rep4.score == pytest.approx(0.5, abs=1e-9)
    for n in range(6, 17, 2):
        cert = rank_one_orthogonal(n, np.ones(n))
        rep = exact_score(cert.matrix, 1e-9)
        assert rep.hit_count >= math.comb(n, n // 2) + 2
        dom = dominance_analysis(cert.matrix, epsilon=0.5)
        assert dom.dominated_count == n
        assert all(dom.dominated)
        assert dom.column_injective
    assert time.perf_counter() - start < 10.0


def test_criterion_03_permanent_cross_checks():
    # Ryser vs the permutation-sum oracle, 1e-12 relative, 100 seeded draws
    rng = np.random.default_rng(1003)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        r = ryser_value(m)
        v = naive_value(m)
        assert abs(r - v) <= 1e-12 * max(abs(r), abs(v), 1e-300)

    # the uniform doubly stochastic matrix has permanent n!/n^n
    for n in range(3, 11):
        truth = math.factorial(n) / n**n
        assert abs(ryser_value(np.ones((n, n)) / n) - truth) <= 1e-12

    # the sign-vector expectation identity reproduces Ryser to 1e-10
    rng = np.random.default_rng(1004)
    for n in range(2, 13):
        for _ in range(4):
            m = rng.normal(size=(n, n)) / math.sqrt(n)
            r = ryser_value(m)
            b = bernoulli_permanent(m).value
            assert abs(r - b) <= 1e-10


def test_criterion_04_balls_in_bins():
    # the collision estimate lands within 4 standard errors of the exact
    # permanent in at least 19 of 20 seeded column-stochastic instances
    rng = np.random.default_rng(1005)
    ok = 0
    for _ in range(20):
        a = rng.uniform(0.05, 1.0, size=(6, 6))
        a /= a.sum(axis=0, keepdims=True)
        truth = ryser_value(a)
        rep = balls_in_bins_estimate(a, samples=10**6, seed=int(rng.integers(0, 1 << 30)))
        if abs(rep.value - truth) <= 4.0 * rep.stderr:
            ok += 1
    assert ok >= 19


def test_criterion_05_collision_bound_suite():
    # permanents of column-stochastic matrices respect both martingale
    # collision bounds on 200 seeded instances
    rng = np.random.default_rng(1015)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        a = rand_col_stochastic(rng, n)
        rep = stochastic_certificate(a)
        assert rep.little_count + rep.splittable_count + rep.dominated_count == n
        assert rep.permanent is not None
        assert rep.permanent <= rep.little_bound + 1e-12
        assert rep.permanent <= rep.splittable_bound + 1e-12

    # the row trichotomy never fails and always returns a valid witness,
    # across 100000 random nonnegative rows spanning all three regimes
    rng = np.random.default_rng(1016)
    rows = []
    for _ in range(40000):
        k = int(rng.integers(1, 41))
        scale = float(rng.choice([0.02, 0.1, 0.5, 1.5]))
        rows.append(rng.uniform(0.0, scale, size=k))
    for _ in range(30000):
        k = int(rng.integers(2, 21))
        raw = rng.uniform(0.0, 1.0, size=k)
        rows.append(raw / raw.sum() * rng.uniform(0.85, 0.95))
    for _ in range(20000):
        k = int(rng.integers(2, 21))
        row = rng.uniform(0.0, 0.2 / k, size=k)
        row[int(rng.integers(0, k))] = rng.uniform(0.75, 0.95)
        rows.append(row)
    for _ in range(10000):
        k = int(rng.integers(10, 61))
        rows.append(rng.uniform(0.0, 0.099, size=k))
    assert len(rows) == 100000
    for row in rows:
        c = classify_row(row)
        s = float(row.sum())
        if c.kind == "little":
            assert s <= 0.9
        elif c.kind == "dominated":
            assert c.entry >= 0.8
            assert c.tail <= 0.1 + 1e-12
            assert row[c.col] == pytest.approx(c.entry)
        else:
            assert c.kind == "splittable"
            part_sum = float(sum(row[i] for i in c.part))
            assert part_sum == pytest.approx(c.part_sum)
            assert c.part_sum >= 0.1 - 1e-12
            assert c.rest_sum >= 0.1 - 1e-12


def test_criterion_06_rank_r_verifier_suite():
    # every constructed rank-r perturbation is orthogonal at 1e-8 and its
    # core block satisfies the four structural identities at the stated slacks
    rng = np.random.default_rng(1006)
    for _ in range(100):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(2 * r + 1, 65))  # d must be tall enough for full column rank
        d = rng.normal(size=(n - r, r))
        a = rand_antisymmetric(rng, r, 0.5)
        cert = rank_r_orthogonal(n, d, a)
        assert is_orthogonal(cert.matrix, 1e-8)
        rep = verify_rank_r_structure(np.asarray(cert.parameters["u"]), d)
        assert rep.identity_residual <= 1e-10
        assert rep.sym_max_eig <= 1e-9
        assert rep.diag_max <= 1e-9
        assert abs(rep.trace) <= 2.0 * r + 1e-9

    # tr((I + E - B)^{-1}) stays inside [0, r] for 1000 seeded draws
    rng = np.random.default_rng(1026)
    for _ in range(1000):
        r = int(rng.integers(1, 9))
        e = rng.uniform(0.05, 10.0, size=r)
        b = rand_antisymmetric(rng, r, 3.0)
        rep = trace_bound_check(e, b)
        assert rep.within_bounds
        assert -1e-9 <= rep.trace <= r + 1e-9


def _equal_leverage_frame(m: int, r: int, s_sq: float) -> np.ndarray:
    # orthogonal columns of squared norm s_sq with all rows equally heavy,
    # so every diagonal entry of the perturbed identity stays large
    s = math.sqrt(s_sq)
    if r == 1:
        return np.full((m, 1), s / math.sqrt(m))
    theta = 2.0 * np.pi * np.arange(m) / m
    if r == 2:
        return s * math.sqrt(2.0 / m) * np.column_stack([np.cos(theta), np.sin(theta)])
    assert r == 3 and m % 2 == 0
    return (s / math.sqrt(m)) * np.column_stack(
        [
            math.sqrt(2.0) * np.cos(theta),
            math.sqrt(2.0) * np.sin(theta),
            (-1.0) ** np.arange(m),
        ]
    )


def test_criterion_07_decomposition_round_trip():
    # the sparse-sign/low-rank split recovers F = identity and a residual of
    # rank exactly r from rank-r constructions whose diagonal stays >= 0.8
    rng = np.random.default_rng(1007)
    for r, n in [(1, 32), (2, 26), (3, 31)]:
        for _ in range(5):
            m = n - r
            d = _equal_leverage_frame(m, r, 11.0)
            d = d @ rand_orthogonal(rng, r)
            d = d[rng.permutation(m)]
            a = rand_antisymmetric(rng, r, 0.25)
            cert = rank_r_orthogonal(n, d, a)
            assert float(np.min(np.diag(cert.matrix))) >= 0.8
            rep = decompose(cert.matrix, snap_tol=0.25)
            assert all(e == (i, 1) for i, e in enumerate(rep.f.entries))
            assert rep.residual_rank == r


def test_criterion_08_concentration():
    # hand values first
    rep = concentration_probability(np.ones(4))
    assert rep.rho == pytest.approx(3.0 / 8.0)
    basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    assert concentration_probability(basis).rho == pytest.approx(1.0 / 8.0)

    # then 50 random integer families against an exact integer-key oracle
    rng = np.random.default_rng(1008)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(1, 4))
        a = rng.integers(-4, 5, size=(d, n)).astype(float)
        rep = concentration_probability(a)
        bits = np.arange(1 << n, dtype=np.int64)
        signs = 1.0 - 2.0 * ((bits[:, None] >> np.arange(n)[None, :]) & 1)
        sums = np.rint(signs @ a.T).astype(np.int64)
        uniq, counts = np.unique(sums, axis=0, return_counts=True)
        best = int(counts.max())
        assert rep.count == best
        assert rep.total == 1 << n
        mode_key = np.rint(rep.mode).astype(np.int64)
        match = np.all(uniq == mode_key[None, :], axis=1)
        assert int(counts[match][0]) == best


def test_criterion_09_tiny_entries_score_zero():
    # matrices with entries in [-0.01, 0.01] and substantial rank never map
    # any sign vector back onto the hypercube
    rng = np.random.default_rng(1009)
    for _ in range(50):
        n = int(rng.integers(4, 21))
        m = rng.uniform(-0.01, 0.01, size=(n, n))
        assert numeric_rank(m) >= 0.75 * n
        assert exact_score(m).hit_count == 0


def test_criterion_10_distance_preservation():
    # the orthogonal fit reproduces signed permutations from 10-point samples
    rng = np.random.default_rng(1010)
    for _ in range(20):
        n = 8
        pi = rng.permutation(n)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        true_m = perm_reflection(n, pi, signs).matrix
        bits = rng.choice(1 << n, size=10, replace=False)
        xs = 1.0 - 2.0 * ((bits[:, None] >> np.arange(n)[None, :]) & 1)
        pairs = [(x, true_m @ x) for x in xs]
        rep = procrustes_fit(pairs)
        assert rep.max_residual <= 1e-9
        assert rep.orthogonal
        if numeric_rank(xs) == n:
            assert np.max(np.abs(rep.matrix - true_m)) <= 1e-9

    # the Hamming identity d(x,y) = |x-y|^2/4 over every pair, n <= 10:
    # the operation itself is enumerated through n = 6, and an exact popcount
    # oracle covers every remaining pair with spot checks tying the two
    for n in range(1, 7):
        for xb in range(1 << n):
            x = 1.0 - 2.0 * ((xb >> np.arange(n)) & 1)
            for yb in range(1 << n):
                y = 1.0 - 2.0 * ((yb >> np.arange(n)) & 1)
                rep = hamming_check(x, y)
                assert rep.consistent
                assert rep.hamming == int(xb ^ yb).bit_count()
    rng = np.random.default_rng(1020)
    for n in range(7, 11):
        idx = np.arange(1 << n, dtype=np.uint32)
        signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)
        gram = signs @ signs.T
        popcounts = np.bitwise_count(np.bitwise_xor.outer(idx, idx)).astype(np.int64)
        assert np.array_equal(popcounts, ((n - gram) / 2).astype(np.int64))
        for _ in range(100):
            xb = int(rng.integers(0, 1 << n))
            yb = int(rng.integers(0, 1 << n))
            rep = hamming_check(signs[xb], signs[yb])
            assert rep.consistent
            assert rep.hamming == int(popcounts[xb, yb])


WALL_TIME = re.compile(r'"wall_time_ms":[0-9eE+.\-]+')


def _canonical(out: str) -> str:
    return WALL_TIME.sub('"wall_time_ms":0', out)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    # every subcommand, rerun with identical flags and seeds, emits
    # byte-identical JSON once wall_time_ms is masked
    reflected = tmp_path / "reflected.txt"
    save_matrix(reflected, np.eye(4) - 0.5 * np.ones((4, 4)))
    uniform = tmp_path / "uniform.txt"
    save_matrix(uniform, np.ones((3, 3)) / 3.0)
    rng = np.random.default_rng(1011)
    d = rng.normal(size=(4, 2))
    cert = rank_r_orthogonal(6, d)
    dfile = tmp_path / "d.txt"
    ufile = tmp_path / "u.txt"
    save_matrix(dfile, d)
    save_matrix(ufile, np.asarray(cert.parameters["u"]))
    bfile = tmp_path / "b.txt"
    save_matrix(bfile, np.array([
        [0.0, 0.3, -0.2],
        [-0.3, 0.0, 0.1],
        [0.2, -0.1, 0.0],
    ]))
    f0file = tmp_path / "f0.txt"
    save_matrix(f0file, np.eye(4))
    gapfile = tmp_path / "gap.json"
    gapfile.write_text(json.dumps({
        "generators": [[1.0, 0.0, 0.0, 0.0]],
        "lower": [-1],
        "upper": [1],
        "symmetric": True,
    }))
    vecfile = tmp_path / "vectors.txt"
    save_matrix(vecfile, np.ones((1, 4)))
    xs = 1.0 - 2.0 * ((np.arange(5)[:, None] >> np.arange(4)[None, :]) & 1)
    xfile = tmp_path / "x.txt"
    yfile = tmp_path / "y.txt"
    save_matrix(xfile, xs)
    save_matrix(yfile, xs[:, ::-1].copy())

    invocations = [
        ["score-exact", "--matrix", str(reflected)],
        ["score-mc", "--matrix", str(reflected), "--samples", "20000", "--seed", "5"],
        ["score-mc", "--matrix", str(reflected), "--samples", "20000", "--seed", "5",
         "--threads", "4"],
        ["threshold-score", "--matrix", str(reflected), "--theta", "0.9"],
        ["threshold-score", "--matrix", str(reflected), "--theta", "0.9",
         "--mode", "mc", "--samples", "20000", "--seed", "6"],
        ["perm", "--matrix", str(uniform)],
        ["perm", "--matrix", str(uniform), "--method", "naive"],
        ["perm-bernoulli", "--matrix", str(uniform)],
        ["perm-bernoulli", "--matrix", str(uniform), "--mode", "mc",
         "--samples", "20000", "--seed", "7"],
        ["bins", "--matrix", str(uniform), "--samples", "50000", "--seed", "8"],
        ["construct", "--family", "rank1", "--n", "5", "--t", "1,1,1,1,1",
         "--out", str(tmp_path / "rank1.txt")],
        ["construct", "--family", "gap-perturbed", "--f0-file", str(f0file),
         "--gap-file", str(gapfile), "--seed", "11",
         "--out", str(tmp_path / "gp.txt")],
        ["analyze", "--matrix", str(reflected)],
        ["rho", "--vectors-file", str(vecfile)],
        ["classify-stochastic", "--matrix", str(uniform)],
        ["verify-rankr", "--u-file", str(ufile), "--d-file", str(dfile)],
        ["trace-claim", "--e", "0.5,1,2", "--b-file", str(bfile)],
        ["fit-map", "--x-file", str(xfile), "--y-file", str(yfile)],
    ]
    for argv in invocations:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert _canonical(first) == _canonical(second), argv
        assert first.strip() != ""

    # worker count never leaks into the report itself
    main(["score-mc", "--matrix", str(reflected), "--samples", "20000", "--seed", "5"])
    base = json.loads(capsys.readouterr().out)
    main(["score-mc", "--matrix", str(reflected), "--samples", "20000", "--seed", "5",
          "--threads", "4"])
    wide = json.loads(capsys.readouterr().out)
    assert base["report"] == wide["report"]
