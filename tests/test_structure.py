import math

import numpy as np
import pytest

from cubescore.constructors import perm_reflection, rank_one_orthogonal, rank_r_orthogonal
from cubescore.core import CapacityError, PreconditionError, SignVector
from cubescore.permanent import ryser_value
from cubescore.structure import (
    SparseSignMatrix,
    classify_row,
    collision_probability_bounds,
    concentration_probability,
    decompose,
    dominance_analysis,
    hamming_check,
    procrustes_fit,
    stochastic_certificate,
    trace_bound_check,
    verify_rank_r_structure,
)

from .conftest import rand_antisymmetric, rand_col_stochastic


def test_sparse_sign_matrix_round_trip():
    f = SparseSignMatrix(3, 3, ((0, 1), None, (2, -1)))
    dense = f.to_dense()
    assert dense.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
    assert f.nonzero_count == 2
    assert f.to_dict() == {"rows": 3, "cols": 3, "entries": [[0, 0, 1], [2, 2, -1]]}


def test_sparse_sign_matrix_validation():
    with pytest.raises(PreconditionError):
        SparseSignMatrix(2, 2, ((0, 1),))
    with pytest.raises(PreconditionError):
        SparseSignMatrix(2, 2, ((0, 2), None))
    with pytest.raises(PreconditionError):
        SparseSignMatrix(2, 2, ((3, 1), None))


def test_dominance_identity_rows_all_flagged():
    rep = dominance_analysis(np.eye(8), epsilon=0.5)
    assert rep.threshold == pytest.approx(1.0 - 8.0 ** (-0.5))
    assert rep.dominated_count == 8
    assert rep.column_injective
    assert rep.row_argmax == tuple(range(8))


def test_dominance_flags_only_heavy_rows():
    m = np.eye(4)
    m[2] = np.full(4, 0.25)
    rep = dominance_analysis(m, epsilon=0.5)
    assert rep.dominated == (True, True, False, True)
    assert rep.dominated_count == 3
    assert rep.column_injective


def test_dominance_detects_column_collisions():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    m[1, 1] = -1.0
    m[2, 2] = 1.0
    rep = dominance_analysis(m)
    assert rep.dominated_count == 3
    assert not rep.column_injective


def test_dominance_validation():
    with pytest.raises(PreconditionError):
        dominance_analysis(np.eye(3), epsilon=0.0)


def test_decompose_signed_permutation_has_no_residual(rng):
    pi = rng.permutation(7)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=7)
    m = perm_reflection(7, pi, signs).matrix
    rep = decompose(m)
    assert rep.f.nonzero_count == 7
    assert rep.residual_rank == 0
    assert np.max(np.abs(rep.residual)) == 0.0
    assert rep.gap_fit is None
    assert np.max(np.abs(rep.f.to_dense() - m)) == 0.0


def test_decompose_rank_one_perturbation():
    n = 8
    m = rank_one_orthogonal(n, np.ones(n)).matrix  # I - J/4
    rep = decompose(m, snap_tol=0.3)
    assert rep.f.nonzero_count == n
    assert all(e == (i, 1) for i, e in enumerate(rep.f.entries))
    assert rep.residual_rank == 1
    assert rep.gap_fit is not None
    assert rep.gap_fit["max_fit_residual"] <= 1e-9
    # every residual column is the same generator once
    assert all(row == [1] for row in rep.gap_fit["coefficients"])


def test_decompose_snap_tolerance_gates_f():
    m = np.diag([1.0, 0.8, 0.5])
    rep = decompose(m, snap_tol=0.25)
    assert rep.f.entries[0] == (0, 1)
    assert rep.f.entries[1] == (1, 1)
    assert rep.f.entries[2] is None
    tight = decompose(m, snap_tol=0.1)
    assert tight.f.entries[1] is None


def test_decompose_reconstruction_is_exact(rng):
    m = rng.normal(size=(6, 6))
    rep = decompose(m)
    assert np.max(np.abs(rep.f.to_dense() + rep.residual - m)) == 0.0


def test_decompose_validation():
    with pytest.raises(PreconditionError):
        decompose(np.eye(3), snap_tol=0.0)


def test_classify_row_frozen_cases():
    assert classify_row([0.3, 0.3, 0.3]).kind == "little"
    assert classify_row([0.9]).kind == "little"
    c = classify_row([0.5, 0.5])
    assert c.kind == "splittable"
    assert c.part == (0,)
    assert c.part_sum == pytest.approx(0.5)
    # a rest of exactly 0.1 still supports a split, so the largest entry
    # becomes one side of a bipartition rather than a dominating column
    e = classify_row([0.85, 0.05, 0.05])
    assert e.kind == "splittable"
    assert e.part == (0,)
    assert e.part_sum == pytest.approx(0.85)
    assert e.rest_sum == pytest.approx(0.1)
    d = classify_row([0.85, 0.04, 0.04])
    assert d.kind == "dominated"
    assert d.col == 0
    assert d.entry == pytest.approx(0.85)
    assert d.tail == pytest.approx(0.08)


def test_classify_row_greedy_prefix_when_all_entries_small():
    row = np.full(20, 0.05)  # l1 = 1.0, max entry below 0.1
    c = classify_row(row)
    assert c.kind == "splittable"
    assert c.part == (0, 1)
    assert c.part_sum == pytest.approx(0.1)
    assert c.rest_sum == pytest.approx(0.9)


def test_classify_row_dominated_boundary():
    assert classify_row([0.95, 0.05]).kind == "dominated"
    # one large entry but a heavy tail is splittable, not dominated
    assert classify_row([0.85, 0.15]).kind == "splittable"


def test_classify_row_witnesses_are_valid(rng):
    for _ in range(300):
        size = int(rng.integers(1, 30))
        scale = float(rng.choice([0.05, 0.3, 1.0]))
        row = rng.uniform(0.0, scale, size=size)
        c = classify_row(row)
        s = float(np.sum(row))
        assert c.ell1 == pytest.approx(s)
        if c.kind == "little":
            assert s <= 0.9
        elif c.kind == "dominated":
            assert c.entry >= 0.8
            assert c.tail <= 0.1 + 1e-12
            assert row[c.col] == pytest.approx(c.entry)
        else:
            part = set(c.part)
            part_sum = float(sum(row[i] for i in part))
            assert part_sum == pytest.approx(c.part_sum)
            assert c.part_sum >= 0.1 - 1e-12
            assert c.rest_sum >= 0.1 - 1e-12
            assert c.part_sum + c.rest_sum == pytest.approx(s)


def test_classify_row_validation():
    with pytest.raises(PreconditionError):
        classify_row([0.5, -0.2])
    with pytest.raises(PreconditionError):
        classify_row([[0.5]])
    with pytest.raises(PreconditionError):
        classify_row([np.nan])


def test_collision_probability_bounds_values():
    lb, sb = collision_probability_bounds(200, 25000)
    assert lb == pytest.approx(math.exp(-1.0))
    assert sb == pytest.approx(math.exp(-1.0))
    assert collision_probability_bounds(0, 0) == (1.0, 1.0)
    with pytest.raises(PreconditionError):
        collision_probability_bounds(-1, 0)


def test_stochastic_certificate_identity():
    rep = stochastic_certificate(np.eye(5))
    assert rep.dominated_count == 5
    assert rep.little_count == 0
    assert rep.splittable_count == 0
    assert rep.dominated_injective
    assert rep.permanent == pytest.approx(1.0)
    assert rep.little_bound == 1.0
    assert rep.splittable_bound == 1.0


def test_stochastic_certificate_uniform_matrix():
    n = 8
    rep = stochastic_certificate(np.ones((n, n)) / n)
    # every row sums to 1 with each entry 1/8, so the largest entry and the
    # rest both clear the 0.1 floor: splittable
    assert rep.splittable_count == n
    assert rep.permanent == pytest.approx(math.factorial(n) / n**n, rel=1e-10)
    assert rep.permanent <= rep.little_bound
    assert rep.permanent <= rep.splittable_bound


def test_stochastic_certificate_counts_partition(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rand_col_stochastic(rng, n)
        rep = stochastic_certificate(a)
        assert rep.little_count + rep.splittable_count + rep.dominated_count == n
        assert rep.permanent is not None
        assert rep.permanent <= rep.little_bound + 1e-12
        assert rep.permanent <= rep.splittable_bound + 1e-12


def test_stochastic_certificate_can_skip_permanent():
    rep = stochastic_certificate(np.eye(4), attach_permanent=False)
    assert rep.permanent is None


def test_stochastic_certificate_requires_stochastic():
    with pytest.raises(PreconditionError):
        stochastic_certificate(np.eye(3) * 2.0)


def test_concentration_all_ones_scalars():
    rep = concentration_probability(np.array([1.0, 1.0, 1.0, 1.0]))
    assert rep.n == 4
    assert rep.ambient_dim == 1
    assert rep.count == 6
    assert rep.total == 16
    assert rep.rho == pytest.approx(0.375)
    assert rep.mode.tolist() == [0.0]


def test_concentration_standard_basis():
    rep = concentration_probability([np.array([1.0, 0.0, 0.0]),
                                     np.array([0.0, 1.0, 0.0]),
                                     np.array([0.0, 0.0, 1.0])])
    assert rep.n == 3
    assert rep.ambient_dim == 3
    assert rep.rho == pytest.approx(1.0 / 8.0)
    assert rep.count == 1


def test_concentration_matches_dictionary_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(1, 4))
        a = rng.integers(-3, 4, size=(d, n)).astype(float)
        rep = concentration_probability(a)
        counts = {}
        for bits in range(1 << n):
            x = 1.0 - 2.0 * ((bits >> np.arange(n)) & 1)
            key = tuple((a @ x).astype(np.int64).tolist())
            counts[key] = counts.get(key, 0) + 1
        best = max(counts.values())
        assert rep.count == best
        assert rep.total == 1 << n
        assert counts[tuple(rep.mode.astype(np.int64).tolist())] == best


def test_concentration_scalar_weights_scale_invariance():
    base = concentration_probability(np.array([1.0, 2.0, 2.0]))
    scaled = concentration_probability(np.array([0.5, 1.0, 1.0]))
    assert base.rho == scaled.rho


def test_concentration_caps():
    with pytest.raises(CapacityError):
        concentration_probability(np.ones((1, 25)))
    with pytest.raises(CapacityError):
        concentration_probability(np.ones((65, 3)))


def test_verify_rank_r_structure_on_construction(rng):
    for _ in range(10):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(2 * r + 1, 14))  # keeps d tall enough for full column rank
        d = rng.normal(size=(n - r, r))
        a = rand_antisymmetric(rng, r, 0.5)
        cert = rank_r_orthogonal(n, d, a)
        u = np.asarray(cert.parameters["u"])
        rep = verify_rank_r_structure(u, d)
        assert rep.r == r
        assert rep.identity_residual <= 1e-10
        assert rep.sym_nsd
        assert rep.diag_nonpositive
        assert rep.trace_ok
        assert rep.trace_bound == 2.0 * r


def test_verify_rank_r_structure_rejects_wrong_u():
    d = np.ones((3, 1))
    rep = verify_rank_r_structure(np.array([[1.0]]), d)
    assert rep.identity_residual > 0.1
    assert not rep.sym_nsd


def test_verify_rank_r_structure_validation():
    with pytest.raises(PreconditionError):
        verify_rank_r_structure(np.eye(2), np.ones((3, 1)))


def test_trace_bound_inside_range(rng):
    for _ in range(50):
        r = int(rng.integers(1, 8))
        e = rng.uniform(0.1, 5.0, size=r)
        b = rand_antisymmetric(rng, r, 2.0)
        rep = trace_bound_check(e, b)
        assert rep.within_bounds
        assert 0.0 <= rep.trace <= r
        assert rep.lower == 0.0
        assert rep.upper == float(r)


def test_trace_bound_diagonal_value():
    rep = trace_bound_check([0.5, 1.0, 2.0])
    expected = 1 / 1.5 + 1 / 2.0 + 1 / 3.0
    assert rep.trace == pytest.approx(expected)
    assert rep.within_bounds


def test_trace_bound_validation():
    with pytest.raises(PreconditionError):
        trace_bound_check([0.0, 1.0])
    with pytest.raises(PreconditionError):
        trace_bound_check([1.0, 1.0], b=np.eye(2))
    with pytest.raises(PreconditionError):
        trace_bound_check([1.0], b=np.zeros((2, 2)))


def test_procrustes_recovers_signed_permutation(rng):
    n = 8
    pi = rng.permutation(n)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    true_m = perm_reflection(n, pi, signs).matrix
    pairs = []
    for _ in range(12):
        x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        pairs.append((x, true_m @ x))
    rep = procrustes_fit(pairs)
    assert rep.n == n
    assert rep.pairs == 12
    assert rep.orthogonal
    assert rep.max_residual <= 1e-9
    assert np.max(np.abs(rep.matrix - true_m)) <= 1e-9


def test_procrustes_accepts_packed_vectors():
    pairs = [(SignVector(3, 0), SignVector(3, 0)), (SignVector(3, 5), SignVector(3, 5))]
    rep = procrustes_fit(pairs)
    assert rep.max_residual <= 1e-9


def test_procrustes_reports_misfit_for_inconsistent_pairs():
    # x and -x cannot both map to the same y under a linear map
    pairs = [([1, 1, 1], [1, 1, 1]), ([-1, -1, -1], [1, 1, 1])]
    rep = procrustes_fit(pairs)
    assert rep.max_residual > 0.5


def test_procrustes_validation():
    with pytest.raises(PreconditionError):
        procrustes_fit([])
    with pytest.raises(PreconditionError):
        procrustes_fit([([1, 1], [1, 1, 1])])


def test_hamming_check_values():
    rep = hamming_check([1, -1, 1], [1, 1, -1])
    assert rep.hamming == 2
    assert rep.quarter_norm_sq == pytest.approx(2.0)
    assert rep.consistent
    same = hamming_check(SignVector(4, 9), SignVector(4, 9))
    assert same.hamming == 0
    assert same.consistent


def test_hamming_identity_holds_for_random_pairs(rng):
    for _ in range(100):
        n = int(rng.integers(1, 20))
        x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        y = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        rep = hamming_check(x, y)
        assert rep.consistent
        assert rep.hamming == int(np.sum(x != y))


def test_hamming_validation():
    with pytest.raises(PreconditionError):
        hamming_check([1, 1], [1, 1, 1])


@pytest.mark.parametrize("psd_tol", [50.0, 1.0, 0.0, float("nan")])
def test_trace_bound_check_rejects_psd_tol_outside_the_unit_interval(psd_tol):
    # a slack of 50 would accept any trace of a 3 x 3 inverse
    with pytest.raises(PreconditionError, match="psd_tol"):
        trace_bound_check([0.5, 1.0, 2.0], psd_tol=psd_tol)


def test_stochastic_certificate_rejects_nan_stochastic_tol():
    with pytest.raises(PreconditionError, match="stochastic_tol"):
        stochastic_certificate(np.eye(3), stochastic_tol=float("nan"))
