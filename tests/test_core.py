import numpy as np
import pytest

from cubescore.core import (
    CapacityError,
    ENUMERATION_CAP,
    ParseError,
    PreconditionError,
    ShapeError,
    SignVector,
    ToleranceConfig,
    as_matrix,
    is_column_stochastic,
    is_orthogonal,
    load_matrix,
    numeric_rank,
    save_matrix,
    sign_matrix_from_rows,
)


def test_sign_vector_components_round_trip():
    sv = SignVector.from_components([1, -1, -1, 1, -1])
    assert sv.n == 5
    assert sv.bits == 0b10110
    assert sv.components().tolist() == [1.0, -1.0, -1.0, 1.0, -1.0]
    assert [sv.component(i) for i in range(5)] == [1, -1, -1, 1, -1]
    assert len(sv) == 5


def test_sign_vector_all_ones_is_index_zero():
    sv = SignVector.all_ones(7)
    assert sv.bits == 0
    assert np.all(sv.components() == 1.0)


def test_sign_vector_flip():
    sv = SignVector(4, 0)
    flipped = sv.flip(2)
    assert flipped.bits == 0b100
    assert flipped.component(2) == -1
    assert flipped.flip(2) == sv


def test_sign_vector_validation():
    with pytest.raises(CapacityError):
        SignVector(0, 0)
    with pytest.raises(CapacityError):
        SignVector(ENUMERATION_CAP + 1, 0)
    with pytest.raises(PreconditionError):
        SignVector(3, 8)
    with pytest.raises(PreconditionError):
        SignVector.from_components([1.0, 0.5])
    with pytest.raises(PreconditionError):
        SignVector(3, 1.5)


def test_tolerance_config_defaults_and_validation():
    cfg = ToleranceConfig()
    assert cfg.membership_tol == 1e-9
    assert cfg.rank_tol == 1e-8
    assert cfg.psd_tol == 1e-9
    with pytest.raises(PreconditionError):
        ToleranceConfig(membership_tol=0.0)
    with pytest.raises(PreconditionError):
        ToleranceConfig(rank_tol=1.0)


def test_as_matrix_validation():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(PreconditionError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_is_orthogonal_accepts_signed_permutations(rng):
    m = np.zeros((4, 4))
    m[[2, 0, 3, 1], np.arange(4)] = [1, -1, -1, 1]
    assert is_orthogonal(m)
    assert not is_orthogonal(np.ones((3, 3)))


def test_is_orthogonal_invariant_under_permutation_and_signs(rng):
    from .conftest import rand_orthogonal

    q = rand_orthogonal(rng, 6)
    assert is_orthogonal(q, 1e-9)
    p = rng.permutation(6)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=6)
    assert is_orthogonal(q[p][:, p] * signs, 1e-9)


def test_is_column_stochastic():
    a = np.array([[0.25, 0.5], [0.75, 0.5]])
    assert is_column_stochastic(a)
    assert not is_column_stochastic(a.T * 1.01)
    assert not is_column_stochastic(np.array([[1.1, 0.0], [-0.1, 1.0]]))


def test_numeric_rank_small_matrices(rng):
    assert numeric_rank(np.zeros((5, 5))) == 0
    assert numeric_rank(np.eye(7)) == 7
    u = rng.normal(size=(40, 3))
    v = rng.normal(size=(3, 40))
    assert numeric_rank(u @ v) == 3


def test_numeric_rank_large_uses_pivoted_qr(rng):
    # beyond 512 in either dimension the QR path takes over; same answers
    u = rng.normal(size=(520, 7))
    v = rng.normal(size=(7, 520))
    assert numeric_rank(u @ v) == 7
    assert numeric_rank(np.zeros((520, 520))) == 0


def test_numeric_rank_tol_validation():
    with pytest.raises(PreconditionError):
        numeric_rank(np.eye(3), rank_tol=0.0)


def test_save_load_round_trip_is_bit_exact(tmp_path, rng):
    m = rng.normal(size=(7, 5))
    m[0, 0] = 1.0 / 3.0
    m[1, 1] = 1e-300
    m[2, 2] = -0.0
    m[3, 3] = 12345678901234567.0
    path = tmp_path / "m.txt"
    save_matrix(path, m)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


def test_load_matrix_reports_header_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(ParseError):
        load_matrix(p)
    p.write_text("2\n1 2\n3 4\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert err.value.line == 1


def test_load_matrix_reports_row_and_token_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert err.value.line == 3

    p.write_text("2 2\n1 2\n3 x\n")
    with pytest.raises(ParseError) as err:
        load_matrix(p)
    assert err.value.line == 3
    assert err.value.column == 2

    p.write_text("1 2\n1 2\n3 4\n")
    with pytest.raises(ParseError):
        load_matrix(p)

    p.write_text("2 2\n1 2\n3 inf\n")
    with pytest.raises(ParseError):
        load_matrix(p)


def test_sign_matrix_from_rows_mixes_packed_and_dense():
    rows = sign_matrix_from_rows([SignVector(3, 0b101), [1, 1, -1]])
    assert rows.tolist() == [[-1.0, 1.0, -1.0], [1.0, 1.0, -1.0]]
    with pytest.raises(PreconditionError):
        sign_matrix_from_rows([[1.0, 0.0]])
    with pytest.raises(ShapeError):
        sign_matrix_from_rows([[1.0, 1.0], [1.0, 1.0, -1.0]])


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, float("nan"), float("inf"), float("-inf")])
def test_check_fraction_rejects_values_outside_the_open_unit_interval(value):
    from cubescore.core import check_fraction

    with pytest.raises(PreconditionError, match="rank_tol must lie strictly between 0 and 1"):
        check_fraction(value, "rank_tol")
    assert check_fraction(0.25) == 0.25


def test_stochastic_tol_must_be_a_fraction():
    a = np.array([[1.5, 0.0], [-0.5, 1.0]])
    assert not is_column_stochastic(a)
    with pytest.raises(PreconditionError, match="stochastic_tol"):
        is_column_stochastic(a, float("inf"))
