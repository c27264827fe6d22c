"""Structural analysis of near-hypercube-preserving matrices.

The verifiers in this module take a matrix (or the pieces of one) and report
checkable structural facts: which rows are dominated by a single large entry,
how the matrix splits into a sparse sign part plus a low-rank residual,
how concentrated signed sums of a vector family can get, how the rows of a
column-stochastic matrix classify into small / splittable / dominated, and
whether the algebraic identities behind the orthogonal rank-r construction
hold numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .core import (
    CapacityError,
    DEFAULT_TOLERANCES,
    PreconditionError,
    as_matrix,
    check_fraction,
    is_column_stochastic,
    is_orthogonal,
    numeric_rank,
    sign_matrix_from_rows,
)
from .constructors import GAP_RANK_CAP, GapDescriptor
from .permanent import ryser_value

#: Exhaustive concentration search caps.
RHO_N_CAP = 24
RHO_DIM_CAP = 64

#: Largest n for which the stochastic certificate attaches an exact permanent.
PERMANENT_ATTACH_CAP = 20


@dataclass(frozen=True, eq=False)
class SparseSignMatrix:
    """At most one ``+-1`` entry per row, everything else zero.

    ``entries[i]`` is ``None`` for an empty row or a ``(column, sign)`` pair.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise PreconditionError("rows and cols must be positive")
        ent = tuple(self.entries)
        if len(ent) != self.rows:
            raise PreconditionError(f"need one entry slot per row, got {len(ent)} for {self.rows} rows")
        for i, e in enumerate(ent):
            if e is None:
                continue
            c, s = e
            if not 0 <= int(c) < self.cols:
                raise PreconditionError(f"row {i} points at column {c}, out of range")
            if s not in (1, -1):
                raise PreconditionError(f"row {i} has sign {s!r}, must be +1 or -1")
        object.__setattr__(self, "entries", ent)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for i, e in enumerate(self.entries):
            if e is not None:
                out[i, e[0]] = float(e[1])
        return out

    @property
    def nonzero_count(self) -> int:
        return sum(1 for e in self.entries if e is not None)

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, int(e[0]), int(e[1])] for i, e in enumerate(self.entries) if e is not None],
        }


@dataclass(frozen=True)
class DominanceReport:
    """Which rows carry one entry of near-unit size, and where."""

    n: int
    epsilon: float
    threshold: float
    row_max: tuple
    row_argmax: tuple
    dominated: tuple
    dominated_count: int
    column_injective: bool


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Sparse sign part, low-rank residual, and an optional lattice fit."""

    f: SparseSignMatrix
    residual: np.ndarray
    residual_rank: int
    kept_rows: tuple
    kept_cols: tuple
    gap_fit: dict | None = None


@dataclass(frozen=True)
class RowClass:
    """Classification of one nonnegative row.

    ``kind`` is ``"little"`` (l1 norm at most 0.9), ``"splittable"`` (two
    parts each summing to at least 0.1), or ``"dominated"`` (one entry of at
    least 0.8 with the rest summing to at most 0.1).  Witness fields not
    relevant to the kind are ``None``.
    """

    kind: str
    ell1: float
    col: int | None = None
    entry: float | None = None
    tail: float | None = None
    part: tuple | None = None
    part_sum: float | None = None
    rest_sum: float | None = None


@dataclass(frozen=True)
class StochasticReport:
    """Row classes of a column-stochastic matrix plus collision bounds."""

    n: int
    row_classes: tuple
    little_count: int
    splittable_count: int
    dominated_count: int
    dominated_injective: bool
    little_bound: float
    splittable_bound: float
    permanent: float | None


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    """Largest point mass of ``sum_i x_i a_i`` over uniform signs."""

    n: int
    ambient_dim: int
    count: int
    total: int
    rho: float
    mode: np.ndarray
    group_tol: float


@dataclass(frozen=True)
class RankStructureReport:
    """Numerical residuals of the rank-r orthogonality identities."""

    r: int
    identity_residual: float
    sym_max_eig: float
    sym_nsd: bool
    diag_max: float
    diag_nonpositive: bool
    trace: float
    trace_bound: float
    trace_ok: bool


@dataclass(frozen=True)
class TraceBoundReport:
    """Value and admissible range of ``tr((I + E - B)^{-1})``."""

    r: int
    trace: float
    lower: float
    upper: float
    within_bounds: bool


@dataclass(frozen=True, eq=False)
class ProcrustesReport:
    """Best orthogonal map for a list of paired sign vectors."""

    n: int
    pairs: int
    matrix: np.ndarray
    residuals: tuple
    max_residual: float
    orthogonal: bool


@dataclass(frozen=True)
class HammingCheck:
    """Hamming distance against the quarter-squared-distance identity."""

    n: int
    hamming: int
    quarter_norm_sq: float
    consistent: bool


def dominance_analysis(m, epsilon: float = 0.5) -> DominanceReport:
    """Flag rows whose largest absolute entry reaches ``1 - n**(epsilon-1)``.

    Also reports whether the dominant entries of the flagged rows sit in
    pairwise distinct columns (ties inside a row break to the lowest column).
    """
    arr = as_matrix(m, square=True)
    epsilon = check_fraction(epsilon, "epsilon")
    n = arr.shape[0]
    threshold = 1.0 - float(n) ** (epsilon - 1.0)
    absa = np.abs(arr)
    argmax = absa.argmax(axis=1)
    rowmax = absa[np.arange(n), argmax]
    dominated = rowmax >= threshold
    dom_cols = argmax[dominated]
    injective = len(set(dom_cols.tolist())) == int(dominated.sum())
    return DominanceReport(
        n,
        epsilon,
        threshold,
        tuple(float(v) for v in rowmax),
        tuple(int(v) for v in argmax),
        tuple(bool(v) for v in dominated),
        int(dominated.sum()),
        bool(injective),
    )


def decompose(
    m,
    snap_tol: float = 0.25,
    rank_tol: float = DEFAULT_TOLERANCES.rank_tol,
) -> DecompositionReport:
    """Split ``M`` into a sparse sign part ``F`` plus a residual.

    Per row, the largest absolute entry is snapped to ``+-1`` when it lies
    within ``snap_tol`` of unit size (ties break to the lowest column); rows
    with no such entry stay empty in ``F``.  The residual ``M - F`` gets a
    numerical rank, and when that rank is between 1 and 10 the residual
    columns are fitted as integer combinations of a pivot-column basis,
    yielding a GAP-style description with observed coefficient bounds.
    """
    arr = as_matrix(m, square=True)
    snap_tol = check_fraction(snap_tol, "snap_tol")
    n = arr.shape[0]
    absa = np.abs(arr)
    argmax = absa.argmax(axis=1)
    entries = []
    for i in range(n):
        j = int(argmax[i])
        v = arr[i, j]
        if abs(abs(v) - 1.0) <= snap_tol:
            entries.append((j, 1 if v > 0 else -1))
        else:
            entries.append(None)
    f = SparseSignMatrix(n, n, tuple(entries))
    residual = arr - f.to_dense()
    rank = numeric_rank(residual, rank_tol)

    gap_fit = None
    if 1 <= rank <= GAP_RANK_CAP:
        import scipy.linalg

        pivots = scipy.linalg.qr(residual, mode="r", pivoting=True)[1][:rank]
        basis = residual[:, np.sort(pivots)]  # (n, rank)
        coeff_rows = []
        fit_residuals = []
        for c in range(n):
            real, *_ = np.linalg.lstsq(basis, residual[:, c], rcond=None)
            k = np.round(real).astype(np.int64)
            fit_residuals.append(float(np.max(np.abs(basis @ k.astype(float) - residual[:, c]))))
            coeff_rows.append(k)
        coeffs = np.vstack(coeff_rows)  # (n, rank)
        gap = GapDescriptor(
            basis.T,
            tuple(int(v) for v in coeffs.min(axis=0)),
            tuple(int(v) for v in coeffs.max(axis=0)),
            False,
        )
        gap_fit = {
            "gap": gap,
            "generator_columns": [int(v) for v in np.sort(pivots)],
            "coefficients": coeffs.tolist(),
            "max_fit_residual": max(fit_residuals),
        }

    return DecompositionReport(
        f,
        residual,
        rank,
        tuple(range(n)),
        tuple(range(n)),
        gap_fit,
    )


def classify_row(row) -> RowClass:
    """Classify one nonnegative row as little, splittable, or dominated.

    * little: l1 norm at most 0.9;
    * splittable: the entries split into two parts each summing to >= 0.1
      (witnessed either by the largest entry against the rest, or by a
      greedy prefix when every entry is below 0.1);
    * dominated: one entry >= 0.8 and the others summing to <= 0.1.

    Exactly one class applies to every nonnegative row.
    """
    r = np.asarray(row, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise PreconditionError("row must be a nonempty 1-D array")
    if not np.all(np.isfinite(r)):
        raise PreconditionError("row contains non-finite entries")
    if np.min(r) < -1e-12:
        raise PreconditionError(f"row entries must be nonnegative, found {np.min(r)!r}")
    r = np.clip(r, 0.0, None)
    s = float(r.sum())
    if s <= 0.9:
        return RowClass("little", s)
    j = int(r.argmax())
    a1 = float(r[j])
    if a1 >= 0.1 and s - a1 >= 0.1:
        return RowClass("splittable", s, part=(j,), part_sum=a1, rest_sum=s - a1)
    if a1 < 0.1:
        # every entry is small, so a greedy prefix lands in [0.1, 0.2)
        acc = 0.0
        part = []
        for i, v in enumerate(r):
            acc += float(v)
            part.append(i)
            if acc >= 0.1:
                break
        return RowClass("splittable", s, part=tuple(part), part_sum=acc, rest_sum=s - acc)
    return RowClass("dominated", s, col=j, entry=a1, tail=s - a1)


def collision_probability_bounds(little_count: int, splittable_count: int) -> tuple[float, float]:
    """Martingale collision bounds driven by the little / splittable rows:
    ``exp(-L/200)`` and ``exp(-S/25000)``."""
    if little_count < 0 or splittable_count < 0:
        raise PreconditionError("row counts must be nonnegative")
    return math.exp(-little_count / 200.0), math.exp(-splittable_count / 25000.0)


def stochastic_certificate(
    a,
    stochastic_tol: float = 1e-9,
    attach_permanent: bool = True,
) -> StochasticReport:
    """Classify the rows of a column-stochastic matrix and bound its permanent.

    Every row lands in exactly one class; the permanent never exceeds either
    collision bound.  For ``n <= 20`` (and ``attach_permanent=True``) the
    exact Ryser permanent is attached for comparison.
    """
    arr = as_matrix(a, square=True)
    if not is_column_stochastic(arr, stochastic_tol):
        raise PreconditionError(
            "matrix must be column-stochastic (nonnegative entries, columns summing to 1)"
        )
    n = arr.shape[0]
    classes = tuple(classify_row(arr[i]) for i in range(n))
    little = sum(1 for c in classes if c.kind == "little")
    split = sum(1 for c in classes if c.kind == "splittable")
    dom = [c for c in classes if c.kind == "dominated"]
    injective = len({c.col for c in dom}) == len(dom)
    lb, sb = collision_probability_bounds(little, split)
    perm = ryser_value(arr) if (attach_permanent and n <= PERMANENT_ATTACH_CAP) else None
    return StochasticReport(n, classes, little, split, len(dom), injective, lb, sb, perm)


def concentration_probability(
    vectors,
    group_tol: float = DEFAULT_TOLERANCES.membership_tol,
) -> ConcentrationReport:
    """Exhaustive concentration probability of ``sum_i x_i a_i``.

    ``vectors`` is a ``(d, n)`` array whose columns are the ``a_i`` (a 1-D
    array is treated as scalars, ``d = 1``; a list of 1-D vectors is stacked
    as columns).  Sums are grouped on a ``group_tol`` grid, exact for integer
    inputs.  Returns the modal group's probability ``rho`` and a
    representative mode.  Caps: ``n <= 24``, ``d <= 64``.
    """
    if isinstance(vectors, (list, tuple)):
        cols = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
        if any(c.size != cols[0].size for c in cols):
            raise PreconditionError("all vectors must share the same length")
        arr = np.stack(cols, axis=1)
    else:
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
    arr = as_matrix(arr, name="vectors")
    d, n = arr.shape
    if n > RHO_N_CAP:
        raise CapacityError(f"concentration search is capped at n={RHO_N_CAP}, got {n}")
    if d > RHO_DIM_CAP:
        raise CapacityError(f"ambient dimension is capped at {RHO_DIM_CAP}, got {d}")
    count, mode, total = _kernel.modal_signed_sum(arr, group_tol)
    return ConcentrationReport(n, d, count, total, count / total, mode, float(group_tol))


def verify_rank_r_structure(
    u,
    d,
    psd_tol: float = DEFAULT_TOLERANCES.psd_tol,
) -> RankStructureReport:
    """Check the identities an orthogonal rank-r core block must satisfy.

    Verifies (numerically) that ``U + U^T + U^T U + U^T D^T D U = 0``, that
    ``U + U^T`` is negative semidefinite, that ``diag(D U D^T)`` is
    nonpositive, and that ``|tr(D U D^T)| <= 2r``.
    """
    uu = as_matrix(u, square=True, name="u")
    dd = as_matrix(d, name="d")
    r = uu.shape[0]
    if dd.shape[1] != r:
        raise PreconditionError(f"d must have {r} columns to match u, got {dd.shape[1]}")
    psd_tol = check_fraction(psd_tol, "psd_tol")

    identity_residual = float(
        np.max(np.abs(uu + uu.T + uu.T @ uu + uu.T @ (dd.T @ dd) @ uu))
    )
    sym = uu + uu.T
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    sym_max = float(eigs[-1])
    dud = dd @ uu @ dd.T
    diag_max = float(np.max(np.diag(dud)))
    trace = float(np.trace(dud))
    bound = 2.0 * r
    return RankStructureReport(
        r,
        identity_residual,
        sym_max,
        sym_max <= psd_tol,
        diag_max,
        diag_max <= psd_tol,
        trace,
        bound,
        abs(trace) <= bound + psd_tol,
    )


def trace_bound_check(
    e_diag,
    b=None,
    psd_tol: float = DEFAULT_TOLERANCES.psd_tol,
) -> TraceBoundReport:
    """Trace of ``(I + E - B)^{-1}`` for positive diagonal ``E``, antisymmetric ``B``.

    The trace always lands in ``[0, r]``; the report says whether it does
    within ``psd_tol`` slack.
    """
    psd_tol = check_fraction(psd_tol, "psd_tol")
    e = np.asarray(e_diag, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise PreconditionError("e_diag must be a nonempty 1-D array")
    if not np.all(np.isfinite(e)) or np.min(e) <= 0.0:
        raise PreconditionError("e_diag entries must be positive and finite")
    r = e.size
    if b is None:
        bb = np.zeros((r, r))
    else:
        bb = as_matrix(b, square=True, name="b")
        if bb.shape[0] != r:
            raise PreconditionError(f"b must be {r} x {r}, got {bb.shape}")
        if np.max(np.abs(bb + bb.T)) > 1e-9:
            raise PreconditionError("b must be antisymmetric")
    trace = float(np.trace(np.linalg.inv(np.eye(r) + np.diag(e) - bb)))
    within = -psd_tol <= trace <= r + psd_tol
    return TraceBoundReport(r, trace, 0.0, float(r), within)


def procrustes_fit(pairs) -> ProcrustesReport:
    """Best orthogonal matrix mapping each ``x`` near its paired ``y``.

    Takes ``(x, y)`` pairs of sign vectors (packed or as +-1 sequences),
    minimizes ``sum_i |M x_i - y_i|^2`` over orthogonal ``M`` via the SVD of
    the cross-covariance (reflections allowed), and reports per-pair max-norm
    residuals.  A perfect fit exists exactly when some orthogonal map sends
    every ``x_i`` to ``y_i``.
    """
    pair_list = list(pairs)
    if not pair_list:
        raise PreconditionError("at least one pair is required")
    xs = sign_matrix_from_rows(x for x, _ in pair_list)
    ys = sign_matrix_from_rows(y for _, y in pair_list)
    if xs.shape != ys.shape:
        raise PreconditionError("x and y vectors must share one common length")
    cross = ys.T @ xs
    uu, _, vt = np.linalg.svd(cross)
    m = uu @ vt
    fitted = xs @ m.T
    residuals = tuple(float(v) for v in np.abs(fitted - ys).max(axis=1))
    return ProcrustesReport(
        xs.shape[1],
        len(pair_list),
        m,
        residuals,
        max(residuals),
        is_orthogonal(m, 1e-9),
    )


def hamming_check(x, y, tol: float = 1e-9) -> HammingCheck:
    """Hamming distance of two sign vectors vs ``|x - y|^2 / 4``."""
    xs = sign_matrix_from_rows([x])[0]
    ys = sign_matrix_from_rows([y])[0]
    if xs.size != ys.size:
        raise PreconditionError("x and y must share the same length")
    hamming = int(np.count_nonzero(xs != ys))
    quarter = float(((xs - ys) ** 2).sum() / 4.0)
    return HammingCheck(xs.size, hamming, quarter, abs(quarter - hamming) <= tol)
