"""Constructions of matrices with large hypercube hit scores.

Each constructor returns a :class:`ConstructionCertificate` bundling the
matrix with the score lower bound the construction guarantees and the
parameters that produced it.  Families:

* permutation-reflection matrices (score exactly 1),
* selector matrices that copy one signed input coordinate per row,
* rank-one orthogonal perturbations of the identity,
* rank-r orthogonal perturbations built from a Cayley-style inverse,
* selector matrices perturbed by lattice points drawn from a generalized
  arithmetic progression (GAP), tuned so a modal cancellation keeps a
  guaranteed fraction of the hypercube mapping onto itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .core import (
    CapacityError,
    DEFAULT_TOLERANCES,
    ENUMERATION_CAP,
    InternalCheckError,
    PreconditionError,
    antisymmetric_block,
    as_matrix,
    as_sequence,
    as_signs,
    as_vector,
    check_fraction,
    check_int,
    check_seed,
    column_sign_pairs,
    is_orthogonal,
    numeric_rank,
)

#: Largest GAP rank accepted anywhere.
GAP_RANK_CAP = 10

#: Largest GAP that properness checking / drawing will enumerate.
GAP_SIZE_CAP = 10**6


@dataclass(frozen=True, eq=False)
class GapDescriptor:
    """A generalized arithmetic progression ``{sum_i k_i g_i : L_i <= k_i <= U_i}``.

    ``generators`` is ``(rank, ambient_dim)`` with generator ``i`` in row
    ``i``; ``lower``/``upper`` are the integer coefficient bounds.  A
    symmetric GAP has ``lower == -upper``.
    """

    generators: np.ndarray
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    symmetric: bool = False

    def __post_init__(self):
        g = as_matrix(self.generators, name="generators").copy()  # never the caller's array
        if g.shape[0] > GAP_RANK_CAP:
            raise CapacityError(f"GAP rank is capped at {GAP_RANK_CAP}, got {g.shape[0]}")
        object.__setattr__(self, "generators", g)
        if not isinstance(self.symmetric, (bool, np.bool_)):
            raise PreconditionError(f"symmetric must be true or false, got {self.symmetric!r}")
        # one integer bound of each kind per generator
        lo, up = (tuple(check_int(v, f"every entry of {name}", None)
                        for v in as_sequence(getattr(self, name), name, g.shape[0]))
                  for name in ("lower", "upper"))
        if any(l > u for l, u in zip(lo, up)):
            raise PreconditionError("every lower bound must be <= its upper bound")
        if self.symmetric and any(l != -u for l, u in zip(lo, up)):
            raise PreconditionError("a symmetric GAP requires lower == -upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "symmetric", bool(self.symmetric))

    @property
    def rank(self) -> int:
        return self.generators.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]

    def size(self) -> int:
        """Nominal element count ``prod(U_i - L_i + 1)`` (exact when proper)."""
        out = 1
        for l, u in zip(self.lower, self.upper):
            out *= u - l + 1
        return out

    def _elements(self) -> tuple[np.ndarray, np.ndarray]:
        """Every coefficient tuple, as the rows of a ``(size, rank)`` array in
        lexicographic order, and the matching elements, one product for all."""
        if self.size() > GAP_SIZE_CAP:
            raise CapacityError(f"GAP enumeration is capped at {GAP_SIZE_CAP} elements")
        shape = [u - l + 1 for l, u in zip(self.lower, self.upper)]
        coeffs = np.indices(shape).reshape(self.rank, -1).T + np.asarray(self.lower)
        return coeffs, coeffs.astype(float) @ self.generators

    def is_proper(self, tol: float = DEFAULT_TOLERANCES.membership_tol) -> bool:
        """True when distinct coefficient tuples give distinct elements.

        Elements are compared on a ``tol`` grid, which is exact for integer
        generators.  Enumerates the GAP, so the size cap applies.
        """
        tol = check_fraction(tol, "tol")
        keys = _kernel.grid_keys(self._elements()[1], tol)
        return _kernel.group_rows(keys)[1].size == len(keys)

    def sample_coefficients(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo = np.asarray(self.lower, dtype=np.int64)
        up = np.asarray(self.upper, dtype=np.int64)
        return rng.integers(lo, up + 1, size=(count, self.rank), dtype=np.int64)

    @classmethod
    def from_dict(cls, d: Mapping) -> "GapDescriptor":
        if not isinstance(d, Mapping):
            raise PreconditionError(f"a GAP description must be a mapping (a JSON object), got {d!r}")
        try:
            return cls(d["generators"], d["lower"], d["upper"], d.get("symmetric", False))
        except KeyError as e:
            raise PreconditionError(f"GAP description is missing field {e.args[0]!r}") from None


def integer_fit(basis: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """The least-squares coefficients of ``target`` in the columns of
    ``basis``, rounded to ``int64``, and the max-norm error of that integer
    combination."""
    real, *_ = np.linalg.lstsq(basis, target, rcond=None)
    k = np.round(real).astype(np.int64)
    return k, float(np.max(np.abs(basis @ k.astype(float) - target)))


@dataclass(frozen=True, eq=False)
class ConstructionCertificate:
    """A constructed matrix plus the guarantee that comes with it.

    ``claimed_score_lower_bound`` is the score the construction proves;
    measuring the matrix must give at least this value.  ``parameters``
    records everything needed to reproduce the construction.
    """

    matrix: np.ndarray
    family: str
    n: int
    claimed_score_lower_bound: float
    orthogonal: bool
    parameters: dict = field(default_factory=dict)


def _check_permutation(pi, n: int) -> list[int]:
    p = [check_int(v, "every entry of pi", 0) for v in as_sequence(pi, "pi", n)]
    if sorted(p) != list(range(n)):
        raise PreconditionError(f"pi must be a permutation of 0..{n - 1}")
    return p


def perm_reflection(n: int, pi, signs) -> ConstructionCertificate:
    """Signed permutation matrix: coordinate ``i`` goes to slot ``pi[i]`` with
    sign ``signs[i]``.  Maps the hypercube onto itself, so the score is 1."""
    n = check_int(n, "n", 1)
    p = _check_permutation(pi, n)
    s = as_signs(signs, "signs", n)
    m = np.zeros((n, n))
    m[p, np.arange(n)] = s
    return ConstructionCertificate(
        m, "perm_reflection", n, 1.0, True,
        {"pi": p, "signs": s.tolist()},
    )


def selector_matrix(n: int, targets) -> ConstructionCertificate:
    """Each row copies one signed input coordinate: ``M[i, c_i] = s_i``.

    ``targets`` lists ``(column, sign)`` for every row; duplicate source
    columns are allowed.  Every image coordinate is some ``+-x_j``, so every
    sign vector is a hit and the score is 1.  Orthogonal exactly when the
    columns form a permutation.
    """
    n = check_int(n, "n", 1)
    cols, signs = column_sign_pairs(dict(enumerate(as_sequence(targets, "targets", n))), n)
    m = np.zeros((n, n))
    m[np.arange(n), cols] = signs
    return ConstructionCertificate(
        m, "selector", n, 1.0, is_orthogonal(m),
        {"columns": cols, "signs": [int(s) for s in signs]},
    )


def _zero_sum_probability(t: np.ndarray, tol: float) -> float:
    # fraction of sign vectors x with |t . x| <= tol: over the exact integer
    # sums where the reducer takes t, else by the walk wherever it runs (the
    # rule is invariant under x -> -x) and 0.0, a valid but empty bound, beyond
    found = _kernel.integer_sum_counts(t[None, :])
    if found is not None:
        sums, counts = found
        return int(counts[np.abs(sums[:, 0]) <= tol].sum()) / (1 << t.size)
    if t.size > ENUMERATION_CAP:
        return 0.0
    hits, total, _ = _kernel.count_signs(t[None, :], _kernel.Window(0.0, tol))
    return hits / total


def rank_one_orthogonal(n: int, t) -> ConstructionCertificate:
    """Orthogonal rank-one perturbation ``M = I + x t t^T`` with ``x = -2/|t|^2``.

    Requires ``t[0] == 1`` as a normalization.  Sign vectors orthogonal to
    ``t`` are fixed by ``M``, so the score is at least the fraction of the
    hypercube with ``t . x = 0``.  That fraction is exact for integer ``t``
    up to ``n = 62`` (:func:`_kernel.integer_sum_counts`); any other ``t``
    walks the cube up to ``ENUMERATION_CAP`` (``n = 30``) and reports 0
    beyond (still a valid lower bound).
    The all-ones ``t`` gives the reflection ``I - (2/n) J``.
    """
    n = check_int(n, "n", 1)
    tv = as_vector(t, "t", n)
    if tv[0] != 1.0:
        raise PreconditionError(f"t[0] must equal 1, got {tv[0]!r}")
    norm_sq = float(tv @ tv)
    x = -2.0 / norm_sq
    m = np.eye(n) + x * np.outer(tv, tv)
    if not is_orthogonal(m, 1e-8):
        raise InternalCheckError("rank-one construction failed its orthogonality check")
    claimed = _zero_sum_probability(tv, DEFAULT_TOLERANCES.membership_tol)
    return ConstructionCertificate(
        m, "rank_one", n, claimed, True,
        {"t": tv.tolist(), "x": x},
    )


def rank_r_orthogonal(n: int, d, a=None, diag_signs=None) -> ConstructionCertificate:
    """Orthogonal perturbation of the identity with rank-r correction.

    Given full-column-rank ``D`` of shape ``(n-r, r)`` and an antisymmetric
    ``r x r`` matrix ``A``, sets ``U = -2 (I + D^T D - A)^{-1}`` and returns
    ``M = S (I + [[U, U D^T], [D U, D U D^T]])`` with ``S`` a sign diagonal.
    The correction block has rank ``r`` and ``M`` is exactly orthogonal in
    exact arithmetic; a numerical orthogonality check guards the result.
    """
    n = check_int(n, "n", 1)
    dd = as_matrix(d, name="d")
    r = dd.shape[1]
    if not 1 <= r < n:
        raise PreconditionError(f"d must have between 1 and n-1 columns, got shape {dd.shape}")
    if dd.shape[0] != n - r:
        raise PreconditionError(f"d must have shape ({n - r}, {r}) for n={n}, got {dd.shape}")
    if numeric_rank(dd) < r:
        raise PreconditionError("d must have full column rank")
    aa = antisymmetric_block(a, r, "a")
    sv = np.ones(n) if diag_signs is None else as_signs(diag_signs, "diag_signs", n)

    u = -2.0 * np.linalg.inv(np.eye(r) + dd.T @ dd - aa)
    core = np.empty((n, n))
    core[:r, :r] = u
    core[:r, r:] = u @ dd.T
    core[r:, :r] = dd @ u
    core[r:, r:] = dd @ u @ dd.T
    m = sv[:, None] * (np.eye(n) + core)
    if not is_orthogonal(m, 1e-8):
        raise InternalCheckError("rank-r construction failed its orthogonality check")
    return ConstructionCertificate(
        m, "rank_r", n, 0.0, True,
        {
            "r": r,
            "d": dd.tolist(),
            "a": aa.tolist(),
            "diag_signs": sv.tolist(),
            "u": u.tolist(),
        },
    )


def _check_selector_style(f0: np.ndarray) -> None:
    for i, row in enumerate(f0):
        if np.count_nonzero(row) != 1:
            raise PreconditionError(f"row {i} of the base matrix must have exactly one nonzero entry")
    as_signs(f0[f0 != 0], "the nonzero part of f0")


def gap_perturbed_selector(
    f0,
    gap: GapDescriptor,
    seed: int,
    group_tol: float = DEFAULT_TOLERANCES.membership_tol,
) -> ConstructionCertificate:
    """Selector matrix plus GAP-drawn columns, with the last column chosen to
    cancel the most common partial sum.

    Columns ``u_1 .. u_{n-1}`` are drawn uniformly from the GAP (which must
    be proper and enumerable); ``u_n`` is set to minus the modal value of
    ``sum_{i<n} x_i u_i`` over all sign choices (:func:`_kernel.modal_signed_sum`,
    whose walk refuses past ``RHO_N_CAP`` columns).  Whenever the partial sum
    hits that mode, the perturbation cancels and ``M x = F0 x`` lands in the
    hypercube, so the score is at least ``mode_count / 2**(n-1)``.
    """
    base = as_matrix(f0, square=True, name="f0")
    n = base.shape[0]
    if n < 2:
        raise PreconditionError(f"n must be at least 2, got {n}")
    _check_selector_style(base)
    if not isinstance(gap, GapDescriptor):
        raise PreconditionError(f"gap must be a GapDescriptor, got {gap!r}")
    if gap.ambient_dim != n:
        raise PreconditionError(
            f"GAP ambient dimension {gap.ambient_dim} must match the matrix size {n}"
        )
    group_tol = check_fraction(group_tol, "group_tol")
    if not gap.is_proper(group_tol):
        raise PreconditionError("GAP is improper: distinct coefficients collide")
    seed = check_seed(seed)

    rng = np.random.Generator(np.random.Philox(key=seed))
    coeffs = gap.sample_coefficients(rng, n - 1)
    u_cols = (coeffs.astype(float) @ gap.generators).T  # (n, n-1)
    mode_count, mode_vec, total = _kernel.modal_signed_sum(u_cols, group_tol)
    u_last = -mode_vec
    m = base + np.concatenate([u_cols, u_last[:, None]], axis=1)
    claimed = mode_count / total
    return ConstructionCertificate(
        m, "gap_perturbed", n, claimed, is_orthogonal(m),
        {
            "seed": seed,
            "gap": gap,
            "coefficients": coeffs.tolist(),
            "mode_count": mode_count,
            "mode_vector": mode_vec.tolist(),
            "group_tol": group_tol,
        },
    )
