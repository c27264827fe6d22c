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

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .core import (
    CapacityError,
    DEFAULT_TOLERANCES,
    DegenerateGeneratorsError,
    InternalCheckError,
    PreconditionError,
    as_matrix,
    check_fraction,
    is_orthogonal,
    numeric_rank,
)

#: Largest GAP rank accepted anywhere.
GAP_RANK_CAP = 10

#: Largest GAP that properness checking / drawing will enumerate.
GAP_SIZE_CAP = 10**6

#: The GAP-perturbed constructor enumerates 2**(n-1) partial sums.
GAP_PERTURBED_CAP = 25

#: Above this n the rank-one constructor stops computing its exact bound
#: (the reported lower bound degrades to the trivial 0).
RANK_ONE_CLAIM_CAP = 24


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
        g = as_matrix(self.generators, name="generators")
        if g.shape[0] > GAP_RANK_CAP:
            raise CapacityError(f"GAP rank is capped at {GAP_RANK_CAP}, got {g.shape[0]}")
        object.__setattr__(self, "generators", g)
        lo = tuple(int(v) for v in self.lower)
        up = tuple(int(v) for v in self.upper)
        if len(lo) != g.shape[0] or len(up) != g.shape[0]:
            raise PreconditionError(
                f"bounds must match the generator count {g.shape[0]}, "
                f"got {len(lo)} lower and {len(up)} upper"
            )
        if any(l > u for l, u in zip(lo, up)):
            raise PreconditionError("every lower bound must be <= its upper bound")
        if self.symmetric and any(l != -u for l, u in zip(lo, up)):
            raise PreconditionError("a symmetric GAP requires lower == -upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

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

    def enumerate_elements(self):
        """Yield ``(coefficients, vector)`` for every coefficient tuple."""
        if self.size() > GAP_SIZE_CAP:
            raise CapacityError(f"GAP enumeration is capped at {GAP_SIZE_CAP} elements")
        for coeffs in itertools.product(*(range(l, u + 1) for l, u in zip(self.lower, self.upper))):
            yield coeffs, np.asarray(coeffs, dtype=float) @ self.generators

    def is_proper(self, tol: float = DEFAULT_TOLERANCES.membership_tol) -> bool:
        """True when distinct coefficient tuples give distinct elements.

        Elements are compared on a ``tol`` grid, which is exact for integer
        generators.  Enumerates the GAP, so the size cap applies.
        """
        tol = check_fraction(tol, "tol")
        seen = set()
        for _, vec in self.enumerate_elements():
            seen.add(tuple(np.round(vec / tol).astype(np.int64).tolist()))
        return len(seen) == self.size()

    def sample_coefficients(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo = np.asarray(self.lower, dtype=np.int64)
        up = np.asarray(self.upper, dtype=np.int64)
        return rng.integers(lo, up + 1, size=(count, self.rank), dtype=np.int64)

    @classmethod
    def from_dict(cls, d: dict) -> "GapDescriptor":
        try:
            return cls(
                np.asarray(d["generators"], dtype=float),
                tuple(d["lower"]),
                tuple(d["upper"]),
                bool(d.get("symmetric", False)),
            )
        except KeyError as e:
            raise PreconditionError(f"GAP description is missing field {e.args[0]!r}") from None


def gap_membership(v, gap: GapDescriptor, tol: float = DEFAULT_TOLERANCES.membership_tol):
    """Integer coefficients expressing ``v`` as a GAP element, or ``None``.

    Solves the real least-squares problem against the generators, rounds to
    integers, and accepts only when the rounded combination reproduces ``v``
    within ``tol`` (max norm) and the coefficients respect the bounds.
    Raises :class:`DegenerateGeneratorsError` when the generators are
    numerically rank-deficient.
    """
    vec = np.asarray(v, dtype=float)
    if vec.ndim != 1 or vec.size != gap.ambient_dim:
        raise PreconditionError(f"v must be 1-D of length {gap.ambient_dim}, got shape {vec.shape}")
    g = gap.generators.T  # (ambient_dim, rank)
    if numeric_rank(g) < gap.rank:
        raise DegenerateGeneratorsError("GAP generators are numerically rank-deficient")
    coeffs, *_ = np.linalg.lstsq(g, vec, rcond=None)
    rounded = np.round(coeffs).astype(np.int64)
    if np.max(np.abs(g @ rounded.astype(float) - vec)) > tol:
        return None
    lo = np.asarray(gap.lower, dtype=np.int64)
    up = np.asarray(gap.upper, dtype=np.int64)
    if np.any(rounded < lo) or np.any(rounded > up):
        return None
    return tuple(int(k) for k in rounded)


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


def _check_signs(signs, n: int) -> np.ndarray:
    s = np.asarray(signs, dtype=float)
    if s.shape != (n,):
        raise PreconditionError(f"signs must have length {n}, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise PreconditionError("every sign must be exactly +1 or -1")
    return s


def _check_permutation(pi, n: int) -> np.ndarray:
    p = np.asarray(pi, dtype=np.int64)
    if p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise PreconditionError(f"pi must be a permutation of 0..{n - 1}")
    return p


def perm_reflection(n: int, pi, signs) -> ConstructionCertificate:
    """Signed permutation matrix: coordinate ``i`` goes to slot ``pi[i]`` with
    sign ``signs[i]``.  Maps the hypercube onto itself, so the score is 1."""
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    p = _check_permutation(pi, n)
    s = _check_signs(signs, n)
    m = np.zeros((n, n))
    m[p, np.arange(n)] = s
    return ConstructionCertificate(
        m, "perm_reflection", n, 1.0, True,
        {"pi": p.tolist(), "signs": s.tolist()},
    )


def selector_matrix(n: int, targets) -> ConstructionCertificate:
    """Each row copies one signed input coordinate: ``M[i, c_i] = s_i``.

    ``targets`` lists ``(column, sign)`` for every row; duplicate source
    columns are allowed.  Every image coordinate is some ``+-x_j``, so every
    sign vector is a hit and the score is 1.  Orthogonal exactly when the
    columns form a permutation.
    """
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    tgt = list(targets)
    if len(tgt) != n:
        raise PreconditionError(f"targets must assign all {n} rows, got {len(tgt)}")
    m = np.zeros((n, n))
    cols = []
    sgns = []
    for i, (c, s) in enumerate(tgt):
        c = int(c)
        if not 0 <= c < n:
            raise PreconditionError(f"row {i} selects column {c}, out of range for n={n}")
        if s not in (1, -1, 1.0, -1.0):
            raise PreconditionError(f"row {i} has sign {s!r}, must be +1 or -1")
        m[i, c] = float(s)
        cols.append(c)
        sgns.append(int(s))
    return ConstructionCertificate(
        m, "selector", n, 1.0, is_orthogonal(m),
        {"columns": cols, "signs": sgns},
    )


def _zero_sum_probability(t: np.ndarray, tol: float) -> float:
    # fraction of sign vectors orthogonal to t (|t . x| is invariant under x -> -x)
    hits, total, _ = _kernel.count_signs(t[None, :], lambda y: np.abs(y[0], out=y[0]) <= tol)
    return hits / total


def rank_one_orthogonal(n: int, t) -> ConstructionCertificate:
    """Orthogonal rank-one perturbation ``M = I + x t t^T`` with ``x = -2/|t|^2``.

    Requires ``t[0] == 1`` as a normalization.  Sign vectors orthogonal to
    ``t`` are fixed by ``M``, so the score is at least the fraction of the
    hypercube with ``t . x = 0``; that fraction is computed exactly up to
    ``n = 24`` and reported as 0 beyond (still a valid lower bound).
    The all-ones ``t`` gives the reflection ``I - (2/n) J``.
    """
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    tv = np.asarray(t, dtype=float)
    if tv.shape != (n,):
        raise PreconditionError(f"t must have length {n}, got shape {tv.shape}")
    if not np.all(np.isfinite(tv)):
        raise PreconditionError("t contains non-finite entries")
    if tv[0] != 1.0:
        raise PreconditionError(f"t[0] must equal 1, got {tv[0]!r}")
    norm_sq = float(tv @ tv)
    x = -2.0 / norm_sq
    m = np.eye(n) + x * np.outer(tv, tv)
    if not is_orthogonal(m, 1e-8):
        raise InternalCheckError("rank-one construction failed its orthogonality check")
    if n <= RANK_ONE_CLAIM_CAP:
        claimed = _zero_sum_probability(tv, DEFAULT_TOLERANCES.membership_tol)
    else:
        claimed = 0.0
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
    dd = as_matrix(d, name="d")
    r = dd.shape[1]
    if not 1 <= r < n:
        raise PreconditionError(f"d must have between 1 and n-1 columns, got shape {dd.shape}")
    if dd.shape[0] != n - r:
        raise PreconditionError(f"d must have shape ({n - r}, {r}) for n={n}, got {dd.shape}")
    if numeric_rank(dd) < r:
        raise PreconditionError("d must have full column rank")
    if a is None:
        aa = np.zeros((r, r))
    else:
        aa = as_matrix(a, square=True, name="a")
        if aa.shape[0] != r:
            raise PreconditionError(f"a must be {r} x {r}, got {aa.shape}")
        if np.max(np.abs(aa + aa.T)) > 1e-9:
            raise PreconditionError("a must be antisymmetric")
    if diag_signs is None:
        sv = np.ones(n)
    else:
        sv = _check_signs(diag_signs, n)

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
    n = f0.shape[0]
    for i in range(n):
        nz = np.nonzero(f0[i])[0]
        if nz.size != 1 or abs(f0[i, nz[0]]) != 1.0:
            raise PreconditionError(
                f"row {i} of the base matrix must have exactly one entry equal to +1 or -1"
            )


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
    ``sum_{i<n} x_i u_i`` over all sign choices.  Whenever the partial sum
    hits that mode, the perturbation cancels and ``M x = F0 x`` lands in the
    hypercube, so the score is at least ``mode_count / 2**(n-1)``.
    """
    base = as_matrix(f0, square=True, name="f0")
    n = base.shape[0]
    if n < 2:
        raise PreconditionError(f"n must be at least 2, got {n}")
    if n > GAP_PERTURBED_CAP:
        raise CapacityError(f"the GAP-perturbed construction is capped at n={GAP_PERTURBED_CAP}, got {n}")
    _check_selector_style(base)
    if gap.ambient_dim != n:
        raise PreconditionError(
            f"GAP ambient dimension {gap.ambient_dim} must match the matrix size {n}"
        )
    if gap.size() > GAP_SIZE_CAP:
        raise CapacityError(f"GAP size {gap.size()} exceeds the {GAP_SIZE_CAP} cap")
    group_tol = check_fraction(group_tol, "group_tol")
    if not gap.is_proper(group_tol):
        raise PreconditionError("GAP is improper: distinct coefficients collide")
    seed = _kernel.check_seed(seed)

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
