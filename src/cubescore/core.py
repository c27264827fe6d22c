"""Shared primitives: errors, tolerances, sign vectors, matrix I/O.

Matrices are plain float64 numpy arrays validated through :func:`as_matrix`.
Sign vectors (points of the hypercube ``{-1,+1}^n``) are bit-packed ints
wrapped in :class:`SignVector`; bit ``i`` set means component ``i`` is ``-1``,
so the integer value of the bitmask doubles as an enumeration index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Hard cap on exhaustive hypercube enumeration (2**30 points).
ENUMERATION_CAP = 30

#: Above this dimension numeric_rank switches from SVD to pivoted QR.
SVD_DIM_LIMIT = 512


class CubescoreError(Exception):
    """Base class for every error raised by this package."""


class CapacityError(CubescoreError):
    """A requested size exceeds an exhaustive-enumeration or method cap."""


class ShapeError(CubescoreError):
    """Operands have missing, mismatched, or non-square dimensions."""


class PreconditionError(CubescoreError):
    """An input violates a documented precondition of the operation."""


class ConstructionError(PreconditionError):
    """A constructor cannot produce a valid matrix from these inputs."""


class DegenerateGeneratorsError(PreconditionError):
    """Lattice generators are numerically rank-deficient."""


class InternalCheckError(CubescoreError):
    """An internal consistency check failed; this signals a bug, not bad input."""


class ParseError(CubescoreError):
    """A matrix file could not be parsed.

    Carries the 1-based ``line`` (and ``column`` where known) of the offending
    token so the message pins down the exact location.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances used across the package.

    membership_tol bounds how far a coordinate may sit from +-1 while still
    counting as a hypercube hit; rank_tol scales the singular-value (or
    pivoted-QR) cutoff in :func:`numeric_rank`; psd_tol is the slack allowed
    when checking eigenvalue sign conditions.
    """

    membership_tol: float = 1e-9
    rank_tol: float = 1e-8
    psd_tol: float = 1e-9

    def __post_init__(self):
        for name in ("membership_tol", "rank_tol", "psd_tol"):
            check_fraction(getattr(self, name), name)


def check_fraction(value: float, name: str = "tolerance") -> float:
    """``value`` as a float, which must be finite and lie strictly between 0 and 1."""
    if not 0.0 < value < 1.0:  # also false for nan
        raise PreconditionError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return float(value)


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class SignVector:
    """A point of ``{-1,+1}^n`` packed into a bitmask.

    Bit ``i`` of ``bits`` set means component ``i`` equals ``-1``.  The all
    ``+1`` vector is ``bits == 0``.  ``bits`` is also the vector's index in
    the standard enumeration order.
    """

    n: int
    bits: int = 0

    def __post_init__(self):
        for name in ("n", "bits"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise PreconditionError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not 1 <= self.n <= ENUMERATION_CAP:
            raise CapacityError(
                f"sign vector length must lie in [1, {ENUMERATION_CAP}], got {self.n}"
            )
        if not 0 <= self.bits < (1 << self.n):
            raise PreconditionError(f"bits {self.bits!r} out of range for n={self.n}")

    @classmethod
    def from_components(cls, components: Sequence[float]) -> "SignVector":
        comps = np.asarray(components, dtype=float)
        if comps.ndim != 1 or comps.size == 0:
            raise ShapeError("components must form a nonempty 1-D sequence")
        if not np.all(np.abs(comps) == 1.0):
            raise PreconditionError("every component must be exactly +1 or -1")
        bits = 0
        for i, c in enumerate(comps):
            if c < 0:
                bits |= 1 << i
        return cls(int(comps.size), bits)

    @classmethod
    def all_ones(cls, n: int) -> "SignVector":
        return cls(n, 0)

    def components(self) -> np.ndarray:
        """Dense float64 vector of +-1 components."""
        idx = np.arange(self.n)
        negs = (self.bits >> idx) & 1
        return 1.0 - 2.0 * negs.astype(np.float64)

    def component(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range for n={self.n}")
        return -1 if (self.bits >> i) & 1 else 1

    def flip(self, i: int) -> "SignVector":
        if not 0 <= i < self.n:
            raise IndexError(f"flip index {i} out of range for n={self.n}")
        return SignVector(self.n, self.bits ^ (1 << i))

    def __len__(self) -> int:
        return self.n


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ShapeError(f"{name} must be 2-D with positive dimensions, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return arr


def is_orthogonal(m, tol: float = 1e-9) -> bool:
    """True when ``M.T @ M`` is within ``tol`` (max-norm) of the identity."""
    arr = as_matrix(m, square=True)
    gram = arr.T @ arr
    return float(np.max(np.abs(gram - np.eye(arr.shape[0])))) <= tol


def is_column_stochastic(m, tol: float = 1e-9) -> bool:
    """True when all entries are >= -tol and every column sums to 1 within tol."""
    arr = as_matrix(m)
    tol = check_fraction(tol, "stochastic_tol")
    if np.min(arr) < -tol:
        return False
    return bool(np.max(np.abs(arr.sum(axis=0) - 1.0)) <= tol)


def numeric_rank(m, rank_tol: float = DEFAULT_TOLERANCES.rank_tol) -> int:
    """Numerical rank of ``m``.

    Up to :data:`SVD_DIM_LIMIT` in each dimension the rank is the number of
    singular values above ``rank_tol`` times the largest one.  Beyond that a
    pivoted QR factorization is used instead, counting diagonal entries of
    ``R`` above the same relative cutoff.
    """
    arr = as_matrix(m)
    rank_tol = check_fraction(rank_tol, "rank_tol")
    if max(arr.shape) <= SVD_DIM_LIMIT:
        sv = np.linalg.svd(arr, compute_uv=False)
        top = sv[0] if sv.size else 0.0
        if top == 0.0:
            return 0
        return int(np.count_nonzero(sv > rank_tol * top))
    import scipy.linalg

    r = scipy.linalg.qr(arr, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    top = diag[0] if diag.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(diag > rank_tol * top))


def save_matrix(path, m) -> None:
    """Write a matrix as text: a ``rows cols`` header line, then one line per row.

    Entries are rendered with 17 significant digits, enough for exact float64
    round-trips through :func:`load_matrix`.
    """
    arr = as_matrix(m)
    rows, cols = arr.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in arr:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Parse a matrix file written in the :func:`save_matrix` layout.

    Raises :class:`ParseError` with 1-based line/column coordinates on the
    first malformed token, wrong row length, or row-count mismatch.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing 'rows cols' header", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must hold exactly two integers, got {lines[0].strip()!r}", line=1)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must hold exactly two integers, got {lines[0].strip()!r}", line=1) from None
    if rows <= 0 or cols <= 0:
        raise ParseError(f"dimensions must be positive, got {rows} x {cols}", line=1)

    out = np.empty((rows, cols), dtype=np.float64)
    body = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(body) != rows:
        raise ParseError(f"expected {rows} data rows, found {len(body)}", line=len(lines))
    for r, (lineno, ln) in enumerate(body):
        tokens = ln.split()
        if len(tokens) != cols:
            raise ParseError(f"row has {len(tokens)} entries, expected {cols}", line=lineno)
        for c, tok in enumerate(tokens):
            try:
                out[r, c] = float(tok)
            except ValueError:
                raise ParseError(f"bad numeric token {tok!r}", line=lineno, column=c + 1) from None
    if not np.all(np.isfinite(out)):
        raise ParseError("matrix contains non-finite values")
    return out


def sign_matrix_from_rows(vectors: Iterable) -> np.ndarray:
    """Stack sign vectors (SignVector or +-1 sequences) into a k x n float array."""
    rows = []
    for v in vectors:
        if isinstance(v, SignVector):
            rows.append(v.components())
        else:
            arr = np.asarray(v, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ShapeError("each vector must be a nonempty 1-D sequence")
            if not np.all(np.abs(arr) == 1.0):
                raise PreconditionError("every component must be exactly +1 or -1")
            rows.append(arr)
    if not rows:
        raise ShapeError("at least one vector is required")
    n = rows[0].size
    if any(r.size != n for r in rows):
        raise ShapeError("all vectors must share the same length")
    return np.vstack(rows)
