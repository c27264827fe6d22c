"""Shared primitives: errors, tolerances, sign vectors, matrix I/O.

Matrices are plain float64 numpy arrays validated through :func:`as_matrix`.
Sign vectors (points of the hypercube ``{-1,+1}^n``) are bit-packed ints
wrapped in :class:`SignVector`; bit ``i`` set means component ``i`` is ``-1``,
so the integer value of the bitmask doubles as an enumeration index.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass

import numpy as np

#: Hard cap on exhaustive hypercube enumeration (2**30 points).
ENUMERATION_CAP = 30


class CubescoreError(Exception):
    """Base class for every error raised by this package."""


class CapacityError(CubescoreError):
    """A requested size exceeds an exhaustive-enumeration or method cap."""


class ShapeError(CubescoreError):
    """Operands have missing, mismatched, or non-square dimensions."""


class PreconditionError(CubescoreError):
    """An input violates a documented precondition of the operation."""


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
    counting as a hypercube hit; rank_tol scales the singular-value cutoff
    in :func:`numeric_rank`; psd_tol is the slack allowed when checking
    eigenvalue sign conditions.
    """

    membership_tol: float = 1e-9
    rank_tol: float = 1e-8
    psd_tol: float = 1e-9

    def __post_init__(self):
        for name in ("membership_tol", "rank_tol", "psd_tol"):
            check_fraction(getattr(self, name), name)


def check_fraction(value: float, name: str = "tolerance") -> float:
    """``value`` as a float: a number, not a bool, lying strictly between 0
    and 1 (so finite)."""
    if not (_is_number(value) and 0.0 < value < 1.0):  # also false for nan
        raise PreconditionError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return float(value)


def _is_int(value) -> bool:
    # a bool is an int to Python, but neither a count nor an index here
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def check_numbers(values, name: str) -> np.ndarray:
    """``values`` as a float64 array, every entry a number: not a bool, a
    complex value, a string or a nested sequence of another shape.  An
    integer or float ndarray is converted whole, a float64 one not copied."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return np.asarray(values, dtype=np.float64)
    try:
        arr = np.asarray(values, dtype=object)  # keeps each entry's own type
    except ValueError:  # sequences numpy cannot even hold as objects
        raise PreconditionError(f"{name} must be a regular array of numbers") from None
    for v in arr.flat:
        if not _is_number(v):
            raise PreconditionError(f"every entry of {name} must be a number, got {v!r}")
    return arr.astype(np.float64)


def check_int(value, name: str, minimum: int | None) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not a bool, and at
    least ``minimum`` (0 or 1) unless that is ``None``."""
    if not _is_int(value) or (minimum is not None and value < minimum):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[minimum]
        raise PreconditionError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def check_seed(value) -> int:
    """``value`` as a Philox key: an integer in ``[0, 2**128)``, not a bool."""
    if not (_is_int(value) and 0 <= int(value) < 1 << 128):
        raise PreconditionError(f"seed must be an integer in [0, 2**128), got {value!r}")
    return int(value)


def _check_vector_shape(arr: np.ndarray, name: str, n: int | None) -> None:
    # with n the vector must have length n, otherwise be nonempty and 1-D
    if n is not None:
        if arr.shape != (n,):
            raise PreconditionError(f"{name} must have length {n}, got shape {arr.shape}")
    elif arr.ndim != 1 or arr.size == 0:
        raise ShapeError(f"{name} must be a nonempty 1-D sequence, got shape {arr.shape}")


def as_vector(values, name: str, n: int | None = None) -> np.ndarray:
    """``values`` as a finite float64 vector of numbers (:func:`check_numbers`).

    With ``n`` the vector must have length ``n`` (:class:`PreconditionError`),
    otherwise it must be nonempty and 1-D (:class:`ShapeError`).
    """
    arr = check_numbers(values, name)
    _check_vector_shape(arr, name, n)
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return arr


def as_signs(values, name: str, n: int | None = None) -> np.ndarray:
    """``values`` as a float64 vector whose entries are each exactly +1 or -1.

    An entry must be a number equal to +-1; a bool is not a sign.  The shape
    rule is :func:`as_vector`'s.
    """
    arr = np.asarray(values, dtype=object)  # keeps each entry's own type
    _check_vector_shape(arr, name, n)
    for v in arr:
        if not (_is_number(v) and abs(v) == 1):
            raise PreconditionError(f"every entry of {name} must be exactly +1 or -1, got {v!r}")
    return arr.astype(np.float64)


def as_sequence(values, name: str, n: int | None = None) -> list:
    """``values`` as a list: any ordered iterable, not a string, a mapping or
    a set, and holding exactly ``n`` items when ``n`` is given."""
    try:
        items = iter(values)
    except TypeError:  # not iterable, a 0-d array included
        items = None
    if items is None or isinstance(values, (str, bytes, Mapping, Set)):
        raise PreconditionError(f"{name} must be a sequence, got {values!r}")
    items = list(items)
    if n is not None and len(items) != n:
        raise PreconditionError(f"{name} must hold {n} items, got {len(items)}")
    return items


def column_sign_pairs(pairs: dict, cols: int) -> tuple[list[int], np.ndarray]:
    """The columns and the signs of ``{row: (column, sign)}``.  Each pair is
    a sequence of two entries: a column in ``[0, cols)`` and a sign."""
    columns, signs = [], []
    for i, pair in pairs.items():
        c, s = as_sequence(pair, f"the (column, sign) pair of row {i}", 2)
        columns.append(check_int(c, f"the column of row {i}", 0))
        if columns[-1] >= cols:
            raise PreconditionError(f"row {i} selects column {c}, out of range for {cols} columns")
        signs.append(s)
    return columns, as_signs(signs, "signs", len(pairs))


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
        object.__setattr__(self, "n", check_int(self.n, "n", None))
        object.__setattr__(self, "bits", check_int(self.bits, "bits", None))
        if not 1 <= self.n <= ENUMERATION_CAP:
            raise CapacityError(
                f"sign vector length must lie in [1, {ENUMERATION_CAP}], got {self.n}"
            )
        if not 0 <= self.bits < (1 << self.n):
            raise PreconditionError(f"bits {self.bits!r} out of range for n={self.n}")

    @classmethod
    def from_components(cls, components: Sequence[float]) -> "SignVector":
        comps = as_signs(components, "components")
        bits = 0
        for i, c in enumerate(comps):
            if c < 0:
                bits |= 1 << i
        return cls(int(comps.size), bits)

    def components(self) -> np.ndarray:
        """Dense float64 vector of +-1 components."""
        idx = np.arange(self.n)
        negs = (self.bits >> idx) & 1
        return 1.0 - 2.0 * negs.astype(np.float64)

    def __len__(self) -> int:
        return self.n


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """``a`` as a finite 2-D float64 array of numbers (:func:`check_numbers`)."""
    arr = check_numbers(a, name)
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
    tol = check_fraction(tol, "tol")
    gram = arr.T @ arr
    return float(np.max(np.abs(gram - np.eye(arr.shape[0])))) <= tol


def is_column_stochastic(m, tol: float = 1e-9) -> bool:
    """True when all entries are >= -tol and every column sums to 1 within tol."""
    arr = as_matrix(m)
    tol = check_fraction(tol, "stochastic_tol")
    if np.min(arr) < -tol:
        return False
    return bool(np.max(np.abs(arr.sum(axis=0) - 1.0)) <= tol)


def check_column_stochastic(m: np.ndarray, tol: float) -> np.ndarray:
    """``m``, which must be column-stochastic within ``tol`` (:func:`is_column_stochastic`)."""
    if not is_column_stochastic(m, tol):
        raise PreconditionError(
            "matrix must be column-stochastic (nonnegative entries, columns summing to 1)"
        )
    return m


def antisymmetric_block(b, r: int, name: str) -> np.ndarray:
    """``b`` as an antisymmetric ``r x r`` matrix; ``None`` means zero."""
    if b is None:
        return np.zeros((r, r))
    arr = as_matrix(b, square=True, name=name)
    if arr.shape[0] != r:
        raise PreconditionError(f"{name} must be {r} x {r}, got {arr.shape}")
    if np.max(np.abs(arr + arr.T)) > 1e-9:
        raise PreconditionError(f"{name} must be antisymmetric")
    return arr


def numeric_rank(m, rank_tol: float = DEFAULT_TOLERANCES.rank_tol) -> int:
    """Numerical rank of ``m``: the number of singular values above
    ``rank_tol`` times the largest one."""
    arr = as_matrix(m)
    rank_tol = check_fraction(rank_tol, "rank_tol")
    sv = np.linalg.svd(arr, compute_uv=False)
    # sv leads with the largest singular value; a zero matrix has rank 0
    return int(np.count_nonzero(sv > rank_tol * sv[0]))


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
    rows = [v.components() if isinstance(v, SignVector) else as_signs(v, "a sign vector")
            for v in as_sequence(vectors, "vectors")]
    if not rows:
        raise ShapeError("at least one vector is required")
    n = rows[0].size
    if any(r.size != n for r in rows):
        raise ShapeError("all vectors must share the same length")
    return np.vstack(rows)
