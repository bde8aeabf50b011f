"""Matrices over GF(q) (rank, kernel, column selection) and exact rational
dense linear algebra for the moment systems.

No floating point anywhere: GF entries are canonical integer encodings,
rational work uses fractions.Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DuplicateIndexError,
    IndexOutOfRangeError,
    SingularMatrixError,
)
from .fields import Field


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the convention binom(a, b) = 0 whenever
    b < 0 or b > a.  The top argument must be a nonnegative integer."""
    if a < 0:
        raise ValueError(f"binom top argument must be >= 0, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


# ---------------------------------------------------------------------------
# matrices over GF(q)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GFMatrix:
    """Immutable matrix over a finite field; entries are canonical encodings."""

    field: Field
    entries: tuple[tuple[int, ...], ...]
    cols: int  # kept explicit so 0-row matrices keep their width

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable[int]], cols: int | None = None) -> "GFMatrix":
        tup = tuple(tuple(int(x) for x in r) for r in rows)
        if tup:
            cols = len(tup[0])
            if any(len(r) != cols for r in tup):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("column count required for a 0-row matrix")
        for r in tup:
            for x in r:
                if not 0 <= x < field.q:
                    raise ValueError(f"entry {x} outside [0, {field.q})")
        return cls(field, tup, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "GFMatrix":
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "GFMatrix":
        return cls(field, tuple((0,) * cols for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "GFMatrix":
        if not self.entries:
            return GFMatrix(self.field, tuple(() for _ in range(self.cols)), 0)
        return GFMatrix(self.field, tuple(zip(*self.entries)), self.rows)

    def __repr__(self) -> str:
        return f"GFMatrix({self.rows}x{self.cols} over {self.field!r})"


def gf_matmul(A: GFMatrix, B: GFMatrix) -> GFMatrix:
    if A.field != B.field:
        raise ValueError("fields differ")
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    f = A.field
    Bcols = [B.column(j) for j in range(B.cols)]
    out = []
    for r in A.entries:
        line = []
        for c in Bcols:
            acc = 0
            for x, y in zip(r, c):
                if x and y:
                    acc = f.add(acc, f.mul(x, y))
            line.append(acc)
        out.append(tuple(line))
    return GFMatrix(f, tuple(out), B.cols)


def gf_row_reduce(M: GFMatrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(q); returns (rows, pivot columns)."""
    f = M.field
    mat = [list(r) for r in M.entries]
    nrows, ncols = len(mat), M.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = f.inv(mat[r][c])
        if inv != 1:
            mat[r] = [f.mul(inv, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                coeff = mat[i][c]
                mat[i] = [f.sub(x, f.mul(coeff, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def gf_rank(M: GFMatrix) -> int:
    return len(gf_row_reduce(M)[1])


def gf_kernel_basis(M: GFMatrix) -> GFMatrix:
    """Basis (as rows) of {v : M v^T = 0}.  Full column rank gives 0 rows."""
    f = M.field
    rref, pivots = gf_row_reduce(M)
    free = [c for c in range(M.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * M.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rref[r][fc])
        basis.append(tuple(v))
    return GFMatrix(f, tuple(basis), M.cols)


def select_columns(M: GFMatrix, indices: Sequence[int]) -> GFMatrix:
    """Submatrix of the given columns (0-based), in the given order."""
    idx = list(indices)
    seen = set()
    for j in idx:
        if not 0 <= j < M.cols:
            raise IndexOutOfRangeError(f"column {j} outside [0, {M.cols})")
        if j in seen:
            raise DuplicateIndexError(f"column {j} selected twice")
        seen.add(j)
    rows = tuple(tuple(r[j] for j in idx) for r in M.entries)
    return GFMatrix(M.field, rows, len(idx))


# ---------------------------------------------------------------------------
# exact rational matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix with arbitrary-precision rational entries."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "RationalMatrix":
        tup = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if tup:
            cols = len(tup[0])
            if any(len(r) != cols for r in tup):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("column count required for a 0-row matrix")
        return cls(tup, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def matvec(self, x: Sequence) -> tuple[Fraction, ...]:
        xs = [Fraction(v) for v in x]
        return tuple(sum((a * b for a, b in zip(r, xs)), Fraction(0)) for r in self.entries)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = [tuple(r[j] for r in other.entries) for j in range(other.cols)]
        out = tuple(
            tuple(sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in cols)
            for r in self.entries)
        return RationalMatrix(out, other.cols)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return RationalMatrix(self.entries + other.entries, self.cols)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _rref_rational(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                coeff = rows[i][c]
                rows[i] = [x - coeff * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rational_rank(A: RationalMatrix) -> int:
    return len(_rref_rational([list(r) for r in A.entries])[1])


def rational_kernel_vector(A: RationalMatrix) -> tuple[Fraction, ...] | None:
    """A nonzero vector x with A x = 0, or None if the kernel is trivial."""
    rref, pivots = _rref_rational([list(r) for r in A.entries])
    free = [c for c in range(A.cols) if c not in pivots]
    if not free:
        return None
    fc = free[0]
    v = [Fraction(0)] * A.cols
    v[fc] = Fraction(1)
    for r, pc in enumerate(pivots):
        v[pc] = -rref[r][fc]
    return tuple(v)


def solve_exact(A: RationalMatrix, b: Sequence) -> tuple[Fraction, ...]:
    """Unique exact solution of the square system A x = b.

    Raises SingularMatrixError carrying rank and a nonzero kernel vector
    when the matrix is singular; dependent systems are a first-class
    diagnostic outcome, not a crash.
    """
    if A.rows != A.cols:
        raise ValueError(f"solve_exact needs a square matrix, got {A.rows}x{A.cols}")
    n = A.rows
    bs = [Fraction(v) for v in b]
    if len(bs) != n:
        raise ValueError("right-hand side length mismatch")
    aug = [list(r) + [bs[i]] for i, r in enumerate(A.entries)]
    rref, pivots = _rref_rational(aug)
    pivots = [c for c in pivots if c < n]
    if len(pivots) < n:
        raise SingularMatrixError(
            f"matrix is singular (rank {len(pivots)} of {n})",
            rank=len(pivots),
            kernel_vector=rational_kernel_vector(A))
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][n]
    return tuple(x)


# ---------------------------------------------------------------------------
# truncated Pascal matrices
# ---------------------------------------------------------------------------

def truncated_pascal(r: int, t: int) -> RationalMatrix:
    """The r x (t+1) binomial matrix with entry [i][j] = binom(t-j, i)."""
    if not 1 <= r <= t + 1:
        raise ValueError(f"need 1 <= r <= t+1, got r={r}, t={t}")
    return RationalMatrix.from_rows(
        [[binom(t - j, i) for j in range(t + 1)] for i in range(r)])


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det *= rows[c][c]
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def pascal_minor_check(r: int, t: int) -> bool:
    """Exhaustively verify that every r x r minor of the truncated Pascal
    matrix is nonzero (the property that makes the moment systems uniquely
    solvable for any choice of known weights)."""
    import itertools

    P = truncated_pascal(r, t)
    for cols in itertools.combinations(range(t + 1), r):
        sub = [[P.entries[i][j] for j in cols] for i in range(r)]
        if _det(sub) == 0:
            return False
    return True
