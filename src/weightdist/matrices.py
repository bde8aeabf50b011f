"""Matrices over GF(q) (rank, kernel) and exact rational dense linear
algebra for the moment systems.

No floating point anywhere: GF entries are canonical integer encodings;
rational systems hold int entries wherever they are integral, are cleared
of denominators row by row and eliminated fraction-free over the integers,
with fractions.Fraction formed only at back-substitution.

Every scalar GF(q) elimination in the package, the row reduction behind code
construction and kernels, runs one step (`_elimination`): GF(2) vectors are
int bitmasks reduced by XOR, other fields' vectors are tuples reduced through
the field's own `mul` and `sub`.  `gf_row_reduce` and `gf_kernel_basis` are
memoised per matrix, so every rank, kernel and basis of one matrix reads one
reduction, and each kernel is built once.  This module tabulates no field
arithmetic and never imports numpy.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain, combinations
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import SingularMatrixError, Value

if TYPE_CHECKING:
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

def _width(tup: tuple[tuple, ...], cols: int | None) -> int:
    """The column count of the rows `tup`, which a given `cols` must equal,
    or of a 0-row matrix, which `cols` must give."""
    if not tup:
        if cols is None:
            raise ValueError("column count required for a 0-row matrix")
        return cols
    width = len(tup[0])
    if any(len(r) != width for r in tup):
        raise ValueError("ragged rows")
    if cols is not None and cols != width:
        raise ValueError(f"cols={cols} given for rows of length {width}")
    return width


class GFMatrix(Value):
    """Immutable matrix over a finite field; entries are canonical encodings."""

    __slots__ = ("field", "entries", "cols", "_hash")
    field: Field
    entries: tuple[tuple[int, ...], ...]
    cols: int  # kept explicit so 0-row matrices keep their width

    def __init__(self, field: Field, entries: tuple[tuple[int, ...], ...], cols: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable[int]], cols: int | None = None) -> "GFMatrix":
        """The matrix of `rows`, each entry an int in [0, q); a bool is
        refused although it is one, as by `errors.require_ints`.  A `cols`
        given with rows must be their length."""
        tup = tuple(tuple(r) for r in rows)
        cols = _width(tup, cols)
        for r in tup:
            for x in r:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError(f"entry {x!r} is not an integer")
                if not 0 <= x < field.q:
                    raise ValueError(f"entry {x} outside [0, {field.q})")
        return cls(field, tup, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def __hash__(self) -> int:
        """The hash of every field, computed on first use and kept: each memo
        lookup hashes its matrix, and hashing the fields walks every entry."""
        try:
            return self._hash
        except AttributeError:
            h = super().__hash__()
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"GFMatrix({self.rows}x{self.cols} over {self.field!r})"


@functools.lru_cache(maxsize=8)
def _elimination(f: Field):
    """The one GF(q) elimination step and its vector representation, as
    (pack, unpack, step).  pack turns a vector of field encodings into the
    step's representation and unpack(v, length) turns it back into a tuple:
    an int bitmask over GF(2) (bit i holds coordinate i), else a tuple.  A
    zero vector is always the int 0, so a falsy test and list.count(0) find
    it.  step(v, rest) scales the nonzero v so that its lead (its first
    nonzero coordinate) is 1, clears that coordinate from every vector in
    rest, by XOR or through the field's own operations, and returns the
    scaled v and the reduced list."""
    if f.q == 2:
        def step(v: int, rest: list) -> tuple[int, list]:
            low = v & -v
            return v, [r ^ v if r & low else r for r in rest]

        return (lambda x: sum(bit << i for i, bit in enumerate(x)),
                lambda v, length: tuple((v >> i) & 1 for i in range(length)), step)
    mul, sub, inv = f.mul, f.sub, f.inv

    def step(v: tuple, rest: list) -> tuple[tuple, list]:
        lead = next(i for i, x in enumerate(v) if x)
        scale = inv(v[lead])
        v = tuple([mul(scale, x) for x in v])
        out = []
        for r in rest:
            c = r[lead] if r else 0
            if c:
                r = tuple([sub(x, mul(c, y)) if y else x for x, y in zip(r, v)])
                if not any(r):
                    r = 0
            out.append(r)
        return v, out

    return (lambda x: tuple(x) if any(x) else 0), (lambda v, length: v or (0,) * length), step


@functools.lru_cache(maxsize=32)
def gf_row_reduce(M: GFMatrix) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(q): its nonzero rows, and their
    pivot columns in increasing order.  Each nonzero row in turn is a pivot
    whose lead the elimination step clears from the rows still waiting and
    from the pivots kept so far; sorted by lead, the kept pivots are the
    RREF, which is unique for the row space.  Memoised in a bounded cache,
    so every caller shares the tuples it returns."""
    pack, unpack, step = _elimination(M.field)
    waiting, kept = [pack(r) for r in M.entries], []
    while waiting:
        v, *waiting = waiting
        if v:
            v, out = step(v, waiting + kept)
            waiting, kept = out[:len(waiting)], out[len(waiting):] + [v]
    # a pivot row is 0 left of its lead and 1 there
    led = sorted((r.index(1), r) for r in (unpack(v, M.cols) for v in kept))
    return tuple(r for _, r in led), tuple(c for c, _ in led)


def gf_rank(M: GFMatrix) -> int:
    return len(gf_row_reduce(M)[1])


@functools.lru_cache(maxsize=32)
def gf_kernel_basis(M: GFMatrix) -> GFMatrix:
    """Basis (as rows) of {v : M v^T = 0}.  Full column rank gives 0 rows.
    Memoised in a bounded cache, as `gf_row_reduce` is, so a code's H and the
    kernel its syndrome count and census read are one build."""
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


# ---------------------------------------------------------------------------
# exact rational matrices
# ---------------------------------------------------------------------------

def _rational(x) -> int | Fraction:
    """An int or Fraction as it is; any other number as a Fraction."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


class RationalMatrix(Value):
    """Immutable dense matrix with arbitrary-precision rational entries.
    Each entry is an int or a Fraction: integral systems stay in ints."""

    __slots__ = ("entries", "cols")
    entries: tuple[tuple[int | Fraction, ...], ...]
    cols: int

    def __init__(self, entries: tuple[tuple[int | Fraction, ...], ...], cols: int):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "RationalMatrix":
        """The matrix of `rows`; a `cols` given with rows must be their length."""
        tup = tuple(tuple(_rational(x) for x in r) for r in rows)
        return cls(tup, _width(tup, cols))

    @property
    def rows(self) -> int:
        return len(self.entries)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return RationalMatrix(self.entries + other.entries, self.cols)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


class Echelon(NamedTuple):
    """Fraction-free row echelon form: rows[i] is zero left of column
    pivots[i], where it holds the i-th Bareiss pivot.  det is the determinant
    of a square matrix (0 when singular) and 0 for any other shape."""

    rank: int
    pivots: tuple[int, ...]
    det: int
    rows: list[list[int]]


def echelon(rows: Iterable[Sequence]) -> Echelon:
    """Fraction-free Gaussian elimination over the integers (Bareiss 1968).

    Each row is first multiplied by the LCM of its denominators, which keeps
    the rank, the pivot columns, the kernel and the solution set (det is
    then that of the cleared matrix).  Each update (p * a_ij - a_ic * a_rj)
    / previous pivot divides exactly by Sylvester's identity.  Each column's
    pivot is its first nonzero row and columns with none are skipped, so the
    pivot columns are the leftmost ones, as in Gauss-Jordan."""
    m = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (lcm // x.denominator) for x in row])
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        p, tail, lead = m[r][c], m[r][c + 1:], [0] * (c + 1)
        for i in range(r + 1, nrows):
            a, row = m[i][c], m[i][c + 1:]
            m[i] = lead + [(p * x - a * y) // prev for x, y in zip(row, tail)]
        pivots.append(c)
        prev = p
    rank = len(pivots)
    det = sign * prev if rank == nrows == ncols else 0
    return Echelon(rank, tuple(pivots), det, m[:rank])


def _back_substitute(E: Echelon, column: Sequence[int]) -> tuple[list[int], int]:
    """Solve the leading triangle of E against `column` without fractions.
    Returns (y, d) with solution y / d; d, the len(column)-th pivot, is a
    determinant, so by Cramer's rule each y_i and each division is exact."""
    piv, size = E.pivots, len(column)
    d = E.rows[size - 1][piv[size - 1]] if size else 1
    y = [0] * size
    for i in reversed(range(size)):
        row = E.rows[i]
        s = d * column[i] - sum(row[piv[j]] * y[j] for j in range(i + 1, size))
        y[i] = s // row[piv[i]]
    return y, d


def _kernel_vector(E: Echelon, cols: int) -> tuple[Fraction, ...] | None:
    """The kernel vector that is 1 at the first free column and 0 at every
    other free column; it is unique once the pivot columns are fixed."""
    free = next((c for c in range(cols) if c not in E.pivots), None)
    if free is None:
        return None
    # columns 0..free-1 are the first `free` pivots
    y, d = _back_substitute(E, [row[free] for row in E.rows[:free]])
    return tuple([Fraction(-v, d) for v in y] + [Fraction(1)] + [Fraction(0)] * (cols - free - 1))


def rational_rank(A: RationalMatrix) -> int:
    return echelon(A.entries).rank


def solve_exact(A: RationalMatrix, b: Sequence) -> tuple[Fraction, ...]:
    """Unique exact solution of the square system A x = b.

    Raises SingularMatrixError carrying rank and a nonzero kernel vector
    when the matrix is singular; dependent systems are a first-class
    diagnostic outcome, not a crash.
    """
    if A.rows != A.cols:
        raise ValueError(f"solve_exact needs a square matrix, got {A.rows}x{A.cols}")
    n = A.rows
    bs = [_rational(v) for v in b]
    if len(bs) != n:
        raise ValueError("right-hand side length mismatch")
    E = echelon([*r, v] for r, v in zip(A.entries, bs))
    rank = sum(c < n for c in E.pivots)
    if rank < n:
        raise SingularMatrixError(
            f"matrix is singular (rank {rank} of {n})",
            rank=rank,
            kernel_vector=_kernel_vector(E, n))
    y, d = _back_substitute(E, [row[n] for row in E.rows])
    return tuple(Fraction(v, d) for v in y)


# ---------------------------------------------------------------------------
# truncated Pascal matrices
# ---------------------------------------------------------------------------

def truncated_pascal(r: int, t: int) -> RationalMatrix:
    """The r x (t+1) binomial matrix with entry [i][j] = binom(t-j, i)."""
    if not 1 <= r <= t + 1:
        raise ValueError(f"need 1 <= r <= t+1, got r={r}, t={t}")
    return RationalMatrix.from_rows(
        [[binom(t - j, i) for j in range(t + 1)] for i in range(r)])


def maximal_minors(rows: Sequence[Sequence[int]]
                   ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every r x r minor of an integer matrix with r >= 1 rows, as
    (columns, determinant), lazily, in lexicographic order of the columns.

    One depth-first walk runs Bareiss's fraction-free elimination on the
    transpose and shares its prefixes.  A node holds its later columns,
    reduced against its chosen ones, as one list per remaining component.
    Choosing column k, whose first component p is a leading minor, takes
    each other component x of the columns after k to (p * x - a * y) // prev,
    with a their first component, y column k's and prev the last pivot; one
    column short of the leaves this gives the leaf minors, one block per
    node.  Where a leading minor is zero, elimination would swap rows; every
    leaf under it is computed by `echelon` instead."""
    r = len(rows)
    if r == 0:
        raise ValueError("maximal_minors needs at least one row")

    def det(leaf: tuple[int, ...]) -> int:
        return echelon([[row[c] for c in leaf] for row in rows]).det

    def walk(prefix: tuple[int, ...], cols: range, comps: list[list[int]], prev: int):
        lead, below, need = comps[0], comps[1:], r - len(prefix)  # columns to choose
        if need > 2:
            for k in range(len(cols) - need + 1):
                p, node, later = lead[k], prefix + (cols[k],), lead[k + 1:]
                if p:
                    yield from walk(node, cols[k + 1:], [
                        [(p * x - a * y) // prev for x, a in zip(comp[k + 1:], later)]
                        for comp, y in zip(below, [comp[k] for comp in below])], p)
                else:
                    yield [det(node + tail) for tail in combinations(cols[k + 1:], need - 1)]
        else:  # one column short of the leaves
            x1, block = below[0], []
            for k in range(len(cols) - 1):
                p, y = lead[k], x1[k]
                block += ([(p * x - a * y) // prev for x, a in zip(x1[k + 1:], lead[k + 1:])]
                          if p else [det(prefix + (cols[k], c)) for c in cols[k + 1:]])
            yield block

    cols = range(len(rows[0]))
    dets = [rows[0]] if r == 1 else walk((), cols, [list(row) for row in rows], 1)
    return zip(combinations(cols, r), chain.from_iterable(dets))


@functools.lru_cache(maxsize=256)
def _leading_block_nonzero(r: int, s: int) -> bool:
    """Whether every r x r minor of truncated_pascal(r, s) through its column
    0, its leading block, is nonzero.  Row 0 is binom(x, 0) = 1, so one
    elimination step on column 0 with pivot 1 leaves the rows
    binom(s - j, i) - binom(s, i), i = 1..r-1 and j = 1..s, whose maximal
    minors are the block's minors, value for value (`maximal_minors`).  Every
    top argument is >= 0, so `math.comb` gives them.  Memoised in a bounded
    cache, as `gf_row_reduce` is, so a sweep over t computes each block once."""
    if r == 1:
        return binom(s, 0) != 0
    return all(det for _, det in maximal_minors(
        [[math.comb(s - j, i) - math.comb(s, i) for j in range(1, s + 1)] for i in range(1, r)]))


def pascal_minor_check(r: int, t: int) -> bool:
    """Exhaustively verify that every r x r minor of the truncated Pascal
    matrix is nonzero (the property that makes the moment systems uniquely
    solvable for any choice of known weights).  Columns c.. of
    truncated_pascal(r, t) are truncated_pascal(r, t - c), so the minors
    whose first column is c are the leading block of s = t - c
    (`_leading_block_nonzero`), and the check is the AND of the blocks
    s = r-1..t.  Each minor is still computed by elimination, each block
    once per process."""
    if not 1 <= r <= t + 1:
        raise ValueError(f"need 1 <= r <= t+1, got r={r}, t={t}")
    return all(_leading_block_nonzero(r, s) for s in range(r - 1, t + 1))
