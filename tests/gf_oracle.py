"""The digit-by-digit addition oracle for GF(p^m), the rank, RREF, kernel
and census-table oracles for matrices over GF(q), and the matrices that
differential tests draw to check the package against them.

The addition oracle extracts the base-p digits of both operands one at a
time, where the package sums digits of a // p^i and b // p^i in place.

`select_columns` cuts the submatrix that the oracles rank, one column
subset at a time.

`gf_matmul` and `transpose` are the plain matrix product and transpose over
GF(q), which the package never needs.  `same_codewords` compares two codes'
row spaces by orthogonality to each other's parity check through them, and
`krawtchouk` is the term-by-term Krawtchouk value that
`codes._krawtchouk_matrix` computes by recurrence.

`matvec` multiplies a rational matrix by a vector, to check a solution
against the rows it solves.

`rational_kernel_vector` reads the kernel vector that `solve_exact` attaches
to a `SingularMatrixError` off any rational matrix, singular or not, so
that tests can check that vector on its own.

The Golay and quadratic-residue codes are built here from their cyclic
definitions, as the enumerated codes that the extremal type II closed form
is checked against.

The rank oracle is textbook Gauss-Jordan elimination with one Field method
call per element, kept in the tests so that it is never the code under
test: the package reduces through `matrices._elimination` instead.  The
census-table oracle walks column subsets one Python call each, reducing by
that scalar step, where the census reduces whole levels of subsets in numpy.
"""

from hypothesis import strategies as st

from weightdist.codes import LinearCode
from weightdist.fields import GF
from weightdist.matrices import GFMatrix, _elimination, _kernel_vector, binom, echelon


def rational_kernel_vector(A):
    """A nonzero vector x with A x = 0 for a RationalMatrix A, or None if the
    kernel is trivial: the package's own kernel vector of its echelon form."""
    return _kernel_vector(echelon(A.entries), A.cols)


def matvec(A, x):
    """A x for a RationalMatrix A, in ints when A and x are integral."""
    return tuple(sum(a * b for a, b in zip(r, x)) for r in A.entries)


def select_columns(M, indices):
    """Submatrix of the given columns (0-based), in the given order; an index
    outside the matrix is an IndexError, a repeated one a ValueError."""
    idx = list(indices)
    for j in idx:
        if not 0 <= j < M.cols:
            raise IndexError(f"column {j} outside [0, {M.cols})")
    if len(set(idx)) < len(idx):
        raise ValueError(f"a column selected twice in {idx}")
    return GFMatrix(M.field, tuple(tuple(r[j] for j in idx) for r in M.entries), len(idx))


def transpose(M):
    """M^T, a matrix with M.rows columns, 0 rows for a 0-column M."""
    if not M.entries:
        return GFMatrix(M.field, tuple(() for _ in range(M.cols)), 0)
    return GFMatrix(M.field, tuple(zip(*M.entries)), M.rows)


def gf_matmul(A, B):
    """A B over their common field, one Field.add and Field.mul per term."""
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


def same_codewords(a, b):
    """True when two codes' row spaces coincide: same field, length and
    dimension, and each generator orthogonal to the other's parity check."""
    if a.field != b.field or a.n != b.n or a.k != b.k:
        return False
    return not any(any(r) for r in gf_matmul(a.G, transpose(b.H)).entries
                   + gf_matmul(b.G, transpose(a.H)).entries)


def krawtchouk(n, q, j, i):
    """K_j(i) = sum_l (-1)^l binom(i, l) binom(n-i, j-l) (q-1)^(j-l)."""
    return sum((-1) ** l * binom(i, l) * binom(n - i, j - l) * (q - 1) ** (j - l)
               for l in range(j + 1))


def digitwise_oracle(f, a, b, sign):
    """a + sign * b over f, for sign 1 or -1, from the base-p digits of a and
    b extracted one at a time."""
    p, s, w = f.p, 0, 1
    for _ in range(f.m):
        s += (a % p + sign * (b % p)) % p * w
        a //= p
        b //= p
        w *= p
    return s


@st.composite
def gf_matrices(draw, fields, max_rows=5, max_cols=7):
    """Tall, square and wide matrices over one of the fields, 0-row and
    all-zero ones among them; sparse rows and repeated rows make many of
    them rank deficient, and some repeat a column."""
    q = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = draw(st.sampled_from((
        st.integers(1, q - 1), st.sampled_from((0, 0, 1, q - 1)), st.just(0))))
    M = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        M[-1] = list(M[0])
    if cols > 1 and draw(st.booleans()):
        for row in M:
            row[-1] = row[0]
    return GFMatrix.from_rows(GF(q), M, cols=cols)


def rref_oracle(M):
    """The nonzero rows of M's reduced row echelon form, as tuples, and their
    pivot columns."""
    f = M.field
    mat = [list(r) for r in M.entries]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(M.cols):
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
    return [tuple(row) for row in mat[:r]], pivots


def rank_oracle(M):
    return len(rref_oracle(M)[1])


def kernel_oracle(M):
    """The kernel basis that is 1 at one free column and 0 at the others,
    one row per free column in increasing order."""
    f = M.field
    rref, pivots = rref_oracle(M)
    basis = []
    for fc in (c for c in range(M.cols) if c not in pivots):
        v = [0] * M.cols
        v[fc] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(tuple(v))
    return GFMatrix(f, tuple(basis), M.cols)


def census_table_oracle(M, lo, hi):
    """counts[size][rank] for every column subset of M with lo <= size <= hi,
    rows outside the window zero, as a tuple of tuples of rank(M) + 1
    entries.  A depth-first walk with one Python call per subset over a
    basis from the oracle's RREF: each node reduces the later columns by the
    scalar elimination step (`matrices._elimination`) and, at rank R - 1 or
    more, counts its subtree by binomials."""
    R = rank_oracle(M)
    basis = GFMatrix(M.field, tuple(rref_oracle(M)[0]), M.cols)
    t = M.cols
    counts = [[0] * (R + 1) for _ in range(t + 1)]
    pack, _, step = _elimination(M.field)
    columns = [pack(basis.column(j)) for j in range(t)]

    def node(rest, size, rank):
        m = len(rest)
        if rank >= R - 1:
            # every superset of a full-rank set is full rank; one short of
            # full, a superset stays short iff its new columns are in the span
            z = m if rank == R else rest.count(0)
            for j in range(max(lo - size, 0), min(m, hi - size) + 1):
                counts[size + j][rank] += binom(z, j)
                if rank < R:
                    counts[size + j][R] += binom(m, j) - binom(z, j)
            return
        if size >= lo:
            counts[size][rank] += 1
        if size == hi:
            return
        for i in range(min(m, m + size + 1 - lo)):
            v = rest[i]
            if v:
                node(step(v, rest[i + 1:])[1], size + 1, rank + 1)
            else:
                node(rest[i + 1:], size + 1, rank)

    node(columns, 0, 0)
    return tuple(map(tuple, counts))


def _extended_cyclic_code(word, k):
    """The binary code spanned by the cyclic shifts of `word`, which must have
    dimension k, extended by an overall parity bit."""
    f = GF(2)
    shifts = GFMatrix.from_rows(f, [word[-i:] + word[:-i] for i in range(len(word))])
    basis, pivots = rref_oracle(shifts)
    assert len(pivots) == k
    return LinearCode(GFMatrix.from_rows(f, [list(r) + [sum(r) % 2] for r in basis]))


def golay_code():
    """The extended binary Golay [24, 12, 8] code: the length-23 cyclic code
    of g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11 plus a parity bit."""
    return _extended_cyclic_code([int(i in (0, 2, 4, 5, 6, 10, 11)) for i in range(23)], 12)


def quadratic_residue_47_code():
    """The extended binary quadratic-residue [48, 24, 12] code: the span of
    the cyclic shifts of the sum of x^r over the quadratic residues r mod 47,
    of dimension 24, plus a parity bit."""
    residues = {r * r % 47 for r in range(1, 47)}
    return _extended_cyclic_code([int(i in residues) for i in range(47)], 24)
