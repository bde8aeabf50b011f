import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings

from weightdist import enumeration
from weightdist.rank_census import census
from weightdist.closed_forms import reed_solomon_code
from weightdist.codes import random_code
from weightdist.errors import SingularMatrixError
from weightdist.fields import GF, array_mul, array_ops, array_sub
from weightdist.matrices import (
    GFMatrix,
    RationalMatrix,
    binom,
    gf_kernel_basis,
    gf_matmul,
    gf_rank,
    gf_row_reduce,
    pascal_minor_check,
    rational_rank,
    solve_exact,
    truncated_pascal,
)

from gf_oracle import (
    digitwise_oracle,
    gf_matrices,
    kernel_oracle,
    matvec,
    rational_kernel_vector,
    rref_oracle,
    select_columns,
)


def test_binom_convention():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(2, 5) == 0
    assert binom(0, 0) == 1
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_rank_basics():
    f2 = GF(2)
    assert gf_rank(GFMatrix.from_rows(f2, [[0, 0, 0], [0, 0, 0]])) == 0
    assert gf_rank(GFMatrix.from_rows(f2, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0], [0, 0, 0, 1]])) == 4
    assert gf_rank(GFMatrix.from_rows(f2, [[1, 1], [1, 1]])) == 1


def test_kernel_basics():
    f2 = GF(2)
    assert gf_kernel_basis(GFMatrix.from_rows(f2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])).rows == 0
    kb = gf_kernel_basis(GFMatrix.from_rows(f2, [[1, 1]]))
    assert kb.entries == ((1, 1),)


def test_kernel_is_in_kernel_and_dimension_formula():
    rng = random.Random(11)
    for q in (2, 3, 4, 5, 8, 9):
        f = GF(q)
        for _ in range(20):
            r, c = rng.randrange(1, 5), rng.randrange(1, 7)
            M = GFMatrix.from_rows(f, [[rng.randrange(q) for _ in range(c)] for _ in range(r)])
            kb = gf_kernel_basis(M)
            assert gf_rank(M) + kb.rows == c
            for v in kb.entries:
                assert all(x == 0 for x in gf_matmul(M, GFMatrix.from_rows(f, [v]).transpose()).column(0))
            if kb.rows:
                assert gf_rank(kb) == kb.rows


# GF(2) bitmasks, prime and extension tables, and two fields above the
# 256-element table limit, of characteristic 2 and 3
ELIMINATION_FIELDS = (2, 3, 4, 9, 2 ** 9, 3 ** 7)


@settings(max_examples=200, deadline=None)
@given(gf_matrices(ELIMINATION_FIELDS, max_rows=7))
@example(GFMatrix.from_rows(GF(3), [], cols=4))
@example(GFMatrix.from_rows(GF(5), [[], []]))
@example(GFMatrix.from_rows(GF(9), [[0, 0, 0], [0, 0, 0]]))
@example(GFMatrix.from_rows(GF(4), [[1, 2, 3], [1, 2, 3], [2, 3, 1], [0, 1, 1], [3, 1, 2]]))
@example(GFMatrix.from_rows(GF(2 ** 9), [[0, 5, 511, 7, 0, 1], [0, 10, 509, 14, 0, 2]]))
@example(GFMatrix.from_rows(GF(3 ** 7), [[0, 2186, 3, 1], [0, 1, 2185, 2]]))
def test_gf_elimination_matches_the_oracle(M):
    rows, pivots = rref_oracle(M)
    assert gf_row_reduce(M) == (tuple(rows), tuple(pivots))
    assert gf_rank(M) == len(pivots)
    kb = gf_kernel_basis(M)
    assert kb == kernel_oracle(M)
    zero = GFMatrix.from_rows(M.field, [[0] * kb.rows] * M.rows, cols=kb.rows)
    assert gf_matmul(M, kb.transpose()) == zero


def test_each_matrix_is_reduced_once():
    """Building a code, counting it over its syndromes and taking its
    parity-check census at every width read one memoised reduction of G and
    one of H; a low-rate code's census walks the kernel of H, read from the
    same reduction of H."""
    gf_row_reduce.cache_clear()
    codes = [random_code(GF(3), 20, 14, seed=20), reed_solomon_code(GF(9), 9, 8),
             random_code(GF(2), 12, 3, seed=12)]
    for code in codes:
        with patch.object(enumeration, "_syndrome_histogram",
                          wraps=enumeration._syndrome_histogram) as syndrome:
            code.weight_distribution()
        assert syndrome.called == (code.k > code.n - code.k)
        for nu in range(1, code.n + 1):
            census(code.H, nu)
    assert gf_row_reduce.cache_info().misses == len({M for c in codes for M in (c.G, c.H)}) == 6
    rows, pivots = gf_row_reduce(codes[0].G)
    assert type(rows) is type(pivots) is type(rows[0]) is tuple
    assert gf_row_reduce.cache_info().maxsize is not None


class CountedRow(tuple):
    """A matrix row that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedRow.hashes += 1
        return super().__hash__()


def test_a_matrix_is_hashed_once():
    """Equal matrices built separately hash equal and share one memoised
    reduction; each hashes its entries once however often it is looked up."""
    rows = [[1, 0, 2, 1], [0, 1, 1, 2]]
    A, B = GFMatrix.from_rows(GF(3), rows), GFMatrix.from_rows(GF(3), rows)
    assert A is not B and A == B and hash(A) == hash(B)
    before = gf_row_reduce.cache_info()
    assert gf_row_reduce(A) is gf_row_reduce(B)
    after = gf_row_reduce.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    CountedRow.hashes = 0
    C = GFMatrix(GF(3), tuple(CountedRow(r) for r in rows), 4)
    for _ in range(5):
        hash(C)
        gf_rank(C)
    assert CountedRow.hashes == len(rows)
    assert C == A and hash(C) == hash(A)


@pytest.mark.parametrize("q", [3, 4, 9, 16, 27, 49, 125, 128, 243, 251, 256])
def test_elimination_tables_match_field_calls(q):
    """The field's array operations up to the table limit, and the helpers
    their tables are built from, against one Field call per entry: prime
    fields (wrapped differences), GF(2^m) (XOR) and odd p with m > 1."""
    f = GF(q)
    dtype, mul, sub, inv = array_ops(f)
    elems = range(q)
    a, b = np.repeat(np.arange(q), q), np.tile(np.arange(q), q)
    muls = [f.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    subs = [f.sub(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert array_mul(f, a, b).tolist() == muls == mul(a.astype(dtype), b.astype(dtype)).tolist()
    assert array_sub(f, a, b).tolist() == subs == sub(a.astype(dtype), b.astype(dtype)).tolist()
    if f.p > 2 and f.m > 1:
        # Field.sub runs the same digit sum as array_sub here
        assert subs == [digitwise_oracle(f, x, y, -1) for x, y in zip(a.tolist(), b.tolist())]
    assert inv(np.arange(q, dtype=dtype)).tolist() == [0] + [f.inv(x) for x in elems[1:]]


def test_select_columns():
    f3 = GF(3)
    M = GFMatrix.from_rows(f3, [[1, 2, 0], [0, 1, 2]])
    assert select_columns(M, range(3)).entries == M.entries
    assert select_columns(M, [0, 2]).entries == ((1, 0), (0, 2))
    with pytest.raises(IndexError):
        select_columns(M, [0, 3])
    with pytest.raises(ValueError):
        select_columns(M, [1, 1])


def test_selected_rank_bounded():
    rng = random.Random(5)
    f4 = GF(4)
    for _ in range(25):
        M = GFMatrix.from_rows(f4, [[rng.randrange(4) for _ in range(6)] for _ in range(3)])
        idx = sorted(rng.sample(range(6), rng.randrange(1, 6)))
        sub = select_columns(M, idx)
        assert gf_rank(sub) <= min(gf_rank(M), len(idx))


def test_solve_exact_identity():
    A = RationalMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    b = [3, Fraction(1, 2), -7, 0]
    assert solve_exact(A, b) == (3, Fraction(1, 2), -7, 0)


def test_solve_exact_roundtrip_random():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 6)
        A = RationalMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        b = [rng.randrange(-9, 10) for _ in range(n)]
        try:
            x = solve_exact(A, b)
        except SingularMatrixError as e:
            kv = e.kernel_vector
            assert kv is not None and any(kv)
            assert all(v == 0 for v in matvec(A, kv))
            continue
        assert matvec(A, x) == tuple(Fraction(v) for v in b)


def test_singular_reports_rank_and_witness():
    A = RationalMatrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(SingularMatrixError) as ei:
        solve_exact(A, [1, 2])
    assert ei.value.rank == 1
    kv = ei.value.kernel_vector
    assert any(kv) and all(v == 0 for v in matvec(A, kv))


def test_rational_rank_and_kernel():
    A = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rational_rank(A) == 2
    kv = rational_kernel_vector(A)
    assert any(kv) and all(v == 0 for v in matvec(A, kv))
    assert rational_kernel_vector(RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) is None


def test_truncated_pascal_values():
    P = truncated_pascal(1, 2)
    assert P.entries == ((1, 1, 1),)
    P = truncated_pascal(2, 2)
    assert P.entries == ((1, 1, 1), (2, 1, 0))


def test_pascal_minor_check_spots():
    assert pascal_minor_check(3, 8)
    assert pascal_minor_check(1, 1)
    assert pascal_minor_check(4, 6)


def test_pascal_all_square_selections_solvable():
    # nonzero maximal minors mean any r-column selection is invertible
    import itertools
    P = truncated_pascal(3, 6)
    for cols in itertools.combinations(range(7), 3):
        sub = RationalMatrix.from_rows([[P.entries[i][j] for j in cols] for i in range(3)])
        x = solve_exact(sub, [1, 2, 3])
        assert matvec(sub, x) == (1, 2, 3)
