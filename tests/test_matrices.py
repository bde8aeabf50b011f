import math
import random
import re
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings

from weightdist import enumeration, matrices
from weightdist.rank_census import census
from weightdist.closed_forms import (
    AmdsInput,
    extremal_distribution,
    mds_distribution,
    reed_solomon_code,
)
from weightdist.codes import macwilliams_transform
from weightdist.codes import random_code
from weightdist.errors import SingularMatrixError
from weightdist.fields import GF, Field, array_mul, array_ops, array_sub
from weightdist.fileio import knowns_from_json, parse_code_file
from weightdist.moments import verify_pless_full
from weightdist.matrices import (
    GFMatrix,
    RationalMatrix,
    binom,
    gf_kernel_basis,
    gf_rank,
    gf_row_reduce,
    pascal_minor_check,
    rational_rank,
    solve_exact,
    truncated_pascal,
)

from gf_oracle import (
    digitwise_oracle,
    gf_matmul,
    gf_matrices,
    kernel_oracle,
    matvec,
    rational_kernel_vector,
    rref_oracle,
    select_columns,
    transpose,
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
                assert all(x == 0 for x in gf_matmul(M, transpose(GFMatrix.from_rows(f, [v]))).column(0))
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
    assert gf_matmul(M, transpose(kb)) == zero


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


@pytest.fixture
def block_cache():
    """The leading-block cache behind `pascal_minor_check`, cleared on entry
    and on exit, so that no test reads blocks another test computed."""
    cache = matrices._leading_block_nonzero
    cache.cache_clear()
    yield cache
    cache.cache_clear()


def test_one_zero_minor_fails_every_matrix_holding_its_block(block_cache, monkeypatch):
    """No Pascal minor is zero, so the False path is reached by reading one
    minor of the leading block r = 4, s = 7 (rows 3 x 7) as 0: every t >= 7
    holds that block, and no t < 7 does."""
    walk = matrices.maximal_minors

    def one_zero(rows):
        minors = list(walk(rows))
        if (len(rows), len(rows[0])) == (3, 7):
            cols, _ = minors[len(minors) // 2]
            minors[len(minors) // 2] = (cols, 0)
        return iter(minors)

    monkeypatch.setattr(matrices, "maximal_minors", one_zero)
    assert [pascal_minor_check(4, t) for t in range(3, 13)] == [True] * 4 + [False] * 6


def test_each_leading_block_is_computed_once(block_cache, monkeypatch):
    """A sweep over t = r-1..12 reads binom(13, r) minors, where checking
    each t whole read binom(t+1, r) for every t (6,461 for r = 1..5); a
    repeated sweep reads none, and a cold check of one t reads binom(t+1, r)."""
    read = []
    walk = matrices.maximal_minors

    def counted(rows):
        for minor in walk(rows):
            read.append(minor)
            yield minor

    monkeypatch.setattr(matrices, "maximal_minors", counted)

    def sweep(r):
        read.clear()
        assert all(pascal_minor_check(r, t) for t in range(r - 1, 13))
        return len(read)

    assert ([sweep(r) for r in range(2, 6)] == [math.comb(13, r) for r in range(2, 6)]
            == [78, 286, 715, 1287])
    before = block_cache.cache_info()
    assert [sweep(r) for r in range(2, 6)] == [0] * 4
    after = block_cache.cache_info()
    # t reads its t - r + 2 blocks s = r-1..t
    assert after.misses == before.misses
    assert after.hits - before.hits == sum(t - r + 2 for r in range(2, 6) for t in range(r - 1, 13))
    for r, t in [(2, 20), (3, 8), (4, 10), (5, 12), (6, 9)]:
        block_cache.cache_clear()
        read.clear()
        assert pascal_minor_check(r, t)
        assert len(read) == math.comb(t + 1, r)
    # bounded, and large enough for the benchmark sweep's 55 blocks (r = 1..5, t <= 12)
    assert block_cache.cache_info().maxsize is not None
    assert block_cache.cache_info().maxsize >= 55


def _rs_4_2():
    return reed_solomon_code(GF(4), 4, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: pascal_minor_check(0, 3), "need 1 <= r <= t+1, got r=0, t=3"),
    (lambda: pascal_minor_check(5, 3), "need 1 <= r <= t+1, got r=5, t=3"),
    (lambda: pascal_minor_check(1, -1), "need 1 <= r <= t+1, got r=1, t=-1"),
    (lambda: extremal_distribution(0), "m must be >= 1"),
    (lambda: AmdsInput(10, 5, 7, 2, (-1,)), "seed weights must be >= 0"),
    (lambda: reed_solomon_code(GF(4), 6, 2), "need 1 <= k <= n <= q+1, got n=6, k=2, q=4"),
    (lambda: verify_pless_full(mds_distribution(4, 2, 4),
                               macwilliams_transform(mds_distribution(4, 2, 4)), 5),
     "need 0 <= nu <= 4"),
    (lambda: census(_rs_4_2().H, 0), "need 1 <= nu <= 4, got 0"),
    (lambda: census(_rs_4_2().H, 5), "need 1 <= nu <= 4, got 5"),
    (lambda: solve_exact(RationalMatrix.from_rows([[1, 2]]), [1]),
     "solve_exact needs a square matrix, got 1x2"),
    (lambda: solve_exact(RationalMatrix.from_rows([[1, 0], [0, 1]]), [1]),
     "right-hand side length mismatch"),
    (lambda: Field(2, True), "extension degree must be a positive integer, got True"),
    (lambda: Field(2, 0), "extension degree must be a positive integer, got 0"),
    (lambda: Field(2, 1.5), "extension degree must be a positive integer, got 1.5"),
    (lambda: Field(3, 1, [1, 1]), "prime fields take no modulus polynomial"),
    (lambda: GF(4.0), "field order must be an integer, got 4.0"),
    (lambda: GF("4"), "field order must be an integer, got '4'"),
    (lambda: GF(1), "field order must be >= 2, got 1"),
    (lambda: GFMatrix.from_rows(GF(2), [[1], [1, 1]]), "ragged rows"),
    (lambda: GFMatrix.from_rows(GF(2), []), "column count required for a 0-row matrix"),
    (lambda: GFMatrix.from_rows(GF(2), [[2]]), "entry 2 outside [0, 2)"),
    (lambda: GFMatrix.from_rows(GF(3), [[1.7, True, '2']]), "entry 1.7 is not an integer"),
    (lambda: GFMatrix.from_rows(GF(3), [[1, True, 2]]), "entry True is not an integer"),
    (lambda: GFMatrix.from_rows(GF(3), [[1, 0, '2']]), "entry '2' is not an integer"),
    (lambda: GFMatrix.from_rows(GF(3), [[1.0]]), "entry 1.0 is not an integer"),
    (lambda: parse_code_file("q=2 poly=a\n1 1\n1\n"), "bad poly list 'poly=a'"),
    (lambda: parse_code_file("q=2\nx y\n"), "bad sizes 'x y'"),
    (lambda: knowns_from_json([1]), "knowns must be a JSON object"),
    (lambda: random_code(GF(2), 5, 0, seed=1), "need 0 < k < n, got k=0, n=5"),
    (lambda: random_code(GF(2), 5, 5, seed=1), "need 0 < k < n, got k=5, n=5"),
], ids=["pascal-r0", "pascal-r-past-t", "pascal-t-negative", "extremal-m0",
        "amds-negative-seed", "rs-n-past-q", "pless-nu-past-n", "census-nu0",
        "census-nu-past-n", "solve-not-square", "solve-rhs-length", "field-degree-bool",
        "field-degree0", "field-degree-float", "field-prime-modulus", "gf-order-float",
        "gf-order-str", "gf-order1", "matrix-ragged", "matrix-no-rows-no-cols",
        "matrix-entry-past-q", "matrix-entry-float", "matrix-entry-bool",
        "matrix-entry-str", "matrix-entry-integral-float", "codefile-poly", "codefile-sizes",
        "knowns-not-object", "random-code-k0", "random-code-k-n"])
def test_refusals(block_cache, call, message):
    """Invalid arguments are refused with their message, as a ValueError,
    before any work: no refusal reads a block of Pascal minors."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
    assert block_cache.cache_info().currsize == 0


def test_pascal_all_square_selections_solvable():
    # nonzero maximal minors mean any r-column selection is invertible
    import itertools
    P = truncated_pascal(3, 6)
    for cols in itertools.combinations(range(7), 3):
        sub = RationalMatrix.from_rows([[P.entries[i][j] for j in cols] for i in range(3)])
        x = solve_exact(sub, [1, 2, 3])
        assert matvec(sub, x) == (1, 2, 3)
