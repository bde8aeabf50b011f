import itertools
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightdist import rank_census
from weightdist.rank_census import (_rank_table, _read, _window, census,
                                    check_full_rank_regime, verify_counting_identity)
from weightdist.closed_forms import mds_distribution, reed_solomon_code
from weightdist.codes import LinearCode, random_code
from weightdist.errors import BudgetExceededError, RegimeViolationError
from weightdist.fields import GF
from weightdist.matrices import GFMatrix, binom, gf_rank, gf_row_reduce

from gf_oracle import (census_table_oracle, gf_matmul, gf_matrices, rank_oracle, select_columns,
                       transpose)

IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_census_single_subset():
    f2 = GF(2)
    M = GFMatrix.from_rows(f2, [[1, 1]])
    assert census(M, 2).counts == {1: 1}


@pytest.mark.parametrize("nu", [True, 2.0, "2"])
def test_census_rejects_bool_and_non_int_width(nu):
    M = GFMatrix.from_rows(GF(2), IDENTITY3)
    with pytest.raises(ValueError):
        census(M, nu)
    code = LinearCode(M)
    with pytest.raises(ValueError, match="nu must be an integer"):
        verify_counting_identity(code, code.weight_distribution(), nu)


@pytest.mark.parametrize("budget", [-1, 0, 2.5, True, "10"])
def test_census_rejects_a_bad_budget(reference_pair, budget):
    # a budget is None or an int >= 1; -1 used to read as exceeded (exit 3)
    a, _ = reference_pair
    with pytest.raises(ValueError, match="budget"):
        census(a.H, 2, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        verify_counting_identity(a, a.weight_distribution(), 2, budget=budget)


@pytest.mark.parametrize("d_perp", [True, 2.5, "3", 0, -1, 6])
def test_full_rank_regime_rejects_bad_dual_distance(reference_pair, d_perp):
    # [8,4] codes: 1 <= d_perp <= k + 1 = 5, as CodeParameters requires
    a, _ = reference_pair
    with pytest.raises(ValueError):
        check_full_rank_regime(a, 8, d_perp=d_perp)


def test_counting_identity_rejects_a_distribution_of_another_code():
    code = random_code(GF(2), 10, 5, seed=3)
    longer = random_code(GF(2), 12, 5, seed=3).weight_distribution()
    ternary = random_code(GF(3), 10, 5, seed=3).weight_distribution()
    for A in (longer, ternary):
        with pytest.raises(ValueError):
            verify_counting_identity(code, A, 4)


def test_census_identity_columns():
    f2 = GF(2)
    assert census(GFMatrix.from_rows(f2, IDENTITY3), 2).counts == {2: 3}


def test_census_reference_full_width(reference_pair):
    a, _ = reference_pair
    assert census(a.H, 8).counts == {4: 1}


def test_census_matches_naive_per_subset():
    # independent oracle: rank every subset separately
    rng = random.Random(21)
    for q in (2, 3, 4, 5):
        f = GF(q)
        for _ in range(6):
            rows = rng.randrange(1, 4)
            cols = rng.randrange(2, 8)
            M = GFMatrix.from_rows(f, [[rng.randrange(q) for _ in range(cols)]
                                       for _ in range(rows)])
            for nu in range(1, cols + 1):
                naive = {}
                for idx in itertools.combinations(range(cols), nu):
                    r = rank_oracle(select_columns(M, idx))
                    naive[r] = naive.get(r, 0) + 1
                assert census(M, nu).counts == naive


def test_census_totals_and_rank_cap():
    rng = random.Random(4)
    f3 = GF(3)
    M = GFMatrix.from_rows(f3, [[rng.randrange(3) for _ in range(7)] for _ in range(2)])
    for nu in range(1, 8):
        cen = census(M, nu)
        assert cen.total() == binom(7, nu)
        assert all(r <= min(2, nu) for r in cen.counts)


def test_census_budget():
    """The budget caps the cost of the cheaper walk at its boundary: budget =
    cost runs and cost - 1 refuses, naming the walk.  The cost is one more
    than the most nodes the walk takes, times t residual columns, times one
    word per row of the side walked (per 64 rows over GF(2)): for a whole
    table on R rows sum_{j<R} binom(t - 1, j) nodes, for width nu alone
    binom(t, nu - 1); plus the tally's (R + 1) (t + 1) (hi + 1) additions,
    hi = t for a whole table and nu for width nu alone."""
    rng = random.Random(5)
    for q in CENSUS_FIELDS:
        f = GF(q)
        # 3 x 8 at width 2 and 10 x 20 at width 3 walk the width alone, at
        # binom(8, 1) = 8 and binom(20, 2) = 190 nodes, beside a whole table
        # of 29 and of about 2^18; 7 x 8 walks its whole table on a kernel of
        # one or two rows, at most 8 nodes, where width 4 alone takes 56
        small = GFMatrix.from_rows(f, [[rng.randrange(q) for _ in range(8)] for _ in range(3)])
        wide = GFMatrix.from_rows(f, [[rng.randrange(q) for _ in range(20)] for _ in range(10)])
        tall = GFMatrix.from_rows(f, [[rng.randrange(q) for _ in range(8)] for _ in range(7)])
        for M, nu, route in ((small, 2, "census at width 2"), (wide, 3, "census at width 3"),
                             (tall, 4, "whole census table")):
            t, R = M.cols, rank_oracle(M)
            if route == "whole census table":
                rows, hi = min(R, t - R), t
                nodes = sum(binom(t - 1, j) for j in range(max(rows, 1)))
            else:
                rows, hi, nodes = R, nu, binom(t, nu - 1)
            cost = nodes * t * (1 if q == 2 else max(rows, 1)) + (rows + 1) * (t + 1) * (hi + 1)
            assert census(M, nu, budget=cost).counts == naive_census(M, nu)
            with pytest.raises(BudgetExceededError,
                               match=f"^{route} costs {cost} element operations"):
                census(M, nu, budget=cost - 1)
    # one row of 30 ones, rank 1: width 15 alone, one node of 30 columns and
    # a tally of 2 * 31 * 16, beside a whole table's tally of 2 * 31 * 31
    M = GFMatrix.from_rows(GF(2), [[1] * 30])
    with pytest.raises(BudgetExceededError, match="^census at width 15 costs 1022 "):
        census(M, 15, budget=1021)
    assert census(M, 15, budget=1022).counts == {1: binom(30, 15)}


def test_one_width_of_a_long_row_is_walked_alone():
    """One row of 2000 ones over GF(2): width 3 alone is one node of 2000
    columns and a tally of 2 * 2001 * 4, 18,008 operations, where the whole
    table's tally alone is 2 * 2001^2."""
    M = GFMatrix.from_rows(GF(2), [[1] * 2000])
    assert census(M, 3, budget=18_008).counts == {1: binom(2000, 3)}
    with pytest.raises(BudgetExceededError, match="^census at width 3 costs 18008 "):
        census(M, 3, budget=18_007)


def test_reed_solomon_parity_check_walks_its_whole_table():
    """H of RS [40,6]_256 has 34 rows and a kernel of 6: its whole table on
    the kernel is priced at 160,314,487 and width 20 alone far past the
    default budget, so the census reads the whole table.  Any 34 columns of
    H, a generator of the dual MDS code, are independent, so every
    20-column selection has rank 20; the identity holds against the MDS
    closed form."""
    code = reed_solomon_code(GF(256), 40, 6)
    with pytest.raises(BudgetExceededError, match="^whole census table costs 160314487 "):
        census(code.H, 20, budget=160_314_486)
    assert census(code.H, 20).counts == {20: binom(40, 20)}
    A = mds_distribution(40, 6, 256)
    for nu in (1, 20, 34, 35, 40):
        assert verify_counting_identity(code, A, nu)[2], nu


@pytest.mark.parametrize("q, n, k", [(2, 16, 8), (2, 16, 4), (3, 14, 7), (4, 12, 6)])
def test_verify_walks_one_table_per_code(q, n, k):
    """The identity at every width reads the whole table of H, and the
    full-rank regime at each of its widths reads that table again, cheaper
    route or not: one walk per code."""
    code = random_code(GF(q), n, k, seed=n * k)
    A = code.weight_distribution()
    d_perp = code.parameters().d_perp
    with patch.object(rank_census, "_TABLES", {}), \
            patch.object(rank_census, "_frontier", wraps=rank_census._frontier) as walk:
        for nu in range(1, n + 1):
            assert verify_counting_identity(code, A, nu)[2]
        for nu in range(n - d_perp + 1, n + 1):
            assert check_full_rank_regime(code, nu, d_perp=d_perp)
    assert walk.call_count == 1


def test_counting_identity_repetition():
    c = LinearCode(GFMatrix.from_rows(GF(2), [[1, 1]]))
    A = c.weight_distribution()
    lhs, rhs, ok = verify_counting_identity(c, A, 2)
    assert (lhs, rhs, ok) == (2, 2, True)


def test_counting_identity_reference_all_widths(reference_pair):
    for code in reference_pair:
        A = code.weight_distribution()
        for nu in range(1, code.n + 1):
            lhs, rhs, ok = verify_counting_identity(code, A, nu)
            assert ok, (nu, lhs, rhs)


def test_counting_identity_random_sample(corpus):
    for code in corpus[::11]:
        A = code.weight_distribution()
        for nu in range(1, code.n + 1):
            assert verify_counting_identity(code, A, nu)[2]


def test_full_rank_regime_reference(reference_pair):
    a, _ = reference_pair
    assert check_full_rank_regime(a, 5, d_perp=4)
    assert check_full_rank_regime(a, 8, d_perp=4)
    with pytest.raises(RegimeViolationError):
        check_full_rank_regime(a, 3, d_perp=4)


def test_full_rank_regime_enumerates_under_the_default_budget():
    """The dual distance of a [30,27]_2 code is enumerated under the default
    budget, and the census of the regime check is capped by its own: width
    30 of the 3-row H alone costs min(30, 1 + 29 + 406) * 30 + 4 * 31 * 31
    = 4,744 operations, its walk and its tally, less than the whole table's
    16,924."""
    code = random_code(GF(2), 30, 27, seed=30)
    d_perp = code.parameters().d_perp
    assert check_full_rank_regime(code, 30, d_perp=d_perp)
    assert check_full_rank_regime(code, 30, d_perp=d_perp, budget=4_744)
    with pytest.raises(BudgetExceededError, match="^census at width 30 costs 4744 "):
        check_full_rank_regime(code, 30, d_perp=d_perp, budget=4_743)


def test_regime_substitution_reproduces_moment_rhs(reference_pair):
    # in the full-rank regime the census side collapses to
    # binom(n, nu) q^(nu + k - n)
    a, _ = reference_pair
    A = a.weight_distribution()
    n, k, q = a.n, a.k, a.field.q
    for nu in range(5, 9):
        lhs, rhs, ok = verify_counting_identity(a, A, nu)
        assert ok and rhs == binom(n, nu) * q ** (nu + k - n)


def test_small_width_census_detects_distance():
    # every selection of fewer than d columns of H is full rank
    c = random_code(GF(3), 7, 3, seed=6)
    d = c.weight_distribution().min_weight
    for delta in range(1, d):
        cen = census(c.H, delta)
        assert cen.counts == {delta: binom(c.n, delta)}


# -- differential tests against the naive oracle ------------------------------

# GF(2) bitmasks; prime and extension tables; GF(257), GF(2^9) and GF(3^7),
# too large for tables
CENSUS_FIELDS = (2, 3, 4, 5, 7, 8, 9, 257, 2 ** 9, 3 ** 7)


def naive_census(M, nu):
    """The oracle: rank every nu-column selection on its own."""
    out = {}
    for idx in itertools.combinations(range(M.cols), nu):
        r = rank_oracle(select_columns(M, idx))
        out[r] = out.get(r, 0) + 1
    return out


# a 5x6 matrix of rank 5, walked through its 1-row kernel (the dual route),
# and a 2x7 matrix of rank 2, walked directly
TALL = GFMatrix.from_rows(GF(3), [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 2],
                                  [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 1],
                                  [0, 0, 0, 0, 1, 2]])
WIDE = GFMatrix.from_rows(GF(4), [[1, 2, 3, 0, 1, 1, 0], [0, 1, 1, 1, 2, 3, 0]])
# a field too large for q x q tables
LARGE = GFMatrix.from_rows(GF(257), [[1, 256, 3, 0, 7], [2, 255, 6, 1, 0], [5, 9, 0, 1, 1]])


@settings(max_examples=120, deadline=None)
@given(gf_matrices(CENSUS_FIELDS))
@example(TALL)
@example(WIDE)
@example(LARGE)
def test_census_whole_table_matches_oracle(M):
    for nu in range(1, M.cols + 1):
        assert census(M, nu, budget=None).counts == naive_census(M, nu)


@settings(max_examples=80, deadline=None)
@given(gf_matrices(CENSUS_FIELDS))
@example(TALL)
@example(WIDE)
@example(LARGE)
def test_census_budget_limited_walk_matches_oracle(M):
    # each width takes the cheaper of two walks, the whole table on the
    # side of fewer rows and the width alone on M's R rows, a tie going to
    # the whole table; each is priced at its nodes (sum_{j<rows}
    # binom(t - 1, j), and for width nu alone also at most binom(t, nu - 1))
    # of t residuals, one word per row (these have at most 5, one word over
    # GF(2)), plus its tally's (rows + 1) (t + 1) (hi + 1) additions.  That
    # price runs and one less refuses, from an empty cache and with the
    # whole table kept, which then saves every walk; the counts are exact
    t, R = M.cols, rank_oracle(M)

    def walk(rows):
        return sum(binom(t - 1, j) for j in range(max(rows, 1)))

    def price(rows, nodes, hi):
        return nodes * t * (1 if M.field.q == 2 else max(rows, 1)) + (rows + 1) * (t + 1) * (hi + 1)

    whole = price(min(R, t - R), walk(min(R, t - R)), t)
    with patch.object(rank_census, "_TABLES", {}):
        for kept in (False, True):
            if kept:
                _read(M, 1, _window(M, 1)[0])
            with patch.object(rank_census, "_frontier", wraps=rank_census._frontier) as frontier:
                for nu in range(1, t + 1):
                    lone = price(R, min(binom(t, nu - 1), walk(min(R, nu))), nu)
                    route = "whole census table" if whole <= lone else f"census at width {nu}"
                    with pytest.raises(BudgetExceededError,
                                       match=f"^{route} costs {min(whole, lone)} "):
                        census(M, nu, budget=min(whole, lone) - 1)
                    assert census(M, nu, budget=min(whole, lone)).counts == naive_census(M, nu)
            assert not (kept and frontier.called)


# edge cases of the walk: no rows, one row, all zero, and repeated columns
# (in the span of a prefix before it reaches rank R - 1)
NO_ROWS = GFMatrix.from_rows(GF(3), [], cols=4)
ONE_ROW = GFMatrix.from_rows(GF(4), [[0, 2, 3, 0, 1]])
ALL_ZERO = GFMatrix.from_rows(GF(2), [[0] * 5] * 3)
REPEATS = GFMatrix.from_rows(GF(2), [[1, 1, 0, 1, 1, 0, 0], [0, 0, 1, 0, 0, 1, 1],
                                     [0, 0, 0, 1, 1, 0, 1], [1, 1, 0, 0, 0, 1, 0]])
REPEATS_Q = GFMatrix.from_rows(GF(9), [[1, 1, 2, 0, 5, 5], [3, 3, 6, 0, 0, 0],
                                       [0, 0, 0, 1, 7, 7]])


def dependent_columns(field, a, b, c, lam):
    """Columns a, b, lam * a, a + b, c, lam * c and b over the field: rank 3
    at most, with every kind of dependency among the later columns."""
    f = field
    cols = [a, b, [f.mul(lam, x) for x in a], [f.add(x, y) for x, y in zip(a, b)],
            c, [f.mul(lam, x) for x in c], b]
    return transpose(GFMatrix.from_rows(f, cols))


# the same shape above the table limit, of odd and even characteristic
DEPENDENT_257 = dependent_columns(GF(257), [1, 2, 5], [256, 255, 9], [7, 0, 1], 128)
DEPENDENT_512 = dependent_columns(GF(2 ** 9), [1, 2, 511], [5, 0, 3], [0, 7, 1], 300)


@settings(max_examples=100, deadline=None)
@given(gf_matrices(CENSUS_FIELDS), st.sampled_from((1, 2, 3, 1024)))
@example(TALL, 2)
@example(WIDE, 3)
@example(LARGE, 1)
@example(NO_ROWS, 1)
@example(ONE_ROW, 2)
@example(ALL_ZERO, 1)
@example(REPEATS, 2)
@example(REPEATS_Q, 1)
@example(DEPENDENT_257, 2)
@example(DEPENDENT_512, 1024)
def test_rank_table_matches_the_oracle_in_every_window(M, chunk):
    # every window (lo, hi), the whole one walked on the kernel when that has
    # fewer rows; chunks of a few subsets make the walk cross chunk edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank_census, "_CHUNK", chunk)
        for lo in range(M.cols + 1):
            for hi in range(lo, M.cols + 1):
                assert _rank_table(M, lo, hi) == census_table_oracle(M, lo, hi)


def subset_table_oracle(M, lo, hi):
    """counts[size][rank] for lo <= size <= hi, in the shape _rank_table
    returns, from the rank of every column subset taken on its own: no
    binomial closed form."""
    t = M.cols
    counts = [[0] * (rank_oracle(M) + 1) for _ in range(t + 1)]
    for size in range(lo, hi + 1):
        for S in itertools.combinations(range(t), size):
            counts[size][rank_oracle(select_columns(M, S))] += 1
    return tuple(map(tuple, counts))


@settings(max_examples=60, deadline=None)
@given(gf_matrices(CENSUS_FIELDS, max_rows=8, max_cols=8), st.sampled_from((1, 3, 1024)))
@example(TALL, 1)
@example(REPEATS_Q, 3)
@example(DEPENDENT_512, 1024)
def test_rank_table_matches_every_subset_ranked_alone(M, chunk):
    # the walk ends a node in closed form at rank R - 1 or more and at size
    # hi - 1 or more, as census_table_oracle does at the first; here every
    # subset is ranked on its own instead.  Tall matrices of rank above
    # cols - rank walk their whole table on the kernel.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank_census, "_CHUNK", chunk)
        for lo in range(M.cols + 1):
            for hi in range(lo, M.cols + 1):
                assert _rank_table(M, lo, hi) == subset_table_oracle(M, lo, hi)


def invertible(field, n, rng):
    """A random invertible n x n matrix over the field."""
    while True:
        A = GFMatrix.from_rows(field, [[rng.randrange(field.q) for _ in range(n)]
                                       for _ in range(n)], cols=n)
        if gf_rank(A) == n:
            return A


def assert_walks_agree(M, windows, rng):
    """The table of M in each window is that of M with its columns permuted
    and that of M times an invertible matrix on the left.  Both reach the
    walk: a permutation reorders the columns it decides, and the walk run
    directly on an invertible combination of M's reduced rows reduces other
    residuals than on the rows themselves."""
    perm = list(range(M.cols))
    rng.shuffle(perm)
    permuted = select_columns(M, perm)
    mixed = gf_matmul(invertible(M.field, M.rows, rng), M)
    basis = GFMatrix(M.field, gf_row_reduce(M)[0], M.cols)
    R = basis.rows
    mixed_basis = gf_matmul(invertible(M.field, R, rng), basis)
    for lo, hi in windows:
        table = _rank_table(M, lo, hi)
        assert _rank_table(permuted, lo, hi) == table
        assert _rank_table(mixed, lo, hi) == table
        # the direct walk, never on the kernel
        direct = rank_census._frontier(basis, R, lo, hi)
        assert rank_census._frontier(mixed_basis, R, lo, hi) == direct
        assert rank_census._frontier(select_columns(basis, perm), R, lo, hi) == direct


@settings(max_examples=40, deadline=None)
@given(gf_matrices(CENSUS_FIELDS, max_rows=6, max_cols=8), st.randoms(use_true_random=False))
@example(LARGE, random.Random(0))
@example(DEPENDENT_257, random.Random(1))
@example(DEPENDENT_512, random.Random(2))
@example(dependent_columns(GF(3 ** 7), [1, 2, 2186], [5, 0, 3], [0, 7, 1], 1000),
         random.Random(3))
def test_rank_table_is_invariant_under_permutation_and_row_mixing(M, rng):
    t = M.cols
    assert_walks_agree(M, [(0, t)] + [(nu, nu) for nu in range(t + 1)], rng)


def test_rank_table_invariance_past_64_binary_rows():
    # 66 independent rows of 70 columns: residuals are Python ints
    rng = random.Random(66)
    M = GFMatrix.from_rows(GF(2), [[rng.randrange(2) for _ in range(70)] for _ in range(66)])
    assert gf_rank(M) == 66
    assert_walks_agree(M, [(1, 1), (2, 2)], rng)


def test_census_of_more_than_64_binary_rows():
    # past 64 rows a GF(2) residual no longer fits a machine word
    rng = random.Random(64)
    M = GFMatrix.from_rows(GF(2), [[rng.randrange(2) for _ in range(70)] for _ in range(66)])
    assert rank_oracle(M) == 66
    for nu in (1, 2):
        assert census(M, nu).counts == naive_census(M, nu)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CENSUS_FIELDS), st.integers(2, 7), st.data())
def test_dual_matroid_rank_rule(q, n, data):
    # r_H(S) = |S| - k + r_G(E \ S) for every column subset S, with both
    # sides ranked on their own, never through the census
    k = data.draw(st.integers(1, n - 1))
    code = random_code(GF(q), n, k, seed=data.draw(st.integers(0, 2 ** 30)))
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            rest = [j for j in range(n) if j not in S]
            assert (rank_oracle(select_columns(code.H, S))
                    == size - k + rank_oracle(select_columns(code.G, rest)))


def test_walk_keys_past_int64():
    # an ended node's key is at most (R + 1) (t + 1)^3 - 1; past int64 the
    # walk keys its nodes by Python ints, and counts the same
    assert rank_census._key_type(0, (1 << 21) - 1) is np.int64
    assert rank_census._key_type(0, 1 << 21) is object
    assert rank_census._key_type(7, (1 << 20) - 1) is np.int64
    assert rank_census._key_type(8, (1 << 20) - 1) is object
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank_census, "_key_type", lambda R, t: object)
        for M in (TALL, WIDE, LARGE, NO_ROWS, REPEATS, DEPENDENT_512):
            for lo in range(M.cols + 1):
                for hi in range(lo, M.cols + 1):
                    assert _rank_table(M, lo, hi) == census_table_oracle(M, lo, hi)


@settings(max_examples=80, deadline=None)
@given(gf_matrices(CENSUS_FIELDS))
@example(NO_ROWS)
@example(ALL_ZERO)
@example(REPEATS)
@example(REPEATS_Q)
@example(DEPENDENT_257)
@example(DEPENDENT_512)
@example(GFMatrix.from_rows(GF(2), [[1] * 3 + [0] * 6, [0, 1, 0] * 3, [0, 0, 1] + [0] * 6]))
@example(GFMatrix.from_rows(GF(3), [[1, 0, 0, 2, 1, 0, 0, 0], [0, 1, 0, 0, 0, 2, 0, 0],
                                    [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0]]))
def test_walks_take_fewer_nodes_than_they_are_priced_at(M):
    """A walk takes at most one node fewer than `_window` prices it at,
    however its columns repeat or vanish: on R rows, R >= 1, at most
    sum_{j<R} binom(t - 1, j) - 1 in any window, and width nu alone also
    at most binom(t, nu - 1) - 1.  `_rank_table` refuses past its limit,
    so each walk is run at that bound."""
    t, rank = M.cols, rank_oracle(M)

    def bound(R):
        return sum(binom(t - 1, j) for j in range(max(R, 1))) - 1

    whole = bound(min(rank, t - rank))
    assert _rank_table(M, 0, t, whole) == census_table_oracle(M, 0, t)
    for nu in range(1, t + 1):
        lone = min(binom(t, nu - 1) - 1, bound(rank))
        assert _rank_table(M, nu, nu, lone) == census_table_oracle(M, nu, nu)
    if whole:
        with pytest.raises(BudgetExceededError, match="nodes it was priced at"):
            _rank_table(M, 0, t, 0)


def test_parallel_columns_walk_within_their_price():
    """G = [I_3 | 67 copies of e_1] over GF(2): every subset of the 68
    copies of e_1 has rank 1, yet the walk leaves each copy after the first
    free instead of branching on it, and takes 2,415 nodes of the 2,416 a
    whole table on 3 rows is priced at, each at 70 columns, beside a tally
    of 4 * 71 * 71.  Its H, 67 rows, has the same table on its 3-row kernel
    at the same price, which the identity reads.  Width 2 alone costs less
    on either: 70 nodes of 70 columns, one word per 64 rows, and a tally of
    (R + 1) * 71 * 3.  Pairs of G's columns have rank 1 within the copies
    of e_1 and 2 otherwise; a pair of H's has rank 2 - 3 plus the rank of
    G's other 68 columns: 0 for e_2 and e_3, 1 with one of them."""
    rows = [[int(j == r) for j in range(3)] + [int(r == 0)] * 67 for r in range(3)]
    code = LinearCode(GFMatrix.from_rows(GF(2), rows))
    price = 2416 * 70 + 4 * 71 * 71
    for M in (code.G, code.H):
        assert _window(M, 2)[0] == ("whole census table", price, (0, 70), 2416)
    assert _rank_table(code.G, 0, 70, 2415)[2] == (0, binom(68, 2), 137, 0)
    with pytest.raises(BudgetExceededError):
        _rank_table(code.G, 0, 70, 2414)
    for M, lone, counts in ((code.G, 70 * 70 + 4 * 71 * 3, {1: binom(68, 2), 2: 137}),
                            (code.H, 70 * 70 * 2 + 68 * 71 * 3, {0: 1, 1: 136, 2: binom(68, 2)})):
        assert census(M, 2, budget=lone).counts == counts
        with pytest.raises(BudgetExceededError, match=f"^census at width 2 costs {lone} "):
            census(M, 2, budget=lone - 1)
    A = code.weight_distribution()
    assert verify_counting_identity(code, A, 2, budget=price)[2]
    with pytest.raises(BudgetExceededError, match=f"^whole census table costs {price} "):
        verify_counting_identity(code, A, 2, budget=price - 1)


def test_wide_low_rank_matrices_walk_whole_tables_within_their_price():
    """A matrix of one or two rows has a whole table at any width, past 128
    columns too: on R rows sum_{j<R} binom(t - 1, j) nodes of t columns, one
    word per row (per 64 rows over GF(2)), and a tally of (R + 1) (t + 1)^2
    additions.  Width t alone takes as many nodes and the same tally, so it
    reads the whole table; width 3 alone takes them too, at most
    binom(t, 2), but a tally of (R + 1) (t + 1) 4, and is walked alone.  A
    subset has rank 0 on zero columns alone, 1 on zero columns and one
    class of parallel nonzero columns, 2 otherwise; every size s has
    binom(t, s) subsets."""
    rng = random.Random(2)
    matrices = [GFMatrix.from_rows(GF(2), [[1] * 300])]
    for q, t in ((2, 300), (3, 200)):
        matrices.append(GFMatrix.from_rows(GF(q), [[rng.randrange(q) for _ in range(t)]
                                                   for _ in range(2)]))
    for M in matrices:
        t, R, q = M.cols, M.rows, M.field.q
        nodes = sum(binom(t - 1, j) for j in range(R))
        walk = nodes * t * (1 if q == 2 else R)
        cost, lone = walk + (R + 1) * (t + 1) ** 2, walk + (R + 1) * (t + 1) * 4
        assert _window(M, 3) == (("whole census table", cost, (0, t), nodes),
                                 ("census at width 3", lone, (3, 3), nodes))
        for nu, route, price in ((3, "census at width 3", lone), (t, "whole census table", cost)):
            with pytest.raises(BudgetExceededError, match=f"^{route} costs {price} "):
                census(M, nu, budget=price - 1)
            assert census(M, nu, budget=price).nu == nu
        # the classes: zero columns, and nonzero columns by their value
        # scaled to a leading 1
        classes: dict[tuple, int] = {}
        for col in zip(*M.entries):
            lead = next((x for x in col if x), 0)
            key = tuple(M.field.div(x, lead) for x in col) if lead else ()
            classes[key] = classes.get(key, 0) + 1
        zero = classes.pop((), 0)
        table = _rank_table(M, 0, t, nodes)
        for s in range(t + 1):
            assert all(type(c) is int for c in table[s])
            assert sum(table[s]) == binom(t, s)
            ranks = [binom(zero, s),
                     sum(binom(zero + v, s) - binom(zero, s) for v in classes.values())]
            ranks.append(binom(t, s) - ranks[0] - ranks[1])
            assert table[s] == tuple(ranks[:R + 1])
            if s:  # read from the whole table kept by width t
                with patch.object(rank_census, "_frontier") as walk:
                    assert census(M, s, budget=cost).counts == {r: c for r, c in enumerate(ranks) if c}
                assert not walk.called


def test_census_small_width_of_wide_matrix():
    # a whole table of a 10 x 20 matrix is far more work than width 1..3, so
    # these widths are walked alone
    rng = random.Random(8)
    for q in (2, 3, 4):
        M = GFMatrix.from_rows(GF(q), [[rng.randrange(q) for _ in range(20)]
                                       for _ in range(10)])
        for nu in (1, 2, 3):
            assert census(M, nu).counts == naive_census(M, nu)


def test_census_small_width_of_rank_deficient_square_matrix():
    # 23 x 23 of rank 11: a whole table could take millions of nodes, so
    # width 3 is walked alone; the bound must come from the rank, not from
    # the row count
    rng = random.Random(11)
    top = [[rng.randrange(2) for _ in range(23)] for _ in range(11)]
    while rank_oracle(GFMatrix.from_rows(GF(2), top)) < 11:
        top = [[rng.randrange(2) for _ in range(23)] for _ in range(11)]
    rows = top + [[a ^ b for a, b in zip(top[i], top[i + 1])] for i in range(10)]
    M = GFMatrix.from_rows(GF(2), rows + [top[0], [0] * 23])
    assert (M.rows, M.cols, rank_oracle(M)) == (23, 23, 11)
    whole, lone = _window(M, 3)
    assert lone[1] < whole[1]
    assert census(M, 3).counts == naive_census(M, 3)
