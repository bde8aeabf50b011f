import itertools
import re
from unittest.mock import patch

import pytest

from weightdist import enumeration
from weightdist.codes import (
    CodeParameters,
    LinearCode,
    WeightDistribution,
    _krawtchouk_matrix,
    macwilliams_transform,
    random_code,
)
from weightdist.enumeration import weight_histogram
from weightdist.errors import (
    BudgetExceededError,
    NonIntegralResultError,
    RankDeficientGeneratorError,
    ZeroCodeError,
)
from weightdist.fields import GF
from weightdist.matrices import GFMatrix, gf_kernel_basis, gf_rank
from weightdist.reference import NMDS_844_DISTRIBUTION_A, NMDS_844_DISTRIBUTION_B

from gf_oracle import krawtchouk, same_codewords, select_columns

HAMMING_74_ROWS = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def repetition_code(n=2):
    return LinearCode(GFMatrix.from_rows(GF(2), [[1] * n]))


def test_repetition_code():
    c = repetition_code()
    assert c.H.entries == ((1, 1),)
    assert c.weight_distribution().counts == (1, 0, 1)
    assert same_codewords(c.dual(), c)  # self-dual
    assert c.weight_distribution().min_weight == 2


def test_full_space_code():
    f3 = GF(3)
    c = LinearCode(GFMatrix.from_rows(f3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert c.H.rows == 0
    d = c.weight_distribution()
    # full space: A_w = binom(n, w) (q-1)^w
    assert d.counts == (1, 8, 24, 32, 16)
    assert d.min_weight == 1
    with pytest.raises(ZeroCodeError):
        c.parameters()  # dual is the zero code


def test_zero_code():
    f2 = GF(2)
    c = LinearCode(GFMatrix.from_rows(f2, [], cols=3))
    assert c.k == 0 and c.H.rows == 3
    assert c.weight_distribution().counts == (1, 0, 0, 0)
    with pytest.raises(ZeroCodeError):
        c.weight_distribution().min_weight
    with pytest.raises(ZeroCodeError, match="^the zero code has no nonzero codeword$"):
        c.parameters()


def test_rank_deficient_generator_rejected():
    f2 = GF(2)
    with pytest.raises(RankDeficientGeneratorError):
        LinearCode(GFMatrix.from_rows(f2, [[1, 1, 0], [1, 1, 0]]))


def test_reference_pair_golden(reference_pair):
    a, b = reference_pair
    assert a.weight_distribution().counts == NMDS_844_DISTRIBUTION_A
    assert b.weight_distribution().counts == NMDS_844_DISTRIBUTION_B
    pa = a.parameters()
    pb = b.parameters()
    assert (pa.d, pa.d_perp, pa.sigma) == (4, 4, 2)
    assert (pb.d, pb.d_perp, pb.sigma) == (4, 4, 2)
    # generators start with an identity block
    assert select_columns(a.G, range(4)).entries == ((1, 0, 0, 0), (0, 1, 0, 0),
                                                     (0, 0, 1, 0), (0, 0, 0, 1))
    # dual dimension n - k = 4
    assert a.H.rows == 4
    # duals are [8,4,4] codes too
    assert a.dual().parameters().d == 4


def test_hamming_and_simplex():
    f2 = GF(2)
    ham = LinearCode(GFMatrix.from_rows(f2, HAMMING_74_ROWS))
    assert ham.weight_distribution().counts == (1, 0, 0, 7, 7, 0, 0, 1)
    assert ham.weight_distribution().min_weight == 3
    simplex = ham.dual()
    assert simplex.weight_distribution().counts == (1, 0, 0, 0, 7, 0, 0, 0)
    assert simplex.parameters().d == 4


def test_dual_of_dual_is_same_code():
    for q, n, k, s in [(2, 7, 3, 0), (3, 6, 2, 1), (4, 6, 3, 2), (5, 5, 2, 3)]:
        c = random_code(GF(q), n, k, seed=s)
        assert same_codewords(c.dual().dual(), c)


def test_krawtchouk_column_orthogonality():
    # sum_i K_j(i) K_i(l) = q^n delta_{j,l} is overkill; check the transform
    # inverts itself instead via small cases below
    assert krawtchouk(2, 2, 0, 0) == 1
    assert krawtchouk(2, 2, 1, 0) == 2
    assert krawtchouk(2, 2, 1, 1) == 0


@pytest.mark.parametrize("n, q", [(1, 2), (7, 2), (12, 3), (9, 4), (6, 27), (5, 257)])
def test_krawtchouk_matrix_matches_krawtchouk(n, q):
    K = _krawtchouk_matrix(n, q)
    assert K == [[krawtchouk(n, q, j, i) for i in range(n + 1)] for j in range(n + 1)]


@pytest.mark.parametrize("counts, q, k, message", [
    ((1, 0, 2), 2, 1, "B_0 = 3/2 is not an integer; invalid input distribution"),
    ((1, 0, 3), 2, 2, "B_1 = -1 is negative; invalid input distribution"),
    ((1, 3, 0), 2, 2, "B_1 = 2/4 is not an integer; invalid input distribution"),
])
def test_macwilliams_error_messages(counts, q, k, message):
    with pytest.raises(NonIntegralResultError, match=f"^{re.escape(message)}$"):
        macwilliams_transform(WeightDistribution(counts, q=q, k=k))


def test_macwilliams_small_cases():
    rep = repetition_code()
    B = macwilliams_transform(rep.weight_distribution())
    assert B.counts == (1, 0, 1)
    f2 = GF(2)
    full = LinearCode(GFMatrix.from_rows(f2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    B = macwilliams_transform(full.weight_distribution())
    assert B.counts == (1, 0, 0, 0)


def test_macwilliams_matches_dual_enumeration(reference_pair):
    a, _ = reference_pair
    B = macwilliams_transform(a.weight_distribution())
    assert B.counts[1] == B.counts[2] == B.counts[3] == 0 and B.counts[4] > 0
    assert B.counts == a.dual().weight_distribution().counts


def test_macwilliams_rejects_invalid_distribution():
    bad = WeightDistribution((1, 0, 2), q=2, k=1)  # sums to 3, not 2
    with pytest.raises(NonIntegralResultError):
        macwilliams_transform(bad)


def test_macwilliams_involution_on_corpus_sample(corpus):
    for code in corpus[::13]:
        A = code.weight_distribution()
        BB = macwilliams_transform(macwilliams_transform(A))
        assert BB.counts == A.counts


def test_random_code_deterministic_and_full_rank():
    f2 = GF(2)
    c1 = random_code(f2, 6, 3, seed=42)
    c2 = random_code(f2, 6, 3, seed=42)
    assert c1.G.entries == c2.G.entries
    assert gf_rank(c1.G) == 3
    f4 = GF(4)
    assert gf_rank(random_code(f4, 8, 4, seed=9).G) == 4


@pytest.mark.parametrize("n, k", [(6, True), (6.0, 3), (6, "3")])
def test_random_code_rejects_bool_and_non_int_sizes(n, k):
    # True was taken for the dimension 1
    with pytest.raises(ValueError, match="must be an integer"):
        random_code(GF(2), n, k, seed=1)


def test_budget_exceeded():
    c = random_code(GF(2), 8, 6, seed=1)
    with pytest.raises(BudgetExceededError):
        c.weight_distribution(budget=63)


@pytest.mark.parametrize("budget, error", [
    (1, BudgetExceededError), (31, BudgetExceededError), (-1, ValueError), (True, ValueError),
])
def test_cached_distribution_still_checks_the_budget(budget, error):
    # the cached counts were returned whatever the budget said; they are
    # checked against the cost of the route that counted them, here the
    # table's 2^5 messages of one word: 32 runs and 31 refuses
    c = random_code(GF(2), 10, 5, seed=1)
    A = c.weight_distribution(budget=None)
    assert c.weight_distribution(budget=32) is A
    with pytest.raises(error):
        c.weight_distribution(budget=budget)


@pytest.mark.parametrize("n, k", [(10, 5), (20, 17)])  # the table, the syndrome count
def test_each_distribution_call_checks_the_count_once(n, k):
    # the first call checked once in the code and again, with no budget,
    # inside weight_histogram, pricing the syndrome route twice
    c = random_code(GF(2), n, k, seed=n)
    calls = []
    real = enumeration.check_count

    def counting(*args):
        calls.append(args)
        return real(*args)

    # `weight_distribution` imports `check_count` from `enumeration` on each
    # call, so the one patch counts the direct check and the one inside
    # `weight_histogram`
    with patch.object(enumeration, "check_count", counting):
        for i in range(1, 4):
            c.weight_distribution(budget=10 ** 6)
            assert len(calls) == i
    assert all(args[1] == 10 ** 6 for args in calls)


def test_a_cached_distribution_builds_no_kernel():
    # a high-rate code's call prices the syndrome count from the memoised
    # rank of G, so a cached call, and parameters(), read no kernel at all
    c = random_code(GF(2), 30, 27, seed=30)
    c.weight_distribution()
    before = gf_kernel_basis.cache_info()
    for _ in range(3):
        c.weight_distribution()
        c.parameters()
    after = gf_kernel_basis.cache_info()
    assert after.misses == before.misses and after.hits == before.hits
    assert gf_kernel_basis(c.G) is c.H
    assert after.maxsize is not None


def test_support_size_is_weight_and_parity_check_dependence():
    # every codeword's support selects dependent columns of H
    for q, n, k, s in [(2, 7, 3, 10), (3, 6, 3, 11), (4, 6, 2, 12)]:
        c = random_code(GF(q), n, k, seed=s)
        f = c.field
        for msg in itertools.product(range(q), repeat=k):
            w = [0] * n
            for m, row in zip(msg, c.G.entries):
                for j, e in enumerate(row):
                    w[j] = f.add(w[j], f.mul(m, e))
            supp = [j for j, x in enumerate(w) if x]
            assert len(supp) == sum(1 for x in w if x)
            if supp:
                sub = select_columns(c.H, supp)
                assert gf_rank(sub) < len(supp)


def test_singleton_bound_on_corpus(corpus):
    for code in corpus[::7]:
        p = code.parameters()
        assert 1 <= p.d <= code.n - code.k + 1
        assert 1 <= p.d_perp <= code.k + 1
        assert p.sigma >= 0


def test_distribution_invariants_on_corpus(corpus):
    for code in corpus[::9]:
        A = code.weight_distribution()
        A.validate()
        d = A.min_weight
        assert all(A.counts[i] == 0 for i in range(1, d))
        assert A.counts[0] == 1


def test_workers_match_serial():
    c = random_code(GF(3), 8, 5, seed=77)
    with patch.object(enumeration, "_table_histogram", wraps=enumeration._table_histogram) as table:
        assert weight_histogram(c.G, workers=2) == weight_histogram(c.G, workers=1)
    assert table.call_count == 2


def test_validate_rejects_bad_distributions():
    with pytest.raises(ValueError):
        WeightDistribution((2, 0, 1), q=2, k=1).validate()
    with pytest.raises(ValueError):
        WeightDistribution((1, -1, 2), q=2, k=1).validate()
    with pytest.raises(ValueError):
        WeightDistribution((1, 0, 0), q=2, k=1).validate()


def test_code_parameters_invariants():
    CodeParameters(n=8, k=4, d=5, d_perp=5, q=5)  # MDS: both Singleton bounds met
    CodeParameters(n=1, k=1, d=1, d_perp=1, q=2)
    for bad in [dict(d_perp=6), dict(d_perp=0), dict(d=6), dict(d=0), dict(k=0), dict(k=9),
                dict(n=0, k=0), dict(q=1), dict(q=True), dict(k=4.0), dict(d="5"),
                dict(n=True, k=True, d=True, d_perp=True)]:
        with pytest.raises(ValueError):
            CodeParameters(**dict(dict(n=8, k=4, d=5, d_perp=5, q=5), **bad))

