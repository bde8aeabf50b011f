import math
import random
from fractions import Fraction

import pytest
from gf_oracle import golay_code, matvec, quadratic_residue_47_code

from weightdist import closed_forms, moments
from weightdist.closed_forms import (
    AmdsInput,
    amds_counts,
    amds_distribution,
    extremal_distribution,
    extremal_system,
    mds_distribution,
    nmds_distribution,
    reed_solomon_code,
)
from weightdist.codes import CodeParameters
from weightdist.corpus import find_amds_specimens
from weightdist.errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InconsistentKnownsError,
    NegativeEntryError,
    NonIntegralSolutionError,
    RangeViolationError,
    SingularMatrixError,
)
from weightdist.fields import GF
from weightdist.matrices import binom, solve_exact
from weightdist.moments import build_pascal_system, build_pless_system
from weightdist.reference import GOLAY_FREE_COUNTS


def test_mds_minimum_weight_count():
    for n, k, q in [(5, 2, 4), (7, 3, 8), (9, 5, 9), (6, 6, 5)]:
        d = n - k + 1
        dist = mds_distribution(n, k, q)
        assert dist.counts[d] == binom(n, d) * (q - 1)


def test_mds_738():
    assert mds_distribution(7, 3, 8).counts[5] == 147


def test_mds_full_space():
    # k = n collapses to the binomial expansion of (1 + (q-1))^n
    for n, q in [(4, 3), (5, 2), (3, 9)]:
        dist = mds_distribution(n, n, q)
        assert dist.counts == tuple(binom(n, w) * (q - 1) ** w for w in range(n + 1))
        assert dist.total() == q ** n


def test_mds_sums_to_qk():
    for n, k, q in [(8, 3, 9), (10, 7, 11), (6, 1, 4)]:
        assert mds_distribution(n, k, q).total() == q ** k


def test_mds_and_nmds_match_their_explicit_formulas():
    """The closed forms against the sums in their docstrings, term by term:
    A_w = binom(n, w) sum_j (-1)^j binom(w, j) (q^(w-d+1-j) - 1) for an MDS
    code, and A_{n-k+i} = binom(n, k-i) sum_{j<i} (-1)^j binom(n-k+i, j)
    (q^(i-j) - 1) + (-1)^i binom(k, i) a_d for a near-MDS one."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 13):
            for k in range(1, n + 1):
                d = n - k + 1
                want = [1] + [0] * (d - 1) + [
                    binom(n, w) * sum((-1) ** j * binom(w, j) * (q ** (w - d + 1 - j) - 1)
                                      for j in range(w - d + 1))
                    for w in range(d, n + 1)]
                assert mds_distribution(n, k, q).counts == tuple(want), (q, n, k)
                if k == n:
                    continue
                for a_d in (0, 1, q, binom(n, k) * (q - 1), 3 * q ** 2):
                    want = [1] + [0] * (n - k - 1) + [a_d] + [
                        binom(n, k - i) * sum((-1) ** j * binom(n - k + i, j) * (q ** (i - j) - 1)
                                              for j in range(i))
                        + (-1) ** i * binom(k, i) * a_d
                        for i in range(1, k + 1)]
                    assert nmds_distribution(n, k, q, a_d).counts == tuple(want), (q, n, k, a_d)


def test_nmds_reference_values():
    assert nmds_distribution(8, 4, 4, 27).counts == (1, 0, 0, 0, 27, 60, 78, 60, 30)
    assert nmds_distribution(8, 4, 4, 30).counts == (1, 0, 0, 0, 30, 48, 96, 48, 33)


def test_nmds_first_step_formula():
    # A_{n-k+1} = binom(n, k-1)(q-1) - k * A_{n-k}
    for n, k, q, ad in [(8, 4, 4, 27), (7, 3, 5, 10), (9, 4, 3, 6)]:
        dist = nmds_distribution(n, k, q, ad)
        assert dist.counts[n - k + 1] == binom(n, k - 1) * (q - 1) - k * ad


def test_nmds_unrealizable_seed_reports_negative():
    dist = nmds_distribution(8, 4, 4, 60)
    assert any(c < 0 for c in dist.counts)


def test_amds_reference_reduction_to_nmds():
    a = amds_distribution(AmdsInput(8, 4, 4, 2, (27,)))
    assert a.counts == (1, 0, 0, 0, 27, 60, 78, 60, 30)
    b = amds_distribution(AmdsInput(8, 4, 4, 2, (30,)))
    assert b.counts == (1, 0, 0, 0, 30, 48, 96, 48, 33)


def _is_pascal_solution(counts, n, k, q, seeds):
    """Whether counts is the raw truncated-Pascal solution, negatives
    included, of the code with A_0 = 1, A_1..A_{n-k-1} = 0, A_{n-k}.. = seeds
    and dual distance k + 1 - len(seeds): the knowns are in place and every
    row of the system holds.  Every maximal minor of the system is nonzero,
    so no other vector passes."""
    s = len(seeds)
    S = build_pascal_system(CodeParameters(n=n, k=k, d=n - k + (s == 0), d_perp=k + 1 - s, q=q))
    known = ([1] + [0] * (n - k - 1) + list(seeds))[:n - k + s]
    return counts[:len(known)] == tuple(known) and matvec(S.matrix, counts) == S.rhs


def test_amds_equals_nmds_exhaustive_grid():
    """nmds_distribution and amds_counts at sigma = 2 agree and are the raw
    Pascal solution over the grid, and so are mds_distribution (k = n
    included) and amds_counts at every sigma, inconsistent seeds included."""
    for q in (2, 3, 4, 5):
        for n in range(2, 13):
            for k in range(1, n):
                for ad in range(0, 51):
                    got = nmds_distribution(n, k, q, ad).counts
                    assert _is_pascal_solution(got, n, k, q, (ad,)), (q, n, k, ad)
                    assert amds_counts(AmdsInput(n, k, q, 2, (ad,))) == got, (q, n, k, ad)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert _is_pascal_solution(mds_distribution(n, k, q).counts, n, k, q, ()), (q, n, k)
    rng = random.Random(8)
    negative = 0
    for q in (2, 3, 4, 5):
        for n in range(2, 13):
            for k in range(1, n):
                for sigma in range(2, k + 2):
                    seeds = tuple(rng.randrange(0, 60) for _ in range(sigma - 1))
                    got = amds_counts(AmdsInput(n, k, q, sigma, seeds))
                    assert _is_pascal_solution(got, n, k, q, seeds), (q, n, k, seeds)
                    negative += min(got) < 0
    assert negative > 100


def test_amds_negative_entry_error():
    with pytest.raises(NegativeEntryError):
        amds_distribution(AmdsInput(8, 4, 4, 2, (60,)))


def test_amds_input_validation():
    with pytest.raises(ValueError):
        AmdsInput(8, 4, 4, 2, (27, 1))  # wrong seed count
    with pytest.raises(ValueError):
        AmdsInput(8, 4, 4, 1, ())  # sigma too small
    with pytest.raises(ValueError):
        AmdsInput(8, 8, 4, 2, (1,))  # k = n


@pytest.mark.parametrize("make", [
    lambda: mds_distribution(True, True, 4),
    lambda: mds_distribution(5, 2, 4.0),
    lambda: nmds_distribution(8, 4, 4, True),
    lambda: nmds_distribution(8, True, 4, 27),
    lambda: AmdsInput(8, 4, 4, 2, (True,)),
    lambda: AmdsInput(8, 4, True, 2, (27,)),
    lambda: AmdsInput(8, 4, 4, 3, (27, 2.0)),
    lambda: extremal_distribution(True),
    lambda: extremal_system(True, [24]),
    lambda: reed_solomon_code(GF(5), 4, True),
    lambda: reed_solomon_code(GF(5), 4.0, 2),
    lambda: mds_distribution("5", 2, 4),
    lambda: nmds_distribution(8, "4", 4, 27),
    lambda: AmdsInput("8", 4, 4, 2, (27,)),
])
def test_closed_forms_reject_bool_and_non_int_parameters(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_amds_sigma3_specimen_matches_oracle():
    found = list(find_amds_specimens(sigma=3, count=1, seed=99))
    assert found
    code, params = found[0]
    A = code.weight_distribution()
    d = params.d
    seeds = (A.counts[d], A.counts[d + 1])
    got = amds_distribution(AmdsInput(params.n, params.k, params.q, 3, seeds))
    assert got.counts == A.counts


def test_amds_satisfies_both_moment_systems():
    # closed form output solves every row of both systems
    params = CodeParameters(n=8, k=4, d=4, d_perp=4, q=4)
    dist = amds_distribution(AmdsInput(8, 4, 4, 2, (27,)))
    for S in (build_pascal_system(params), build_pless_system(params)):
        assert matvec(S.matrix, dist.counts) == S.rhs


def test_extremal_params():
    # the free counts of a [24, 12, 8] code over its 4m+4 = 8 relation
    # widths, 16 < nu <= 24
    assert extremal_system(1, range(17, 25)).col_labels == (8, 12, 16)


def test_extremal_system_m1_independent_selection():
    S = extremal_system(1, [22, 24], include_symmetry=True)
    assert S.matrix.entries[0] == (120, 66, 28)
    assert S.rhs[0] == 276 * 1023
    assert S.matrix.entries[1] == (1, 1, 1)
    assert S.rhs[1] == 4094  # (2^12 - 1) - 1
    assert S.matrix.entries[2] == (1, 0, -1)
    x = solve_exact(S.matrix, S.rhs)
    assert x == (759, 2576, 759)


def test_extremal_system_m1_dependent_selection():
    S = extremal_system(1, [23, 24], include_symmetry=True)
    assert S.matrix.entries[0] == (16, 12, 8)
    with pytest.raises(SingularMatrixError) as ei:
        solve_exact(S.matrix, S.rhs)
    assert ei.value.rank == 2
    kv = ei.value.kernel_vector
    assert any(kv) and all(v == 0 for v in matvec(S.matrix, kv))


def test_extremal_system_range_violation():
    with pytest.raises(RangeViolationError):
        extremal_system(1, [16])
    with pytest.raises(RangeViolationError):
        extremal_system(1, [25])


def test_extremal_golay():
    dist = extremal_distribution(1)
    assert dist.counts[8] == 759
    assert dist.counts[12] == 2576
    assert dist.counts[16] == 759
    assert dist.counts[24] == 1
    assert dist.total() == 2 ** 12


@pytest.mark.parametrize("m, make", [(1, golay_code), (2, quadratic_residue_47_code)])
def test_extremal_equals_enumerated_golay_and_qr47(m, make):
    A = make().weight_distribution()
    assert A.counts == extremal_distribution(m).counts
    if m == 1:
        assert GOLAY_FREE_COUNTS == {i: A.counts[i] for i in (8, 12, 16)}


@pytest.mark.parametrize("weight, entry, error, match", [
    (12, -5, NegativeEntryError, "A_12 = -5 is negative; no \\[24,12,8\\] extremal"),
    (12, Fraction(1, 3), NonIntegralSolutionError, "A_12 = 1/3 is not an integer"),
    (23, 1, InconsistentKnownsError, "not symmetric"),
])
def test_extremal_invalid_solve_is_nonexistence(monkeypatch, weight, entry, error, match):
    """A count that is not a nonnegative integer, or one that breaks the
    symmetry or the total, certifies that no such code exists."""
    solve = closed_forms._pascal_counts

    def tampered(*args):
        counts = list(solve(*args))
        counts[weight] = entry
        return tuple(counts)

    monkeypatch.setattr(closed_forms, "_pascal_counts", tampered)
    with pytest.raises(error, match=match):
        extremal_distribution(1)


def test_extremal_unused_widths_are_surplus_rows_of_the_solve(monkeypatch):
    """The widths 20m-3..20m+1 that the interpolation does not use are
    checked by the same solve: an interpolated A_12 one too large breaks
    the first of them, width 17, by its coefficient binom(24-12, 24-17) =
    792, and no [24,12,8] code exists."""
    interpolate = moments.binomial_interpolation

    def tampered(*args):
        x = list(interpolate(*args))
        x[extremal_system(1, [24]).col_labels.index(12)] += 1
        return tuple(x)

    monkeypatch.setattr(moments, "binomial_interpolation", tampered)
    with pytest.raises(InconsistentKnownsError,
                       match="^surplus equation 17 off by 792; knowns admit no common solution$"):
        extremal_distribution(1)


def test_extremal_m2_known_enumerator():
    # the [48, 24, 12] type II enumerator
    dist = extremal_distribution(2)
    assert dist.counts[12] == 17296
    assert dist.counts[16] == 535095
    assert dist.counts[20] == 3995376
    assert dist.counts[24] == 7681680
    assert dist.total() == 2 ** 24


def test_extremal_budget_caps_the_solve_price(monkeypatch):
    """budget = price runs and price - 1 refuses; the price grows as m^3, as
    the time does, so m = 154 (its certificate is pinned by the acceptance
    suite) runs at the default budget and m = 1000 is refused before
    anything is solved."""
    for m in (1, 2, 8):
        price = closed_forms._extremal_price(m)
        assert extremal_distribution(m, budget=price).total() == 2 ** (12 * m)
        with pytest.raises(BudgetExceededError,
                           match=f"^extremal solve costs {price} element operations, "
                                 f"over the budget of {price - 1}$"):
            extremal_distribution(m, budget=price - 1)
    assert all(7.5 < closed_forms._extremal_price(2 * m) / closed_forms._extremal_price(m) < 9
               for m in (40, 80, 160, 320))
    assert closed_forms._extremal_price(154) <= DEFAULT_BUDGET < closed_forms._extremal_price(1000)
    monkeypatch.setattr(closed_forms, "_pascal_counts", None)
    with pytest.raises(BudgetExceededError, match="^extremal solve costs "):
        extremal_distribution(1000)
    for budget in (0, True, 2.5):
        with pytest.raises(ValueError, match="^budget must be None or a positive integer"):
            extremal_distribution(1, budget=budget)


def test_extremal_symmetry_and_all_relations_m123():
    for m in (1, 2, 3):
        dist = extremal_distribution(m)
        n = 24 * m
        assert all(dist.counts[i] == dist.counts[n - i] for i in range(n + 1))
        assert all(c == 0 for i, c in enumerate(dist.counts) if i % 4)
        full = extremal_system(m, range(20 * m - 3, 24 * m + 1), include_symmetry=True)
        vec = [dist.counts[u] for u in full.col_labels]
        assert matvec(full.matrix, vec) == full.rhs


def test_extremal_distribution_matches_elimination_on_its_selection():
    """Interpolation on the 4m-1 largest widths gives, count for count, what
    elimination gives on the same relations."""
    for m in range(1, 9):
        n = 24 * m
        S = extremal_system(m, list(range(20 * m - 3, 24 * m + 1))[-(4 * m - 1):])
        expected = [0] * (n + 1)
        expected[0] = expected[n] = 1
        for u, v in zip(S.col_labels, solve_exact(S.matrix, S.rhs)):
            expected[u] = v
        assert extremal_distribution(m).counts == tuple(expected)


def test_extremal_relations_are_binomials_at_nodes_24m_minus_u():
    """Width nu's entry at A_u is binom(24m - u, 24m - nu): the node
    24m - u and the degree 24m - nu that extremal_distribution solves with."""
    for m in range(1, 9):
        widths = range(20 * m - 3, 24 * m + 1)
        S = extremal_system(m, widths)
        assert S.matrix.entries == tuple(
            tuple(math.comb(24 * m - u, 24 * m - nu) for u in S.col_labels) for nu in widths)


def test_reed_solomon_is_mds():
    f4 = GF(4)
    rs = reed_solomon_code(f4, 5, 2)
    p = rs.parameters()
    assert (p.n, p.k, p.d) == (5, 2, 4)
    assert rs.weight_distribution().counts == mds_distribution(5, 2, 4).counts


def test_hermitian_parameterization_of_pascal_system():
    # over GF(q^2) with length q^3 the widest rows read
    # binom(q^3, nu) q^(2(nu + k - q^3)); q = 2 keeps it enumerable in spirit
    q = 2
    params = CodeParameters(n=q ** 3, k=4, d=4, d_perp=4, q=q ** 2)
    S = build_pascal_system(params)
    for nu, rhs in zip(S.row_labels, S.rhs):
        assert rhs == binom(q ** 3, nu) * (q ** 2) ** (nu + 4 - q ** 3)
