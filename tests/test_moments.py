import itertools
import math
from fractions import Fraction

import pytest
from gf_oracle import matvec

from weightdist.codes import CodeParameters, WeightDistribution, macwilliams_transform
from weightdist.errors import (
    InconsistentKnownsError,
    NegativeSolutionError,
    NonIntegralSolutionError,
    TooFewKnownsError,
)
from weightdist.closed_forms import (
    AmdsInput,
    amds_distribution,
    extremal_distribution,
    mds_distribution,
    nmds_distribution,
    reed_solomon_code,
)
from weightdist.fields import GF
from weightdist.matrices import binom
from weightdist.moments import (
    MomentSystem,
    build_pascal_system,
    build_pless_system,
    cross_check_systems,
    rank_relationship_report,
    solve_with_knowns,
    verify_pless_full,
)

REF_PARAMS = CodeParameters(n=8, k=4, d=4, d_perp=4, q=4)
REF_COUNTS = (1, 0, 0, 0, 27, 60, 78, 60, 30)


def test_pascal_system_shape_and_total_row():
    S = build_pascal_system(REF_PARAMS)
    assert S.row_labels == (5, 6, 7, 8)
    assert S.matrix.rows == 4 and S.matrix.cols == 9
    # width-n row: all ones, rhs q^k
    last = S.matrix.entries[-1]
    assert all(c == 1 for c in last)
    assert S.rhs[-1] == 4 ** 4


def test_pascal_system_mds_row_count():
    # MDS parameters: dual distance k+1, so k+1 rows
    p = CodeParameters(n=5, k=2, d=4, d_perp=3, q=4)
    assert build_pascal_system(p).matrix.rows == 3


def test_pless_system_shape_and_moments():
    S = build_pless_system(REF_PARAMS)
    assert S.row_labels == (0, 1, 2, 3)
    first = S.matrix.entries[0]
    assert all(c == 1 for c in first)
    assert S.rhs[0] == 4 ** 4
    # first-moment row evaluated on the reference distribution
    assert sum(i * c for i, c in enumerate(REF_COUNTS)) == 1536
    assert S.rhs[1] == 1536


def test_brute_distribution_satisfies_both_systems(corpus):
    for code in corpus[::10]:
        params = code.parameters()
        A = code.weight_distribution()
        for S in (build_pascal_system(params), build_pless_system(params)):
            got = matvec(S.matrix, A.counts)
            assert got == S.rhs


def test_verify_pless_full_reference(reference_pair):
    a, _ = reference_pair
    A = a.weight_distribution()
    B = macwilliams_transform(A)
    lhs, rhs, ok = verify_pless_full(A, B, 0)
    assert ok and lhs == 4 ** 4
    for nu in range(a.n + 1):
        assert verify_pless_full(A, B, nu)[2]


def test_verify_pless_full_right_side_is_an_int_through_k(reference_pair):
    """rhs = q^(k-nu) s: an int for nu <= k, a Fraction past k, the value
    either way, also where a wrong dual distribution makes it fractional."""
    A = reference_pair[0].weight_distribution()
    B = macwilliams_transform(A)
    off = WeightDistribution((B.counts[0], B.counts[1] + 1, *B.counts[2:]), B.q, B.k)
    n, q, k = A.n, A.q, A.k
    fractional = 0
    for nu in range(n + 1):
        lhs, rhs, ok = verify_pless_full(A, off, nu)
        s = sum((-1) ** j * math.comb(n - j, n - nu) * (q - 1) ** (nu - j) * off.counts[j]
                for j in range(nu + 1))
        assert rhs == Fraction(q) ** (k - nu) * s
        assert type(rhs) is (int if nu <= k else Fraction)
        assert ok == (nu == 0)
        fractional += rhs.denominator > 1
    assert fractional


@pytest.mark.parametrize("nu", [True, 1.0, "1"])
def test_verify_pless_full_rejects_bool_and_non_int_width(reference_pair, nu):
    # True was taken for the width 1
    A = reference_pair[0].weight_distribution()
    with pytest.raises(ValueError, match="must be an integer"):
        verify_pless_full(A, macwilliams_transform(A), nu)


def test_verify_pless_full_rejects_a_dual_of_another_length_or_field(reference_pair):
    a, _ = reference_pair
    A = a.weight_distribution()
    longer = mds_distribution(9, 5, 4)
    binary = WeightDistribution(counts=(1, 0, 0, 0, 14, 0, 0, 0, 1), q=2, k=4)
    for B in (longer, binary):
        with pytest.raises(ValueError):
            verify_pless_full(A, B, 2)


def test_solve_recovers_reference_distribution():
    S = build_pascal_system(REF_PARAMS)
    got = solve_with_knowns(S, {0: 1, 1: 0, 2: 0, 3: 0, 4: 27})
    assert got.counts == REF_COUNTS


def test_too_few_knowns():
    S = build_pascal_system(REF_PARAMS)
    with pytest.raises(TooFewKnownsError):
        solve_with_knowns(S, {0: 1, 1: 0, 2: 0, 3: 0})


@pytest.mark.parametrize("knowns", [
    {True: 1, 0: 1, 2: 0, 3: 0, 6: 78},  # True is not the index 1
    {0: True, 1: 0, 2: 0, 3: 0, 4: 27},  # nor the count 1
    {0: 1, 1: False, 2: 0, 3: 0, 4: 27},
    {0: 1, 1: 0, 2: 0, 3: 0, 4: 27.0},
])
def test_solve_with_knowns_rejects_bool_and_non_int_knowns(knowns):
    with pytest.raises(ValueError):
        solve_with_knowns(build_pascal_system(REF_PARAMS), knowns)


def test_any_five_knowns_recover_reference():
    # every known-index pattern {0,1,2,3} + one of 4..8, plus a
    # non-consecutive pattern: same unique answer
    S = build_pascal_system(REF_PARAMS)
    for extra in range(4, 9):
        knowns = {0: 1, 1: 0, 2: 0, 3: 0, extra: REF_COUNTS[extra]}
        assert solve_with_knowns(S, knowns).counts == REF_COUNTS
    knowns = {0: 1, 1: 0, 2: 0, 3: 0, 6: 78}
    assert solve_with_knowns(S, knowns).counts == REF_COUNTS


def test_arbitrary_known_subsets_recover_reference():
    # ANY 5 known indices work: maximal Pascal minors are nonzero
    S = build_pascal_system(REF_PARAMS)
    for subset in itertools.combinations(range(9), 5):
        knowns = {i: REF_COUNTS[i] for i in subset}
        assert solve_with_knowns(S, knowns).counts == REF_COUNTS


def test_nonintegral_and_negative_solutions_signal_nonexistence():
    S = build_pascal_system(REF_PARAMS)
    with pytest.raises(NonIntegralSolutionError):
        solve_with_knowns(S, {0: 1, 1: 0, 2: 0, 3: 0, 5: 61})
    with pytest.raises(NegativeSolutionError):
        solve_with_knowns(S, {0: 1, 1: 0, 2: 0, 3: 0, 4: 60})


def test_overdetermined_consistent_and_inconsistent():
    S = build_pascal_system(REF_PARAMS)
    full = {i: c for i, c in enumerate(REF_COUNTS)}
    assert solve_with_knowns(S, full).counts == REF_COUNTS
    bad = dict(full)
    bad[8] = 31
    del bad[6]
    with pytest.raises(InconsistentKnownsError):
        solve_with_knowns(S, bad)


def test_cross_check_reference():
    knowns = {0: 1, 1: 0, 2: 0, 3: 0, 4: 27}
    ap, al, agree = cross_check_systems(REF_PARAMS, knowns)
    assert agree and ap.counts == REF_COUNTS and al.counts == REF_COUNTS


def test_cross_check_mds_52_4_against_brute():
    f4 = GF(4)
    rs = reed_solomon_code(f4, 5, 2)
    params = rs.parameters()
    assert (params.d, params.d_perp) == (4, 3)
    knowns = {i: 0 for i in range(1, 4)}
    knowns[0] = 1
    ap, al, agree = cross_check_systems(params, knowns)
    assert agree
    assert ap.counts == rs.weight_distribution().counts
    assert ap.counts == mds_distribution(5, 2, 4).counts


def test_pless_solver_route():
    S = build_pless_system(REF_PARAMS)
    got = solve_with_knowns(S, {0: 1, 1: 0, 2: 0, 3: 0, 4: 27})
    assert got.counts == REF_COUNTS


def test_rank_relationship_report():
    rep = rank_relationship_report(REF_PARAMS)
    assert rep.pascal_rank == 4 and rep.pless_rank == 4
    assert rep.rows_each == 4
    assert max(rep.pascal_rank, rep.pless_rank) <= rep.joint_rank
    assert rep.joint_rank <= rep.pascal_rank + rep.pless_rank
    assert rep == rank_relationship_report(REF_PARAMS)  # deterministic
    p = CodeParameters(n=5, k=2, d=4, d_perp=3, q=4)
    r2 = rank_relationship_report(p)
    assert r2.joint_rank <= r2.pascal_rank + r2.pless_rank


def test_rhs_rational_exactness():
    # dual distance k+1 makes the widest-row exponent zero; all entries exact
    p = CodeParameters(n=6, k=2, d=5, d_perp=3, q=3)
    S = build_pascal_system(p)
    assert S.rhs[0] == Fraction(15)  # binom(6,4) * 3^0


@pytest.mark.parametrize("n,k,d,dp,q", [(8, 4, 4, 4, 4), (48, 24, 25, 25, 49),
                                        (6, 2, 5, 3, 3), (5, 1, 5, 2, 2), (7, 6, 1, 1, 2)])
def test_builders_record_their_binomial_structure(n, k, d, dp, q):
    params = CodeParameters(n=n, k=k, d=d, d_perp=dp, q=q)
    pas, ple = build_pascal_system(params), build_pless_system(params)
    # the paper's entries, independently of the recorded structure
    assert pas.matrix.entries == tuple(tuple(binom(n - s, nu - s) for s in range(n + 1))
                                       for nu in pas.row_labels)
    assert ple.matrix.entries == tuple(tuple(binom(i, nu) for i in range(n + 1))
                                       for nu in ple.row_labels)
    assert pas.degrees == tuple(n - nu for nu in pas.row_labels)
    assert pas.nodes == tuple(n - s for s in range(n + 1))
    assert ple.degrees == ple.row_labels == tuple(range(dp))
    assert ple.nodes == tuple(range(n + 1))
    for S in (pas, ple):
        assert S.matrix.entries == tuple(tuple(binom(x, j) for x in S.nodes)
                                         for j in S.degrees)
        assert all(type(v) is int for v in S.rhs)
        assert all(type(v) is int for row in S.matrix.entries for v in row)


def test_moment_system_checks_recorded_structure():
    """A system gives its degrees and nodes: degrees 0..rows-1 in some order
    and one distinct node per column."""
    rows = build_pless_system(REF_PARAMS).matrix
    args = ("pless", (0,) * 4, (0, 1, 2, 3), tuple(range(9)), REF_PARAMS)
    S = MomentSystem(*args, degrees=(3, 1, 0, 2), nodes=tuple(range(9)))
    assert S.matrix.entries == tuple(rows.entries[j] for j in (3, 1, 0, 2))
    assert S.matrix is S.matrix  # built once
    with pytest.raises(ValueError):
        MomentSystem(*args, degrees=(0, 1, 2, 4), nodes=tuple(range(9)))
    with pytest.raises(ValueError):
        MomentSystem(*args, degrees=(0, 1, 2, 3), nodes=(0,) * 9)
    with pytest.raises(ValueError):
        MomentSystem(*args, degrees=(0, 1, 2, 3), nodes=tuple(range(8)))
    with pytest.raises(TypeError):
        MomentSystem(*args, degrees=(0, 1, 2, 3))
    with pytest.raises(TypeError):
        MomentSystem(*args)


def test_solves_and_closed_forms_build_no_matrix(monkeypatch):
    """No solve and no closed form builds a system's dense matrix: they read
    its degrees and nodes, square, overdetermined and inconsistent alike."""
    def refuse(self):
        raise AssertionError(f"the {self.kind} system's matrix was built")

    monkeypatch.setattr(MomentSystem, "matrix", property(refuse))
    mds = mds_distribution(8, 4, 9)
    full = dict(enumerate(mds.counts))
    P = CodeParameters(n=8, k=4, d=5, d_perp=5, q=9)
    assert cross_check_systems(P, {i: full[i] for i in range(5)})[2]
    assert cross_check_systems(REF_PARAMS, dict(enumerate(REF_COUNTS)))[2]
    for build in (build_pascal_system, build_pless_system):
        assert solve_with_knowns(build(P), full) == mds
        with pytest.raises(InconsistentKnownsError):
            solve_with_knowns(build(P), {**full, 6: full[6] + 1})
    assert nmds_distribution(8, 4, 4, 27).counts == REF_COUNTS
    assert amds_distribution(AmdsInput(8, 4, 4, 2, (27,))).counts == REF_COUNTS
    assert extremal_distribution(2).counts[12] == 17296
