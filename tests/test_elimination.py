"""Differential tests of the fraction-free integer elimination kernel.

The oracle is textbook Gauss-Jordan over fractions.Fraction, kept here so
that it is never the code under test, together with the Leibniz expansion
for determinants and the Laplace expansion for every maximal minor at once.
"""

import functools
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from weightdist.codes import CodeParameters
from weightdist.errors import (
    InconsistentKnownsError,
    NegativeSolutionError,
    NonIntegralSolutionError,
    SingularMatrixError,
    TooFewKnownsError,
)
from weightdist.matrices import (
    RationalMatrix,
    echelon,
    maximal_minors,
    pascal_minor_check,
    rational_rank,
    solve_exact,
    truncated_pascal,
)
from weightdist.closed_forms import mds_distribution
from weightdist.moments import (
    binomial_interpolation,
    build_pascal_system,
    build_pless_system,
    cross_check_systems,
    solve_with_knowns,
)

from gf_oracle import rational_kernel_vector


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def rref_rational(rows):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
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


def oracle_kernel_vector(rows, cols):
    rref, pivots = rref_rational(rows)
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    v = [Fraction(0)] * cols
    v[free[0]] = Fraction(1)
    for r, pc in enumerate(pivots):
        v[pc] = -rref[r][free[0]]
    return tuple(v)


def oracle_solve(rows, b):
    """x, or ("singular", rank, kernel vector)."""
    n = len(rows)
    rref, pivots = rref_rational([list(r) + [v] for r, v in zip(rows, b)])
    pivots = [c for c in pivots if c < n]
    if len(pivots) < n:
        return ("singular", len(pivots), oracle_kernel_vector(rows, n))
    return tuple(rref[r][n] for r in range(n))


@functools.lru_cache(maxsize=None)
def oracle_inverse(rows):
    """D and the integer matrix D A^-1 for a nonsingular square integer
    matrix A, given as a tuple of row tuples: A^-1 from the reduced row
    echelon form of [A | I], D the least common denominator of its entries.
    Cached, as every moment system with its unknowns at the same nodes
    reduces to the same A."""
    u = len(rows)
    rref, pivots = rref_rational([list(r) + [int(i == j) for j in range(u)]
                                  for i, r in enumerate(rows)])
    assert pivots[:u] == list(range(u)), "singular matrix"
    inverse = [r[u:] for r in rref]
    D = math.lcm(*(x.denominator for r in inverse for x in r))
    return D, [[x.numerator * (D // x.denominator) for x in r] for r in inverse]


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def oracle_solve_with_knowns(S, knowns):
    """Outcome of solve_with_knowns from Gauss-Jordan: with u unknowns left,
    the reduced rows of degree < u solved, and the first other row, in row
    order, that the solution misses named by its label; counts, or (error
    class, message)."""
    labels = S.col_labels
    pos = {lab: i for i, lab in enumerate(labels)}
    unknown = [j for j in labels if j not in knowns]
    red_rows = [[row[pos[j]] for j in unknown] for row in S.matrix.entries]
    red_rhs = [b - sum(row[pos[j]] * v for j, v in knowns.items())
               for row, b in zip(S.matrix.entries, S.rhs)]
    square = [i for i, j in enumerate(S.degrees) if j < len(unknown)]
    D, M = oracle_inverse(tuple(tuple(red_rows[i]) for i in square))
    Dx = [sum(a * red_rhs[i] for a, i in zip(row, square)) for row in M]
    for i, (row, b) in enumerate(zip(red_rows, red_rhs)):
        if i in square:
            continue
        off = Fraction(sum(a * v for a, v in zip(row, Dx)) - D * b, D)
        if off:
            return (InconsistentKnownsError, f"surplus equation {S.row_labels[i]} off by "
                                             f"{off}; knowns admit no common solution")
    values = {j: Fraction(v, D) for j, v in zip(unknown, Dx)}
    for j in unknown:
        if values[j].denominator != 1:
            return (NonIntegralSolutionError,
                    f"A_{j} = {values[j]} is not an integer; no code matches these knowns")
        if values[j] < 0:
            return (NegativeSolutionError,
                    f"A_{j} = {values[j]} is negative; no code matches these knowns")
    return tuple(knowns[j] if j in knowns else int(values[j]) for j in labels)


def _is_error(outcome):
    return isinstance(outcome[0], type) and issubclass(outcome[0], Exception)


def _exact(v):
    """A vector as (numerator, denominator) pairs, so equal means bit-identical."""
    assert all(type(x) is Fraction for x in v)
    return [(x.numerator, x.denominator) for x in v]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

INTEGER = st.integers(-4, 4)
RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def matrices(draw, square=False, entries=st.one_of(INTEGER, RATIONAL), max_size=5):
    """(rows, cols): sparse or dense, often with one row a combination of
    the others or one column a multiple of an earlier one, so that singular
    and rank-deficient matrices are common."""
    nrows = draw(st.integers(0 if not square else 1, max_size))
    cols = nrows if square else draw(st.integers(1, max_size + 1))
    entry = draw(st.sampled_from((entries, st.one_of(st.just(0), entries))))
    rows = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(nrows)]
    dependence = draw(st.sampled_from(("none", "row", "column")))
    if dependence == "row" and nrows > 1:
        i = draw(st.integers(0, nrows - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=nrows, max_size=nrows))
        rows[i] = [sum(coeffs[j] * rows[j][c] for j in range(nrows) if j != i)
                   for c in range(cols)]
    if dependence == "column" and cols > 1:
        c = draw(st.integers(1, cols - 1))  # a multiple of an earlier column
        f = draw(st.integers(-2, 2))
        for r in rows:
            r[c] = f * r[c - 1]
    return rows, cols


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(matrices())
@example(([], 3))
@example(([[0, 0, 1]], 3))
@example(([[0, 0], [0, 0]], 2))
def test_rank_and_kernel_vector_match_oracle(m):
    rows, cols = m
    A = RationalMatrix.from_rows(rows, cols=cols)
    assert rational_rank(A) == len(rref_rational(rows)[1])
    got = rational_kernel_vector(A)
    want = oracle_kernel_vector(rows, cols)
    assert (got is None) == (want is None)
    if want is not None:
        assert _exact(got) == _exact(want)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((INTEGER, RATIONAL)), st.data())
def test_solve_exact_matches_oracle(entries, data):
    rows, n = data.draw(matrices(square=True, entries=entries))
    b = data.draw(st.lists(entries, min_size=n, max_size=n))
    want = oracle_solve(rows, b)
    A = RationalMatrix.from_rows(rows)
    if want[0] == "singular":
        with pytest.raises(SingularMatrixError) as ei:
            solve_exact(A, b)
        assert ei.value.rank == want[1]
        assert _exact(ei.value.kernel_vector) == _exact(want[2])
    else:
        assert _exact(solve_exact(A, b)) == _exact(want)


@settings(max_examples=100, deadline=None)
@given(matrices(square=True, entries=st.integers(-9, 9)))
def test_determinant_matches_leibniz(m):
    rows, _ = m
    assert echelon(rows).det == leibniz_det(rows)


@given(matrices(entries=INTEGER))
def test_determinant_of_non_square_is_zero(m):
    rows, cols = m
    if rows and len(rows) != cols:  # echelon reads the width from the rows
        assert echelon(rows).det == 0


def test_echelon_rows_are_minors():
    E = echelon([[2, 4, 1], [1, 2, 3], [3, 1, 1]])
    assert E.rank == 3 and E.pivots == (0, 1, 2)
    assert E.det == leibniz_det([[2, 4, 1], [1, 2, 3], [3, 1, 1]]) == 25
    # second pivot: the 2x2 minor on rows {0, 2} (after the swap), columns {0, 1}
    assert E.rows[1][1] == 2 * 1 - 4 * 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_pascal_minors_match_oracle_determinant(r, data):
    t = data.draw(st.integers(r - 1, 12))
    P = [[int(x) for x in row] for row in truncated_pascal(r, t).entries]
    cols = data.draw(st.lists(st.integers(0, t), min_size=r, max_size=r, unique=True))
    minor = [[row[j] for j in sorted(cols)] for row in P]
    det = leibniz_det(minor)
    assert det != 0
    assert echelon(minor).det == det
    assert pascal_minor_check(r, t)


@st.composite
def systems_and_knowns(draw):
    """A moment system with knowns; overdetermined whenever more knowns are
    given than needed.  MDS parameters with their closed-form counts give
    consistent systems, a perturbed known an inconsistent one, and random
    parameters and counts inconsistent, non-integral and negative ones."""
    kind = draw(st.sampled_from(("mds", "mds-perturbed", "random-params")))
    q = draw(st.integers(2, 7))
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n - 1))
    if kind.startswith("mds"):
        params = CodeParameters(n=n, k=k, d=n - k + 1, d_perp=k + 1, q=q)
        base = list(mds_distribution(n, k, q).counts)
    else:
        d = draw(st.integers(1, n - k + 1))
        params = CodeParameters(n=n, k=k, d=d, d_perp=draw(st.integers(1, k + 1)), q=q)
        base = draw(st.lists(st.integers(0, 3 * q ** k), min_size=n + 1, max_size=n + 1))
    S = draw(st.sampled_from((build_pascal_system, build_pless_system)))(params)
    need = max(0, n + 1 - S.matrix.rows)
    size = draw(st.integers(need, n + 1))
    idx = draw(st.lists(st.integers(0, n), min_size=size, max_size=size, unique=True))
    knowns = {i: base[i] for i in idx if base[i] >= 0}
    if kind == "mds-perturbed" and knowns:
        j = draw(st.sampled_from(sorted(knowns)))
        knowns[j] += draw(st.integers(1, 5))
    return S, knowns


MDS_633 = CodeParameters(n=6, k=3, d=4, d_perp=4, q=5)
MDS_633_COUNTS = dict(enumerate(mds_distribution(6, 3, 5).counts))


@settings(max_examples=300, deadline=None)
@given(systems_and_knowns())
@example((build_pascal_system(MDS_633), MDS_633_COUNTS))  # u = 0: every row a check
@example((build_pless_system(MDS_633), {**MDS_633_COUNTS, 5: MDS_633_COUNTS[5] + 1}))
def test_solve_with_knowns_matches_oracle(case):
    S, knowns = case
    assume(len(knowns) >= len(S.col_labels) - S.matrix.rows)  # else TooFewKnownsError
    want = oracle_solve_with_knowns(S, knowns)
    if _is_error(want):
        with pytest.raises(want[0]) as ei:
            solve_with_knowns(S, knowns)
        assert type(ei.value) is want[0] and str(ei.value) == want[1]
    else:
        assert solve_with_knowns(S, knowns).counts == want


def test_overdetermined_inconsistent_message_is_pinned():
    params = CodeParameters(n=8, k=4, d=4, d_perp=4, q=4)
    full = dict(enumerate((1, 0, 0, 0, 27, 60, 78, 60, 30)))
    full[8] = 31
    del full[6]
    with pytest.raises(InconsistentKnownsError) as ei:
        solve_with_knowns(build_pascal_system(params), full)
    assert str(ei.value) == ("surplus equation 6 off by -1; "
                             "knowns admit no common solution")


def test_lowest_degree_rows_are_never_singular():
    """Every CodeParameters with n <= 6 and q in {2, 3, 4, 5}, both builders
    and every knowns subset of at least the size needed: with u unknowns
    left, the rows of degree < u at the unknown nodes have a nonzero
    determinant, and solve_with_knowns matches the Gauss-Jordan oracle.  The
    builders do not read d, so each d builds the same system, which is
    solved once.  The counts are the closed form's for MDS parameters,
    seeded random ones otherwise; a negative closed-form count is left out
    of the knowns."""
    rng = random.Random(6)
    dets = {}
    for n, q in itertools.product(range(1, 7), (2, 3, 4, 5)):
        for k, build in itertools.product(range(1, n + 1), (build_pascal_system,
                                                             build_pless_system)):
            for dp in range(1, k + 2):
                S, *same_d = (build(CodeParameters(n=n, k=k, d=d, d_perp=dp, q=q))
                              for d in range(n - k + 1, 0, -1))
                assert all((T.matrix, T.rhs, T.degrees, T.nodes)
                           == (S.matrix, S.rhs, S.degrees, S.nodes) for T in same_d)
                if dp == k + 1:  # with d = n - k + 1, MDS
                    counts = mds_distribution(n, k, q).counts
                else:
                    counts = [rng.randrange(q ** k) for _ in range(n + 1)]
                for size in range(n + 1 - dp, n + 2):
                    for idx in itertools.combinations(range(n + 1), size):
                        unknown = [j for j in range(n + 1) if j not in idx]
                        low = tuple(tuple(row[j] for j in unknown) for row, deg
                                    in zip(S.matrix.entries, S.degrees) if deg < len(unknown))
                        if low not in dets:
                            dets[low] = echelon(low).det
                        assert dets[low] != 0
                        knowns = {i: counts[i] for i in idx if counts[i] >= 0}
                        if len(knowns) < n + 1 - dp:
                            with pytest.raises(TooFewKnownsError):
                                solve_with_knowns(S, knowns)
                            continue
                        want = oracle_solve_with_knowns(S, knowns)
                        if _is_error(want):
                            with pytest.raises(want[0]) as ei:
                                solve_with_knowns(S, knowns)
                            assert str(ei.value) == want[1]
                        else:
                            assert solve_with_knowns(S, knowns).counts == want


# ---------------------------------------------------------------------------
# structured moment systems: binomial-basis interpolation
# ---------------------------------------------------------------------------

def _binomial(x, j):
    """binom(x, j) = x (x-1) ... (x-j+1) / j! for any integer x, negative too;
    0 when 0 <= x < j."""
    return math.prod(range(x - j + 1, x + 1)) // math.factorial(j)


@st.composite
def binomial_systems(draw):
    """Distinct integer nodes in [-30, 60), so that some fall below 0, some
    inside [0, u) and some at u or above; degrees 0..u-1 in any order, and a
    right-hand side that is arbitrary or the image of an integer vector."""
    u = draw(st.integers(1, 40))
    nodes = draw(st.lists(st.integers(-30, 59), min_size=u, max_size=u, unique=True))
    degrees = draw(st.permutations(range(u)))
    if draw(st.booleans()):
        rhs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=u, max_size=u))
    else:
        a = draw(st.lists(st.integers(-50, 50), min_size=u, max_size=u))
        rhs = [sum(_binomial(x, j) * v for x, v in zip(nodes, a)) for j in degrees]
    return nodes, degrees, rhs


@settings(max_examples=60, deadline=None)
@given(binomial_systems())
@example(([0], [0], [5]))
@example(([3, 0], [1, 0], [-2, 7]))
@example(([5, 59, 0, 1], [3, 0, 2, 1], [1, 2, 3, 4]))
@example(([-1, 2], [0, 1], [3, 5]))  # 1/3 and 8/3; a node below 0 is not a point i < u
@example(([-30, 1, 0, 7, -2], [4, 2, 0, 1, 3], [9, -4, 2, 0, 11]))
def test_binomial_interpolation_matches_bareiss(case):
    nodes, degrees, rhs = case
    A = RationalMatrix.from_rows([[_binomial(x, j) for x in nodes] for j in degrees])
    got = binomial_interpolation(nodes, degrees, rhs)
    assert _exact([Fraction(v) for v in got]) == _exact(solve_exact(A, rhs))
    assert all(type(v) is int or v.denominator > 1 for v in got)


def test_binomial_interpolation_of_no_equations():
    assert binomial_interpolation([], [], []) == ()


@st.composite
def square_knowns(draw):
    """Code parameters up to [48,24]_49 and exactly n + 1 - d_perp knowns, so
    that both reduced systems are square.  MDS parameters with their
    closed-form counts (for q >= n - 1, where they are nonnegative) recover
    them; a perturbed known or random counts give non-integral and negative
    solutions."""
    kind = draw(st.sampled_from(("mds", "mds-perturbed", "random")))
    n = draw(st.one_of(st.integers(2, 12), st.sampled_from((24, 48))))
    k = draw(st.integers(1, min(n - 1, 24)))  # at most 25 equations, as in [48,24]_49
    if kind == "random":
        q = draw(st.sampled_from((2, 3, 4, 5, 7, 49)))
        params = CodeParameters(n=n, k=k, d=draw(st.integers(1, n - k + 1)),
                                d_perp=draw(st.integers(1, k + 1)), q=q)
        base = draw(st.lists(st.integers(0, 3 * q ** min(k, 6)), min_size=n + 1,
                             max_size=n + 1))
    else:
        q = draw(st.integers(max(2, n - 1), n + 8))  # MDS counts are nonnegative here
        params = CodeParameters(n=n, k=k, d=n - k + 1, d_perp=k + 1, q=q)
        base = list(mds_distribution(n, k, q).counts)
    need = n + 1 - params.d_perp
    idx = draw(st.lists(st.integers(0, n), min_size=need, max_size=need, unique=True))
    knowns = {i: base[i] for i in idx}
    if kind == "mds-perturbed" and knowns:
        knowns[draw(st.sampled_from(sorted(knowns)))] += draw(st.integers(1, 5))
    return params, knowns


@settings(max_examples=50, deadline=None)
@given(square_knowns())
@example((CodeParameters(n=8, k=4, d=4, d_perp=4, q=4), {0: 1, 1: 0, 2: 0, 3: 0, 5: 61}))
@example((CodeParameters(n=8, k=4, d=4, d_perp=4, q=4), {0: 1, 1: 0, 2: 0, 3: 0, 4: 60}))
@example((CodeParameters(n=48, k=24, d=25, d_perp=25, q=49),
          {i: c for i, c in enumerate(mds_distribution(48, 24, 49).counts) if i % 2}))
def test_square_moment_systems_match_oracle(case):
    params, knowns = case
    outcomes = []
    for build in (build_pascal_system, build_pless_system):
        S = build(params)
        want = oracle_solve_with_knowns(S, knowns)
        event(want[0].__name__ if _is_error(want) else "solved")
        outcomes.append(want)
        if _is_error(want):
            with pytest.raises(want[0]) as ei:
                solve_with_knowns(S, knowns)
            assert type(ei.value) is want[0] and str(ei.value) == want[1]
        else:
            assert solve_with_knowns(S, knowns).counts == want
    first_error = next((w for w in outcomes if _is_error(w)), None)
    if first_error is not None:
        with pytest.raises(first_error[0]) as ei:
            cross_check_systems(params, knowns)
        assert type(ei.value) is first_error[0] and str(ei.value) == first_error[1]
    else:
        ap, al, agree = cross_check_systems(params, knowns)
        assert (ap.counts, al.counts, agree) == (*outcomes, outcomes[0] == outcomes[1])


# ---------------------------------------------------------------------------
# the prefix-sharing minor walk
# ---------------------------------------------------------------------------

def oracle_minors(rows):
    """Every maximal minor by Laplace expansion along the last row: the
    j-row minors of each column set from the (j-1)-row minors of its
    subsets, in lexicographic order of the columns."""
    minors = {(): 1}
    for j, row in enumerate(rows):
        minors = {c: sum((-1) ** (j + i) * row[c[i]] * minors[c[:i] + c[i + 1:]]
                         for i in range(j + 1))
                  for c in itertools.combinations(range(len(row)), j + 1)}
    return list(minors.items())


@st.composite
def small_integer_matrices(draw):
    """Mostly-zero small integer matrices of up to 6 rows and 10 columns:
    zero minors and zero leading minors (where the walk falls back to
    `echelon`) are common, at the root and below nonzero prefixes."""
    r = draw(st.integers(1, 6))
    cols = draw(st.integers(0, 10))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    rows = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(r)]
    if r > 1 and cols and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-1])]
    return rows


@settings(max_examples=200, deadline=None)
@given(small_integer_matrices())
@example([[0, 1], [1, 0]])  # zero leading pivot at the root
@example([[1, 2, 1, 0], [2, 4, 0, 1], [0, 1, 1, 1]])  # zero leading 2x2 minor, one column short
# zero leading 2x2 minor of columns 0, 1 with two columns still to choose
@example([[1, 2, 0, 1, 0, 3], [1, 2, 1, 0, 2, 1], [0, 1, 1, 1, 0, 2], [2, 0, 1, 1, 1, 0]])
# zero leading 3x3 minor of columns 0, 1, 2 (column 2 is column 0 plus column 1
# in the first three rows) below nonzero 1x1 and 2x2 prefixes, two columns short
@example([[1, 0, 1, 2, 0, 1, 3], [0, 1, 1, 1, 2, 0, 1], [2, 1, 3, 0, 1, 1, 0],
          [1, 1, 0, 1, 0, 2, 1], [0, 2, 1, 1, 1, 0, 2]])
# the same below a nonzero prefix, one column short of the leaves
@example([[1, 0, 1, 2, 0], [0, 1, 1, 1, 2], [2, 1, 3, 0, 1], [1, 1, 0, 1, 0]])
@example([[1, 2, 3]])
@example([[1], [2]])  # more rows than columns: no minor
def test_maximal_minors_match_laplace(rows):
    assert list(maximal_minors(rows)) == oracle_minors(rows)


def test_maximal_minors_are_lazy():
    """The first minors of a 6 x 60 matrix, which has about 5 * 10^7, come
    at once: the walk yields each block of minors when it reaches it, so
    no list of all of them is ever built."""
    rows = [[(i * 7 + j * j + 3 * i * j) % 11 - 5 for j in range(60)] for i in range(6)]

    def too_slow(signum, frame):
        raise TimeoutError("the first 10 minors took over 2 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(2)
    try:
        got = list(itertools.islice(maximal_minors(rows), 10))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    want = [(c, leibniz_det([[row[j] for j in c] for row in rows]))
            for c in itertools.islice(itertools.combinations(range(60), 6), 10)]
    assert got == want


def test_maximal_minors_needs_a_row():
    with pytest.raises(ValueError):
        next(maximal_minors([]))


def test_pascal_minors_equal_the_vandermonde_closed_form():
    """Every r x r minor of truncated_pascal(r, t), columns c_0 < ... <
    c_{r-1} with nodes x_a = t - c_a, is prod_{a<b} (x_b - x_a) / prod_{j<r} j!,
    sign included: binom(x, j) = x^j / j! plus lower powers of x."""
    total = 0
    for r in range(1, 6):
        denominator = math.prod(math.factorial(j) for j in range(r))
        for t in range(r - 1, 13):
            got = list(maximal_minors(truncated_pascal(r, t).entries))
            assert [c for c, _ in got] == list(itertools.combinations(range(t + 1), r))
            for cols, det in got:
                x = [t - c for c in cols]
                vandermonde = math.prod(x[b] - x[a]
                                        for a, b in itertools.combinations(range(r), 2))
                assert vandermonde % denominator == 0
                assert det == vandermonde // denominator
            assert pascal_minor_check(r, t)
            total += len(got)
    assert total == 6461
