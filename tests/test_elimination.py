"""Differential tests of the fraction-free integer elimination kernel.

The oracle is textbook Gauss-Jordan over fractions.Fraction, kept here so
that it is never the code under test, together with the Leibniz expansion
for determinants.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weightdist.codes import CodeParameters
from weightdist.errors import (
    InconsistentKnownsError,
    NegativeSolutionError,
    NonIntegralSolutionError,
    SingularMatrixError,
    SingularReducedSystemError,
)
from weightdist.matrices import (
    RationalMatrix,
    echelon,
    pascal_minor_check,
    rational_kernel_vector,
    rational_rank,
    solve_exact,
    truncated_pascal,
)
from weightdist.closed_forms import mds_distribution
from weightdist.moments import (
    MomentSystem,
    build_pascal_system,
    build_pless_system,
    solve_with_knowns,
)


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


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def oracle_solve_with_knowns(S, knowns):
    """Outcome of solve_with_knowns from Gauss-Jordan on the augmented
    reduced system: counts, or (error class, message or None, rank, kernel)."""
    labels = S.col_labels
    pos = {lab: i for i, lab in enumerate(labels)}
    unknown = [j for j in labels if j not in knowns]
    red_rows = [[row[pos[j]] for j in unknown] for row in S.matrix.entries]
    red_rhs = [b - sum(row[pos[j]] * v for j, v in knowns.items())
               for row, b in zip(S.matrix.entries, S.rhs)]
    nu = len(unknown)
    if not unknown:
        bad = next((i for i, b in enumerate(red_rhs) if b != 0), None)
        if bad is not None:
            return (InconsistentKnownsError,
                    f"equation {S.row_labels[bad]} violated by the supplied knowns")
        x = ()
    else:
        rref, pivots = rref_rational([r + [b] for r, b in zip(red_rows, red_rhs)])
        rank = sum(c < nu for c in pivots)
        if rank < nu:
            kernel = oracle_kernel_vector(red_rows, nu) if len(red_rows) == nu else None
            return (SingularReducedSystemError, None, rank, kernel)
        if nu in pivots:
            return (InconsistentKnownsError, _greedy_surplus_message(red_rows, red_rhs))
        x = tuple(rref[r][nu] for r in range(nu))
    values = dict(zip(unknown, x))
    for j in unknown:
        if values[j].denominator != 1:
            return (NonIntegralSolutionError,)
        if values[j] < 0:
            return (NegativeSolutionError,)
    return tuple(knowns[j] if j in knowns else int(values[j]) for j in labels)


def _greedy_surplus_message(rows, rhs):
    """The first rows, in order, that raise the rank; their solution; the
    first equation it misses."""
    chosen = []
    for i in range(len(rows)):
        if len(rref_rational([rows[c] for c in chosen + [i]])[1]) > len(chosen):
            chosen.append(i)
    x = oracle_solve([rows[i] for i in chosen], [rhs[i] for i in chosen])
    for i, row in enumerate(rows):
        lhs = sum((a * v for a, v in zip(row, x)), Fraction(0))
        if lhs != rhs[i]:
            return f"surplus equation {i} off by {lhs - rhs[i]}; knowns admit no common solution"
    raise AssertionError("consistent system reported as inconsistent")


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
    integer or rational rows singular and rank-deficient ones."""
    kind = draw(st.sampled_from(("mds", "mds-perturbed", "random-params", "random-rows")))
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
    if kind == "random-rows":
        nrows = draw(st.integers(1, 4))
        entry = st.sampled_from((0, 0, 1, 2, -1, Fraction(1, 2)))
        rows = [draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) for _ in range(nrows)]
        if nrows > 1 and draw(st.booleans()):
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        rhs = draw(st.lists(st.integers(-20, 20), min_size=nrows, max_size=nrows))
        S = MomentSystem("pascal", RationalMatrix.from_rows(rows),
                         tuple(Fraction(v) for v in rhs), tuple(range(nrows)),
                         tuple(range(n + 1)), params)
    else:
        S = draw(st.sampled_from((build_pascal_system, build_pless_system)))(params)
    need = max(0, n + 1 - S.matrix.rows)
    size = draw(st.integers(need, n + 1))
    idx = draw(st.lists(st.integers(0, n), min_size=size, max_size=size, unique=True))
    knowns = {i: base[i] for i in idx if base[i] >= 0}
    if kind == "mds-perturbed" and knowns:
        j = draw(st.sampled_from(sorted(knowns)))
        knowns[j] += draw(st.integers(1, 5))
    return S, knowns


@settings(max_examples=300, deadline=None)
@given(systems_and_knowns())
def test_solve_with_knowns_matches_oracle(case):
    S, knowns = case
    assume(len(knowns) >= len(S.col_labels) - S.matrix.rows)  # else TooFewKnownsError
    want = oracle_solve_with_knowns(S, knowns)
    if isinstance(want[0], type) and issubclass(want[0], Exception):
        with pytest.raises(want[0]) as ei:
            solve_with_knowns(S, knowns)
        assert type(ei.value) is want[0]
        if want[0] is InconsistentKnownsError:
            assert str(ei.value) == want[1]
        if want[0] is SingularReducedSystemError:
            assert ei.value.rank == want[2]
            assert (ei.value.kernel_vector is None) == (want[3] is None)
            if want[3] is not None:
                assert _exact(ei.value.kernel_vector) == _exact(want[3])
    else:
        assert solve_with_knowns(S, knowns).counts == want


def test_overdetermined_inconsistent_message_is_pinned():
    params = CodeParameters(n=8, k=4, d=4, d_perp=4, q=4)
    full = dict(enumerate((1, 0, 0, 0, 27, 60, 78, 60, 30)))
    full[8] = 31
    del full[6]
    with pytest.raises(InconsistentKnownsError) as ei:
        solve_with_knowns(build_pascal_system(params), full)
    assert str(ei.value) == ("surplus equation 3 off by 1; "
                             "knowns admit no common solution")
