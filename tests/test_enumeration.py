"""Both exact counts, the table enumeration and the syndrome count, checked
against the codeword oracle.

`oracle_histogram` encodes every message with plain `Field.add` and
`Field.mul`, so it shares no code with the block tables, the syndrome counts
or `LinearCode`, and scans every message, not one per line of nonzero
multiples; it takes any generator, of full rank or not.
"""

import itertools
import math
import random
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weightdist import enumeration
from weightdist.codes import LinearCode, macwilliams_transform, random_code
from weightdist.closed_forms import mds_distribution, reed_solomon_code
from weightdist.enumeration import weight_histogram
from weightdist.errors import BudgetExceededError, cheapest_route
from weightdist.fields import GF, Field, array_ops
from weightdist.matrices import GFMatrix, gf_kernel_basis, gf_rank, gf_row_reduce

# GF(2) packs uint64 words; the others keep one encoding per word: uint8
# through GF(256), among them the widest odd prime GF(251), whose subtraction
# wraps furthest, and uint16 from GF(257) to GF(65521).  Prime fields,
# GF(2^m) and odd p with m > 1 each fall on both sides of the 256-element
# tables.
FIELDS = [GF(q) for q in (2, 4, 16, 256, 2 ** 9, 3, 9, 27, 243, 3 ** 6, 3 ** 7, 3 ** 9, 25, 125,
                          49, 251, 257, 65521)]
# Codes above this many words keep the default split, since a message space
# run wholly through the outer loop costs ~15 us a word; GF(3^9) and
# GF(65521) still get their one-row codes.
MAX_WORDS = 5_000


def oracle_histogram(G: GFMatrix) -> list[int]:
    """How many of the q^rows messages m encode to m G of each weight."""
    f = G.field
    hist = [0] * (G.cols + 1)
    for msg in itertools.product(range(f.q), repeat=G.rows):
        word = [0] * G.cols
        for m, row in zip(msg, G.entries):
            for j, e in enumerate(row):
                word[j] = f.add(word[j], f.mul(m, e))
        hist[sum(1 for x in word if x)] += 1
    return hist


@st.composite
def codes_and_splits(draw, field: Field):
    """A generator matrix, and how many of its rows the inner table holds."""
    q = field.q
    max_k = 1
    while q ** (max_k + 1) <= MAX_WORDS:
        max_k += 1
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    k_inner = draw(st.integers(0 if q ** k <= MAX_WORDS else k, k))
    return GFMatrix.from_rows(field, rows), k_inner


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_weight_histogram_matches_codeword_oracle(field, data):
    """The table route, whatever the routing would pick for the code."""
    G, k_inner = data.draw(codes_and_splits(field))
    with patch.object(enumeration, "_BLOCK_ROWS", field.q ** k_inner):
        assert enumeration._table_histogram(G, 1) == oracle_histogram(G)


@st.composite
def syndrome_codes(draw, field: Field):
    """A generator matrix with at most MAX_WORDS messages, and at most
    MAX_WORDS syndromes when it has full rank; n may be below k."""
    q = field.q
    max_k, max_r = 1, 0
    while q ** (max_k + 1) <= MAX_WORDS:
        max_k += 1
    while q ** (max_r + 1) <= MAX_WORDS:
        max_r += 1
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, k + max_r))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return GFMatrix.from_rows(field, rows)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_syndrome_histogram_matches_codeword_oracle(field, data):
    """The syndrome route, over full-rank and rank-deficient generators
    alike; a rank deficiency that leaves over MAX_WORDS syndromes is
    skipped."""
    G = data.draw(syndrome_codes(field))
    H = gf_kernel_basis(G)
    assume(field.q ** H.rows <= MAX_WORDS)
    assert enumeration._syndrome_histogram(G, H) == oracle_histogram(G)


def two_row_histogram(G: GFMatrix) -> list[int]:
    """Weights of a rank-2 code from its columns alone: each line through 0
    of GF(q)^2 is the set of columns c with lam . c = 0 for q - 1 of the
    nonzero messages lam, whose codeword is nonzero everywhere else; a zero
    column lies on every line.  No codeword is encoded."""
    f, n = G.field, G.cols
    assert gf_rank(G) == 2
    lines: dict[tuple[int, int], int] = {}
    for a, b in zip(*G.entries):
        if a or b:
            point = (1, f.mul(b, f.inv(a))) if a else (0, 1)
            lines[point] = lines.get(point, 0) + 1
    zeros = n - sum(lines.values())
    hist = [1] + [0] * n
    hist[n - zeros] += (f.q - 1) * (f.q + 1 - len(lines))
    for on_line in lines.values():
        hist[n - zeros - on_line] += f.q - 1
    return hist


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
def test_syndrome_count_zero_columns_and_counts_past_int64(field, monkeypatch):
    """The first row of G is e_0, so column 0 of H is zero, beside nonzero
    columns wherever q^r and the p - 1 coset gathers per step stay small
    (otherwise H has no rows and every column is zero).  Copies of the first
    row, up to q^rows >= 2^63, take the returned counts past 2^63, each
    codeword reached by q^copies messages.  Every count is at most
    q^rank(G), so the carrier is keyed on the rank, not the row count, and
    both counts are int64."""
    q, p = field.q, field.p
    k = max(1, math.floor(math.log(MAX_WORDS, q)))
    r = min(2, math.floor(math.log(MAX_WORDS, q))) if q * p <= 10 ** 5 else 0
    n = k + r
    rows = [[int(j == 0) for j in range(n)]]
    rows += [[0] + row for row in _random_rows(field, k - 1, n - 1, seed=q)]
    G = GFMatrix.from_rows(field, rows)
    H = gf_kernel_basis(G)
    assert H.rows == r and not any(H.column(0))
    expected = oracle_histogram(G)
    zeros, made = np.zeros, []

    def spy(shape, *args, **kwargs):
        made.append(zeros(shape, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np, "zeros", spy)
    assert enumeration._syndrome_histogram(G, H) == expected
    copies = 1
    while q ** (k + copies) < 1 << 63:
        copies += 1
    tall = GFMatrix.from_rows(field, rows + rows[:1] * copies)
    assert enumeration._syndrome_histogram(tall, H) == [q ** copies * a for a in expected]
    assert [a.dtype for a in made if a.shape == (q ** r, n + 1)] == [np.int64] * 2


def _edge_generators(field: Field) -> dict[str, GFMatrix]:
    """Three columns each, so that no count here has over 16^3 states."""
    q, rng = field.q, random.Random(field.q)
    # upper triangular with a nonzero diagonal: full rank
    square = [[rng.randrange(1, q) if j == i else rng.randrange(q) if j > i else 0
               for j in range(3)] for i in range(3)]
    return {"k=0": GFMatrix.from_rows(field, [], cols=3),
            "k=n": GFMatrix.from_rows(field, square),
            "zero rows": GFMatrix.from_rows(field, [[0, 0, 0], [0, 0, 0]]),
            "repeated row": GFMatrix.from_rows(field, [square[0], square[1], square[0]])}


@pytest.mark.parametrize("field", [GF(q) for q in (2, 3, 4, 9, 16)], ids=lambda f: f"GF({f.q})")
def test_both_routes_on_edge_generators(field):
    """No rows (H is the identity), a full space (H has no rows), all-zero
    rows and a repeated row (rank below the row count)."""
    for name, G in _edge_generators(field).items():
        expected = oracle_histogram(G)
        assert enumeration._syndrome_histogram(G, gf_kernel_basis(G)) == expected, name
        assert enumeration._table_histogram(G, 1) == expected, name


@contextmanager
def _patched_split(field: Field, k_inner: int):
    """The inner table holds k_inner rows, and the call inside must take the
    table route, which is what the split is."""
    with patch.object(enumeration, "_BLOCK_ROWS", field.q ** k_inner), \
            patch.object(enumeration, "_table_histogram",
                         wraps=enumeration._table_histogram) as table:
        yield
    assert table.called


@pytest.mark.parametrize("q", [4, 9, 27])
@pytest.mark.parametrize("defect", ["zero", "repeat", "multiple"])
def test_rank_deficient_generators(q, defect):
    """A zero row, a repeated row or a scalar multiple of another row, first
    in G so that every split puts it in the outer part."""
    field = GF(q)
    rng = random.Random(q)
    n, k = 5, {4: 4, 9: 3, 27: 2}[q]
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k - 1)]
    extra = {"zero": [0] * n, "repeat": rows[-1],
             "multiple": [field.mul(q - 1, e) for e in rows[-1]]}[defect]
    G = GFMatrix.from_rows(field, [extra] + rows)
    expected = oracle_histogram(G)
    for k_inner in range(k + 1):
        with _patched_split(field, k_inner):
            assert weight_histogram(G, budget=None) == expected, k_inner


@pytest.mark.parametrize("defect", ["zero", "repeat", "multiple"])
def test_rank_deficient_generators_large_field(defect):
    """Over GF(3^7) a two-row generator already has 4.8 M messages, too many
    for the oracle; G = [extra; r] has rank 1, and each codeword of the
    one-row code [r] then has q messages."""
    field = GF(3 ** 7)
    row = [0, 5, 2186, 1000, 1]
    extra = {"zero": [0] * 5, "repeat": row, "multiple": [field.mul(77, e) for e in row]}[defect]
    G = GFMatrix.from_rows(field, [extra, row])
    expected = [field.q * a for a in oracle_histogram(GFMatrix.from_rows(field, [row]))]
    for k_inner in range(3):
        with _patched_split(field, k_inner):
            assert weight_histogram(G, budget=None) == expected, k_inner


def _table_at_every_split(G: GFMatrix) -> None:
    """The table route, which enumerates G's reduced row echelon form, at
    every inner/outer split of its rank rows, against the oracle, which
    encodes every message of G itself."""
    expected = oracle_histogram(G)
    for k_inner in range(gf_rank(G) + 1):
        with patch.object(enumeration, "_BLOCK_ROWS", G.field.q ** k_inner):
            assert enumeration._table_histogram(G, 1) == expected, k_inner


def _random_rows(field: Field, k: int, n: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 27])
@pytest.mark.parametrize("first", ["zero", "repeated"])
def test_pivots_past_the_leading_columns(q, first):
    """A zero first column puts every pivot one column right; a first column
    repeated in the second leaves the second without a pivot."""
    field = GF(q)
    k = {2: 6, 3: 5, 4: 4, 9: 3, 16: 3, 27: 2}[q]
    rows = _random_rows(field, k, 7, seed=q)
    for row in rows:
        row[0] = 0 if first == "zero" else row[1]
    G = GFMatrix.from_rows(field, rows)
    rref, pivots = gf_row_reduce(G)
    assert pivots != tuple(range(len(pivots))) and rref != G.entries
    _table_at_every_split(G)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 27])
def test_full_space_has_no_non_pivot_coordinate(q):
    """k = n at full rank: every coordinate is a pivot, so the table has no
    words and each weight is the digit weight of the message alone."""
    field = GF(q)
    n = {2: 8, 3: 5, 4: 4, 9: 3, 27: 2}[q]
    seed = 0
    while gf_rank(G := GFMatrix.from_rows(field, _random_rows(field, n, n, seed))) < n:
        seed += 1
    assert G.entries != gf_row_reduce(G)[0]
    _table_at_every_split(G)
    assert enumeration._table_histogram(G, 1) == [math.comb(n, w) * (q - 1) ** w
                                                  for w in range(n + 1)]


@pytest.mark.parametrize("q", [3, 4, 9, 27])
@pytest.mark.parametrize("defect", ["zero", "repeat", "multiple"])
def test_dependent_row_last(q, defect):
    """A zero row, a repeated row or a scalar multiple of another row, last
    in G, after the rows the inner table holds at every split."""
    field = GF(q)
    k = {3: 5, 4: 4, 9: 3, 27: 2}[q]
    rows = _random_rows(field, k - 1, 5, seed=q + 1)
    extra = {"zero": [0] * 5, "repeat": rows[0],
             "multiple": [field.mul(q - 1, e) for e in rows[0]]}[defect]
    _table_at_every_split(GFMatrix.from_rows(field, rows + [extra]))


@pytest.mark.parametrize("q", [3, 4])
def test_several_dependent_rows_on_both_sides(q):
    """A zero row first, then the independent rows, then a repeat of the
    first of them and a multiple of the last: rank 3 (GF(3)) or 2 (GF(4))
    of 6 or 5 rows, with pivots past the leading columns."""
    field = GF(q)
    rows = _random_rows(field, 5 - q, 6, seed=10 * q)
    for row in rows:
        row[0] = row[2]
    G = GFMatrix.from_rows(field, [[0] * 6] + rows
                           + [rows[0], [field.mul(2, e) for e in rows[-1]]])
    assert gf_rank(G) == 5 - q
    _table_at_every_split(G)


@pytest.mark.parametrize("q", [3 ** 7, 257])
def test_one_row_tables_of_large_fields(q):
    """One row whose first nonzero entry is not 1, so that its RREF is a
    scaled copy: the inner table is that row's own q multiples, or the outer
    part is that one row."""
    field = GF(q)
    _table_at_every_split(GFMatrix.from_rows(field, [[0, 5, q - 1, 100, 1, 0]]))


def test_two_workers_two_outer_rows_pivots_past_the_leading_columns():
    """Four rows of rank 3 over GF(9), the first column repeated in the
    second: one inner row and two outer rows, 1 + 1 + 9 normalised messages
    split over two processes."""
    field = GF(9)
    rows = _random_rows(field, 3, 6, seed=9)
    for row in rows:
        row[1] = row[0]
    G = GFMatrix.from_rows(field, rows + [rows[1]])
    assert gf_rank(G) == 3
    with patch.object(enumeration, "_BLOCK_ROWS", 9), \
            patch.object(enumeration.os, "cpu_count", lambda: 2), \
            patch.object(enumeration, "_histogram_range",
                         wraps=enumeration._histogram_range) as run:
        assert enumeration._table_histogram(G, 2) == oracle_histogram(G)
    assert not run.called  # both ranges ran in the worker processes


@pytest.mark.parametrize("n", [65, 100, 130])
def test_binary_rank_deficient_past_one_word_pivots_past_the_leading_columns(n):
    """GF(2) keeps every coordinate in its words: n > 64 with a zero first
    column, a repeated row last and the sum of two rows first."""
    field = GF(2)
    rows = _random_rows(field, 4, n, seed=n)
    for row in rows:
        row[0] = 0
    G = GFMatrix.from_rows(field, [[x ^ y for x, y in zip(rows[0], rows[1])]] + rows + [rows[2]])
    assert gf_rank(G) == 4
    _table_at_every_split(G)


@pytest.mark.parametrize("q, k_inner", [(4, 1), (3, 1)])
def test_two_workers_odd_normalised_range(q, k_inner):
    """k = 3: the outer part has 2 rows, so (q^2 - 1)/(q - 1) = q + 1 normalised
    messages, odd over GF(4) (5), and odd with the zero message over GF(3) (5)."""
    field = GF(q)
    rng = random.Random(q)
    G = GFMatrix.from_rows(field, [[rng.randrange(q) for _ in range(6)] for _ in range(3)])
    with _patched_split(field, k_inner), patch.object(enumeration.os, "cpu_count", lambda: 2):
        assert weight_histogram(G, budget=None, workers=2) == oracle_histogram(G)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
def test_table_at_the_width_of_the_weight_buffer(field):
    """n = 255 is the widest code whose weights are uint8 and n = 256 the
    narrowest whose weights are int64: two random rows at every split whose
    block fits and whose outer part has at most q + 2 <= 300 messages.  No
    block of at most 2^16 weights is past the 256^2 bins of a pair table at
    n = 255, so both widths tally one weight at a time."""
    q = field.q
    for n in (255, 256):
        G = GFMatrix.from_rows(field, _random_rows(field, 2, n, seed=n + q))
        expected = two_row_histogram(G)
        for k_inner in range(3):
            if q ** k_inner <= 1 << 16 and (k_inner or q <= 300):
                with patch.object(enumeration, "_BLOCK_ROWS", q ** k_inner):
                    assert enumeration._table_histogram(G, 1) == expected, (n, k_inner)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
def test_table_tallies_a_block_past_the_pair_table_in_pairs(field):
    """A systematic [k + 1, k] code with nonzero parity coefficients is MDS.
    k is the fewest rows whose one block of q^k weights is past the
    256 (k + 2) bins of a pair table, so its weights are tallied two at a
    time; over odd q the block is odd and padded with one zero weight."""
    q = field.q
    k = 1
    while q ** k <= 256 * (k + 2):
        k += 1
    rng = random.Random(q)
    G = GFMatrix.from_rows(field, [[int(i == j) for j in range(k)] + [rng.randrange(1, q)]
                                   for i in range(k)])
    with patch.object(enumeration, "_BLOCK_ROWS", q ** k):
        assert enumeration._table_histogram(G, 1) == list(mds_distribution(k + 1, k, q).counts)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
def test_two_workers_over_every_field(field):
    """Both rows outer: 1 + 1 + q normalised messages over two processes,
    which receive the field itself, log tables included: building the
    tables of an extension field is refused while they run."""
    G = GFMatrix.from_rows(field, _random_rows(field, 2, 4, seed=field.q))
    with patch.object(enumeration, "_BLOCK_ROWS", 1), \
            patch.object(enumeration.os, "cpu_count", lambda: 2), \
            patch.object(Field, "_build_tables", side_effect=AssertionError("field rebuilt")), \
            patch.object(enumeration, "_histogram_range",
                         wraps=enumeration._histogram_range) as run:
        assert enumeration._table_histogram(G, 2) == two_row_histogram(G)
    assert not run.called


def _binary_code(n: int, k: int, seed: int, extra=()) -> GFMatrix:
    """Rows `extra`, an all-ones row (weight n, so the top of the weight
    buffer is reached), then random rows; k rows in all."""
    rng = random.Random(seed)
    rows = [list(r) for r in extra] + [[1] * n]
    rows += [[rng.randrange(2) for _ in range(n)] for _ in range(k - len(rows))]
    return GFMatrix.from_rows(GF(2), rows)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 300])
def test_binary_words_across_word_boundaries(n):
    """GF(2) tables pack 64 coordinates per word: codes that end just
    before, on and after a word boundary, and one with n > 255, the width
    past which the weight buffer cannot be a uint8; every inner/outer split."""
    k = min(n, 4)
    G = _binary_code(n, k, seed=n)
    expected = oracle_histogram(G)
    assert expected[n] >= 1
    for k_inner in range(k + 1):
        with _patched_split(GF(2), k_inner):
            assert weight_histogram(G, budget=None) == expected, k_inner


@pytest.mark.parametrize("defect", ["zero", "repeat", "sum"])
def test_rank_deficient_binary_generators_past_one_word(defect):
    """n = 100 spans two words; the dependent row comes first, so every
    split puts it in the outer part."""
    n, rng = 100, random.Random(7)
    a, b = ([rng.randrange(2) for _ in range(n)] for _ in range(2))
    extra = {"zero": [0] * n, "repeat": a, "sum": [x ^ y for x, y in zip(a, b)]}[defect]
    G = _binary_code(n, 5, seed=11, extra=[extra, a, b])
    expected = oracle_histogram(G)
    for k_inner in range(6):
        with _patched_split(GF(2), k_inner):
            assert weight_histogram(G, budget=None) == expected, k_inner


def test_two_workers_binary_past_one_word():
    """n = 130 spans three words; four outer rows give 16 normalised
    messages, split over two processes."""
    G = _binary_code(130, 5, seed=130)
    with _patched_split(GF(2), 1), patch.object(enumeration.os, "cpu_count", lambda: 2):
        assert weight_histogram(G, budget=None, workers=2) == oracle_histogram(G)


def test_field_beyond_tables_prime():
    """GF(65537) has q > 2^16: no inner table and no whole-field arrays."""
    field = GF(65537)
    G = GFMatrix.from_rows(field, [[1, 0, 65536, 3, 40000]])
    with patch.object(enumeration, "_histogram_range", wraps=enumeration._histogram_range) as run:
        assert weight_histogram(G, budget=None) == oracle_histogram(G)
    (call,) = run.call_args_list
    _, inner, outer, _, start, stop = call.args
    assert (len(inner), len(outer), start, stop) == (0, 1, 0, 2)


def test_field_beyond_tables_explicit_modulus():
    """GF(3^11) with a caller-supplied modulus has no log tables, and its
    oracle costs 10 s; every nonzero multiple of the one row has the row's
    support, so the histogram is 1 at weight 0 and q - 1 at the row's weight."""
    field = Field(3, 11, (2, 0, 1) + (0,) * 8 + (1,))
    G = GFMatrix.from_rows(field, [[1, 0, 177146, 3 ** 10, 2, 0]])
    with patch.object(enumeration, "_histogram_range", wraps=enumeration._histogram_range) as run:
        assert weight_histogram(G, budget=None) == [1, 0, 0, 0, field.q - 1, 0, 0]
    (call,) = run.call_args_list
    _, inner, outer, _, start, stop = call.args
    assert (len(inner), len(outer), start, stop) == (0, 1, 0, 2)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: runs jobs in this process and
    records how it was sized."""

    def __init__(self, sizes: list, max_workers: int):
        self.sizes, self.max_workers = sizes, max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.sizes.append((self.max_workers, len(jobs)))
        return map(fn, jobs)


def test_pool_is_capped_at_the_core_count():
    sizes = []
    rows = [[1, 1, 0, 1, 0, 1, 1], [0, 1, 1, 1, 1, 0, 1], [1, 0, 1, 0, 1, 1, 1],
            [1, 1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 0, 1, 1]]
    G = GFMatrix.from_rows(GF(2), rows)
    with _patched_split(GF(2), 0), patch.object(enumeration.os, "cpu_count", lambda: 3), \
            patch("concurrent.futures.ProcessPoolExecutor",
                  lambda max_workers: _InlineExecutor(sizes, max_workers)):
        assert weight_histogram(G, budget=None, workers=10 ** 6) == oracle_histogram(G)
    assert sizes == [(3, 3)]


@pytest.mark.parametrize("budget", [-1, 0, 2.5, True, "10"])
def test_budget_must_be_none_or_a_positive_integer(budget):
    G = GFMatrix.from_rows(GF(2), [[1, 0, 1]])
    with pytest.raises(ValueError, match="budget"):
        weight_histogram(G, budget=budget)


@pytest.mark.parametrize("workers", [0, -3, True, False, 1.0, "2"])
def test_workers_must_be_a_positive_integer(workers):
    # checked before the route is priced, so a budget the route exceeds
    # does not hide them, and on a cached distribution too
    G = GFMatrix.from_rows(GF(2), [[1, 1]])
    for budget in (None, 1):
        with pytest.raises(ValueError, match="workers"):
            weight_histogram(G, budget=budget, workers=workers)
    code = LinearCode(G)
    code.weight_distribution()
    with pytest.raises(ValueError, match="workers"):
        code.weight_distribution(budget=1, workers=workers)


def test_two_workers_odd_characteristic():
    """Both rows outer: 1 + 1 + 257 messages, split over two processes."""
    rows = [[1, 2, 3, 0, 256], [5, 0, 7, 11, 13]]
    G = GFMatrix.from_rows(GF(257), rows)
    with _patched_split(GF(257), 0), patch.object(enumeration.os, "cpu_count", lambda: 2):
        assert weight_histogram(G, budget=None, workers=2) == oracle_histogram(G)


@pytest.mark.parametrize("q, dtype", [
    (2, np.uint64), (2 ** 9, np.uint16), (3, np.uint8), (251, np.uint8), (256, np.uint8),
    (3 ** 7, np.uint16), (3 ** 9, np.uint16), (257, np.uint16), (65521, np.uint16),
    (65537, np.uint32),
])
def test_smallest_dtype_and_no_upcast(q, dtype):
    """Table words are uint64 over GF(2), else the narrowest dtype that holds
    q - 1, and subtracting them keeps it."""
    field = GF(q)
    words = enumeration._multiples(field, [q - 1] * 3, [1, q - 1])
    assert words.dtype == dtype
    assert array_ops(field)[2](words[0], words[1]).dtype == dtype


def test_field_wider_than_64_bits_needs_no_packing():
    """GF(3^17) has no log tables and its digits would not fit 64 bits
    packed; one encoding per word needs neither.  Every nonzero multiple of
    the one row has weight 2."""
    field = Field(3, 17, (1, 2) + (0,) * 15 + (1,))
    G = GFMatrix.from_rows(field, [[1, 2]])
    # the budget counts the table's ceil(q / (q - 1)) = 2 messages of one
    # word, the non-pivot coordinate, not the q messages of G
    assert weight_histogram(G) == [1, 0, field.q - 1]
    with pytest.raises(BudgetExceededError, match="^table enumeration costs 2 "):
        weight_histogram(G, budget=1)
    # the whole space GF(q)^3, q^3 > 2^63 words: H has no rows, so the
    # syndrome count has one state and counts in Python ints
    full = GFMatrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with patch.object(enumeration, "_syndrome_histogram",
                      wraps=enumeration._syndrome_histogram) as syndrome:
        assert weight_histogram(full, budget=None) == [math.comb(3, w) * (field.q - 1) ** w
                                                       for w in range(4)]
    assert syndrome.called


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_budget_boundary_on_both_routes(field):
    """The budget caps the element operations of the route taken: budget =
    cost runs and cost - 1 refuses, naming the route.  A random [5,2] code
    takes the table, ceil(q^2 / (q - 1)) messages of ceil(5 / 64) words over
    GF(2) and of its 3 non-pivot coordinates otherwise; the whole space
    GF(q)^n, n = 6 for q <= 4 and 3 otherwise, takes the syndrome count over
    its one syndrome, n m (p - 1) (n + 1), fewer than its table's
    ceil(q^n / (q - 1)) messages of one word."""
    q, n = field.q, 6 if field.q <= 4 else 3
    table = random_code(field, 5, 2, seed=q).G
    full = GFMatrix.from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])
    cases = (("table enumeration", "_table_histogram", table,
              -(-q ** 2 // (q - 1)) * (1 if q == 2 else 3)),
             ("syndrome count", "_syndrome_histogram", full,
              n * field.m * (field.p - 1) * (n + 1)))
    for route, name, G, cost in cases:
        with patch.object(enumeration, name, wraps=getattr(enumeration, name)) as taken:
            assert sum(weight_histogram(G, budget=cost)) == q ** G.rows
        assert taken.called
        with pytest.raises(BudgetExceededError,
                           match=f"^{route} costs {cost} element operations, "
                                 f"over the budget of {cost - 1}$"):
            weight_histogram(G, budget=cost - 1)


def test_table_is_priced_on_the_rank():
    """30 copies of one length-40 row over GF(3) have rank 1: the table
    enumerates that one row, ceil(3 / 2) messages of its 39 non-pivot words,
    78 operations, not the ceil(3^30 / 2) messages of G, and the 3^39
    syndromes are past the block table.  Each codeword has 3^29 messages."""
    field = GF(3)
    row = _random_rows(field, 1, 40, seed=40)[0]
    G = GFMatrix.from_rows(field, [row] * 30)
    assert enumeration.check_count(G) == ("table enumeration", 78)
    assert weight_histogram(G) == [3 ** 29 * a
                                   for a in oracle_histogram(GFMatrix.from_rows(field, [row]))]


def test_cheapest_route_is_the_one_rule():
    """The cheapest priced route is taken, the first listed on a tie, and
    returned whole; the budget caps its price and never chooses another."""
    routes = [("table enumeration", 7, "a"), ("syndrome count", 5), ("census", 5)]
    assert cheapest_route(routes, None) == ("syndrome count", 5)
    assert cheapest_route(routes[:1], 7) == ("table enumeration", 7, "a")
    assert cheapest_route(routes, 5) == ("syndrome count", 5)
    with pytest.raises(BudgetExceededError,
                       match="^syndrome count costs 5 element operations, "
                             "over the budget of 4$"):
        cheapest_route(routes, 4)
    for budget in (0, -1, True, 2.0, "5"):
        with pytest.raises(ValueError, match="^budget must be None or a positive integer"):
            cheapest_route(routes, budget)


@pytest.mark.parametrize("q, n, k, route", [
    (2, 32, 24, "_syndrome_histogram"), (9, 9, 8, "_syndrome_histogram"),
    (3, 20, 14, "_syndrome_histogram"), (2, 16, 8, "_table_histogram"),
    (3, 14, 7, "_table_histogram"), (4, 12, 6, "_table_histogram"),
])
def test_routing_of_the_benchmark_codes(q, n, k, route):
    """The high-rate codes of the enumerate benchmark count syndromes, and
    agree with the table route; the verify benchmark's codes take the table
    route without computing a parity-check matrix."""
    field = GF(q)
    code = reed_solomon_code(field, n, k) if q == 9 else random_code(field, n, k, seed=n)
    with patch.object(enumeration, "_syndrome_histogram",
                      wraps=enumeration._syndrome_histogram) as syndrome, \
            patch.object(enumeration, "_table_histogram",
                         wraps=enumeration._table_histogram) as table, \
            patch.object(enumeration, "gf_kernel_basis", wraps=gf_kernel_basis) as kernel:
        got = weight_histogram(code.G)
    if route == "_syndrome_histogram":
        assert syndrome.called and not table.called
        assert got == enumeration._table_histogram(code.G, 1)
    else:
        assert table.called and not syndrome.called and not kernel.called


def test_counts_past_int64_are_exact():
    """2^72 codewords: the syndrome counts are Python ints, equal to the
    MacWilliams transform of the dual [80,8]_2, which the table enumerates."""
    code = random_code(GF(2), 80, 72, seed=80)
    A = weight_histogram(code.G, budget=None)
    assert sum(A) == 2 ** 72
    assert macwilliams_transform(code.dual().weight_distribution()).counts == tuple(A)
