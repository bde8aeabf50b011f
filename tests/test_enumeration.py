"""Enumeration checked against the codeword oracle.

`LinearCode.codewords()` encodes every message with plain `Field.add` and
`Field.mul`, so its histogram shares no code with the packed block tables.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightdist import enumeration
from weightdist.codes import LinearCode
from weightdist.enumeration import _Representation, weight_histogram
from weightdist.errors import UnsupportedOrderError
from weightdist.fields import GF, Field
from weightdist.matrices import GFMatrix

# Between them the fields take every word dtype: GF(2), GF(4), GF(16), GF(3),
# GF(9) uint8; GF(2^9), GF(27), GF(25), GF(125), GF(49), GF(257) uint16;
# GF(3^6), GF(3^7), GF(65521) uint32; GF(3^9) uint64.
FIELDS = [GF(q) for q in (2, 4, 16, 2 ** 9, 3, 9, 27, 3 ** 6, 3 ** 7, 3 ** 9, 25, 125, 49,
                          257, 65521)]
# Codes above this many words keep the default split, since a message space
# run wholly through the outer loop costs ~15 us a word; GF(3^9) and
# GF(65521) still get their one-row codes.
MAX_WORDS = 5_000


def oracle_histogram(G: GFMatrix) -> list[int]:
    hist = [0] * (G.cols + 1)
    for word in LinearCode(G, check=False).codewords():
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
    G, k_inner = data.draw(codes_and_splits(field))
    with patch.object(enumeration, "_BLOCK_ROWS", field.q ** k_inner):
        assert weight_histogram(G, budget=None) == oracle_histogram(G)


def test_two_workers_odd_characteristic():
    rows = [[1, 2, 3, 0, 256], [5, 0, 7, 11, 13]]
    G = GFMatrix.from_rows(GF(257), rows)
    assert weight_histogram(G, budget=None, workers=2) == oracle_histogram(G)


@pytest.mark.parametrize("q, dtype", [
    (2, np.uint8), (2 ** 9, np.uint16), (3, np.uint8), (3 ** 7, np.uint32),
    (3 ** 9, np.uint64), (257, np.uint16), (65521, np.uint32),
])
def test_smallest_dtype_and_no_upcast(q, dtype):
    rep = _Representation(GF(q))
    assert rep.dtype is dtype
    col = np.full(3, rep.zero)
    assert rep.add(col, rep.pack([q - 1] * 3)).dtype == dtype


def test_fields_wider_than_64_bits_are_unsupported():
    field = Field(3, 17, (1, 2) + (0,) * 15 + (1,))
    G = GFMatrix.from_rows(field, [[1, 2]])
    with pytest.raises(UnsupportedOrderError):
        weight_histogram(G, budget=None)
    with pytest.raises(UnsupportedOrderError):
        weight_histogram(G)
