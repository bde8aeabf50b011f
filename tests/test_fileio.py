import pytest

from weightdist.rank_census import census
from weightdist.codes import WeightDistribution, random_code
from weightdist.errors import CodeFileFormatError
from weightdist.fields import GF
from weightdist.fileio import (
    census_to_json,
    distribution_from_json,
    distribution_to_json,
    format_code_file,
    knowns_from_json,
    parse_code_file,
)


def test_code_file_roundtrip(reference_pair):
    a, _ = reference_pair
    text = format_code_file(a)
    assert text.splitlines()[0] == "q=2^2 poly=1,1,1"
    back = parse_code_file(text)
    assert back.G.entries == a.G.entries
    assert back.field == a.field


def test_code_file_roundtrip_various_fields():
    for q, n, k, s in [(2, 6, 3, 0), (5, 7, 3, 1), (9, 5, 2, 2)]:
        c = random_code(GF(q), n, k, seed=s)
        back = parse_code_file(format_code_file(c))
        assert back.G.entries == c.G.entries and back.field == c.field


def test_prime_field_header_has_no_poly():
    c = random_code(GF(5), 4, 2, seed=3)
    assert format_code_file(c).splitlines()[0] == "q=5^1"


def test_default_poly_supplied_when_missing():
    code = parse_code_file("q=2^2\n2 1\n2 3\n")
    assert code.field == GF(4)


def test_bare_prime_header_accepted():
    code = parse_code_file("q=7\n3 1\n1 2 3\n")
    assert code.field.q == 7


def test_comments_and_blank_lines_ignored():
    code = parse_code_file("# repetition\n\nq=2^1\n2 1\n1 1\n")
    assert code.n == 2


def test_malformed_code_files():
    for text in [
        "",                                  # empty
        "p=2\n2 1\n1 1\n",                   # bad header key
        "q=x\n2 1\n1 1\n",                   # unparsable order
        "q=2^1\n2\n1 1\n",                   # bad size line
        "q=2^1\n2 1\n",                      # missing row
        "q=2^1\n2 1\n1\n",                   # short row
        "q=2^1\n2 1\n1 2\n",                 # entry out of range
        "q=2^1\n2 1\n1 z\n",                 # non-integer
        "q=2^1 junk\n2 1\n1 1\n",            # stray token
        "q=2^1\n1 2\n1\n1\n",                # k > n
    ]:
        with pytest.raises(CodeFileFormatError):
            parse_code_file(text)


def test_distribution_json_roundtrip():
    big = 10 ** 30
    d = WeightDistribution((1, 0, big), q=2, k=100)
    obj = distribution_to_json(d)
    assert obj["A"] == ["1", "0", str(big)]
    back = distribution_from_json(obj)
    assert back == d


def test_distribution_json_validates_length():
    with pytest.raises(CodeFileFormatError):
        distribution_from_json({"n": 3, "k": 1, "q": 2, "A": ["1", "0"]})


def test_distribution_json_accepts_only_integers():
    good = {"n": 2, "k": "1", "q": "2", "A": ["1", 0, "+1"]}
    assert distribution_from_json(good) == WeightDistribution((1, 0, 1), q=2, k=1)
    for key, bad in [("A", [True, False, 1]), ("A", ["1", 0, 1.0]), ("A", ["1", "0", "1.5"]),
                     ("A", ["1", "0", " 1"]), ("A", "101"), ("n", True), ("n", 2.0),
                     ("k", "one"), ("q", None)]:
        with pytest.raises(CodeFileFormatError):
            distribution_from_json(dict(good, **{key: bad}))
    with pytest.raises(CodeFileFormatError):
        distribution_from_json({"k": 1, "q": 2, "A": ["1"]})
    with pytest.raises(CodeFileFormatError):
        distribution_from_json(["1", "0"])


def test_knowns_accept_only_integers():
    assert knowns_from_json({"0": 1, "4": "27"}) == {0: 1, 4: 27}
    for bad in (True, False, 0.9, 3.0, "0.9", "1e3", None, [1]):
        with pytest.raises(CodeFileFormatError):
            knowns_from_json({"0": "1", "3": bad})
    with pytest.raises(CodeFileFormatError):
        knowns_from_json({"3.0": "1"})


def test_knowns_accepts_map_and_distribution():
    assert knowns_from_json({"4": "27", "0": "1"}) == {4: 27, 0: 1}
    d = WeightDistribution((1, 0, 1), q=2, k=1)
    assert knowns_from_json(distribution_to_json(d)) == {0: 1, 1: 0, 2: 1}
    with pytest.raises(CodeFileFormatError):
        knowns_from_json({"4": "-2"})
    with pytest.raises(CodeFileFormatError):
        knowns_from_json({"four": "2"})


def test_census_json():
    c = random_code(GF(2), 5, 2, seed=8)
    cen = census(c.H, 2)
    obj = census_to_json(cen)
    assert obj["nu"] == 2
    assert obj["binom_total"] == "10"
    assert sum(int(v) for v in obj["counts"].values()) == 10
