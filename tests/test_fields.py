import random
import time

import numpy as np
import pytest

from weightdist.errors import (
    DivisionByZeroError,
    NotPrimeError,
    ReduciblePolynomialError,
    UnsupportedOrderError,
)
from weightdist import fields
from weightdist.fields import (
    GF, Field, _digits, _digitwise, _poly_mulmod, array_mul, array_ops, array_sub,
    default_modulus, is_irreducible, is_prime,
)

from gf_oracle import digitwise_oracle


def prime_powers_up_to(limit):
    out = []
    for p in range(2, limit + 1):
        if not is_prime_int(p):
            continue
        q = p
        m = 1
        while q <= limit:
            out.append((p, m, q))
            q *= p
            m += 1
    return out


def is_prime_int(n):
    return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_gf4_is_the_standard_field():
    # modulus x^2 + x + 1, elements 0, 1, a, a^2 encoded 0..3
    f = GF(4)
    assert (f.p, f.m, f.q) == (2, 2, 4)
    assert f.modulus_poly == (1, 1, 1)
    assert f.mul(2, 2) == 3  # a * a = a^2
    assert f.mul(2, 3) == 1  # a * a^2 = a^3 = 1


def test_prime_field_basics():
    f2 = GF(2)
    assert f2.add(1, 1) == 0
    f5 = GF(5)
    assert f5.inv(2) == 3  # 2*3 = 6 = 1 mod 5


def test_make_field_rejects_nonprime():
    with pytest.raises(NotPrimeError):
        Field(4, 1)
    with pytest.raises(NotPrimeError):
        GF(6)
    with pytest.raises(NotPrimeError):
        GF(12)


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_int(n) for n in range(-2, 20_000))
    rng = random.Random(4)
    for n in (rng.randrange(10 ** 6, 10 ** 10) for _ in range(300)):
        assert is_prime(n) == is_prime_int(n), n


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # the least strong pseudoprimes to the first 1..12 prime bases, each a
    # composite that the bases short of it pass, and primes up to 2^89
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961979):
        assert not is_prime(n), n
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 2 ** 64 - 59, 2 ** 80 - 65):
        assert is_prime(n), n


def test_large_prime_field_builds_at_once():
    # trial division to sqrt(q) did not finish in 10 s
    start = time.perf_counter()
    f = GF(2 ** 61 - 1)
    assert time.perf_counter() - start <= 0.01
    assert (f.p, f.m) == (2 ** 61 - 1, 1)
    assert f.mul(f.inv(12345), 12345) == 1


def test_gf_2_16_builds_at_once():
    # its log tables took about 1 s by polynomial products on base-2 digits
    start = time.perf_counter()
    GF(2 ** 16)
    assert time.perf_counter() - start <= 0.5


def _poly_product(f, a, b):
    """a * b over GF(p^m) by polynomial products on base-p digits."""
    digits = _poly_mulmod(_digits(a, f.p, f.m), _digits(b, f.p, f.m), f.modulus_poly, f.p)
    return sum(c * f.p ** i for i, c in enumerate(digits))


# GF(4), GF(2^8) and GF(2^16) with tables; above them x^17 + x^3 + 1 and
# x^33 + x^13 + 1, both irreducible
@pytest.mark.parametrize("m, modulus", [
    (2, None), (8, None), (16, None), (17, [1, 0, 0, 1] + [0] * 13 + [1]),
    (33, [1] + [0] * 12 + [1] + [0] * 19 + [1]),
])
def test_binary_products_match_polynomial_products(m, modulus, monkeypatch):
    """The carry-less product of two encodings, which builds the tables and
    serves every product past them, against polynomial products on base-2
    digits, on random and extreme pairs."""
    if m == 33:
        # trial division takes seconds to prove this modulus irreducible
        monkeypatch.setattr(fields, "is_irreducible", lambda poly, p: True)
    f = Field(2, m, modulus)
    rng = random.Random(m)
    elems = [0, 1, 2, f.q // 2, f.q - 2, f.q - 1] + [rng.randrange(f.q) for _ in range(44)]
    for a in elems:
        for b in elems[::5]:
            expected = _poly_product(f, a, b)
            assert f._raw_mul(a, b) == f.mul(a, b) == expected, (a, b)


def test_binary_exp_table_is_a_chain_of_polynomial_products():
    f = GF(2 ** 10)
    x, gen = 1, f._exp[1]
    for i, e in enumerate(f._exp):
        assert e == x and f._log[e] == i
        x = _poly_product(f, x, gen)
    assert x == 1 and len(set(f._exp)) == f.q - 1


def test_orders_past_the_prime_test_are_refused():
    # the Miller-Rabin bases decide primality exactly only below 3.3 * 10^24;
    # a power of a small prime past it is still factored, and refused only
    # for want of a modulus
    for make in (GF, Field):
        with pytest.raises(UnsupportedOrderError, match="cannot decide"):
            make(2 ** 89 - 1)
    with pytest.raises(UnsupportedOrderError, match="GF\\(2\\^89\\).*supply modulus_poly"):
        GF(2 ** 89)


@pytest.mark.parametrize("q, pm", [(2, (2, 1)), (4, (2, 2)), (2 ** 16, (2, 16)),
                                   (3 ** 7, (3, 7)), (65521, (65521, 1)), (65537, (65537, 1)),
                                   (49, (7, 2)), (5 ** 30, (5, 30))])
def test_order_factored_by_integer_roots(q, pm):
    if pm[1] > 1 and q > 2 ** 16:
        with pytest.raises(UnsupportedOrderError, match="supply modulus_poly"):
            GF(q)
    else:
        f = GF(q)
        assert (f.p, f.m) == pm
    for bad in (6, 12, 36, 100, 2 ** 10 * 3, 65535):
        with pytest.raises(NotPrimeError, match="not a prime power"):
            GF(bad)


def test_reducible_modulus_rejected():
    with pytest.raises(ReduciblePolynomialError):
        Field(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2
    with pytest.raises(ReduciblePolynomialError):
        Field(2, 2, [1, 1])  # wrong degree
    with pytest.raises(ReduciblePolynomialError):
        Field(3, 3, [0, 0, 0, 1])  # x^3 has root 0


def test_unsupported_order_without_polynomial():
    with pytest.raises(UnsupportedOrderError):
        Field(2, 17)


def test_caller_supplied_modulus_is_used():
    # x^2 + x + 2 is irreducible over GF(3) (no roots); differs from the
    # first-lexicographic default x^2 + 1
    f = Field(3, 2, [2, 1, 1])
    assert f.modulus_poly == (2, 1, 1)
    # x * x = x^2 = 2x + 1, encoded 1 + 2*3 = 7
    assert f.mul(3, 3) == 7
    assert GF(9).modulus_poly == (1, 0, 1)
    assert f != GF(9)  # different modulus -> different field identity


def test_default_moduli_are_irreducible():
    for p, m in [(2, 2), (2, 3), (2, 8), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)]:
        assert is_irreducible(default_modulus(p, m), p)
    # a constant and a non-monic polynomial are not irreducible; a monic linear one is
    assert not is_irreducible([1], 2)
    assert not is_irreducible([1, 2], 3)
    assert is_irreducible([2, 1], 3)


def test_inverses_exhaustive_small_orders():
    for p, m, q in prime_powers_up_to(256):
        f = Field(p, m)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1


def test_frobenius_additivity():
    for q in (4, 8, 9, 25, 27):
        f = GF(q)
        for a in range(q):
            for b in range(q):
                assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


def test_pow_order():
    for q in (4, 5, 9, 16, 256):
        f = GF(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1
            # a negative exponent inverts first
            for e in (1, 2, q - 2, q + 3):
                assert f.mul(f.pow(a, -e), f.pow(a, e)) == 1


def test_addition_matches_digitwise_polynomial_addition():
    for q in (8, 9, 27):
        f = GF(q)
        p, m = f.p, f.m
        for a in range(q):
            for b in range(q):
                s = f.add(a, b)
                for d in range(m):
                    assert (s // p ** d) % p == ((a // p ** d) + (b // p ** d)) % p


def _check_sums_against_the_digit_oracle(f, a, b):
    """add, neg and sub on Python ints, and array_sub and the digit helper on
    int64 and object arrays, against the oracle on the pairs (a[i], b[i])."""
    pairs = list(zip(a.tolist(), b.tolist()))
    diffs = [digitwise_oracle(f, x, y, -1) for x, y in pairs]
    assert [f.add(x, y) for x, y in pairs] == [digitwise_oracle(f, x, y, 1) for x, y in pairs]
    assert [f.sub(x, y) for x, y in pairs] == diffs
    assert [f.neg(y) for _, y in pairs] == [digitwise_oracle(f, 0, y, -1) for _, y in pairs]
    for dtype in (np.int64, object):
        x, y = a.astype(dtype), b.astype(dtype)
        assert array_sub(f, x, y).tolist() == diffs
        assert _digitwise(x, y, -1, f.p, f._powers).tolist() == diffs


@pytest.mark.parametrize("q", [9, 25, 27])
def test_sums_match_the_digit_oracle_on_all_pairs(q):
    f = GF(q)
    _check_sums_against_the_digit_oracle(f, np.repeat(np.arange(q), q), np.tile(np.arange(q), q))


# GF(3^7) with log tables; above 2^16, an explicit modulus of degree 11 over
# GF(3), and GF(55127^2), whose arrays hold Python ints (x^2 + 1 is
# irreducible since 55127 = 3 mod 4)
@pytest.mark.parametrize("p, m, modulus", [
    (3, 7, None), (3, 11, (2, 0, 1) + (0,) * 8 + (1,)), (55127, 2, (1, 0, 1)),
])
def test_sums_match_the_digit_oracle_on_random_pairs(p, m, modulus):
    f = Field(p, m, modulus)
    rng = random.Random(f.q)
    elems = [0, 1, p - 1, p, f.q - 2, f.q - 1] + [rng.randrange(f.q) for _ in range(34)]
    _check_sums_against_the_digit_oracle(
        f, np.array([x for x in elems for _ in elems]), np.array(elems * len(elems)))


def test_field_axioms_gf9():
    f = GF(9)
    elems = range(9)
    for a in elems:
        assert f.add(a, 0) == a and f.mul(a, 1) == a and f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_division_by_zero():
    f = GF(4)
    with pytest.raises(DivisionByZeroError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):  # subclass contract
        f.div(2, 0)


def test_field_identity_triple():
    assert GF(4) == Field(2, 2, [1, 1, 1])
    assert GF(4) == GF(4)
    assert hash(GF(9)) == hash(GF(9))
    assert GF(4) != GF(8)
    assert Field(3, 2, [2, 1, 1]) != GF(9)  # same order, different modulus


def test_large_order_with_polynomial_uses_polynomial_arithmetic():
    # beyond the table limit: needs an explicit modulus, still exact
    f = Field(2, 17, [1] + [0] * 2 + [1] + [0] * 13 + [1])  # x^17 + x^3 + 1
    a = 12345
    assert f.mul(a, f.inv(a)) == 1
    assert f.pow(3, f.q - 1) == 1


# above the 256-element tables: a prime field, GF(2^m) and odd p with m > 1
# with log tables, one without them, and a prime field whose products
# overflow int64; then GF(251), the odd prime whose differences wrap furthest
# in uint8; built in the test, so that collection does not hold them
@pytest.mark.parametrize("q, modulus", [
    (257, None), (2 ** 9, None), (3 ** 7, None), (2 ** 16, None),
    (3 ** 11, (2, 0, 1) + (0,) * 8 + (1,)), (4294967311, None), (251, None),
])
def test_array_operations_match_field_calls_on_random_and_extreme_pairs(q, modulus):
    field = GF(q, modulus)
    rng = random.Random(q)
    elems = [0, 1, 2, q - 2, q - 1, q // 2 + 7] + [rng.randrange(q) for _ in range(58)]
    a = np.array([x for x in elems for _ in elems])
    b = np.array(elems * len(elems))
    dtype, mul, sub, _ = array_ops(field)
    narrow = a.astype(dtype), b.astype(dtype)
    for got, op in ((array_mul(field, a, b), field.mul), (array_sub(field, a, b), field.sub),
                    (mul(*narrow), field.mul), (sub(*narrow), field.sub)):
        assert got.tolist() == [op(x, y) for x, y in zip(a.tolist(), b.tolist())]
    # for odd p with m > 1, Field.sub runs the same digit sum as array_sub,
    # so the differences are also checked against the digit oracle
    if field.p > 2 and field.m > 1:
        diffs = [digitwise_oracle(field, x, y, -1) for x, y in zip(a.tolist(), b.tolist())]
        assert array_sub(field, a, b).tolist() == diffs == sub(*narrow).tolist()
