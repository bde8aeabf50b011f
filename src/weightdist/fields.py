"""Exact arithmetic in GF(p^m) with a canonical integer element encoding.

Element ``e`` in [0, q) encodes the polynomial whose GF(p) coefficients are
the base-p digits of ``e`` (digit i = coefficient of x^i).  0 and 1 are the
additive and multiplicative identities; for GF(4) with modulus x^2+x+1 the
encodings 0,1,2,3 are 0, 1, a, a^2 for a primitive element a.

Extension fields of order up to 2^16 get log/antilog tables at construction
time; larger orders (with a caller-supplied modulus) fall back to table-free
products: shifts and XORs of the encodings for p = 2, polynomial arithmetic
on base-p digits otherwise.  For odd p with m > 1, `Field.add`, `neg` and
`sub` and `array_sub` sum digit by digit in one helper, `_digitwise`.
Fields are immutable after construction and safe to share across workers.
`array_mul` and `array_sub` do the same arithmetic element by element on
numpy arrays, and `array_ops` gives the census and the enumeration those
operations in the narrowest dtype, read from q x q tables for small fields,
so no other module tabulates a field; numpy is imported only when they run.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from .errors import (
    DivisionByZeroError,
    NotPrimeError,
    ReduciblePolynomialError,
    UnsupportedOrderError,
    require_ints,
)

TABLE_ORDER_LIMIT = 1 << 16

# Fields up to this order get q x q tables of their products and differences
# from `array_ops`; larger ones compute each array operation directly.
_PAIR_TABLE_LIMIT = 256


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# _PRIME_LIMIT (J. Sorenson and J. Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; an n past _PRIME_LIMIT with no factor
    among the bases is refused (UnsupportedOrderError)."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    if n >= _PRIME_LIMIT:
        raise UnsupportedOrderError(f"cannot decide whether {n} is prime: "
                                    f"orders are supported below {_PRIME_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    # b proves n composite unless b^d = 1 or b^(d 2^i) = -1 for some i < s
    return not any(pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(s))
                   for b in _PRIME_BASES)


def _digits(e: int, p: int, m: int) -> tuple[int, ...]:
    """Base-p digits of e, lowest first, padded to length m."""
    out = []
    for _ in range(m):
        out.append(e % p)
        e //= p
    return tuple(out)


def _digitwise(a, b, sign: int, p: int, powers: Sequence[int]):
    """a + sign * b over GF(p^m) for odd p, powers = p^1..p^(m-1): digit i is
    (a // w + sign * (b // w)) % p at w = p^i, as the higher digits only add
    multiples of p.  a and b are Python ints or signed numpy arrays (int64 or
    object) that broadcast together; unsigned ones would wrap at sign * b."""
    s = (a + sign * b) % p
    for w in powers:
        s += (a // w + sign * (b // w)) % p * w
    return s


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo monic b, coefficients low-to-high over GF(p)."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    out = [c % p for c in a[:db]]
    while len(out) < db:
        out.append(0)
    return out


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod, p)


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Test a monic polynomial over GF(p) (coefficients low-to-high) for
    irreducibility by root search plus trial division up to half degree."""
    poly = [c % p for c in poly]
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        return False
    if deg == 1:
        return True
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    # no linear factors; for degree <= 3 that settles it
    if deg <= 3:
        return True
    for ddeg in range(2, deg // 2 + 1):
        for e in range(p ** ddeg):
            divisor = list(_digits(e, p, ddeg)) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


@functools.lru_cache(maxsize=64)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over GF(p), scanning the non-leading
    coefficient vector as a base-p counter.  Deterministic; cached."""
    for e in range(p ** m):
        cand = _digits(e, p, m) + (1,)
        if is_irreducible(cand, p):
            return cand
    # cannot happen: irreducibles exist for every (p, m)
    raise UnsupportedOrderError(f"no irreducible polynomial found for GF({p}^{m})")


class Field:
    """GF(p^m) arithmetic on canonically encoded integers.

    Field identity (equality, hashing) is the (p, m, modulus) triple, so
    matrices and codes over structurally different fields never silently mix.
    """

    __slots__ = ("p", "m", "q", "modulus_poly", "_powers", "_bits", "_exp", "_log", "_hash")

    def __init__(self, p: int, m: int = 1, modulus_poly: Optional[Sequence[int]] = None):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"characteristic must be prime, got {p!r}")
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError(f"extension degree must be a positive integer, got {m!r}")
        q = p ** m
        if m == 1:
            if modulus_poly not in (None, (), []):
                raise ValueError("prime fields take no modulus polynomial")
            modulus: tuple[int, ...] = ()
        else:
            if modulus_poly is None:
                if q > TABLE_ORDER_LIMIT:
                    raise UnsupportedOrderError(
                        f"GF({p}^{m}) is beyond the built-in modulus range "
                        f"(order {TABLE_ORDER_LIMIT}); supply modulus_poly")
                modulus = default_modulus(p, m)
            else:
                modulus = tuple(modulus_poly)
                for c in modulus:
                    require_ints(modulus_coefficient=c)
                    if not 0 <= c < p:
                        raise ValueError(f"modulus coefficient {c} outside [0, {p})")
                if len(modulus) != m + 1 or modulus[-1] != 1:
                    raise ReduciblePolynomialError(
                        f"modulus must be monic of degree {m}, got {tuple(modulus_poly)}")
                if not is_irreducible(modulus, p):
                    raise ReduciblePolynomialError(
                        f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        self.modulus_poly = modulus
        self._powers = tuple(p ** i for i in range(1, m))
        # for p = 2 the bits of an encoding are its polynomial's coefficients;
        # these are the modulus's
        self._bits = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None
        self._hash = hash((p, m, modulus))
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        if m > 1 and q <= TABLE_ORDER_LIMIT:
            self._build_tables()

    # -- construction helpers ------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free product in an extension field: it builds the log
        tables, and serves every product of a field too large for them.
        For p = 2 it multiplies the encodings as bit polynomials, shifting
        a by x and clearing its degree-m bit by the modulus as it goes, and
        adding each shift that a set bit of b selects, all by XOR."""
        if self.p == 2:
            top, mod, r = 1 << self.m, self._bits, 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return r
        pa = _digits(a, self.p, self.m)
        pb = _digits(b, self.p, self.m)
        digits = _poly_mulmod(pa, pb, self.modulus_poly, self.p)
        enc = 0
        for c in reversed(digits):
            enc = enc * self.p + c
        return enc

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _build_tables(self) -> None:
        order = self.q - 1
        factors = [f for f in range(2, order + 1) if order % f == 0 and is_prime(f)]
        gen = 0
        for g in range(2, self.q):
            if all(self._raw_pow(g, order // r) != 1 for r in factors):
                gen = g
                break
        exp = [1] * order
        x = 1
        for i in range(1, order):
            x = self._raw_mul(x, gen)
            exp[i] = x
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    # -- scalar arithmetic on encodings ----------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return _digitwise(a, b, 1, self.p, self._powers)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return _digitwise(0, a, -1, self.p, self._powers)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        return _digitwise(a, b, -1, self.p, self._powers)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError(f"0 has no inverse in {self!r}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self._raw_pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._log is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        if self.m == 1:
            return pow(a, e, self.p)
        return self._raw_pow(a, e)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus_poly)
                == (other.p, other.m, other.modulus_poly))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, poly={','.join(map(str, self.modulus_poly))})"


# -- the same arithmetic on numpy arrays -----------------------------------

def _array_dtype(f: Field):
    """int64 while the product of two encodings fits it, else Python ints."""
    return "int64" if (f.q - 1) ** 2 < 1 << 63 else object


@functools.lru_cache(maxsize=8)
def _log_exp(f: Field):
    """The log and exp tables of an extension field as arrays.  exp spans two
    periods, so a sum of two logs needs no reduction; the log of 0 is a
    sentinel 2(q-1), and every sum that contains it reads 0 from the zeros
    past them."""
    import numpy as np

    log = np.array(f._log)
    log[0] = 2 * (f.q - 1)
    return log, np.concatenate([f._exp, f._exp, np.zeros(2 * f.q - 1, int)])


def array_mul(f: Field, a, b):
    """a * b over f, element by element, for integer arrays of encodings that
    broadcast together: modular products over a prime field, exp[log a +
    log b] over an extension field with tables, else the field's own `mul`."""
    import numpy as np

    if f.m == 1:
        dtype = _array_dtype(f)
        return np.asarray(a, dtype=dtype) * np.asarray(b, dtype=dtype) % f.p
    if f._exp is None:
        return np.frompyfunc(f.mul, 2, 1)(a, b)
    log, exp = _log_exp(f)
    return exp[log[a] + log[b]]


def array_sub(f: Field, a, b):
    """a - b over f, element by element, for integer arrays of encodings that
    broadcast together: XOR for p = 2, else base-p digit by digit
    (`_digitwise`), which is the modular difference over a prime field."""
    import numpy as np

    dtype = _array_dtype(f)
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    if f.p == 2:
        return a ^ b
    return _digitwise(a, b, -1, f.p, f._powers)


@functools.lru_cache(maxsize=8)
def array_ops(f: Field):
    """(dtype, mul, sub, inv) on arrays of encodings over f, where dtype is the
    narrowest that holds q - 1 (Python ints past 2^64) and each operation
    takes and returns it.  Up to _PAIR_TABLE_LIMIT, products, differences
    and inverses are read by `take` from tables, the pair tables flattened
    at a * q + b in narrow ints; above it, `array_mul`, `array_sub` and
    `Field.inv` are called on each array.  Two differences need no table:
    XOR for p = 2 (packed words included), and over an odd prime field
    a - b, which wraps in the unsigned dtype where a < b and is made exact
    by adding p back there."""
    import numpy as np

    q = f.q
    dtype = np.min_scalar_type(q - 1)
    if q <= _PAIR_TABLE_LIMIT:
        e = np.arange(q)
        at = np.min_scalar_type(q * q - 1).type(q)

        def lift(op):
            flat = op(f, e[:, None], e).astype(dtype).ravel()
            return lambda a, b: flat.take(a * at + b)

        inv = np.array([0] + [f.inv(x) for x in range(1, q)], dtype=dtype).take
    else:
        def lift(op):
            return lambda a, b: op(f, a, b).astype(dtype)

        def inv(a):
            return np.array([f.inv(x) for x in a.tolist()], dtype=dtype)
    if f.p == 2:
        sub = np.bitwise_xor
    elif f.m == 1 and dtype != object:
        p = dtype.type(f.p)

        def sub(a, b):
            d = a - b
            d += p * (a < b)
            return d
    else:
        sub = lift(array_sub)
    return dtype, lift(array_mul), sub, inv


def GF(q: int, modulus_poly: Optional[Sequence[int]] = None) -> Field:
    """Construct the field of order q, factoring q as a prime power: q = p^m
    for the largest m with an integer m-th root p, which must be prime."""
    if isinstance(q, bool) or not isinstance(q, int):
        raise NotPrimeError(f"field order must be an integer, got {q!r}")
    if q < 2:
        raise NotPrimeError(f"field order must be >= 2, got {q}")
    for m in range(q.bit_length(), 0, -1):
        # p = floor(q^(1/m)), by Newton's method from above
        p = 1 << -(-q.bit_length() // m)
        while (x := ((m - 1) * p + q // p ** (m - 1)) // m) < p:
            p = x
        if p ** m == q:
            break
    if not is_prime(p):
        raise NotPrimeError(f"{q} is not a prime power")
    return Field(p, m, modulus_poly)
