import random

import pytest

from weightdist.codes import random_code
from weightdist.fields import GF
from weightdist.reference import nmds_844_codes

CORPUS_SEED = 20250810


def random_corpus(seed):
    """30 seeded random codes over each of GF(2..5), 4 <= n <= 10, with both
    q^k and q^(n-k) at most 200,000, so that each code and its dual can be
    enumerated cheaply."""
    rng = random.Random(seed)
    out = []
    for q in (2, 3, 4, 5):
        for _ in range(30):
            n = rng.randrange(4, 11)
            ks = [k for k in range(1, n) if q ** k <= 200_000 and q ** (n - k) <= 200_000]
            out.append(random_code(GF(q), n, rng.choice(ks), seed=rng.randrange(2 ** 30)))
    return out


@pytest.fixture(scope="session")
def corpus():
    """>= 100 seeded random codes over GF(2..5), n <= 10, duals enumerable."""
    return random_corpus(CORPUS_SEED)


@pytest.fixture(scope="session")
def reference_pair():
    """The two [8,4,4] near-MDS codes over GF(4) with known distributions."""
    return nmds_844_codes()
