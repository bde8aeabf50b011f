"""Text and JSON formats for codes, distributions, knowns and censuses.

Code file (text):
    line 1: ``q=p^m`` optionally followed by `` poly=c0,c1,...,cm``
            (modulus coefficients low-to-high over GF(p))
    line 2: ``n k``
    then k lines of n integers in [0, q): the generator matrix in the
    canonical element encoding.

Distribution JSON: ``{"n": ..., "k": ..., "q": ..., "A": ["1", "0", ...]}``
with every count a decimal string, since counts outgrow 64-bit integers at
moderate parameters.  A knowns map is ``{"index": "value", ...}``; a full
distribution object is also accepted wherever knowns are, every entry
becoming a known.  On reading, every count, index, n, k and q must be a
JSON integer or a decimal-integer string; booleans, floats and other
strings are rejected with CodeFileFormatError.

This module imports `codes` and `errors` when it loads; `fields` and
`matrices` only when a code file is parsed, so the commands that read and
write only distributions and knowns load neither.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING, Mapping

from .codes import LinearCode, WeightDistribution
from .errors import CodeFileFormatError

if TYPE_CHECKING:
    from .fields import Field
    from .rank_census import RankCensus

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _parse_field_line(line: str) -> Field:
    from .fields import Field  # here, so that only reading a code file loads it

    parts = line.split()
    if not parts or not parts[0].startswith("q="):
        raise CodeFileFormatError(f"expected 'q=p^m' header, got {line!r}")
    spec = parts[0][2:]
    try:
        if "^" in spec:
            p_s, m_s = spec.split("^", 1)
            p, m = int(p_s), int(m_s)
        else:
            p, m = int(spec), 1
    except ValueError as e:
        raise CodeFileFormatError(f"bad field designator {spec!r}") from e
    poly = None
    for extra in parts[1:]:
        if extra.startswith("poly="):
            try:
                poly = [int(c) for c in extra[5:].split(",")]
            except ValueError as e:
                raise CodeFileFormatError(f"bad poly list {extra!r}") from e
        else:
            raise CodeFileFormatError(f"unexpected token {extra!r} in field line")
    return Field(p, m, poly)


def format_field_line(field: Field) -> str:
    line = f"q={field.p}^{field.m}"
    if field.m > 1:
        line += " poly=" + ",".join(str(c) for c in field.modulus_poly)
    return line


def parse_code_file(text: str) -> LinearCode:
    from .matrices import GFMatrix

    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:
        raise CodeFileFormatError("code file needs a field line and a size line")
    field = _parse_field_line(lines[0])
    dims = lines[1].split()
    if len(dims) != 2:
        raise CodeFileFormatError(f"expected 'n k', got {lines[1]!r}")
    try:
        n, k = int(dims[0]), int(dims[1])
    except ValueError as e:
        raise CodeFileFormatError(f"bad sizes {lines[1]!r}") from e
    if n < 1 or k < 0 or k > n:
        raise CodeFileFormatError(f"invalid sizes n={n}, k={k}")
    if len(lines) != 2 + k:
        raise CodeFileFormatError(f"expected {k} generator rows, got {len(lines) - 2}")
    rows = []
    for ln in lines[2:]:
        vals = ln.split()
        if len(vals) != n:
            raise CodeFileFormatError(f"row has {len(vals)} entries, expected {n}")
        try:
            row = [int(v) for v in vals]
        except ValueError as e:
            raise CodeFileFormatError(f"non-integer entry in row {ln!r}") from e
        if any(not 0 <= v < field.q for v in row):
            raise CodeFileFormatError(f"entry outside [0, {field.q}) in row {ln!r}")
        rows.append(row)
    return LinearCode(GFMatrix.from_rows(field, rows, cols=n))


def format_code_file(code: LinearCode) -> str:
    lines = [format_field_line(code.field), f"{code.n} {code.k}"]
    for row in code.G.entries:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def distribution_to_json(dist: WeightDistribution, extra: Mapping | None = None) -> dict:
    obj = {
        "n": dist.n,
        "k": dist.k,
        "q": dist.q,
        "A": [str(c) for c in dist.counts],
    }
    if extra:
        obj.update(extra)
    return obj


def _integer(value) -> int:
    """A JSON integer (not a boolean) or a decimal-integer string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise CodeFileFormatError(f"expected an integer or a decimal string, got {value!r}")


def distribution_from_json(obj: Mapping) -> WeightDistribution:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("A"), list):
        raise CodeFileFormatError("a distribution must be an object with a list A")
    try:
        n, k, q = (_integer(obj[key]) for key in ("n", "k", "q"))
    except KeyError as e:
        raise CodeFileFormatError(f"bad distribution object: missing {e}") from e
    counts = tuple(_integer(c) for c in obj["A"])
    if len(counts) != n + 1:
        raise CodeFileFormatError(f"A has {len(counts)} entries, expected n+1 = {n + 1}")
    return WeightDistribution(counts, q, k)


def knowns_from_json(obj) -> dict[int, int]:
    """Accept either an {"index": "value"} map or a full distribution object."""
    if not isinstance(obj, Mapping):
        raise CodeFileFormatError("knowns must be a JSON object")
    if "A" in obj:
        dist = distribution_from_json(obj)
        return {i: c for i, c in enumerate(dist.counts)}
    out = {_integer(key): _integer(val) for key, val in obj.items()}
    if any(v < 0 for v in out.values()):
        raise CodeFileFormatError("known counts must be nonnegative")
    return out


def census_to_json(census: RankCensus) -> dict:
    s, t = census.source_dims
    return {
        "nu": census.nu,
        "counts": {str(r): str(c) for r, c in sorted(census.counts.items())},
        "binom_total": str(math.comb(t, census.nu)),
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
