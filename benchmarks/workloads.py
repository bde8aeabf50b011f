"""The benchmark workloads, one pass per fresh interpreter.

A pass builds its inputs from (workload, seed, pass index), then runs its
jobs one after another: a closed loop with one client, where the next job
starts when the last one ends.  Only the jobs are timed.  After each job its
result is checked by a path that the job does not time; a job that raises or
fails its check counts as failed.  Nothing the library caches survives into
the next pass, because the next pass is a new process.  After set-up, before
a job when 0.15 s have passed since the last, and after the last job, the
pass times a reference loop of refspeed.py, outside every timed interval,
and scales each job's time to a fixed machine speed by the loops nearest
to it.

    python3 benchmarks/workloads.py pass WORKLOAD SEED PASS TRACE SPAWNED_AT
    python3 benchmarks/workloads.py cli WORKLOAD SEED OUTDIR COUNT

`src` of the checkout must be on PYTHONPATH.  SPAWNED_AT is the parent's
time.monotonic() when it started this process, so that set-up is timed from
interpreter start.  Each mode prints one JSON object as its last line.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import refspeed
import weightdist as wd
from tracing import Tracer, duration, self_times

ROOT = Path(__file__).resolve().parent.parent

# Enumeration jobs: (q, n, k, symbol layout the field uses).  Reed-Solomon
# codes have a closed-form distribution to check against; random codes are
# checked through their dual.  [32,24]_2 is the one high-rate code.
ENUMERATE_RS = ((16, 16, 6, "xor"), (9, 9, 8, "packed"), (27, 27, 5, "packed"))
ENUMERATE_RANDOM = ((2, 32, 24, "xor"), (3, 20, 14, "packed"), (3 ** 7, 8, 2, "planes"))
WORKERS2_RS = (9, 9, 8)  # traced run only, with workers=2

# `verify --which all` jobs: (q, n, k).  GF(2) and GF(q>2); balanced codes
# and a low-rate one whose H is taller than its G.
VERIFY_CODES = ((2, 16, 8), (2, 16, 4), (3, 14, 7), (4, 12, 6))
VERIFY_CLI_NK = (14, 7)  # the command's random binary code; small, so a run holds many commands

# MDS parameter sets (n, k, q) for the moment-system solves.
SOLVE_MDS = ((16, 8, 17), (24, 12, 25), (32, 16, 32), (40, 20, 41), (48, 24, 49))
SPREAD_KNOWNS = 2  # seed-chosen knowns sets per parameter set, beside the consecutive one
MINOR_MAX_R, MINOR_MAX_T = 5, 12
EXTREMAL_MAX_M = 8

REF_SAMPLES = 2  # reference loops right after set-up and after the last job
REF_EVERY_S = 0.15  # and one before a job when this long has passed since the last
DUAL_CHECK_WORDS = 1 << 20  # enumerate the dual for a check only up to this size
PARSE_REPEATS = 5

# Metrics summed over a pass; every other *_ms / *_us metric is a per-call median.
TOTALS = ("fields.build_ms", "matrices.code_build_ms")
# Work counts: layer -> metric name, summed over the timed jobs.
COUNTS = {"enumeration": "enumeration.words", "census": "census.subsets",
          "matrices": "matrices.minors"}


# ---------------------------------------------------------------------------
# checks: none of them is the path the job times
# ---------------------------------------------------------------------------

def _dual_distribution(t: Tracer, code):
    """The dual's distribution by enumerating H, or None when it is too large."""
    if code.field.q ** (code.n - code.k) > DUAL_CHECK_WORDS:
        return None
    return t.call("enumeration", code.dual().weight_distribution)


def _distribution_ok(t: Tracer, A, B) -> bool:
    """A against the dual's enumerated distribution B through MacWilliams;
    without B, A's invariants and the integrality of its MacWilliams
    transform (which raises otherwise)."""
    if B is not None:
        return t.call("codes", wd.macwilliams_transform, B).counts == A.counts
    A.validate()
    t.call("codes", wd.macwilliams_transform, A)
    return True


def _check_mds(t: Tracer, n: int, k: int, q: int, result) -> bool:
    A, P = result
    expect = t.call("closed_forms", wd.mds_distribution, n, k, q)
    return A.counts == expect.counts and (P.d, P.d_perp) == (n - k + 1, k + 1)


def _check_random(t: Tracer, code, result) -> bool:
    A, P = result
    B = _dual_distribution(t, code)
    return (B is None or P.d_perp == B.min_weight) and _distribution_ok(t, A, B)


def _check_verify(t: Tracer, code, result) -> bool:
    A, identity, pless, regime, (ap, al, agree) = result
    return (all(lhs == rhs for lhs, rhs, _ in identity) and all(pless) and all(regime)
            and agree and ap.counts == A.counts
            and _distribution_ok(t, A, _dual_distribution(t, code)))


def _check_crosscheck(A, result) -> bool:
    pascal, pless, agree = result
    return agree and pascal.counts == pless.counts == A.counts


def _check_solved(A, got) -> bool:
    return got.counts == A.counts


def _int_det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination over the integers."""
    m = [r[:] for r in rows]
    n, sign, prev = len(m), 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def _all_minors_nonzero(r: int, t: int) -> bool:
    P = [[math.comb(t - j, i) for j in range(t + 1)] for i in range(r)]
    return all(_int_det([[row[j] for j in cols] for row in P])
               for cols in itertools.combinations(range(t + 1), r))


def _check_minors(r: int, got: list[bool]) -> bool:
    return got == [_all_minors_nonzero(r, t) for t in range(r - 1, MINOR_MAX_T + 1)]


def _check_extremal(m: int, dist) -> bool:
    n, c = 24 * m, dist.counts
    return (len(c) == n + 1 and sum(c) == 2 ** (12 * m) and c[0] == 1
            and all(c[i] == c[n - i] >= 0 for i in range(n + 1))
            and not any(c[i] for i in range(1, 4 * m + 4))
            and not any(v for i, v in enumerate(c) if i % 4))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _seed_knowns(A, P) -> dict[int, int]:
    """A_0..A_{d-1} plus the next weights up to n + 1 - d_perp knowns, as
    `weightdist verify` picks them for its crosscheck."""
    knowns = {i: A.counts[i] for i in range(P.d)}
    for i in range(P.d, P.n + 1):
        if len(knowns) >= P.n + 1 - P.d_perp:
            break
        knowns[i] = A.counts[i]
    return knowns


def _enumerate_and_parameters(t: Tracer, code, layout: str):
    A = t.call("enumeration", code.weight_distribution,
               metric=f"enumeration.{layout}.mword_s", work=code.field.q ** code.k)
    P = t.call("codes", code.parameters, metric="codes.parameters_ms")
    return A, P


def _identity_all(t: Tracer, code, A, metric: str) -> list:
    return [t.call("census", wd.verify_counting_identity, code, A, nu,
                   metric=metric, work=math.comb(code.n, nu))
            for nu in range(1, code.n + 1)]


def _verify_all(t: Tracer, code, census_metric: str):
    """What `weightdist verify --which all` does: identity at every width,
    the power moments, the full-rank regime, then the crosscheck."""
    n = code.n
    A = t.call("enumeration", code.weight_distribution)
    identity = _identity_all(t, code, A, census_metric)
    B = t.call("codes", wd.macwilliams_transform, A, metric="codes.macwilliams_us")
    pless = [t.call("moments", wd.verify_pless_full, A, B, nu)[2] for nu in range(n + 1)]
    P = t.call("codes", code.parameters, metric="codes.parameters_ms")
    regime = [t.call("census", wd.check_full_rank_regime, code, nu, d_perp=P.d_perp,
                     metric="census.regime_ms")
              for nu in range(n - P.d_perp + 1, n + 1)]
    cross = t.call("moments", wd.cross_check_systems, P, _seed_knowns(A, P),
                   metric="moments.crosscheck_ms")
    return A, identity, pless, regime, cross


def _minor_sweep(t: Tracer, r: int) -> list[bool]:
    return [t.call("matrices", wd.pascal_minor_check, r, tt,
                   metric="matrices.minors_per_s", work=math.comb(tt + 1, r))
            for tt in range(r - 1, MINOR_MAX_T + 1)]


# ---------------------------------------------------------------------------
# workloads: set-up returns the pass's jobs as (name, run, check)
# ---------------------------------------------------------------------------

def _fields(t: Tracer, qs) -> dict:
    return {q: t.call("fields", wd.GF, q, metric="fields.build_ms") for q in sorted(set(qs))}


def setup_enumerate(t: Tracer, rng: random.Random) -> list:
    fields = _fields(t, [q for q, *_ in ENUMERATE_RS + ENUMERATE_RANDOM])
    jobs = []
    for q, n, k, layout in ENUMERATE_RS:
        code = t.call("matrices", wd.reed_solomon_code, fields[q], n, k,
                      metric="matrices.code_build_ms")
        jobs.append((f"rs-{n}-{k}-{q}", partial(_enumerate_and_parameters, t, code, layout),
                     partial(_check_mds, t, n, k, q)))
    for q, n, k, layout in ENUMERATE_RANDOM:
        code = t.call("matrices", wd.random_code, fields[q], n, k,
                      seed=rng.randrange(2 ** 30), metric="matrices.code_build_ms")
        jobs.append((f"random-{n}-{k}-{q}", partial(_enumerate_and_parameters, t, code, layout),
                     partial(_check_random, t, code)))
    return jobs


def setup_verify(t: Tracer, rng: random.Random) -> list:
    fields = _fields(t, [q for q, _, _ in VERIFY_CODES])
    jobs = []
    for q, n, k in VERIFY_CODES:
        code = t.call("matrices", wd.random_code, fields[q], n, k,
                      seed=rng.randrange(2 ** 30), metric="matrices.code_build_ms")
        metric = f"census.subsets_per_s.q{q}-n{n}-k{k}"
        jobs.append((f"verify-{n}-{k}-{q}", partial(_verify_all, t, code, metric),
                     partial(_check_verify, t, code)))
    return jobs


def setup_solve(t: Tracer, rng: random.Random) -> list:
    jobs = []
    for n, k, q in SOLVE_MDS:
        A = t.call("closed_forms", wd.mds_distribution, n, k, q, metric="closed_forms.mds_us")
        P = wd.CodeParameters(n=n, k=k, d=n - k + 1, d_perp=k + 1, q=q)
        S = t.call("moments", wd.build_pascal_system, P)
        need = n + 1 - P.d_perp
        consecutive = {i: A.counts[i] for i in range(need)}
        spreads = [{i: A.counts[i] for i in sorted(rng.sample(range(n + 1), need))}
                   for _ in range(SPREAD_KNOWNS)]
        for j, knowns in enumerate([consecutive] + spreads):
            jobs.append((f"crosscheck-{n}-{k}-{q}-{j}",
                         partial(t.call, "moments", wd.cross_check_systems, P, knowns,
                                 metric="moments.crosscheck_ms"),
                         partial(_check_crosscheck, A)))
        for j, knowns in enumerate(spreads):
            jobs.append((f"recover-{n}-{k}-{q}-{j}",
                         partial(t.call, "moments", wd.solve_with_knowns, S, knowns,
                                 metric="moments.recover_ms"),
                         partial(_check_solved, A)))
    for r in range(1, MINOR_MAX_R + 1):
        jobs.append((f"pascal-minors-r{r}", partial(_minor_sweep, t, r),
                     partial(_check_minors, r)))
    for m in range(1, EXTREMAL_MAX_M + 1):
        jobs.append((f"extremal-m{m}",
                     partial(t.call, "closed_forms", wd.extremal_distribution, m,
                             metric=f"closed_forms.extremal_ms.m{m}"),
                     partial(_check_extremal, m)))
    return jobs


SETUPS = {"enumerate": setup_enumerate, "verify": setup_verify, "solve": setup_solve}


# ---------------------------------------------------------------------------
# the representative `weightdist` command of each workload
# ---------------------------------------------------------------------------

def cli_case(workload: str, seed: int, index: int) -> tuple[list[str], str, dict, object]:
    """(arguments with an {input} placeholder for the input file, the file's
    text, the expected output, the object the file holds)."""
    rng = random.Random(f"{workload}/{seed}/cli/{index}")
    if workload == "solve":
        n, k, q = SOLVE_MDS[-1]
        A = wd.mds_distribution(n, k, q)
        knowns = {i: A.counts[i] for i in sorted(rng.sample(range(n + 1), n - k))}
        text = json.dumps({str(i): str(v) for i, v in knowns.items()})
        args = ["crosscheck", "--n", str(n), "--k", str(k), "--q", str(q),
                "--d", str(n - k + 1), "--dperp", str(k + 1), "--knowns", "{input}"]
        return args, text, {"crosscheck": [str(c) for c in A.counts]}, knowns
    if workload == "enumerate":
        q, n, k = WORKERS2_RS
        code = wd.reed_solomon_code(wd.GF(q), n, k)
        expect = {"distribution": [str(c) for c in wd.mds_distribution(n, k, q).counts],
                  "d": n - k + 1, "d_perp": k + 1}
        return ["enumerate", "{input}"], wd.format_code_file(code), expect, code
    code = wd.random_code(wd.GF(2), *VERIFY_CLI_NK, seed=rng.randrange(2 ** 30))
    expect = {"verify": ["identity", "pless", "regime", "crosscheck"]}
    return ["verify", "{input}", "--which", "all"], wd.format_code_file(code), expect, code


def _parse(t: Tracer, workload: str, seed: int) -> bool:
    """Time the parse of the workload's CLI input, as the CLI does it."""
    _, text, _, original = cli_case(workload, seed, 0)
    ok = True
    for _ in range(PARSE_REPEATS):
        if workload == "solve":
            got = t.call("fileio", wd.knowns_from_json, json.loads(text),
                         metric="fileio.parse_ms")
            ok &= got == original
        else:
            got = t.call("fileio", wd.parse_code_file, text, metric="fileio.parse_ms")
            ok &= got.G.entries == original.G.entries
    return ok


def _workers2(t: Tracer) -> bool:
    q, n, k = WORKERS2_RS
    code = wd.reed_solomon_code(wd.GF(q), n, k)
    got = t.call("enumeration", wd.weight_histogram, code.G, workers=2,
                 metric="enumeration.workers2.mword_s", work=q ** k)
    return tuple(got) == wd.mds_distribution(n, k, q).counts


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced pass
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans outside the checks: self seconds per
    layer, work counts, rates (work over time) and per-call times."""
    out: dict[str, float] = {}
    for layer, secs in self_times([s for s in spans
                                   if s["phase"] in ("setup", "job", "parse")]).items():
        if layer != "job":
            out[f"{layer}.self_s"] = secs
    for layer, name in COUNTS.items():
        work = [s["work"] for s in spans
                if s["phase"] == "job" and s["layer"] == layer and s["work"]]
        if work:
            out[name] = sum(work)
    by_metric: dict[str, list[dict]] = {}
    for s in spans:
        if s["metric"] and s["phase"] != "check":
            by_metric.setdefault(s["metric"], []).append(s)
    for name, group in by_metric.items():
        secs = [duration(s) for s in group]
        if name.endswith(".mword_s"):
            out[name] = sum(s["work"] for s in group) / sum(secs) / 1e6
        elif "_per_s" in name:
            out[name] = sum(s["work"] for s in group) / sum(secs)
        else:  # *_ms or *_us, possibly followed by a qualifier such as ".m3"
            agg = sum(secs) if name in TOTALS else statistics.median(secs)
            out[name] = agg * (1e6 if name.endswith("_us") else 1e3)
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_pass(workload: str, seed: int, index: int, trace: bool, spawned_at: float) -> dict:
    t = Tracer(trace)
    jobs = SETUPS[workload](t, random.Random(f"{workload}/{seed}/{index}"))
    setup_s = time.monotonic() - spawned_at
    kind = refspeed.WORKLOAD_KIND[workload]
    ref: list[tuple[float, float]] = []  # (start, seconds) of each reference loop
    timed: list[tuple[float, float]] = []  # (start, seconds) of each job

    def reference(times: int) -> None:
        for _ in range(times):
            ref.append((time.perf_counter(), refspeed.loop(kind)[0]))

    reference(REF_SAMPLES)
    failures = []
    for name, run, check in jobs:
        if time.perf_counter() - ref[-1][0] >= REF_EVERY_S:
            reference(1)
        t.job, t.phase = name, "job"
        t0 = time.perf_counter()
        try:
            with t.span(name, "job"):
                result = run()
        except Exception:  # a job that raises is a failed job, not a failed run
            timed.append((t0, time.perf_counter() - t0))
            failures.append(f"{name}: {traceback.format_exc(limit=3)}")
            continue
        timed.append((t0, time.perf_counter() - t0))
        t.phase = "check"
        try:
            ok = check(result)
        except Exception:
            ok = False
        if not ok:
            failures.append(f"{name}: wrong result")
    reference(REF_SAMPLES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out = {"pid": os.getpid(), "setup_s": setup_s, "wall_s": sum(dt for _, dt in timed),
           "wall_scaled": refspeed.scaled_jobs(timed, ref, refspeed.LOOP_S[kind]),
           "peak_rss_mb": rss_mb, "attempted": len(jobs), "failed": len(failures),
           "failures": failures}
    if trace:
        extras = [("parse", partial(_parse, t, workload, seed))]
        if workload == "enumerate":
            extras.append(("workers2", partial(_workers2, t)))
        for phase, extra in extras:
            t.job = t.phase = phase
            out["attempted"] += 1
            if not extra():
                out["failed"] += 1
                failures.append(f"{phase}: wrong result")
        out["metrics"] = {f"{workload}.{k}": v for k, v in layer_metrics(t.spans).items()}
        out["spans"] = t.spans
    return out


def write_cli_inputs(workload: str, seed: int, outdir: Path, count: int) -> list[dict]:
    """`count` commands, each with an input file of its own."""
    outdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for index in range(count):
        args, text, expect, _ = cli_case(workload, seed, index)
        path = outdir / f"{workload}-{seed}-input-{index}.txt"
        path.write_text(text)
        cases.append({"args": [a.format(input=path) for a in args], "expect": expect})
    return cases


def main(argv: list[str]) -> int:
    src = ROOT / "src" / "weightdist"
    if Path(wd.__file__).resolve().parent != src:
        print(f"weightdist imported from {wd.__file__}, not {src}", file=sys.stderr)
        return 2
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "pass":
        out = run_pass(workload, seed, int(argv[3]), argv[4] == "1", float(argv[5]))
    else:
        out = write_cli_inputs(workload, seed, Path(argv[3]), int(argv[4]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
