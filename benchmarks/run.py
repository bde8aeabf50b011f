"""Benchmark of weightdist, driven from outside through its public functions
and the `weightdist` command line.

    python3 benchmarks/run.py --workload enumerate --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
Workloads, metric names, units and bounds are declared in BENCHMARK.json
at the root, and the reasons behind them in benchmarks/context.json.

--trace 0 measures one workload for about --seconds seconds.  Each pass over
the workload's jobs runs in a fresh interpreter (benchmarks/workloads.py), so
no pass is served from a cache that an earlier pass filled, and each pass
gets inputs of its own from (seed, pass index).  Every pass is followed by
three runs of the workload's representative `weightdist` command, on inputs
taken in turn from six made from the seed.  It
reports medians over the run of the set-up time from interpreter start to
the first timed job, the pass time, the command time and the peak resident
memory.  Every time is scaled to a fixed machine speed by reference work
timed right around it (benchmarks/refspeed.py), because the speed of the
shared machines the benchmark runs on drifts in phases as long as a run;
the table also shows the unscaled medians.

--trace 1 makes the separate traced run.  For every workload it makes one
pass with tracing off and the same pass with spans recorded around each
call the benchmark makes into a weightdist module.  It reports the
per-layer metrics derived from the spans, whichever workload is named, so
that every traced run carries every per-layer metric.  The spans are written
once at the end to benchmarks/out/trace-<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import refspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("enumerate", "verify", "solve")
MIN_PASSES = 3
CLI_PER_PASS = 3
CLI_LOOPS = 2  # reference loops right before and right after each command
# Commands take their inputs in turn from this many, so that a run's median
# does not rest on one random code: verify commands on the codes of six
# seeds took from 0.27 to 0.35 s.
CLI_INPUTS = 6
STOP_STARTING_AFTER_S = 90.0  # no new pass after this, so a slow program still ends in time
CHILD_TIMEOUT_S = 30.0
IMPORT_REPEATS = 5


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child in the checkout and wait for it; a timeout kills it."""
    try:
        return subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{argv[1:4]} did not end within {CHILD_TIMEOUT_S} s") from e


def _workloads_py(*args) -> dict:
    spawned_at = time.monotonic()
    argv = [sys.executable, str(BENCH / "workloads.py"), *map(str, args)]
    if args[0] == "pass":
        argv.append(repr(spawned_at))
    proc = _child(argv)
    if proc.returncode != 0:
        raise BenchError(f"workloads.py {' '.join(map(str, args))} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, index: int, trace: bool) -> dict:
    out = _workloads_py("pass", workload, seed, index, int(trace))
    for failure in out["failures"]:
        print(f"failed job in {workload} pass {index}: {failure}", file=sys.stderr)
    return out


def _cli_ok(proc: subprocess.CompletedProcess, expect: dict) -> bool:
    if proc.returncode != 0:
        return False
    if "verify" in expect:
        lines = proc.stdout.splitlines()
        return ([ln.split()[:2] for ln in lines]
                == [[name, "PASS"] for name in expect["verify"]])
    obj = json.loads(proc.stdout)
    if "crosscheck" in expect:
        return (obj["agree"] is True
                and obj["pascal"]["A"] == obj["pless"]["A"] == expect["crosscheck"])
    return (obj["A"] == expect["distribution"]
            and (obj["d"], obj["d_perp"]) == (expect["d"], expect["d_perp"]))


def run_cli(case: dict) -> tuple[float, bool]:
    """One `weightdist` command, timed from spawn to exit, and its check."""
    t0 = time.perf_counter()
    proc = _child([sys.executable, "-m", "weightdist.cli", *case["args"]])
    dt = time.perf_counter() - t0
    ok = _cli_ok(proc, case["expect"])
    if not ok:
        print(f"failed command {case['args']}: {proc.stderr[-2000:]}", file=sys.stderr)
    return dt, ok


def spawn_reference() -> float:
    try:
        return refspeed.spawn()
    except (subprocess.SubprocessError, OSError) as e:
        raise BenchError(f"reference interpreter failed: {e}") from e


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import weightdist; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = _child([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise BenchError(f"import weightdist failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Closed loop of passes, each followed by CLI_PER_PASS commands, for
    `seconds`.  A reference interpreter is timed before the first pass and
    after every pass and command, and the workload's reference loop right
    before and after every command.  Set-up times are scaled by the two
    reference interpreters around them.  A command is an interpreter start
    followed by the workload's kind of work, so its time is scaled by both
    references, each weighted by its share of the command: the interpreter
    by the run's median reference interpreter time over its median command
    time, the loop by the rest."""
    kind = refspeed.WORKLOAD_KIND[workload]
    cases = _workloads_py("cli", workload, seed, OUT, CLI_INPUTS)
    samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    raw: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "cli_s": []}
    cli_refs: list[tuple[float, float]] = []  # (interpreter, loop) slowdown around each command
    attempted = failed = 0
    start = time.monotonic()
    index = 0
    ref = spawn_reference()
    while index < MIN_PASSES or time.monotonic() - start < seconds:
        if index and time.monotonic() - start > STOP_STARTING_AFTER_S:
            break
        p = run_pass(workload, seed, index, trace=False)
        ref, before = spawn_reference(), ref
        raw["setup_s"].append(p["setup_s"])
        samples["setup_s"].append(refspeed.scaled(p["setup_s"], [before, ref], refspeed.SPAWN_S))
        raw["wall_s"].append(p["wall_s"])
        samples["wall_s"].append(p["wall_scaled"])
        samples["peak_rss_mb"].append(p["peak_rss_mb"])
        attempted += p["attempted"]
        failed += p["failed"]
        for _ in range(CLI_PER_PASS):
            loops = refspeed.loop(kind, CLI_LOOPS)
            dt, ok = run_cli(cases[len(raw["cli_s"]) % CLI_INPUTS])
            loops += refspeed.loop(kind, CLI_LOOPS)
            ref, before = spawn_reference(), ref
            raw["cli_s"].append(dt)
            cli_refs.append((statistics.median([before, ref]) / refspeed.SPAWN_S,
                             statistics.median(loops) / refspeed.LOOP_S[kind]))
            attempted += 1
            failed += not ok
        index += 1
    share = min(1.0, statistics.median(s for s, _ in cli_refs) * refspeed.SPAWN_S
                / statistics.median(raw["cli_s"]))
    samples["cli_s"] = [dt / (share * s + (1 - share) * lp)
                        for dt, (s, lp) in zip(raw["cli_s"], cli_refs)]
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    return metrics, attempted, failed, {"scaled": samples, "raw": raw}


def measure_traced(seed: int) -> tuple[dict, int, int, dict]:
    metrics = {"cli.import_s": import_seconds()}
    attempted = failed = 0
    spans = {}
    for workload in WORKLOADS:
        plain = run_pass(workload, seed, 0, trace=False)
        traced = run_pass(workload, seed, 0, trace=True)
        metrics.update(traced["metrics"])
        metrics[f"{workload}.trace.overhead_frac"] = (traced["wall_scaled"]
                                                      / plain["wall_scaled"] - 1)
        spans[workload] = traced["spans"]
        attempted += plain["attempted"] + traced["attempted"]
        failed += plain["failed"] + traced["failed"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{seed}.json").write_text(json.dumps(spans))
    return metrics, attempted, failed, {}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": metadata.version("numpy")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "weightdist" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a weightdist checkout (no src/weightdist or "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            metrics, attempted, failed, samples = measure_traced(args.seed)
        else:
            metrics, attempted, failed, samples = measure(args.workload, args.seed,
                                                          args.seconds)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"declared metrics not measured: {missing}")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    mode = "traced run over every workload" if args.trace else f"workload {args.workload}"
    print(f"weightdist benchmark: {mode}, seed {args.seed}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine().items()))
    for m in declared:
        name, value = m["name"], metrics[m["name"]]
        note = ""
        if name in samples.get("scaled", {}):
            v = samples["scaled"][name]
            note = f"  median of {len(v)}; min {min(v):.6g}, max {max(v):.6g}"
            if name in samples["raw"]:
                note += f"; unscaled median {statistics.median(samples['raw'][name]):.6g}"
        print(f"  {name:<48} {value:>14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} frac"
          f"  ({failed} of {attempted} jobs)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
