"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import refspeed  # noqa: E402
import run  # noqa: E402
import weightdist as wd  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_second_pass_still_does_the_census_work():
    first = run.run_pass("verify", 0, 0, trace=True)
    second = run.run_pass("verify", 0, 1, trace=True)
    assert first["pid"] != second["pid"]  # each pass is a fresh interpreter
    assert first["failed"] == second["failed"] == 0
    census = [p["metrics"]["verify.census.self_s"] for p in (first, second)]
    subsets = [p["metrics"]["verify.census.subsets"] for p in (first, second)]
    assert subsets[0] == subsets[1] > 0
    # a census served from a cache takes microseconds; the real one is the
    # bulk of the pass
    assert census[1] > 0.5 * census[0]
    assert census[1] > 0.5 * second["wall_s"]


def test_self_time_excludes_children():
    t = Tracer(True)
    with t.span("outer", "a"):
        t.call("b", sum, range(100000))
        t.call("b", sum, range(100000))
    times = self_times(t.spans)
    outer = t.spans[0]["end"] - t.spans[0]["start"]
    assert abs(times["a"] + times["b"] - outer) < 1e-9
    assert [s["parent"] for s in t.spans] == [None, 0, 0]


def test_checks_reject_wrong_results():
    t = Tracer(False)
    code = wd.reed_solomon_code(wd.GF(5), 5, 2)
    A, P = workloads._enumerate_and_parameters(t, code, "packed")
    assert workloads._check_mds(t, 5, 2, 5, (A, P))
    counts = list(A.counts)
    counts[4], counts[5] = counts[4] + 1, counts[5] - 1
    wrong = wd.WeightDistribution(tuple(counts), 5, 2)
    assert not workloads._check_mds(t, 5, 2, 5, (wrong, P))
    assert not workloads._distribution_ok(t, wrong, workloads._dual_distribution(t, code))

    ext = wd.extremal_distribution(1)
    assert workloads._check_extremal(1, ext)
    counts = list(ext.counts)
    counts[8], counts[12] = counts[8] + 1, counts[12] - 1
    assert not workloads._check_extremal(1, wd.WeightDistribution(tuple(counts), 2, 12))

    assert workloads._int_det([[2, 4], [1, 2]]) == 0
    assert workloads._int_det([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3
    assert workloads._check_minors(2, [True] * 12)
    assert not workloads._check_minors(2, [True] * 11 + [False])


def test_result_line_names_every_declared_metric():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "verify",
                           "--seed", "5", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * (len(workloads.VERIFY_CODES) + run.CLI_PER_PASS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_time_follows_the_reference():
    nominal = refspeed.LOOP_S["rank"]
    assert refspeed.scaled(2.0, [nominal] * 3, nominal) == 2.0
    # the machine ran at half speed around the interval: half the time counts
    assert refspeed.scaled(2.0, [nominal, 2 * nominal, 3 * nominal], nominal) == 1.0
    for kind in refspeed.LOOP_S:
        assert all(t > 0 for t in refspeed.loop(kind, 2))


def test_commands_take_inputs_of_their_own(tmp_path):
    cases = workloads.write_cli_inputs("verify", 3, tmp_path, 3)
    texts = {Path(case["args"][1]).read_text() for case in cases}
    assert len(texts) == 3
