"""Tests of the benchmark harness itself, at smoke-test sizes.

    python3 -m pytest -q bench/tests

Each test runs ``bench/run.py`` as a subprocess in a temporary directory,
the way it is run for real, and reads the JSON result from its last line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("pricing-hjb", "lq-control", "oracles-mc")


def bench(tmp_path, workload, seed, trace, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = tmp_path / ".bench_out" / f"{workload}-s{seed}-t{trace}"
    record = json.loads((out / "result.json").read_text())
    return result, record


def test_all_workloads_in_one_command(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {f"{w}/{m}" for w in WORKLOADS
                                      for m in run.END_TO_END_UNITS}
    for w in WORKLOADS:
        assert f"== {w}" in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert spec["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(tmp_path, workload):
    result, record = bench(tmp_path, workload, seed=3, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 3 and result["correct"] == (
        result["failed"] == 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.END_TO_END_UNITS
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # the tiny sizes may miss tolerances; every other metric is never 0
    assert values.pop("pass_frac") == (
        result["attempted"] - result["failed"]) / result["attempted"]
    assert all(v > 0 for v in values.values()), values
    assert record["provenance"]["worker_count"] >= 1
    assert len(record["passes"]) >= run.MIN_PASSES
    # times are the raw ones scaled by the run's reference blocks
    assert record["reference_blocks"] and record["scale"] > 0
    assert values["wall_s"] == pytest.approx(
        record["raw"]["wall_s"] * record["scale"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(tmp_path, workload):
    counts = []
    for seed in (1, 2):
        result, record = bench(tmp_path, workload, seed=seed, trace=1)
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == run.PER_LAYER_UNITS
        names = [k for k, u in run.PER_LAYER_UNITS.items() if u == "count"]
        per_pass = [{k: row[k] for k in names}
                    for row in record["per_pass_layers"]]
        assert len(per_pass) >= 2
        assert all(p == per_pass[0] for p in per_pass)
        counts.append(per_pass[0])
        assert (tmp_path / ".bench_out" / f"{workload}-s{seed}-t1"
                / "spans.csv").stat().st_size > 0
    assert counts[0] == counts[1]
    assert counts[0]["expr.calls"] > 0
    assert counts[0]["problem.lipschitz_probes"] > 0


def test_traced_pricing_sees_its_layers(tmp_path):
    result, _ = bench(tmp_path, "pricing-hjb", seed=1, trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["hjb.steps"] > 0 and m["lattice.rows"] > 0
    assert m["grids.csv_bytes"] > 0 and m["analysis.mc_path_steps"] == 0
    assert 0.0 < m["cli.pool_overlap"] <= 2.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pricing-hjb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_keeps_every_span_and_parent_across_threads():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda i: i, "leaf")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        token = tracer.begin("root")
        task = tracer.adopt(token[1], lambda: [leaf(i) for i in range(500)])
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(task) for _ in range(8)]:
                future.result(timeout=60)
        tracer.end(token)
    finally:
        sys.setswitchinterval(old)
    leaves = [s for s in tracer.spans if s[4] == "leaf"]
    assert len(leaves) == 4000
    assert len({s[1] for s in tracer.spans}) == len(tracer.spans)
    assert all(s[2] == token[1] for s in leaves)
    assert tracing.summarize(tracer.spans)["leaf"]["calls"] == 4000
