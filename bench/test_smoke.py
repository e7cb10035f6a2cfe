"""Smoke tests of the benchmark harness at tiny sizes (a few seconds).

    python -m pytest bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_mode_runs_every_workload_traced_and_untraced():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc) == {"all_correct": True}
    assert proc.stdout.count("exact-repeat counters across 2 traced reps: identical") == 4
    assert proc.stdout.count('"correct": true') == 8


def test_result_line_names_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", "feedback", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert ({k: v["unit"] for k, v in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in spec[key]})
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_run_writes_nested_spans_with_job_ids():
    proc = run_bench("--workload", "certify-n10", "--seed", "5", "--seconds", "1",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    spans = [json.loads(line) for line in
             (BENCH / "out" / "certify-n10-seed5.spans.jsonl").read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert {"cli.main", "witness.born_probabilities", "simulator.sample_counts"} <= {
        s["name"] for s in spans}
    for s in spans:
        assert s["start"] <= s["end"] and s["job"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert parent["job"] == s["job"]


def test_same_seed_repeats_counters_and_outcomes():
    first, second = (last_json(run_bench("--workload", "tomography-n3", "--seed", "9",
                                         "--seconds", "1", "--trace", "1", "--smoke"))
                     for _ in range(2))
    for name, m in first["metrics"].items():
        if m["unit"] != "s":
            assert second["metrics"][name] == m, name


def test_fails_without_result_where_only_the_benchmark_exists(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "verify-mc", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
