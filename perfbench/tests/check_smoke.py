"""Short runs of every workload through the benchmark's command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    return result


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(run(ROOT, w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = run(ROOT, workload, 0)
    result = result_of(done)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    table = done.stdout
    for name in ("setup_s", "predict_p50_s", "peak_rss_mb", "failed_share"):
        assert f" {name} " in table
    for name in (["train_samples_per_s", "final_loss", "eval_ssim"]
                 if workload.startswith("train") else ["volumes_per_s"]):
        assert f" {name} " in table


def test_traced_runs_print_every_per_layer_metric(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    for workload, result in traced.items():
        assert list(result["metrics"]) == names, workload


def test_every_per_layer_metric_is_measured_on_some_workload(traced):
    for m in SPEC["per_layer"]:
        values = [result["metrics"][m["name"]]["value"] for result in traced.values()]
        assert any(v != 0 for v in values), m["name"]


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "train-micro", 0)
    assert done.returncode != 0
    assert done.stdout == ""
