"""eeg2vol benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-noddi --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
src/. Each workload runs in-process in a fresh worker process (closed loop,
one client, workers = 1, BLAS threads capped at nproc). With --trace 0 the
last stdout line is a JSON object holding every end-to-end metric named in
BENCHMARK.json; with --trace 1 it holds every per-layer metric, taken from
one unit run under the span tracer in a process of its own. Set-up is
repeated in SETUP_RUNS fresh processes and its median reported. Results, with a machine-info block, go to
.perfbench/results/; spans of a traced run go next to them as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from machine import BLAS_THREAD_VARS, cpu_count  # noqa: E402

WORKLOADS = ("train-noddi", "train-micro", "infer-cn-epfl")
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0


def run_worker(args, role, work, env, deadline, spans=None):
    report = work.with_suffix(".json")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--role", role, "--work", str(work), "--report", str(report),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # the worker's own output goes to stderr so stdout ends with the result line
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=deadline - time.monotonic())
    if done.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {done.returncode}")
    shutil.rmtree(work, ignore_errors=True)
    return json.loads(report.read_text())


def summary_lines(workload, rep, setup_s, failed_share):
    """Every end-to-end metric that applies to the workload, by name with its unit."""
    e2e = rep["end_to_end"]
    items_name, items_unit = rep["items_metric"]
    rows = [
        ("setup_s", setup_s, "s"),
        (items_name, e2e["items_per_s"], items_unit),
        ("predict_p50_s", e2e["predict_p50_s"], f"s (n={e2e['predict_samples']})"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
    ]
    if e2e["final_loss"] is not None:
        rows += [("final_loss", e2e["final_loss"], "-"), ("eval_ssim", e2e["eval_ssim"], "-")]
    rows.append(("failed_share", failed_share, "ratio"))
    return [f"{workload:<14} {name:<20} {value!s:<22} {unit}" for name, value, unit in rows]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "eeg2vol" / "__init__.py").is_file():
        print(f"error: no eeg2vol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **{var: str(cpu_count()) for var in BLAS_THREAD_VARS})
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setups, traced = [], None
    try:
        # set-up time is reported by untraced runs only, so traced runs skip the repeats
        for i in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
            setups.append(run_worker(args, "setup", work / f"setup{i}", env, deadline)["setup_s"])
        rep = run_worker(args, "main", work / "main", env, deadline)
        if args.trace:
            traced = run_worker(args, "traced", work / "traced", env, deadline,
                                spans=results / f"{stem}.spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(rep["setup_s"])
    setup_s = statistics.median(setups)
    checks = rep["checks"]
    if traced is not None and rep["units"]:
        unit = traced["traced_unit"]
        checks = checks + traced["checks"] + [
            ("traced run reproduces the untraced output",
             None if unit["output"] == rep["units"][0]["output"] else "outputs differ")]
        traced["per_layer"]["trace.overhead_items_per_s"] = (
            unit["items"] / unit["wall_s"] - rep["end_to_end"]["items_per_s"])
    problems = [(name, problem) for name, problem in checks if problem is not None]
    attempted = sum(u["ops"] for u in rep["units"]) + rep["failed_units"] + len(checks)
    failed = rep["failed_units"] + len(problems)
    for name, problem in problems:
        print(f"check failed: {name}: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {m["name"]: {"value": traced["per_layer"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = dict(rep["end_to_end"], setup_s=setup_s)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"] if values[m["name"]] is not None}
        if len(metrics) < len(spec["end_to_end"]):
            failed += 1

    result = {"correct": failed == 0 and bool(rep["units"]), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "result": result, "setup_runs_s": setups, "checks": checks,
         "main": rep, "traced": traced}, indent=1))
    for line in summary_lines(args.workload, rep, setup_s, failed / attempted):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
