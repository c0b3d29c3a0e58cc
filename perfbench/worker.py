"""One workload process; started by run.py, never by hand.

Roles, each in a fresh process:
  setup   set up, report the set-up time, exit;
  main    set up, measure a closed loop of units for --seconds, check outputs;
  traced  set up, run one unit under the span tracer, then the scan side table.
The report is written as JSON to --report.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fresh_heap():
    """Collect what earlier work left unreachable, outside any timed region.

    Each unit stands for one `eeg2vol train` or `predict` process. Autodiff
    tapes are reference cycles (tensor -> tape -> node -> tensor), so a unit's
    tapes linger until the cyclic collector runs; without this, one unit's
    leftovers would inflate the next unit's memory, which a fresh process
    never sees. Cycles within a unit are left alone and show in peak_rss_mb.
    """
    gc.collect()


def measure(workload, seconds):
    """Closed loop, one client: the next unit starts when the last one ends."""
    units, failures = [], 0
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        fresh_heap()
        try:
            units.append(workload.run_unit(len(units)))
        except Exception:  # a failed unit counts against the run; stop measuring
            traceback.print_exc()
            failures += 1
            break
    return units, failures


def unit_record(unit):
    return {"items": unit.items, "wall_s": unit.wall_s, "ops": unit.ops, "output": unit.output,
            "final_loss": unit.final_loss, "eval_ssim": unit.eval_ssim,
            "latencies_s": unit.latencies_s}


def main_role(workload, seconds):
    units, failures = measure(workload, seconds)
    checks = []
    if units:
        fresh_heap()
        try:
            checks = workload.checks(units)
        except Exception:  # an output that cannot be checked fails its check
            traceback.print_exc()
            checks.append(("checks ran to completion", traceback.format_exc(limit=1)))
    latencies = [s for u in units for s in u.latencies_s]
    return {
        "units": [unit_record(u) for u in units],
        "failed_units": failures,
        "checks": checks,
        "end_to_end": {
            "items_per_s": statistics.median(u.items / u.wall_s for u in units) if units else None,
            "predict_p50_s": statistics.median(latencies) if latencies else None,
            "predict_samples": len(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_loss": units[-1].final_loss if units else None,
            "eval_ssim": units[-1].eval_ssim if units else None,
        },
    }


def traced_role(workload, seed, spans_path):
    import scan_table
    import tracing

    recorder = tracing.SpanRecorder()
    fresh_heap()
    with tracing.Tracer(recorder, tracing.eeg2vol_targets()):
        unit = workload.traced_unit(recorder)
    recorder.write_jsonl(spans_path)

    metrics = tracing.layer_metrics(recorder)
    backwards = metrics.get("autodiff.backward_calls", 0)
    for name in ("autodiff.tape_nodes", "autodiff.tape_bytes"):  # per sample
        metrics[name] = metrics.get(name, 0) / backwards if backwards else 0
    scan_metrics, worst = scan_table.scan_table(seed)
    metrics.update(scan_metrics)
    checks = [("scan modes agree to 1e-10",
               None if worst <= scan_table.AGREE_TOL else f"max |diff| {worst:.3g}")]
    if workload.scan_shapes is not None:
        seen = recorder.shapes["autodiff.linear_scan"]
        checks.append(("side-table shapes are the traced scan shapes",
                       None if seen == set(workload.scan_shapes) else f"traced {sorted(seen)}"))
    return {"traced_unit": unit_record(unit), "per_layer": metrics, "checks": checks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "main", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import machine
    import workloads

    imports_s = time.monotonic() - args.spawned_at
    workload = workloads.WORKLOADS[args.workload]()
    parts = {"imports_s": imports_s, **workload.setup(args.work, args.seed)}
    report = {"setup_s": time.monotonic() - args.spawned_at, "setup_parts": parts,
              "items_metric": workload.ITEMS_METRIC, "machine": machine.machine_info(ROOT)}
    if args.role == "main":
        report.update(main_role(workload, args.seconds))
    elif args.role == "traced":
        report.update(traced_role(workload, args.seed, args.spans))
    args.report.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
