"""Side table: `autodiff.linear_scan` forward time in both kernel modes.

The shapes are the [C, S, L] tensors the noddi-geometry decoder scans per
U-Net stage (embed 32, state 8, 64x64 plane); a traced train-noddi run checks
that these are the shapes it records.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

STAGE_SHAPES = {"L4096": (32, 8, 4096), "L1024": (64, 8, 1024), "L256": (128, 8, 256)}
MODES = ("sequential", "blocked")
AGREE_TOL = 1e-10


def scan_table(seed, repeats=5):
    """({metric: median seconds}, worst |sequential - blocked|) over STAGE_SHAPES."""
    from eeg2vol import autodiff as ad

    rng = np.random.default_rng(seed)
    metrics, worst = {}, 0.0
    for label, shape in STAGE_SHAPES.items():
        # discretized transitions lie in (0, 1), as exp(delta * A) does in s6_scan
        a = ad.Tensor(rng.uniform(0.5, 1.0, shape))
        x = ad.Tensor(0.1 * rng.standard_normal(shape))
        outputs = {}
        for mode in MODES:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                outputs[mode] = ad.linear_scan(a, x, mode=mode).data
                times.append(time.perf_counter() - t0)
            metrics[f"autodiff.scan_{mode}.{label}_s"] = statistics.median(times)
        worst = max(worst, float(np.max(np.abs(outputs["sequential"] - outputs["blocked"]))))
    return metrics, worst
