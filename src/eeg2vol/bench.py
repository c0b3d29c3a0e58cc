"""Throughput comparison of the scan kernels and full-model forward latency."""

from __future__ import annotations

import time
import zlib

import numpy as np

from . import autodiff as ad
from .decoder import S6Params, s6_scan
from .model import Model, ModelConfig
from .presets import DATASET_PRESETS, preset_config

SCAN_LENGTHS = (256, 1024, 4096)


def _make_params(channels, state, rng):
    return S6Params(
        a_log=ad.Tensor(np.log(np.tile(np.arange(1.0, state + 1.0), (channels, 1)))),
        w_delta=ad.Tensor(rng.standard_normal((channels, channels)) * 0.1),
        b_delta=ad.Tensor(np.zeros(channels)),
        w_b=ad.Tensor(rng.standard_normal((state, channels)) * 0.1),
        w_c=ad.Tensor(rng.standard_normal((state, channels)) * 0.1),
        d_skip=ad.Tensor(np.ones(channels)),
    )


def _checksum(array):
    return f"{zlib.crc32(np.ascontiguousarray(array).tobytes()):08x}"


def bench_scan(channels=32, state=8, seed=0, repeats=3):
    """Rows: (L, seq tokens/s, blocked tokens/s, checksum_seq, checksum_blk)."""
    rng = np.random.default_rng(seed)
    params = _make_params(channels, state, rng)
    rows = []
    for length in SCAN_LENGTHS:
        u = ad.Tensor(rng.standard_normal((channels, length)) * 0.5)
        timings = {}
        outputs = {}
        for mode in ("sequential", "blocked"):
            best = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                y = s6_scan(u, params, mode=mode)
                best = min(best, time.perf_counter() - t0)
            timings[mode] = best
            outputs[mode] = y.data
        rows.append(
            {
                "length": length,
                "sequential_tok_s": length / timings["sequential"],
                "blocked_tok_s": length / timings["blocked"],
                "checksum_sequential": _checksum(np.round(outputs["sequential"], 8)),
                "checksum_blocked": _checksum(np.round(outputs["blocked"], 8)),
                "max_abs_diff": float(
                    np.max(np.abs(outputs["sequential"] - outputs["blocked"]))
                ),
            }
        )
    return rows


def bench_forward(seed=0):
    """Full-model forward latency for the three benchmark geometries."""
    rows = []
    for name in sorted(DATASET_PRESETS):
        mcfg = ModelConfig.from_run_config(preset_config(name))
        model = Model(mcfg, seed=seed)
        rng = np.random.default_rng(seed)
        c, t, f = mcfg.geometry[:3]
        x = rng.random((c, t, f))
        t0 = time.perf_counter()
        model.predict(x)
        rows.append(
            {"dataset": name, "geometry": mcfg.geometry, "forward_s": time.perf_counter() - t0}
        )
    return rows


def run_bench(seed=0, include_forward=True):
    lines = ["kind, key, sequential_tok_s, blocked_tok_s, checksum_equal, max_abs_diff"]
    for row in bench_scan(seed=seed):
        equal = row["checksum_sequential"] == row["checksum_blocked"]
        lines.append(
            f"scan, {row['length']}, {row['sequential_tok_s']:.1f}, "
            f"{row['blocked_tok_s']:.1f}, {equal}, {row['max_abs_diff']:.3e}"
        )
    if include_forward:
        for row in bench_forward(seed=seed):
            geom = "x".join(str(v) for v in row["geometry"])
            lines.append(f"forward, {row['dataset']} ({geom}), -, -, -, {row['forward_s']:.3f}s")
    return lines
