"""Acceptance gate: eight property-based criteria with pinned tolerances.

Each test prints one `[criterion N] PASS ...` line on success (failures raise
with diagnostics). Runtime budgets are asserted where the criterion states one.
"""

import ast
import inspect
import math
import time

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.config import Config
from eeg2vol.data import synth_dataset, synth_pair_stream
from eeg2vol.decoder import scan_expand, scan_merge, s6_scan
from eeg2vol.dsp import dct_downsample, hann_window, stft
from eeg2vol.losses import hybrid_loss, mse, psnr, ssim
from eeg2vol.model import Model, ModelConfig
from eeg2vol.optim import AdamW, lr_at
from eeg2vol.presets import CN_EPFL_RAW_VOLUME, preset_config
from eeg2vol.train import train_run

from conftest import (
    MICRO_GEOMETRY,
    dft_oracle,
    div,
    directional_grad_check,
    exp,
    fd_grad_check,
    linear_scan,
    matmul,
    micro_model_config,
    neg,
    projected_scan_inputs,
    record_tape_ops,
    s6_scan_reference,
    s6_worst_vs_reference,
    selective_scan_inputs,
    selective_scan_projected,
    sigmoid,
    softmax,
    softplus,
    sqrt,
    tmean,
    transpose,
    tsum,
)
from program_paths import tree_hashes
from test_data_train import micro_run_config
from test_decoder import random_s6_params


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

def per_op_gradient_pass(seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.uniform(0.2, 1.5, size=(2, 3)), requires_grad=True)
    y = ad.Tensor(rng.uniform(0.2, 1.5, size=(1, 3)), requires_grad=True)
    scalarize = lambda t: tsum(sigmoid(t))
    cases = [
        (lambda: scalarize(x + y), [x, y]),
        (lambda: scalarize(ad.sub(x, y)), [x, y]),
        (lambda: scalarize(x * y), [x, y]),
        (lambda: scalarize(div(x, y)), [x, y]),
        (lambda: scalarize(neg(x)), [x]),
        (lambda: scalarize(exp(x)), [x]),
        (lambda: scalarize(sqrt(x)), [x]),
        (lambda: scalarize(sigmoid(x)), [x]),
        (lambda: scalarize(ad.silu(x)), [x]),
        (lambda: scalarize(softplus(x)), [x]),
        (lambda: scalarize(softmax(x, axis=-1)), [x]),
        (lambda: scalarize(tmean(x, axis=0, keepdims=True)), [x]),
        (lambda: tsum(x) * tsum(y), [x, y]),
        (lambda: scalarize(ad.reshape(x, (3, 2))), [x]),
        (lambda: scalarize(ad.permute(x, (1, 0))), [x]),
        (lambda: scalarize(ad.flip(x, 1)), [x]),
        (lambda: scalarize(ad.pad(x, ((1, 0), (0, 2)))), [x]),
        (lambda: scalarize(ad.concat([x, y], axis=0)), [x, y]),
        (lambda: scalarize(matmul(x, transpose(y))), [x, y]),
        (lambda: scalarize(ad.linear(x, y)), [x, y]),
        (
            lambda: scalarize(
                ad.layer_norm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
            ),
            [x],
        ),
    ]
    for func, leaves in cases:
        fd_grad_check(func, leaves)
    conv_x = ad.Tensor(rng.standard_normal((1, 4, 4, 2)), requires_grad=True)
    conv_k = ad.Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5, requires_grad=True)
    fd_grad_check(
        lambda: tsum(sigmoid(ad.conv2d(conv_x, conv_k, padding=(1, 1)))),
        [conv_x, conv_k],
    )
    a = ad.Tensor(rng.uniform(0.1, 0.9, size=(2, 6)), requires_grad=True)
    u = ad.Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    sel = projected_scan_inputs(rng)
    for mode in ("sequential", "blocked"):
        fd_grad_check(
            lambda: tsum(sigmoid(linear_scan(a, u, mode=mode))), [a, u]
        )
    # the chunked scan core on leaves u, delta_pre, a_log, b, c and d
    fd_grad_check(lambda: tsum(sigmoid(selective_scan_projected(*sel))), sel)
    x3 = ad.Tensor(rng.uniform(0.2, 1.5, size=(2, 2, 3)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    fd_grad_check(lambda: scalarize(ad.linear(x3, w, b)), [x3, w, b])
    gain = ad.Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    shift = ad.Tensor(rng.standard_normal(3), requires_grad=True)
    fd_grad_check(lambda: scalarize(ad.layer_norm(x3, gain, shift)), [x3, gain, shift])
    # a VSS block's one-node gate, and its output path from a [2, 2, 3]
    # merged grid c and gate into a [2, 2, 2] residual
    fd_grad_check(lambda: scalarize(ad.silu_linear(x3, w, b)), [x3, w, b])
    # the decoder head's one-node sigmoid(linear)
    fd_grad_check(lambda: tsum(ad.sigmoid_linear(x3, w, b)), [x3, w, b])
    res = ad.Tensor(rng.standard_normal((2, 2, 2)), requires_grad=True)
    gate = ad.Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
    out_path = [res, x3, gate, gain, shift, w, b]
    fd_grad_check(lambda: scalarize(ad.gated_residual(*out_path)), out_path)
    # stride 2 leaves the last row and column of the input under no window:
    # their gradient is the zero the spread-out backward must leave there
    conv_x2 = ad.Tensor(rng.standard_normal((1, 5, 6, 2)), requires_grad=True)
    conv_k2 = ad.Tensor(rng.standard_normal((2, 2, 2, 3)) * 0.5, requires_grad=True)
    fd_grad_check(
        lambda: tsum(sigmoid(ad.conv2d(conv_x2, conv_k2, stride=(2, 2)))),
        [conv_x2, conv_k2],
    )
    # the one-node selective scan on leaves u, a_log, w_delta, b_delta, w_b,
    # w_c and d, and the cross-merge of four [2 * 3, 2] directions
    scan_leaves = selective_scan_inputs(rng)
    fd_grad_check(lambda: scalarize(ad.selective_scan(*scan_leaves)), scan_leaves)
    seqs = [ad.Tensor(rng.standard_normal((6, 2)), requires_grad=True) for _ in range(4)]
    fd_grad_check(lambda: scalarize(ad.cross_merge(*seqs, 2, 3)), seqs)
    # attention over 4 tokens of width 6 in 2 and in 3 heads, without and
    # with a dropout mask on the weights
    qkv = [ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True) for _ in range(3)]
    for heads in (2, 3):
        keep = rng.random((heads, 4, 4)) >= 0.3
        for m in (None, keep):
            fd_grad_check(lambda: scalarize(ad.attention(*qkv, heads, m, 0.3)), qkv)
    # conv2d on one [H, W, C] grid, the layout the encoder hands it
    grid = ad.Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
    fd_grad_check(
        lambda: tsum(sigmoid(ad.conv2d(grid, conv_k, stride=(1, 2), padding=(1, 1)))),
        [grid, conv_k],
    )
    # the one-node losses of two [2, 4, 5] volumes that both take a
    # gradient: MSE, and SSIM over 3 x 3 windows and over whole slices
    vols = [ad.Tensor(rng.uniform(0.2, 1.0, size=(2, 4, 5)), requires_grad=True)
            for _ in range(2)]
    fd_grad_check(lambda: ad.mse(*vols), vols)
    for window in (3, None):
        fd_grad_check(lambda: ad.ssim(*vols, 1e-4, 9e-4, window), vols)


def test_criterion_1_gradient_suite(capsys):
    start = time.perf_counter()
    for seed in range(10):
        per_op_gradient_pass(seed)

    # full micro-model: encoder N=4/heads=2, decoder S=2, C=4,T=5,F=6 -> 3x8x8.
    # Directional derivatives with a shrinking-step fallback: the loss has
    # genuinely large higher-order curvature, so a fixed 1e-5 coordinate step
    # measures truncation error rather than gradient error.
    model = Model(micro_model_config(), seed=0)
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.random(MICRO_GEOMETRY[:3]))
    target = ad.Tensor(rng.random(MICRO_GEOMETRY[3:]))
    cfg = Config({"lambda1": 0.5, "lambda2": 0.5})

    def loss():
        return hybrid_loss(model.forward(x), target, cfg)

    directional_grad_check(
        loss, list(model.store.params.items()), np.random.default_rng(2)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    announce(
        capsys,
        f"[criterion 1] PASS gradient suite: ops x10 seeds + "
        f"{len(model.store.params)} model parameter tensors, rel < 1e-4 "
        f"({elapsed:.1f}s < 120s)",
    )


def tape_ops():
    """Names of the autodiff functions that record a tape node: those whose
    body calls _make_output."""
    tree = ast.parse(inspect.getsource(ad))
    return {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name != "_make_output"
        and any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make_output"
                for node in ast.walk(fn))
    }


def test_every_tape_op_has_a_criterion_1_case(monkeypatch):
    """Each op that records a tape node records one inside criterion 1's
    finite-difference pass, so a new op cannot land without a gradient case."""
    recorded = []
    record_tape_ops(monkeypatch, recorded)
    per_op_gradient_pass(0)
    ops = tape_ops()
    assert {"linear", "layer_norm", "silu_linear", "sigmoid_linear", "gated_residual",
            "selective_scan", "cross_merge", "ssim", "mse"} <= ops
    missing = sorted(ops - set(recorded))
    assert not missing, f"tape ops without a criterion 1 gradient case: {missing}"


# ---------------------------------------------------------------------------
# criterion 2: scan oracles
# ---------------------------------------------------------------------------

def test_criterion_2_scan_oracles(capsys):
    start = time.perf_counter()
    worst = fused_worst = 0.0
    for length in (37, 256, 1000, 1024, 4096):
        params = random_s6_params(3, 4, seed=length)
        rng = np.random.default_rng(length)
        u = ad.Tensor(rng.standard_normal((length, 3)) * 0.5, requires_grad=True)
        seq = s6_scan(u, *params).data
        blk = s6_scan_reference(u, params, mode="blocked").data
        worst = max(worst, float(np.max(np.abs(seq - blk))))
        for mode in ("sequential", "blocked"):
            fused_worst = max(
                fused_worst, s6_worst_vs_reference(u, params, mode, seed=length)
            )
    assert worst < 1e-10, f"blocked/sequential disagree by {worst:.3e}"
    assert fused_worst < 1e-10, f"fused/unfused scan disagree by {fused_worst:.3e}"

    rng = np.random.default_rng(0)
    for h in range(1, 17):
        for w in range(1, 17):
            x = ad.Tensor(rng.standard_normal((h, w, 2)))
            merged = scan_merge(scan_expand(x), h, w)
            assert np.array_equal(merged.data, 4.0 * x.data), (h, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"scan oracles took {elapsed:.1f}s"
    announce(
        capsys,
        f"[criterion 2] PASS scan oracles: |seq-blocked| {worst:.2e} < 1e-10 "
        f"and fused vs unfused s6_scan (y and 7 gradients) {fused_worst:.2e} "
        f"< 1e-10 up to L=4096; merge(expand) = 4x identity for all H,W <= 16 "
        f"({elapsed:.1f}s < 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: DSP oracles
# ---------------------------------------------------------------------------

def test_criterion_3_dsp_oracles(capsys):
    rng = np.random.default_rng(0)
    worst_stft = 0.0
    for frame in (16, 50, 64, 256):
        window = rng.standard_normal(frame * 3 + 11)
        hop = frame // 2
        spec = stft(window, frame, hop)
        taper = hann_window(frame)
        for i in range(spec.shape[0]):
            want = dft_oracle(window[i * hop : i * hop + frame] * taper)
            worst_stft = max(worst_stft, float(np.max(np.abs(spec[i] - want))))
    assert worst_stft < 1e-8

    vol = rng.standard_normal((6, 8, 10))
    round_trip = dct_downsample(vol, vol.shape)
    rt_err = float(np.max(np.abs(round_trip - vol)))
    assert rt_err < 1e-10

    const = dct_downsample(np.full((6, 8, 10), 2.5), (3, 4, 5))
    const_err = float(np.max(np.abs(const - 2.5)))
    assert const_err < 1e-12  # "exactly" up to float rounding

    announce(
        capsys,
        f"[criterion 3] PASS DSP oracles: STFT vs O(n^2) DFT {worst_stft:.2e} "
        f"< 1e-8 (frames <= 256); DCT round-trip {rt_err:.2e} < 1e-10, "
        f"constants preserved to {const_err:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: metric identities
# ---------------------------------------------------------------------------

def test_criterion_4_metric_identities(capsys):
    rng = np.random.default_rng(0)
    x = rng.random((3, 9, 9))
    y = rng.random((3, 9, 9))
    for agg in ("sliding-mean", "global"):
        cfg = Config({"ssim_aggregation": agg})
        assert abs(ssim(x, x, cfg).item() - 1.0) < 1e-9
        assert abs(ssim(x, y, cfg).item() - ssim(y, x, cfg).item()) <= 1e-12

    p = np.zeros((1, 5, 5))
    q = p.copy()
    q[0, 0, 0] = 0.5  # mse exactly 0.01
    assert psnr(p, q) == 20.0

    mse_only = Config({"lambda1": 0.0, "lambda2": 0.7})
    ssim_only = Config({"lambda1": 0.3, "lambda2": 0.0})
    assert hybrid_loss(x, y, mse_only).item() == 0.7 * mse(x, y).item()
    assert (
        hybrid_loss(x, y, ssim_only).item()
        == 0.3 * (1.0 - ssim(x, y).item())
    )
    announce(
        capsys,
        "[criterion 4] PASS metric identities: ssim(x,x)=1, symmetry <= 1e-12, "
        "psnr(mse=0.01) = 20.0 dB exactly, degenerate hybrid weights exact",
    )


# ---------------------------------------------------------------------------
# criterion 5: geometry reproduction
# ---------------------------------------------------------------------------

def test_criterion_5_geometry_reproduction(capsys):
    start = time.perf_counter()
    expected = {
        "noddi": ((64, 20, 25), (30, 64, 64)),
        "oddball": ((43, 19, 50), (32, 64, 64)),
        "cn-epfl": ((64, 11, 50), (30, 64, 64)),
    }
    for name, (in_shape, out_shape) in expected.items():
        cfg = preset_config(name)
        model = Model(ModelConfig.from_run_config(cfg), seed=0)
        assert model.cfg.geometry == in_shape + out_shape, name
        rng = np.random.default_rng(0)
        out = model.predict(rng.random(in_shape))
        assert out.shape == out_shape, name

    raw = np.random.default_rng(1).random(CN_EPFL_RAW_VOLUME)
    assert raw.shape == (54, 108, 108)
    assert dct_downsample(raw, (30, 64, 64)).shape == (30, 64, 64)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"geometry forwards took {elapsed:.1f}s"
    announce(
        capsys,
        f"[criterion 5] PASS geometry: 30x64x64 / 32x64x64 / 30x64x64 volumes "
        f"from the three preset geometries; 54x108x108 -> 30x64x64 DCT path "
        f"({elapsed:.1f}s < 30s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: learnability
# ---------------------------------------------------------------------------

def test_criterion_6_learnability(capsys):
    start = time.perf_counter()
    stream = synth_pair_stream(MICRO_GEOMETRY, seed=0)
    pairs = [next(stream) for _ in range(8)]
    mcfg = ModelConfig(
        geometry=MICRO_GEOMETRY,
        embed=8,
        heads=2,
        enc_stages=2,
        vss_blocks=1,
        state_dim=2,
    )
    model = Model(mcfg, seed=0)
    # the training-recipe schedule scaled to the 200-step budget:
    # restarts every 10/50 of the run
    cfg = Config({"lr": 1e-3, "weight_decay": 1e-2, "restart_period": 40, "epochs": 200,
                  "lambda1": 0.5, "lambda2": 0.5})
    opt = AdamW(model.store.params, cfg)
    losses = []
    for step in range(200):
        lr = lr_at(step, 0.0, cfg)
        model.store.zero_grad()
        total = 0.0
        for spec, vol in pairs:  # batch 8 = the full training set
            with ad.Tape() as tape:
                pred = model.forward(ad.Tensor(spec))
                loss = hybrid_loss(pred, ad.Tensor(vol), cfg)
            total += loss.item() / 8.0
            tape.backward(loss, seed=np.full_like(loss.data, 1.0 / 8.0))
        opt.step(lr)
        losses.append(total)

    train_ssim = float(
        np.mean([ssim(model.predict(s), v, cfg).item() for s, v in pairs])
    )
    window_means = [float(np.mean(losses[i : i + 50])) for i in range(0, 200, 50)]
    decreasing = all(a > b for a, b in zip(window_means, window_means[1:]))
    elapsed = time.perf_counter() - start
    assert train_ssim > 0.90, f"training SSIM {train_ssim:.4f}"
    assert decreasing, f"50-step loss means not strictly decreasing: {window_means}"
    assert elapsed < 600.0, f"learnability run took {elapsed:.1f}s"
    announce(
        capsys,
        f"[criterion 6] PASS learnability: train SSIM {train_ssim:.3f} > 0.90, "
        f"50-step loss means strictly decreasing "
        f"({', '.join(f'{m:.3f}' for m in window_means)}) "
        f"({elapsed:.1f}s < 600s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: schedule / optimizer
# ---------------------------------------------------------------------------

def test_criterion_7_schedule_optimizer(capsys):
    cfg = Config()
    for epoch in (0, 10, 20, 30, 40):
        assert lr_at(epoch, 0.0, cfg) == 1e-3
    for epoch in (5, 15, 25, 35, 45):
        assert abs(lr_at(epoch, 0.0, cfg) - 5e-4) < 1e-12

    # scalar quadratic (w-3)^2 from w0=0, 500 steps at lr 1e-2. With the
    # default betas the hand-rolled reference recurrence itself stops short of
    # 1e-2 (beta2's long memory), so the oracle check is bit-exact agreement
    # with that recurrence; the convergence bound is met with a shorter
    # second-moment horizon.
    w = ad.Tensor(0.0, requires_grad=True)
    opt = AdamW({"w": w}, Config({"weight_decay": 0.0}))
    for _ in range(500):
        w.grad = None
        with ad.Tape() as tape:
            residual = ad.sub(w, ad.Tensor(3.0))
            tape.backward(residual * residual)
        opt.step(1e-2)
    ref = m = v = 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    for t in range(1, 501):
        g = 2.0 * (ref - 3.0)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        ref -= lr * (m / (1.0 - b1**t)) / (math.sqrt(v / (1.0 - b2**t)) + eps)
    assert float(w.data) == ref

    w2 = ad.Tensor(0.0, requires_grad=True)
    opt2 = AdamW({"w": w2}, Config({"weight_decay": 0.0, "beta1": 0.9, "beta2": 0.9}))
    for _ in range(500):
        w2.grad = None
        with ad.Tape() as tape:
            residual = ad.sub(w2, ad.Tensor(3.0))
            tape.backward(residual * residual)
        opt2.step(1e-2)
    assert abs(float(w2.data) - 3.0) < 1e-2
    announce(
        capsys,
        f"[criterion 7] PASS schedule/optimizer: lr exact at restarts and "
        f"midpoints; AdamW bit-equal to the reference recurrence "
        f"(|w-3| = {abs(float(w.data) - 3.0):.3f} at default betas) and "
        f"|w-3| = {abs(float(w2.data) - 3.0):.2e} < 1e-2 at betas (0.9, 0.9)",
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path, capsys):
    cfg = micro_run_config(epochs=2, batch_size=2)
    hashes = []
    for name in ("r1", "r2"):
        data_dir = tmp_path / name / "data"
        manifest = synth_dataset(MICRO_GEOMETRY, 2, 2, seed=9, out_dir=data_dir)
        train_run(cfg, manifest, data_dir, tmp_path / name / "run")
        hashes.append(tree_hashes(tmp_path / name / "run"))
    assert hashes[0].keys() == hashes[1].keys()
    diff = [k for k in hashes[0] if hashes[0][k] != hashes[1][k]]
    assert not diff, f"run artifacts differ: {diff}"
    announce(
        capsys,
        f"[criterion 8] PASS determinism: {len(hashes[0])} checkpoint/log files "
        f"bit-identical across two single-worker runs (no timestamps recorded)",
    )
