"""Encoder: projection, local/global blocks, frequency down-sampling, padding.

The encoder works on channel-last [T, F, C] grids."""

from dataclasses import replace

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.encoder import Encoder
from eeg2vol.errors import ConfigError, DimensionError
from eeg2vol.model import ModelConfig
from eeg2vol.presets import DATASET_PRESETS, preset_config

from conftest import conv2d_oracle, fd_grad_check, sigmoid, tmean, tsum


def make_encoder(in_channels=2, embed=4, heads=2, stages=2, plane=(8, 8), seed=0):
    # the tests feed their own [T, F, C] grids; F = 2^stages just passes the config
    cfg = ModelConfig(
        (in_channels, 1, 2**stages, 1) + plane, embed=embed, heads=heads, enc_stages=stages
    )
    return Encoder(cfg, np.random.default_rng(seed))


def np_channel_ln(tokens, gain, shift, eps=1e-5):
    mu = tokens.mean(axis=-1, keepdims=True)
    var = ((tokens - mu) ** 2).mean(axis=-1, keepdims=True)
    return (tokens - mu) / np.sqrt(var + eps) * gain + shift


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_combinations():
    geometry = (2, 1, 4, 1, 8, 8)
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(geometry, embed=6, heads=4)
    with pytest.raises(ConfigError, match="stage"):
        ModelConfig(geometry, enc_stages=0)
    with pytest.raises(ConfigError, match="dropout"):
        ModelConfig(geometry, attention_dropout=1.0)


def test_config_rejects_geometry_the_encoder_cannot_fit():
    """The encoder keeps T and maps F to ceil(F/2) per stage, which needs
    F >= 2; the encoded T x F plane must fit H x W. The three presets fit."""
    with pytest.raises(ConfigError, match="f_bins = 1 is too few for 2 encoder stages"):
        ModelConfig((2, 4, 1, 1, 8, 8))
    with pytest.raises(ConfigError, match="f_bins = 4 is too few for 3 encoder stages"):
        ModelConfig((2, 4, 4, 1, 8, 8), enc_stages=3)
    with pytest.raises(ConfigError, match="encoded plane 9x1 exceeds target 8x8"):
        ModelConfig((2, 9, 4, 1, 8, 8))
    with pytest.raises(ConfigError, match="encoded plane 8x9 exceeds target 8x8"):
        ModelConfig((2, 8, 33, 1, 8, 8))  # 33 -> 17 -> 9
    ModelConfig((2, 8, 32, 1, 8, 8))  # 32 -> 16 -> 8 fills the plane
    for name in DATASET_PRESETS:
        ModelConfig.from_run_config(preset_config(name))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_shape_noddi():
    enc = make_encoder(in_channels=64, embed=32, heads=4, plane=(64, 64))
    rng = np.random.default_rng(1)
    out = enc.project(ad.Tensor(rng.random((20, 25, 64))))
    assert out.shape == (20, 25, 32)


def test_project_zero_input_is_zero():
    enc = make_encoder()
    out = enc.project(ad.Tensor(np.zeros((5, 5, 2))))
    assert np.all(out.data == 0.0)


def test_project_channel_mismatch():
    enc = make_encoder(in_channels=3)
    with pytest.raises(DimensionError):
        enc.project(ad.Tensor(np.zeros((5, 5, 2))))


def test_project_gradient():
    enc = make_encoder()
    rng = np.random.default_rng(2)
    x = ad.Tensor(rng.random((4, 4, 2)))
    kernel = enc.store["enc.proj.kernel"]
    fd_grad_check(lambda: tsum(enc.project(x)), [kernel])


# ---------------------------------------------------------------------------
# local block
# ---------------------------------------------------------------------------

def test_local_block_zero_branches_is_layernorm():
    enc = make_encoder()
    for name in ("temporal", "frequency", "joint"):
        enc.store[f"enc.stage0.{name}.kernel"].data[:] = 0.0
    enc.store["enc.stage0.fuse.weight"].data[:] = 0.0
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3, 4))
    out = enc.local_block(ad.Tensor(x), 0)
    want = np_channel_ln(
        x,
        enc.store["enc.stage0.ln1.gain"].data,
        enc.store["enc.stage0.ln1.shift"].data,
    )
    assert np.max(np.abs(out.data - want)) < 1e-12


def test_local_block_preserves_shape():
    enc = make_encoder()
    x = ad.Tensor(np.random.default_rng(4).standard_normal((6, 7, 4)))
    assert enc.local_block(x, 1).shape == (6, 7, 4)


def test_local_block_matches_compositional_oracle():
    enc = make_encoder(embed=2, heads=1, seed=5)
    p = {k: v.data for k, v in enc.store.params.items()}
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 3, 2))
    out = enc.local_block(ad.Tensor(x), 0).data

    xb = x[None]
    branches = np.concatenate(
        [
            conv2d_oracle(xb, p["enc.stage0.temporal.kernel"], padding=(1, 0)),
            conv2d_oracle(xb, p["enc.stage0.frequency.kernel"], padding=(0, 1)),
            conv2d_oracle(xb, p["enc.stage0.joint.kernel"], padding=(1, 1)),
        ],
        axis=-1,
    )[0]
    fused = np.einsum(
        "hwc,oc->hwo", branches, p["enc.stage0.fuse.weight"]
    ) + p["enc.stage0.fuse.bias"]
    want = np_channel_ln(
        x + fused,
        p["enc.stage0.ln1.gain"],
        p["enc.stage0.ln1.shift"],
    )
    assert np.max(np.abs(out - want)) < 1e-12


# ---------------------------------------------------------------------------
# global (attention) block
# ---------------------------------------------------------------------------

def test_global_block_zero_value_projection_is_layernorm():
    enc = make_encoder()
    enc.store["enc.stage0.attn.wv"].data[:] = 0.0
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3, 4))
    out = enc.global_block(ad.Tensor(x), 0)
    want = np_channel_ln(
        x,
        enc.store["enc.stage0.ln2.gain"].data,
        enc.store["enc.stage0.ln2.shift"].data,
    )
    assert np.max(np.abs(out.data - want)) < 1e-12


def test_global_block_single_token_closed_form():
    enc = make_encoder()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 1, 4))
    out = enc.global_block(ad.Tensor(x), 0)
    token = x[0, 0]
    wv = enc.store["enc.stage0.attn.wv"].data
    wo = enc.store["enc.stage0.attn.wo"].data
    bo = enc.store["enc.stage0.attn.bo"].data
    mixed = wo @ (wv @ token) + bo
    want = np_channel_ln(
        token + mixed,
        enc.store["enc.stage0.ln2.gain"].data,
        enc.store["enc.stage0.ln2.shift"].data,
    )
    assert np.max(np.abs(out.data[0, 0] - want)) < 1e-10


def test_global_block_matches_attention_oracle():
    """Straight-line numpy attention, including row-normalization check."""
    enc = make_encoder(embed=2, heads=1, seed=9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 3, 2))
    out = enc.global_block(ad.Tensor(x), 0).data

    p = {k: v.data for k, v in enc.store.params.items()}
    tokens = x.reshape(9, 2)
    q = tokens @ p["enc.stage0.attn.wq"].T
    k = tokens @ p["enc.stage0.attn.wk"].T
    v = tokens @ p["enc.stage0.attn.wv"].T
    scores = q @ k.T / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-9
    attended = (weights @ v) @ p["enc.stage0.attn.wo"].T + p["enc.stage0.attn.bo"]
    want = np_channel_ln(
        tokens + attended, p["enc.stage0.ln2.gain"], p["enc.stage0.ln2.shift"]
    ).reshape(3, 3, 2)
    assert np.max(np.abs(out - want)) < 1e-12


def test_global_block_token_permutation_invariance():
    enc = make_encoder()
    rng = np.random.default_rng(11)
    t, f = 3, 4
    x = rng.standard_normal((t, f, 4))
    base = enc.global_block(ad.Tensor(x), 0).data.reshape(t * f, 4)
    perm = rng.permutation(t * f)
    xp = x.reshape(t * f, 4)[perm].reshape(t, f, 4)
    permuted = enc.global_block(ad.Tensor(xp), 0).data.reshape(t * f, 4)
    unpermuted = np.empty_like(permuted)
    unpermuted[perm] = permuted
    assert np.max(np.abs(base - unpermuted)) < 1e-9


def test_attention_dropout_draws_masks_only_with_rng():
    """Without an rng the dropout model attends like the dropout-free one."""
    cfg = ModelConfig((2, 1, 4, 1, 8, 8), embed=4, heads=2, attention_dropout=0.5)
    dropped = Encoder(cfg, np.random.default_rng(0))
    plain = Encoder(replace(cfg, attention_dropout=0.0), np.random.default_rng(0))
    x = ad.Tensor(np.random.default_rng(1).standard_normal((3, 3, 4)))
    want = plain.global_block(x, 0).data
    np.testing.assert_array_equal(dropped.global_block(x, 0).data, want)
    masked = dropped.global_block(x, 0, rng=np.random.default_rng(2)).data
    assert not np.allclose(masked, want)


# ---------------------------------------------------------------------------
# frequency down-sampling
# ---------------------------------------------------------------------------

def test_freq_downsample_shapes():
    enc = make_encoder()
    rng = np.random.default_rng(12)
    assert enc.freq_downsample(ad.Tensor(rng.random((3, 25, 4))), 0).shape == (3, 13, 4)
    assert enc.freq_downsample(ad.Tensor(rng.random((3, 64, 4))), 0).shape == (3, 32, 4)


def test_freq_downsample_picking_kernel_selects_even_columns():
    enc = make_encoder(embed=1, heads=1)
    enc.store["enc.stage0.down.kernel"].data[:] = np.array([0.0, 1.0, 0.0]).reshape(
        1, 1, 1, 3
    )
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 10, 1))
    out = enc.freq_downsample(ad.Tensor(x), 0)
    np.testing.assert_allclose(out.data, x[:, ::2], atol=1e-15)


# ---------------------------------------------------------------------------
# full encode
# ---------------------------------------------------------------------------

def test_encode_noddi_stage_extents_and_padding():
    enc = make_encoder(in_channels=2, embed=4, heads=2, plane=(64, 64))
    rng = np.random.default_rng(14)
    x = rng.random((20, 25, 2))
    y = enc.project(ad.Tensor(x))
    for k in range(2):
        y = enc.local_block(y, k)
        y = enc.global_block(y, k)
        y = enc.freq_downsample(y, k)
    assert y.shape == (20, 7, 4)  # F: 25 -> 13 -> 7
    out = enc.encode(ad.Tensor(x))
    assert out.shape == (64, 64, 4)
    # symmetric zero padding: 20 -> rows 22..41, 7 -> cols 28..34
    assert np.all(out.data[:22] == 0.0)
    assert np.all(out.data[42:] == 0.0)
    assert np.all(out.data[:, :28] == 0.0)
    assert np.all(out.data[:, 35:] == 0.0)
    np.testing.assert_array_equal(out.data[22:42, 28:35], y.data)


def test_encode_zero_input_all_zero():
    enc = make_encoder()
    out = enc.encode(ad.Tensor(np.zeros((5, 6, 2))))
    assert out.shape == (8, 8, 4)
    assert np.all(out.data == 0.0)


def test_encode_parameter_gradients_micro():
    enc = make_encoder(in_channels=2, embed=4, heads=2, plane=(8, 8), seed=15)
    rng = np.random.default_rng(16)
    x = ad.Tensor(rng.random((5, 6, 2)))
    leaves = [
        enc.store["enc.proj.kernel"],
        enc.store["enc.stage0.attn.wq"],
        enc.store["enc.stage1.fuse.bias"],
        enc.store["enc.stage1.down.kernel"],
    ]
    fd_grad_check(lambda: tmean(sigmoid(enc.encode(x))), leaves)
