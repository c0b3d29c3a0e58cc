"""Spectrogram encoder: 3x3 projection, per-stage multi-directional
convolutions fused behind a residual, multi-head self-attention over the
time-frequency token grid, and stride-2 frequency down-sampling, finished by
zero-padding onto the target volume plane.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .layers import (
    ParamStore,
    channels_first,
    channels_last,
    conv_grid,
    pointwise,
)


class Encoder:
    """Built from a model.ModelConfig; the target plane is its (H, W)."""

    def __init__(self, cfg, rng, store=None, prefix="enc"):
        self.cfg = cfg
        self.store = store if store is not None else ParamStore()
        self.prefix = prefix
        n, c = cfg.embed, cfg.geometry[0]
        p = self.store
        p.weight(f"{prefix}.proj.kernel", (n, c, 3, 3), c * 9, rng)
        p.zeros(f"{prefix}.proj.bias", (n,))
        for k in range(cfg.enc_stages):
            s = f"{prefix}.stage{k}"
            p.weight(f"{s}.temporal.kernel", (n, n, 3, 1), n * 3, rng)
            p.weight(f"{s}.frequency.kernel", (n, n, 1, 3), n * 3, rng)
            p.weight(f"{s}.joint.kernel", (n, n, 3, 3), n * 9, rng)
            p.weight(f"{s}.fuse.weight", (n, 3 * n), 3 * n, rng)
            p.zeros(f"{s}.fuse.bias", (n,))
            p.ones(f"{s}.ln1.gain", (n,))
            p.zeros(f"{s}.ln1.shift", (n,))
            for proj in ("wq", "wk", "wv", "wo"):
                p.weight(f"{s}.attn.{proj}", (n, n), n, rng)
            p.zeros(f"{s}.attn.bo", (n,))
            p.ones(f"{s}.ln2.gain", (n,))
            p.zeros(f"{s}.ln2.shift", (n,))
            p.weight(f"{s}.down.kernel", (n, n, 1, 3), n * 3, rng)
            p.zeros(f"{s}.down.bias", (n,))

    # stage pieces -----------------------------------------------------------

    def project(self, x):
        """[C, T, F] -> SiLU(conv3x3(x)) at the embedding width."""
        if x.shape[0] != self.cfg.geometry[0]:
            raise DimensionError(
                f"expected {self.cfg.geometry[0]} input channels, got {x.shape[0]}"
            )
        p = self.store
        return ad.silu(
            conv_grid(
                x,
                p[f"{self.prefix}.proj.kernel"],
                p[f"{self.prefix}.proj.bias"],
                padding=(1, 1),
            )
        )

    def local_block(self, x, stage):
        """Three directional conv paths, fused pointwise, residual, LayerNorm."""
        p = self.store
        s = f"{self.prefix}.stage{stage}"
        branches = ad.concat(
            [
                conv_grid(x, p[f"{s}.temporal.kernel"], padding=(1, 0)),
                conv_grid(x, p[f"{s}.frequency.kernel"], padding=(0, 1)),
                conv_grid(x, p[f"{s}.joint.kernel"], padding=(1, 1)),
            ],
            axis=0,
        )
        fused = pointwise(branches, p[f"{s}.fuse.weight"], p[f"{s}.fuse.bias"])
        tokens = channels_last(x + fused)
        return channels_first(
            ad.layer_norm(tokens, p[f"{s}.ln1.gain"], p[f"{s}.ln1.shift"])
        )

    def global_block(self, x, stage, rng=None):
        """Scaled dot-product MHSA over the T*F token grid, residual + LN.

        rng, when given, draws the attention-dropout masks.
        """
        p = self.store
        s = f"{self.prefix}.stage{stage}"
        n, t, f = x.shape
        heads = self.cfg.heads
        dh = n // heads
        tokens = ad.reshape(channels_last(x), (t * f, n))
        q = ad.linear(tokens, p[f"{s}.attn.wq"])
        k = ad.linear(tokens, p[f"{s}.attn.wk"])
        v = ad.linear(tokens, p[f"{s}.attn.wv"])
        split = lambda z: ad.permute(ad.reshape(z, (t * f, heads, dh)), (1, 0, 2))
        q, k, v = split(q), split(k), split(v)
        scores = ad.matmul(q, ad.transpose(k)) * (1.0 / np.sqrt(dh))
        weights = ad.softmax(scores, axis=-1)
        drop = self.cfg.attention_dropout
        if rng is not None and drop > 0.0:
            mask = (rng.random(weights.shape) >= drop) / (1.0 - drop)
            weights = weights * ad.Tensor(mask)
        mixed = ad.matmul(weights, v)  # [heads, T*F, dh]
        mixed = ad.reshape(ad.permute(mixed, (1, 0, 2)), (t * f, n))
        attended = ad.linear(mixed, p[f"{s}.attn.wo"], p[f"{s}.attn.bo"])
        out = ad.layer_norm(tokens + attended, p[f"{s}.ln2.gain"], p[f"{s}.ln2.shift"])
        return channels_first(ad.reshape(out, (t, f, n)))

    def freq_downsample(self, x, stage):
        """1x3 stride-(1,2) convolution along frequency: F -> ceil(F/2)."""
        if x.shape[2] < 2:
            raise DimensionError("frequency axis too short to downsample")
        p = self.store
        s = f"{self.prefix}.stage{stage}"
        return conv_grid(
            x,
            p[f"{s}.down.kernel"],
            p[f"{s}.down.bias"],
            stride=(1, 2),
            padding=(0, 1),
        )

    # full pass --------------------------------------------------------------

    def encode(self, x, rng=None):
        """[C, T, F] -> [N, H, W] with zero-padding onto the target plane."""
        y = self.project(x)
        for k in range(self.cfg.enc_stages):
            y = self.local_block(y, k)
            y = self.global_block(y, k, rng=rng)
            y = self.freq_downsample(y, k)
        h, w = self.cfg.geometry[4:]
        _, t_cur, f_cur = y.shape
        if t_cur > h or f_cur > w:
            raise ConfigError(
                f"encoded plane {t_cur}x{f_cur} exceeds target {h}x{w}; "
                f"needs padding of ({h - t_cur}, {w - f_cur})"
            )
        dt, df = h - t_cur, w - f_cur
        top, left = dt // 2, df // 2
        return ad.pad(y, ((0, 0), (top, dt - top), (left, df - left)))
