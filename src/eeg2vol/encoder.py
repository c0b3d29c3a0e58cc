"""Spectrogram encoder: 3x3 projection, per-stage multi-directional
convolutions fused behind a residual, multi-head self-attention over the
time-frequency token grid, and stride-2 frequency down-sampling, finished by
zero-padding onto the target volume plane. Feature grids are channel-last,
[T, F, N].
"""

from __future__ import annotations

from . import autodiff as ad
from .layers import ParamStore


class Encoder:
    """Built from a model.ModelConfig; the target plane is its (H, W). Every
    parameter name starts with `enc.`."""

    def __init__(self, cfg, rng, store=None):
        self.cfg = cfg
        p = self.store = store if store is not None else ParamStore()
        n, c = cfg.embed, cfg.geometry[0]
        p.conv("enc.proj", n, c, 3, 3, rng, bias=True)
        for k in range(cfg.enc_stages):
            s = f"enc.stage{k}"
            p.conv(f"{s}.temporal", n, n, 3, 1, rng)
            p.conv(f"{s}.frequency", n, n, 1, 3, rng)
            p.conv(f"{s}.joint", n, n, 3, 3, rng)
            p.linear(f"{s}.fuse", n, 3 * n, rng)
            p.norm(f"{s}.ln1", n)
            for proj in ("wq", "wk", "wv", "wo"):
                p.weight(f"{s}.attn.{proj}", (n, n), n, rng)
            p.zeros(f"{s}.attn.bo", (n,))
            p.norm(f"{s}.ln2", n)
            p.conv(f"{s}.down", n, n, 1, 3, rng, bias=True)

    # stage pieces -----------------------------------------------------------

    def project(self, x):
        """[T, F, C] -> SiLU(conv3x3(x)) at the embedding width."""
        return ad.silu(self.store.apply_conv("enc.proj", x, padding=(1, 1)))

    def local_block(self, x, stage):
        """Three directional conv paths, fused per token, residual, LayerNorm."""
        p = self.store
        s = f"enc.stage{stage}"
        branches = [
            p.apply_conv(f"{s}.temporal", x, padding=(1, 0)),
            p.apply_conv(f"{s}.frequency", x, padding=(0, 1)),
            p.apply_conv(f"{s}.joint", x, padding=(1, 1)),
        ]
        fused = p.apply_linear(f"{s}.fuse", ad.concat(branches, axis=-1))
        return p.apply_norm(f"{s}.ln1", x + fused)

    def global_block(self, x, stage, rng=None):
        """Scaled dot-product MHSA over the T*F token grid, residual + LN.

        rng, when given, draws the attention-dropout masks.
        """
        p = self.store
        s = f"enc.stage{stage}"
        t, f, n = x.shape
        heads = self.cfg.heads
        dh = n // heads
        tokens = ad.reshape(x, (t * f, n))
        q, k, v = (ad.linear(tokens, p[f"{s}.attn.{w}"]) for w in ("wq", "wk", "wv"))
        split = lambda z: ad.permute(ad.reshape(z, (t * f, heads, dh)), (1, 0, 2))
        q, k, v = split(q), split(k), split(v)
        drop = self.cfg.attention_dropout
        mask = None
        if rng is not None and drop > 0.0:
            mask = (rng.random((heads, t * f, t * f)) >= drop) / (1.0 - drop)
        mixed = ad.attention(q, k, v, mask)  # [heads, T*F, dh]
        mixed = ad.reshape(ad.permute(mixed, (1, 0, 2)), (t * f, n))
        attended = ad.linear(mixed, p[f"{s}.attn.wo"], p[f"{s}.attn.bo"])
        out = p.apply_norm(f"{s}.ln2", tokens + attended)
        return ad.reshape(out, (t, f, n))

    def freq_downsample(self, x, stage):
        """1x3 stride-(1,2) convolution along frequency: F -> ceil(F/2)."""
        name = f"enc.stage{stage}.down"
        return self.store.apply_conv(name, x, stride=(1, 2), padding=(0, 1))

    # full pass --------------------------------------------------------------

    def encode(self, x, rng=None):
        """[T, F, C] -> [H, W, N] with zero-padding onto the target plane."""
        y = self.project(x)
        for k in range(self.cfg.enc_stages):
            y = self.local_block(y, k)
            y = self.global_block(y, k, rng=rng)
            y = self.freq_downsample(y, k)
        h, w = self.cfg.geometry[4:]
        dt, df = h - y.shape[0], w - y.shape[1]
        top, left = dt // 2, df // 2
        return ad.pad(y, ((top, dt - top), (left, df - left), (0, 0)))
