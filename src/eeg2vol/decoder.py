"""Volume decoder: a U-Net of visual state-space blocks.

Each block runs a four-direction selective scan (SS2D): the feature grid is
flattened row-major as is, with both axes flipped, with W flipped and with H
flipped; each of the four sequences goes through an input-conditioned linear
state-space recurrence, and the four results are flipped back and summed.
Spatial resampling is convolution-free 2x2 patch merging / expanding; the head
maps channels to depth slices with a sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .layers import (
    ParamStore,
    channels_first,
    channels_last,
    pointwise,
)


# ---------------------------------------------------------------------------
# four-direction scan ordering
# ---------------------------------------------------------------------------

def scan_expand(x):
    """[N, H, W] -> four [N, H*W] sequences, one per direction.

    1: row-major top-left -> bottom-right; 2: reverse of 1;
    3: row-major after horizontal flip (top-right -> bottom-left);
    4: reverse of 3. As grids: no flip, both axes flipped, W flipped,
    H flipped.
    """
    n, h, w = x.shape
    d1 = ad.reshape(x, (n, h * w))
    d3 = ad.reshape(x[:, :, ::-1], (n, h * w))
    return [d1, d1[:, ::-1], d3, d3[:, ::-1]]


def scan_merge(seqs, h, w):
    """Undo each direction's flips and sum the four grids."""
    lengths = {s.shape[-1] for s in seqs}
    if lengths != {h * w}:
        raise DimensionError(
            f"scan_merge: sequence lengths {sorted(lengths)} != {h * w}"
        )
    d1, d2, d3, d4 = seqs
    n = d1.shape[0]
    rows = ad.reshape(d1 + d2[:, ::-1], (n, h, w))
    flipped = ad.reshape(d3 + d4[:, ::-1], (n, h, w))
    return rows + flipped[:, :, ::-1]


# ---------------------------------------------------------------------------
# selective state-space recurrence
# ---------------------------------------------------------------------------

@dataclass
class S6Params:
    """Per-direction parameters of the input-conditioned recurrence."""

    a_log: ad.Tensor  # [channels, state]; A = -exp(a_log)
    w_delta: ad.Tensor  # [channels, channels]
    b_delta: ad.Tensor  # [channels]
    w_b: ad.Tensor  # [state, channels]
    w_c: ad.Tensor  # [state, channels]
    d_skip: ad.Tensor  # [channels]


def s6_scan(u, params):
    """Selective scan over a [channels, L] sequence.

    Per channel n and step t: abar = exp(delta_t * A_n), bbar = delta_t * B_t,
    h_t = abar * h_{t-1} + bbar * u_t (h_0 = 0), y_t = <C_t, h_t> + Dskip * u_t,
    with delta_t, B_t, C_t linear in the token u_t and delta made positive by
    softplus. The recurrence is the fused ad.selective_scan, which keeps no
    [channels, state, L] tensor on the tape.
    """
    n, length = u.shape
    if length < 1:
        raise DimensionError("s6_scan: empty sequence")
    tokens = ad.transpose(u)  # [L, channels]
    delta = ad.transpose(ad.softplus(ad.linear(tokens, params.w_delta, params.b_delta)))
    b_seq = ad.transpose(ad.linear(tokens, params.w_b))  # [state, L]
    c_seq = ad.transpose(ad.linear(tokens, params.w_c))
    a = ad.neg(ad.exp(params.a_log))  # strictly negative continuous-time poles
    y = ad.selective_scan(u, delta, a, b_seq, c_seq)
    return y + ad.reshape(params.d_skip, (n, 1)) * u


# ---------------------------------------------------------------------------
# VSS block and the U-Net
# ---------------------------------------------------------------------------

class VssBlock:
    def __init__(self, width, state_dim, rng, store, prefix):
        self.width = width
        self.store = store
        self.prefix = prefix
        p = store
        p.ones(f"{prefix}.ln.gain", (width,))
        p.zeros(f"{prefix}.ln.shift", (width,))
        p.weight(f"{prefix}.in_proj.weight", (width, width), width, rng)
        p.zeros(f"{prefix}.in_proj.bias", (width,))
        p.weight(f"{prefix}.gate.weight", (width, width), width, rng)
        p.zeros(f"{prefix}.gate.bias", (width,))
        for d in range(4):
            # A initialized to -(1..S) per channel, stored as a log
            p.add_array(
                f"{prefix}.dir{d}.a_log",
                np.log(np.tile(np.arange(1.0, state_dim + 1.0), (width, 1))),
            )
            p.weight(f"{prefix}.dir{d}.delta.weight", (width, width), width, rng)
            p.zeros(f"{prefix}.dir{d}.delta.bias", (width,))
            p.weight(f"{prefix}.dir{d}.wb", (state_dim, width), width, rng)
            p.weight(f"{prefix}.dir{d}.wc", (state_dim, width), width, rng)
            p.ones(f"{prefix}.dir{d}.dskip", (width,))
        p.ones(f"{prefix}.out_ln.gain", (width,))
        p.zeros(f"{prefix}.out_ln.shift", (width,))
        p.weight(f"{prefix}.out_proj.weight", (width, width), width, rng)
        p.zeros(f"{prefix}.out_proj.bias", (width,))

    def direction_params(self, d):
        p, pre = self.store, self.prefix
        return S6Params(
            a_log=p[f"{pre}.dir{d}.a_log"],
            w_delta=p[f"{pre}.dir{d}.delta.weight"],
            b_delta=p[f"{pre}.dir{d}.delta.bias"],
            w_b=p[f"{pre}.dir{d}.wb"],
            w_c=p[f"{pre}.dir{d}.wc"],
            d_skip=p[f"{pre}.dir{d}.dskip"],
        )

    def forward(self, x):
        """Pre-norm -> projected/gated SS2D -> norm, gate, project -> residual."""
        p, pre = self.store, self.prefix
        _, h, w = x.shape
        tokens = channels_last(x)
        normed = ad.layer_norm(tokens, p[f"{pre}.ln.gain"], p[f"{pre}.ln.shift"])
        main = channels_first(
            ad.linear(normed, p[f"{pre}.in_proj.weight"], p[f"{pre}.in_proj.bias"])
        )
        gate = ad.silu(ad.linear(normed, p[f"{pre}.gate.weight"], p[f"{pre}.gate.bias"]))
        seqs = scan_expand(main)
        scanned = [s6_scan(seq, self.direction_params(d)) for d, seq in enumerate(seqs)]
        merged = channels_last(scan_merge(scanned, h, w))
        merged = ad.layer_norm(merged, p[f"{pre}.out_ln.gain"], p[f"{pre}.out_ln.shift"])
        out = ad.linear(merged * gate, p[f"{pre}.out_proj.weight"], p[f"{pre}.out_proj.bias"])
        return x + channels_first(out)


def patch_merge(x):
    """[C, H, W] -> [4C, H/2, W/2] by stacking each 2x2 neighborhood."""
    c, h, w = x.shape
    y = ad.reshape(x, (c, h // 2, 2, w // 2, 2))
    y = ad.permute(y, (2, 4, 0, 1, 3))
    return ad.reshape(y, (4 * c, h // 2, w // 2))


def patch_expand(x):
    """[4C, H, W] -> [C, 2H, 2W], the exact inverse layout of patch_merge."""
    c4, h, w = x.shape
    c = c4 // 4
    y = ad.reshape(x, (2, 2, c, h, w))
    y = ad.permute(y, (2, 3, 0, 4, 1))
    return ad.reshape(y, (c, 2 * h, 2 * w))


class Decoder:
    """Built from a model.ModelConfig; maps [embed, H, W] to [D, H, W]."""

    def __init__(self, cfg, rng, store=None, prefix="dec"):
        self.cfg = cfg
        self.store = store if store is not None else ParamStore()
        self.prefix = prefix
        c0 = cfg.embed  # stage widths N, 2N, 4N
        c1, c2 = 2 * c0, 4 * c0
        p = self.store

        def make_blocks(stage, width):
            return [
                VssBlock(width, cfg.state_dim, rng, p, f"{prefix}.{stage}.block{j}")
                for j in range(cfg.vss_blocks)
            ]

        self.down0 = make_blocks("down0", c0)
        p.weight(f"{prefix}.merge0.weight", (c1, 4 * c0), 4 * c0, rng)
        p.zeros(f"{prefix}.merge0.bias", (c1,))
        self.down1 = make_blocks("down1", c1)
        p.weight(f"{prefix}.merge1.weight", (c2, 4 * c1), 4 * c1, rng)
        p.zeros(f"{prefix}.merge1.bias", (c2,))
        self.bottleneck = make_blocks("bottleneck", c2)
        p.weight(f"{prefix}.expand1.weight", (4 * c1, c2), c2, rng)
        p.zeros(f"{prefix}.expand1.bias", (4 * c1,))
        p.weight(f"{prefix}.reduce1.weight", (c1, 2 * c1), 2 * c1, rng)
        p.zeros(f"{prefix}.reduce1.bias", (c1,))
        self.up1 = make_blocks("up1", c1)
        p.weight(f"{prefix}.expand0.weight", (4 * c0, c1), c1, rng)
        p.zeros(f"{prefix}.expand0.bias", (4 * c0,))
        p.weight(f"{prefix}.reduce0.weight", (c0, 2 * c0), 2 * c0, rng)
        p.zeros(f"{prefix}.reduce0.bias", (c0,))
        self.up0 = make_blocks("up0", c0)
        depth = cfg.geometry[3]
        p.weight(f"{prefix}.head.weight", (depth, c0), c0, rng)
        p.zeros(f"{prefix}.head.bias", (depth,))

    def _run(self, blocks, x):
        for block in blocks:
            x = block.forward(x)
        return x

    def decode(self, fmap):
        """[N, H, W] feature map -> [D, H, W] volume in (0, 1)."""
        want = (self.cfg.embed,) + self.cfg.geometry[4:]
        if fmap.shape != want:
            raise ConfigError(
                f"decoder input shape {fmap.shape} does not match configured {want}"
            )
        p, pre = self.store, self.prefix
        skip0 = self._run(self.down0, fmap)
        x = pointwise(patch_merge(skip0), p[f"{pre}.merge0.weight"], p[f"{pre}.merge0.bias"])
        skip1 = self._run(self.down1, x)
        x = pointwise(patch_merge(skip1), p[f"{pre}.merge1.weight"], p[f"{pre}.merge1.bias"])
        x = self._run(self.bottleneck, x)
        x = patch_expand(
            pointwise(x, p[f"{pre}.expand1.weight"], p[f"{pre}.expand1.bias"])
        )
        x = pointwise(
            ad.concat([x, skip1], axis=0),
            p[f"{pre}.reduce1.weight"],
            p[f"{pre}.reduce1.bias"],
        )
        x = self._run(self.up1, x)
        x = patch_expand(
            pointwise(x, p[f"{pre}.expand0.weight"], p[f"{pre}.expand0.bias"])
        )
        x = pointwise(
            ad.concat([x, skip0], axis=0),
            p[f"{pre}.reduce0.weight"],
            p[f"{pre}.reduce0.bias"],
        )
        x = self._run(self.up0, x)
        return ad.sigmoid(pointwise(x, p[f"{pre}.head.weight"], p[f"{pre}.head.bias"]))
