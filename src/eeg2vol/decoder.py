"""Volume decoder: a U-Net of visual state-space blocks.

Each block runs a four-direction selective scan (SS2D): the feature grid is
flattened row-major as is, with both axes flipped, with W flipped and with H
flipped; each of the four sequences goes through an input-conditioned linear
state-space recurrence, and the four results are flipped back and summed.
Spatial resampling is convolution-free 2x2 patch merging / expanding; the head
maps channels to depth slices with a sigmoid. Feature grids are channel-last,
[H, W, C], and sequences [L, C].
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .layers import ParamStore


# ---------------------------------------------------------------------------
# four-direction scan ordering
# ---------------------------------------------------------------------------

def scan_expand(x):
    """[H, W, N] -> four [H*W, N] sequences, one per direction.

    1: row-major top-left -> bottom-right; 2: reverse of 1;
    3: row-major after horizontal flip (top-right -> bottom-left);
    4: reverse of 3. As grids: no flip, both axes flipped, W flipped,
    H flipped.
    """
    h, w, n = x.shape
    d1 = ad.reshape(x, (h * w, n))
    d3 = ad.reshape(ad.flip(x, 1), (h * w, n))
    return [d1, ad.flip(d1, 0), d3, ad.flip(d3, 0)]


def scan_merge(seqs, h, w):
    """Undo each direction's flips and sum the four grids: one
    ad.cross_merge node, which checks each sequence is [h*w, N]."""
    return ad.cross_merge(*seqs, h, w)


# ---------------------------------------------------------------------------
# selective state-space recurrence
# ---------------------------------------------------------------------------

# the selective scan of one direction's [L, channels] token sequence, the
# one-node ad.selective_scan; a name of its own, so it is traced per direction
s6_scan = ad.selective_scan


# ---------------------------------------------------------------------------
# VSS block and the U-Net
# ---------------------------------------------------------------------------

# one direction's parameters under `<block>.dir<d>.`, in s6_scan's argument
# order, which is also the order VssBlock registers them in
S6_PARAMS = ("a_log", "delta.weight", "delta.bias", "wb", "wc", "dskip")


class VssBlock:
    def __init__(self, width, state_dim, rng, store, prefix):
        self.prefix = prefix
        p = self.store = store
        p.norm(f"{prefix}.ln", width)
        p.linear(f"{prefix}.in_proj", width, width, rng)
        p.linear(f"{prefix}.gate", width, width, rng)
        for d in range(4):
            # A initialized to -(1..S) per channel, stored as a log
            p.add(f"{prefix}.dir{d}.a_log", (width, state_dim),
                  lambda: np.log(np.tile(np.arange(1.0, state_dim + 1.0), (width, 1))))
            p.linear(f"{prefix}.dir{d}.delta", width, width, rng)
            p.weight(f"{prefix}.dir{d}.wb", (state_dim, width), width, rng)
            p.weight(f"{prefix}.dir{d}.wc", (state_dim, width), width, rng)
            p.ones(f"{prefix}.dir{d}.dskip", (width,))
        p.norm(f"{prefix}.out_ln", width)
        p.linear(f"{prefix}.out_proj", width, width, rng)

    def forward(self, x):
        """Pre-norm -> projected/gated SS2D -> norm, gate, project -> residual.

        The gate, silu(linear), is one ad.silu_linear node, and the output
        path, x + linear(layer_norm(merged) * gate), one ad.gated_residual
        node: the tape keeps neither the gate's pre-activation nor the
        normed, gated or projected output.
        """
        p, pre = self.store, self.prefix
        h, w, _ = x.shape
        normed = p.apply_norm(f"{pre}.ln", x)
        main = p.apply_linear(f"{pre}.in_proj", normed)
        gate = ad.silu_linear(normed, p[f"{pre}.gate.weight"], p[f"{pre}.gate.bias"])
        seqs = scan_expand(main)
        scanned = [
            s6_scan(seq, *(p[f"{pre}.dir{d}.{n}"] for n in S6_PARAMS))
            for d, seq in enumerate(seqs)
        ]
        return ad.gated_residual(
            x, scan_merge(scanned, h, w), gate, p[f"{pre}.out_ln.gain"],
            p[f"{pre}.out_ln.shift"], p[f"{pre}.out_proj.weight"], p[f"{pre}.out_proj.bias"],
        )


def patch_merge(x):
    """[H, W, C] -> [H/2, W/2, 4C] by stacking each 2x2 neighborhood."""
    h, w, c = x.shape
    y = ad.reshape(x, (h // 2, 2, w // 2, 2, c))
    y = ad.permute(y, (0, 2, 1, 3, 4))
    return ad.reshape(y, (h // 2, w // 2, 4 * c))


def patch_expand(x):
    """[H, W, 4C] -> [2H, 2W, C], the exact inverse layout of patch_merge."""
    h, w, c4 = x.shape
    c = c4 // 4
    y = ad.reshape(x, (h, w, 2, 2, c))
    y = ad.permute(y, (0, 2, 1, 3, 4))
    return ad.reshape(y, (2 * h, 2 * w, c))


class Decoder:
    """Built from a model.ModelConfig; maps [H, W, embed] to [H, W, D].

    Level i runs at width embed * 2**i. Down: blocks `down{i}`, then a 2x2
    patch merge and the linear `merge{i}` into level i + 1. The `bottleneck`
    blocks run at the deepest level. Up: the linear `expand{i}` and a patch
    expand from level i + 1, the linear `reduce{i}` over that joined with the
    `down{i}` output, then blocks `up{i}`. The linear `head` maps level 0 to
    the D depth slices. Every parameter name starts with `dec.`.
    """

    LEVELS = 2  # patch merges; the plane must divide by 2**LEVELS

    def __init__(self, cfg, rng, store=None):
        self.cfg = cfg
        p = self.store = store if store is not None else ParamStore()
        widths = [cfg.embed * 2**i for i in range(self.LEVELS + 1)]

        def make_blocks(stage, width):
            return [
                VssBlock(width, cfg.state_dim, rng, p, f"dec.{stage}.block{j}")
                for j in range(cfg.vss_blocks)
            ]

        self.down = []
        for i in range(self.LEVELS):
            self.down.append(make_blocks(f"down{i}", widths[i]))
            p.linear(f"dec.merge{i}", widths[i + 1], 4 * widths[i], rng)
        self.bottleneck = make_blocks("bottleneck", widths[-1])
        self.up = [None] * self.LEVELS
        for i in reversed(range(self.LEVELS)):
            p.linear(f"dec.expand{i}", 4 * widths[i], widths[i + 1], rng)
            p.linear(f"dec.reduce{i}", widths[i], 2 * widths[i], rng)
            self.up[i] = make_blocks(f"up{i}", widths[i])
        p.linear("dec.head", cfg.geometry[3], widths[0], rng)

    def _run(self, blocks, x):
        for block in blocks:
            x = block.forward(x)
        return x

    def decode(self, fmap):
        """[H, W, N] feature map -> [H, W, D] volume in (0, 1); the head,
        sigmoid(linear), is one ad.sigmoid_linear node."""
        p = self.store
        x, skips = fmap, []
        for i, blocks in enumerate(self.down):
            skips.append(self._run(blocks, x))
            x = p.apply_linear(f"dec.merge{i}", patch_merge(skips[-1]))
        x = self._run(self.bottleneck, x)
        for i in reversed(range(self.LEVELS)):
            x = patch_expand(p.apply_linear(f"dec.expand{i}", x))
            x = p.apply_linear(f"dec.reduce{i}", ad.concat([x, skips.pop()], axis=-1))
            x = self._run(self.up[i], x)
        return ad.sigmoid_linear(x, p["dec.head.weight"], p["dec.head.bias"])
