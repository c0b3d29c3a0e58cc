"""Structural-similarity and error metrics plus the weighted training loss.

ssim/mse/hybrid_loss are built from tensor-engine ops so gradients flow to
the prediction; psnr is evaluation-only and returns a plain float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import check
from .errors import ConfigError, DimensionError


@dataclass
class LossWeights:
    lambda1: float = 0.5  # structural term
    lambda2: float = 0.5  # mean-squared-error term

    def __post_init__(self):
        check("lambda1", self.lambda1)
        check("lambda2", self.lambda2)
        if self.lambda1 == 0 and self.lambda2 == 0:
            raise ConfigError("at least one loss weight must be positive")


@dataclass
class SsimConfig:
    window: int = 7
    c1: float = 0.01**2
    c2: float = 0.03**2
    aggregation: str = "sliding-mean"  # or "global"

    def __post_init__(self):
        for key, value in (("ssim_window", self.window), ("ssim_c1", self.c1),
                           ("ssim_c2", self.c2), ("ssim_aggregation", self.aggregation)):
            check(key, value)

    def check_extent(self, h, w):
        """The sliding window must fit in an h x w slice."""
        if self.aggregation == "sliding-mean" and self.window > min(h, w):
            raise ConfigError(f"SSIM window {self.window} exceeds slice extent {h}x{w}")


def _as3d(t):
    t = t if isinstance(t, ad.Tensor) else ad.Tensor(t)
    if t.ndim != 3:
        raise DimensionError("expected a [D, H, W] volume")
    return t


def mse(x, y):
    """Mean squared difference over all voxels (differentiable)."""
    x = x if isinstance(x, ad.Tensor) else ad.Tensor(x)
    y = y if isinstance(y, ad.Tensor) else ad.Tensor(y)
    if x.shape != y.shape:
        raise DimensionError(f"mse: shape mismatch {x.shape} vs {y.shape}")
    diff = x - y
    return ad.tmean(diff * diff)


def ssim(x, y, cfg=None):
    """Mean structural similarity of two [D, H, W] volumes in [0, 1].

    Local statistics come from a uniform sliding window on each axial slice
    ("sliding-mean") or from whole-slice moments ("global"); slice scores are
    averaged over depth. Returns a differentiable scalar tensor.
    """
    cfg = cfg or SsimConfig()
    x, y = _as3d(x), _as3d(y)
    if x.shape != y.shape:
        raise DimensionError(f"ssim: shape mismatch {x.shape} vs {y.shape}")
    d, h, w = x.shape
    cfg.check_extent(h, w)

    if cfg.aggregation == "sliding-mean":
        k = cfg.window
        kernel = ad.Tensor(np.full((1, 1, k, k), 1.0 / (k * k)))
        box = lambda t: ad.conv2d(ad.reshape(t, (d, h, w, 1)), kernel)
        mu_x, mu_y = box(x), box(y)
        e_xx, e_yy, e_xy = box(x * x), box(y * y), box(x * y)
    else:
        moment = lambda t: ad.tmean(t, axis=(1, 2), keepdims=True)
        mu_x, mu_y = moment(x), moment(y)
        e_xx, e_yy, e_xy = moment(x * x), moment(y * y), moment(x * y)

    var_x = e_xx - mu_x * mu_x
    var_y = e_yy - mu_y * mu_y
    cov = e_xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + cfg.c1) * (2.0 * cov + cfg.c2)
    den = (mu_x * mu_x + mu_y * mu_y + cfg.c1) * (var_x + var_y + cfg.c2)
    return ad.tmean(num / den)


def psnr(x, y, max_val=1.0):
    """Peak signal-to-noise ratio in dB; identical inputs give +inf."""
    x = x.data if isinstance(x, ad.Tensor) else np.asarray(x)
    y = y.data if isinstance(y, ad.Tensor) else np.asarray(y)
    if x.shape != y.shape:
        raise DimensionError(f"psnr: shape mismatch {x.shape} vs {y.shape}")
    err = float(np.mean((x - y) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / err)


def hybrid_loss(x, y, weights=None, ssim_cfg=None):
    """lambda1 * (1 - ssim) + lambda2 * mse, differentiable in x."""
    weights = weights or LossWeights()
    parts = []
    if weights.lambda1 != 0.0:
        parts.append(weights.lambda1 * (1.0 - ssim(x, y, ssim_cfg)))
    if weights.lambda2 != 0.0:
        parts.append(weights.lambda2 * mse(x, y))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


# ---------------------------------------------------------------------------
# evaluation report rows
# ---------------------------------------------------------------------------

REPORT_HEADER = "subject, n_samples, ssim_mean, ssim_std, psnr_mean, psnr_std"


def format_report_row(subject, ssims, psnrs):
    """One mean+-std row per subject; population (ddof=0) convention."""
    ssims = np.asarray(ssims, dtype=np.float64)
    psnrs = np.asarray(psnrs, dtype=np.float64)
    finite = psnrs[np.isfinite(psnrs)]
    p_mean = float(finite.mean()) if finite.size else math.inf
    p_std = float(finite.std()) if finite.size else 0.0
    return (
        f"{subject}, {ssims.size}, {ssims.mean():.6f}, {ssims.std():.6f}, "
        f"{p_mean:.6f}, {p_std:.6f}"
    )
