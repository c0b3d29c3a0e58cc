"""Structural-similarity and error metrics plus the weighted training loss.

ssim and mse check their inputs and run one tape op each (autodiff.ssim,
autodiff.mse), whose closed-form backward keeps the inputs plus, for SSIM,
four local-statistic maps; hybrid_loss weights them. Gradients flow to
the prediction. psnr is evaluation-only and returns a plain float.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .config import Config
from .errors import ConfigError, DimensionError


def check_loss_weights(cfg):
    """The hybrid loss needs at least one positive weight."""
    if cfg.lambda1 == 0 and cfg.lambda2 == 0:
        raise ConfigError("lambda1 and lambda2 must not both be 0")


def check_ssim_window(cfg, h, w):
    """The sliding window must fit in an h x w slice."""
    if cfg.ssim_aggregation == "sliding-mean" and cfg.ssim_window > min(h, w):
        raise ConfigError(f"ssim_window {cfg.ssim_window} exceeds slice extent {h}x{w}")


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
    return ad.mse(x, y)


def ssim(x, y, cfg=None):
    """Mean structural similarity of two [D, H, W] volumes in [0, 1].

    Local statistics come from a uniform sliding window on each axial slice
    ("sliding-mean") or from whole-slice moments ("global"); slice scores are
    averaged over depth. cfg is a run Config (None: the defaults); its
    ssim_* keys apply. Returns a differentiable scalar tensor.
    """
    cfg = Config() if cfg is None else cfg
    x, y = _as3d(x), _as3d(y)
    if x.shape != y.shape:
        raise DimensionError(f"ssim: shape mismatch {x.shape} vs {y.shape}")
    check_ssim_window(cfg, *x.shape[1:])
    window = cfg.ssim_window if cfg.ssim_aggregation == "sliding-mean" else None
    return ad.ssim(x, y, cfg.ssim_c1, cfg.ssim_c2, window)


def psnr(x, y):
    """Peak signal-to-noise ratio in dB at peak 1 (volumes are min-max
    normalized and the decoder head is a sigmoid); identical inputs give
    +inf."""
    x = x.data if isinstance(x, ad.Tensor) else np.asarray(x)
    y = y.data if isinstance(y, ad.Tensor) else np.asarray(y)
    if x.shape != y.shape:
        raise DimensionError(f"psnr: shape mismatch {x.shape} vs {y.shape}")
    err = float(np.mean((x - y) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)


def hybrid_loss(x, y, cfg=None):
    """lambda1 * (1 - ssim) + lambda2 * mse, differentiable in x; the weights
    and the SSIM settings come from the run Config cfg (None: the defaults)."""
    cfg = Config() if cfg is None else cfg
    check_loss_weights(cfg)
    parts = []
    if cfg.lambda1 != 0.0:
        parts.append(cfg.lambda1 * (1.0 - ssim(x, y, cfg)))
    if cfg.lambda2 != 0.0:
        parts.append(cfg.lambda2 * mse(x, y))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


# ---------------------------------------------------------------------------
# evaluation report rows
# ---------------------------------------------------------------------------

REPORT_HEADER = "subject, n_samples, ssim_mean, ssim_std, psnr_mean, psnr_std"


def finite_psnr_stats(psnrs):
    """(mean, population std) of the finite PSNRs; (+inf, 0) when none is
    finite, as when every prediction is exact."""
    psnrs = np.asarray(psnrs, dtype=np.float64)
    finite = psnrs[np.isfinite(psnrs)]
    if not finite.size:
        return math.inf, 0.0
    return float(finite.mean()), float(finite.std())


def format_report_row(subject, ssims, psnrs):
    """One mean+-std row per subject; population (ddof=0) convention."""
    ssims = np.asarray(ssims, dtype=np.float64)
    p_mean, p_std = finite_psnr_stats(psnrs)
    return (
        f"{subject}, {ssims.size}, {ssims.mean():.6f}, {ssims.std():.6f}, "
        f"{p_mean:.6f}, {p_std:.6f}"
    )
