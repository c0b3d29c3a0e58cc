"""Loss and metric identities, oracles, and differentiability."""

import math

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.config import Config
from eeg2vol.errors import ConfigError, DimensionError
from eeg2vol.losses import (
    format_report_row,
    hybrid_loss,
    mse,
    psnr,
    ssim,
)

from conftest import fd_grad_check


def weights(lambda1, lambda2):
    return Config({"lambda1": lambda1, "lambda2": lambda2})


def test_loss_weights_validation():
    with pytest.raises(ConfigError, match="lambda1"):
        Config({"lambda1": -0.1})
    x = np.random.default_rng(11).random((1, 8, 8))
    with pytest.raises(ConfigError, match="lambda1 and lambda2 must not both be 0"):
        hybrid_loss(x, x, weights(0.0, 0.0))


def test_ssim_config_validation():
    with pytest.raises(ConfigError, match="ssim_window"):
        Config({"ssim_window": 4})
    with pytest.raises(ConfigError, match="ssim_c1"):
        Config({"ssim_c1": 0.0})
    with pytest.raises(ConfigError, match="ssim_aggregation"):
        Config({"ssim_aggregation": "cubic"})


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_examples():
    x = np.zeros((1, 2, 1))
    assert mse(x, x).item() == 0.0
    assert mse(np.array([1.0, 0.0]), np.array([0.0, 0.0])).item() == 0.5


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.random((2, 3, 4))
    y = rng.random((2, 3, 4))
    total = 0.0
    for v1, v2 in zip(x.reshape(-1), y.reshape(-1)):
        total += (v1 - v2) ** 2
    assert abs(mse(x, y).item() - total / x.size) < 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        mse(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# ssim
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("aggregation", ["sliding-mean", "global"])
def test_ssim_self_is_one(aggregation):
    rng = np.random.default_rng(1)
    x = rng.random((3, 8, 8))
    cfg = Config({"ssim_aggregation": aggregation})
    assert abs(ssim(x, x, cfg).item() - 1.0) < 1e-9


def test_ssim_constant_case_by_hand():
    x = np.zeros((2, 8, 8))
    y = np.ones((2, 8, 8))
    cfg = Config({"ssim_c1": 1e-4, "ssim_c2": 9e-4})
    # zero-variance terms cancel to c2/c2; means give (2*0*1+c1)/(0+1+c1)
    want = 1e-4 / (1.0 + 1e-4)
    assert abs(ssim(x, y, cfg).item() - want) < 1e-12


@pytest.mark.parametrize("aggregation", ["sliding-mean", "global"])
def test_ssim_symmetry(aggregation):
    rng = np.random.default_rng(2)
    x = rng.random((2, 9, 9))
    y = rng.random((2, 9, 9))
    cfg = Config({"ssim_aggregation": aggregation})
    assert abs(ssim(x, y, cfg).item() - ssim(y, x, cfg).item()) <= 1e-12


def test_ssim_bounded_by_one():
    rng = np.random.default_rng(3)
    for seed in range(5):
        x = np.random.default_rng(seed).random((2, 8, 8))
        y = rng.random((2, 8, 8))
        assert abs(ssim(x, y).item()) <= 1.0


def test_ssim_window_too_large():
    with pytest.raises(ConfigError, match="ssim_window 7 exceeds slice extent 4x4"):
        ssim(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), Config({"ssim_window": 7}))
    # the global aggregation has no window to fit
    cfg = Config({"ssim_window": 7, "ssim_aggregation": "global"})
    assert ssim(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), cfg).item() == 1.0


def test_ssim_non_volume_input():
    with pytest.raises(DimensionError):
        ssim(np.zeros((4, 4)), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# psnr
# ---------------------------------------------------------------------------

def test_psnr_exact_20db():
    x = np.zeros((1, 5, 5))
    y = x.copy()
    y[0, 0, 0] = 0.5  # squared error 0.25 over 25 voxels: mse exactly 0.01
    assert psnr(x, y) == 20.0


def test_psnr_identity_and_zero_db():
    x = np.random.default_rng(4).random((2, 3, 3))
    assert psnr(x, x) == math.inf
    assert psnr(np.zeros(4), np.ones(4)) == 0.0


def test_psnr_symmetric_and_monotone():
    rng = np.random.default_rng(5)
    x = rng.random((2, 4, 4))
    y = rng.random((2, 4, 4))
    assert psnr(x, y) == psnr(y, x)
    closer = x + 0.1 * (y - x)
    assert psnr(x, closer) > psnr(x, y)


# ---------------------------------------------------------------------------
# hybrid loss
# ---------------------------------------------------------------------------

def test_hybrid_identity_is_zero():
    x = np.random.default_rng(6).random((2, 8, 8))
    assert abs(hybrid_loss(x, x, weights(0.7, 0.3)).item()) < 1e-9


def test_hybrid_weighted_arithmetic():
    rng = np.random.default_rng(7)
    x, y = rng.random((2, 8, 8)), rng.random((2, 8, 8))
    s = ssim(x, y).item()
    m = mse(x, y).item()
    got = hybrid_loss(x, y, weights(0.5, 0.5)).item()
    assert abs(got - (0.5 * (1.0 - s) + 0.5 * m)) < 1e-12
    # the spec's worked example: ssim 0.8, mse 0.1 -> 0.15
    assert abs((0.5 * (1 - 0.8) + 0.5 * 0.1) - 0.15) < 1e-15


def test_hybrid_degenerate_weight_identities_exact():
    rng = np.random.default_rng(8)
    x, y = rng.random((2, 8, 8)), rng.random((2, 8, 8))
    assert hybrid_loss(x, y, weights(0.0, 0.7)).item() == 0.7 * mse(x, y).item()
    assert (
        hybrid_loss(x, y, weights(0.3, 0.0)).item()
        == 0.3 * (1.0 - ssim(x, y).item())
    )


def test_hybrid_nonnegative_on_unit_range():
    rng = np.random.default_rng(9)
    for seed in range(5):
        x = np.random.default_rng(100 + seed).random((2, 8, 8))
        y = rng.random((2, 8, 8))
        assert hybrid_loss(x, y).item() >= 0.0


@pytest.mark.parametrize("aggregation", ["sliding-mean", "global"])
def test_hybrid_gradient_wrt_prediction(aggregation):
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.random((3, 4, 4)), requires_grad=True)
    y = ad.Tensor(rng.random((3, 4, 4)))
    cfg = Config({"ssim_window": 3, "ssim_aggregation": aggregation,
                  "lambda1": 0.5, "lambda2": 0.5})
    fd_grad_check(lambda: hybrid_loss(x, y, cfg), [x])


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------

def test_report_row_population_std_two_pass_oracle():
    ssims = [0.5, 0.7, 0.9]
    psnrs = [20.0, 22.0, 30.0]
    row = format_report_row("s01", ssims, psnrs)
    mean_s = sum(ssims) / 3
    std_s = math.sqrt(sum((v - mean_s) ** 2 for v in ssims) / 3)
    mean_p = sum(psnrs) / 3
    std_p = math.sqrt(sum((v - mean_p) ** 2 for v in psnrs) / 3)
    assert row == f"s01, 3, {mean_s:.6f}, {std_s:.6f}, {mean_p:.6f}, {std_p:.6f}"


def test_report_row_filters_infinite_psnr():
    row = format_report_row("s02", [1.0], [math.inf])
    assert row.startswith("s02, 1, 1.000000, 0.000000, inf,")
    row = format_report_row("s03", [1.0, 0.5, 0.5], [math.inf, 20.0, 30.0])
    assert row.endswith(", 25.000000, 5.000000")
