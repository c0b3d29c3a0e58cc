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

from conftest import (
    MICRO_GEOMETRY,
    fd_grad_check,
    mse_composed,
    outputs_and_grads,
    ssim_composed,
)
from test_autodiff import NODE_SLACK, retained_bytes


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
# the one-node loss ops against the compositions they replaced
# ---------------------------------------------------------------------------

# a micro and a noddi volume
LOSS_SHAPES = [MICRO_GEOMETRY[3:], (30, 64, 64)]
SSIM_C = (1e-4, 9e-4)


def loss_inputs(shape, y_grad, seed=0):
    rng = np.random.default_rng(seed)
    return [ad.Tensor(rng.random(shape), requires_grad=True),
            ad.Tensor(rng.random(shape), requires_grad=y_grad)]


def assert_matches_composition(op, composed, inputs):
    """op's value equals composed's bit for bit, and each input's gradient
    is within 1e-12 of composed's, relative to its largest magnitude."""
    fused, want = outputs_and_grads(op, inputs), outputs_and_grads(composed, inputs)
    assert np.array_equal(fused[0], want[0])
    for f, w in zip(fused[1:], want[1:]):
        assert np.max(np.abs(f - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("y_grad", [False, True], ids=["y-constant", "y-grad"])
@pytest.mark.parametrize("window", [1, 3, 7, None], ids=["window1", "window3", "window7", "global"])
@pytest.mark.parametrize("shape", LOSS_SHAPES, ids=["micro", "noddi"])
def test_ssim_matches_composition(shape, window, y_grad):
    assert_matches_composition(
        lambda x, y: ad.ssim(x, y, *SSIM_C, window),
        lambda x, y: ssim_composed(x, y, *SSIM_C, window),
        loss_inputs(shape, y_grad),
    )


@pytest.mark.parametrize("y_grad", [False, True], ids=["y-constant", "y-grad"])
@pytest.mark.parametrize("shape", LOSS_SHAPES, ids=["micro", "noddi"])
def test_mse_matches_composition(shape, y_grad):
    assert_matches_composition(ad.mse, mse_composed, loss_inputs(shape, y_grad))


@pytest.mark.parametrize("aggregation", ["sliding-mean", "global"])
def test_hybrid_loss_value_matches_composition(aggregation):
    """The default hybrid loss of two noddi volumes is the composition's
    value, bit for bit."""
    x, y = loss_inputs(LOSS_SHAPES[1], y_grad=False)
    cfg = Config({"ssim_aggregation": aggregation})
    window = cfg.ssim_window if aggregation == "sliding-mean" else None
    want = (cfg.lambda1 * (1.0 - ssim_composed(x, y, cfg.ssim_c1, cfg.ssim_c2, window))
            + cfg.lambda2 * mse_composed(x, y))
    assert hybrid_loss(x, y, cfg).item() == want.item()


def test_loss_ops_keep_their_inputs_and_at_most_four_maps():
    """Recorded on a tape at the noddi volume shape, SSIM over 7 x 7 windows
    is one node that grows memory by four [30, 58, 58] maps (3.2 MB) and
    MSE one node that grows it by nothing but its output."""
    x, y = loss_inputs(LOSS_SHAPES[1], y_grad=False)
    maps = 4 * 30 * 58 * 58 * 8
    with ad.Tape() as tape:
        for op, kept in ((lambda: ad.ssim(x, y, *SSIM_C, 7), maps), (lambda: ad.mse(x, y), 0)):
            _out, grown = retained_bytes(op)
            assert grown <= kept + NODE_SLACK
    assert len(tape.nodes) == 2


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
