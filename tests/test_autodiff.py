"""Tensor engine: forward examples, oracle agreement, and gradient checks."""

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.errors import DimensionError, NumericError

from conftest import (
    conv2d_oracle,
    fd_grad_check,
    matmul_oracle,
    rel_err,
    selective_scan_inputs,
)


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------

def test_conv2d_identity_kernel():
    x = ad.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
    k = ad.Tensor([[[[1.0]]]])
    out = ad.conv2d(x, k)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_window_sum():
    x = ad.Tensor(np.ones((1, 1, 3, 3)))
    k = ad.Tensor(np.ones((1, 1, 3, 3)))
    assert ad.conv2d(x, k).data.reshape(()) == 9.0


def test_conv2d_matches_quadruple_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 8, 8))
    k = rng.standard_normal((4, 3, 3, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), padding=(1, 1))
    assert out.shape == (2, 4, 8, 8)
    assert np.max(np.abs(out.data - conv2d_oracle(x, k, padding=(1, 1)))) <= 1e-12


def test_conv2d_oracle_all_small_extents():
    rng = np.random.default_rng(1)
    for h, w, kh, kw in [(4, 5, 2, 3), (8, 8, 3, 3), (6, 7, 1, 1), (5, 5, 5, 5)]:
        x = rng.standard_normal((1, 2, h, w))
        k = rng.standard_normal((3, 2, kh, kw))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        assert np.max(np.abs(out.data - conv2d_oracle(x, k))) <= 1e-12


def test_conv2d_strided_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 7, 9))
    k = rng.standard_normal((2, 2, 1, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), stride=(1, 2), padding=(0, 1))
    assert np.max(
        np.abs(out.data - conv2d_oracle(x, k, stride=(1, 2), padding=(0, 1)))
    ) <= 1e-12


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError):
        ad.conv2d(ad.Tensor(np.zeros((1, 2, 4, 4))), ad.Tensor(np.zeros((1, 3, 3, 3))))


def test_linear_identity_and_bias():
    x = ad.Tensor([1.0, 2.0, 3.0])
    out = ad.linear(x, ad.Tensor(np.eye(3)), ad.Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])
    out = ad.linear(x, ad.Tensor(np.zeros((1, 3))), ad.Tensor([5.0]))
    np.testing.assert_array_equal(out.data, [5.0])


def test_linear_matches_matmul_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8))
    w = rng.standard_normal((3, 8))
    out = ad.linear(ad.Tensor(x), ad.Tensor(w))
    assert np.max(np.abs(out.data - matmul_oracle(x, w.T))) <= 1e-12


def test_linear_extent_mismatch():
    with pytest.raises(DimensionError):
        ad.linear(ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((3, 5))))


def test_layer_norm_constant_and_symmetric():
    gain, shift = ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3))
    out = ad.layer_norm(ad.Tensor([3.0, 3.0, 3.0]), gain, shift)
    assert np.max(np.abs(out.data)) < 1e-6
    gain2, shift2 = ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2))
    out = ad.layer_norm(ad.Tensor([1.0, -1.0]), gain2, shift2)
    assert np.max(np.abs(out.data - [1.0, -1.0])) < 1e-4


def test_layer_norm_moments():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(16)
    out = ad.layer_norm(
        ad.Tensor(x), ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16))
    ).data
    assert abs(out.mean()) < 1e-9
    assert abs(out.var() - 1.0) < 1e-3


def test_silu_values():
    assert ad.silu(ad.Tensor(0.0)).item() == 0.0
    assert abs(ad.silu(ad.Tensor(20.0)).item() - 20.0) < 1e-6
    h = 1e-6
    fd = (ad.silu(ad.Tensor(h)).item() - ad.silu(ad.Tensor(-h)).item()) / (2 * h)
    assert abs(fd - 0.5) < 1e-6


def test_softmax_values():
    out = ad.softmax(ad.Tensor([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    out = ad.softmax(ad.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8)
    e = np.exp(x - x.max())
    assert np.max(np.abs(ad.softmax(ad.Tensor(x)).data - e / e.sum())) <= 1e-12


# ---------------------------------------------------------------------------
# backward basics
# ---------------------------------------------------------------------------

def test_backward_square():
    x = ad.Tensor(3.0, requires_grad=True)
    with ad.Tape():
        y = x * x
        y.backward()
    assert abs(x.grad - 6.0) < 1e-12


def test_backward_product():
    x = ad.Tensor(2.0, requires_grad=True)
    y = ad.Tensor(5.0, requires_grad=True)
    with ad.Tape():
        (x * y).backward()
    assert x.grad == 5.0 and y.grad == 2.0


def test_backward_nonscalar_without_seed_is_usage_error():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape():
        y = x * x
        with pytest.raises(ValueError):
            y.backward()


def test_gradient_accumulation_of_sum_matches_separate_backwards():
    rng = np.random.default_rng(6)
    data = rng.standard_normal(5)
    x = ad.Tensor(data.copy(), requires_grad=True)
    with ad.Tape():
        f = ad.tsum(x * x)
        g = ad.tsum(ad.exp(x))
        (f + g).backward()
    combined = x.grad.copy()
    x.grad = None
    with ad.Tape():
        ad.tsum(x * x).backward()
    with ad.Tape():
        ad.tsum(ad.exp(x)).backward()
    np.testing.assert_allclose(combined, x.grad, rtol=1e-12)


def test_no_tape_means_plain_forward():
    x = ad.Tensor(2.0, requires_grad=True)
    y = x * x
    assert y._tape is None and y.item() == 4.0


# ---------------------------------------------------------------------------
# per-op finite differences, >= 10 seeds
# ---------------------------------------------------------------------------

UNARY_OPS = [
    ad.exp,
    ad.log,
    ad.sqrt,
    ad.sigmoid,
    ad.silu,
    ad.softplus,
    ad.neg,
    lambda t: ad.powc(t, 3.0),
    lambda t: ad.softmax(t, axis=-1),
    lambda t: ad.reshape(t, (2, 3)),
    lambda t: ad.permute(ad.reshape(t, (2, 3)), (1, 0)),
    lambda t: t[2:5],
    lambda t: ad.pad(t, ((1, 2),)),
    lambda t: ad.tmean(t, keepdims=True),
    lambda t: ad.tsum(t, keepdims=True),
]


@pytest.mark.parametrize("seed", range(10))
def test_unary_op_gradients(seed):
    rng = np.random.default_rng(seed)
    for op in UNARY_OPS:
        x = ad.Tensor(rng.uniform(0.2, 1.5, size=6), requires_grad=True)
        fd_grad_check(lambda: ad.tsum(ad.exp(op(x) * 0.3)), [x])


@pytest.mark.parametrize("seed", range(10))
def test_binary_op_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    a = ad.Tensor(rng.uniform(0.3, 1.2, size=(2, 3)), requires_grad=True)
    b = ad.Tensor(rng.uniform(0.3, 1.2, size=(1, 3)), requires_grad=True)
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        fd_grad_check(lambda: ad.tsum(op(a, b) * op(a, b)), [a, b])
    fd_grad_check(lambda: ad.tsum(ad.concat([a, b], axis=0) * 0.7), [a, b])


@pytest.mark.parametrize("seed", range(10))
def test_matmul_linear_layernorm_gradients(seed):
    rng = np.random.default_rng(200 + seed)
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    fd_grad_check(lambda: ad.tsum(ad.sigmoid(ad.linear(x, w, b))), [x, w, b])
    gain = ad.Tensor(rng.standard_normal(4), requires_grad=True)
    shift = ad.Tensor(rng.standard_normal(4), requires_grad=True)
    fd_grad_check(
        lambda: ad.tsum(ad.layer_norm(x, gain, shift) * 0.3), [x, gain, shift]
    )


@pytest.mark.parametrize("seed", range(10))
def test_conv2d_gradients(seed):
    rng = np.random.default_rng(300 + seed)
    x = ad.Tensor(rng.standard_normal((1, 2, 4, 5)), requires_grad=True)
    k = ad.Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5, requires_grad=True)
    fd_grad_check(
        lambda: ad.tsum(ad.sigmoid(ad.conv2d(x, k, stride=(1, 2), padding=(1, 1)))),
        [x, k],
    )


@pytest.mark.parametrize("seed", range(10))
def test_scan_gradients_both_modes(seed):
    rng = np.random.default_rng(400 + seed)
    a = ad.Tensor(rng.uniform(0.1, 0.9, size=(2, 7)), requires_grad=True)
    x = ad.Tensor(rng.standard_normal((2, 7)), requires_grad=True)
    for mode in ("sequential", "blocked"):
        fd_grad_check(
            lambda: ad.tsum(ad.sigmoid(ad.linear_scan(a, x, mode=mode))), [a, x]
        )


@pytest.mark.parametrize("seed", range(10))
def test_gather_flat_gradients(seed):
    rng = np.random.default_rng(500 + seed)
    x = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    idx = rng.integers(0, 6, size=8)
    fd_grad_check(lambda: ad.tsum(ad.powc(ad.gather_flat(x, idx, (8,)), 2.0)), [x])


def test_gather_flat_repeated_indices_accumulate():
    x = ad.Tensor(np.arange(4.0), requires_grad=True)
    with ad.Tape():
        out = ad.gather_flat(x, np.array([1, 1, 3]), (3,))
        ad.tsum(out).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# scan kernels
# ---------------------------------------------------------------------------

def test_linear_scan_matches_python_recurrence():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, size=(3, 33))
    x = rng.standard_normal((3, 33))
    want = np.zeros_like(x)
    prev = np.zeros(3)
    for t in range(33):
        prev = a[:, t] * prev + x[:, t]
        want[:, t] = prev
    for mode in ("sequential", "blocked"):
        out = ad.linear_scan(ad.Tensor(a), ad.Tensor(x), mode=mode)
        assert np.max(np.abs(out.data - want)) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow")
def test_linear_scan_nonfinite_reports_step_index():
    a = ad.Tensor(np.full((1, 5), 1e5))
    x = ad.Tensor(np.full((1, 5), 1e307))
    with pytest.raises(NumericError, match="step 1"):
        ad.linear_scan(a, x)


def test_linear_scan_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.linear_scan(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# fused selective scan
# ---------------------------------------------------------------------------

SELECTIVE_SCAN_FAULTS = [
    # (input index, position, value, message)
    pytest.param(1, (1, 2), np.nan, r"discretized transition left \[0, 1\]",
                 id="nan-delta"),
    pytest.param(0, (0, 3), np.inf, "linear_scan: non-finite state at step 3",
                 id="inf-token"),
]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("mode", ["sequential", "blocked"])
@pytest.mark.parametrize("index, position, value, message", SELECTIVE_SCAN_FAULTS)
def test_selective_scan_forward_checks(index, position, value, message, mode):
    inputs = selective_scan_inputs(np.random.default_rng(40), length=6)
    inputs[index].data[position] = value
    with pytest.raises(NumericError, match=message):
        ad.selective_scan(*inputs, mode=mode)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("mode", ["sequential", "blocked"])
@pytest.mark.parametrize("index, position, value, message", SELECTIVE_SCAN_FAULTS)
def test_selective_scan_backward_recompute_checks(index, position, value, message, mode):
    inputs = selective_scan_inputs(np.random.default_rng(41), length=6)
    with ad.Tape():
        loss = ad.tsum(ad.selective_scan(*inputs, mode=mode))
    # the saved inputs change between forward and backward, so only the
    # recompute in backward can see the fault
    inputs[index].data[position] = value
    with pytest.raises(NumericError, match=message):
        loss.backward()


def test_selective_scan_shape_mismatch():
    u, delta, a, b, c = selective_scan_inputs(np.random.default_rng(42))
    with pytest.raises(DimensionError, match="selective_scan"):
        ad.selective_scan(u, delta, a, b, ad.Tensor(np.zeros((3, 4))))


# ---------------------------------------------------------------------------
# bounded-input stability property
# ---------------------------------------------------------------------------

def test_bounded_ops_stay_finite():
    """No NaN/Inf from ops whose math stays in range on [-1e3, 1e3] inputs."""
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.uniform(-1e3, 1e3, size=(4, 4)))
    y = ad.Tensor(rng.uniform(-1e3, 1e3, size=(4, 4)))
    outputs = [
        (x + y).data,
        (x * y).data,
        ad.sigmoid(x).data,
        ad.silu(x).data,
        ad.softplus(x).data,
        ad.softmax(x, axis=-1).data,
        ad.tmean(x).data,
        ad.matmul(x, y).data,
        ad.layer_norm(x, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4))).data,
    ]
    for out in outputs:
        assert np.all(np.isfinite(out))


def test_rel_err_helper_floor():
    assert rel_err(1e-9, 2e-9) < 1e-2  # tiny values judged against the floor
