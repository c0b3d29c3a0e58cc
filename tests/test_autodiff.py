"""Tensor engine: forward examples, oracle agreement, and gradient checks."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeg2vol import autodiff as ad
from eeg2vol.errors import DimensionError, NumericError

from conftest import (
    S6,
    attention_composed,
    conv2d_oracle,
    conv2d_windowed,
    div,
    exp,
    fd_grad_check,
    gated_residual_composed,
    layer_norm_composed,
    linear_composed,
    linear_scan,
    matmul_oracle,
    neg,
    outputs_and_grads,
    rel_err,
    s6_scan_four_nodes,
    s6_scan_reference,
    scan_merge_composed,
    scan_two_op,
    selective_scan_inputs,
    selective_scan_unchunked,
    silu_linear_composed,
    softmax,
    softmax_composed,
    softplus,
    sqrt,
    tmean,
    tsum,
    via_np_pad_and_sliding_windows,
)


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------

def test_conv2d_identity_kernel():
    x = ad.Tensor([[[[1.0], [2.0]], [[3.0], [4.0]]]])
    k = ad.Tensor([[[[1.0]]]])
    out = ad.conv2d(x, k)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_window_sum():
    x = ad.Tensor(np.ones((1, 3, 3, 1)))
    k = ad.Tensor(np.ones((1, 1, 3, 3)))
    assert ad.conv2d(x, k).data.reshape(()) == 9.0


def test_conv2d_matches_quadruple_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 8, 8, 3))
    k = rng.standard_normal((4, 3, 3, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), padding=(1, 1))
    assert out.shape == (2, 8, 8, 4)
    assert np.max(np.abs(out.data - conv2d_oracle(x, k, padding=(1, 1)))) <= 1e-12


def test_conv2d_oracle_all_small_extents():
    rng = np.random.default_rng(1)
    for h, w, kh, kw in [(4, 5, 2, 3), (8, 8, 3, 3), (6, 7, 1, 1), (5, 5, 5, 5)]:
        x = rng.standard_normal((1, h, w, 2))
        k = rng.standard_normal((3, 2, kh, kw))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        assert np.max(np.abs(out.data - conv2d_oracle(x, k))) <= 1e-12


def test_conv2d_strided_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 7, 9, 2))
    k = rng.standard_normal((2, 2, 1, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), stride=(1, 2), padding=(0, 1))
    assert np.max(
        np.abs(out.data - conv2d_oracle(x, k, stride=(1, 2), padding=(0, 1)))
    ) <= 1e-12


@pytest.mark.parametrize("padding", [(0, 0), (1, 1)])
def test_conv2d_grid_equals_batch_of_one(padding):
    """conv2d on an [H, W, C] grid equals conv2d on its [1, H, W, C] batch
    bit for bit: output and both gradients."""
    rng = np.random.default_rng(5)
    grid = ad.Tensor(rng.standard_normal((5, 6, 3)), requires_grad=True)
    kernel = ad.Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
    batch = ad.Tensor(grid.data[None], requires_grad=True)
    got = outputs_and_grads(lambda x, k: ad.conv2d(x, k, (1, 2), padding), [grid, kernel])
    want = outputs_and_grads(lambda x, k: ad.conv2d(x, k, (1, 2), padding), [batch, kernel])
    for a, b in zip(got, want):
        assert b.shape in (a.shape, (1,) + a.shape) and np.array_equal(a, b.reshape(a.shape))


def test_conv2d_rejects_input_without_a_grid():
    with pytest.raises(DimensionError, match=r"\[\.\.\., H, W, C\]"):
        ad.conv2d(ad.Tensor(np.zeros((4, 4))), ad.Tensor(np.zeros((1, 1, 3, 3))))


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError):
        ad.conv2d(ad.Tensor(np.zeros((1, 4, 4, 2))), ad.Tensor(np.zeros((1, 3, 3, 3))))


@pytest.mark.parametrize(
    "x_shape, k_shape, padding, message",
    [
        pytest.param((1, 6, 6, 1), (1, 1, 3, 3), (-1, 0), "padding", id="negative-padding"),
        pytest.param((1, 4, 4, 1), (1, 1, 0, 3), (0, 0), "kernel extents", id="empty-kernel"),
    ],
)
def test_conv2d_bad_geometry(x_shape, k_shape, padding, message):
    with pytest.raises(DimensionError, match=message):
        ad.conv2d(ad.Tensor(np.zeros(x_shape)), ad.Tensor(np.zeros(k_shape)), padding=padding)


@settings(max_examples=40, deadline=None)
@given(
    stride=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    extent=st.sampled_from([(1, 3), (3, 1), (3, 3), (7, 7)]),
    extra=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 4),
    kernel_grad=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv2d_matches_windowed(stride, padding, extent, extra, c_in, c_out, kernel_grad, seed):
    """The kernel-row GEMMs against the window einsum they replaced: output
    and both gradients within 1e-12 of each oracle array's largest value."""
    rng = np.random.default_rng(seed)
    (kh, kw), (eh, ew) = extent, extra
    x = ad.Tensor(rng.standard_normal((2, kh + eh, kw + ew, c_in)), requires_grad=True)
    kernel = ad.Tensor(rng.standard_normal((c_out, c_in, kh, kw)), requires_grad=kernel_grad)
    got = outputs_and_grads(lambda x, k: ad.conv2d(x, k, stride, padding), [x, kernel], seed)
    want = outputs_and_grads(
        lambda x, k: conv2d_windowed(x, k, stride, padding), [x, kernel], seed
    )
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_conv2d_memory_is_bounded():
    """At SSIM's box-mean shape (a constant 7x7 kernel over [30, 64, 64, 1])
    no value is copied once per window tap: the forward peaks within 10
    input-sized arrays and the backward within 15."""
    rng = np.random.default_rng(44)
    x = ad.Tensor(rng.standard_normal((30, 64, 64, 1)), requires_grad=True)
    kernel = ad.Tensor(np.full((1, 1, 7, 7), 1.0 / 49))
    g = rng.standard_normal((30, 58, 58, 1))

    def peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] / x.data.nbytes
        finally:
            tracemalloc.stop()

    with ad.Tape() as tape:
        y, forward = peak(lambda: ad.conv2d(x, kernel))
        _, backward = peak(lambda: tape.backward(y, seed=g))
    assert forward <= 10.0
    assert backward <= 15.0


def bit_equal(got, want):
    """Equal arrays, NaN for NaN; a zero's sign must match too."""
    values = ~np.isnan(want)
    return got.shape == want.shape and np.array_equal(got, want, equal_nan=True) and (
        np.array_equal(np.signbit(got[values]), np.signbit(want[values]))
    )


def permuted_view(rng, shape):
    """A standard-normal array of the given shape that is a permuted, not
    C-contiguous, view of its buffer, as Model.forward hands the loss its
    prediction."""
    return rng.standard_normal(tuple(reversed(shape))).transpose()


@pytest.mark.parametrize("permuted", [False, True], ids=["contiguous", "permuted"])
@pytest.mark.parametrize("padding", [(0, 0), (1, 2)])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
def test_conv2d_equals_np_pad_and_sliding_windows(stride, padding, permuted):
    """conv2d's output and both gradients, from _zero_pad and the as_strided
    windows, bit for bit those of np.pad and sliding_window_view."""
    rng = np.random.default_rng(60)
    shape = (2, 9, 8, 3)
    data = permuted_view(rng, shape) if permuted else rng.standard_normal(shape)
    assert data.flags.c_contiguous != permuted
    x = ad.Tensor(data, requires_grad=True)
    kernel = ad.Tensor(rng.standard_normal((4, 3, 3, 2)), requires_grad=True)
    op = lambda x, k: ad.conv2d(x, k, stride, padding)
    got = outputs_and_grads(op, [x, kernel], seed=1)
    want = via_np_pad_and_sliding_windows(outputs_and_grads, op, [x, kernel], 1)
    assert all(bit_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("permuted", [False, True], ids=["contiguous", "permuted"])
def test_pad_equals_np_pad(permuted):
    rng = np.random.default_rng(61)
    shape = (3, 4, 2)
    a = ad.Tensor(
        permuted_view(rng, shape) if permuted else rng.standard_normal(shape),
        requires_grad=True,
    )
    op = lambda a: ad.pad(a, ((1, 2), (0, 3), (2, 0)))
    got = outputs_and_grads(op, [a], seed=2)
    want = via_np_pad_and_sliding_windows(outputs_and_grads, op, [a], 2)
    assert got[0].shape == (6, 7, 4)
    assert all(bit_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("permuted", [False, True], ids=["contiguous", "permuted"])
def test_ssim_window_7_equals_np_pad_and_sliding_windows(permuted):
    """ad.ssim at window 7, whose box filters run conv2d forward and whose
    adjoint zero-pads: value and both gradients bit for bit."""
    rng = np.random.default_rng(62)
    shape = (3, 12, 10)
    x, y = (
        ad.Tensor(permuted_view(rng, shape) if permuted else rng.random(shape), requires_grad=True)
        for _ in range(2)
    )
    op = lambda x, y: ad.ssim(x, y, 1e-4, 9e-4, window=7)
    got = outputs_and_grads(op, [x, y], seed=3)
    want = via_np_pad_and_sliding_windows(outputs_and_grads, op, [x, y], 3)
    assert all(bit_equal(a, b) for a, b in zip(got, want))


def test_conv2d_windows_are_read_only():
    xp = np.arange(2 * 7 * 6 * 3, dtype=np.float64).reshape(2, 7, 6, 3)
    windows = ad._windows(xp, 3, 2, (2, 1))
    assert windows.shape == (2, 3, 5, 3, 2, 3)
    np.testing.assert_array_equal(windows[1, 2, 4], xp[1, 4:7, 4:6])
    with pytest.raises(ValueError, match="read-only"):
        windows[0, 0, 0, 0, 0, 0] = 1.0


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


# ---------------------------------------------------------------------------
# one-node ops against their compositions
# ---------------------------------------------------------------------------

FUSED_TOL = 1e-12


def worst_gap(fused, composed):
    """Largest difference over the output and every input gradient, each
    relative to the composition's largest magnitude (floor 1)."""
    return max(
        float(np.max(np.abs(f - c), initial=0.0))
        / max(1.0, float(np.max(np.abs(c), initial=0.0)))
        for f, c in zip(fused, composed)
    )


def leaves(rng, *shapes):
    return [ad.Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


@settings(max_examples=40, deadline=None)
@given(
    lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n_in=st.integers(1, 6),
    n_out=st.integers(1, 5),
    bias=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_linear_matches_composition(lead, n_in, n_out, bias, seed):
    rng = np.random.default_rng(seed)
    shapes = [tuple(lead) + (n_in,), (n_out, n_in)] + [(n_out,)] * bias
    inputs = leaves(rng, *shapes)
    fused = outputs_and_grads(ad.linear, inputs, seed)
    composed = outputs_and_grads(linear_composed, inputs, seed)
    assert np.array_equal(fused[0], composed[0])
    assert worst_gap(fused, composed) <= FUSED_TOL


@settings(max_examples=40, deadline=None)
@given(
    lead=st.lists(st.integers(1, 4), max_size=3),
    width=st.integers(1, 8),
    scale=st.sampled_from([1e-3, 1.0, 10.0]),
    seed=st.integers(0, 2**16),
)
def test_layer_norm_matches_composition(lead, width, scale, seed):
    rng = np.random.default_rng(seed)
    inputs = leaves(rng, tuple(lead) + (width,), (width,), (width,))
    inputs[0].data *= scale
    fused = outputs_and_grads(ad.layer_norm, inputs, seed)
    composed = outputs_and_grads(layer_norm_composed, inputs, seed)
    assert np.array_equal(fused[0], composed[0])
    assert worst_gap(fused, composed) <= FUSED_TOL


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    axis_pick=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_softmax_matches_composition(shape, axis_pick, seed):
    rng = np.random.default_rng(seed)
    inputs = leaves(rng, tuple(shape))
    inputs[0].data *= 3.0
    axis = axis_pick % len(shape)
    fused = outputs_and_grads(lambda x: softmax(x, axis), inputs, seed)
    composed = outputs_and_grads(lambda x: softmax_composed(x, axis), inputs, seed)
    assert worst_gap(fused, composed) <= FUSED_TOL


# a VSS block's [H, W, C] grid and an [L, C] token sequence
VSS_SHAPES = [(4, 5, 3), (7, 3)]


def assert_bit_equal(fused, composed):
    """The output and every input gradient are equal, bit for bit."""
    for i, (f, c) in enumerate(zip(fused, composed)):
        assert np.array_equal(f, c), f"{'output' if i == 0 else f'gradient {i - 1}'} differs"


@pytest.mark.parametrize("shape", VSS_SHAPES)
@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-const"])
def test_silu_linear_matches_composition_bit_for_bit(shape, x_grad):
    rng = np.random.default_rng(len(shape))
    inputs = leaves(rng, shape, (4, shape[-1]), (4,))
    inputs[0].requires_grad = x_grad
    assert_bit_equal(
        outputs_and_grads(ad.silu_linear, inputs, 1),
        outputs_and_grads(silu_linear_composed, inputs, 1),
    )


@pytest.mark.parametrize("shape", VSS_SHAPES)
@pytest.mark.parametrize("const", [None, 0, 2], ids=["all-grad", "x-const", "gate-const"])
def test_gated_residual_matches_composition_bit_for_bit(shape, const):
    """Output and gradients of x, c, gate, gain, shift, weight and bias,
    with every input taking a gradient and with x or the gate constant."""
    rng = np.random.default_rng(len(shape))
    width = shape[-1]
    inputs = leaves(rng, shape, shape, shape, (width,), (width,), (width, width), (width,))
    if const is not None:
        inputs[const].requires_grad = False
    assert_bit_equal(
        outputs_and_grads(ad.gated_residual, inputs, 2),
        outputs_and_grads(gated_residual_composed, inputs, 2),
    )


@pytest.mark.parametrize("shape", VSS_SHAPES)
def test_vss_block_ops_sum_shared_gradients_as_composed(shape):
    """A VSS block's node graph: x feeds the pre-norm and the residual, and
    the normed x feeds in_proj and the gate. With the two fused ops, every
    leaf's gradient equals the composed block's bit for bit, so each shared
    input sums its two contributions in the composition's order."""
    rng = np.random.default_rng(3)
    width = shape[-1]
    vec, mat = (width,), (width, width)
    inputs = leaves(rng, shape, vec, vec, mat, vec, mat, vec, vec, vec, mat, vec)

    def block(silu_linear, gated_residual):
        def run(x, ln_gain, ln_shift, w_in, b_in, w_gate, b_gate, gain, shift, w_out, b_out):
            normed = ad.layer_norm(x, ln_gain, ln_shift)
            main = ad.linear(normed, w_in, b_in)
            gate = silu_linear(normed, w_gate, b_gate)
            return gated_residual(x, main, gate, gain, shift, w_out, b_out)

        return run

    assert_bit_equal(
        outputs_and_grads(block(ad.silu_linear, ad.gated_residual), inputs, 4),
        outputs_and_grads(block(silu_linear_composed, gated_residual_composed), inputs, 4),
    )


def test_gated_residual_rejects_misshapen_inputs():
    rng = np.random.default_rng(5)
    good = [(3, 4, 2), (3, 4, 2), (3, 4, 2), (2,), (2,), (2, 2), (2,)]
    # x off the output width, a gate unlike c, a gain off c's width, a
    # weight off c's width, a bias off the weight's rows
    for index, shape in [(0, (3, 4, 3)), (2, (3, 2, 2)), (3, (3,)), (5, (2, 3)), (6, (3,))]:
        shapes = list(good)
        shapes[index] = shape
        with pytest.raises(DimensionError, match="gated_residual"):
            ad.gated_residual(*leaves(rng, *shapes))
    with pytest.raises(DimensionError, match="silu_linear"):
        ad.silu_linear(*leaves(rng, (3, 2), (2, 3), (2,)))


def token_leaves(rng, tokens, width):
    """q, k and v as leaf [tokens, width] arrays: the layout
    Encoder.global_block hands attention."""
    return [ad.Tensor(rng.standard_normal((tokens, width)), requires_grad=True) for _ in range(3)]


# the noddi encoder's stage-0 heads (500 tokens) and both micro stages
ATTENTION_SHAPES = [(4, 500, 8), (2, 30, 2), (2, 15, 2)]


@pytest.mark.parametrize("heads, tokens, dh", ATTENTION_SHAPES)
@pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "mask"])
def test_attention_matches_composition_bit_for_bit(heads, tokens, dh, masked):
    """The one-node attention's output and q/k/v gradients equal those of
    the head split, matmul, softmax, mask and head merge composition it
    replaced, bit for bit."""
    rng = np.random.default_rng(tokens)
    qkv = token_leaves(rng, tokens, heads * dh)
    keep = rng.random((heads, tokens, tokens)) >= 0.1 if masked else None
    fused = outputs_and_grads(
        lambda q, k, v: ad.attention(q, k, v, heads, keep, 0.1), qkv, tokens
    )
    composed = outputs_and_grads(
        lambda q, k, v: attention_composed(q, k, v, heads, keep, 0.1), qkv, tokens
    )
    for f, c in zip(fused, composed):
        assert np.array_equal(f, c)


def test_attention_rejects_misshapen_inputs():
    rng = np.random.default_rng(9)
    q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
    cases = [
        (q[0], k, v, 2, None),  # 1-D q
        (q[None], k[None], v[None], 2, None),  # 3-D q, k and v
        (q, k[:, :2], v, 2, None),  # key width != query width
        (q, k, v[:2], 2, None),  # value count != query count
        (q, k[:2], v[:2], 2, None),  # key count != query count
        (q, k, v, 3, None),  # heads do not divide the width
        (q, k, v, 0, None),  # no head
        (q, k, v, 2, np.ones((2, 3, 2), dtype=bool)),  # mask not [heads, T, T]
        (q, k, v, 2, np.ones((1, 3, 3), dtype=bool)),  # mask of another head count
        (q, k, v, 2, np.ones((2, 3, 3))),  # mask not boolean
    ]
    for q_, k_, v_, heads, keep in cases:
        with pytest.raises(DimensionError, match="attention"):
            ad.attention(ad.Tensor(q_), ad.Tensor(k_), ad.Tensor(v_), heads, keep)


def test_fused_affine_ops_reject_misshapen_parameters():
    x = ad.Tensor(np.zeros((2, 3)))
    w = ad.Tensor(np.zeros((4, 3)))
    for bias in (np.zeros((1, 4)), np.zeros(3)):
        with pytest.raises(DimensionError):
            ad.linear(x, w, ad.Tensor(bias))
    for gain in (np.ones((1, 3)), np.ones(4)):
        with pytest.raises(DimensionError):
            ad.layer_norm(x, ad.Tensor(gain), ad.Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            ad.layer_norm(x, ad.Tensor(np.ones(3)), ad.Tensor(gain))


def test_silu_values():
    assert ad.silu(ad.Tensor(0.0)).item() == 0.0
    assert abs(ad.silu(ad.Tensor(20.0)).item() - 20.0) < 1e-6
    h = 1e-6
    fd = (ad.silu(ad.Tensor(h)).item() - ad.silu(ad.Tensor(-h)).item()) / (2 * h)
    assert abs(fd - 0.5) < 1e-6


def test_softmax_values():
    out = softmax(ad.Tensor([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    out = softmax(ad.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8)
    e = np.exp(x - x.max())
    assert np.max(np.abs(softmax(ad.Tensor(x)).data - e / e.sum())) <= 1e-12


# ---------------------------------------------------------------------------
# backward basics
# ---------------------------------------------------------------------------

def test_backward_square():
    x = ad.Tensor(3.0, requires_grad=True)
    with ad.Tape() as tape:
        y = x * x
        tape.backward(y)
    assert abs(x.grad - 6.0) < 1e-12


def test_backward_product():
    x = ad.Tensor(2.0, requires_grad=True)
    y = ad.Tensor(5.0, requires_grad=True)
    with ad.Tape() as tape:
        tape.backward(x * y)
    assert x.grad == 5.0 and y.grad == 2.0


def test_backward_nonscalar_without_seed_is_usage_error():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = x * x
        with pytest.raises(ValueError):
            tape.backward(y)


def test_gradient_accumulation_of_sum_matches_separate_backwards():
    rng = np.random.default_rng(6)
    data = rng.standard_normal(5)
    x = ad.Tensor(data.copy(), requires_grad=True)
    with ad.Tape() as tape:
        f = tsum(x * x)
        g = tsum(exp(x))
        tape.backward(f + g)
    combined = x.grad.copy()
    x.grad = None
    with ad.Tape() as tape:
        tape.backward(tsum(x * x))
    with ad.Tape() as tape:
        tape.backward(tsum(exp(x)))
    np.testing.assert_allclose(combined, x.grad, rtol=1e-12)


def test_leaf_gradients_accumulate_in_place():
    """A leaf's first gradient is copied once; every later contribution, in
    the same backward or a later one, is added into that array in place."""
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.standard_normal(4), requires_grad=True)
    with ad.Tape() as tape:
        tape.backward(tsum(x * x))  # two contributions to one leaf
    first = x.grad
    want = first + np.exp(x.data)
    with ad.Tape() as tape:
        tape.backward(tsum(exp(x)))  # a second sample
    assert x.grad is first
    assert np.array_equal(x.grad, want)
    scalar = ad.Tensor(3.0, requires_grad=True)
    with ad.Tape() as tape:
        tape.backward(scalar * scalar)  # 0-d products are numpy scalars
    assert isinstance(scalar.grad, np.ndarray) and scalar.grad == 6.0


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, div])
def test_constant_operand_gets_no_gradient(op):
    """A two-input op's backward computes nothing for an operand that needs
    no gradient, on either side, and leaves its .grad unset."""
    rng = np.random.default_rng(9)
    x = ad.Tensor(rng.uniform(0.5, 2.0, size=(2, 3)), requires_grad=True)
    const = ad.Tensor(rng.uniform(0.5, 2.0, size=3))
    for args in ((x, const), (const, x)):
        with ad.Tape() as tape:
            y = op(*args)
        grads = tape.nodes[-1][2](np.ones(y.shape))
        assert [gi is None for gi in grads] == [t is const for t in args]
        tape.backward(y, seed=np.ones(y.shape))
        assert const.grad is None and x.grad is not None
        x.grad = None


def test_no_tape_means_plain_forward():
    x = ad.Tensor(2.0, requires_grad=True)
    y = x * x
    assert not y.requires_grad and y.item() == 4.0


# ---------------------------------------------------------------------------
# per-op finite differences, >= 10 seeds
# ---------------------------------------------------------------------------

UNARY_OPS = [
    exp,
    sqrt,
    ad.sigmoid,
    ad.silu,
    softplus,
    neg,
    lambda t: softmax(t, axis=-1),
    lambda t: ad.reshape(t, (2, 3)),
    lambda t: ad.permute(ad.reshape(t, (2, 3)), (1, 0)),
    lambda t: ad.flip(t, 0),
    lambda t: ad.pad(t, ((1, 2),)),
    lambda t: tmean(t, keepdims=True),
    lambda t: tsum(t, keepdims=True),
]


def test_flip_is_np_flip_on_every_axis():
    """flip gives np.flip's result on each axis, a negative one too, forward
    and backward; an axis outside the array is a DimensionError."""
    x = np.arange(24.0).reshape(2, 3, 4)
    g = 2.0 * x + 1.0
    for axis in range(-3, 3):
        t = ad.Tensor(x, requires_grad=True)
        with ad.Tape() as tape:
            y = ad.flip(t, axis)
        tape.backward(y, seed=g)
        assert np.array_equal(y.data, np.flip(x, axis)), axis
        assert np.array_equal(t.grad, np.flip(g, axis)), axis
    for axis in (3, -4):
        with pytest.raises(DimensionError, match=f"flip: axis {axis} out of range"):
            ad.flip(ad.Tensor(x), axis)


@pytest.mark.parametrize("seed", range(10))
def test_unary_op_gradients(seed):
    rng = np.random.default_rng(seed)
    for op in UNARY_OPS:
        x = ad.Tensor(rng.uniform(0.2, 1.5, size=6), requires_grad=True)
        fd_grad_check(lambda: tsum(exp(op(x) * 0.3)), [x])


@pytest.mark.parametrize("seed", range(10))
def test_binary_op_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    a = ad.Tensor(rng.uniform(0.3, 1.2, size=(2, 3)), requires_grad=True)
    b = ad.Tensor(rng.uniform(0.3, 1.2, size=(1, 3)), requires_grad=True)
    for op in (ad.add, ad.sub, ad.mul, div):
        fd_grad_check(lambda: tsum(op(a, b) * op(a, b)), [a, b])
    fd_grad_check(lambda: tsum(ad.concat([a, b], axis=0) * 0.7), [a, b])


@pytest.mark.parametrize("seed", range(10))
def test_matmul_linear_layernorm_gradients(seed):
    rng = np.random.default_rng(200 + seed)
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    fd_grad_check(lambda: tsum(ad.sigmoid(ad.linear(x, w, b))), [x, w, b])
    gain = ad.Tensor(rng.standard_normal(4), requires_grad=True)
    shift = ad.Tensor(rng.standard_normal(4), requires_grad=True)
    fd_grad_check(
        lambda: tsum(ad.layer_norm(x, gain, shift) * 0.3), [x, gain, shift]
    )
    x1 = ad.Tensor(rng.standard_normal(4), requires_grad=True)
    fd_grad_check(lambda: tsum(ad.sigmoid(ad.linear(x1, w, b))), [x1, w, b])


@pytest.mark.parametrize("seed", range(10))
def test_conv2d_gradients(seed):
    rng = np.random.default_rng(300 + seed)
    x = ad.Tensor(rng.standard_normal((1, 4, 5, 2)), requires_grad=True)
    k = ad.Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5, requires_grad=True)
    fd_grad_check(
        lambda: tsum(ad.sigmoid(ad.conv2d(x, k, stride=(1, 2), padding=(1, 1)))),
        [x, k],
    )


@pytest.mark.parametrize("seed", range(10))
def test_scan_gradients_both_modes(seed):
    rng = np.random.default_rng(400 + seed)
    a = ad.Tensor(rng.uniform(0.1, 0.9, size=(2, 7)), requires_grad=True)
    x = ad.Tensor(rng.standard_normal((2, 7)), requires_grad=True)
    for mode in ("sequential", "blocked"):
        fd_grad_check(
            lambda: tsum(ad.sigmoid(linear_scan(a, x, mode=mode))), [a, x]
        )


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


# time-major [L, C, S] of the decoder's three scan stages at noddi scale,
# and one step
SCAN_KERNEL_SHAPES = [(4096, 32, 8), (1024, 64, 8), (256, 128, 8), (1, 3, 2)]


def scan_kernel_operands(shape, seed):
    """a in [0, 1] with exact zeros, and x with a NaN, +-inf and -0.0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, shape)
    a[:, 0, 0] = 0.0
    x = rng.standard_normal(shape)
    x[:, 1, :] = -0.0
    length = shape[0]
    x[length // 2, 0, 1] = np.nan
    x[length // 3, 2, 0] = np.inf
    x[-1, 2, 1] = -np.inf
    return a, x, rng.standard_normal(shape[1:])


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("shape", SCAN_KERNEL_SHAPES)
def test_scan_sequential_equals_two_op_loop(shape):
    """The step loop that starts h from x against the multiply-then-add loop
    it replaced, in each calling form: h and prev omitted (linear_scan), h
    and prev given (the selective-scan backward), and h aliasing x."""
    a, x, prev = scan_kernel_operands(shape, seed=sum(shape))
    x_before = x.copy()
    want = scan_two_op(a, x)
    assert bit_equal(ad._scan_sequential(a, x), want)
    assert bit_equal(x, x_before)  # x is read only, unless h is x
    want = scan_two_op(a, x, np.empty_like(x), prev)
    h = np.empty_like(x)
    assert ad._scan_sequential(a, x, h, prev) is h and bit_equal(h, want)
    assert ad._scan_sequential(a, x, x, prev) is x and bit_equal(x, want)


def test_linear_scan_records_no_node():
    """The program scans constants only: linear_scan records nothing under a
    tape, even for inputs that need a gradient."""
    a = ad.Tensor(np.full((2, 3), 0.5), requires_grad=True)
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    with ad.Tape() as tape:
        h = ad.linear_scan(a, x)
    assert not tape.nodes and not h.requires_grad


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

LATER_CHUNK = 2 * ad.CHUNK + 5  # a sequence of three chunks
SELECTIVE_SCAN_FAULTS = [
    # (length, input index, position, value, forward message, backward
    # message); inputs u 0, a_log 1, b_delta 3, so a fault reaches delta
    # through b_delta or a token. The forward's state check runs in
    # linear_scan, the backward's recompute in selective_scan. Ids end in
    # the scan kernel the fused op runs.
    pytest.param(6, 3, (1,), np.nan, r"discretized transition left \[0, 1\]",
                 r"discretized transition left \[0, 1\]", id="nan-delta-sequential"),
    pytest.param(6, 1, (1, 2), np.nan, r"discretized transition left \[0, 1\]",
                 r"discretized transition left \[0, 1\]", id="nan-a_log-sequential"),
    pytest.param(6, 0, (3, 0), np.inf, "^linear_scan: non-finite state at step 3$",
                 "^selective_scan: non-finite state at step 3$", id="inf-token-sequential"),
    # an infinite step size on every step of channel 0
    pytest.param(6, 3, (0,), np.inf, "^linear_scan: non-finite state at step 0$",
                 "^selective_scan: non-finite state at step 0$", id="inf-delta-sequential"),
    # faults in the middle chunk, which the backward reaches after the last
    pytest.param(LATER_CHUNK, 0, (ad.CHUNK + 3, 1), np.nan,
                 r"discretized transition left \[0, 1\]",
                 r"discretized transition left \[0, 1\]", id="nan-delta-chunk1-sequential"),
    pytest.param(LATER_CHUNK, 0, (ad.CHUNK + 3, 0), np.inf,
                 f"^linear_scan: non-finite state at step {ad.CHUNK + 3}$",
                 f"^selective_scan: non-finite state at step {ad.CHUNK + 3}$",
                 id="inf-token-chunk1-sequential"),
]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("length, index, position, value, message, _backward",
                         SELECTIVE_SCAN_FAULTS)
def test_selective_scan_forward_checks(length, index, position, value, message, _backward):
    inputs = selective_scan_inputs(np.random.default_rng(40), length=length)
    inputs[index].data[position] = value
    with pytest.raises(NumericError, match=message):
        ad.selective_scan(*inputs)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("length, index, position, value, _forward, message",
                         SELECTIVE_SCAN_FAULTS)
def test_selective_scan_backward_recompute_checks(length, index, position, value, _forward,
                                                  message):
    inputs = selective_scan_inputs(np.random.default_rng(41), length=length)
    with ad.Tape() as tape:
        loss = tsum(ad.selective_scan(*inputs))
    # the saved inputs change between forward and backward, so only the
    # recompute in backward can see the fault
    inputs[index].data[position] = value
    with pytest.raises(NumericError, match=message):
        tape.backward(loss)


@pytest.mark.parametrize(
    "length", [1, ad.CHUNK - 1, ad.CHUNK, ad.CHUNK + 1, 3 * ad.CHUNK + 17, 4096]
)
def test_selective_scan_matches_unchunked_oracle(length):
    """The chunked backward reproduces the whole-length one bit for bit, on
    the projected inputs, with the weight gradients and u's four-term sum
    formed as linear nodes and the tape form them. The one exception is
    da_log over more than one chunk: it sums the chunks' shares in turn
    instead of contracting over all of time at once, so it matches to
    1e-12 relative."""
    rng = np.random.default_rng(length)
    inputs = selective_scan_inputs(rng, channels=3, state=4, length=length)
    g = rng.standard_normal((length, 3))
    with ad.Tape() as tape:
        y = ad.selective_scan(*inputs)
        tape.backward(y, seed=g)
    u, a_log, w_delta, b_delta, w_b, w_c, d = [t.data for t in inputs]
    delta_pre = np.matmul(u, w_delta.T) + b_delta
    b, c = np.matmul(u, w_b.T), np.matmul(u, w_c.T)
    want_y, du, ddelta, da_log, db, dc, dd = selective_scan_unchunked(
        u, delta_pre, a_log, b, c, d, g
    )
    want = [
        want_y,
        ((du + np.matmul(dc, w_c)) + np.matmul(db, w_b)) + np.matmul(ddelta, w_delta),
        da_log,
        ddelta.T @ u,
        ddelta.sum(axis=0),
        db.T @ u,
        dc.T @ u,
        dd,
    ]
    for i, (got, ref) in enumerate(zip([y.data] + [t.grad for t in inputs], want)):
        if i == 2 and length > ad.CHUNK:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        else:
            assert np.array_equal(got, ref)


@settings(max_examples=12, deadline=None)
@given(
    length=st.sampled_from([ad.CHUNK - 1, ad.CHUNK, ad.CHUNK + 1, 2 * ad.CHUNK + 1]),
    channels=st.integers(1, 3),
    state=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_selective_scan_matches_composition(length, channels, state, seed):
    """The one-node op against linear -> softplus -> linear_scan -> + d * u
    composed from generic tape ops, across chunk boundaries."""
    inputs = selective_scan_inputs(np.random.default_rng(seed), channels, state, length)
    fused = outputs_and_grads(ad.selective_scan, inputs, seed)
    composed = outputs_and_grads(
        lambda u, *params: s6_scan_reference(u, S6(*params)), inputs, seed
    )
    assert worst_gap(fused, composed) <= FUSED_TOL


@settings(max_examples=12, deadline=None)
@given(
    length=st.sampled_from([1, 7, ad.CHUNK + 1]),
    channels=st.integers(1, 3),
    state=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_selective_scan_matches_four_node_oracle(length, channels, state, seed):
    """Taking the projections in changes no bit of y or of any gradient:
    the oracle is the Delta, B and C linear nodes plus the projected scan."""
    inputs = selective_scan_inputs(np.random.default_rng(seed), channels, state, length)
    fused = outputs_and_grads(ad.selective_scan, inputs, seed)
    four = outputs_and_grads(
        lambda u, *params: s6_scan_four_nodes(u, S6(*params)), inputs, seed
    )
    for f, r in zip(fused, four):
        assert np.array_equal(f, r)


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_cross_merge_matches_eight_node_oracle(h, w, n, seed):
    """The one-node merge against its add, reshape and reversed-slice
    composition: output and all four gradients bit for bit."""
    rng = np.random.default_rng(seed)
    seqs = [ad.Tensor(rng.standard_normal((h * w, n)), requires_grad=True) for _ in range(4)]
    fused = outputs_and_grads(lambda *s: ad.cross_merge(*s, h, w), seqs, seed)
    composed = outputs_and_grads(lambda *s: scan_merge_composed(s, h, w), seqs, seed)
    for f, c in zip(fused, composed):
        assert np.array_equal(f, c)


def test_cross_merge_shape_mismatch():
    seqs = [ad.Tensor(np.zeros((6, 2)))] * 3 + [ad.Tensor(np.zeros((6, 3)))]
    with pytest.raises(DimensionError, match="cross_merge"):
        ad.cross_merge(*seqs, 2, 3)


def test_selective_scan_backward_memory_is_bounded():
    """The backward's transient memory stays within 1.5 state-sized
    [L, C, S] arrays: no [L, C, S] buffer is whole-length, da included, and
    the rest is [L, C] arrays and chunk-sized buffers."""
    length, channels, state = 4096, 32, 8
    rng = np.random.default_rng(43)
    inputs = selective_scan_inputs(rng, channels=channels, state=state, length=length)
    g = rng.standard_normal((length, channels))
    with ad.Tape() as tape:
        y = ad.selective_scan(*inputs)
        tracemalloc.start()
        try:
            tape.backward(y, seed=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.5 * length * channels * state * 8


def test_selective_scan_shape_mismatch():
    # an empty sequence u, then a_log, w_delta, b_delta, w_c and d off by
    # one extent
    for index, shape in [(0, (0, 2)), (1, (3, 3)), (2, (2, 3)), (3, (3,)), (5, (3, 3)), (6, (3,))]:
        inputs = selective_scan_inputs(np.random.default_rng(42))
        inputs[index] = ad.Tensor(np.zeros(shape))
        with pytest.raises(DimensionError, match="selective_scan"):
            ad.selective_scan(*inputs)


def test_silu_keeps_only_its_input():
    """silu's backward holds its input and no sigmoid array."""
    x = ad.Tensor(np.linspace(-3.0, 3.0, 7), requires_grad=True)
    with ad.Tape() as tape:
        ad.silu(x)
    (_out, _inputs, backward), = tape.nodes
    assert [cell.cell_contents for cell in backward.__closure__] == [x]


# bytes an op's node may keep beyond its output: the Tensor, the closure
# and the tape entry, never an array of the op's own
NODE_SLACK = 16 * 1024


def retained_bytes(fn):
    """fn()'s result and the bytes tracemalloc still counts once it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_attention_and_layer_norm_keep_only_their_inputs():
    """Recorded on a tape, attention at the noddi stage-0 shape keeps no
    [4, 500, 500] score or weight array, and layer_norm no normalized copy
    of its [4096, 32] input: each grows memory by its output alone."""
    rng = np.random.default_rng(12)
    q, k, v = token_leaves(rng, 500, 32)
    x = ad.Tensor(rng.standard_normal((4096, 32)), requires_grad=True)
    gain, shift = leaves(rng, (32,), (32,))
    with ad.Tape():
        for op in (lambda: ad.attention(q, k, v, 4), lambda: ad.layer_norm(x, gain, shift)):
            out, grown = retained_bytes(op)
            assert grown <= out.data.nbytes + NODE_SLACK


@pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "mask"])
def test_attention_backward_holds_one_head_at_a_time(masked):
    """The backward's transient stays within three [T, T] arrays of one
    head, plus the [T, n] gradients, with and without a dropout mask: no
    [heads, T, T] array is made."""
    heads, tokens, width = 4, 500, 32
    rng = np.random.default_rng(13)
    qkv = token_leaves(rng, tokens, width)
    g = rng.standard_normal((tokens, width))
    keep = rng.random((heads, tokens, tokens)) >= 0.1 if masked else None
    with ad.Tape() as tape:
        y = ad.attention(*qkv, heads, keep, 0.1)
        tracemalloc.start()
        try:
            tape.backward(y, seed=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3.5 * tokens * tokens * 8


def test_vss_gate_and_output_keep_only_their_inputs():
    """Recorded on a tape at a noddi level-0 grid, silu_linear keeps no
    pre-activation and gated_residual no normed, gated or projected array:
    each grows memory by its output alone."""
    rng = np.random.default_rng(14)
    shape, width = (64, 64, 8), 8
    x, c, gate = leaves(rng, shape, shape, shape)
    gain, shift, bias = leaves(rng, (width,), (width,), (width,))
    (weight,) = leaves(rng, (width, width))
    with ad.Tape():
        for op in (lambda: ad.silu_linear(x, weight, bias),
                   lambda: ad.gated_residual(x, c, gate, gain, shift, weight, bias)):
            out, grown = retained_bytes(op)
            assert grown <= out.data.nbytes + NODE_SLACK


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
        softplus(x).data,
        softmax(x, axis=-1).data,
        tmean(x).data,
        ad.layer_norm(x, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4))).data,
    ]
    for out in outputs:
        assert np.all(np.isfinite(out))


def test_rel_err_helper_floor():
    assert rel_err(1e-9, 2e-9) < 1e-2  # tiny values judged against the floor
