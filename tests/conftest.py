"""Shared oracles and gradient-check helpers for the test suite."""

from __future__ import annotations

import sys
from collections import namedtuple
from contextlib import contextmanager

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol import decoder
from eeg2vol.decoder import s6_scan
from eeg2vol.errors import NumericError
from eeg2vol.model import Model, ModelConfig

GRAD_TOL = 1e-4
FD_STEP = 1e-5

# one scan direction's parameters by name, in decoder.S6_PARAMS order
S6 = namedtuple("S6", "a_log w_delta b_delta w_b w_c d_skip")


def rel_err(a, b, floor=1e-6):
    """Relative error with an absolute floor, elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def analytic_grads(func, leaves):
    """Run func() under a fresh tape; return (grads per leaf, scalar value)."""
    for t in leaves:
        t.grad = None
    with ad.Tape() as tape:
        out = func()
        tape.backward(out)
    grads = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        for t in leaves
    ]
    for t in leaves:
        t.grad = None
    return grads, out.item()


def fd_grad_check(func, leaves, h=FD_STEP, tol=GRAD_TOL):
    """Per-coordinate central finite differences against the analytic grads."""
    grads, _ = analytic_grads(func, leaves)
    worst = 0.0
    for t, g in zip(leaves, grads):
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = func().item()
            flat[i] = orig - h
            fm = func().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            err = float(rel_err(fd, gflat[i]))
            worst = max(worst, err)
            assert err < tol, (
                f"gradient mismatch at coordinate {i}: fd={fd:.8g} "
                f"analytic={gflat[i]:.8g} rel={err:.3g}"
            )
    return worst


def directional_grad_check(
    func, named_leaves, rng, steps=(1e-5, 1e-6, 3e-7, 1e-7), tol=GRAD_TOL
):
    """Per-tensor directional derivative check with an adaptive step.

    Large higher-order curvature (e.g. through exp/scan chains) contaminates
    fixed-step coordinate differences even when the analytic gradient is
    correct; a directional probe re-checked at shrinking steps separates
    truncation error from genuine gradient bugs.
    """
    leaves = [t for _name, t in named_leaves]
    grads, _ = analytic_grads(func, leaves)
    failures = []
    for (name, t), g in zip(named_leaves, grads):
        direction = rng.standard_normal(t.data.shape)
        direction /= np.linalg.norm(direction.reshape(-1)) or 1.0
        analytic = float(np.sum(g * direction))
        best = np.inf
        for h in steps:
            t.data = t.data + h * direction
            fp = func().item()
            t.data = t.data - 2.0 * h * direction
            fm = func().item()
            t.data = t.data + h * direction
            fd = (fp - fm) / (2.0 * h)
            best = min(best, float(rel_err(fd, analytic)))
            if best < tol:
                break
        if best >= tol:
            failures.append((name, best))
    assert not failures, f"directional gradient failures: {failures}"


# ---------------------------------------------------------------------------
# independent numpy oracles
# ---------------------------------------------------------------------------

def conv2d_oracle(x, kernel, stride=(1, 1), padding=(0, 0)):
    """Quadruple-loop cross-correlation reference over NHWC input and
    [O, C, kh, kw] kernels."""
    sh, sw = stride
    ph, pw = padding
    n, h, w, c = x.shape
    o, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    hout = (h + 2 * ph - kh) // sh + 1
    wout = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, hout, wout, o))
    for b in range(n):
        for oc in range(o):
            for i in range(hout):
                for j in range(wout):
                    patch = xp[b, i * sh : i * sh + kh, j * sw : j * sw + kw, :]
                    out[b, i, j, oc] = np.sum(patch * kernel[oc].transpose(1, 2, 0))
    return out


def dft_oracle(frame):
    """O(n^2) one-sided magnitude DFT of a single real frame."""
    n = len(frame)
    t = np.arange(n)
    mags = []
    for k in range(n // 2 + 1):
        re = np.sum(frame * np.cos(-2.0 * np.pi * k * t / n))
        im = np.sum(frame * np.sin(-2.0 * np.pi * k * t / n))
        mags.append(np.hypot(re, im))
    return np.array(mags)


def matmul_oracle(a, b):
    """Triple-loop matrix product reference."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


# ---------------------------------------------------------------------------
# tape ops that the program no longer calls, kept as oracles
# ---------------------------------------------------------------------------

def sigmoid(a):
    """The logistic as one tape node that keeps its output."""
    val = ad._logistic(a.data)
    return ad._make_output(val, (a,), lambda g: (ad._logistic_grad(g, val),))


def exp(a):
    """Elementwise exp as one tape node that keeps its output."""
    val = np.exp(a.data)
    return ad._make_output(val, (a,), lambda g: (g * val,))


def softplus(a):
    """log(1 + exp(a)) as one tape node that keeps its output and slope."""
    val = np.logaddexp(0.0, a.data)
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return ad._make_output(val, (a,), lambda g: (g * s,))


def div(a, b):
    """a / b with numpy broadcasting, as Tensor.__truediv__ recorded it."""
    return ad._make_output(
        a.data / b.data,
        (a, b),
        lambda g: (
            ad._unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            ad._unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            if b.requires_grad else None,
        ),
    )


def tsum(a, axis=None, keepdims=False):
    val = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return ad._make_output(val, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def neg(a):
    return ad._make_output(-a.data, (a,), lambda g: (-g,))


def sqrt(a):
    val = np.sqrt(a.data)
    return ad._make_output(val, (a,), lambda g: (g * 0.5 / val,))


def transpose(a):
    """Swap the last two axes."""
    axes = list(range(a.ndim))
    axes[-2], axes[-1] = axes[-1], axes[-2]
    return ad.permute(a, tuple(axes))


def matmul(a, b):
    """np.matmul of operands with at least two axes each."""
    return ad._make_output(
        np.matmul(a.data, b.data),
        (a, b),
        lambda g: (
            ad._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape),
            ad._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape),
        ),
    )


def softmax(x, axis=-1):
    """One tape node that keeps its output y; backward y * (g - sum(g * y))."""
    y = ad._softmax(x.data, axis)
    return ad._make_output(
        y, (x,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),)
    )


def linear_scan(a, x, mode="sequential"):
    """ad.linear_scan as the tape node it recorded before the program called
    it on constants only: its forward, and a backward that runs the adjoint
    recurrence lam_t = g_t + a_{t+1} * lam_{t+1} through the same kernel, as
    a forward scan on time-reversed arrays."""
    h = ad.linear_scan(a, x, mode=mode).data
    kernel = ad._SCAN_KERNELS[mode]
    a_tm, h_tm = np.moveaxis(a.data, -1, 0), np.moveaxis(h, -1, 0)

    def backward(g):
        a_next = np.empty_like(a_tm)
        a_next[0] = 0.0
        a_next[1:] = a_tm[:0:-1]
        lam = kernel(a_next, np.moveaxis(g, -1, 0)[::-1])[::-1]
        h_prev = np.empty_like(h_tm)
        h_prev[0] = 0.0
        h_prev[1:] = h_tm[:-1]
        return (np.moveaxis(lam * h_prev, 0, -1), np.moveaxis(lam, 0, -1))

    return ad._make_output(h, (a, x), backward)


def scan_two_op(a, x, h=None, prev=None):
    """ad._scan_sequential as it was before it started h from x: each step
    one multiply of a[t] and h[t-1] into h[t] and one in-place add of x[t].
    The oracle of its step loop."""
    if h is None:
        h = np.empty_like(x, order="C")
    if prev is None:
        prev = np.zeros(x.shape[1:], dtype=x.dtype)
    for a_t, x_t, h_t in zip(a, x, h):
        np.multiply(a_t, prev, out=h_t)
        np.add(h_t, x_t, out=h_t)
        prev = h_t
    return h


def tap_rows_sliding(xp, kh, kw, stride):
    """ad._tap_rows as it was, over one sliding_window_view of xp: the same
    [N*H'*W', kw*C] rows per kernel row, each a new array."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, :: stride[0], :: stride[1]]  # [N, H', W', C, kh, kw]
    for u in range(kh):
        yield np.swapaxes(windows[..., u, :], -1, -2).reshape(-1, kw * xp.shape[3])


def via_np_pad_and_sliding_windows(fn, *args):
    """fn(*args) with ad's zero padding taken by np.pad and conv2d's tap rows
    by tap_rows_sliding, the composition they replaced: the oracle of
    conv2d, pad and ssim. fn must run the backward too, which looks both
    helpers up when it runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_zero_pad", np.pad)
        mp.setattr(ad, "_tap_rows", tap_rows_sliding)
        return fn(*args)


def conv2d_windowed(x, kernel, stride=(1, 1), padding=(0, 0)):
    """ad.conv2d as it was before it ran one GEMM per kernel row: one einsum
    over the [N, H', W', C, kh, kw] window view forward, and a backward that
    spreads a per-pixel [.., C, kh, kw] contribution array over the padded
    input grid. The oracle of ad.conv2d."""
    sh, sw = stride
    ph, pw = padding
    n, h, w, c = x.shape
    _o, _c, kh, kw = kernel.shape
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::sh, ::sw]  # [N, H', W', C, kh, kw]
    val = np.einsum("nhwcuv,ocuv->nhwo", windows, kernel.data, optimize=True)

    def backward(g):
        gk = None
        if kernel.requires_grad:
            gk = np.einsum("nhwcuv,nhwo->ocuv", windows, g, optimize=True)
        if not x.requires_grad:
            return (None, gk)
        gxp = np.zeros_like(xp)
        hout, wout = g.shape[1], g.shape[2]
        # scatter each kernel offset back onto the padded input grid
        contrib = np.einsum("nhwo,ocuv->nhwcuv", g, kernel.data, optimize=True)
        for u in range(kh):
            for v in range(kw):
                gxp[:, u : u + hout * sh : sh, v : v + wout * sw : sw] += (
                    contrib[..., u, v]
                )
        return (gxp[:, ph : ph + h, pw : pw + w], gk)

    return ad._make_output(val, (x, kernel), backward)


def selective_scan_projected(u, delta_pre, a_log, b, c, d):
    """ad.selective_scan as it was before it took its projections in: one
    node over the projected delta_pre, B and C, on the same chunked forward
    and backward."""
    y, entries = ad._selective_forward(
        u.data, delta_pre.data, a_log.data, b.data, c.data, d.data
    )
    return ad._make_output(
        y,
        (u, delta_pre, a_log, b, c, d),
        lambda g: ad._selective_backward(
            g, u.data, delta_pre.data, a_log.data, b.data, c.data, d.data, entries
        ),
    )


def s6_scan_four_nodes(u, params):
    """decoder.s6_scan as four tape nodes, the Delta, B and C linear nodes
    and selective_scan_projected: the bit-for-bit oracle of the one-node
    ad.selective_scan."""
    return selective_scan_projected(
        u,
        ad.linear(u, params.w_delta, params.b_delta),
        params.a_log,
        ad.linear(u, params.w_b),
        ad.linear(u, params.w_c),
        params.d_skip,
    )


def scan_merge_composed(seqs, h, w):
    """decoder.scan_merge as eight add, reshape and flip nodes: the
    bit-for-bit oracle of ad.cross_merge."""
    d1, d2, d3, d4 = seqs
    n = d1.shape[-1]
    rows = ad.reshape(d1 + ad.flip(d2, 0), (h, w, n))
    flipped = ad.reshape(d3 + ad.flip(d4, 0), (h, w, n))
    return rows + ad.flip(flipped, 1)


# ---------------------------------------------------------------------------
# fused ops composed from generic tape ops: the oracles of the one-node ops
# ---------------------------------------------------------------------------

def linear_composed(x, weight, bias=None):
    """ad.linear as matmul, transpose and add nodes."""
    y = matmul(x, transpose(weight))
    if bias is not None:
        y = y + bias
    return y


def layer_norm_composed(x, gain, shift, eps=1e-5):
    """ad.layer_norm as eleven mean, difference, square-root and affine nodes."""
    mu = tmean(x, axis=-1, keepdims=True)
    xc = ad.sub(x, mu)
    var = tmean(xc * xc, axis=-1, keepdims=True)
    xn = div(xc, sqrt(var + eps))
    return xn * gain + shift


def softmax_composed(x, axis=-1):
    """softmax as shift, exp, sum and divide nodes."""
    shifted = ad.sub(x, ad.Tensor(np.max(x.data, axis=axis, keepdims=True)))
    e = exp(shifted)
    return div(e, tsum(e, axis=axis, keepdims=True))


def attention_composed(q, k, v, heads, keep=None, drop=0.0):
    """ad.attention as the nodes the encoder recorded before it was one
    node: a reshape and permute that split each [T, n] operand into
    [heads, T, dh], the matmul, transpose, scale, softmax, mask and matmul
    nodes, with the float64 dropout mask keep / (1 - drop) it drew then,
    and a permute and reshape that merge the heads back into [T, n]."""
    t, n = q.shape
    dh = n // heads
    q, k, v = (ad.permute(ad.reshape(z, (t, heads, dh)), (1, 0, 2)) for z in (q, k, v))
    scores = matmul(q, transpose(k)) * (1.0 / np.sqrt(dh))
    weights = softmax(scores, axis=-1)
    if keep is not None:
        weights = weights * ad.Tensor(keep / (1.0 - drop))
    return ad.reshape(ad.permute(matmul(weights, v), (1, 0, 2)), (t, n))


def mse_composed(x, y):
    """ad.mse as the difference, square and mean nodes losses.mse recorded
    before it was one node."""
    diff = ad.sub(x, y)
    return tmean(diff * diff)


def ssim_composed(x, y, c1, c2, window=None):
    """ad.ssim as the conv2d (or moment), product, quotient and mean nodes
    losses.ssim recorded before it was one node."""
    d, h, w = x.shape
    if window is not None:
        kernel = ad.Tensor(np.full((1, 1, window, window), 1.0 / (window * window)))
        local = lambda t: ad.conv2d(ad.reshape(t, (d, h, w, 1)), kernel)
    else:
        local = lambda t: tmean(t, axis=(1, 2), keepdims=True)
    mu_x, mu_y = local(x), local(y)
    e_xx, e_yy, e_xy = local(x * x), local(y * y), local(x * y)
    var_x = ad.sub(e_xx, mu_x * mu_x)
    var_y = ad.sub(e_yy, mu_y * mu_y)
    cov = ad.sub(e_xy, mu_x * mu_y)
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return tmean(div(num, den))


def silu_composed(a):
    """ad.silu as the sigmoid and mul nodes it replaces."""
    return a * sigmoid(a)


def silu_linear_composed(x, weight, bias):
    """ad.silu_linear as the linear and silu nodes VssBlock recorded for its
    gate before it was one node."""
    return ad.silu(ad.linear(x, weight, bias))


def sigmoid_linear_composed(x, weight, bias):
    """ad.sigmoid_linear as the linear and sigmoid nodes the decoder head
    recorded before it was one node."""
    return sigmoid(ad.linear(x, weight, bias))


def gated_residual_composed(x, c, gate, gain, shift, weight, bias):
    """ad.gated_residual as the layer_norm, mul, linear and add nodes
    VssBlock recorded for its output path before it was one node."""
    return x + ad.linear(ad.layer_norm(c, gain, shift) * gate, weight, bias)


def conv2d_folded(x, kernel, stride=(1, 1), padding=(0, 0)):
    """conv2d_windowed on the [..., H, W, C] grids ad.conv2d takes: its
    leading axes reshaped into one batch axis and back."""
    y = conv2d_windowed(ad.reshape(x, (-1,) + x.shape[-3:]), kernel, stride, padding)
    return ad.reshape(y, x.shape[:-3] + y.shape[1:])


# Each fused op the program calls, by the name its tape nodes are recorded
# under: (the module the program looks it up in, that attribute, the oracle
# composed of the nodes it replaces). The oracles look up the ops they are
# composed of at call time, so with the table patched in a nested fused op
# (ssim's conv2d, s6_scan's projections) runs composed too.
COMPOSED_OPS = {
    "linear": (ad, "linear", linear_composed),
    "layer_norm": (ad, "layer_norm", layer_norm_composed),
    "silu": (ad, "silu", silu_composed),
    "silu_linear": (ad, "silu_linear", silu_linear_composed),
    "sigmoid_linear": (ad, "sigmoid_linear", sigmoid_linear_composed),
    "gated_residual": (ad, "gated_residual", gated_residual_composed),
    "attention": (ad, "attention", attention_composed),
    "conv2d": (ad, "conv2d", conv2d_folded),
    "mse": (ad, "mse", mse_composed),
    "ssim": (ad, "ssim", ssim_composed),
    "selective_scan": (decoder, "s6_scan", lambda u, *p: s6_scan_reference(u, S6(*p))),
    "cross_merge": (decoder, "scan_merge", scan_merge_composed),
}

# the ops no oracle replaces: layout moves and the elementwise nodes each
# composition is built from
GENERIC_OPS = {"reshape", "permute", "flip", "pad", "concat", "add", "sub", "mul", "sigmoid"}


@contextmanager
def composed_ops():
    """Every fused op of COMPOSED_OPS replaced by its oracle while the
    context is open."""
    with pytest.MonkeyPatch.context() as mp:
        for owner, attr, oracle in COMPOSED_OPS.values():
            mp.setattr(owner, attr, oracle)
        yield


def record_tape_ops(mp, names):
    """Through the MonkeyPatch mp, append to names the op (the function
    that called ad._make_output) of each node recorded from then on."""
    make_output = ad._make_output

    def spy(value, inputs, backward_fn):
        out = make_output(value, inputs, backward_fn)
        if out.requires_grad:
            names.append(sys._getframe(1).f_code.co_name)
        return out

    mp.setattr(ad, "_make_output", spy)


def outputs_and_grads(op, inputs, seed=0):
    """op(*inputs).data and, for each input, the gradient of <r, op(*inputs)>
    with r standard normal from seed (zeros for inputs that need none)."""
    for t in inputs:
        t.grad = None
    with ad.Tape() as tape:
        y = op(*inputs)
    tape.backward(y, seed=np.random.default_rng(seed).standard_normal(y.shape))
    out = [y.data] + [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]
    for t in inputs:
        t.grad = None
    return out


# ---------------------------------------------------------------------------
# unfused selective-scan reference
# ---------------------------------------------------------------------------

def selective_scan_composed(u, delta_pre, a_log, b, c, d, mode="sequential"):
    """selective_scan_projected composed from generic tape ops, each
    [C, S, L] intermediate (abar, bu, h, h*C) a tape node: softplus,
    A = -exp(a_log), a linear_scan on the [C, L] transposes of the
    time-major inputs, then the D skip. mode picks the linear_scan kernel."""
    length, n = u.shape
    state = a_log.shape[1]
    u_cl = transpose(u)  # [channels, L]
    delta = ad.reshape(transpose(softplus(delta_pre)), (n, 1, length))
    a = neg(exp(a_log))
    abar = exp(delta * ad.reshape(a, (n, state, 1)))
    if not (np.all(abar.data >= 0.0) and np.all(abar.data <= 1.0)):
        raise NumericError("s6_scan reference: discretized transition left [0, 1]")
    bu = (
        delta
        * ad.reshape(transpose(b), (1, state, length))
        * ad.reshape(u_cl, (n, 1, length))
    )
    h = linear_scan(abar, bu, mode=mode)
    y = tsum(h * ad.reshape(transpose(c), (1, state, length)), axis=1)
    return transpose(y + ad.reshape(d, (n, 1)) * u_cl)


def s6_scan_reference(u, params, mode="sequential"):
    """decoder.s6_scan with the recurrence composed from generic tape ops
    (selective_scan_composed): the oracle for the fused ad.selective_scan.
    u is [L, C] tokens, as s6_scan takes."""
    return selective_scan_composed(
        u,
        ad.linear(u, params.w_delta, params.b_delta),
        params.a_log,
        ad.linear(u, params.w_b),
        ad.linear(u, params.w_c),
        params.d_skip,
        mode=mode,
    )


def selective_scan_inputs(rng, channels=2, state=3, length=5):
    """Leaves u, a_log, w_delta, b_delta, w_b, w_c, d for ad.selective_scan:
    time-major [L, C] tokens and S6's fields in order. delta_pre takes
    both signs and A = -exp(a_log) lies in [-2, -0.5]."""
    return [
        ad.Tensor(rng.standard_normal((length, channels)), requires_grad=True),
        ad.Tensor(np.log(rng.uniform(0.5, 2.0, size=(channels, state))), requires_grad=True),
        ad.Tensor(rng.standard_normal((channels, channels)) * 0.5, requires_grad=True),
        ad.Tensor(rng.uniform(-1.5, 0.5, size=channels), requires_grad=True),
        ad.Tensor(rng.standard_normal((state, channels)), requires_grad=True),
        ad.Tensor(rng.standard_normal((state, channels)), requires_grad=True),
        ad.Tensor(rng.standard_normal(channels), requires_grad=True),
    ]


def projected_scan_inputs(rng, channels=2, state=3, length=5):
    """Time-major leaves u, delta_pre, a_log, b, c, d for
    selective_scan_projected; delta_pre takes both signs and A = -exp(a_log)
    lies in [-2, -0.5]."""
    return [
        ad.Tensor(rng.standard_normal((length, channels)), requires_grad=True),
        ad.Tensor(rng.uniform(-2.0, 1.0, size=(length, channels)), requires_grad=True),
        ad.Tensor(np.log(rng.uniform(0.5, 2.0, size=(channels, state))), requires_grad=True),
        ad.Tensor(rng.standard_normal((length, state)), requires_grad=True),
        ad.Tensor(rng.standard_normal((length, state)), requires_grad=True),
        ad.Tensor(rng.standard_normal(channels), requires_grad=True),
    ]


def selective_scan_unchunked(u, delta_pre, a_log, b, c, d, g):
    """y and the gradients (du, ddelta_pre, da_log, db, dc, dd) of <g, y>
    for the selective scan on projected inputs, computed from whole-length
    [L, C, S] states and adjoints by plain step loops, the way
    ad.selective_scan computed them before its backward ran in time chunks:
    the bit-for-bit oracle of the chunked op."""

    def scan(coef, x):  # h[t] = coef[t] * h[t-1] + x[t], h[-1] = 0
        h = np.empty_like(x)
        prev = np.zeros(x.shape[1:])
        for t in range(x.shape[0]):
            prev = coef[t] * prev + x[t]
            h[t] = prev
        return h

    delta, a = np.logaddexp(0.0, delta_pre), -np.exp(a_log)
    abar = np.exp(delta[:, :, None] * a[None, :, :])
    h = scan(abar, (delta * u)[:, :, None] * b[:, None, :])
    y = np.einsum("tns,ts->tn", h, c) + d * u
    # adjoint lam_t = c_t g_t + abar_{t+1} lam_{t+1}, over reversed time
    a_rev = np.empty_like(abar)
    a_rev[0] = 0.0
    a_rev[1:] = abar[:0:-1]
    lam = scan(a_rev, g[::-1, :, None] * c[::-1, None, :])[::-1]
    q = np.zeros_like(h)
    q[1:] = lam[1:] * h[:-1] * abar[1:]
    lam_b = np.einsum("tns,ts->tn", lam, b)
    ddelta = lam_b * u + np.einsum("tns,ns->tn", q, a)
    return (
        y,
        g * d + lam_b * delta,
        ddelta * (0.5 * (1.0 + np.tanh(0.5 * delta_pre))),
        np.einsum("tns,tn->ns", q, delta) * a,
        np.einsum("tns,tn->ts", lam, delta * u),
        np.einsum("tns,tn->ts", h, g),
        (g * u).sum(axis=0),
    )


def s6_output_and_grads(scan, u, params, weights):
    """y and the gradients of <weights, y> for u and the six S6 fields."""
    leaves = [u, params.a_log, params.w_delta, params.b_delta, params.w_b,
              params.w_c, params.d_skip]
    for t in leaves:
        t.grad = None
    with ad.Tape() as tape:
        y = scan(u, *params)
        loss = tsum(y * ad.Tensor(weights))
    tape.backward(loss)
    out = [y.data] + [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    return out


def s6_worst_vs_reference(u, params, ref_mode, seed=0):
    """Largest difference between decoder.s6_scan and s6_scan_reference on
    the ref_mode linear_scan kernel, over y and all seven gradients, each
    relative to the reference's largest magnitude (floor 1)."""
    weights = np.random.default_rng(seed).standard_normal(u.shape)
    fused = s6_output_and_grads(s6_scan, u, params, weights)
    ref = s6_output_and_grads(
        lambda u, *p: s6_scan_reference(u, S6(*p), mode=ref_mode), u, params, weights
    )
    return max(
        float(np.max(np.abs(f - r))) / max(1.0, float(np.max(np.abs(r))))
        for f, r in zip(fused, ref)
    )


# ---------------------------------------------------------------------------
# micro model
# ---------------------------------------------------------------------------

MICRO_GEOMETRY = (4, 5, 6, 3, 8, 8)  # (C, T, F, D, H, W)


def micro_model_config():
    return ModelConfig(
        geometry=MICRO_GEOMETRY,
        embed=4,
        heads=2,
        enc_stages=2,
        vss_blocks=1,
        state_dim=2,
    )


@pytest.fixture
def micro_model():
    return Model(micro_model_config(), seed=0)


def checkpoint_parts(ckpt):
    """(index, payload) of checkpoint file ckpt: the index's text, each line
    ending in a newline, and the bytes after the empty line that ends it."""
    index, payload = ckpt.read_bytes().split(b"\n\n", 1)
    return index.decode() + "\n", payload


def join_checkpoint(ckpt, index, payload):
    """Write checkpoint file ckpt from the parts checkpoint_parts returns."""
    ckpt.write_bytes(index.encode() + b"\n" + payload)


def index_lines(ckpt):
    """The lines of checkpoint file ckpt's index."""
    return checkpoint_parts(ckpt)[0].splitlines()


def index_line(ckpt, start):
    """The first line of checkpoint file ckpt's index that starts with start."""
    return next(line for line in index_lines(ckpt) if line.startswith(start))


def rewrite_index(ckpt, old, new):
    """Replace the first old with new in checkpoint file ckpt's index; the
    payload is kept byte for byte."""
    index, payload = checkpoint_parts(ckpt)
    assert old in index
    join_checkpoint(ckpt, index.replace(old, new, 1), payload)
