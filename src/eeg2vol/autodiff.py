"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays. Operations executed while a Tape is
active record backward rules on that tape; Tensor.backward() replays the
tape in reverse and accumulates gradients into requires_grad leaves.
Without an active tape, operations are plain forward computations.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

_TAPES = []  # open tapes, innermost last


def active_tape():
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Append-only record of operations for one forward pass."""

    def __init__(self):
        self.nodes = []  # (out, inputs, backward_fn)

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def backward(self, out, seed=None):
        if out._tape is not self:
            raise ValueError("output was not recorded on this tape")
        if seed is None:
            if out.data.size != 1:
                raise ValueError(
                    "backward() without a seed requires a scalar output"
                )
            seed = np.ones_like(out.data)
        grads = {id(out): np.asarray(seed, dtype=np.float64)}
        for node_out, inputs, backward_fn in reversed(self.nodes):
            g = grads.pop(id(node_out), None)
            if g is None:
                continue
            for inp, gi in zip(inputs, backward_fn(g)):
                if gi is None or not inp.requires_grad:
                    continue
                if inp._tape is None:  # leaf: accumulate into .grad
                    if inp.grad is None:
                        inp.grad = gi.copy()
                    else:
                        inp.grad = inp.grad + gi
                elif id(inp) in grads:
                    grads[id(inp)] = grads[id(inp)] + gi
                else:
                    grads[id(inp)] = gi


class Tensor:
    """N-dimensional float64 array with optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape = None  # tape that produced this tensor, None for leaves

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    def backward(self, seed=None):
        if self._tape is None:
            raise ValueError("backward() on a tensor with no recorded tape")
        self._tape.backward(self, seed=seed)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __getitem__(self, key):
        return tslice(self, key)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_output(value, inputs, backward_fn):
    tape = active_tape()
    out = Tensor(value)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.nodes.append((out, tuple(inputs), backward_fn))
    return out


def _unbroadcast(g, shape):
    """Reduce gradient g (broadcast result shape) back to an input shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops (numpy broadcasting semantics)
# ---------------------------------------------------------------------------

# The backward of each two-input op computes only the gradients its inputs
# need, so a constant operand (a scale, an offset) costs no work.

def add(a, b):
    return _make_output(
        a.data + b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        ),
    )


def sub(a, b):
    return _make_output(
        a.data - b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        ),
    )


def mul(a, b):
    return _make_output(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        ),
    )


def div(a, b):
    return _make_output(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            if b.requires_grad else None,
        ),
    )


def _logistic(x):
    """Stable logistic 1 / (1 + exp(-x)), via tanh."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a):
    val = _logistic(a.data)
    return _make_output(val, (a,), lambda g: (g * val * (1.0 - val),))


def silu(a):
    """a * sigmoid(a), one node that keeps only its input: the backward
    recomputes the sigmoid instead of holding it."""

    def backward(g):
        s = _logistic(a.data)
        return (g * (s + a.data * s * (1.0 - s)),)

    return _make_output(a.data * _logistic(a.data), (a,), backward)


# ---------------------------------------------------------------------------
# reductions and shape manipulation
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    val = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make_output(val, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a, shape):
    return _make_output(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),)
    )


def permute(a, axes):
    return _make_output(
        np.transpose(a.data, axes),
        (a,),
        lambda g: (np.moveaxis(g, range(len(axes)), axes),),
    )


def tslice(a, key):
    val = a.data[key]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _make_output(val, (a,), backward)


def pad(a, pad_width):
    """Constant zero padding; pad_width as in numpy.pad."""
    val = np.pad(a.data, pad_width)
    unpad = tuple(
        slice(lo, lo + n) for (lo, _hi), n in zip(pad_width, a.shape)
    )
    return _make_output(val, (a,), lambda g: (g[unpad],))


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    val = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        out = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            out.append(g[tuple(idx)])
        return tuple(out)

    return _make_output(val, tensors, backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _leading_sum(g):
    """Sum over every axis but the trailing one."""
    return g.sum(axis=tuple(range(g.ndim - 1)))


def _weight_grad(g, x):
    """Gradient of an [out, in] weight applied as x @ weight.T, from the
    output gradient g: g^T x over every leading axis."""
    return g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def linear(x, weight, bias=None):
    """Affine map over the trailing axis: y = x @ weight.T + bias.

    One tape node; weight is [out, in], bias [out], x [..., in].
    """
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"linear: input extent {x.shape[-1]} != weight in-extent "
            f"{weight.shape[-1]}"
        )
    if bias is not None and bias.shape != weight.shape[:1]:
        raise DimensionError(
            f"linear: bias shape {bias.shape} != ({weight.shape[0]},)"
        )
    val = np.matmul(x.data, weight.data.T)
    if bias is not None:
        val = val + bias.data

    def backward(g):
        gx = np.matmul(g, weight.data) if x.requires_grad else None
        gw = _weight_grad(g, x.data) if weight.requires_grad else None
        gb = _leading_sum(g) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make_output(val, inputs, backward)


LN_EPS = 1e-5  # added to the variance under layer_norm's square root


def _normalized(x):
    """layer_norm's normalized array xn and 1/std over the trailing axis."""
    inv_n = 1.0 / x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_n + LN_EPS)
    return xc / std, 1.0 / std


def layer_norm(x, gain, shift):
    """Normalize the trailing axis to zero mean / unit variance, then affine.

    One tape node that keeps only its inputs: the closed-form backward
    recomputes the normalized input xn and 1/std from x.
    """
    if gain.shape != x.shape[-1:] or shift.shape != x.shape[-1:]:
        raise DimensionError("layer_norm: gain and shift must be [width]")

    def backward(g):
        xn, inv_std = _normalized(x.data)
        gx = None
        if x.requires_grad:
            gn = g * gain.data
            gx = inv_std * (
                gn
                - gn.mean(axis=-1, keepdims=True)
                - xn * (gn * xn).mean(axis=-1, keepdims=True)
            )
        return (gx, _leading_sum(g * xn), _leading_sum(g))

    xn, _inv_std = _normalized(x.data)
    return _make_output(xn * gain.data + shift.data, (x, gain, shift), backward)


def _softmax(x, axis, out=None):
    """exp(x - max) / sum(exp(x - max)) along axis, written into out (a new
    array when None; x itself may be out)."""
    out = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def attention(q, k, v, mask=None):
    """softmax(q @ k^T / sqrt(dh)) [* mask] @ v over the last two axes, with
    q: [..., Tq, dh], k: [..., Tk, dh], v: [..., Tk, dv] and a constant
    [..., Tq, Tk] mask (attention dropout) multiplying the weights.

    One tape node that keeps q, k, v and the mask, never the [..., Tq, Tk]
    scores or weights: the backward recomputes the weights in place, as
    FlashAttention does (arXiv:2205.14135), then replays the backward of the
    matmul, transpose, scale, softmax, mask and matmul nodes this op
    replaces, on the same operand views, so its gradients equal theirs bit
    for bit. The backward holds at most two score-sized arrays at once, plus
    one leading slice of a third for softmax's row sums.
    """
    fits = min(q.ndim, k.ndim, v.ndim) >= 2
    if fits:
        lead, (tq, dh), tk = q.shape[:-2], q.shape[-2:], k.shape[-2]
        fits = (k.shape == lead + (tk, dh) and v.shape[:-1] == lead + (tk,)
                and (mask is None or mask.shape == lead + (tq, tk)))
    if not fits:
        raise DimensionError(
            f"attention: shapes q {q.shape}, k {k.shape}, v {v.shape}"
            f"{'' if mask is None else f', mask {mask.shape}'} do not fit "
            f"[..., Tq, dh], [..., Tk, dh], [..., Tk, dv] and [..., Tq, Tk]"
        )
    scale = 1.0 / np.sqrt(dh)

    def weights():
        """softmax(q @ k^T * scale) in one new score-sized array."""
        s = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
        s *= scale
        return _softmax(s, -1, out=s)

    def backward(g):
        y = weights()
        dropped = y if mask is None else y * mask
        gv = np.matmul(np.swapaxes(dropped, -1, -2), g)
        del dropped
        gs = np.matmul(g, np.swapaxes(v.data, -1, -2))
        if mask is not None:
            gs *= mask
        # softmax: y * (gs - sum(gs * y)), the row sums taken one leading
        # slice at a time so that no third score-sized array is made
        rows = np.empty(lead + (tq, 1))
        for gs_i, y_i, rows_i in zip(gs.reshape(-1, tq, tk), y.reshape(-1, tq, tk),
                                     rows.reshape(-1, tq, 1)):
            np.sum(gs_i * y_i, axis=-1, keepdims=True, out=rows_i)
        gs -= rows
        gs *= y
        del y
        gs *= scale
        gk = np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), gs), -1, -2)
        return (np.matmul(gs, k.data), gk, gv)

    y = weights()
    if mask is not None:
        y *= mask
    return _make_output(np.matmul(y, v.data), (q, k, v), backward)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _tap_rows(xp, kh, kw, stride):
    """For each kernel row u, the [N*H'*W', kw*C] taps of that row under
    every output pixel of a stride-strided kh x kw correlation over the NHWC
    xp: one contiguous buffer, refilled per row from one sliding-window view,
    so no value of xp is copied more than kw times at once. Each row is
    yielded in that same buffer: use it before asking for the next."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, :: stride[0], :: stride[1]]  # [N, H', W', C, kh, kw]
    rows = np.empty(windows.shape[:3] + (kw, xp.shape[3]))
    for u in range(kh):
        np.copyto(rows, np.swapaxes(windows[..., u, :], -1, -2))
        yield rows.reshape(-1, kw * xp.shape[3])


def _correlate(xp, kernel, stride):
    """Cross-correlation of the NHWC xp with the [O, C, kh, kw] kernel as one
    [N*H'*W', kw*C] x [kw*C, O] GEMM per kernel row (the kn2row scheme of
    Anderson et al., arXiv:1709.03395) -> [N, H', W', O]."""
    o, c, kh, kw = kernel.shape
    taps = kernel.transpose(2, 3, 1, 0).reshape(kh, kw * c, o)  # per row [kw*C, O]
    out = None
    for u, rows in enumerate(_tap_rows(xp, kh, kw, stride)):
        if out is None:
            out = rows @ taps[u]
        else:
            out += rows @ taps[u]
    n, hp, wp, _ = xp.shape
    return out.reshape(n, (hp - kh) // stride[0] + 1, (wp - kw) // stride[1] + 1, o)


def conv2d(x, kernel, stride=(1, 1), padding=(0, 0)):
    """2D cross-correlation (no kernel flip) over NHWC input.

    x: [N, H, W, C], kernel: [O, C, kh, kw] -> [N, H', W', O] with
    H' = floor((H + 2*ph - kh)/sh) + 1, likewise W'. One tape node that
    keeps the padded input (x's own array when padding is 0); the forward
    and the input gradient both run through _correlate, so neither copies
    a k x k window per pixel.
    """
    sh, sw = stride
    ph, pw = padding
    if sh < 1 or sw < 1:
        raise DimensionError("conv2d: stride components must be >= 1")
    if ph < 0 or pw < 0:
        raise DimensionError("conv2d: padding components must be >= 0")
    n, h, w, c = x.shape
    o, ck, kh, kw = kernel.shape
    if c != ck:
        raise DimensionError(
            f"conv2d: input channels {c} != kernel channels {ck}"
        )
    if kh < 1 or kw < 1:
        raise DimensionError(f"conv2d: kernel extents {kh}x{kw} must be >= 1")
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise DimensionError("conv2d: kernel larger than padded input")

    xp = x.data if ph == pw == 0 else np.pad(x.data, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    val = _correlate(xp, kernel.data, stride)

    def backward(g):
        gk = None
        if kernel.requires_grad:
            gflat = g.reshape(-1, o)
            gk = np.empty(kernel.shape)
            for u, rows in enumerate(_tap_rows(xp, kh, kw, stride)):
                gk[:, :, u, :] = (rows.T @ gflat).reshape(kw, c, o).transpose(2, 1, 0)
        if not x.requires_grad:
            return (None, gk)
        # g on the stride grid of a zero array padded by k - 1 on every side
        # of the padded input; rows and columns no window covered stay zero
        hout, wout = g.shape[1], g.shape[2]
        spread = np.zeros((n, xp.shape[1] + kh - 1, xp.shape[2] + kw - 1, o))
        spread[:, kh - 1 : kh - 1 + hout * sh : sh, kw - 1 : kw - 1 + wout * sw : sw] = g
        flipped = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # [C, O, kh, kw]
        crop = spread[:, ph : ph + h + kh - 1, pw : pw + w + kw - 1]
        return (_correlate(crop, flipped, (1, 1)), gk)

    return _make_output(val, (x, kernel), backward)


# ---------------------------------------------------------------------------
# first-order linear recurrence (scan) kernel
# ---------------------------------------------------------------------------

def _scan_sequential(a, x, h=None, prev=None):
    """h[t] = a[t] * h[t-1] + x[t] over the leading (time) axis, h[-1] = prev
    (zeros when None), written into h (allocated time-major when None, so
    each step writes one contiguous slice). Each step is one multiply into
    h[t] and one in-place add, so the loop allocates nothing."""
    if h is None:
        h = np.empty_like(x, order="C")
    if prev is None:
        prev = np.zeros(x.shape[1:], dtype=x.dtype)
    for a_t, x_t, h_t in zip(a, x, h):
        np.multiply(a_t, prev, out=h_t)
        np.add(h_t, x_t, out=h_t)
        prev = h_t
    return h


def _scan_blocked(a, x):
    """Doubling-pass inclusive scan over the leading (time) axis; log2(L)
    vectorized sweeps."""
    h = x.copy()
    coef = a.copy()
    shift = 1
    length = x.shape[0]
    while shift < length:
        h[shift:] += coef[shift:] * h[:-shift]
        coef[shift:] = coef[shift:] * coef[:-shift]
        shift *= 2
    return h


_SCAN_KERNELS = {"sequential": _scan_sequential, "blocked": _scan_blocked}


def _check_states(h, op, first_step=0):
    """Raise NumericError naming op and the first time step (leading axis of
    h, counted from first_step) that holds a non-finite state."""
    finite_per_step = np.isfinite(h).all(axis=tuple(range(1, h.ndim)))
    if not finite_per_step.all():
        step = first_step + int(np.argmin(finite_per_step))
        raise NumericError(f"{op}: non-finite state at step {step}")


def linear_scan(a, x, mode="sequential"):
    """h_t = a_t * h_{t-1} + x_t along the trailing axis, h_0 = 0.

    mode selects the forward kernel: "sequential" (step-by-step reference)
    or "blocked" (doubling-pass restructuring); both compute the same values.
    The kernels run on time-major views of a and x.
    """
    if a.shape != x.shape:
        raise DimensionError("linear_scan: coefficient/input shape mismatch")
    if x.shape[-1] < 1:
        raise DimensionError("linear_scan: empty sequence")
    kernel = _SCAN_KERNELS[mode]
    a_tm = np.moveaxis(a.data, -1, 0)
    h_tm = kernel(a_tm, np.moveaxis(x.data, -1, 0))
    _check_states(h_tm, "linear_scan")

    def backward(g):
        # adjoint recurrence lam_t = g_t + a_{t+1} * lam_{t+1}, run as a
        # forward scan on time-reversed arrays
        a_next = np.empty_like(a_tm)
        a_next[0] = 0.0
        a_next[1:] = a_tm[:0:-1]
        lam = kernel(a_next, np.moveaxis(g, -1, 0)[::-1])[::-1]
        h_prev = np.empty_like(h_tm)
        h_prev[0] = 0.0
        h_prev[1:] = h_tm[:-1]
        return (np.moveaxis(lam * h_prev, 0, -1), np.moveaxis(lam, 0, -1))

    return _make_output(np.moveaxis(h_tm, 0, -1), (a, x), backward)


# ---------------------------------------------------------------------------
# fused selective scan
# ---------------------------------------------------------------------------

CHUNK = 128  # time steps per block of the selective-scan backward


def _discretization(delta_pre, a_log):
    """delta = softplus(delta_pre) and A = -exp(a_log), the positive step
    sizes and strictly negative poles of selective_scan."""
    return np.logaddexp(0.0, delta_pre), -np.exp(a_log)


def _transitions(delta, a):
    """Time-major [L, C, S] discretized transitions abar = exp(delta * A)."""
    abar = np.exp(delta[:, :, None] * a[None, :, :])
    # delta > 0 and A < 0 put abar in (0, 1); float underflow at either end
    # (exp saturating to 0.0 or 1.0) is tolerated
    if not (np.all(abar >= 0.0) and np.all(abar <= 1.0)):
        raise NumericError("selective_scan: discretized transition left [0, 1]")
    return abar


def _selective_states(u, delta_pre, a_log, b):
    """Time-major [L, C, S] states h of selective_scan, from one
    linear_scan over [C, S, L] views of time-major buffers, so each
    recurrence step reads one contiguous [C, S] slice."""
    delta, a = _discretization(delta_pre, a_log)
    abar = _transitions(delta, a)
    bu = (delta * u)[:, :, None] * b[:, None, :]
    del delta  # free before the scan, the forward's memory peak
    h = linear_scan(Tensor(np.moveaxis(abar, 0, -1)), Tensor(np.moveaxis(bu, 0, -1)))
    return np.moveaxis(h.data, -1, 0)


def _projections(u, w_delta, b_delta, w_b, w_c):
    """delta_pre, B and C of selective_scan from the tensors of its [L, C]
    tokens u and its weights, by the expressions linear evaluates."""
    return (
        np.matmul(u.data, w_delta.data.T) + b_delta.data,
        np.matmul(u.data, w_b.data.T),
        np.matmul(u.data, w_c.data.T),
    )


def _selective_forward(u, delta_pre, a_log, b, c, d):
    """y of selective_scan from its projected arrays, and the state entering
    each block of CHUNK steps, [ceil(L / CHUNK), C, S]."""
    length = u.shape[0]
    h = _selective_states(u, delta_pre, a_log, b)
    y = np.einsum("tns,ts->tn", h, c)
    # entries[k] = h[k * CHUNK - 1], the state entering chunk k
    entries = np.concatenate([np.zeros((1,) + h.shape[1:]), h[CHUNK - 1 : length - 1 : CHUNK]])
    del h  # before the D skip's [L, C] temporaries
    return y + d * u, entries


def _selective_backward(g, u, delta_pre, a_log, b, c, d, entries):
    """Gradients (du, ddelta_pre, da_log, db, dc, dd) of <g, y> for y of
    _selective_forward, walking the chunks in reverse from their entry
    states (see selective_scan)."""
    length, channels = u.shape
    state = a_log.shape[-1]
    delta, a = _discretization(delta_pre, a_log)
    ud = delta * u
    rows = min(CHUNK, length)
    # stacked recurrences: [:, 0] the states h, [:, 1] the adjoints lam
    coef = np.empty((rows, 2, channels, state))
    drive = np.empty_like(coef)
    states = np.empty_like(coef)
    carry = np.zeros((2, channels, state))
    q = np.empty((length, channels, state))  # d loss / d(delta * A)
    du, ddelta = np.empty((length, channels)), np.empty((length, channels))
    db, dc = np.empty((length, state)), np.empty((length, state))
    for k in reversed(range(len(entries))):
        t0 = k * CHUNK
        t1 = min(t0 + CHUNK, length)
        m = t1 - t0
        abar = _transitions(delta[t0 : t1 + 1], a)  # and the next chunk's first row
        # state h_t = abar_t h_{t-1} + bu_t, t = t0 .. t1-1
        coef[:m, 0] = abar[:m]
        np.multiply(ud[t0:t1, :, None], b[t0:t1, None, :], out=drive[:m, 0])
        # adjoint lam_t = abar_{t+1} lam_{t+1} + c_t g_t, t = t1-1 .. t0;
        # abar_L is 0
        coef[0, 1] = abar[m] if t1 < length else 0.0
        coef[1:m, 1] = abar[m - 1 : 0 : -1]
        np.multiply(g[t0:t1][::-1, :, None], c[t0:t1][::-1, None, :], out=drive[:m, 1])
        carry[0] = entries[k]
        _scan_sequential(coef[:m], drive[:m], states[:m], carry)
        hk = states[:m, 0]
        _check_states(hk, "selective_scan", t0)
        lam = states[:m, 1][::-1]  # d loss / d bu
        carry[1] = lam[0]
        # q_t = lam_t * h_{t-1} * abar_t, and q_0 = 0
        qk = q[t0:t1]
        np.multiply(lam[1:], hk[:-1], out=qk[1:])
        qk[1:] *= abar[1:m]
        if t0:
            np.multiply(lam[0], entries[k], out=qk[0])
            qk[0] *= abar[0]
        else:
            qk[0] = 0.0
        lam_b = np.einsum("tns,ts->tn", lam, b[t0:t1])  # d loss / d(delta * u)
        du[t0:t1] = lam_b * delta[t0:t1]
        ddelta[t0:t1] = lam_b * u[t0:t1] + np.einsum("tns,ns->tn", qk, a)
        db[t0:t1] = np.einsum("tns,tn->ts", lam, ud[t0:t1])
        dc[t0:t1] = np.einsum("tns,tn->ts", hk, g[t0:t1])
    da = np.einsum("tns,tn->ns", q, delta)
    del q, qk  # free the whole-length buffer before the [L, C] temporaries below
    du += g * d  # the D skip
    ddelta *= _logistic(delta_pre)  # softplus' = sigmoid
    return (du, ddelta, da * a, db, dc, _leading_sum(g * u))  # dA / d a_log = A


def selective_scan(u, a_log, w_delta, b_delta, w_b, w_c, d):
    """y[t, n] = sum_s C[t, s] * h[t, n, s] + d[n] * u[t, n], where h[-1] = 0,
    h[t, n, s] = exp(delta[t, n] A[n, s]) h[t-1, n, s] + delta[t, n] u[t, n] B[t, s],
    delta = softplus(u @ w_delta.T + b_delta), B = u @ w_b.T, C = u @ w_c.T
    and A = -exp(a_log).

    Time-major: u: [L, C] with L >= 1; a_log: [C, S]; w_delta: [C, C];
    b_delta, d: [C]; w_b, w_c: [S, C]; y: [L, C]. The parameters come in
    decoder.S6_PARAMS order. One tape node, which takes the delta, B and C projections,
    the softplus, the poles and the D skip in as Mamba's selective-scan op
    does (arXiv:2312.00752). It keeps its seven inputs and the state
    entering each block of CHUNK steps, [ceil(L / CHUNK), C, S], instead of
    the projections or the [L, C, S] intermediates, which the backward
    rebuilds from u and the weights (the recompute scheme of Mamba, over
    the time chunks of Mamba-2, arXiv:2405.21060). The forward runs one
    full-length linear_scan. The backward recomputes the projections, then
    walks the chunks in reverse: it recomputes each chunk's transitions and
    inputs, then runs the state recompute (forward in time, from the saved
    entry state) and the adjoint recurrence (backward in time, from the
    adjoint carried in from the next chunk) as one stacked [2, C, S]
    sequential loop, and writes the chunk's rows of every gradient but da.
    da sums over all of time, so it is one contraction over a whole-length
    buffer. The weight gradients are linear's, and u's gradient sums its
    D-skip-and-scan, C, B and delta terms in that order, the order the tape
    summed them in when the projections were linear nodes of their own.
    """
    length, channels = u.shape
    state = a_log.shape[-1]
    if (length < 1 or a_log.shape != (channels, state)
            or w_delta.shape != (channels, channels) or b_delta.shape != (channels,)
            or w_b.shape != (state, channels) or w_c.shape != (state, channels)
            or d.shape != (channels,)):
        raise DimensionError(
            f"selective_scan: shapes u {u.shape}, a_log {a_log.shape}, "
            f"w_delta {w_delta.shape}, b_delta {b_delta.shape}, w_b {w_b.shape}, "
            f"w_c {w_c.shape}, d {d.shape} do not fit "
            f"[L,C], [C,S], [C,C], [C], [S,C], [S,C], [C] with L >= 1"
        )
    delta_pre, b, c = _projections(u, w_delta, b_delta, w_b, w_c)
    y, entries = _selective_forward(u.data, delta_pre, a_log.data, b, c, d.data)

    def backward(g):
        delta_pre, b, c = _projections(u, w_delta, b_delta, w_b, w_c)
        du, ddelta, da_log, db, dc, dd = _selective_backward(
            g, u.data, delta_pre, a_log.data, b, c, d.data, entries
        )
        gu = ((du + np.matmul(dc, w_c.data)) + np.matmul(db, w_b.data)) + np.matmul(
            ddelta, w_delta.data
        )
        return (
            gu,
            da_log,
            _weight_grad(ddelta, u.data),
            _leading_sum(ddelta),
            _weight_grad(db, u.data),
            _weight_grad(dc, u.data),
            dd,
        )

    return _make_output(y, (u, a_log, w_delta, b_delta, w_b, w_c, d), backward)


# ---------------------------------------------------------------------------
# cross-merge of the four scan directions
# ---------------------------------------------------------------------------

def cross_merge(d1, d2, d3, d4, h, w):
    """Sum four [H*W, N] direction outputs back onto the [H, W, N] grid, as
    VMamba's cross-merge does (arXiv:2401.10166): d1 + d2[::-1] read
    row-major, plus d3 + d4[::-1] read row-major with W flipped.

    One tape node that keeps nothing: its backward hands each direction a
    view of g, except that d3 and d4 share one copy (a W flip is no single
    stride over [H*W, N]).
    """
    n = d1.shape[-1]
    for s in (d1, d2, d3, d4):
        if s.shape != (h * w, n):
            raise DimensionError(
                f"cross_merge: sequence shape {s.shape} != {(h * w, n)}"
            )
    rows = (d1.data + d2.data[::-1]).reshape(h, w, n)
    flipped = (d3.data + d4.data[::-1]).reshape(h, w, n)

    def backward(g):
        g1 = g.reshape(h * w, n)
        g3 = g[:, ::-1].reshape(h * w, n)
        return (g1, g1[::-1], g3, g3[::-1])

    return _make_output(rows + flipped[:, ::-1], (d1, d2, d3, d4), backward)

