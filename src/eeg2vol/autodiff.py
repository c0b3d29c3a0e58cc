"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float64 by default). Operations executed while a
Tape is active record backward rules on that tape; Tensor.backward() replays
the tape in reverse and accumulates gradients into requires_grad leaves.
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
        grads = {id(out): np.asarray(seed, dtype=out.data.dtype)}
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
    """N-dimensional real array with optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad=False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, key):
        return tslice(self, key)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_output(value, inputs, backward_fn):
    tape = active_tape()
    out = Tensor(value, dtype=np.asarray(value).dtype)
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

def add(a, b):
    return _make_output(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b):
    return _make_output(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a, b):
    return _make_output(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def div(a, b):
    return _make_output(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a):
    return _make_output(-a.data, (a,), lambda g: (-g,))


def sqrt(a):
    val = np.sqrt(a.data)
    return _make_output(val, (a,), lambda g: (g * 0.5 / val,))


def exp(a):
    val = np.exp(a.data)
    return _make_output(val, (a,), lambda g: (g * val,))


def sigmoid(a):
    # stable logistic via tanh
    val = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return _make_output(val, (a,), lambda g: (g * val * (1.0 - val),))


def silu(a):
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return _make_output(
        a.data * s,
        (a,),
        lambda g: (g * (s + a.data * s * (1.0 - s)),),
    )


def softplus(a):
    val = np.logaddexp(0.0, a.data)
    s = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return _make_output(val, (a,), lambda g: (g * s,))


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


def transpose(a):
    """Swap the last two axes."""
    axes = list(range(a.ndim))
    axes[-2], axes[-1] = axes[-1], axes[-2]
    return permute(a, tuple(axes))


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

def matmul(a, b):
    val = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _make_output(val, (a, b), backward)


def linear(x, weight, bias=None):
    """Affine map over the trailing axis: y = x @ weight.T + bias."""
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"linear: input extent {x.shape[-1]} != weight in-extent "
            f"{weight.shape[-1]}"
        )
    y = matmul(x, transpose(weight))
    if bias is not None:
        y = y + bias
    return y


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    if x.shape[-1] != gain.shape[-1] or x.shape[-1] != shift.shape[-1]:
        raise DimensionError("layer_norm: gain/shift extent mismatch")
    mu = tmean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = tmean(xc * xc, axis=-1, keepdims=True)
    xn = xc / sqrt(var + eps)
    return xn * gain + shift


def softmax(x, axis=-1):
    shifted = x - np.max(x.data, axis=axis, keepdims=True)
    e = exp(shifted)
    return e / tsum(e, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d(x, kernel, stride=(1, 1), padding=(0, 0)):
    """2D cross-correlation (no kernel flip) over NCHW input.

    x: [N, C, H, W], kernel: [O, C, kh, kw] -> [N, O, H', W'] with
    H' = floor((H + 2*ph - kh)/sh) + 1, likewise W'.
    """
    sh, sw = stride
    ph, pw = padding
    if sh < 1 or sw < 1:
        raise DimensionError("conv2d: stride components must be >= 1")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if c != ck:
        raise DimensionError(
            f"conv2d: input channels {c} != kernel channels {ck}"
        )
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise DimensionError("conv2d: kernel larger than padded input")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw]  # [N, C, H', W', kh, kw]
    val = np.einsum("nchwuv,ocuv->nohw", windows, kernel.data, optimize=True)

    def backward(g):
        gk = np.einsum("nchwuv,nohw->ocuv", windows, g, optimize=True)
        gxp = np.zeros_like(xp)
        hout, wout = g.shape[2], g.shape[3]
        # scatter each kernel offset back onto the padded input grid
        contrib = np.einsum("nohw,ocuv->nchwuv", g, kernel.data, optimize=True)
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, u : u + hout * sh : sh, v : v + wout * sw : sw] += (
                    contrib[:, :, :, :, u, v]
                )
        gx = gxp[:, :, ph : ph + h, pw : pw + w]
        return (gx, gk)

    return _make_output(val, (x, kernel), backward)


# ---------------------------------------------------------------------------
# first-order linear recurrence (scan) kernel
# ---------------------------------------------------------------------------

def _scan_sequential(a, x):
    h = np.empty_like(x)
    prev = np.zeros(x.shape[:-1], dtype=x.dtype)
    for t in range(x.shape[-1]):
        prev = a[..., t] * prev + x[..., t]
        h[..., t] = prev
    return h


def _scan_blocked(a, x):
    """Doubling-pass inclusive scan; log2(L) vectorized sweeps over t."""
    h = x.copy()
    coef = a.copy()
    shift = 1
    length = x.shape[-1]
    while shift < length:
        h[..., shift:] += coef[..., shift:] * h[..., :-shift]
        coef[..., shift:] = coef[..., shift:] * coef[..., :-shift]
        shift *= 2
    return h


_SCAN_KERNELS = {"sequential": _scan_sequential, "blocked": _scan_blocked}


def linear_scan(a, x, mode="sequential"):
    """h_t = a_t * h_{t-1} + x_t along the trailing axis, h_0 = 0.

    mode selects the forward kernel: "sequential" (step-by-step reference)
    or "blocked" (doubling-pass restructuring); both compute the same values.
    """
    if a.shape != x.shape:
        raise DimensionError("linear_scan: coefficient/input shape mismatch")
    if x.shape[-1] < 1:
        raise DimensionError("linear_scan: empty sequence")
    kernel = _SCAN_KERNELS[mode]
    h = kernel(a.data, x.data)
    finite_per_step = np.isfinite(h).reshape(-1, h.shape[-1]).all(axis=0)
    if not finite_per_step.all():
        step = int(np.argmin(finite_per_step))
        raise NumericError(f"linear_scan: non-finite state at step {step}")

    def backward(g):
        # adjoint recurrence lam_t = g_t + a_{t+1} * lam_{t+1}, run as a
        # forward scan on time-reversed arrays
        a_next = np.roll(np.flip(a.data, axis=-1), 1, axis=-1)
        a_next[..., 0] = 0.0
        lam = kernel(a_next, np.flip(g, axis=-1))
        lam = np.flip(lam, axis=-1)
        h_prev = np.roll(h, 1, axis=-1)
        h_prev[..., 0] = 0.0
        return (lam * h_prev, lam)

    return _make_output(h, (a, x), backward)


# ---------------------------------------------------------------------------
# fused selective scan
# ---------------------------------------------------------------------------

def _selective_states(u, delta, a, b):
    """Time-major [L, C, S] transitions abar = exp(delta * A) and states h.

    The [C, S, L] arrays linear_scan sees are views of time-major buffers,
    so each recurrence step reads one contiguous [C, S] slice.
    """
    delta_t, u_t, b_t = (np.ascontiguousarray(v.T) for v in (delta, u, b))
    abar = np.exp(delta_t[:, :, None] * a[None, :, :])
    # delta > 0 and A < 0 put abar in (0, 1); float underflow at either end
    # (exp saturating to 0.0 or 1.0) is tolerated
    if not (np.all(abar >= 0.0) and np.all(abar <= 1.0)):
        raise NumericError("selective_scan: discretized transition left [0, 1]")
    bu = (delta_t * u_t)[:, :, None] * b_t[:, None, :]
    h = linear_scan(Tensor(np.moveaxis(abar, 0, -1)), Tensor(np.moveaxis(bu, 0, -1)))
    return abar, np.moveaxis(h.data, -1, 0)


def selective_scan(u, delta, a, b, c):
    """y[n, t] = sum_s c[s, t] * h[n, s, t], where h[n, s, 0] = 0 and
    h[n, s, t] = exp(delta[n, t] a[n, s]) h[n, s, t-1] + delta[n, t] u[n, t] b[s, t].

    u, delta: [C, L]; a: [C, S]; b, c: [S, L]. One tape node that keeps only
    its inputs: backward recomputes the states instead of storing the
    [C, S, L] intermediates (the recompute scheme of Mamba, arXiv:2312.00752).
    Forward and adjoint recurrences both run the sequential kernel.
    """
    channels, length = u.shape
    state = a.shape[-1]
    if (delta.shape != (channels, length) or a.shape != (channels, state)
            or b.shape != (state, length) or c.shape != (state, length)):
        raise DimensionError(
            f"selective_scan: shapes u {u.shape}, delta {delta.shape}, a {a.shape}, "
            f"b {b.shape}, c {c.shape} do not fit [C,L], [C,L], [C,S], [S,L], [S,L]"
        )
    _abar, h = _selective_states(u.data, delta.data, a.data, b.data)
    y = np.einsum("tns,st->nt", h, c.data)

    def backward(g):
        abar, h = _selective_states(u.data, delta.data, a.data, b.data)
        # adjoint lam_t = c_t g_t + abar_{t+1} lam_{t+1}, run as a forward
        # scan over reversed time r = L-1-t on time-major buffers
        a_rev = np.empty_like(abar)
        a_rev[0] = 0.0
        a_rev[1:] = abar[:0:-1]
        g_rev = np.ascontiguousarray(g.T[::-1])  # [L, C]
        c_rev = np.ascontiguousarray(c.data.T[::-1])  # [L, S]
        gh_rev = g_rev[:, :, None] * c_rev[:, None, :]
        lam = _scan_sequential(np.moveaxis(a_rev, 0, -1), np.moveaxis(gh_rev, 0, -1))
        lam = np.moveaxis(lam, -1, 0)[::-1]  # d loss / d bu, [L, C, S]
        # d loss / d(delta * A) = lam_t * h_{t-1} * abar_t
        q = np.zeros_like(h)
        q[1:] = lam[1:] * h[:-1] * abar[1:]
        lam_b = np.einsum("tns,st->nt", lam, b.data)  # d loss / d(delta * u)
        du = lam_b * delta.data
        ddelta = lam_b * u.data + np.einsum("tns,ns->nt", q, a.data)
        da = np.einsum("tns,nt->ns", q, delta.data)
        db = np.einsum("tns,nt->st", lam, delta.data * u.data)
        dc = np.einsum("tns,nt->st", h, g)
        return (du, ddelta, da, db, dc)

    return _make_output(y, (u, delta, a, b, c), backward)


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_weight(shape, fan_in, rng, requires_grad=True):
    """Uniform +-sqrt(1/fan_in); the conventional default."""
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad)


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad)


def ones(shape, requires_grad=False):
    return Tensor(np.ones(shape), requires_grad)
