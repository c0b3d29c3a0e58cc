"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays. Operations executed while a Tape is
active record backward rules on that tape; Tape.backward(out) replays the
tape in reverse and accumulates gradients into requires_grad leaves.
Without an active tape, operations are plain forward computations.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericError

_TAPES = []  # open tapes, innermost last


class Tape:
    """Append-only record of operations for one forward pass.

    The tape alone holds the graph: no tensor points back at it, so a dropped
    tape is freed by reference counting. A requires_grad input that is not
    an output recorded on this tape, one recorded on another tape included,
    is a leaf of it.
    """

    def __init__(self):
        self.nodes = []  # (out, inputs, backward_fn)

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def backward(self, out, seed=None):
        # the tape holds every recorded output alive, so their ids are unique
        # and tell them from the leaves
        recorded = {id(node_out) for node_out, _inputs, _fn in self.nodes}
        if id(out) not in recorded:
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
                if id(inp) not in recorded:  # leaf: accumulate into .grad
                    if inp.grad is None:
                        # a private array (a 0-d product is a numpy scalar,
                        # which gi.copy() would keep), so later
                        # contributions add into it in place
                        inp.grad = np.array(gi)
                    else:
                        np.add(inp.grad, gi, out=inp.grad)
                elif id(inp) in grads:
                    grads[id(inp)] = grads[id(inp)] + gi
                else:
                    grads[id(inp)] = gi


class Tensor:
    """N-dimensional float64 array with optional gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    # a float product commutes exactly, and so do mul's two gradient rules
    __rmul__ = __mul__


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_output(value, inputs, backward_fn):
    out = Tensor(value)
    if _TAPES and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPES[-1].nodes.append((out, tuple(inputs), backward_fn))
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


def _logistic(x):
    """Stable logistic 1 / (1 + exp(-x)), via tanh."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _logistic_grad(g, val):
    """The logistic's backward over arrays: g * s * (1 - s), from its
    output s."""
    return g * val * (1.0 - val)


def _silu(x):
    """x * sigmoid(x) over an array: silu's forward."""
    return x * _logistic(x)


def _silu_grad(g, x):
    """silu's backward over arrays: g * silu'(x), the sigmoid recomputed."""
    s = _logistic(x)
    return g * (s + x * s * (1.0 - s))


def silu(a):
    """a * sigmoid(a), one node that keeps only its input: the backward
    recomputes the sigmoid instead of holding it."""
    return _make_output(_silu(a.data), (a,), lambda g: (_silu_grad(g, a.data),))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape):
    return _make_output(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),)
    )


def permute(a, axes):
    return _make_output(
        np.transpose(a.data, axes), (a,), lambda g: (g.transpose(np.argsort(axes)),)
    )


def flip(a, axis):
    """a reversed along axis: a view forward, and a view of g backward."""
    ndim = a.data.ndim
    if not -ndim <= axis < ndim:
        raise DimensionError(f"flip: axis {axis} out of range for {ndim} dimensions")
    # the view np.flip gives, without its axis normalization on every call
    index = (slice(None),) * (axis % ndim) + (slice(None, None, -1),)
    return _make_output(a.data[index], (a,), lambda g: (g[index],))


def _zero_pad(x, pad_width):
    """x inside a new zero array, with pad_width[i] = (before, after) zeros
    on axis i: the values of numpy.pad's constant mode, from one zeros call
    and one slice assignment."""
    out = np.zeros(
        tuple(n + lo + hi for n, (lo, hi) in zip(x.shape, pad_width)), dtype=x.dtype
    )
    out[tuple(slice(lo, lo + n) for n, (lo, _hi) in zip(x.shape, pad_width))] = x
    return out


def pad(a, pad_width):
    """Constant zero padding; pad_width is one (before, after) pair per axis."""
    unpad = tuple(
        slice(lo, lo + n) for (lo, _hi), n in zip(pad_width, a.shape)
    )
    return _make_output(_zero_pad(a.data, pad_width), (a,), lambda g: (g[unpad],))


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


def _check_linear(op, x, weight, bias):
    """Raise DimensionError naming op unless x [..., in], weight [out, in]
    and bias (None or [out]) fit x @ weight.T + bias."""
    if x.shape[-1] != weight.shape[-1]:
        raise DimensionError(
            f"{op}: input extent {x.shape[-1]} != weight in-extent "
            f"{weight.shape[-1]}"
        )
    if bias is not None and bias.shape != weight.shape[:1]:
        raise DimensionError(
            f"{op}: bias shape {bias.shape} != ({weight.shape[0]},)"
        )


def _affine(x, weight, bias):
    """x @ weight.T + bias over arrays (no bias when None): linear's forward."""
    val = np.matmul(x, weight.T)
    return val if bias is None else val + bias


def _affine_grads(g, x, x_grad, weight, bias):
    """linear's backward: the gradients (x, weight, bias) of x @ weight.T +
    bias from the output gradient g and x's array, each None where it is not
    wanted (x's unless x_grad)."""
    return (
        np.matmul(g, weight.data) if x_grad else None,
        _weight_grad(g, x) if weight.requires_grad else None,
        _leading_sum(g) if bias is not None and bias.requires_grad else None,
    )


def linear(x, weight, bias=None):
    """Affine map over the trailing axis: y = x @ weight.T + bias.

    One tape node; weight is [out, in], bias [out], x [..., in].
    """
    _check_linear("linear", x, weight, bias)
    val = _affine(x.data, weight.data, None if bias is None else bias.data)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make_output(
        val, inputs, lambda g: _affine_grads(g, x.data, x.requires_grad, weight, bias)
    )


def silu_linear(x, weight, bias):
    """silu(linear(x, weight, bias)) as one tape node that keeps only its
    inputs: the backward recomputes the pre-activation, then runs silu's and
    linear's backward on it, so output and gradients equal the two nodes'
    bit for bit."""
    _check_linear("silu_linear", x, weight, bias)

    def backward(g):
        pre = _affine(x.data, weight.data, bias.data)
        return _affine_grads(_silu_grad(g, pre), x.data, x.requires_grad, weight, bias)

    val = _silu(_affine(x.data, weight.data, bias.data))
    return _make_output(val, (x, weight, bias), backward)


def sigmoid_linear(x, weight, bias):
    """sigmoid(linear(x, weight, bias)) as one tape node that keeps its
    inputs and its output, never the pre-activation: the backward runs
    sigmoid's and then linear's backward on the same operands, so output
    and gradients equal the two nodes' bit for bit."""
    _check_linear("sigmoid_linear", x, weight, bias)
    val = _logistic(_affine(x.data, weight.data, bias.data))

    def backward(g):
        return _affine_grads(_logistic_grad(g, val), x.data, x.requires_grad, weight, bias)

    return _make_output(val, (x, weight, bias), backward)


LN_EPS = 1e-5  # added to the variance under layer_norm's square root


def _normalized(x):
    """layer_norm's normalized array xn and 1/std over the trailing axis."""
    inv_n = 1.0 / x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_n + LN_EPS)
    return xc / std, 1.0 / std


def _norm_affine(xn, gain, shift):
    """layer_norm's output from the normalized array xn and its parameters."""
    return xn * gain.data + shift.data


def _norm_grads(g, xn, inv_std, gain, x_grad):
    """layer_norm's backward: the gradients (x, gain, shift) from the output
    gradient g and the recomputed xn and 1/std; x's is None unless x_grad."""
    gx = None
    if x_grad:
        gn = g * gain.data
        gx = inv_std * (
            gn
            - gn.mean(axis=-1, keepdims=True)
            - xn * (gn * xn).mean(axis=-1, keepdims=True)
        )
    return (gx, _leading_sum(g * xn), _leading_sum(g))


def _check_norm(op, x, gain, shift):
    """Raise DimensionError naming op unless gain and shift are [x's width]."""
    if gain.shape != x.shape[-1:] or shift.shape != x.shape[-1:]:
        raise DimensionError(f"{op}: gain and shift must be [width]")


def layer_norm(x, gain, shift):
    """Normalize the trailing axis to zero mean / unit variance, then affine.

    One tape node that keeps only its inputs: the closed-form backward
    recomputes the normalized input xn and 1/std from x.
    """
    _check_norm("layer_norm", x, gain, shift)

    def backward(g):
        return _norm_grads(g, *_normalized(x.data), gain, x.requires_grad)

    val = _norm_affine(_normalized(x.data)[0], gain, shift)
    return _make_output(val, (x, gain, shift), backward)


def gated_residual(x, c, gate, gain, shift, weight, bias):
    """x + linear(layer_norm(c, gain, shift) * gate, weight, bias): a VSS
    block's output path, VMamba's out-norm times the gate, out-projection
    and residual (arXiv:2401.10166), as one tape node.

    It keeps c, gate and the parameters, never the normed c, the gated
    product or the projection: the backward recomputes the first two, then
    runs the backward of the add, linear, mul and layer_norm nodes this op
    replaces on the same operands, so its output and gradients equal theirs
    bit for bit. x's gradient is the incoming g itself, as add's is.
    """
    _check_norm("gated_residual", c, gain, shift)
    _check_linear("gated_residual", c, weight, bias)
    if gate.shape != c.shape or x.shape != c.shape[:-1] + weight.shape[:1]:
        raise DimensionError(
            f"gated_residual: shapes x {x.shape}, c {c.shape}, gate {gate.shape} do not fit "
            f"a gate of c's shape and an x of c's shape with width {weight.shape[0]}"
        )
    # whether the normed c, and the gated product, take a gradient
    norm_grad = c.requires_grad or gain.requires_grad or shift.requires_grad
    gated_grad = norm_grad or gate.requires_grad

    def backward(g):
        xn, inv_std = _normalized(c.data)
        normed = _norm_affine(xn, gain, shift)
        g_gated, gw, gb = _affine_grads(g, normed * gate.data, gated_grad, weight, bias)
        gc = g_gain = g_shift = None
        if norm_grad:
            gc, g_gain, g_shift = _norm_grads(
                g_gated * gate.data, xn, inv_std, gain, c.requires_grad
            )
        g_gate = g_gated * normed if gate.requires_grad else None
        return (g if x.requires_grad else None, gc, g_gate, g_gain, g_shift, gw, gb)

    gated = _norm_affine(_normalized(c.data)[0], gain, shift) * gate.data
    val = x.data + _affine(gated, weight.data, bias.data)
    return _make_output(val, (x, c, gate, gain, shift, weight, bias), backward)


def _softmax(x, axis, out=None):
    """exp(x - max) / sum(exp(x - max)) along axis, written into out (a new
    array when None; x itself may be out)."""
    out = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def attention(q, k, v, heads, keep=None, drop=0.0):
    """Multi-head self-attention over [T, n] token rows: head i reads and
    writes columns i*dh:(i+1)*dh, dh = n / heads, of q, k, v and the output,
    and computes softmax(q_i @ k_i^T / sqrt(dh)) @ v_i. For attention
    dropout, keep is a constant boolean [heads, T, T] mask: the weights it
    keeps are scaled by 1 / (1 - drop), the others are zeroed.

    One tape node that keeps q, k, v and the mask, never the [heads, T, T]
    scores or weights. Forward and backward run one head at a time, and the
    backward recomputes that head's [T, T] weights in place, as
    FlashAttention recomputes per block (arXiv:2205.14135). It then replays
    the backward of the matmul, transpose, scale, softmax, mask and matmul
    nodes this op replaces, on the same operands, so its outputs and
    gradients equal theirs bit for bit. The backward holds at most three
    [T, T] arrays at once.
    """
    fits = q.ndim == 2 and k.shape == q.shape and v.shape == q.shape and heads >= 1
    if fits:
        t, n = q.shape
        fits = n % heads == 0 and (
            keep is None or (keep.shape == (heads, t, t) and keep.dtype == bool))
    if not fits:
        raise DimensionError(
            f"attention: shapes q {q.shape}, k {k.shape}, v {v.shape}"
            f"{'' if keep is None else f', keep {keep.shape} {keep.dtype}'} do not fit "
            f"three equal [T, n] with {heads} heads dividing n and a boolean [heads, T, T]"
        )
    dh = n // heads
    scale = 1.0 / np.sqrt(dh)
    keep_scale = 1.0 / (1.0 - drop)
    cols = [(i, slice(i * dh, (i + 1) * dh)) for i in range(heads)]

    def weights(c):
        """softmax(q @ k^T * scale) of columns c, in one new [T, T] array."""
        s = np.matmul(q.data[:, c], k.data[:, c].T)
        s *= scale
        return _softmax(s, -1, out=s)

    def dropped(y, i):
        """y with head i's dropout applied in place."""
        y *= keep[i]
        y *= keep_scale
        return y

    def backward(g):
        gq, gk, gv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
        for i, c in cols:
            y = weights(c)
            gs = np.matmul(g[:, c], v.data[:, c].T)
            if keep is None:
                gv[:, c] = np.matmul(y.T, g[:, c])
            else:
                gv[:, c] = np.matmul(dropped(y.copy(), i).T, g[:, c])
                dropped(gs, i)
            # softmax: y * (gs - sum(gs * y))
            gs -= np.sum(gs * y, axis=-1, keepdims=True)
            gs *= y
            del y
            gs *= scale
            gk[:, c] = np.matmul(q.data[:, c].T, gs).T
            gq[:, c] = np.matmul(gs, k.data[:, c])
        return (gq, gk, gv)

    out = np.empty(q.shape)
    for i, c in cols:
        y = weights(c)
        out[:, c] = np.matmul(y if keep is None else dropped(y, i), v.data[:, c])
    return _make_output(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _windows(xp, kh, kw, stride):
    """Read-only [N, H', W', kh, kw, C] view of the NHWC xp (contiguous or
    not): the kh x kw window under each output pixel of a stride-strided
    correlation, from one as_strided call."""
    n, hp, wp, c = xp.shape
    s_n, s_h, s_w, s_c = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        (n, (hp - kh) // stride[0] + 1, (wp - kw) // stride[1] + 1, kh, kw, c),
        (s_n, s_h * stride[0], s_w * stride[1], s_h, s_w, s_c),
        writeable=False,
    )


def _tap_rows(xp, kh, kw, stride):
    """For each kernel row u, the [N*H'*W', kw*C] taps of that row under
    every output pixel of a stride-strided kh x kw correlation over the NHWC
    xp: one contiguous buffer, refilled per row from the _windows view, so
    no value of xp is copied more than kw times at once. Each row is
    yielded in that same buffer: use it before asking for the next."""
    windows = _windows(xp, kh, kw, stride)
    rows = np.empty(windows.shape[:3] + (kw, xp.shape[3]))
    for u in range(kh):
        np.copyto(rows, windows[:, :, :, u])
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
    """2D cross-correlation (no kernel flip) over channel-last grids.

    x: [..., H, W, C], kernel: [O, C, kh, kw] -> [..., H', W', O] with
    H' = floor((H + 2*ph - kh)/sh) + 1, likewise W'; every leading axis is
    a batch axis. One tape node that keeps the padded input (x's own array
    when padding is 0); the forward and the input gradient both run through
    _correlate on the leading axes folded into one, so neither copies a
    k x k window per pixel.
    """
    sh, sw = stride
    ph, pw = padding
    if sh < 1 or sw < 1:
        raise DimensionError("conv2d: stride components must be >= 1")
    if ph < 0 or pw < 0:
        raise DimensionError("conv2d: padding components must be >= 0")
    if x.ndim < 3:
        raise DimensionError(f"conv2d: input shape {x.shape} is not [..., H, W, C]")
    lead, (h, w, c) = x.shape[:-3], x.shape[-3:]
    n = int(np.prod(lead))
    o, ck, kh, kw = kernel.shape
    if c != ck:
        raise DimensionError(
            f"conv2d: input channels {c} != kernel channels {ck}"
        )
    if kh < 1 or kw < 1:
        raise DimensionError(f"conv2d: kernel extents {kh}x{kw} must be >= 1")
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise DimensionError("conv2d: kernel larger than padded input")

    xb = x.data.reshape(n, h, w, c)
    xp = xb if ph == pw == 0 else _zero_pad(xb, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    val = _correlate(xp, kernel.data, stride)

    def backward(g):
        g = g.reshape((n,) + g.shape[-3:])
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
        return (_correlate(crop, flipped, (1, 1)).reshape(x.shape), gk)

    return _make_output(val.reshape(lead + val.shape[1:]), (x, kernel), backward)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mse(x, y):
    """Mean of (x - y)^2 over all elements of two same-shape tensors.

    One tape node that keeps only its inputs: the backward recomputes x - y.
    """
    diff = x.data - y.data
    count = diff.size

    def backward(g):
        gx = (x.data - y.data) * (2.0 * g / count)
        return (gx if x.requires_grad else None, -gx if y.requires_grad else None)

    return _make_output((diff * diff).sum() * (1.0 / count), (x, y), backward)


def ssim(x, y, c1, c2, window=None):
    """Mean structural similarity of two same-shape [D, H, W] stacks of slices:
    the mean over every slice and position of
    (2 mu_x mu_y + c1) (2 cov + c2) / ((mu_x^2 + mu_y^2 + c1) (var_x + var_y + c2)),
    with the local means and second moments taken by a uniform
    window x window box filter over each slice (conv2d on constant
    operands, window <= min(H, W)), or over whole slices when window is None.

    One tape node that keeps x, y and four [D, H', W'] maps, mu_x, mu_y,
    2 cov + c2 and var_x + var_y + c2 (3.2 MB at 30 x 64 x 64 with window 7),
    instead of the 35 nodes of its composition. The closed-form backward
    takes the gradient of each local statistic from those maps and maps it
    back onto the slices through the box filter's adjoint.
    """
    d, h, w = x.shape
    if window is None:
        inv_area = 1.0 / (h * w)
        local = lambda a: a.sum(axis=(1, 2), keepdims=True) * inv_area
        adjoint = lambda m: m * inv_area  # broadcast over each slice
    else:
        kernel = Tensor(np.full((1, 1, window, window), 1.0 / (window * window)))
        local = lambda a: conv2d(Tensor(a.reshape(d, h, w, 1)), kernel).data
        border = ((0, 0), (window - 1, window - 1), (window - 1, window - 1), (0, 0))
        adjoint = lambda m: _correlate(_zero_pad(m, border), kernel.data, (1, 1)).reshape(d, h, w)
    mu_x, mu_y = local(x.data), local(y.data)
    e_xx, e_yy, e_xy = local(x.data * x.data), local(y.data * y.data), local(x.data * y.data)
    var_x = e_xx - mu_x * mu_x
    var_y = e_yy - mu_y * mu_y
    cov = e_xy - mu_x * mu_y
    a2, b2 = 2.0 * cov + c2, var_x + var_y + c2
    num = (2.0 * mu_x * mu_y + c1) * a2
    den = (mu_x * mu_x + mu_y * mu_y + c1) * b2
    ratio = num / den
    count = ratio.size

    def backward(g):
        a1 = 2.0 * mu_x * mu_y + c1
        b1 = mu_x * mu_x + mu_y * mu_y + c1
        p = (g / count) / (b1 * b2)
        ps = p * (a1 * a2 / (b1 * b2))  # p times the SSIM map
        d_xy = adjoint(2.0 * p * a1)  # through e_xy
        d_sq = adjoint(-ps * b1)  # through e_xx and e_yy alike
        r, t = p * (a2 - a1), ps * (b1 - b2)  # through mu_x and mu_y
        gx = gy = None
        if x.requires_grad:
            gx = adjoint(2.0 * (mu_y * r + mu_x * t)) + 2.0 * x.data * d_sq + y.data * d_xy
        if y.requires_grad:
            gy = adjoint(2.0 * (mu_x * r + mu_y * t)) + 2.0 * y.data * d_sq + x.data * d_xy
        return (gx, gy)

    return _make_output(ratio.sum() * (1.0 / count), (x, y), backward)


# ---------------------------------------------------------------------------
# first-order linear recurrence (scan) kernel
# ---------------------------------------------------------------------------

def _scan_sequential(a, x, h=None, prev=None):
    """h[t] = a[t] * h[t-1] + x[t] over the leading (time) axis, h[-1] = prev
    (zeros when None), written into h: a new time-major copy of x when None,
    so each step writes one contiguous slice, or else the caller's buffer,
    which may be x itself. h starts as x; each step then multiplies a[t] by
    h[t-1] into one scratch slice and adds that into h[t], so the loop walks
    two views and allocates nothing. x[t] + a[t] h[t-1] is the same float
    as a[t] h[t-1] + x[t], since addition commutes."""
    if h is None:
        h = x.copy()
    else:
        np.copyto(h, x)  # nothing to copy when h is x
    if prev is None:
        prev = np.zeros(x.shape[1:], dtype=x.dtype)
    step = np.empty_like(prev)
    multiply, add = np.multiply, np.add  # local names: looked up L times
    for a_t, h_t in zip(a, h):
        multiply(a_t, prev, out=step)
        add(h_t, step, out=h_t)
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
    """h_t = a_t * h_{t-1} + x_t along the trailing axis from h_{-1} = 0, so
    h_0 = x_0.

    A plain forward that records no tape node, so no gradient reaches a or
    x: the program scans constants only. mode selects the kernel:
    "sequential" (step-by-step reference) or "blocked" (doubling-pass
    restructuring); both compute the same values. The kernels run on
    time-major views of a and x.
    """
    if a.shape != x.shape:
        raise DimensionError("linear_scan: coefficient/input shape mismatch")
    if x.shape[-1] < 1:
        raise DimensionError("linear_scan: empty sequence")
    last = x.ndim - 1
    time_major = (last,) + tuple(range(last))
    h_tm = _SCAN_KERNELS[mode](a.data.transpose(time_major), x.data.transpose(time_major))
    _check_states(h_tm, "linear_scan")
    return Tensor(h_tm.transpose(tuple(range(1, last + 1)) + (0,)))


# ---------------------------------------------------------------------------
# fused selective scan
# ---------------------------------------------------------------------------

CHUNK = 128  # time steps per block of the selective-scan backward


def _discretization(delta_pre, a_log):
    """delta = softplus(delta_pre) and A = -exp(a_log), the positive step
    sizes and strictly negative poles of selective_scan."""
    return np.logaddexp(0.0, delta_pre), -np.exp(a_log)


def _transitions(delta, a):
    """Time-major [L, C, S] discretized transitions abar = exp(delta * A).

    This and the scan's other outer products (the inputs delta u B and the
    adjoint drive g C) are einsums, which cost less than a broadcast
    multiply over the S-wide inner axis. Each element is the broadcast's one
    product, except that einsum adds it into a zeroed output, so a -0.0
    product comes out 0.0: exp, and the zero-started sums that every state
    ends in, cannot tell the two apart."""
    abar = np.einsum("tn,ns->tns", delta, a)
    np.exp(abar, out=abar)
    # delta >= 0 and A <= 0 put abar in [0, 1] (exp saturating to 0.0 or 1.0
    # is tolerated), so it can leave [0, 1] only as a NaN, which its sum keeps
    if np.isnan(abar.sum()):
        raise NumericError("selective_scan: discretized transition left [0, 1]")
    return abar


def _selective_states(u, delta_pre, a_log, b):
    """Time-major [L, C, S] states h of selective_scan, from one
    linear_scan over [C, S, L] views of time-major buffers, so each
    recurrence step reads one contiguous [C, S] slice."""
    delta, a = _discretization(delta_pre, a_log)
    abar = _transitions(delta, a)
    bu = np.einsum("tn,ts->tns", delta * u, b)
    del delta  # free before the scan, the forward's memory peak
    h = linear_scan(Tensor(abar.transpose(1, 2, 0)), Tensor(bu.transpose(1, 2, 0)))
    return h.data.transpose(2, 0, 1)


def _projections(u, w_delta, b_delta, w_b, w_c):
    """delta_pre, B and C of selective_scan from the tensors of its [L, C]
    tokens u and its weights, by linear's forward."""
    return (
        _affine(u.data, w_delta.data, b_delta.data),
        _affine(u.data, w_b.data, None),
        _affine(u.data, w_c.data, None),
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
    # stacked recurrences: [:, 0] the states h, [:, 1] the adjoints lam;
    # states holds their drives until the scan overwrites them in place
    coef = np.empty((rows, 2, channels, state))
    states = np.empty_like(coef)
    carry = np.zeros((2, channels, state))
    q = np.empty((rows, channels, state))  # d loss / d(delta * A), per chunk
    da = np.zeros((channels, state))
    du, ddelta = np.empty((length, channels)), np.empty((length, channels))
    db, dc = np.empty((length, state)), np.empty((length, state))
    for k in reversed(range(len(entries))):
        t0 = k * CHUNK
        t1 = min(t0 + CHUNK, length)
        m = t1 - t0
        abar = _transitions(delta[t0 : t1 + 1], a)  # and the next chunk's first row
        # state h_t = abar_t h_{t-1} + bu_t, t = t0 .. t1-1
        coef[:m, 0] = abar[:m]
        np.einsum("tn,ts->tns", ud[t0:t1], b[t0:t1], out=states[:m, 0])
        # adjoint lam_t = abar_{t+1} lam_{t+1} + c_t g_t, t = t1-1 .. t0;
        # abar_L is 0
        coef[0, 1] = abar[m] if t1 < length else 0.0
        coef[1:m, 1] = abar[m - 1 : 0 : -1]
        np.einsum("tn,ts->tns", g[t0:t1][::-1], c[t0:t1][::-1], out=states[:m, 1])
        carry[0] = entries[k]
        _scan_sequential(coef[:m], states[:m], states[:m], carry)
        hk = states[:m, 0]
        _check_states(hk, "selective_scan", t0)
        lam = states[:m, 1][::-1]  # d loss / d bu
        carry[1] = lam[0]
        # q_t = lam_t * h_{t-1} * abar_t, and q_0 = 0
        qk = q[:m]
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
        da += np.einsum("tns,tn->ns", qk, delta[t0:t1])
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
    sequential loop, writes the chunk's rows of every gradient but da and
    adds the chunk's share of da, which sums over all of time, into one
    [C, S] accumulator. The weight gradients are linear's, and u's gradient sums its
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

