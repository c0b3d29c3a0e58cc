"""Shared oracles and gradient-check helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.errors import NumericError
from eeg2vol.model import Model, ModelConfig

GRAD_TOL = 1e-4
FD_STEP = 1e-5


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
    with ad.Tape():
        out = func()
        out.backward()
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
    """Quadruple-loop cross-correlation reference."""
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    hout = (h + 2 * ph - kh) // sh + 1
    wout = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, hout, wout))
    for b in range(n):
        for oc in range(o):
            for i in range(hout):
                for j in range(wout):
                    patch = xp[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[b, oc, i, j] = np.sum(patch * kernel[oc])
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
# unfused selective-scan reference
# ---------------------------------------------------------------------------

def s6_scan_reference(u, params, mode="sequential"):
    """decoder.s6_scan composed from generic tape ops, each [C, S, L]
    intermediate (abar, bu, h, h*C) a tape node: the oracle for the fused
    ad.selective_scan."""
    n, length = u.shape
    tokens = ad.transpose(u)  # [L, channels]
    delta = ad.transpose(ad.softplus(ad.linear(tokens, params.w_delta, params.b_delta)))
    b_seq = ad.transpose(ad.linear(tokens, params.w_b))  # [state, L]
    c_seq = ad.transpose(ad.linear(tokens, params.w_c))
    state = params.a_log.shape[1]
    a = ad.neg(ad.exp(params.a_log))
    abar = ad.exp(
        ad.reshape(delta, (n, 1, length)) * ad.reshape(a, (n, state, 1))
    )
    if not (np.all(abar.data >= 0.0) and np.all(abar.data <= 1.0)):
        raise NumericError("s6_scan reference: discretized transition left [0, 1]")
    bu = (
        ad.reshape(delta, (n, 1, length))
        * ad.reshape(b_seq, (1, state, length))
        * ad.reshape(u, (n, 1, length))
    )
    h = ad.linear_scan(abar, bu, mode=mode)
    y = ad.tsum(h * ad.reshape(c_seq, (1, state, length)), axis=1)
    return y + ad.reshape(params.d_skip, (n, 1)) * u


def selective_scan_inputs(rng, channels=2, state=3, length=5):
    """Leaves u, delta > 0, a < 0, b, c for ad.selective_scan."""
    return [
        ad.Tensor(rng.standard_normal((channels, length)), requires_grad=True),
        ad.Tensor(rng.uniform(0.1, 1.0, size=(channels, length)), requires_grad=True),
        ad.Tensor(-rng.uniform(0.5, 2.0, size=(channels, state)), requires_grad=True),
        ad.Tensor(rng.standard_normal((state, length)), requires_grad=True),
        ad.Tensor(rng.standard_normal((state, length)), requires_grad=True),
    ]


def s6_output_and_grads(scan, u, params, weights, mode):
    """y and the gradients of <weights, y> for u and the six S6Params."""
    leaves = [u, params.a_log, params.w_delta, params.b_delta, params.w_b,
              params.w_c, params.d_skip]
    for t in leaves:
        t.grad = None
    with ad.Tape() as tape:
        y = scan(u, params, mode=mode)
        loss = ad.tsum(y * ad.Tensor(weights))
    tape.backward(loss)
    out = [y.data] + [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    return out


def s6_worst_vs_reference(scan, u, params, mode, seed=0):
    """Largest difference between scan and s6_scan_reference over y and all
    seven gradients, each relative to the reference's largest magnitude
    (floor 1)."""
    weights = np.random.default_rng(seed).standard_normal(u.shape)
    fused = s6_output_and_grads(scan, u, params, weights, mode)
    ref = s6_output_and_grads(s6_scan_reference, u, params, weights, mode)
    return max(
        float(np.max(np.abs(f - r))) / max(1.0, float(np.max(np.abs(r))))
        for f, r in zip(fused, ref)
    )


# ---------------------------------------------------------------------------
# micro model
# ---------------------------------------------------------------------------

MICRO_GEOMETRY = (4, 5, 6, 3, 8, 8)  # (C, T, F, D, H, W)


def micro_model_config(scan_mode="sequential"):
    return ModelConfig(
        geometry=MICRO_GEOMETRY,
        embed=4,
        heads=2,
        enc_stages=2,
        vss_blocks=1,
        state_dim=2,
        scan_mode=scan_mode,
    )


@pytest.fixture
def micro_model():
    return Model(micro_model_config(), seed=0)
