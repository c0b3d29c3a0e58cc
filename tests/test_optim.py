"""Optimizer, learning-rate schedule, and split planning."""

import math
import warnings

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.config import Config
from eeg2vol.dsp import DatasetManifest
from eeg2vol.errors import ConfigError, NumericError
from eeg2vol.optim import AdamW, lr_at
from eeg2vol.train import split_for


def manifest_with_subjects(n):
    return DatasetManifest(
        name="demo",
        fs=250.0,
        tr_s=2.16,
        geometry=(2, 20, 25, 3, 8, 8),
        subjects=[(f"s{i:02d}", [("a", "b")]) for i in range(n)],
    )


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_zero_grads_zero_decay_is_identity():
    w = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = AdamW({"w": w}, Config({"weight_decay": 0.0}))
    before = w.data.copy()
    opt.step(1e-3)
    np.testing.assert_array_equal(w.data, before)


def test_pure_decoupled_decay_factor():
    w = ad.Tensor(np.array([2.0, -4.0]), requires_grad=True)
    opt = AdamW({"w": w}, Config({"weight_decay": 1e-2}))
    before = w.data.copy()
    opt.step(1e-3)
    np.testing.assert_allclose(w.data, before * (1.0 - 1e-5), rtol=1e-15)


def run_quadratic(opt, w, steps=500):
    for _ in range(steps):
        w.grad = None
        with ad.Tape() as tape:
            residual = ad.sub(w, ad.Tensor(3.0))
            tape.backward(residual * residual)
        opt.step(1e-2)
    return float(w.data)


def test_quadratic_matches_scalar_recurrence_exactly():
    """Default betas: our update equals the hand-rolled recurrence bit-for-bit."""
    w = ad.Tensor(0.0, requires_grad=True)
    got = run_quadratic(AdamW({"w": w}, Config({"weight_decay": 0.0})), w)
    ref = m = v = 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    for t in range(1, 501):
        g = 2.0 * (ref - 3.0)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        ref -= lr * (m / (1.0 - b1**t)) / (math.sqrt(v / (1.0 - b2**t)) + eps)
    assert got == ref


def test_quadratic_convergence():
    # beta2's long gradient memory makes the default-betas approach slow;
    # a shorter second-moment horizon converges well inside the budget
    w = ad.Tensor(0.0, requires_grad=True)
    opt = AdamW({"w": w}, Config({"weight_decay": 0.0, "beta1": 0.9, "beta2": 0.9}))
    got = run_quadratic(opt, w)
    assert abs(got - 3.0) < 1e-2


def test_nonfinite_gradient_rejects_step():
    w = ad.Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"w": w}, Config())
    w.grad = np.array([np.nan])
    before = w.data.copy()
    with pytest.raises(NumericError, match="w"):
        opt.step(1e-3)
    np.testing.assert_array_equal(w.data, before)


@pytest.mark.parametrize("grad_clip", [0.0, 0.05])
def test_overflowing_squared_gradient_rejects_step(grad_clip):
    """A finite gradient whose square overflows would make every Adam
    update 0 (and, clipped, the clip factor 0): the step is rejected, with
    no numpy warning, before any parameter or moment changes."""
    a = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = ad.Tensor(np.array([0.5]), requires_grad=True)
    a.grad, b.grad = np.array([0.1, -0.2]), np.array([1e200])
    opt = AdamW({"a": a, "b": b}, Config({"grad_clip": grad_clip}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="squared gradient on b overflows"):
            opt.step(1e-3)
    np.testing.assert_array_equal(a.data, [1.0, -2.0])
    np.testing.assert_array_equal(b.data, [0.5])
    assert opt.step_count == 0
    assert not any(np.any(m) for m in opt.state_arrays().values())


def test_overflowing_global_norm_rejects_clipped_step():
    """Squares that are finite one by one but whose sum overflows would make
    the clip factor 0; unclipped, the step does not use that sum and runs."""
    for grad_clip in (0.05, 0.0):
        a = ad.Tensor(np.array([1.0]), requires_grad=True)
        b = ad.Tensor(np.array([0.5]), requires_grad=True)
        a.grad, b.grad = np.array([1e154]), np.array([-1e154])
        opt = AdamW({"a": a, "b": b}, Config({"grad_clip": grad_clip, "weight_decay": 0.0}))
        if grad_clip:
            with pytest.raises(NumericError, match="global gradient norm overflows"):
                opt.step(1e-3)
            assert a.data[0] == 1.0 and b.data[0] == 0.5
        else:
            opt.step(1e-3)
            assert a.data[0] < 1.0 and b.data[0] > 0.5


def test_grad_clip_scales_to_the_global_norm():
    """Over grad_clip, every gradient is scaled by grad_clip / global norm
    before the first AdamW update is taken from it. A large adam_eps makes
    that update depend on the gradient's scale, not only on its sign."""
    a = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    b = ad.Tensor(np.array([0.5]), requires_grad=True)
    a.grad, b.grad = np.array([3.0, 0.0]), np.array([-4.0])
    opt = AdamW({"a": a, "b": b}, Config({"weight_decay": 0.0, "grad_clip": 0.5, "adam_eps": 1.0}))
    opt.step(1e-3)
    scale = 0.5 / 5.0  # the global norm is sqrt(3**2 + 4**2)
    b1, b2, eps, lr = 0.9, 0.999, 1.0, 1e-3
    for w, before, g in ((a, [1.0, -2.0], [3.0, 0.0]), (b, [0.5], [-4.0])):
        g = np.array(g) * scale
        m_hat = (1.0 - b1) * g / (1.0 - b1)
        v_hat = (1.0 - b2) * g * g / (1.0 - b2)
        want = np.array(before) - lr * (m_hat / (np.sqrt(v_hat) + eps))
        np.testing.assert_array_equal(w.data, want)


def test_moment_state_shapes():
    w = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = AdamW({"layer.w": w}, Config())
    state = opt.state_arrays()
    assert state["moment1.layer.w"].shape == (2, 3)
    assert state["moment2.layer.w"].shape == (2, 3)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_restart_boundaries_exact():
    cfg = Config()
    for epoch in (0, 10, 20, 30, 40):
        assert lr_at(epoch, 0.0, cfg) == 1e-3


def test_lr_midpoints():
    cfg = Config()
    for epoch in (5, 15, 25, 35, 45):
        assert abs(lr_at(epoch, 0.0, cfg) - 5e-4) < 1e-12


def test_lr_bounds_and_continuity():
    cfg = Config({"lr": 1e-3, "min_lr": 1e-5})
    values = [lr_at(e, f, cfg) for e in range(10) for f in (0.0, 0.25, 0.5, 0.75)]
    assert all(1e-5 <= v <= 1e-3 for v in values)
    # continuity within a period: adjacent samples change smoothly
    deltas = np.abs(np.diff(values))
    assert deltas.max() < 1e-4


def test_lr_epoch_out_of_range():
    cfg = Config({"epochs": 50})
    with pytest.raises(ConfigError):
        lr_at(50, 0.0, cfg)
    with pytest.raises(ConfigError):
        lr_at(-1, 0.0, cfg)


def test_schedule_config_validation():
    with pytest.raises(ConfigError, match="restart_period"):
        Config({"restart_period": 0})
    with pytest.raises(ConfigError, match="min_lr must not exceed lr"):
        lr_at(0, 0.0, Config({"lr": 1e-4, "min_lr": 1e-3}))
    assert lr_at(0, 0.0, Config({"lr": 1e-3, "min_lr": 1e-3})) == 1e-3


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def fixed_split(k_train, k_test, seed, fold=0):
    return Config({"split_mode": "fixed", "k_train": k_train, "k_test": k_test,
                   "seed": seed, "fold": fold})


def test_loso_15_subjects():
    manifest = manifest_with_subjects(15)
    folds = [split_for(Config({"split_mode": "loso", "fold": i}), manifest)
             for i in range(15)]
    all_subjects = set(manifest.subject_ids)
    for train, test in folds:
        assert len(test) == 1
        assert set(train) | set(test) == all_subjects
        assert not set(train) & set(test)
    held_out = [t[0] for _, t in folds]
    assert held_out == sorted(all_subjects)


def test_fixed_16_4_split():
    train, test = split_for(fixed_split(16, 4, seed=3), manifest_with_subjects(20))
    assert len(train) == 16 and len(test) == 4
    assert not set(train) & set(test)


def test_fixed_split_deterministic_per_seed():
    a = split_for(fixed_split(5, 3, seed=1), manifest_with_subjects(8))
    b = split_for(fixed_split(5, 3, seed=1), manifest_with_subjects(8))
    c = split_for(fixed_split(5, 3, seed=2), manifest_with_subjects(8))
    assert a == b
    assert a != c


def test_split_errors():
    """Too few subjects, then too few for the fixed split, then a fold
    outside the split's folds: checked in that order."""
    with pytest.raises(ConfigError, match="^need at least two subjects to build splits$"):
        split_for(Config({"split_mode": "loso", "fold": 5}), manifest_with_subjects(1))
    with pytest.raises(ConfigError, match=r"^3\+2 subjects requested, only 4 available$"):
        split_for(fixed_split(3, 2, seed=0, fold=1), manifest_with_subjects(4))
    with pytest.raises(ConfigError, match=r"^fold 4 outside 0\.\.3$"):
        split_for(Config({"split_mode": "loso", "fold": 4}), manifest_with_subjects(4))
    with pytest.raises(ConfigError, match=r"^fold 1 outside 0\.\.0$"):
        split_for(fixed_split(3, 1, seed=0, fold=1), manifest_with_subjects(4))
