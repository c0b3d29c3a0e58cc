"""AdamW with decoupled weight decay, the hard-restart cosine schedule, and
train/test split planning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError


@dataclass
class ScheduleConfig:
    base_lr: float = 1e-3
    restart_period_epochs: int = 10
    min_lr: float = 0.0
    total_epochs: int = 50

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ConfigError("training needs at least 1 epoch")
        if self.restart_period_epochs < 1:
            raise ConfigError("restart period must be >= 1 epoch")
        if self.min_lr > self.base_lr:
            raise ConfigError("min_lr must not exceed base_lr")


def lr_at(epoch, frac, cfg):
    """Cosine annealing with hard restarts every restart_period_epochs.

    frac is the fractional progress through the epoch in [0, 1). The rate
    returns exactly to base_lr at every restart boundary.
    """
    if not 0 <= epoch < cfg.total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.total_epochs})")
    t = (epoch % cfg.restart_period_epochs + frac) / cfg.restart_period_epochs
    return cfg.min_lr + (cfg.base_lr - cfg.min_lr) * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Decoupled-weight-decay Adam over a named-parameter store."""

    def __init__(self, params, lr=1e-3, weight_decay=1e-2, betas=(0.9, 0.999), eps=1e-8):
        if not all(0.0 <= b < 1.0 for b in betas):
            raise ConfigError(f"Adam betas {tuple(betas)} must lie in [0, 1)")
        self.params = params  # dict name -> Tensor
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self, lr=None):
        """Apply one update from the gradients currently on the parameters.

        Parameters with no gradient are treated as zero-gradient (they still
        receive weight decay). Non-finite gradients reject the whole step.
        """
        lr = self.lr if lr is None else lr
        for name, t in self.params.items():
            if t.grad is not None and not np.all(np.isfinite(t.grad)):
                raise NumericError(f"non-finite gradient on {name}; step rejected")
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name, t in self.params.items():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            t.data = t.data - lr * (
                m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * t.data
            )

    def state_arrays(self):
        out = {}
        for name in self.params:
            out[f"moment1.{name}"] = self.m[name]
            out[f"moment2.{name}"] = self.v[name]
        return out


@dataclass
class SplitPlan:
    mode: str  # "loso" | "fixed"
    folds: list = field(default_factory=list)  # (train_ids, test_ids)


def make_splits(manifest, mode="loso", k_train=None, k_test=None, seed=0):
    """LOSO gives one fold per subject; fixed gives one seeded k/k split."""
    subjects = sorted(manifest.subject_ids)
    if len(subjects) < 2:
        raise ConfigError("need at least two subjects to build splits")
    if mode == "loso":
        folds = [
            ([s for s in subjects if s != held_out], [held_out])
            for held_out in subjects
        ]
        return SplitPlan("loso", folds)
    if mode == "fixed":
        if k_train is None or k_test is None:
            raise ConfigError("fixed split needs k_train and k_test")
        if k_train + k_test > len(subjects):
            raise ConfigError(
                f"{k_train}+{k_test} subjects requested, only {len(subjects)} available"
            )
        order = list(subjects)
        np.random.default_rng(seed).shuffle(order)
        return SplitPlan("fixed", [(sorted(order[:k_train]), sorted(order[k_train : k_train + k_test]))])
    raise ConfigError(f"unknown split mode {mode!r}")
