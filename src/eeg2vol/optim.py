"""AdamW with decoupled weight decay and global-norm gradient clipping, and
the hard-restart cosine schedule, each reading its settings from the run
Config."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError


def check_lr_floor(cfg):
    """The cosine schedule falls from lr to min_lr, so min_lr <= lr."""
    if cfg.min_lr > cfg.lr:
        raise ConfigError("min_lr must not exceed lr")


def lr_at(epoch, frac, cfg):
    """Cosine annealing from the run Config's lr to min_lr, with hard
    restarts every restart_period epochs.

    frac is the fractional progress through the epoch in [0, 1). The rate
    returns exactly to lr at every restart boundary.
    """
    check_lr_floor(cfg)
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    t = (epoch % cfg.restart_period + frac) / cfg.restart_period
    return cfg.min_lr + (cfg.lr - cfg.min_lr) * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Decoupled-weight-decay Adam over a named-parameter store, with the
    run Config's weight_decay, beta1, beta2, adam_eps and grad_clip."""

    def __init__(self, params, cfg):
        self.params = params  # dict name -> Tensor
        self.cfg = cfg
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self, lr):
        """Apply one update at rate lr from the gradients currently on the
        parameters.

        Parameters with no gradient are treated as zero-gradient (they still
        receive weight decay). A gradient that is non-finite, or whose
        squares overflow, rejects the whole step before any parameter
        changes: an infinite g * g would zero every Adam update. With
        grad_clip > 0, the gradients are scaled down together when their
        global L2 norm exceeds grad_clip, to that norm; a norm that
        overflows rejects the step too, as it would zero the clip factor.
        """
        max_norm = self.cfg.grad_clip
        total = 0.0  # squared norm, summed in store order
        with np.errstate(over="ignore"):  # an overflow is raised below instead
            for name, t in self.params.items():
                if t.grad is None:
                    continue
                sq = float(np.sum(t.grad * t.grad))
                if not math.isfinite(sq):
                    if not np.all(np.isfinite(t.grad)):
                        raise NumericError(f"non-finite gradient on {name}; step rejected")
                    raise NumericError(
                        f"squared gradient on {name} overflows float64; step rejected"
                    )
                total += sq
        if max_norm > 0 and not math.isfinite(total):
            raise NumericError("global gradient norm overflows float64; step rejected")
        norm = math.sqrt(total)
        clip = max_norm / norm if 0 < max_norm < norm else None
        self.step_count += 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        eps, weight_decay = self.cfg.adam_eps, self.cfg.weight_decay
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name, t in self.params.items():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            if clip is not None:
                g = g * clip
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            t.data = t.data - lr * (
                m_hat / (np.sqrt(v_hat) + eps) + weight_decay * t.data
            )

    def state_arrays(self):
        out = {}
        for name in self.params:
            out[f"moment1.{name}"] = self.m[name]
            out[f"moment2.{name}"] = self.v[name]
        return out

