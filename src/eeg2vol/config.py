"""Flat run configuration: one documented schema, `key = value` files, and
`--set key=value` overrides. Unknown keys are rejected with the valid list,
and every value is checked against its key's domain when it is set."""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError, read_text

# key -> (default, type, domain, help); a domain is a DOMAINS key or a tuple
# of choices
SCHEMA = {
    # data / geometry
    "dataset": ("synth", str, "one line", "dataset name recorded in manifests and logs"),
    "channels": (64, int, ">= 1", "EEG channel count C"),
    "t_bins": (0, int, ">= 0", "spectrogram time bins T (0 = derive from fs/tr/stft)"),
    "f_bins": (0, int, ">= 0", "spectrogram frequency bins F (0 = derive)"),
    "depth": (30, int, ">= 1", "volume depth D"),
    "height": (64, int, ">= 1", "volume height H"),
    "width": (64, int, ">= 1", "volume width W"),
    "fs": (250.0, float, "> 0", "EEG sampling rate in Hz"),
    "tr": (2.16, float, "> 0", "fMRI repetition time in seconds"),
    "frame_len": (0, int, ">= 0", "STFT frame length in samples (0 = fs/5 rounded even)"),
    "hop": (0, int, ">= 0", "STFT hop in samples (0 = frame/2)"),
    "cutoff_hz": (250.0, float, ">= 0", "spectrogram band-limit cutoff"),
    "pairing_mode": ("tr", str, ("tr", "lag"), "EEG/volume pairing"),
    "span_s": (20.0, float, "> 0", "lag-mode window span in seconds"),
    "lag_s": (6.0, float, ">= 0", "lag-mode window end offset before each BOLD slice"),
    "volume_target": ("", str, "'D H W' or ''", "optional DCT down-sample target"),
    # model
    "embed": (32, int, ">= 1", "encoder embedding width N"),
    "heads": (4, int, ">= 1", "attention heads"),
    "enc_stages": (2, int, ">= 1", "encoder stage count"),
    "attention_dropout": (0.0, float, "[0, 1)", "attention weight dropout probability"),
    "vss_blocks": (2, int, ">= 1", "state-space blocks per U-Net stage"),
    "state_dim": (8, int, ">= 1", "state dimension S of the selective scan"),
    # loss / metrics
    "lambda1": (0.5, float, ">= 0", "weight of the structural (1 - SSIM) term"),
    "lambda2": (0.5, float, ">= 0", "weight of the MSE term"),
    "ssim_window": (7, int, "odd >= 1", "SSIM sliding window extent"),
    "ssim_c1": (1e-4, float, "> 0", "SSIM stabilizer c1"),
    "ssim_c2": (9e-4, float, "> 0", "SSIM stabilizer c2"),
    "ssim_aggregation": ("sliding-mean", str, ("sliding-mean", "global"), "SSIM mode"),
    # optimization
    "lr": (1e-3, float, "> 0", "initial learning rate"),
    "weight_decay": (1e-2, float, ">= 0", "decoupled weight decay"),
    "beta1": (0.9, float, "[0, 1)", "Adam first-moment decay"),
    "beta2": (0.999, float, "[0, 1)", "Adam second-moment decay"),
    "adam_eps": (1e-8, float, "> 0", "Adam denominator epsilon"),
    "epochs": (50, int, ">= 1", "training epochs"),
    "batch_size": (16, int, ">= 1", "mini-batch size"),
    "restart_period": (10, int, ">= 1", "cosine hard-restart period in epochs"),
    "min_lr": (0.0, float, ">= 0", "cosine schedule floor"),
    "grad_clip": (0.0, float, ">= 0", "global gradient-norm clip (0 = off)"),
    # protocol
    "split_mode": ("loso", str, ("loso", "fixed"), "train/test split"),
    "k_train": (16, int, ">= 1", "fixed-split training subjects"),
    "k_test": (4, int, ">= 1", "fixed-split test subjects"),
    "fold": (0, int, ">= 0", "which split fold to train/evaluate"),
    "seed": (0, int, ">= 0", "RNG seed"),
    "workers": (1, int, (1,), "sample workers"),
}

# domain -> (test, what a value must do)
DOMAINS = {
    ">= 0": (lambda v: v >= 0, "be >= 0"),
    "> 0": (lambda v: v > 0, "be > 0"),
    ">= 1": (lambda v: v >= 1, "be >= 1"),
    "[0, 1)": (lambda v: 0 <= v < 1, "lie in [0, 1)"),
    "odd >= 1": (lambda v: v >= 1 and v % 2 == 1, "be odd >= 1"),
    "one line": (lambda v: "".join(v.splitlines()) == v, "hold no line break"),
    "'D H W' or ''": (lambda v: len(v.split()) in (0, 3)
                      and all(f.isdecimal() and int(f) >= 1 for f in v.split()),
                      "be 'D H W', three integers >= 1, or empty"),
}


def _rule(domain):
    """(test, what a value must do) for a SCHEMA domain."""
    if isinstance(domain, tuple):
        return (lambda v: v in domain), "be one of " + " | ".join(map(str, domain))
    return DOMAINS[domain]


def check(key, value):
    """Raise ConfigError, naming key and its domain, if value lies outside
    key's SCHEMA domain or is a non-finite float."""
    test, rule = _rule(SCHEMA[key][2])
    finite = not isinstance(value, float) or math.isfinite(value)
    if not (finite and test(value)):
        rule = rule if finite else "be finite and " + rule.removeprefix("be ")
        raise ConfigError(f"{key} = {value!r}: must {rule}")


def coerce(key, raw):
    """raw as key's SCHEMA type, checked as `check` does. Strings parse; a
    bool is not a number, and an int key takes a float only if it is whole,
    so nothing is truncated."""
    typ = SCHEMA[key][1]
    if typ is not str and (isinstance(raw, bool) or (
            typ is int and isinstance(raw, float) and not raw.is_integer())):
        raise ConfigError(f"config key {key} expects {typ.__name__}, got {raw!r}")
    try:
        value = typ(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key} expects {typ.__name__}: {exc}") from exc
    check(key, value)
    return value


class Config:
    def __init__(self, values=None):
        self._values = {k: v[0] for k, v in SCHEMA.items()}
        if values:
            for k, v in values.items():
                self.set(k, v)

    def set(self, key, raw):
        if key not in SCHEMA:
            valid = ", ".join(sorted(SCHEMA))
            raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
        self._values[key] = coerce(key, raw)

    def __getattr__(self, key):
        try:
            return self.__dict__["_values"][key]
        except KeyError:
            raise AttributeError(key) from None

    def items(self):
        return self._values.items()

    def volume_target_tuple(self):
        return tuple(int(v) for v in self._values["volume_target"].split()) or None

    @classmethod
    def load(cls, path=None, overrides=()):
        cfg = cls()
        if path is not None:
            p, seen = Path(path), set()
            for raw in read_text(p, "config file", ConfigError).splitlines():
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{p}: expected 'key = value', got {raw!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                if key in seen:
                    raise ConfigError(f"{p}: config key {key!r} set twice, again in {raw!r}")
                seen.add(key)
                cfg.set(key, value)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, value = (s.strip() for s in item.split("=", 1))
            cfg.set(key, value)
        return cfg


def schema_help():
    lines = []
    for key, (default, _typ, domain, help_text) in SCHEMA.items():
        rule = _rule(domain)[1]
        lines.append(f"  {key:<18} {help_text} (must {rule}; default: {default})")
    return "\n".join(lines)
