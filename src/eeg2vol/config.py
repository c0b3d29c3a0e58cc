"""Flat run configuration: one documented schema, `key = value` files, and
`--set key=value` overrides. Unknown keys are rejected with the valid list."""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

# key -> (default, type, help)
SCHEMA = {
    # data / geometry
    "dataset": ("synth", str, "dataset name recorded in manifests and logs"),
    "channels": (64, int, "EEG channel count C"),
    "t_bins": (0, int, "spectrogram time bins T (0 = derive from fs/tr/stft)"),
    "f_bins": (0, int, "spectrogram frequency bins F (0 = derive)"),
    "depth": (30, int, "volume depth D"),
    "height": (64, int, "volume height H"),
    "width": (64, int, "volume width W"),
    "fs": (250.0, float, "EEG sampling rate in Hz"),
    "tr": (2.16, float, "fMRI repetition time in seconds"),
    "frame_len": (0, int, "STFT frame length in samples (0 = fs/5 rounded even)"),
    "hop": (0, int, "STFT hop in samples (0 = frame/2)"),
    "cutoff_hz": (250.0, float, "spectrogram band-limit cutoff"),
    "pairing_mode": ("tr", str, "EEG/volume pairing: tr | lag"),
    "span_s": (20.0, float, "lag-mode window span in seconds"),
    "lag_s": (6.0, float, "lag-mode window end offset before each BOLD slice"),
    "volume_target": ("", str, "optional DCT down-sample target 'D H W'"),
    # model
    "embed": (32, int, "encoder embedding width N"),
    "heads": (4, int, "attention heads"),
    "enc_stages": (2, int, "encoder stage count"),
    "attention_dropout": (0.0, float, "attention weight dropout probability"),
    "vss_blocks": (2, int, "state-space blocks per U-Net stage"),
    "state_dim": (8, int, "state dimension S of the selective scan"),
    # loss / metrics
    "lambda1": (0.5, float, "weight of the structural (1 - SSIM) term"),
    "lambda2": (0.5, float, "weight of the MSE term"),
    "ssim_window": (7, int, "SSIM sliding window extent (odd)"),
    "ssim_c1": (1e-4, float, "SSIM stabilizer c1"),
    "ssim_c2": (9e-4, float, "SSIM stabilizer c2"),
    "ssim_aggregation": ("sliding-mean", str, "SSIM mode: sliding-mean | global"),
    # optimization
    "lr": (1e-3, float, "initial learning rate"),
    "weight_decay": (1e-2, float, "decoupled weight decay"),
    "beta1": (0.9, float, "Adam first-moment decay"),
    "beta2": (0.999, float, "Adam second-moment decay"),
    "adam_eps": (1e-8, float, "Adam denominator epsilon"),
    "epochs": (50, int, "training epochs"),
    "batch_size": (16, int, "mini-batch size"),
    "restart_period": (10, int, "cosine hard-restart period in epochs"),
    "min_lr": (0.0, float, "cosine schedule floor"),
    "grad_clip": (0.0, float, "global gradient-norm clip (0 = off)"),
    # protocol
    "split_mode": ("loso", str, "train/test split: loso | fixed"),
    "k_train": (16, int, "fixed-split training subjects"),
    "k_test": (4, int, "fixed-split test subjects"),
    "fold": (0, int, "which split fold to train/evaluate"),
    "seed": (0, int, "RNG seed"),
    "workers": (1, int, "sample workers; only 1 is supported"),
}


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
        _default, typ, _help = SCHEMA[key]
        try:
            self._values[key] = typ(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key} expects {typ.__name__}: {exc}") from exc

    def __getattr__(self, key):
        try:
            return self.__dict__["_values"][key]
        except KeyError:
            raise AttributeError(key) from None

    def items(self):
        return self._values.items()

    def volume_target_tuple(self):
        raw = self._values["volume_target"].split()
        if not raw:
            return None
        if len(raw) != 3:
            raise ConfigError("volume_target must be 'D H W'")
        return tuple(int(v) for v in raw)

    @classmethod
    def load(cls, path=None, overrides=()):
        cfg = cls()
        if path is not None:
            p = Path(path)
            if not p.exists():
                raise ConfigError(f"config file not found: {p}")
            for raw in p.read_text().splitlines():
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{p}: expected 'key = value', got {raw!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                cfg.set(key, value)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, value = (s.strip() for s in item.split("=", 1))
            cfg.set(key, value)
        return cfg


def schema_help():
    lines = []
    for key, (default, _typ, help_text) in SCHEMA.items():
        lines.append(f"  {key:<18} {help_text} (default: {default})")
    return "\n".join(lines)
