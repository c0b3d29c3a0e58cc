"""Full spectrogram-to-volume model: encoder + state-space U-Net decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dsp, s2vt
from .decoder import Decoder
from .encoder import Encoder
from .errors import ConfigError, DataError
from .layers import ParamStore


# architecture keys shared by the run config, ModelConfig and checkpoint
# metadata; attention_dropout is training-only and stays out of checkpoints
ARCH_KEYS = ("embed", "heads", "enc_stages", "vss_blocks", "state_dim")


@dataclass
class ModelConfig:
    geometry: tuple  # (C, T, F, D, H, W)
    embed: int = 32
    heads: int = 4
    enc_stages: int = 2
    attention_dropout: float = 0.0
    vss_blocks: int = 2
    state_dim: int = 8

    def __post_init__(self):
        self.geometry = tuple(self.geometry)
        if len(self.geometry) != 6 or min(self.geometry) < 1:
            raise ConfigError(
                f"geometry {self.geometry} must list C T F D H W, each >= 1"
            )
        if self.heads < 1 or self.embed < 1:
            raise ConfigError("embed width and heads must be >= 1")
        if self.embed % self.heads != 0:
            raise ConfigError(
                f"embed width {self.embed} not divisible by {self.heads} heads"
            )
        if self.enc_stages < 1:
            raise ConfigError("encoder needs at least one stage")
        if not 0.0 <= self.attention_dropout < 1.0:
            raise ConfigError("attention_dropout must lie in [0, 1)")
        h, w = self.geometry[4:]
        if h % 4 or w % 4:
            raise ConfigError(
                f"plane {h}x{w} must be divisible by 4 for two merge stages"
            )
        if self.vss_blocks < 1 or self.state_dim < 1:
            raise ConfigError("vss_blocks and state_dim must be >= 1")

    @classmethod
    def from_run_config(cls, cfg, geometry=None):
        if geometry is None:
            t, f = cfg.t_bins, cfg.f_bins
            if t == 0 or f == 0:
                frame = cfg.frame_len or dsp.default_stft_params(cfg.fs)[0]
                hop = cfg.hop or frame // 2
                if cfg.pairing_mode == "lag":
                    n_samples = int(round(cfg.span_s * cfg.fs))
                else:
                    n_samples = int(round(cfg.fs * cfg.tr))
                t, f = dsp.spectrogram_geometry(n_samples, cfg.fs, frame, hop, cfg.cutoff_hz)
            geometry = (cfg.channels, t, f, cfg.depth, cfg.height, cfg.width)
        return cls(
            geometry,
            attention_dropout=cfg.attention_dropout,
            **{k: getattr(cfg, k) for k in ARCH_KEYS},
        )


class Model:
    def __init__(self, mcfg, seed=0):
        self.cfg = mcfg
        rng = np.random.default_rng(seed)
        self.store = ParamStore()
        # the encoder draws its initial weights first, from the same rng
        self.encoder = Encoder(mcfg, rng, store=self.store)
        self.decoder = Decoder(mcfg, rng, store=self.store)

    def forward(self, x, rng=None):
        """[C, T, F] tensor -> [D, H, W] tensor in (0, 1).

        rng, when given, draws the attention-dropout masks (training).
        """
        if not isinstance(x, ad.Tensor):
            x = ad.Tensor(x)
        return self.decoder.decode(self.encoder.encode(x, rng=rng))

    def predict(self, x):
        """Inference without recording a tape; numpy in, numpy out.

        The volume is copied once the forward temporaries are freed, so the
        array a caller keeps takes memory those temporaries released instead
        of pinning the heap above them; a loop that keeps every prediction
        then reuses freed heap rather than growing it.
        """
        return self.forward(ad.Tensor(np.asarray(x))).data.copy()

    # checkpointing ----------------------------------------------------------

    def save(self, directory, extra=None):
        meta = {"geometry": " ".join(str(v) for v in self.cfg.geometry)}
        meta.update((k, str(getattr(self.cfg, k))) for k in ARCH_KEYS)
        if extra:
            meta.update(extra)
        s2vt.save_checkpoint(directory, self.store.named_arrays(), extra=meta)

    @classmethod
    def from_checkpoint(cls, directory):
        """Rebuild a model from a checkpoint's recorded architecture."""
        params, extra = s2vt.load_checkpoint(directory)
        try:
            mcfg = ModelConfig(
                tuple(int(v) for v in extra["geometry"].split()),
                **{k: int(extra[k]) for k in ARCH_KEYS},
            )
        except KeyError as exc:
            raise DataError(f"checkpoint index missing metadata {exc}") from exc
        except ValueError as exc:
            raise DataError(f"checkpoint metadata is not a number: {exc}") from exc
        except ConfigError as exc:
            raise DataError(f"checkpoint metadata rejected: {exc}") from exc
        model = cls(mcfg)
        model.store.load_arrays(params)
        return model
