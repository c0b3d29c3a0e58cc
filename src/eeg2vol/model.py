"""Full spectrogram-to-volume model: encoder + state-space U-Net decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dsp, s2vt
from .decoder import Decoder
from .encoder import Encoder
from .config import SCHEMA, coerce
from .errors import ConfigError, DataError, DimensionError
from .layers import ParamStore


# architecture keys shared by the run config, ModelConfig and checkpoint
# metadata; attention_dropout is training-only and stays out of checkpoints
ARCH_KEYS = ("embed", "heads", "enc_stages", "vss_blocks", "state_dim")


@dataclass
class ModelConfig:
    geometry: tuple  # (C, T, F, D, H, W)
    embed: int = SCHEMA["embed"][0]
    heads: int = SCHEMA["heads"][0]
    enc_stages: int = SCHEMA["enc_stages"][0]
    attention_dropout: float = SCHEMA["attention_dropout"][0]
    vss_blocks: int = SCHEMA["vss_blocks"][0]
    state_dim: int = SCHEMA["state_dim"][0]

    def __post_init__(self):
        self.geometry = g = tuple(self.geometry)
        # each extent is one of an S2VT file's
        if len(g) != 6 or not 1 <= min(g) <= max(g) <= s2vt.MAX_EXTENT:
            raise ConfigError(f"geometry {g} must list C T F D H W, each >= 1 and <= 2**32 - 1")
        self.geometry = tuple(coerce(k, v) for k, v in zip(dsp.GEOMETRY_KEYS, self.geometry))
        for key in ARCH_KEYS + ("attention_dropout",):
            setattr(self, key, coerce(key, getattr(self, key)))
        if self.embed % self.heads != 0:
            raise ConfigError(f"embed width {self.embed} not divisible by {self.heads} heads")
        h, w = self.geometry[4:]
        scale = 2**Decoder.LEVELS
        if h % scale or w % scale:
            raise ConfigError(
                f"plane {h}x{w} must be divisible by {scale} for "
                f"{Decoder.LEVELS} merge stages"
            )
        # the encoder keeps T and maps F to ceil(F/2) per stage, then pads onto the plane
        t, f = self.geometry[1:3]
        for _ in range(self.enc_stages):
            if f < 2:
                raise ConfigError(
                    f"f_bins = {self.geometry[2]} is too few for {self.enc_stages} "
                    "encoder stages: each needs >= 2 frequency bins to downsample"
                )
            f = (f + 1) // 2
        if t > h or f > w:
            raise ConfigError(f"encoded plane {t}x{f} exceeds target {h}x{w}")

    @classmethod
    def from_run_config(cls, cfg, geometry=None):
        if geometry is None:
            t, f = cfg.t_bins, cfg.f_bins
            if t == 0 or f == 0:
                t0, f0 = dsp.spectrogram_geometry(cfg.fs, cfg.tr, cfg)
                t, f = t or t0, f or f0  # derive only the count that is 0
            geometry = (cfg.channels, t, f, cfg.depth, cfg.height, cfg.width)
        return cls(geometry, attention_dropout=cfg.attention_dropout,
                   **{k: getattr(cfg, k) for k in ARCH_KEYS})


class Model:
    def __init__(self, mcfg, seed=0, arrays=None):
        """Parameters drawn from seed, or taken from checkpoint arrays."""
        self.cfg = mcfg
        rng = np.random.default_rng(seed)
        self.store = ParamStore(arrays)
        # the encoder draws its initial weights first, from the same rng
        self.encoder = Encoder(mcfg, rng, store=self.store)
        self.decoder = Decoder(mcfg, rng, store=self.store)

    def forward(self, x, rng=None):
        """[C, T, F] tensor -> [D, H, W] tensor in (0, 1).

        The input must have exactly the geometry's (C, T, F) shape. rng, when
        given, draws the attention-dropout masks (training).
        """
        if not isinstance(x, ad.Tensor):
            x = ad.Tensor(x)
        if x.shape != self.cfg.geometry[:3]:
            raise DimensionError(
                f"spectrogram shape {x.shape} does not match the model's "
                f"(C, T, F) {self.cfg.geometry[:3]}"
            )
        # the model runs channel-last; these are its only layout conversions
        tokens = ad.permute(x, (1, 2, 0))  # [T, F, C]
        volume = self.decoder.decode(self.encoder.encode(tokens, rng=rng))
        return ad.permute(volume, (2, 0, 1))  # [H, W, D] -> [D, H, W]

    def predict(self, x):
        """Inference without recording a tape; numpy in, numpy out.

        The volume is copied once the forward temporaries are freed, so the
        array a caller keeps takes memory those temporaries released instead
        of pinning the heap above them; a loop that keeps every prediction
        then reuses freed heap rather than growing it.
        """
        return self.forward(ad.Tensor(np.asarray(x))).data.copy()

    # checkpointing ----------------------------------------------------------

    def save(self, path, extra=None):
        meta = {"geometry": " ".join(str(v) for v in self.cfg.geometry)}
        meta.update((k, str(getattr(self.cfg, k))) for k in ARCH_KEYS)
        if extra:
            meta.update(extra)
        s2vt.save_checkpoint(path, self.store.named_arrays(), extra=meta)

    @classmethod
    def from_checkpoint(cls, path):
        """Rebuild a model from the checkpoint file path's recorded architecture."""
        params, extra = s2vt.load_checkpoint(path)
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
        model = cls(mcfg, arrays=params)
        unknown = sorted(set(params) - set(model.store.params))
        if unknown:
            raise DataError(f"checkpoint parameter {unknown[0]} is not a model parameter")
        return model
