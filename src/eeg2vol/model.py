"""Full spectrogram-to-volume model: encoder + state-space U-Net decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dsp, s2vt
from .decoder import Decoder, DecoderConfig
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, DataError
from .layers import ParamStore


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
        if len(self.geometry) != 6 or min(self.geometry) < 1:
            raise ConfigError(
                f"geometry {tuple(self.geometry)} must list C T F D H W, each >= 1"
            )

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
            geometry=tuple(geometry),
            embed=cfg.embed,
            heads=cfg.heads,
            enc_stages=cfg.enc_stages,
            attention_dropout=cfg.attention_dropout,
            vss_blocks=cfg.vss_blocks,
            state_dim=cfg.state_dim,
        )


class Model:
    def __init__(self, mcfg, seed=0):
        self.cfg = mcfg
        c, t, f, d, h, w = mcfg.geometry
        rng = np.random.default_rng(seed)
        self.store = ParamStore()
        self.encoder = Encoder(
            EncoderConfig(
                in_channels=c,
                embed=mcfg.embed,
                heads=mcfg.heads,
                num_stages=mcfg.enc_stages,
                target_plane=(h, w),
                attention_dropout=mcfg.attention_dropout,
            ),
            rng,
            store=self.store,
        )
        self.decoder = Decoder(
            DecoderConfig(
                in_channels=mcfg.embed,
                out_depth=d,
                plane=(h, w),
                blocks_per_stage=mcfg.vss_blocks,
                state_dim=mcfg.state_dim,
            ),
            rng,
            store=self.store,
        )

    def forward(self, x, train=False, rng=None):
        """[C, T, F] tensor -> [D, H, W] tensor in (0, 1)."""
        if not isinstance(x, ad.Tensor):
            x = ad.Tensor(x)
        return self.decoder.decode(self.encoder.encode(x, train=train, rng=rng))

    def predict(self, x):
        """Inference without recording a tape; numpy in, numpy out.

        The volume is copied once the forward temporaries are freed, so the
        array a caller keeps takes memory those temporaries released instead
        of pinning the heap above them; a loop that keeps every prediction
        then reuses freed heap rather than growing it.
        """
        return self.forward(ad.Tensor(np.asarray(x))).data.copy()

    # checkpointing ----------------------------------------------------------

    def checkpoint_extra(self):
        g = self.cfg.geometry
        return {
            "geometry": " ".join(str(v) for v in g),
            "embed": str(self.cfg.embed),
            "heads": str(self.cfg.heads),
            "enc_stages": str(self.cfg.enc_stages),
            "vss_blocks": str(self.cfg.vss_blocks),
            "state_dim": str(self.cfg.state_dim),
        }

    def save(self, directory, extra=None):
        meta = self.checkpoint_extra()
        if extra:
            meta.update(extra)
        s2vt.save_checkpoint(directory, self.store.named_arrays(), extra=meta)

    @classmethod
    def from_checkpoint(cls, directory):
        """Rebuild a model from a checkpoint's recorded architecture."""
        params, extra = s2vt.load_checkpoint(directory)
        try:
            mcfg = ModelConfig(
                geometry=tuple(int(v) for v in extra["geometry"].split()),
                embed=int(extra["embed"]),
                heads=int(extra["heads"]),
                enc_stages=int(extra["enc_stages"]),
                vss_blocks=int(extra["vss_blocks"]),
                state_dim=int(extra["state_dim"]),
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
