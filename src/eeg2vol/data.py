"""Synthetic desk-scale data with a planted, learnable cross-modal link.

Each volume is a fixed smooth random projection of its spectrogram plus a
little noise, so a model (or a ridge regression) can recover the mapping.
Generation is fully deterministic per seed, down to the bytes on disk.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.ndimage

from .dsp import DatasetManifest, minmax_normalize, write_manifest, write_pairs

N_MODES = 3  # volume fields each spectrogram's projection mixes
NOISE = 0.01  # std of the i.i.d. voxel noise added before normalization


def _smooth_volume_modes(shape, rng):
    """Random low-frequency volume fields via truncated DCT spectra."""
    d, h, w = shape
    block = (min(d, 2), min(h, 3), min(w, 3))
    modes = []
    for _ in range(N_MODES):
        coeffs = np.zeros(shape)
        coeffs[: block[0], : block[1], : block[2]] = rng.standard_normal(block)
        field = scipy.fft.idctn(coeffs, type=2, norm="ortho")
        modes.append(field / np.abs(field).max())
    return np.stack(modes)


def synth_pair_stream(geometry, seed):
    """Infinite generator of (spectrogram [C,T,F], volume [D,H,W]) pairs."""
    c, t, f, d, h, w = geometry
    rng = np.random.default_rng(seed)
    basis = _smooth_volume_modes((d, h, w), rng)
    projection = rng.standard_normal((N_MODES, c * t * f)) / np.sqrt(c * t * f)
    while True:
        raw = rng.standard_normal((c, t, f))
        spec = minmax_normalize(
            scipy.ndimage.gaussian_filter(raw, sigma=(0.0, 1.0, 1.0))
        )
        z = projection @ spec.reshape(-1)
        vol = np.tensordot(z, basis, axes=1) + NOISE * rng.standard_normal((d, h, w))
        yield spec, minmax_normalize(vol)


def synth_dataset(
    geometry,
    n_subjects,
    pairs_per_subject,
    seed,
    out_dir,
    name="synth",
    fs=250.0,
    tr_s=2.16,
):
    """Write paired S2VT files plus a manifest under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = synth_pair_stream(geometry, seed)
    subjects = []
    for s in range(n_subjects):
        sid = f"sub{s:02d}"
        subjects.append((sid, write_pairs(out_dir, sid, islice(stream, pairs_per_subject))))
    manifest = DatasetManifest(
        name=name, fs=fs, tr_s=tr_s, geometry=tuple(geometry), subjects=subjects
    )
    write_manifest(out_dir / "manifest.txt", manifest)
    return manifest


def synth_raw_session(
    n_channels, n_samples, fs, n_volumes, vol_shape, seed, tr_s=2.0
):
    """Raw-signal stand-in for preprocessing tests: (channels, volume stack)."""
    rng = np.random.default_rng(seed)
    eeg = scipy.ndimage.gaussian_filter1d(
        rng.standard_normal((n_channels, n_samples)), sigma=3.0, axis=1
    )
    volumes = np.stack(
        [
            scipy.ndimage.gaussian_filter(rng.random(vol_shape), sigma=1.0)
            for _ in range(n_volumes)
        ]
    )
    return eeg, volumes
