"""Synthetic desk-scale data with a planted, learnable cross-modal link.

Each volume is a fixed smooth random projection of its spectrogram plus a
little noise, so a model (or a ridge regression) can recover the mapping.
Generation is fully deterministic per seed, down to the bytes on disk.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path

import numpy as np

from .dsp import (
    DatasetManifest, apply_per_axis, dct_matrix, minmax_normalize, write_manifest, write_pairs,
)

N_MODES = 3  # volume fields each spectrogram's projection mixes
NOISE = 0.01  # std of the i.i.d. voxel noise added before normalization
# elements of one block the Gaussian filters run through at a time, so the
# passes over it stay in cache: 256 KB of float64
FILTER_BLOCK = 1 << 15


def gaussian_filter1d(x, sigma, axis=-1):
    """x blurred along axis as ndimage's gaussian_filter1d blurs it at its
    defaults, bit for bit: the taps exp(-t^2 / 2 sigma^2) over |t| <=
    int(4 sigma + 0.5), divided by their sum; each line extended by
    reflection (d c b a | a b c d | d c b a, repeated for lines shorter than
    the radius); and each output the centre tap times its weight plus
    (left + right) * weight for each pair of taps, outermost pair first."""
    x = np.asarray(x, dtype=np.float64)
    radius = int(4.0 * float(sigma) + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = weights / weights.sum()
    axis %= x.ndim
    n = x.shape[axis]
    q = np.arange(-radius, n + radius) % (2 * n)
    reflected = np.where(q < n, q, 2 * n - 1 - q)
    lead = (slice(None),) * axis
    out = np.empty_like(x)
    # blocks along another axis, each extended and filtered on its own
    if x.ndim == 1:
        blocks = [()]
    else:
        b = 1 if axis == 0 else 0
        step = max(1, FILTER_BLOCK * x.shape[b] // max(x.size, 1))
        blocks = [(slice(None),) * b + (slice(i, i + step),) for i in range(0, x.shape[b], step)]
    for block in blocks:
        ext = np.take(x[block], reflected, axis=axis)
        tap = lambda offset: ext[lead + (slice(radius + offset, radius + offset + n),)]
        acc = out[block]
        np.multiply(tap(0), weights[radius], out=acc)
        pair = np.empty(acc.shape)
        for j in range(radius):
            np.add(tap(j - radius), tap(radius - j), out=pair)
            pair *= weights[j]
            acc += pair
    return out


def gaussian_filter(x, sigma):
    """x blurred as ndimage's gaussian_filter blurs it at its defaults, bit
    for bit: gaussian_filter1d along each axis in order, sigma one value or
    one per axis; an axis whose sigma is <= 1e-15 is left as it is."""
    x = np.asarray(x, dtype=np.float64)
    for axis, s in enumerate(np.broadcast_to(np.asarray(sigma, dtype=np.float64), (x.ndim,))):
        if s > 1e-15:
            x = gaussian_filter1d(x, s, axis)
    return x


def _smooth_volume_modes(shape, rng):
    """Random low-frequency volume fields via truncated DCT spectra."""
    block = (min(shape[0], 2), min(shape[1], 3), min(shape[2], 3))
    # the inverse DCT of a spectrum zero outside block: the first columns of C.T
    inverse = [dct_matrix(n).T[:, :k] for n, k in zip(shape, block)]
    modes = []
    for _ in range(N_MODES):
        field = apply_per_axis(rng.standard_normal(block), inverse)
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
        spec = minmax_normalize(gaussian_filter(raw, sigma=(0.0, 1.0, 1.0)))
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
    eeg = gaussian_filter1d(rng.standard_normal((n_channels, n_samples)), sigma=3.0, axis=1)
    volumes = np.stack(
        [gaussian_filter(rng.random(vol_shape), sigma=1.0) for _ in range(n_volumes)]
    )
    return eeg, volumes
