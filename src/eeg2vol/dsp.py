"""EEG/volume preprocessing: windowing, STFT, band limiting, normalization,
DCT down-sampling, and pairing into aligned training samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check
from .errors import ConfigError, DataError, DimensionError, read_text
from . import s2vt

# run-config keys of the six DatasetManifest.geometry entries, in that order
GEOMETRY_KEYS = ("channels", "t_bins", "f_bins", "depth", "height", "width")
# run-config keys a dataset manifest fixes: train reads them from the
# manifest and preprocess from the raw manifest and its files
MANIFEST_KEYS = ("dataset", "fs", "tr") + GEOMETRY_KEYS
# run-config keys of the preprocessing recipe, whose effect the files a
# dataset manifest lists already fix
RECIPE_KEYS = ("frame_len", "hop", "cutoff_hz", "pairing_mode", "span_s", "lag_s", "volume_target")


@dataclass
class EegRecording:
    """Multi-channel EEG in microvolts, one row per channel."""

    channels: np.ndarray  # [C, samples]
    fs: float

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 2:
            raise DimensionError("EegRecording expects a [C, samples] array")
        if not 0 < self.fs < np.inf:
            raise DataError(f"sampling rate {self.fs:g} must be finite and positive")

    @property
    def n_samples(self):
        return self.channels.shape[1]


@dataclass
class SpectrogramSample:
    data: np.ndarray  # [C, T, F], values in [0, 1]


@dataclass
class VolumeSample:
    data: np.ndarray  # [D, H, W], values in [0, 1]


@dataclass
class DatasetManifest:
    name: str
    fs: float
    tr_s: float
    geometry: tuple | None  # (C, T, F, D, H, W); None in a raw-session manifest
    # (subject_id, [(spec, vol)]); a raw manifest's are [(eeg, volumes)] sessions
    subjects: list = field(default_factory=list)

    @property
    def subject_ids(self):
        return [sid for sid, _ in self.subjects]

    def run_values(self):
        """The run-config value of each MANIFEST_KEYS key, as this manifest
        fixes it."""
        values = (self.name, float(self.fs), float(self.tr_s))
        return dict(zip(MANIFEST_KEYS, values + tuple(int(v) for v in self.geometry)))


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def window_samples(fs, tr_s, pairing_mode="tr", span_s=20.0):
    """EEG samples in every paired window: fs * tr, or fs * span_s in lag
    mode, rounded to the nearest whole sample."""
    check("pairing_mode", pairing_mode)
    name, seconds = ("tr", tr_s) if pairing_mode == "tr" else ("span_s", span_s)
    if not 0.5 < fs * seconds < np.inf:  # rounds to at least one sample
        raise ConfigError(f"fs * {name} = {fs:g} * {seconds:g}: must give >= 1 sample")
    return int(round(fs * seconds))


# ---------------------------------------------------------------------------
# spectrogram
# ---------------------------------------------------------------------------

def hann_window(n):
    """Periodic Hann window, the standard STFT taper."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(window, frame_len, hop):
    """Magnitude spectrogram [T, frame_len//2 + 1] with a per-frame Hann taper."""
    window = np.asarray(window, dtype=np.float64)
    if frame_len > window.shape[-1]:
        raise DimensionError(
            f"frame length {frame_len} exceeds segment length {window.shape[-1]}"
        )
    if hop < 1:
        raise DimensionError("hop must be >= 1")
    n_frames = _frame_count(window.shape[-1], frame_len, hop)
    taper = hann_window(frame_len)
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = window[..., idx] * taper
    return np.abs(np.fft.rfft(frames, axis=-1))


def stft_params(fs, frame_len=None, hop=None):
    """(frame, hop) in samples: 0 or None derives frame = fs/5 rounded to
    even and hop = frame/2."""
    for key, value in (("frame_len", frame_len), ("hop", hop)):
        check(key, value or 0)
    frame = frame_len or max(int(round(fs / 5.0 / 2.0)) * 2, 2)
    return frame, hop or max(frame // 2, 1)


def _frame_count(n_samples, frame_len, hop):
    """Frames stft cuts from n_samples: every whole frame at hop spacing."""
    return (n_samples - frame_len) // hop + 1


def _kept_bins(fs, frame_len, cutoff_hz):
    """Mask over the frame_len // 2 + 1 rfft bins that band_limit keeps."""
    freqs = np.arange(frame_len // 2 + 1) * fs / frame_len
    cutoff = min(cutoff_hz, fs / 2.0)  # clamp to Nyquist
    return (freqs > 0) & (freqs <= cutoff + 1e-9)


def spectrogram_geometry(fs, tr_s, cfg):
    """(T, F) of the spectrograms build_pairs gives at sampling rate fs and
    TR tr_s under the run Config's STFT and pairing keys; both >= 1."""
    frame_len, hop = stft_params(fs, cfg.frame_len, cfg.hop)
    n_samples = window_samples(fs, tr_s, cfg.pairing_mode, cfg.span_s)
    t = _frame_count(n_samples, frame_len, hop)
    f = int(np.count_nonzero(_kept_bins(fs, frame_len, cfg.cutoff_hz)))
    if t < 1 or f < 1:
        raise ConfigError(
            f"empty {max(t, 0)}x{f} spectrogram: check frame_len, hop, cutoff_hz and span_s"
        )
    return t, f


def band_limit(spec, fs, frame_len, cutoff_hz=250.0):
    """Drop the DC bin and bins whose center frequency exceeds the cutoff."""
    return spec[..., _kept_bins(fs, frame_len, cutoff_hz)]


def minmax_normalize(t):
    """Affine map to [0, 1]; constant input maps to all-zeros by convention."""
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        raise DimensionError("cannot normalize an empty tensor")
    lo, hi = t.min(), t.max()
    if hi == lo:
        return np.zeros_like(t)
    return (t - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# volume down-sampling
# ---------------------------------------------------------------------------

def dct_matrix(n):
    """The orthonormal type-II DCT matrix C [n, n]: C @ x is x's spectrum,
    and C.T @ X inverts it. Each cosine's argument (2i+1)k pi / 2n is taken
    modulo 2 pi in exact integers first, which keeps it small."""
    k = np.arange(n)[:, None]
    m = (2 * np.arange(n) + 1) * k % (4 * n)
    scale = np.full((n, 1), np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return np.cos(np.pi * m / (2 * n)) * scale


def apply_per_axis(volume, ops):
    """The 3D volume with axis i mapped by the [n_i', n_i] matrix ops[i]:
    one tensordot and two matmuls, with no axis moved."""
    first, second, third = ops
    return np.matmul(second, np.matmul(np.tensordot(first, volume, axes=(1, 0)), third.T))


def dct_downsample(volume, target):
    """Resize by truncating the orthonormal 3D type-II DCT spectrum.

    Each axis of extent n maps to n' by sqrt(n'/n) * C_{n'}.T @ C_n[:n'], so
    constants are preserved up to rounding and target == source
    round-trips.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3 or len(target) != 3:
        raise DimensionError("dct_downsample expects a 3D volume and target")
    if any(t > s for t, s in zip(target, volume.shape)):
        raise DimensionError(
            f"target {tuple(target)} exceeds source {volume.shape}"
        )
    ops = [
        np.sqrt(t / s) * (dct_matrix(t).T @ dct_matrix(s)[:t])
        for s, t in zip(volume.shape, target)
    ]
    return apply_per_axis(volume, ops)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def spectrogram_from_window(window, fs, frame_len, hop, cutoff_hz=250.0):
    """Per-channel STFT -> band limit -> min-max, giving a [C, T, F] tensor."""
    spec = stft(window, frame_len, hop)  # [C, T, F_full]
    spec = band_limit(spec, fs, frame_len, cutoff_hz)
    return minmax_normalize(spec)


def build_pairs(
    recording,
    volumes,
    tr_s,
    frame_len=None,
    hop=None,
    cutoff_hz=250.0,
    pairing_mode="tr",
    span_s=20.0,
    lag_s=6.0,
    volume_target=None,
):
    """Pair EEG windows with fMRI volumes by one rule for both modes.

    volumes: [V, D, H, W] stack, one volume per TR. Volume i, acquired at
    (i+1)*TR, pairs with the window_samples(...) samples that start at
    round(fs * ((i+1)*TR - lag - span)): a window of span seconds ending lag
    seconds before the slice, where (lag, span) is (0, TR) in "tr" mode and
    (lag_s, span_s) in "lag" mode. Every start thus lies within half a
    sample of its time. A volume whose window starts before 0 s or ends past
    the recording is skipped.
    Returns a list of (SpectrogramSample, VolumeSample).
    """
    volumes = np.asarray(volumes, dtype=np.float64)
    if volumes.ndim != 4:
        raise DimensionError("volumes must be a [V, D, H, W] stack")
    frame_len, hop = stft_params(recording.fs, frame_len, hop)
    n = window_samples(recording.fs, tr_s, pairing_mode, span_s)
    lag, span = (0.0, tr_s) if pairing_mode == "tr" else (lag_s, span_s)
    pairs = []
    for i, vol in enumerate(volumes):
        start_s = (i + 1) * tr_s - lag - span
        start = int(round(recording.fs * start_s))
        if start_s < 0 or start + n > recording.n_samples:
            continue
        if volume_target is not None and tuple(volume_target) != vol.shape:
            vol = dct_downsample(vol, volume_target)
        window = recording.channels[:, start : start + n]
        spec = spectrogram_from_window(window, recording.fs, frame_len, hop, cutoff_hz)
        pairs.append((SpectrogramSample(spec), VolumeSample(minmax_normalize(vol))))
    if not pairs:
        raise DataError(
            f"no viable EEG/volume pairs: none of {len(volumes)} volumes has its "
            f"{n}-sample window inside the {recording.n_samples}-sample recording"
        )
    return pairs


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def write_pairs(out_dir, sid, pairs):
    """Write subject sid's (spectrogram, volume) arrays, in order, as
    <sid>/pair<i:04d>_spec.s2vt and <sid>/pair<i:04d>_vol.s2vt under out_dir.
    Returns the [(spec, vol)] paths relative to out_dir that a manifest lists."""
    entries = []
    for i, arrays in enumerate(pairs):
        rel = (f"{sid}/pair{i:04d}_spec.s2vt", f"{sid}/pair{i:04d}_vol.s2vt")
        for path, array in zip(rel, arrays):
            s2vt.write_tensor(Path(out_dir) / path, array)
        entries.append(rel)
    return entries


def write_manifest(path, manifest):
    lines = [
        f"name = {manifest.name}",
        f"fs = {float(manifest.fs)!r}",  # repr: read_manifest gets the same float
        f"tr = {float(manifest.tr_s)!r}",
        "geometry = " + " ".join(str(v) for v in manifest.geometry),
    ]
    for sid, pairs in manifest.subjects:
        for spec_path, vol_path in pairs:
            lines.append(f"subject {sid}: {spec_path} {vol_path}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path):
    """A dataset manifest, or a raw-session manifest: one with no geometry
    line, whose geometry is None and whose entries for each subject are that
    subject's (EEG, volume stack) sessions.

    `key = value` header lines and `subject <id>: <a> <b>` entry lines,
    grouped per subject in file order; blank and `#` lines are skipped.
    Anything else is a DataError, as is a repeated key or an fs or tr not
    finite and > 0.
    """
    path = Path(path)
    header, subjects = {}, {}
    for raw in read_text(path, "manifest", DataError).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("subject "):
            head, _, files = line.partition(":")
            parts = files.split()
            if len(parts) != 2:
                raise DataError(f"{path}: bad subject line {raw!r}")
            subjects.setdefault(head[len("subject ") :].strip(), []).append(tuple(parts))
        elif "=" in line:
            key, value = (s.strip() for s in line.split("=", 1))
            if key in header:
                raise DataError(f"{path}: malformed line {raw!r}: header key {key!r} repeated")
            header[key] = value
        else:
            raise DataError(f"{path}: unparseable line {raw!r}")
    kind = "manifest" if "geometry" in header else "raw manifest"
    try:
        manifest = DatasetManifest(
            name=header["name"],
            fs=float(header["fs"]),
            tr_s=float(header["tr"]),
            geometry=None if kind == "raw manifest" else tuple(
                int(v) for v in header["geometry"].split()
            ),
            subjects=list(subjects.items()),
        )
        check("fs", manifest.fs)
        check("tr", manifest.tr_s)
    except KeyError as exc:
        raise DataError(f"{path}: {kind} header missing key {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {kind} header value is not a number: {exc}") from exc
    except ConfigError as exc:  # the data, not the config, is at fault
        raise DataError(f"{path}: {kind} header {exc}") from exc
    if kind == "manifest" and (len(manifest.geometry) != 6 or min(manifest.geometry) < 1):
        raise DataError(f"{path}: geometry must list C T F D H W, each >= 1")
    return manifest


def resolve_pair_paths(manifest, base_dir="."):
    """Manifest with relative paths resolved against base_dir (absolute
    paths are kept, as pathlib's `/` does)."""
    base = Path(base_dir)
    subjects = []
    for sid, pairs in manifest.subjects:
        subjects.append((sid, [(str(base / p), str(base / v)) for p, v in pairs]))
    return DatasetManifest(
        manifest.name, manifest.fs, manifest.tr_s, manifest.geometry, subjects
    )
