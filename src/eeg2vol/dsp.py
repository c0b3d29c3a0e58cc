"""EEG/volume preprocessing: windowing, STFT, band limiting, normalization,
DCT down-sampling, and pairing into aligned training samples.

All functions are pure over owned buffers and safe to parallelize per
subject or per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft

from .errors import AlignmentError, DataError, DimensionError
from . import s2vt


@dataclass
class EegRecording:
    """Multi-channel EEG in microvolts, one row per channel."""

    channels: np.ndarray  # [C, samples]
    fs: float

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 2:
            raise DimensionError("EegRecording expects a [C, samples] array")
        if self.fs <= 0:
            raise DataError("sampling rate must be positive")

    @property
    def n_samples(self):
        return self.channels.shape[1]


@dataclass
class SpectrogramSample:
    data: np.ndarray  # [C, T, F], values in [0, 1]
    window_end_offset_s: float = 0.0


@dataclass
class VolumeSample:
    data: np.ndarray  # [D, H, W], values in [0, 1]
    tr_s: float = 0.0


@dataclass
class DatasetManifest:
    name: str
    fs: float
    tr_s: float
    geometry: tuple  # (C, T, F, D, H, W)
    subjects: list = field(default_factory=list)  # (subject_id, [(spec, vol)])

    @property
    def subject_ids(self):
        return [sid for sid, _ in self.subjects]


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def segment_windows(recording, tr_s):
    """Split every channel into consecutive windows of round(fs * tr) samples.

    The trailing remainder is discarded. Returns [n_windows, C, win_len].
    """
    win_len = int(round(recording.fs * tr_s))
    n = recording.n_samples // win_len
    if n == 0:
        raise DataError(
            f"recording of {recording.n_samples} samples is shorter than one "
            f"window ({win_len} samples)"
        )
    trimmed = recording.channels[:, : n * win_len]
    return trimmed.reshape(recording.channels.shape[0], n, win_len).transpose(1, 0, 2)


def lag_aligned_window(recording, bold_time_s, span_s=20.0, lag_s=6.0):
    """Per-channel segment covering [bold - lag - span, bold - lag) seconds."""
    start_s = bold_time_s - lag_s - span_s
    if start_s < 0:
        raise AlignmentError(
            f"window for BOLD slice at {bold_time_s:g}s starts {-start_s:g}s "
            "before the recording"
        )
    i0 = int(round(start_s * recording.fs))
    i1 = i0 + int(round(span_s * recording.fs))
    if i1 > recording.n_samples:
        raise AlignmentError(
            f"window for BOLD slice at {bold_time_s:g}s ends past the recording"
        )
    return recording.channels[:, i0:i1]


# ---------------------------------------------------------------------------
# spectrogram
# ---------------------------------------------------------------------------

def hann_window(n):
    """Periodic Hann window, the standard STFT taper."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(window, fs, frame_len, hop):
    """Magnitude spectrogram [T, frame_len//2 + 1] with a per-frame Hann taper."""
    window = np.asarray(window, dtype=np.float64)
    if frame_len > window.shape[-1]:
        raise DimensionError(
            f"frame length {frame_len} exceeds segment length {window.shape[-1]}"
        )
    if hop < 1:
        raise DimensionError("hop must be >= 1")
    n_frames = (window.shape[-1] - frame_len) // hop + 1
    taper = hann_window(frame_len)
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = window[..., idx] * taper
    return np.abs(np.fft.rfft(frames, axis=-1))


def default_stft_params(fs):
    """frame = fs/5 rounded to even, hop = frame/2."""
    frame = int(round(fs / 5.0 / 2.0)) * 2
    frame = max(frame, 2)
    return frame, frame // 2


def spectrogram_geometry(n_samples, fs, frame_len, hop, cutoff_hz=250.0):
    """(T, F) produced by stft + band_limit for a window of n_samples."""
    t = (n_samples - frame_len) // hop + 1
    freqs = np.arange(frame_len // 2 + 1) * fs / frame_len
    cutoff = min(cutoff_hz, fs / 2.0)
    f = int(np.count_nonzero((freqs > 0) & (freqs <= cutoff + 1e-9)))
    return t, f


def band_limit(spec, fs, frame_len, cutoff_hz=250.0):
    """Drop the DC bin and bins whose center frequency exceeds the cutoff."""
    n_bins = spec.shape[-1]
    freqs = np.arange(n_bins) * fs / frame_len
    cutoff = min(cutoff_hz, fs / 2.0)  # clamp to Nyquist
    keep = (freqs > 0) & (freqs <= cutoff + 1e-9)
    return spec[..., keep]


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

def dct_downsample(volume, target):
    """Resize by truncating the orthonormal 3D type-II DCT spectrum.

    Scaling preserves constants exactly; target == source round-trips.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3 or len(target) != 3:
        raise DimensionError("dct_downsample expects a 3D volume and target")
    if any(t > s for t, s in zip(target, volume.shape)):
        raise DimensionError(
            f"target {tuple(target)} exceeds source {volume.shape}"
        )
    coeffs = scipy.fft.dctn(volume, type=2, norm="ortho")
    d, h, w = target
    truncated = coeffs[:d, :h, :w]
    scale = np.sqrt(np.prod(target) / np.prod(volume.shape))
    return scipy.fft.idctn(truncated * scale, type=2, norm="ortho")


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def spectrogram_from_window(window, fs, frame_len, hop, cutoff_hz=250.0):
    """Per-channel STFT -> band limit -> min-max, giving a [C, T, F] tensor."""
    spec = stft(window, fs, frame_len, hop)  # [C, T, F_full]
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
    """Pair EEG windows with fMRI volumes.

    volumes: [V, D, H, W] stack, one volume per TR. pairing_mode "tr" uses
    consecutive fs*TR windows; "lag" uses a span_s window ending lag_s before
    each BOLD slice (volumes whose window underruns the recording are skipped).
    Returns a list of (SpectrogramSample, VolumeSample).
    """
    volumes = np.asarray(volumes, dtype=np.float64)
    if volumes.ndim != 4:
        raise DimensionError("volumes must be a [V, D, H, W] stack")
    if frame_len is None or hop is None:
        d_frame, d_hop = default_stft_params(recording.fs)
        frame_len = frame_len or d_frame
        hop = hop or d_hop

    if pairing_mode == "tr":
        windows = segment_windows(recording, tr_s)
        indexed = [(i, windows[i]) for i in range(min(len(windows), len(volumes)))]
    elif pairing_mode == "lag":
        indexed = []
        for i in range(len(volumes)):
            bold_time = (i + 1) * tr_s
            try:
                indexed.append((i, lag_aligned_window(recording, bold_time, span_s, lag_s)))
            except AlignmentError:
                continue
    else:
        raise DataError(f"unknown pairing mode {pairing_mode!r}")

    pairs = []
    for i, window in indexed:
        vol = volumes[i]
        if volume_target is not None and tuple(volume_target) != vol.shape:
            vol = dct_downsample(vol, volume_target)
        spec = spectrogram_from_window(window, recording.fs, frame_len, hop, cutoff_hz)
        pairs.append(
            (
                SpectrogramSample(spec, window_end_offset_s=lag_s if pairing_mode == "lag" else 0.0),
                VolumeSample(minmax_normalize(vol), tr_s=tr_s),
            )
        )
    if not pairs:
        raise DataError("no viable EEG/volume pairs could be built")
    return pairs


# ---------------------------------------------------------------------------
# manifest files
# ---------------------------------------------------------------------------

def write_manifest(path, manifest):
    lines = [
        f"name = {manifest.name}",
        f"fs = {manifest.fs:g}",
        f"tr = {manifest.tr_s:g}",
        "geometry = " + " ".join(str(v) for v in manifest.geometry),
    ]
    for sid, pairs in manifest.subjects:
        for spec_path, vol_path in pairs:
            lines.append(f"subject {sid}: {spec_path} {vol_path}")
    Path(path).write_text("\n".join(lines) + "\n")


def parse_manifest(path):
    """The line grammar shared by dataset and raw-session manifests.

    `key = value` header lines and `subject <id>: <a> <b>` entry lines;
    blank and `#` lines are skipped, anything else is a DataError.
    Returns (header dict, [(subject_id, a, b), ...] in file order).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    header, entries = {}, []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("subject "):
            head, _, files = line.partition(":")
            parts = files.split()
            if len(parts) != 2:
                raise DataError(f"{path}: bad subject line {raw!r}")
            entries.append((head[len("subject ") :].strip(), parts[0], parts[1]))
        elif "=" in line:
            key, value = (s.strip() for s in line.split("=", 1))
            header[key] = value
        else:
            raise DataError(f"{path}: unparseable line {raw!r}")
    return header, entries


def read_manifest(path, validate=False):
    path = Path(path)
    header, entries = parse_manifest(path)
    subjects = {}
    for sid, spec_path, vol_path in entries:
        subjects.setdefault(sid, []).append((spec_path, vol_path))
    try:
        manifest = DatasetManifest(
            name=header["name"],
            fs=float(header["fs"]),
            tr_s=float(header["tr"]),
            geometry=tuple(int(v) for v in header["geometry"].split()),
            subjects=list(subjects.items()),
        )
    except KeyError as exc:
        raise DataError(f"{path}: manifest header missing key {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: manifest header value is not a number: {exc}") from exc
    if len(manifest.geometry) != 6:
        raise DataError(f"{path}: geometry must list C T F D H W")
    if validate:
        validate_manifest(manifest, base_dir=path.parent)
    return manifest


def validate_manifest(manifest, base_dir="."):
    """Check every referenced file exists and matches the declared geometry."""
    base = Path(base_dir)
    c, t, f, d, h, w = manifest.geometry
    for sid, pairs in manifest.subjects:
        for spec_path, vol_path in pairs:
            for p, want in ((spec_path, (c, t, f)), (vol_path, (d, h, w))):
                full = base / p
                if not full.exists():
                    raise DataError(f"subject {sid}: missing file {p}")
                shape, _ = s2vt.read_header(full)
                if tuple(shape) != want:
                    raise DataError(
                        f"subject {sid}: {p} has shape {tuple(shape)}, "
                        f"manifest declares {want}"
                    )


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
