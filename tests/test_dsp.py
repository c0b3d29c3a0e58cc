"""Preprocessing: windowing, STFT vs DFT oracle, band limiting, normalization,
DCT down-sampling, pairing, and manifest files."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eeg2vol import dsp
from eeg2vol.config import Config
from eeg2vol.errors import ConfigError, DataError, DimensionError
from eeg2vol.presets import preset_config

from conftest import dft_oracle


def make_recording(n_samples, fs=250.0, channels=2, seed=0):
    rng = np.random.default_rng(seed)
    return dsp.EegRecording(rng.standard_normal((channels, n_samples)), fs)


# ---------------------------------------------------------------------------
# windowing: build_pairs pairs volume i with the window_samples(...) samples
# starting at round(fs * ((i+1)*TR - lag - span)), (lag, span) = (0, TR) in tr
# mode and (lag_s, span_s) in lag mode
# ---------------------------------------------------------------------------

def pair_specs(rec, n_volumes, tr_s, **kwargs):
    """The spectrograms build_pairs gives n_volumes blank volumes, in order."""
    pairs = dsp.build_pairs(rec, np.zeros((n_volumes, 1, 2, 2)), tr_s, **kwargs)
    return [spec.data for spec, _vol in pairs]


def spec_of(rec, i0, i1, frame_len=None, hop=None, cutoff_hz=250.0):
    """The spectrogram of the window rec[:, i0:i1] at build_pairs' STFT."""
    frame_len, hop = dsp.stft_params(rec.fs, frame_len, hop)
    return dsp.spectrogram_from_window(rec.channels[:, i0:i1], rec.fs, frame_len, hop,
                                       cutoff_hz)


def test_tr_window_noddi_arithmetic():
    rec = make_recording(1000, fs=250.0)
    specs = pair_specs(rec, 3, 2.16)
    assert len(specs) == 1  # 250 * 2.16 = 540, remainder dropped
    np.testing.assert_array_equal(specs[0], spec_of(rec, 0, 540))


def test_tr_window_exact_fit():
    rec = make_recording(540, fs=250.0)
    specs = pair_specs(rec, 1, 2.16)
    assert len(specs) == 1
    np.testing.assert_array_equal(specs[0], spec_of(rec, 0, 540))


def test_tr_window_too_short():
    """No window fits: a DataError naming the recording and window lengths."""
    with pytest.raises(DataError, match="540-sample window inside the 100-sample recording"):
        pair_specs(make_recording(100, fs=250.0), 3, 2.16)


def test_window_below_one_sample_is_config_error():
    """A window that rounds to 0 samples is a ConfigError naming fs and tr
    (or span_s), not a division by zero."""
    with pytest.raises(ConfigError, match=r"fs \* tr = 250 \* 0.001"):
        pair_specs(dsp.EegRecording(np.zeros((2, 100)), 250.0), 1, 0.001)
    assert dsp.window_samples(250.0, 0.003) == 1  # 0.75 samples rounds up to 1
    for seconds in (0.002, float("nan"), float("inf")):  # 0.5 samples rounds to 0
        with pytest.raises(ConfigError, match=r"fs \* span_s = 250 \* "):
            dsp.window_samples(250.0, 2.0, "lag", seconds)


def test_lag_window_sample_ranges():
    """TR = 1 s: the slice at 26 s takes [0 s, 20 s), at 30 s [4 s, 24 s) and
    at 46 s [20 s, 40 s); the slice at 25 s would start before the recording
    and the one at 47 s would end past it, so both are skipped."""
    rec = make_recording(10000, fs=250.0)
    specs = pair_specs(rec, 50, 1.0, pairing_mode="lag")
    assert len(specs) == 21  # slices at 26 .. 46 s
    np.testing.assert_array_equal(specs[0], spec_of(rec, 0, 5000))
    np.testing.assert_array_equal(specs[4], spec_of(rec, 1000, 6000))
    np.testing.assert_array_equal(specs[-1], spec_of(rec, 5000, 10000))


@settings(max_examples=25, deadline=None)
@given(
    fs=st.integers(50, 5000),
    n=st.integers(2, 600),
    blocks=st.integers(1, 5),
    remainder=st.integers(0, 599),
    n_volumes=st.integers(1, 6),
)
def test_whole_sample_tr_windows_are_consecutive_blocks(fs, n, blocks, remainder,
                                                        n_volumes):
    """When fs * TR is n whole samples, pair i is the block [i*n, (i+1)*n) and
    a trailing part-block is dropped, as consecutive blocks would give."""
    fs = float(fs)
    rec = make_recording(blocks * n + remainder % n, fs=fs)
    stft = {"frame_len": min(n, 16), "hop": 4, "cutoff_hz": fs / 2}
    specs = pair_specs(rec, n_volumes, n / fs, **stft)
    assert len(specs) == min(n_volumes, blocks)
    for i, spec in enumerate(specs):
        np.testing.assert_array_equal(spec, spec_of(rec, i * n, (i + 1) * n, **stft))


def test_tr_windows_do_not_drift_when_fs_tr_is_fractional():
    """fs * TR = 487.5 samples: window k starts at the sample of k * TR
    (k * 487.5 for even k), not at k * round(487.5), which runs 0.6 s late by
    k = 300."""
    fs, tr = 250.0, 1.95
    n = dsp.window_samples(fs, tr)
    rec = make_recording(int(fs * tr * 302), fs=fs)
    specs = pair_specs(rec, 301, tr)
    assert len(specs) == 301
    for k in (2, 100, 300):
        start = int(k * 487.5)
        np.testing.assert_array_equal(specs[k], spec_of(rec, start, start + n))


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------

def test_stft_sinusoid_peaks_at_its_bin():
    fs, frame = 250.0, 64
    k = 8
    t = np.arange(540) / fs
    signal = np.cos(2.0 * np.pi * (k * fs / frame) * t)
    spec = dsp.stft(signal, frame, 32)
    assert np.all(np.argmax(spec, axis=-1) == k)


def test_stft_dc_energy():
    spec = dsp.stft(np.ones(256), 64, 32)
    # the Hann taper itself carries energy at bins 0 and 1; everything else
    # must vanish, and bin 0 dominates
    assert np.all(np.argmax(spec, axis=-1) == 0)
    assert np.max(spec[:, 2:]) < 1e-9


def test_stft_matches_brute_force_dft():
    rng = np.random.default_rng(0)
    window = rng.standard_normal(540)
    frame, hop = 64, 32
    spec = dsp.stft(window, frame, hop)
    taper = dsp.hann_window(frame)
    n_frames = (540 - frame) // hop + 1
    assert spec.shape == (n_frames, frame // 2 + 1)
    for i in range(n_frames):
        want = dft_oracle(window[i * hop : i * hop + frame] * taper)
        assert np.max(np.abs(spec[i] - want)) < 1e-8


def test_stft_oracle_other_frame_lengths():
    rng = np.random.default_rng(1)
    for frame in (16, 50, 256):
        window = rng.standard_normal(frame * 2)
        spec = dsp.stft(window, frame, frame)
        taper = dsp.hann_window(frame)
        for i in range(spec.shape[0]):
            want = dft_oracle(window[i * frame : (i + 1) * frame] * taper)
            assert np.max(np.abs(spec[i] - want)) < 1e-8


def test_stft_frame_longer_than_segment():
    with pytest.raises(DimensionError, match="frame"):
        dsp.stft(np.zeros(32), 64, 32)


def test_stft_params():
    """0 or None derives frame = fs/5 (even) and hop = frame/2; the hop
    follows a given frame, not the derived one."""
    assert dsp.stft_params(250.0) == (50, 25)
    assert dsp.stft_params(1000.0, 0, 0) == (200, 100)
    assert dsp.stft_params(5000.0, None, None) == (1000, 500)
    assert dsp.stft_params(250.0, 100, 0) == (100, 50)
    assert dsp.stft_params(250.0, 0, 10) == (50, 10)
    for frame_len, hop, key in ((-4, 0, "frame_len = -4"), (0, -1, "hop = -1")):
        with pytest.raises(ConfigError, match=key):
            dsp.stft_params(250.0, frame_len, hop)


# ---------------------------------------------------------------------------
# band limiting
# ---------------------------------------------------------------------------

def test_band_limit_cutoff_above_nyquist_drops_only_dc():
    spec = np.ones((3, 26))  # fs=250, frame=50: Nyquist 125 < 250 cutoff
    out = dsp.band_limit(spec, 250.0, 50)
    assert out.shape == (3, 25)


def test_band_limit_bin_arithmetic():
    out = dsp.band_limit(np.ones((2, 51)), 1000.0, 100)  # bin width 10 Hz
    assert out.shape == (2, 25)  # bins 1..25 at <= 250 Hz survive
    out = dsp.band_limit(np.ones((2, 251)), 5000.0, 500)  # bin width 10 Hz
    assert out.shape == (2, 25)


def test_band_limit_never_keeps_dc():
    spec = np.zeros((1, 26))
    spec[0, 0] = 99.0
    out = dsp.band_limit(spec, 250.0, 50)
    assert np.max(out) == 0.0


def test_spectrogram_geometry_matches_presets():
    for name, want in (("noddi", (20, 25)), ("oddball", (19, 50)), ("cn-epfl", (11, 50))):
        cfg = preset_config(name)
        assert dsp.spectrogram_geometry(cfg.fs, cfg.tr, cfg) == want, name


@settings(max_examples=60, deadline=None)
@given(
    frame=st.integers(2, 128),
    extra=st.integers(0, 300),
    hop=st.integers(1, 64),
    fs=st.floats(50.0, 5000.0),
    cutoff_frac=st.floats(0.0, 1.5),
)
def test_spectrogram_geometry_matches_computed_shape(frame, extra, hop, fs, cutoff_frac):
    """The derived (T, F) is the shape the pipeline produces; the cutoff is
    at least the first non-DC bin, so F >= 1."""
    n_samples = frame + extra
    cutoff = fs / frame + cutoff_frac * fs / 2.0
    window = np.random.default_rng(0).standard_normal((2, n_samples))
    spec = dsp.spectrogram_from_window(window, fs, frame, hop, cutoff)
    cfg = Config({"frame_len": frame, "hop": hop, "cutoff_hz": cutoff})
    assert dsp.spectrogram_geometry(fs, n_samples / fs, cfg) == spec.shape[1:]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_minmax_examples():
    np.testing.assert_allclose(dsp.minmax_normalize([2.0, 4.0, 6.0]), [0, 0.5, 1])
    np.testing.assert_array_equal(dsp.minmax_normalize([5.0, 5.0, 5.0]), [0, 0, 0])


def test_minmax_empty():
    with pytest.raises(DimensionError):
        dsp.minmax_normalize(np.zeros(0))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=16,
    )
)
def test_minmax_range_and_idempotence(values):
    out = dsp.minmax_normalize(np.array(values))
    assert out.min() >= 0.0 and out.max() <= 1.0
    if len(set(values)) > 1:
        assert out.min() == 0.0 and out.max() == 1.0
        np.testing.assert_allclose(dsp.minmax_normalize(out), out, atol=1e-12)


# ---------------------------------------------------------------------------
# DCT down-sampling
# ---------------------------------------------------------------------------

def test_dct_preserves_constants():
    vol = np.full((6, 8, 8), 3.7)
    out = dsp.dct_downsample(vol, (3, 4, 4))
    assert out.shape == (3, 4, 4)
    assert np.max(np.abs(out - 3.7)) < 1e-12


def test_dct_equal_size_round_trip():
    rng = np.random.default_rng(2)
    vol = rng.standard_normal((5, 6, 7))
    out = dsp.dct_downsample(vol, (5, 6, 7))
    assert np.max(np.abs(out - vol)) < 1e-10


def test_dct_cn_epfl_geometry():
    rng = np.random.default_rng(3)
    vol = rng.standard_normal((54, 108, 108))
    out = dsp.dct_downsample(vol, (30, 64, 64))
    assert out.shape == (30, 64, 64)


@pytest.mark.parametrize("n", [1, 2, 5, 30, 54, 64, 108])
def test_dct_matrix_is_the_orthonormal_dct(n):
    """C @ x is scipy.fft.dct(x, norm="ortho") to 1e-14 of x's peak
    (measured 4.6e-16), and C.T inverts C (measured 1.3e-15 at n = 108)."""
    x = np.random.default_rng(n).standard_normal(n)
    c = dsp.dct_matrix(n)
    assert np.max(np.abs(c @ x - scipy.fft.dct(x, norm="ortho"))) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(c.T @ c - np.eye(n))) <= 1e-14


@pytest.mark.parametrize("source, target", [((54, 108, 108), (30, 64, 64)), ((6, 8, 10), (3, 4, 5))])
def test_dct_downsample_matches_scipy_dctn(source, target):
    """Within 1e-14 of the peak of scipy's idctn(dctn(v)[:d, :h, :w] *
    scale) (measured 1.5e-15 at the cn-epfl shapes)."""
    vol = np.random.default_rng(7).standard_normal(source)
    d, h, w = target
    scale = np.sqrt(np.prod(target) / np.prod(source))
    coeffs = scipy.fft.dctn(vol, type=2, norm="ortho")[:d, :h, :w]
    want = scipy.fft.idctn(coeffs * scale, type=2, norm="ortho")
    got = dsp.dct_downsample(vol, target)
    assert got.shape == target
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_dct_target_exceeds_source():
    with pytest.raises(DimensionError):
        dsp.dct_downsample(np.zeros((4, 4, 4)), (8, 4, 4))


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_build_pairs_tr_mode_counts_and_ranges():
    rec = make_recording(540 * 5 + 100, fs=250.0, seed=4)
    rng = np.random.default_rng(5)
    volumes = rng.random((7, 3, 8, 8))
    pairs = dsp.build_pairs(rec, volumes, 2.16)
    assert len(pairs) == 5  # limited by the five full EEG windows
    for spec, vol in pairs:
        assert spec.data.shape == (2, 20, 25)
        assert spec.data.min() >= 0.0 and spec.data.max() <= 1.0
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0


def test_build_pairs_lag_mode_skips_early_volumes():
    fs, tr = 250.0, 2.0
    rec = make_recording(int(fs * 120), fs=fs, seed=6)
    volumes = np.random.default_rng(7).random((20, 3, 8, 8))
    pairs = dsp.build_pairs(rec, volumes, tr, pairing_mode="lag")
    # bold_time (i+1)*2 must be >= 26 s, so volumes 0..11 are skipped
    assert len(pairs) == 8
    # the last pair's window is the 20 s ending 6 s before the slice at 40 s
    window = rec.channels[:, int(fs * 14) : int(fs * 34)]
    spec, vol = pairs[-1]
    np.testing.assert_array_equal(spec.data, dsp.spectrogram_from_window(window, fs, 50, 25))
    np.testing.assert_array_equal(vol.data, dsp.minmax_normalize(volumes[19]))


def test_build_pairs_volume_target():
    rec = make_recording(540 * 2, fs=250.0, seed=8)
    volumes = np.random.default_rng(9).random((2, 6, 16, 16))
    pairs = dsp.build_pairs(rec, volumes, 2.16, volume_target=(3, 8, 8))
    assert pairs[0][1].data.shape == (3, 8, 8)


def test_build_pairs_zero_pairs_is_error():
    rec = make_recording(int(250.0 * 10), fs=250.0)
    volumes = np.zeros((2, 3, 8, 8))
    with pytest.raises(DataError, match="pairs"):
        dsp.build_pairs(rec, volumes, 2.0, pairing_mode="lag")


def test_build_pairs_unknown_mode():
    rec = make_recording(1000)
    with pytest.raises(ConfigError, match="pairing"):
        dsp.build_pairs(rec, np.zeros((1, 2, 2, 2)), 2.0, pairing_mode="bogus")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def make_manifest():
    return dsp.DatasetManifest(
        name="demo",
        fs=250.0,
        tr_s=2.16,
        geometry=(2, 20, 25, 3, 8, 8),
        subjects=[
            ("s01", [("s01/a_spec.s2vt", "s01/a_vol.s2vt")]),
            ("s02", [("s02/b_spec.s2vt", "s02/b_vol.s2vt")]),
        ],
    )


def test_manifest_round_trip(tmp_path):
    manifest = make_manifest()
    path = tmp_path / "manifest.txt"
    dsp.write_manifest(path, manifest)
    back = dsp.read_manifest(path)
    assert back.name == "demo"
    assert back.fs == 250.0 and back.tr_s == 2.16
    assert back.geometry == manifest.geometry
    assert back.subjects == manifest.subjects
    assert back.subject_ids == ["s01", "s02"]


def test_manifest_missing_file():
    with pytest.raises(DataError, match="not found"):
        dsp.read_manifest("/nonexistent/manifest.txt")


def test_manifest_missing_header_key(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("name = x\nfs = 250\nsubject a: p q\n")
    with pytest.raises(DataError, match="header"):
        dsp.read_manifest(path)


POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(fs=POSITIVE_FLOATS, tr=POSITIVE_FLOATS)
@example(fs=250.0, tr=2.123456789)
def test_manifest_round_trip_keeps_fs_and_tr_exactly(tmp_path_factory, fs, tr):
    """write_manifest writes fs and tr so that read_manifest gets the very
    floats back, not six significant digits of them."""
    manifest = make_manifest()
    manifest.fs, manifest.tr_s = fs, tr
    path = tmp_path_factory.mktemp("manifest") / "manifest.txt"
    dsp.write_manifest(path, manifest)
    assert dsp.read_manifest(path) == manifest


def test_raw_manifest_groups_sessions_per_subject(tmp_path):
    """A manifest with no geometry line is a raw-session manifest: its
    geometry is None and each subject's entries are its sessions, in file
    order, wherever in the file they are listed."""
    path = tmp_path / "raw.txt"
    path.write_text("name = raw\nfs = 250\ntr = 2\nsubject a: e0 v0\n"
                    "subject b: e1 v1\nsubject a: e2 v2\n")
    raw = dsp.read_manifest(path)
    assert (raw.name, raw.fs, raw.tr_s, raw.geometry) == ("raw", 250.0, 2.0, None)
    assert raw.subjects == [("a", [("e0", "v0"), ("e2", "v2")]), ("b", [("e1", "v1")])]


def test_manifest_validation_missing_file(tmp_path):
    from eeg2vol.train import load_pairs

    manifest = make_manifest()
    path = tmp_path / "manifest.txt"
    dsp.write_manifest(path, manifest)
    with pytest.raises(DataError, match="not found: .*s01/a_spec.s2vt"):
        load_pairs(dsp.read_manifest(path), tmp_path, ["s01"])


def test_manifest_validation_wrong_shape(tmp_path):
    from eeg2vol import s2vt
    from eeg2vol.train import load_pairs

    manifest = make_manifest()
    for _sid, pairs in manifest.subjects:
        for spec_path, vol_path in pairs:
            s2vt.write_tensor(tmp_path / spec_path, np.zeros((2, 20, 25)))
            s2vt.write_tensor(tmp_path / vol_path, np.zeros((3, 8, 8)))
    path = tmp_path / "manifest.txt"
    dsp.write_manifest(path, manifest)
    load_pairs(dsp.read_manifest(path), tmp_path, ["s01", "s02"])  # consistent tree passes
    s2vt.write_tensor(tmp_path / "s01/a_vol.s2vt", np.zeros((4, 8, 8)))
    with pytest.raises(DataError, match=r"s01/a_vol.s2vt has shape \(4, 8, 8\), "
                                        r"manifest declares \(3, 8, 8\)"):
        load_pairs(dsp.read_manifest(path), tmp_path, ["s01", "s02"])


def test_manifest_run_values():
    """The value of each key a manifest fixes, typed as the run Config
    types it, in MANIFEST_KEYS order."""
    values = make_manifest().run_values()
    assert tuple(values) == dsp.MANIFEST_KEYS
    assert values == {"dataset": "demo", "fs": 250.0, "tr": 2.16, "channels": 2,
                      "t_bins": 20, "f_bins": 25, "depth": 3, "height": 8, "width": 8}
    assert [type(v) for v in values.values()] == [str, float, float] + [int] * 6


def test_write_pairs_layout(tmp_path):
    """write_pairs takes any iterable of (spec, vol) arrays, a generator
    included, and writes each as write_tensor would under the
    <sid>/pair<i:04d>_{spec,vol}.s2vt names it returns."""
    from eeg2vol import s2vt

    rng = np.random.default_rng(0)
    arrays = [(rng.random((2, 3, 4)), rng.random((1, 2, 2))) for _ in range(3)]
    entries = dsp.write_pairs(tmp_path / "out", "s07", (pair for pair in arrays))
    assert entries == [(f"s07/pair{i:04d}_spec.s2vt", f"s07/pair{i:04d}_vol.s2vt")
                       for i in range(3)]
    assert sorted(p.name for p in (tmp_path / "out/s07").iterdir()) == sorted(
        name.split("/")[1] for pair in entries for name in pair
    )
    for rel, pair in zip(entries, arrays):
        for name, array in zip(rel, pair):
            s2vt.write_tensor(tmp_path / "want.s2vt", array)
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "want.s2vt").read_bytes()
