"""End-to-end CLI behavior: subcommands, exit codes, and file artifacts."""

import hashlib
import os
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from eeg2vol import cli, s2vt, train
from eeg2vol.config import SCHEMA
from eeg2vol.data import synth_raw_session
from eeg2vol.model import Model

from conftest import checkpoint_parts, index_line, index_lines, join_checkpoint, rewrite_index
from program_paths import tree_hashes

# the micro geometry for synth-data; train takes it from the dataset manifest
GEOMETRY_SETS = [
    "--set", "channels=4", "--set", "t_bins=5", "--set", "f_bins=6",
    "--set", "depth=3", "--set", "height=8", "--set", "width=8",
]
# the micro architecture for train
ARCH_SETS = [
    "--set", "embed=4", "--set", "heads=2", "--set", "state_dim=2", "--set", "vss_blocks=1",
]


def write_raw_tree(root, n_channels=2, n_volumes=3, fs=250.0, tr=2.16, seed=0):
    root.mkdir(parents=True, exist_ok=True)
    n_samples = int(round(fs * tr)) * n_volumes + 17
    eeg, vols = synth_raw_session(
        n_channels, n_samples, fs, n_volumes, (3, 8, 8), seed, tr_s=tr
    )
    s2vt.write_tensor(root / "s01_eeg.s2vt", eeg)
    s2vt.write_tensor(root / "s01_vols.s2vt", vols)
    (root / "raw.txt").write_text(
        f"name = demo\nfs = {fs:g}\ntr = {tr:g}\n"
        "subject s01: s01_eeg.s2vt s01_vols.s2vt\n"
    )
    return root / "raw.txt"


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_preprocess_counts_and_manifest(tmp_path, capsys):
    raw = write_raw_tree(tmp_path / "raw")
    rc = cli.main(
        ["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "subject s01: 3 pairs" in out  # one pair per full fs*TR window
    from eeg2vol.dsp import read_manifest
    from eeg2vol.train import load_pairs

    manifest = read_manifest(tmp_path / "out/manifest.txt")
    assert manifest.geometry == (2, 20, 25, 3, 8, 8)
    # load_pairs checks every listed array against that geometry
    assert len(load_pairs(manifest, tmp_path / "out", ["s01"])) == 3


def test_preprocess_rerun_byte_identical(tmp_path):
    raw = write_raw_tree(tmp_path / "raw")
    for name in ("o1", "o2"):
        assert cli.main(
            ["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / name)]
        ) == 0
    assert tree_hashes(tmp_path / "o1") == tree_hashes(tmp_path / "o2")


def test_preprocess_frame_len_matches_model_geometry(tmp_path):
    """A given frame_len derives its hop (frame/2) the same way in preprocess
    output and in the geometry the run config describes."""
    from eeg2vol.config import Config
    from eeg2vol.model import ModelConfig

    raw = write_raw_tree(tmp_path / "raw")
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out"),
                   "--set", "frame_len=100"])
    assert rc == 0
    spec = s2vt.read_tensor(tmp_path / "out/s01/pair0000_spec.s2vt")
    geometry = ModelConfig.from_run_config(Config({"frame_len": 100})).geometry
    assert spec.shape[1:] == geometry[1:3] == (9, 50)


def test_preprocess_missing_file_exit_3(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text(
        "name = demo\nfs = 250\ntr = 2.16\nsubject s01: gone.s2vt alsogone.s2vt\n"
    )
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "gone.s2vt" in err and "s01" in err


def test_preprocess_absolute_paths(tmp_path):
    """Absolute session paths are read as given, not joined to the
    manifest's directory; the output matches a relative-path manifest's."""
    raw = write_raw_tree(tmp_path / "raw")
    root = raw.parent.resolve()
    moved = tmp_path / "elsewhere/raw.txt"
    moved.parent.mkdir()
    moved.write_text(raw.read_text().replace(
        "s01_eeg.s2vt s01_vols.s2vt",
        f"{root / 's01_eeg.s2vt'} {root / 's01_vols.s2vt'}",
    ))
    for manifest, name in ((raw, "rel"), (moved, "abs")):
        assert cli.main(
            ["preprocess", "--manifest-in", str(manifest), "--out", str(tmp_path / name)]
        ) == 0
    assert tree_hashes(tmp_path / "rel") == tree_hashes(tmp_path / "abs")


def test_preprocess_junk_manifest_line_exit_3(tmp_path, capsys):
    raw = write_raw_tree(tmp_path / "raw")
    raw.write_text(raw.read_text() + "not a manifest line\n")
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "unparseable line 'not a manifest line'" in capsys.readouterr().err


def test_preprocess_missing_manifest_exit_3(tmp_path, capsys):
    rc = cli.main(
        ["preprocess", "--manifest-in", str(tmp_path / "none.txt"), "--out", "x"]
    )
    assert rc == 3
    assert "none.txt" in capsys.readouterr().err


def test_preprocess_empty_raw_manifest_exit_3(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("name = demo\nfs = 250\ntr = 2.16\n")
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert f"{raw}: raw manifest lists no subject sessions" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_preprocess_volume_target_beyond_raw_volume_exit_2(tmp_path, capsys):
    raw = write_raw_tree(tmp_path / "raw")  # raw volumes are 3x8x8
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out"),
                   "--set", "volume_target=30 64 64"])
    assert rc == 2
    assert "subject s01: volume_target (30, 64, 64) exceeds raw volume (3, 8, 8)" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_channels, vol_shape, found", [
    (3, (3, 8, 8), "3 EEG channels, volumes (3, 8, 8)"),
    (2, (3, 8, 12), "2 EEG channels, volumes (3, 8, 12)"),
], ids=["channels", "volume-shape"])
def test_preprocess_mismatched_sessions_exit_3(tmp_path, capsys, n_channels, vol_shape, found):
    """One manifest geometry must describe every session."""
    raw = write_raw_tree(tmp_path / "raw")
    eeg, vols = synth_raw_session(n_channels, 2000, 250.0, 3, vol_shape, 1, tr_s=2.16)
    s2vt.write_tensor(tmp_path / "raw/s02_eeg.s2vt", eeg)
    s2vt.write_tensor(tmp_path / "raw/s02_vols.s2vt", vols)
    raw.write_text(raw.read_text() + "subject s02: s02_eeg.s2vt s02_vols.s2vt\n")
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert f"subject s02: {found}; subject s01: 2 EEG channels, volumes (3, 8, 8)" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, message", [
    ("s01_eeg.s2vt", "subject s01: EEG (2, 3, 4) is not a [C, samples] array"),
    ("s01_vols.s2vt", "subject s01: volumes (2, 3, 4) are not a [V, D, H, W] stack"),
], ids=["eeg", "volumes"])
def test_preprocess_session_of_wrong_rank_exit_3(tmp_path, capsys, name, message):
    """A raw session file of the wrong rank is malformed data, not a bad config."""
    raw = write_raw_tree(tmp_path / "raw")
    s2vt.write_tensor(tmp_path / "raw" / name, np.zeros((2, 3, 4)))
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_preprocess_numbers_a_subjects_sessions_as_one_run(tmp_path, capsys):
    """A subject listed twice keeps both sessions: their pairs are numbered
    on across the sessions, in manifest order, and none is overwritten."""
    raw = write_raw_tree(tmp_path / "raw")
    eeg, vols = synth_raw_session(2, 2000, 250.0, 3, (3, 8, 8), 1, tr_s=2.16)
    s2vt.write_tensor(tmp_path / "raw/s02_eeg.s2vt", eeg)
    s2vt.write_tensor(tmp_path / "raw/s02_vols.s2vt", vols)
    second = tmp_path / "raw/second.txt"  # session two alone
    second.write_text(raw.read_text().replace("s01_", "s02_"))
    raw.write_text(raw.read_text() + "subject s01: s02_eeg.s2vt s02_vols.s2vt\n")
    for manifest, name in ((raw, "both"), (second, "second")):
        assert cli.main(
            ["preprocess", "--manifest-in", str(manifest), "--out", str(tmp_path / name)]
        ) == 0
    assert "subject s01: 6 pairs" in capsys.readouterr().out
    entries = [line for line in (tmp_path / "both/manifest.txt").read_text().splitlines()
               if line.startswith("subject ")]
    assert entries == [f"subject s01: s01/pair{i:04d}_spec.s2vt s01/pair{i:04d}_vol.s2vt"
                       for i in range(6)]
    for i in range(3):  # the second session's pairs follow the first's
        for kind in ("spec", "vol"):
            moved = tmp_path / f"both/s01/pair{i + 3:04d}_{kind}.s2vt"
            alone = tmp_path / f"second/s01/pair{i:04d}_{kind}.s2vt"
            assert moved.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("sid, message", [
    ("", "subject id '' is not one plain path component"),
    (".", "subject id '.' is not one plain path component"),
    ("..", "subject id '..' is not one plain path component"),
    ("../x", "subject id '../x' is not one plain path component"),
    ("a/b", "subject id 'a/b' is not one plain path component"),
    ("a\\b", "subject id 'a\\\\b' is not one plain path component"),
    ("a b", "subject id 'a b' is not one plain path component"),
    ("a\tb", "subject id 'a\\tb' is not one plain path component"),
    # the manifest grammar ends an id at its first ':'
    ("a:b", "bad subject line 'subject a:b: s01_eeg.s2vt s01_vols.s2vt'"),
], ids=["empty", "dot", "dotdot", "parent", "slash", "backslash", "space", "tab", "colon"])
def test_preprocess_rejects_subject_id_that_is_not_a_path_component(
        tmp_path, capsys, sid, message):
    """A subject id names an output directory and is one manifest token, so
    preprocess rejects any other id before it creates --out."""
    raw = write_raw_tree(tmp_path / "raw")
    raw.write_text(raw.read_text().replace("subject s01:", f"subject {sid}:"))
    rc = cli.main(["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw"]  # nothing written


# ---------------------------------------------------------------------------
# synth-data / train / eval / predict
# ---------------------------------------------------------------------------

def train_args(root, out):
    """A one-epoch micro `train` on the trained_run dataset into root/out."""
    return (
        ["train", "--manifest", str(root / "data/manifest.txt"),
         "--out", str(root / out),
         "--set", "epochs=1", "--set", "batch_size=4",
         "--set", "split_mode=fixed", "--set", "k_train=1", "--set", "k_test=1"]
        + ARCH_SETS
    )


def log_losses(path):
    """The loss column of a train.log."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [row.split(", ")[3] for row in rows[1:]]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One micro synth dataset plus a one-epoch training run, shared."""
    root = tmp_path_factory.mktemp("clirun")
    rc = cli.main(
        ["synth-data", "--subjects", "2", "--pairs", "4",
         "--out", str(root / "data")] + GEOMETRY_SETS
    )
    assert rc == 0
    assert cli.main(train_args(root, "run")) == 0
    return root


def test_train_leaves_checkpoints(trained_run):
    """A train output directory holds two checkpoint files and the log."""
    files = sorted((trained_run / "run").iterdir())
    assert [p.name for p in files] == ["best.ckpt", "last.ckpt", "train.log"]
    assert all(p.is_file() for p in files)


def test_train_log_records_the_manifest_geometry(trained_run):
    """train takes the geometry from the dataset manifest, so train.log's
    header records that geometry, not the run config's defaults."""
    header = (trained_run / "run/train.log").read_text().splitlines()
    for key_value in GEOMETRY_SETS[1::2]:
        assert f"# {key_value.replace('=', ' = ')}" in header


def test_train_log_records_the_manifest_name(tmp_path):
    """train.log's dataset line names the manifest train read, not the
    config's default."""
    assert cli.main(
        ["synth-data", "--subjects", "2", "--pairs", "2", "--out", str(tmp_path / "data"),
         "--set", "dataset=demo"] + GEOMETRY_SETS
    ) == 0
    assert cli.main(train_args(tmp_path, "run")) == 0
    header = (tmp_path / "run/train.log").read_text().splitlines()
    assert "# dataset = demo" in header


def test_train_log_records_the_manifest_fs_and_tr(tmp_path):
    """train.log's fs and tr lines are the manifest's, which a shared
    --config that sets them does not replace."""
    assert cli.main(
        ["synth-data", "--subjects", "2", "--pairs", "2", "--out", str(tmp_path / "data"),
         "--set", "fs=1000", "--set", "tr=2"] + GEOMETRY_SETS
    ) == 0
    config = tmp_path / "run.cfg"
    config.write_text("fs = 7\n")
    assert cli.main(train_args(tmp_path, "run") + ["--config", str(config)]) == 0
    header = (tmp_path / "run/train.log").read_text().splitlines()
    assert "# fs = 1000.0" in header and "# tr = 2.0" in header


@pytest.mark.parametrize("extra", [[], ["--set", "grad_clip=0.05"]], ids=["plain", "clipped"])
def test_train_overflowing_gradient_exits_4(trained_run, tmp_path, capsys, extra):
    """A loss weight whose gradients square past float64 stops training with
    a NumericError, not a run in which every Adam update is 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        rc = cli.main(train_args(trained_run, tmp_path / "run")
                      + ["--set", "lambda1=1e300"] + extra)
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: squared gradient on ") and "overflows float64" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_train_with_overflowing_poles_exits_4_where_exp_overflows(
        trained_run, tmp_path, capsys, monkeypatch):
    """Every a_log at 800 overflows A = -exp(a_log) in the first training
    sample's forward: train exits 4 with one error line naming that
    function, and no RuntimeWarning is raised on the way."""

    def model_with_poles_at_800(mcfg, seed):
        model = Model(mcfg, seed=seed)
        for name, t in model.store.params.items():
            if name.endswith(".a_log"):
                t.data[...] = 800.0
        return model

    monkeypatch.setattr(train, "Model", model_with_poles_at_800)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(train_args(trained_run, tmp_path / "run"))
    assert rc == 4
    assert capsys.readouterr().err == (
        "error: floating-point fault in autodiff._discretization: overflow encountered in exp\n"
    )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_predict_with_huge_norm_gains_exits_4_without_warnings(trained_run, tmp_path):
    """Every pre-norm gain at 1e200, through a written checkpoint: the
    `predict` process exits 4 with one error line naming the function whose
    product overflowed, and no RuntimeWarning reaches its stderr."""
    params, extra = s2vt.load_checkpoint(trained_run / "run/best.ckpt")
    for name in params:
        if name.endswith(".ln.gain"):
            params[name] = np.full_like(params[name], 1e200)
    s2vt.save_checkpoint(tmp_path / "huge.ckpt", params, extra)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in sys.path if p and os.path.isdir(p)))
    done = subprocess.run(
        [sys.executable, "-m", "eeg2vol.cli", "predict", "--checkpoint",
         str(tmp_path / "huge.ckpt"), "--out", str(tmp_path / "pred"),
         str(trained_run / "data/sub00/pair0000_spec.s2vt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert done.stderr == (
        "error: floating-point fault in autodiff._selective_states: "
        "overflow encountered in multiply\n"
    )


def test_train_attention_dropout_seeded(trained_run):
    """Dropout masks come from the run's seeded rng: two runs match, and the
    losses differ from the dropout-free run."""
    for out in ("drop_a", "drop_b"):
        assert cli.main(train_args(trained_run, out) + ["--set", "attention_dropout=0.1"]) == 0
    log_a = trained_run / "drop_a/train.log"
    assert log_a.read_bytes() == (trained_run / "drop_b/train.log").read_bytes()
    assert log_losses(log_a) != log_losses(trained_run / "run/train.log")


def test_eval_writes_report(trained_run, capsys):
    rc = cli.main(
        ["eval", "--manifest", str(trained_run / "data/manifest.txt"),
         "--checkpoint", str(trained_run / "run/best.ckpt"),
         "--out", str(trained_run / "eval"),
         "--set", "split_mode=fixed", "--set", "k_train=1", "--set", "k_test=1"]
    )
    assert rc == 0
    report = (trained_run / "eval/report.txt").read_text()
    assert "subject, n_samples, ssim_mean, ssim_std, psnr_mean, psnr_std" in report
    assert "ALL, " in report


def test_eval_report_does_not_depend_on_the_checkpoint_path(trained_run, tmp_path, monkeypatch):
    """A checkpoint named by a relative and by an absolute path gives
    byte-identical reports, which name it by its file name."""
    monkeypatch.chdir(trained_run)
    reports = []
    for ckpt in ("run/best.ckpt", str(trained_run / "run/best.ckpt")):
        out = tmp_path / f"eval{len(reports)}"
        assert cli.main(["eval", "--manifest", "data/manifest.txt", "--checkpoint", ckpt,
                         "--out", str(out)]) == 0
        reports.append((out / "report.txt").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0].startswith(b"# checkpoint = best.ckpt\n")


def test_eval_checkpoint_geometry_mismatch_exit_2(trained_run, tmp_path, capsys):
    """eval takes the model geometry from the checkpoint and rejects a
    manifest that disagrees with it."""
    from eeg2vol.model import Model, ModelConfig

    mcfg = ModelConfig((4, 5, 6, 3, 8, 12), embed=4, heads=2, vss_blocks=1, state_dim=2)
    Model(mcfg, seed=0).save(tmp_path / "wide.ckpt")
    rc = cli.main(
        ["eval", "--manifest", str(trained_run / "data/manifest.txt"),
         "--checkpoint", str(tmp_path / "wide.ckpt"), "--out", str(tmp_path / "eval")]
    )
    assert rc == 2
    assert "does not match model geometry (4, 5, 6, 3, 8, 12)" in capsys.readouterr().err


def test_predict_writes_volume(trained_run, capsys):
    spec_path = trained_run / "data/sub00/pair0000_spec.s2vt"
    rc = cli.main(
        ["predict", "--checkpoint", str(trained_run / "run/best.ckpt"),
         "--out", str(trained_run / "pred"), str(spec_path)]
    )
    assert rc == 0
    out = s2vt.read_tensor(trained_run / "pred/pair0000_vol.s2vt")
    assert out.shape == (3, 8, 8)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_predict_output_name_drops_only_the_spec_suffix(trained_run, tmp_path):
    """x_spectral_spec.s2vt predicts to x_spectral_vol.s2vt: only the
    trailing _spec is replaced."""
    spec = tmp_path / "x_spectral_spec.s2vt"
    shutil.copy(trained_run / "data/sub00/pair0000_spec.s2vt", spec)
    rc = cli.main(["predict", "--checkpoint", str(trained_run / "run/best.ckpt"),
                   "--out", str(tmp_path / "pred"), str(spec)])
    assert rc == 0
    assert sorted(p.name for p in (tmp_path / "pred").iterdir()) == ["x_spectral_vol.s2vt"]


def test_predict_geometry_mismatch_exit_2(trained_run, tmp_path, capsys):
    bad = tmp_path / "bad_spec.s2vt"
    s2vt.write_tensor(bad, np.zeros((4, 9, 9)))
    rc = cli.main(
        ["predict", "--checkpoint", str(trained_run / "run/best.ckpt"),
         "--out", str(tmp_path), str(bad)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "does not match" in err
    assert not (tmp_path / "bad_vol.s2vt").exists()  # rejected before compute


def test_predict_checkpoint_missing_parameter_exit_3(trained_run, tmp_path, capsys):
    # a well-formed checkpoint with one parameter left out: its index line
    # and its values
    ckpt = tmp_path / "partial.ckpt"
    params, extra = s2vt.load_checkpoint(trained_run / "run/best.ckpt")
    del params["dec.head.bias"]
    s2vt.save_checkpoint(ckpt, params, extra)
    rc = cli.main(
        ["predict", "--checkpoint", str(ckpt), "--out", str(tmp_path / "pred"),
         str(trained_run / "data/sub00/pair0000_spec.s2vt")]
    )
    assert rc == 3
    assert "checkpoint missing parameter dec.head.bias" in capsys.readouterr().err


def rewrite(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def predict_args(run, tmp, spec=None):
    """predict with the case's checkpoint copy tmp/ckpt on spec (default: a
    trained_run spectrogram)."""
    spec = spec or run / "data/sub00/pair0000_spec.s2vt"
    return ["predict", "--checkpoint", str(tmp / "ckpt"), "--out", str(tmp / "pred"), str(spec)]


def raw_fs_not_a_number(run, tmp):
    raw = write_raw_tree(tmp / "raw")
    rewrite(raw, "fs = 250", "fs = abc")
    return ["preprocess", "--manifest-in", str(raw), "--out", str(tmp / "out")]


def raw_header(old, new):
    """A preprocess of a raw tree whose header line old reads new instead."""
    def build(run, tmp):
        raw = write_raw_tree(tmp / "raw")
        rewrite(raw, old, new)
        return ["preprocess", "--manifest-in", str(raw), "--out", str(tmp / "out")]

    build.__name__ = "raw_" + new.replace(" = ", "_")
    return build


def manifest_geometry_not_a_number(run, tmp):
    shutil.copytree(run / "data", tmp / "data")
    manifest = tmp / "data/manifest.txt"
    rewrite(manifest, "geometry = 4 5 6", "geometry = 4 5 x")
    return ["train", "--manifest", str(manifest), "--out", str(tmp / "run")] + ARCH_SETS


def dataset_header(old, new):
    """A train on a copy of the trained_run dataset whose manifest header
    line old reads new instead."""
    def build(run, tmp):
        shutil.copytree(run / "data", tmp / "data")
        rewrite(tmp / "data/manifest.txt", old, new)
        return ["train", "--manifest", str(tmp / "data/manifest.txt"),
                "--out", str(tmp / "out")] + ARCH_SETS

    build.__name__ = "dataset_" + new.replace(" = ", "_")
    return build


def raw_header_repeated(run, tmp):
    # the fs line twice, with the same value
    raw = write_raw_tree(tmp / "raw")
    rewrite(raw, "fs = 250\n", "fs = 250\nfs = 250\n")
    return ["preprocess", "--manifest-in", str(raw), "--out", str(tmp / "out")]


def dataset_header_repeated(run, tmp):
    # a second geometry line
    shutil.copytree(run / "data", tmp / "data")
    with open(tmp / "data/manifest.txt", "a") as f:
        f.write("geometry = 4 5 6 3 8 4\n")
    return ["train", "--manifest", str(tmp / "data/manifest.txt"),
            "--out", str(tmp / "out")] + ARCH_SETS


def dataset_manifest_given_to_preprocess(run, tmp):
    return ["preprocess", "--manifest-in", str(run / "data/manifest.txt"),
            "--out", str(tmp / "out")]


def raw_manifest_given_to(command):
    """train or eval on a raw-session manifest: one with no geometry line."""
    def build(run, tmp):
        raw = write_raw_tree(tmp / "raw")
        args = [command, "--manifest", str(raw), "--out", str(tmp / "out")]
        return args + (["--checkpoint", str(tmp / "ckpt")] if command == "eval" else ARCH_SETS)

    build.__name__ = f"raw_manifest_given_to_{command}"
    return build


def checkpoint_metadata_not_a_number(run, tmp):
    rewrite_index(tmp / "ckpt", "# geometry 4 5 6", "# geometry 4 5 six")
    return predict_args(run, tmp)


def checkpoint_geometry_too_short(run, tmp):
    rewrite_index(tmp / "ckpt", "# geometry 4 5 6 3 8 8", "# geometry 4 5 6 3 8")
    return predict_args(run, tmp)


def checkpoint_geometry_zero(run, tmp):
    rewrite_index(tmp / "ckpt", "# geometry 4 5 6 3 8 8", "# geometry 4 5 6 3 8 0")
    return predict_args(run, tmp)


def checkpoint_metadata_missing(run, tmp):
    rewrite_index(tmp / "ckpt", "# embed 4\n", "")
    return predict_args(run, tmp)


def checkpoint_digest_missing(run, tmp):
    rewrite_index(tmp / "ckpt", index_line(tmp / "ckpt", "# sha256 ") + "\n", "")
    return predict_args(run, tmp)


def index_line_without_file(run, tmp):
    # the extents stripped: the name alone, a scalar, so the sizes no longer
    # add up to the payload
    line = index_line(tmp / "ckpt", "dec.head.bias ")
    rewrite_index(tmp / "ckpt", line + "\n", "dec.head.bias\n")
    return predict_args(run, tmp)


def index_entry_past_payload_end(run, tmp):
    # the entry's first extent doubled, so the entries run past the payload
    line = index_line(tmp / "ckpt", "dec.head.bias ")
    name, extent, *extents = line.split()
    grown = " ".join([name, str(2 * int(extent)), *extents])
    rewrite_index(tmp / "ckpt", line + "\n", grown + "\n")
    return predict_args(run, tmp)


def index_names_unsorted(run, tmp):
    # the first two parameter lines swapped; the payload keeps its order
    lines = index_lines(tmp / "ckpt")
    first, second = [line for line in lines if not line.startswith("#")][:2]
    rewrite_index(tmp / "ckpt", f"{first}\n{second}\n", f"{second}\n{first}\n")
    return predict_args(run, tmp)


def payload_value_appended(run, tmp):
    # one more value after the last parameter's, with a header that counts it
    # and a sha256 line that covers it
    ckpt, tensor = tmp / "ckpt", tmp / "payload.s2vt"
    params, _extra = s2vt.load_checkpoint(ckpt)
    values = np.concatenate([params[name].reshape(-1) for name in sorted(params)] + [[0.0]])
    s2vt.write_tensor(tensor, values)
    rewrite_index(ckpt, index_line(ckpt, "# sha256 "),
                  f"# sha256 {hashlib.sha256(values.data).hexdigest()}")
    join_checkpoint(ckpt, checkpoint_parts(ckpt)[0], tensor.read_bytes())
    return predict_args(run, tmp)


def index_name_repeated(run, tmp):
    # a second dec.head.bias entry, after the last one
    ckpt = tmp / "ckpt"
    index, payload = checkpoint_parts(ckpt)
    join_checkpoint(ckpt, index + index_line(ckpt, "dec.head.bias ") + "\n", payload)
    return predict_args(run, tmp)


def index_name_unknown(run, tmp):
    # a well-formed checkpoint with one more parameter, of four values, under
    # a name the model does not have
    params, extra = s2vt.load_checkpoint(tmp / "ckpt")
    params["dec.extra.weight"] = np.zeros((2, 2))
    s2vt.save_checkpoint(tmp / "ckpt", params, extra)
    return predict_args(run, tmp)


def index_shape_changed(run, tmp):
    # the same values under another shape: [3] read as [1, 3]
    line = index_line(tmp / "ckpt", "dec.head.bias ")
    name, extent = line.split()
    rewrite_index(tmp / "ckpt", line + "\n", f"{name} 1 {extent}\n")
    return predict_args(run, tmp)


def checkpoint_cut_after_index(run, tmp):
    # the file ends at the empty line that ends the index
    join_checkpoint(tmp / "ckpt", checkpoint_parts(tmp / "ckpt")[0], b"")
    return predict_args(run, tmp)


def predict_missing_input(run, tmp):
    return predict_args(run, tmp, tmp / "gone_spec.s2vt")


def predict_truncated_header(run, tmp):
    spec = tmp / "cut_spec.s2vt"
    # 16 fixed bytes plus 2 of the 12 extent bytes
    spec.write_bytes((run / "data/sub00/pair0000_spec.s2vt").read_bytes()[:18])
    return predict_args(run, tmp, spec)


def predict_huge_rank(run, tmp):
    """A 32-byte file whose header claims rank 2**32 - 1: 16 GiB of extents."""
    spec = tmp / "huge_spec.s2vt"
    spec.write_bytes(b"S2VT" + struct.pack("<III", 1, 2, 0xFFFFFFFF) + bytes(16))
    return predict_args(run, tmp, spec)


def predict_unknown_dtype(run, tmp):
    data = bytearray((run / "data/sub00/pair0000_spec.s2vt").read_bytes())
    data[8] = 9  # low byte of the u32 LE dtype code
    spec = tmp / "odd_spec.s2vt"
    spec.write_bytes(bytes(data))
    return predict_args(run, tmp, spec)


MALFORMED_INPUTS = [
    (raw_fs_not_a_number, "raw manifest header value is not a number"),
    (raw_header("fs = 250", "fs = nan"), "raw manifest header fs = nan: must be finite and > 0"),
    (raw_header("fs = 250", "fs = inf"), "raw manifest header fs = inf: must be finite and > 0"),
    (raw_header("fs = 250", "fs = 0"), "raw manifest header fs = 0.0: must be > 0"),
    (raw_header("fs = 250", "fs = -250"), "raw manifest header fs = -250.0: must be > 0"),
    (raw_header("tr = 2.16", "tr = nan"), "raw manifest header tr = nan: must be finite and > 0"),
    (raw_header("tr = 2.16", "tr = 0"), "raw manifest header tr = 0.0: must be > 0"),
    (raw_header("tr = 2.16", "tr = -2"), "raw manifest header tr = -2.0: must be > 0"),
    (raw_header("tr = 2.16", "tr = 0.001"),
     "raw manifest header fs * tr = 250 * 0.001: must give >= 1 sample"),
    (manifest_geometry_not_a_number, "manifest header value is not a number"),
    (dataset_header("fs = 250.0", "fs = nan"),
     "manifest.txt: manifest header fs = nan: must be finite and > 0"),
    (dataset_header("fs = 250.0", "fs = 0"), "manifest.txt: manifest header fs = 0.0: must be > 0"),
    (dataset_header("tr = 2.16", "tr = -3"), "manifest.txt: manifest header tr = -3.0: must be > 0"),
    (dataset_header("geometry = 4 5 6 3 8 8", "geometry = 4 5 6 3 8 0"),
     "manifest.txt: geometry must list C T F D H W, each >= 1"),
    (raw_header_repeated, "raw.txt: malformed line 'fs = 250': header key 'fs' repeated"),
    (dataset_header_repeated,
     "manifest.txt: malformed line 'geometry = 4 5 6 3 8 4': header key 'geometry' repeated"),
    (dataset_manifest_given_to_preprocess,
     "manifest.txt: a dataset manifest (it has a geometry line); "
     "preprocess reads a raw-session manifest"),
    (raw_manifest_given_to("train"), "raw.txt: raw manifest header missing key 'geometry'"),
    (raw_manifest_given_to("eval"), "raw.txt: raw manifest header missing key 'geometry'"),
    (checkpoint_metadata_not_a_number, "checkpoint metadata is not a number"),
    (checkpoint_geometry_too_short, "must list C T F D H W"),
    (checkpoint_geometry_zero, "must list C T F D H W, each >= 1"),
    (checkpoint_metadata_missing, "checkpoint index missing metadata 'embed'"),
    (checkpoint_digest_missing, "ckpt: payload does not match its sha256 line, or has none"),
    (index_line_without_file, "parameter sizes add up to"),
    (index_entry_past_payload_end, "parameter sizes add up to"),
    (index_names_unsorted, "ckpt: malformed line"),
    (payload_value_appended, "parameter sizes add up to"),
    (index_name_repeated, "malformed line 'dec.head.bias 3'"),
    (index_name_unknown, "checkpoint parameter dec.extra.weight is not a model parameter"),
    (index_shape_changed,
     "checkpoint parameter dec.head.bias has shape (1, 3), model expects (3,)"),
    (checkpoint_cut_after_index, "ckpt: truncated S2VT header"),
    (predict_missing_input, "tensor file not found"),
    (predict_truncated_header, "truncated S2VT header"),
    (predict_huge_rank, "truncated S2VT header"),
    (predict_unknown_dtype, "unknown dtype code 9"),
]


@pytest.mark.parametrize(
    "build, message", MALFORMED_INPUTS, ids=[build.__name__ for build, _ in MALFORMED_INPUTS]
)
def test_malformed_input_exit_3(trained_run, tmp_path, capsys, build, message):
    """Malformed manifests, checkpoints and S2VT files exit 3 with a message,
    not 1 with a traceback, and a malformed raw manifest leaves no output."""
    shutil.copy(trained_run / "run/best.ckpt", tmp_path / "ckpt")
    rc = cli.main(build(trained_run, tmp_path))
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def not_text(path):
    """path as a file that holds byte 0xff, which no UTF-8 text holds."""
    path.write_bytes(b"\xff\n")
    return path


def as_directory(path):
    """path as a directory, where a file is expected."""
    path.unlink(missing_ok=True)
    path.mkdir()
    return path


def train_on(run, tmp, config=None, manifest=None):
    args = ["train", "--manifest", str(manifest or run / "data/manifest.txt"),
            "--out", str(tmp / "out")] + ARCH_SETS
    return args + (["--config", str(config)] if config else [])


def config_directory(run, tmp):
    return train_on(run, tmp, config=as_directory(tmp / "run.cfg"))


def config_not_text(run, tmp):
    return train_on(run, tmp, config=not_text(tmp / "run.cfg"))


def manifest_directory(run, tmp):
    return train_on(run, tmp, manifest=as_directory(tmp / "manifest.txt"))


def manifest_not_text(run, tmp):
    return train_on(run, tmp, manifest=not_text(tmp / "manifest.txt"))


def raw_manifest_directory(run, tmp):
    return ["preprocess", "--manifest-in", str(as_directory(tmp / "raw.txt")),
            "--out", str(tmp / "out")]


def checkpoint_directory(run, tmp):
    as_directory(tmp / "ckpt")
    return predict_args(run, tmp)


def checkpoint_index_not_text(run, tmp):
    # the first index line starts with byte 0xff
    (tmp / "ckpt").write_bytes(b"\xff" + (tmp / "ckpt").read_bytes())
    return predict_args(run, tmp)


def predict_input_directory(run, tmp):
    return predict_args(run, tmp, as_directory(tmp / "x_spec.s2vt"))


UNREADABLE_INPUTS = [
    (config_directory, 2),
    (config_not_text, 2),
    (manifest_directory, 3),
    (manifest_not_text, 3),
    (raw_manifest_directory, 3),
    (checkpoint_directory, 3),
    (checkpoint_index_not_text, 3),
    (predict_input_directory, 3),
]


@pytest.mark.parametrize(
    "build, code", UNREADABLE_INPUTS, ids=[build.__name__ for build, _ in UNREADABLE_INPUTS]
)
def test_unreadable_input_is_one_error_line(trained_run, tmp_path, capsys, build, code):
    """A directory where an input file belongs, or a text input that does not
    decode, exits 2 (the config) or 3 with one `error:` line naming it, and
    writes no output."""
    shutil.copy(trained_run / "run/best.ckpt", tmp_path / "ckpt")
    rc = cli.main(build(trained_run, tmp_path))
    err = capsys.readouterr().err
    assert rc == code, err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err, err
    assert not (tmp_path / "out").exists() and not (tmp_path / "pred").exists()


def test_predict_flipped_payload_byte_exit_3(trained_run, tmp_path, capsys):
    """One bit flipped 100 bytes from the end of a checkpoint's payload fails
    its sha256 check: exit 3 with one `error:` line, and no output."""
    data = bytearray((trained_run / "run/best.ckpt").read_bytes())
    data[-100] ^= 0x01
    (tmp_path / "ckpt").write_bytes(bytes(data))
    rc = cli.main(predict_args(trained_run, tmp_path))
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == (f"error: {tmp_path / 'ckpt'}: "
                   "payload does not match its sha256 line, or has none\n")
    assert not (tmp_path / "pred").exists()


def old_layout(ckpt):
    """Checkpoint file ckpt rewritten as a directory of the earlier layout:
    its index in index.txt and its payload in params.s2vt."""
    index, payload = checkpoint_parts(ckpt)
    ckpt.unlink()
    ckpt.mkdir()
    (ckpt / "index.txt").write_text(index)
    (ckpt / "params.s2vt").write_bytes(payload)


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_old_layout_checkpoint_exit_3(trained_run, tmp_path, capsys, command):
    """A checkpoint directory of the earlier layout does not load: exit 3
    with one `error:` line that calls it a checkpoint, and no output."""
    ckpt = tmp_path / "ckpt"
    shutil.copy(trained_run / "run/best.ckpt", ckpt)
    old_layout(ckpt)
    argv = (predict_args(trained_run, tmp_path) if command == "predict" else
            ["eval", "--manifest", str(trained_run / "data/manifest.txt"),
             "--checkpoint", str(ckpt), "--out", str(tmp_path / "pred")])
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == f"error: checkpoint unreadable: {ckpt}: Is a directory\n"
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("name", ["best.ckpt", "last.ckpt"])
def test_train_over_old_layout_checkpoint_exit_2(trained_run, tmp_path, capsys, name):
    """train into an --out that holds a checkpoint directory of the earlier
    layout exits 2 with one `error:` line naming it, before it writes
    anything."""
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(trained_run / "run/best.ckpt", run / name)
    old_layout(run / name)
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(["train", "--manifest", str(trained_run / "data/manifest.txt"),
                   "--out", str(run)] + ARCH_SETS)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(run / name) in err, err
    assert sorted(tmp_path.rglob("*")) == before


def test_predict_colliding_output_names_exit_2(trained_run, tmp_path, capsys):
    """Two inputs that map to one output file are rejected before any write."""
    first = trained_run / "data/sub00/pair0000_spec.s2vt"
    second = trained_run / "data/sub01/pair0000_spec.s2vt"
    rc = cli.main(
        ["predict", "--checkpoint", str(trained_run / "run/best.ckpt"),
         "--out", str(tmp_path / "pred"), str(first), str(second)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    assert not (tmp_path / "pred").exists()


OUT_COMMANDS = {
    "preprocess": lambda run, tmp: ["preprocess",
                                    "--manifest-in", str(write_raw_tree(tmp / "raw"))],
    "synth-data": lambda run, tmp: ["synth-data"] + GEOMETRY_SETS,
    "train": lambda run, tmp: ["train", "--manifest", str(run / "data/manifest.txt")] + ARCH_SETS,
    "eval": lambda run, tmp: ["eval", "--manifest", str(run / "data/manifest.txt"),
                              "--checkpoint", str(run / "run/best.ckpt")],
    "predict": lambda run, tmp: ["predict", "--checkpoint", str(run / "run/best.ckpt"),
                                 str(run / "data/sub00/pair0000_spec.s2vt")],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_that_is_a_file_exit_2(trained_run, tmp_path, capsys, command, under):
    """An --out that is an existing file, or lies under one, exits 2 with one
    `error:` line naming the file, before the command writes anything."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = OUT_COMMANDS[command](trained_run, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(argv + ["--out", str(taken / "run" if under else taken)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err, err
    assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "kept\n"


BAD_VALUES = [
    ("train", ["--set", "heads=0"], "heads = 0: must be >= 1"),
    ("train", ["--set", "embed=0"], "embed = 0: must be >= 1"),
    ("synth-data", ["--set", "depth=0"], "depth = 0: must be >= 1"),
    ("synth-data", ["--set", "t_bins=-1"], "t_bins = -1: must be >= 0"),
    ("train", ["--set", "batch_size=0"], "batch_size = 0: must be >= 1"),
    ("train", ["--set", "batch_size=-3"], "batch_size = -3: must be >= 1"),
    ("train", ["--set", "epochs=0"], "epochs = 0: must be >= 1"),
    ("train", ["--set", "state_dim=0"], "state_dim = 0: must be >= 1"),
    ("train", ["--set", "vss_blocks=0"], "vss_blocks = 0: must be >= 1"),
    ("train", ["--set", "beta1=2"], "must lie in [0, 1)"),
    ("train", ["--set", "beta2=-1"], "must lie in [0, 1)"),
    ("train", ["--set", "grad_clip=-1"], "grad_clip = -1.0: must be >= 0"),
    ("train", ["--set", "ssim_window=9"], "ssim_window 9 exceeds slice extent 8x8"),
    ("train", ["--set", "lambda1=0", "--set", "lambda2=0"],
     "lambda1 and lambda2 must not both be 0"),
    ("train", ["--set", "min_lr=1"], "min_lr must not exceed lr"),
    ("train", ["--set", "channels=99", "--set", "height=16"],
     "train takes channels, height from the dataset manifest"),
    ("train", ["--set", "t_bins=5"], "train takes t_bins from the dataset manifest"),
    ("train", ["--set", "dataset=other"], "train takes dataset from the dataset manifest"),
    ("train", ["--set", "fs=500"], "train takes fs from the dataset manifest"),
    ("train", ["--set", "tr=1"], "train takes tr from the dataset manifest"),
    # the preprocessing recipe is fixed by the files the manifest lists
    ("train", ["--set", "frame_len=64", "--set", "pairing_mode=lag"],
     "train takes frame_len, pairing_mode from the dataset manifest"),
    ("train", ["--set", "volume_target=2 4 4", "--set", "hop=50"],
     "train takes hop, volume_target from the dataset manifest"),
    ("synth-data", ["--set", "t_bins=20", "--set", "height=8"],
     "encoded plane 20x2 exceeds target 8x8"),
    ("synth-data", ["--set", "f_bins=40"], "encoded plane 5x10 exceeds target 8x8"),
    ("synth-data", ["--set", "f_bins=1"], "f_bins = 1 is too few for 2 encoder stages"),
    ("synth-data", ["--set", "f_bins=3", "--set", "enc_stages=3"],
     "f_bins = 3 is too few for 3 encoder stages"),
    ("preprocess", ["--set", "volume_target=-1 8 8"], "volume_target = '-1 8 8': must be"),
    ("preprocess", ["--set", "volume_target=3 x 8"], "volume_target = '3 x 8': must be"),
    ("preprocess", ["--set", "volume_target=0 8 8"], "volume_target = '0 8 8': must be"),
    ("preprocess", ["--set", "frame_len=-4"], "frame_len = -4: must be >= 0"),
    ("preprocess", ["--set", "hop=-2"], "hop = -2: must be >= 0"),
    ("preprocess", ["--set", "pairing_mode=bogus"],
     "pairing_mode = 'bogus': must be one of tr | lag"),
    ("synth-data", ["--set", "t_bins=0", "--set", "f_bins=0", "--set", "pairing_mode=bogus"],
     "pairing_mode = 'bogus': must be one of tr | lag"),
    ("preprocess", ["--set", "cutoff_hz=0"],
     "empty 20x0 spectrogram: check frame_len, hop, cutoff_hz and span_s"),
    ("preprocess", ["--set", "frame_len=100000"],
     "empty 0x50000 spectrogram: check frame_len, hop, cutoff_hz and span_s"),
    ("preprocess", ["--set", "pairing_mode=lag", "--set", "span_s=0"], "span_s = 0.0: must be > 0"),
    ("preprocess", ["--set", "fs=500"],
     "preprocess takes fs from the raw manifest and its files (resize: volume_target)"),
    ("preprocess", ["--set", "tr=1"], "preprocess takes tr from the raw manifest"),
    ("preprocess", ["--set", "dataset=other"], "preprocess takes dataset from the raw manifest"),
    ("preprocess", ["--set", "channels=4"], "preprocess takes channels from the raw manifest"),
    ("preprocess", ["--set", "t_bins=5", "--set", "f_bins=6"],
     "preprocess takes t_bins, f_bins from the raw manifest"),
    ("preprocess", ["--set", "width=4", "--set", "depth=2", "--set", "height=4"],
     "preprocess takes depth, height, width from the raw manifest and its files "
     "(resize: volume_target)"),
    ("eval", ["--set", "embed=64"], "eval takes embed from the checkpoint"),
    ("eval", ["--set", "embed=64", "--set", "height=16"],
     "eval takes height, embed from the checkpoint"),
    ("eval", ["--set", "cutoff_hz=10"], "eval takes cutoff_hz from the dataset manifest"),
    ("eval", ["--set", "tr=1", "--set", "dataset=other", "--set", "fs=500"],
     "eval takes dataset, fs, tr from the dataset manifest"),
    ("eval", ["--set", "span_s=4", "--set", "lag_s=2", "--set", "volume_target=2 4 4"],
     "eval takes span_s, lag_s, volume_target from the dataset manifest"),
    ("eval", ["--set", "ssim_window=9"], "ssim_window 9 exceeds slice extent 8x8"),
    ("synth-data", ["--set", "dataset=x\ngeometry = 1 1 1 1 1 1"],
     "dataset = 'x\\ngeometry = 1 1 1 1 1 1': must hold no line break"),
    ("synth-data", ["--subjects", "0"], "--subjects and --pairs must be >= 1"),
    ("synth-data", ["--pairs", "0"], "--subjects and --pairs must be >= 1"),
]


@pytest.mark.parametrize(
    "command, extra, message",
    BAD_VALUES,
    ids=[f"{command}-{'='.join(extra).replace('--set=', '').lstrip('-')}"
         for command, extra, _ in BAD_VALUES],
)
def test_bad_values_exit_2(trained_run, tmp_path, capsys, command, extra, message):
    """Values that would crash or be silently replaced are rejected up front."""
    if command == "train":
        argv = train_args(trained_run, tmp_path / "run")
    elif command == "eval":
        argv = ["eval", "--manifest", str(trained_run / "data/manifest.txt"),
                "--checkpoint", str(trained_run / "run/best.ckpt"), "--out", str(tmp_path / "run")]
    elif command == "preprocess":
        raw = write_raw_tree(tmp_path / "raw")
        argv = ["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / "data")]
    else:
        argv = ["synth-data", "--out", str(tmp_path / "data")] + GEOMETRY_SETS
    rc = cli.main(argv + extra)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data").exists() and not (tmp_path / "run").exists()


def test_predict_noddi_geometry(tmp_path):
    """An untrained NODDI-geometry checkpoint maps a spectrogram to 30x64x64."""
    from eeg2vol.model import Model, ModelConfig
    from eeg2vol.presets import preset_config

    cfg = preset_config("noddi")
    model = Model(ModelConfig.from_run_config(cfg), seed=0)
    assert model.cfg.geometry == (64, 20, 25, 30, 64, 64)
    model.save(tmp_path / "noddi.ckpt")
    spec = np.random.default_rng(0).random((64, 20, 25))
    s2vt.write_tensor(tmp_path / "x_spec.s2vt", spec)
    rc = cli.main(
        ["predict", "--checkpoint", str(tmp_path / "noddi.ckpt"),
         "--out", str(tmp_path / "pred"), str(tmp_path / "x_spec.s2vt")]
    )
    assert rc == 0
    out = s2vt.read_tensor(tmp_path / "pred/x_vol.s2vt")
    assert out.shape == (30, 64, 64)


def test_checkpoint_reloads_every_architecture_key(tmp_path):
    """Every architecture key off its default survives save/from_checkpoint."""
    from eeg2vol.model import Model, ModelConfig

    mcfg = ModelConfig((3, 5, 7, 2, 8, 12), embed=6, heads=3, enc_stages=3,
                       vss_blocks=1, state_dim=3)
    model = Model(mcfg, seed=4)
    model.save(tmp_path / "arch.ckpt")
    reloaded = Model.from_checkpoint(tmp_path / "arch.ckpt")
    assert reloaded.cfg == model.cfg
    spec = np.random.default_rng(1).random((3, 5, 7))
    assert np.array_equal(reloaded.predict(spec), model.predict(spec))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_unknown_set_key_exit_2_lists_valid_keys(capsys):
    rc = cli.main(["synth-data", "--set", "bogus=1", "--out", "x"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    for key in ("embed", "lambda1", "ssim_window", "restart_period"):
        assert key in err


def test_removed_keys_exit_2_list_valid_keys(tmp_path, capsys):
    """select (never read) and scan_mode (one scan kernel) are not keys."""
    for item in ("select=best", "scan_mode=blocked"):
        rc = cli.main(["train", "--manifest", str(tmp_path / "manifest.txt"),
                       "--set", item, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        key = item.split("=")[0]
        assert f"unknown config key {key!r}" in err
        valid = err.split("valid keys: ")[1]
        assert "embed" in valid and key not in valid


def test_malformed_set_exit_2(capsys):
    rc = cli.main(["synth-data", "--set", "embed", "--out", "x"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_config_file_loading(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("embed = 8\nheads = 2\n# a comment\n")
    from eeg2vol.config import Config

    cfg = Config.load(cfg_file, overrides=["heads=4"])
    assert cfg.embed == 8 and cfg.heads == 4  # overrides win


def test_help_enumerates_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in SCHEMA:
        assert key in out


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_help_says_file(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # however argparse wraps it
    assert "--checkpoint CHECKPOINT checkpoint file" in out


def test_removed_flags_and_commands_exit_2(tmp_path, capsys):
    """predict takes no config, --seed duplicated --set seed=N and bench
    duplicated the benchmark's timings; each is now an argparse error."""
    for command in (
        "predict --checkpoint c --set embed=64 x_spec.s2vt",
        "train --manifest m.txt --seed 3",
        "bench",
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(command.split() + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
