"""End-to-end CLI behavior: subcommands, exit codes, and file artifacts."""

import shutil

import numpy as np
import pytest

from eeg2vol import cli, s2vt
from eeg2vol.bench import SCAN_LENGTHS, bench_scan, run_bench
from eeg2vol.config import SCHEMA
from eeg2vol.data import synth_raw_session

from test_data_train import tree_hashes

MICRO_SETS = [
    "--set", "channels=4", "--set", "t_bins=5", "--set", "f_bins=6",
    "--set", "depth=3", "--set", "height=8", "--set", "width=8",
    "--set", "embed=4", "--set", "heads=2", "--set", "state_dim=2",
    "--set", "vss_blocks=1",
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

    manifest = read_manifest(tmp_path / "out/manifest.txt", validate=True)
    assert manifest.geometry == (2, 20, 25, 3, 8, 8)


def test_preprocess_rerun_byte_identical(tmp_path):
    raw = write_raw_tree(tmp_path / "raw")
    for name in ("o1", "o2"):
        assert cli.main(
            ["preprocess", "--manifest-in", str(raw), "--out", str(tmp_path / name)]
        ) == 0
    assert tree_hashes(tmp_path / "o1") == tree_hashes(tmp_path / "o2")


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
        + MICRO_SETS
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
         "--out", str(root / "data")] + MICRO_SETS
    )
    assert rc == 0
    assert cli.main(train_args(root, "run")) == 0
    return root


def test_train_leaves_checkpoints(trained_run):
    assert (trained_run / "run/best.ckpt/index.txt").exists()
    assert (trained_run / "run/last.ckpt/index.txt").exists()
    assert (trained_run / "run/train.log").exists()


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
        + MICRO_SETS
    )
    assert rc == 0
    report = (trained_run / "eval/report.txt").read_text()
    assert "subject, n_samples, ssim_mean, ssim_std, psnr_mean, psnr_std" in report
    assert "ALL, " in report


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
         "--out", str(trained_run / "pred"), str(spec_path)] + MICRO_SETS
    )
    assert rc == 0
    out = s2vt.read_tensor(trained_run / "pred/pair0000_vol.s2vt")
    assert out.shape == (3, 8, 8)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_predict_geometry_mismatch_exit_2(trained_run, tmp_path, capsys):
    bad = tmp_path / "bad_spec.s2vt"
    s2vt.write_tensor(bad, np.zeros((4, 9, 9)))
    rc = cli.main(
        ["predict", "--checkpoint", str(trained_run / "run/best.ckpt"),
         "--out", str(tmp_path), str(bad)] + MICRO_SETS
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "does not match" in err
    assert not (tmp_path / "bad_vol.s2vt").exists()  # rejected before compute


def test_predict_checkpoint_missing_parameter_exit_3(trained_run, tmp_path, capsys):
    ckpt = tmp_path / "partial.ckpt"
    shutil.copytree(trained_run / "run/best.ckpt", ckpt)
    index = ckpt / "index.txt"
    lines = index.read_text().splitlines(keepends=True)
    index.write_text("".join(line for line in lines if not line.startswith("dec.head.bias ")))
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


def manifest_geometry_not_a_number(run, tmp):
    shutil.copytree(run / "data", tmp / "data")
    manifest = tmp / "data/manifest.txt"
    rewrite(manifest, "geometry = 4 5 6", "geometry = 4 5 x")
    return ["train", "--manifest", str(manifest), "--out", str(tmp / "run")] + MICRO_SETS


def checkpoint_metadata_not_a_number(run, tmp):
    rewrite(tmp / "ckpt/index.txt", "# geometry 4 5 6", "# geometry 4 5 six")
    return predict_args(run, tmp)


def checkpoint_geometry_too_short(run, tmp):
    rewrite(tmp / "ckpt/index.txt", "# geometry 4 5 6 3 8 8", "# geometry 4 5 6 3 8")
    return predict_args(run, tmp)


def checkpoint_geometry_zero(run, tmp):
    rewrite(tmp / "ckpt/index.txt", "# geometry 4 5 6 3 8 8", "# geometry 4 5 6 3 8 0")
    return predict_args(run, tmp)


def checkpoint_metadata_missing(run, tmp):
    rewrite(tmp / "ckpt/index.txt", "# embed 4\n", "")
    return predict_args(run, tmp)


def index_line_without_file(run, tmp):
    rewrite(tmp / "ckpt/index.txt", "dec.head.bias dec.head.bias.s2vt", "dec.head.bias")
    return predict_args(run, tmp)


def predict_missing_input(run, tmp):
    return predict_args(run, tmp, tmp / "gone_spec.s2vt")


def predict_truncated_header(run, tmp):
    spec = tmp / "cut_spec.s2vt"
    # 16 fixed bytes plus 2 of the 12 extent bytes
    spec.write_bytes((run / "data/sub00/pair0000_spec.s2vt").read_bytes()[:18])
    return predict_args(run, tmp, spec)


def predict_unknown_dtype(run, tmp):
    data = bytearray((run / "data/sub00/pair0000_spec.s2vt").read_bytes())
    data[8] = 9  # low byte of the u32 LE dtype code
    spec = tmp / "odd_spec.s2vt"
    spec.write_bytes(bytes(data))
    return predict_args(run, tmp, spec)


MALFORMED_INPUTS = [
    (raw_fs_not_a_number, "raw manifest header value is not a number"),
    (manifest_geometry_not_a_number, "manifest header value is not a number"),
    (checkpoint_metadata_not_a_number, "checkpoint metadata is not a number"),
    (checkpoint_geometry_too_short, "must list C T F D H W"),
    (checkpoint_geometry_zero, "must list C T F D H W, each >= 1"),
    (checkpoint_metadata_missing, "checkpoint index missing metadata 'embed'"),
    (index_line_without_file, "malformed line 'dec.head.bias'"),
    (predict_missing_input, "tensor file not found"),
    (predict_truncated_header, "truncated S2VT header"),
    (predict_unknown_dtype, "unknown dtype code 9"),
]


@pytest.mark.parametrize(
    "build, message", MALFORMED_INPUTS, ids=[build.__name__ for build, _ in MALFORMED_INPUTS]
)
def test_malformed_input_exit_3(trained_run, tmp_path, capsys, build, message):
    """Malformed manifests, checkpoints and S2VT files exit 3 with a message,
    not 1 with a traceback."""
    shutil.copytree(trained_run / "run/best.ckpt", tmp_path / "ckpt")
    rc = cli.main(build(trained_run, tmp_path))
    assert rc == 3
    assert message in capsys.readouterr().err


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


BAD_VALUES = [
    ("train", ["--set", "heads=0"], "embed width and heads must be >= 1"),
    ("train", ["--set", "embed=0"], "embed width and heads must be >= 1"),
    ("synth-data", ["--set", "depth=0"], "must list C T F D H W, each >= 1"),
    ("synth-data", ["--set", "t_bins=-1"], "must list C T F D H W, each >= 1"),
    ("train", ["--set", "batch_size=0"], "batch_size = 0: must be >= 1"),
    ("train", ["--set", "batch_size=-3"], "batch_size = -3: must be >= 1"),
    ("train", ["--set", "epochs=0"], "at least 1 epoch"),
    ("train", ["--set", "state_dim=0"], "vss_blocks and state_dim must be >= 1"),
    ("train", ["--set", "vss_blocks=0"], "vss_blocks and state_dim must be >= 1"),
    ("train", ["--set", "beta1=2"], "must lie in [0, 1)"),
    ("train", ["--set", "beta2=-1"], "must lie in [0, 1)"),
    ("train", ["--set", "grad_clip=-1"], "grad_clip = -1.0: must be >= 0"),
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
    else:
        argv = ["synth-data", "--out", str(tmp_path / "data")] + MICRO_SETS
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


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_scan_rows_and_checksums():
    rows = bench_scan(channels=8, state=4, seed=0, repeats=1)
    assert [r["length"] for r in rows] == list(SCAN_LENGTHS) == [256, 1024, 4096]
    for row in rows:
        assert set(row) == {"length", "tok_s"} and row["tok_s"] > 0


def test_run_bench_lines_format():
    lines = run_bench(seed=0, include_forward=False)
    assert lines[0] == "kind, key, tok_s, forward_s"
    assert len(lines) == 4
    for line, length in zip(lines[1:], SCAN_LENGTHS):
        fields = line.split(", ")
        assert fields[0] == "scan" and int(fields[1]) == length
        assert float(fields[2]) > 0 and fields[3] == "-"
