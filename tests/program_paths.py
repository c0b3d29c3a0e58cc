"""Every program path at micro geometry, and a sha256 per output file.

`run_paths(root, exe=None)` runs each eeg2vol command under `root`: through
`cli.main` in-process when exe is None, otherwise as a subprocess of exe,
one command string split with shlex (`"eeg2vol"`, `"python -m eeg2vol.cli"`).
It asserts what each path must leave behind and returns
{relative path: sha256} for every file under root.

The paths:
- `synth-data` at micro geometry, with a dataset name and a long-digit TR;
- `synth-data` that derives T and F from the STFT keys;
- `train` plain; with gradient clipping, attention dropout and a 5-wide SSIM
  window; and with global SSIM on a fixed split;
- `eval` and `predict` on the plain run's best checkpoint, and a `predict`
  whose `--out` is an existing file, which must exit 2;
- `preprocess` in `tr` mode from a config file, on two raw sessions plus a
  second session of subject s0, then `train` and `eval` on its output, and a
  `train --set fs=500` and a `train` on a config file that sets a key twice,
  each of which must exit 2;
- `preprocess` in `lag` mode with a `volume_target`.

Run as a script, it works in a temporary directory and prints the digest
JSON as its last line:

    python tests/program_paths.py [EXECUTABLE]

A bit-identity claim is two such runs, before and after a change, on one
machine with one OPENBLAS_NUM_THREADS value, and a diff of their last lines.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from eeg2vol import cli, s2vt
from eeg2vol.data import synth_raw_session

MICRO_GEOMETRY = ["channels=4", "t_bins=5", "f_bins=6", "depth=3", "height=8", "width=8"]
# a model small enough that every path runs in seconds
MICRO_MODEL = ["embed=8", "heads=2", "vss_blocks=1", "state_dim=2", "epochs=1"]
# with the default STFT keys the spectrogram (T, F) of a raw session would
# not fit the micro model's 8x8 plane
RAW_CONFIG = ["frame_len = 100", "hop = 100", "cutoff_hz = 40",
              "embed = 8", "heads = 2", "vss_blocks = 1", "state_dim = 2", "epochs = 1"]


def tree_hashes(root):
    """Relative path -> content hash for every file under root."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _sets(keys):
    return [arg for key in keys for arg in ("--set", key)]


def _write_raw_sessions(raw):
    """Two raw sessions of 4 channels at 250 Hz with five 3x8x8 volumes at
    TR 2 s, and a raw manifest that lists session s1 a second time as a
    session of subject s0."""
    raw.mkdir()
    lines = ["name = raw", "fs = 250", "tr = 2"]
    for s in range(2):
        eeg, vols = synth_raw_session(4, 2500, 250.0, 5, (3, 8, 8), seed=s, tr_s=2.0)
        s2vt.write_tensor(raw / f"s{s}_eeg.s2vt", eeg)
        s2vt.write_tensor(raw / f"s{s}_vols.s2vt", vols)
        lines.append(f"subject s{s}: s{s}_eeg.s2vt s{s}_vols.s2vt")
    lines.append("subject s0: s1_eeg.s2vt s1_vols.s2vt")
    (raw / "raw.txt").write_text("\n".join(lines) + "\n")


def run_paths(root, exe=None):
    """Run every path under root; {relative path: sha256} of every file."""
    root = Path(root).resolve()
    # a relative PYTHONPATH names a directory under the caller's cwd
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep))
    cwd = os.getcwd()
    # commands take paths relative to root, so no output records where root is
    os.chdir(root)
    try:
        _run_paths(exe, env)
    finally:
        os.chdir(cwd)
    return tree_hashes(root)


def _run_paths(exe, env):
    def run(*args, code=0):
        if exe is None:
            got = cli.main(list(args))
        else:
            got = subprocess.run(shlex.split(exe) + list(args), env=env).returncode
        assert got == code, f"eeg2vol {' '.join(args)}: exit {got}, expected {code}"

    def lines(path):
        return Path(path).read_text().splitlines()

    run("synth-data", "--subjects", "3", "--pairs", "4", "--out", "data",
        *_sets(MICRO_GEOMETRY + ["dataset=demo", "tr=2.123456789"]))
    assert "tr = 2.123456789" in lines("data/manifest.txt"), "manifest lost tr digits"
    # no t_bins or f_bins: the model config derives them from fs, tr and the STFT keys
    run("synth-data", "--subjects", "1", "--pairs", "1", "--out", "ddata",
        *_sets(["channels=4", "depth=3", "height=8", "width=8",
                "frame_len=100", "hop=100", "cutoff_hz=40"]))
    assert "geometry = 4 5 16 3 8 8" in lines("ddata/manifest.txt"), "derived geometry"

    run("train", "--manifest", "data/manifest.txt", "--out", "run", *_sets(MICRO_MODEL))
    assert sorted(p.name for p in Path("run/best.ckpt").iterdir()) == [
        "index.txt", "params.s2vt"], "a checkpoint is one payload plus its index"
    run("train", "--manifest", "data/manifest.txt", "--out", "run_clip",
        *_sets(MICRO_MODEL + ["grad_clip=0.05", "attention_dropout=0.1", "ssim_window=5"]))
    run("train", "--manifest", "data/manifest.txt", "--out", "run_global",
        *_sets(MICRO_MODEL + ["ssim_aggregation=global", "split_mode=fixed",
                              "k_train=2", "k_test=1"]))
    run("eval", "--manifest", "data/manifest.txt", "--checkpoint", "run/best.ckpt",
        "--out", "report")
    run("predict", "--checkpoint", "run/best.ckpt", "--out", "pred",
        "data/sub00/pair0000_spec.s2vt")
    assert Path("pred/pair0000_vol.s2vt").is_file(), "predict wrote no volume"
    Path("taken").write_text("a file where predict's output directory would go\n")
    run("predict", "--checkpoint", "run/best.ckpt", "--out", "taken",
        "data/sub00/pair0000_spec.s2vt", code=2)

    _write_raw_sessions(Path("raw"))
    Path("run.cfg").write_text("\n".join(RAW_CONFIG) + "\n")
    run("preprocess", "--config", "run.cfg", "--manifest-in", "raw/raw.txt", "--out", "pdata")
    assert "geometry = 4 5 16 3 8 8" in lines("pdata/manifest.txt"), "preprocess geometry"
    s0 = {line for line in lines("pdata/manifest.txt") if line.startswith("subject s0:")}
    assert len(s0) == 10, f"both s0 sessions give 10 distinct pairs, got {len(s0)}"
    run("train", "--config", "run.cfg", "--manifest", "pdata/manifest.txt", "--out", "prun")
    # train takes fs and tr from the dataset manifest, never from a --set
    assert "# tr = 2.0" in lines("prun/train.log"), "train.log lost the manifest tr"
    run("train", "--config", "run.cfg", "--manifest", "pdata/manifest.txt", "--out", "prun_fs",
        "--set", "fs=500", code=2)
    Path("twice.cfg").write_text("\n".join(RAW_CONFIG + ["epochs = 2"]) + "\n")
    run("train", "--config", "twice.cfg", "--manifest", "pdata/manifest.txt",
        "--out", "prun_twice", code=2)
    run("eval", "--config", "run.cfg", "--manifest", "pdata/manifest.txt",
        "--checkpoint", "prun/best.ckpt", "--out", "preport")
    assert Path("preport/report.txt").is_file(), "eval wrote no report"

    run("preprocess", "--manifest-in", "raw/raw.txt", "--out", "ldata",
        *_sets(["frame_len=100", "hop=100", "cutoff_hz=40", "pairing_mode=lag",
                "span_s=4", "lag_s=2", "volume_target=2 4 4"]))
    assert "geometry = 4 10 16 2 4 4" in lines("ldata/manifest.txt"), "lag-mode geometry"


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(f"usage: {sys.argv[0]} [EXECUTABLE]")
    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_paths(tmp, sys.argv[1] if len(sys.argv) == 2 else None)
    print(json.dumps(hashes, sort_keys=True))
