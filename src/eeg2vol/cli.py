"""Command-line entry point: preprocess, synth-data, train, eval and predict
subcommands over the library modules."""

from __future__ import annotations

import argparse
import re
import sys
from itertools import chain
from pathlib import Path

from . import s2vt
from .config import Config, schema_help
from .data import synth_dataset
from .dsp import (
    GEOMETRY_KEYS,
    MANIFEST_KEYS,
    RECIPE_KEYS,
    DatasetManifest,
    EegRecording,
    build_pairs,
    read_manifest,
    spectrogram_geometry,
    stft_params,
    window_samples,
    write_manifest,
    write_pairs,
)
from .errors import ConfigError, DataError, Eeg2VolError
from .model import ARCH_KEYS, Model, ModelConfig
from .train import evaluate_run, train_run

# keys eval takes from the checkpoint, never from a --set; train and
# preprocess take dsp.MANIFEST_KEYS from the manifest the same way, and train
# and eval take the rest of MANIFEST_KEYS and dsp.RECIPE_KEYS from the dataset
# manifest and its files
CHECKPOINT_KEYS = GEOMETRY_KEYS + ARCH_KEYS


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eeg2vol",
        description="EEG-spectrogram-to-fMRI-volume synthesis pipeline",
        epilog="config keys (settable via file or --set):\n" + schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", default=None, help="key = value config file")
            p.add_argument(
                "--set",
                dest="overrides",
                action="append",
                default=[],
                metavar="K=V",
                help="override one config key (repeatable)",
            )
        p.add_argument("--out", default="out", help="output directory")
        return p

    p = command("preprocess", "raw recordings -> paired dataset")
    p.add_argument("--manifest-in", required=True, help="raw-session manifest")

    p = command("synth-data", "generate a synthetic paired dataset")
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--pairs", type=int, default=16)

    p = command("train", "train a model on a paired dataset")
    p.add_argument("--manifest", required=True)

    p = command("eval", "evaluate a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)

    # the checkpoint fixes everything predict computes, so it takes no config
    p = command("predict", "spectrograms -> volume files", config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("inputs", nargs="+", help="spectrogram S2VT files")
    return parser


def _reject_set_keys(args, keys, source):
    """Reject --set keys taken from source; a shared --config may hold them."""
    set_keys = {item.split("=", 1)[0].strip() for item in args.overrides}
    taken = [k for k in keys if k in set_keys]
    if taken:
        raise ConfigError(
            f"{args.command} takes {', '.join(taken)} from {source}; drop these --set keys"
        )


def _check_out(out):
    """Reject an --out that is an existing file or lies under one: the
    nearest existing path at or above it must be a directory."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} exists and is not a directory")


def _check_sessions(subjects, base, volume_target):
    """Check every subject id and read every session's S2VT headers before
    preprocess writes anything.

    An id must be one plain path component, as it names the subject's output
    directory and is one token of a manifest line (exit 3). Each EEG file
    must hold a [C, samples] array and each volume file a [V, D, H, W] stack
    (exit 3). Each volume_target extent must fit its raw volume (exit 2),
    and every session must give the same EEG channel count and output volume
    shape, the (C, D, H, W) returned, so one manifest geometry describes them
    all (exit 3).
    """
    first = None
    for sid, eeg_path, vol_path in ((sid, *s) for sid, sessions in subjects for s in sessions):
        if sid in ("", ".", "..") or re.search(r"[\s:/\\]", sid):
            raise DataError(
                f"subject id {sid!r} is not one plain path component: it must be "
                "non-empty, not . or .., and hold no whitespace, ':', '/' or '\\'"
            )
        try:
            eeg_shape, _ = s2vt.read_header(base / eeg_path)
            vol_shape, _ = s2vt.read_header(base / vol_path)
        except DataError as exc:
            raise DataError(f"subject {sid} ({eeg_path}): {exc}") from exc
        if len(eeg_shape) != 2:
            raise DataError(f"subject {sid}: EEG {eeg_shape} is not a [C, samples] array")
        if len(vol_shape) != 4:
            raise DataError(f"subject {sid}: volumes {vol_shape} are not a [V, D, H, W] stack")
        raw = tuple(vol_shape[1:])
        if volume_target is not None and any(t > r for t, r in zip(volume_target, raw)):
            raise ConfigError(
                f"subject {sid}: volume_target {volume_target} exceeds raw volume {raw}"
            )
        shape = (eeg_shape[0],) + (volume_target or raw)
        found = f"{shape[0]} EEG channels, volumes {shape[1:]}"
        if first is None:
            first = (sid, found, shape)
        elif found != first[1]:
            raise DataError(f"subject {sid}: {found}; subject {first[0]}: {first[1]}")
    return first[2]


def cmd_preprocess(args):
    cfg = Config.load(args.config, args.overrides)
    _reject_set_keys(args, MANIFEST_KEYS, "the raw manifest and its files (resize: volume_target)")
    raw = read_manifest(args.manifest_in)
    if raw.geometry is not None:
        raise DataError(f"{args.manifest_in}: a dataset manifest (it has a geometry line); "
                        "preprocess reads a raw-session manifest")
    if not raw.subjects:
        raise DataError(f"{args.manifest_in}: raw manifest lists no subject sessions")
    try:
        window_samples(raw.fs, raw.tr_s)  # a TR window must hold at least one sample
    except ConfigError as exc:  # the data, not the config, is at fault
        raise DataError(f"{args.manifest_in}: raw manifest header {exc}") from exc
    frame_len, hop = stft_params(raw.fs, cfg.frame_len, cfg.hop)
    window = window_samples(raw.fs, raw.tr_s, cfg.pairing_mode, cfg.span_s)
    t, f = spectrogram_geometry(window, raw.fs, frame_len, hop, cfg.cutoff_hz)
    volume_target = cfg.volume_target_tuple()
    base = Path(args.manifest_in).parent
    c, d, h, w = _check_sessions(raw.subjects, base, volume_target)

    def session_arrays(sid, eeg_path, vol_path):
        try:
            pairs = build_pairs(
                EegRecording(s2vt.read_tensor(base / eeg_path), raw.fs),
                s2vt.read_tensor(base / vol_path),
                raw.tr_s,
                frame_len=frame_len,
                hop=hop,
                cutoff_hz=cfg.cutoff_hz,
                pairing_mode=cfg.pairing_mode,
                span_s=cfg.span_s,
                lag_s=cfg.lag_s,
                volume_target=volume_target,
            )
        except Eeg2VolError as exc:
            raise type(exc)(f"subject {sid} ({eeg_path}): {exc}") from exc
        return [(spec.data, vol.data) for spec, vol in pairs]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    subjects = []
    for sid, sessions in raw.subjects:
        # one numbering across a subject's sessions, in manifest order, so a
        # held-out subject is held out with all of its runs
        arrays = chain.from_iterable(session_arrays(sid, *session) for session in sessions)
        entries = write_pairs(out, sid, arrays)
        subjects.append((sid, entries))
        print(f"subject {sid}: {len(entries)} pairs")
    manifest = DatasetManifest(raw.name, raw.fs, raw.tr_s, (c, t, f, d, h, w), subjects)
    write_manifest(out / "manifest.txt", manifest)
    print(f"wrote {out / 'manifest.txt'}")


def cmd_synth_data(args):
    cfg = Config.load(args.config, args.overrides)
    if args.subjects < 1 or args.pairs < 1:
        raise ConfigError("--subjects and --pairs must be >= 1")
    geometry = ModelConfig.from_run_config(cfg).geometry
    manifest = synth_dataset(
        geometry,
        args.subjects,
        args.pairs,
        cfg.seed,
        args.out,
        name=cfg.dataset,
        fs=cfg.fs,
        tr_s=cfg.tr,
    )
    total = sum(len(p) for _, p in manifest.subjects)
    print(f"wrote {total} pairs over {args.subjects} subjects to {args.out}")


def _read_dataset_manifest(path):
    """The dataset manifest train and eval read; a raw manifest is exit 3."""
    manifest = read_manifest(path)
    if manifest.geometry is None:
        raise DataError(f"{path}: raw manifest header missing key 'geometry': "
                        "train and eval read the dataset manifest preprocess writes")
    return manifest


def cmd_train(args):
    cfg = Config.load(args.config, args.overrides)
    _reject_set_keys(args, MANIFEST_KEYS + RECIPE_KEYS, "the dataset manifest")
    manifest = _read_dataset_manifest(args.manifest)
    result = train_run(cfg, manifest, Path(args.manifest).parent, args.out)
    print(f"best held-out SSIM {result['best_ssim']:.4f}")
    print(f"checkpoints and log in {args.out}")


def cmd_eval(args):
    cfg = Config.load(args.config, args.overrides)
    _reject_set_keys(args, CHECKPOINT_KEYS, "the checkpoint")
    _reject_set_keys(args, ("dataset", "fs", "tr") + RECIPE_KEYS, "the dataset manifest")
    manifest = _read_dataset_manifest(args.manifest)
    lines = evaluate_run(
        cfg,
        manifest,
        Path(args.manifest).parent,
        args.checkpoint,
        out_path=Path(args.out) / "report.txt" if args.out else None,
    )
    for line in lines:
        print(line)


def cmd_predict(args):
    model = Model.from_checkpoint(args.checkpoint)
    c, t, f = model.cfg.geometry[:3]
    out = Path(args.out)
    targets = {}  # output path -> input path
    # geometry and output-name gate before any compute
    for path in args.inputs:
        shape, _ = s2vt.read_header(path)
        if tuple(shape) != (c, t, f):
            raise ConfigError(
                f"{path}: spectrogram shape {tuple(shape)} does not match "
                f"checkpoint geometry {(c, t, f)}"
            )
        target = out / (Path(path).stem.removesuffix("_spec") + "_vol.s2vt")
        if target in targets:
            raise ConfigError(f"{targets[target]} and {path} would both write {target}")
        targets[target] = path
    out.mkdir(parents=True, exist_ok=True)
    for target, path in targets.items():
        spec = s2vt.read_tensor(path)
        volume = model.predict(spec)
        s2vt.write_tensor(target, volume)
        print(f"{path} -> {target} {volume.shape}")


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        _COMMANDS[args.command](args)
    except Eeg2VolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
