"""Command-line entry point: preprocess, synth-data, train, eval, predict,
and bench subcommands over the library modules."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import s2vt
from .config import Config, schema_help
from .data import synth_dataset
from .dsp import (
    DatasetManifest,
    EegRecording,
    build_pairs,
    parse_manifest,
    read_manifest,
    write_manifest,
)
from .errors import ConfigError, DataError, Eeg2VolError
from .model import Model, ModelConfig
from .train import evaluate_run, train_run


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eeg2vol",
        description="EEG-spectrogram-to-fMRI-volume synthesis pipeline",
        epilog="config keys (settable via file or --set):\n" + schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="K=V",
            help="override one config key (repeatable)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default="out", help="output directory")
        return p

    p = common(sub.add_parser("preprocess", help="raw recordings -> paired dataset"))
    p.add_argument("--manifest-in", required=True, help="raw-session manifest")

    p = common(sub.add_parser("synth-data", help="generate a synthetic paired dataset"))
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--pairs", type=int, default=16)

    p = common(sub.add_parser("train", help="train a model on a paired dataset"))
    p.add_argument("--manifest", required=True)

    p = common(sub.add_parser("eval", help="evaluate a checkpoint"))
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)

    p = common(sub.add_parser("predict", help="spectrograms -> volume files"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("inputs", nargs="+", help="spectrogram S2VT files")

    common(sub.add_parser("bench", help="selective-scan throughput and forward latency"))
    return parser


def _load_config(args):
    cfg = Config.load(args.config, args.overrides)
    if args.seed is not None:
        cfg.set("seed", args.seed)
    return cfg


def _read_raw_manifest(path):
    """Raw-session manifest: name/fs/tr header plus `subject id: eeg vols`."""
    header, sessions = parse_manifest(path)
    for key in ("name", "fs", "tr"):
        if key not in header:
            raise DataError(f"{path}: raw manifest missing header key {key!r}")
    try:
        return header["name"], float(header["fs"]), float(header["tr"]), sessions
    except ValueError as exc:
        raise DataError(f"{path}: raw manifest header value is not a number: {exc}") from exc


def cmd_preprocess(args):
    cfg = _load_config(args)
    name, fs, tr_s, sessions = _read_raw_manifest(args.manifest_in)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = Path(args.manifest_in).parent
    subjects = []
    geometry = None
    for sid, eeg_path, vol_path in sessions:
        try:
            eeg = s2vt.read_tensor(base / eeg_path)
            vols = s2vt.read_tensor(base / vol_path)
            pairs = build_pairs(
                EegRecording(eeg, fs),
                vols,
                tr_s,
                frame_len=cfg.frame_len or None,
                hop=cfg.hop or None,
                cutoff_hz=cfg.cutoff_hz,
                pairing_mode=cfg.pairing_mode,
                span_s=cfg.span_s,
                lag_s=cfg.lag_s,
                volume_target=cfg.volume_target_tuple(),
            )
        except Eeg2VolError as exc:
            raise type(exc)(f"subject {sid} ({eeg_path}): {exc}") from exc
        entries = []
        for i, (spec, vol) in enumerate(pairs):
            spec_rel = f"{sid}/pair{i:04d}_spec.s2vt"
            vol_rel = f"{sid}/pair{i:04d}_vol.s2vt"
            s2vt.write_tensor(out / spec_rel, spec.data)
            s2vt.write_tensor(out / vol_rel, vol.data)
            entries.append((spec_rel, vol_rel))
        if geometry is None:
            c, t, f = pairs[0][0].data.shape
            d, h, w = pairs[0][1].data.shape
            geometry = (c, t, f, d, h, w)
        subjects.append((sid, entries))
        print(f"subject {sid}: {len(entries)} pairs")
    manifest = DatasetManifest(name, fs, tr_s, geometry, subjects)
    write_manifest(out / "manifest.txt", manifest)
    print(f"wrote {out / 'manifest.txt'}")


def cmd_synth_data(args):
    cfg = _load_config(args)
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


def cmd_train(args):
    cfg = _load_config(args)
    manifest = read_manifest(args.manifest, validate=True)
    result = train_run(cfg, manifest, Path(args.manifest).parent, args.out)
    print(f"best held-out SSIM {result['best_ssim']:.4f}")
    print(f"checkpoints and log in {args.out}")


def cmd_eval(args):
    cfg = _load_config(args)
    manifest = read_manifest(args.manifest, validate=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
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
    _load_config(args)  # rejects unknown --set keys
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
        target = out / (Path(path).stem.replace("_spec", "") + "_vol.s2vt")
        if target in targets:
            raise ConfigError(f"{targets[target]} and {path} would both write {target}")
        targets[target] = path
    out.mkdir(parents=True, exist_ok=True)
    for target, path in targets.items():
        spec = s2vt.read_tensor(path)
        volume = model.predict(spec)
        s2vt.write_tensor(target, volume)
        print(f"{path} -> {target} {volume.shape}")


def cmd_bench(args):
    from .bench import run_bench

    cfg = _load_config(args)
    lines = run_bench(seed=cfg.seed)
    for line in lines:
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.csv").write_text("\n".join(lines) + "\n")


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "bench": cmd_bench,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except Eeg2VolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
