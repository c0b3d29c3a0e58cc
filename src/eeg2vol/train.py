"""Supervised training and evaluation over manifest-listed sample pairs."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import s2vt
from .dsp import resolve_pair_paths
from .errors import ConfigError, DataError, NumericError
from .losses import (
    check_loss_weights,
    check_ssim_window,
    finite_psnr_stats,
    format_report_row,
    hybrid_loss,
    psnr,
    ssim,
    REPORT_HEADER,
)
from .model import Model, ModelConfig
from .optim import AdamW, check_lr_floor, lr_at


def load_pairs(manifest, base_dir, subjects):
    """Load the listed subjects' S2VT pairs into memory, each array checked
    against the manifest geometry: [(subject_id, spec, vol), ...]."""
    shapes = (tuple(manifest.geometry[:3]), tuple(manifest.geometry[3:]))
    wanted = set(subjects)
    out = []
    for sid, pairs in resolve_pair_paths(manifest, base_dir).subjects:
        if sid not in wanted:
            continue
        for paths in pairs:
            arrays = [s2vt.read_tensor(path) for path in paths]
            for path, array, want in zip(paths, arrays, shapes):
                if array.shape != want:
                    raise DataError(
                        f"subject {sid}: {path} has shape {array.shape}, manifest declares {want}"
                    )
            out.append((sid, *arrays))
    if not out:
        raise DataError("no samples loaded for the requested subjects")
    return out


def _batch_grads(model, batch, cfg, rng=None):
    """Accumulate mean-loss gradients over one batch; returns the mean loss.

    Each sample runs forward, loss and backward before the next one starts,
    so one sample's tape is alive at a time: no tensor points back at a
    tape, so reference counting frees each one as soon as it is dropped.
    rng draws the attention-dropout masks in sample order; nothing is drawn
    at dropout 0.
    """
    total = 0.0
    scale = 1.0 / len(batch)
    for _sid, spec, vol in batch:
        with ad.Tape() as tape:
            pred = model.forward(ad.Tensor(spec), rng=rng)
            loss = hybrid_loss(pred, ad.Tensor(vol), cfg)
        value = loss.item()
        if not math.isfinite(value):
            raise NumericError("non-finite training loss")
        total += value * scale
        tape.backward(loss, seed=np.full_like(loss.data, scale))
    return total


def evaluate_samples(model, samples, cfg):
    """Per-subject SSIM/PSNR rows plus a pooled summary row; returns the rows,
    the pooled mean SSIM and the pooled mean of the finite PSNRs."""
    by_subject = {}
    for sid, spec, vol in samples:
        pred = model.predict(spec)
        by_subject.setdefault(sid, ([], []))
        by_subject[sid][0].append(float(ssim(pred, vol, cfg).item()))
        by_subject[sid][1].append(psnr(pred, vol))
    rows = [
        format_report_row(sid, ssims, psnrs)
        for sid, (ssims, psnrs) in sorted(by_subject.items())
    ]
    all_ssims = [v for s, _ in by_subject.values() for v in s]
    all_psnrs = [v for _, p in by_subject.values() for v in p]
    rows.append(format_report_row("ALL", all_ssims, all_psnrs))
    return rows, float(np.mean(all_ssims)), finite_psnr_stats(all_psnrs)[0]


def split_for(cfg, manifest):
    """The (train_ids, test_ids) of the run Config's fold. Under split_mode
    "loso", fold i holds out the i-th of the sorted subjects; under "fixed",
    the one fold takes k_train and k_test subjects shuffled by seed."""
    subjects = sorted(manifest.subject_ids)
    if len(subjects) < 2:
        raise ConfigError("need at least two subjects to build splits")
    k_train, k_test = cfg.k_train, cfg.k_test
    fixed = cfg.split_mode == "fixed"
    if fixed and k_train + k_test > len(subjects):
        raise ConfigError(
            f"{k_train}+{k_test} subjects requested, only {len(subjects)} available"
        )
    n_folds = 1 if fixed else len(subjects)
    if not 0 <= cfg.fold < n_folds:
        raise ConfigError(f"fold {cfg.fold} outside 0..{n_folds - 1}")
    if not fixed:
        held_out = subjects[cfg.fold]
        return [s for s in subjects if s != held_out], [held_out]
    np.random.default_rng(cfg.seed).shuffle(subjects)
    return sorted(subjects[:k_train]), sorted(subjects[k_train : k_train + k_test])


def train_run(cfg, manifest, base_dir, out_dir):
    """Full training run: returns {'best_ssim', 'history', 'model', ...}.

    Deterministic for a fixed seed. best.ckpt holds the highest held-out
    SSIM, last.ckpt the most recent completed epoch.
    """
    mcfg = ModelConfig.from_run_config(cfg, geometry=manifest.geometry)
    check_loss_weights(cfg)
    check_lr_floor(cfg)
    check_ssim_window(cfg, *mcfg.geometry[4:])
    out_dir = Path(out_dir)
    for ckpt in (out_dir / "best.ckpt", out_dir / "last.ckpt"):
        if ckpt.is_dir():  # a checkpoint of the earlier directory layout
            raise ConfigError(f"{ckpt} is a directory, not a checkpoint file: "
                              "remove it or train into another --out")
    train_ids, test_ids = split_for(cfg, manifest)
    train_samples = load_pairs(manifest, base_dir, train_ids)
    test_samples = load_pairs(manifest, base_dir, test_ids)

    model = Model(mcfg, seed=cfg.seed)
    optimizer = AdamW(model.store.params, cfg)
    rng = np.random.default_rng(cfg.seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train.log"
    log = open(log_path, "w")
    # the keys the manifest fixes, the geometry the model trains at among
    # them, come from the manifest, not the config
    header = dict(cfg.items(), **manifest.run_values())
    for key, value in sorted(header.items()):
        log.write(f"# {key} = {value}\n")
    log.write(f"# train_subjects = {' '.join(train_ids)}\n")
    log.write(f"# test_subjects = {' '.join(test_ids)}\n")
    log.write("epoch, step, lr, loss, eval_ssim, eval_psnr\n")

    best_ssim = -math.inf
    history = []
    step = 0
    n = len(train_samples)
    batch = min(cfg.batch_size, n)
    steps_per_epoch = n // batch
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for b in range(steps_per_epoch):
                lr = lr_at(epoch, b / steps_per_epoch, cfg)
                members = [train_samples[i] for i in order[b * batch : (b + 1) * batch]]
                loss = _batch_grads(model, members, cfg, rng)
                optimizer.step(lr)
                # eval, the checkpoint saves and the returned model need no
                # gradients: free them now rather than at the next step
                model.store.zero_grad()
                epoch_losses.append(loss)
                step += 1
                log.write(f"{epoch}, {step}, {lr:.10g}, {loss:.10g}, -, -\n")
            _rows, eval_ssim, eval_psnr = evaluate_samples(model, test_samples, cfg)
            log.write(
                f"{epoch}, {step}, {lr_at(epoch, 1.0 - 1e-12, cfg):.10g}, "
                f"{np.mean(epoch_losses):.10g}, {eval_ssim:.10g}, {eval_psnr:.10g}\n"
            )
            log.flush()
            history.append(
                {"epoch": epoch, "loss": float(np.mean(epoch_losses)),
                 "eval_ssim": eval_ssim, "eval_psnr": eval_psnr}
            )
            model.save(out_dir / "last.ckpt", extra={"epoch": str(epoch)})
            if eval_ssim > best_ssim:
                best_ssim = eval_ssim
                model.save(out_dir / "best.ckpt", extra={"epoch": str(epoch)})
    finally:
        log.close()
    return {
        "model": model,
        "best_ssim": best_ssim,
        "history": history,
        "train_subjects": train_ids,
        "test_subjects": test_ids,
        "log_path": log_path,
    }


def evaluate_run(cfg, manifest, base_dir, checkpoint, out_path=None):
    """Evaluate a checkpoint file on the configured test fold; returns report rows."""
    model = Model.from_checkpoint(checkpoint)
    if tuple(manifest.geometry) != model.cfg.geometry:
        raise ConfigError(
            f"manifest geometry {tuple(manifest.geometry)} does not match "
            f"model geometry {model.cfg.geometry}"
        )
    _train_ids, test_ids = split_for(cfg, manifest)
    samples = load_pairs(manifest, base_dir, test_ids)
    rows, _mean_ssim, _mean_psnr = evaluate_samples(model, samples, cfg)
    lines = [f"# checkpoint = {Path(checkpoint).resolve().name}", REPORT_HEADER] + rows
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text("\n".join(lines) + "\n")
    return lines
