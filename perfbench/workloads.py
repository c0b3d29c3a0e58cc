"""The three benchmark workloads, driven through eeg2vol's public entry points.

Each workload has `setup(work, seed)` (inputs from the seed, model build or
checkpoint load, warm-up), `run_unit(index)` (one closed-loop unit of work:
a `train_run` job or one raw session through the inference pipeline),
`traced_unit(recorder)` (the fixed unit a traced run records) and `checks(units)`.
The program sees only the generated inputs; its own seed stays 0.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eeg2vol import dsp, s2vt, train
from eeg2vol.config import Config
from eeg2vol.data import synth_dataset, synth_raw_session
from eeg2vol.model import Model, ModelConfig
from eeg2vol.presets import CN_EPFL_RAW_VOLUME, preset_config
from scan_table import STAGE_SHAPES

PROGRAM_SEED = 0


@dataclass
class Unit:
    """One unit of measured work: `items` trained samples or produced volumes."""

    items: int
    wall_s: float
    ops: int  # operations attempted: training steps or volumes
    output: str  # fingerprint of the result, equal only for bit-identical results
    final_loss: float | None = None
    eval_ssim: float | None = None
    latencies_s: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def volume_problems(vol, shape):
    """Empty when vol is finite, inside [0, 1] and of the given shape."""
    problems = []
    if vol.shape != shape:
        problems.append(f"shape {vol.shape} != {shape}")
    if not np.all(np.isfinite(vol)):
        problems.append("non-finite voxels")
    elif vol.min() < 0.0 or vol.max() > 1.0:
        problems.append(f"values in [{vol.min():.3g}, {vol.max():.3g}] outside [0, 1]")
    return problems


def timed_predict(model, spec_path, out_path):
    """The `eeg2vol predict` path for one file: (volume, read-to-written seconds)."""
    t0 = time.perf_counter()
    vol = model.predict(s2vt.read_tensor(spec_path))
    s2vt.write_tensor(out_path, vol)
    return vol, time.perf_counter() - t0


class TrainWorkload:
    """`train_run` on a synthetic LOSO dataset, fold 0; one job per unit.

    scan_shapes: the linear_scan shapes a traced job must record, if known.
    """

    ITEMS_METRIC = ("train_samples_per_s", "samples/s")

    def __init__(self, preset, overrides, subjects, pairs_per_subject, expect_decrease,
                 scan_shapes=None):
        self.preset = preset
        self.overrides = overrides
        self.subjects = subjects
        self.pairs_per_subject = pairs_per_subject
        self.expect_decrease = expect_decrease
        self.scan_shapes = scan_shapes

    def setup(self, work, seed):
        self.work = Path(work)
        self.cfg = preset_config(self.preset) if self.preset else Config()
        for key, value in {**self.overrides, "seed": PROGRAM_SEED, "split_mode": "loso",
                           "fold": 0, "workers": 1}.items():
            self.cfg.set(key, value)
        mcfg = ModelConfig.from_run_config(self.cfg)
        self.data_dir = self.work / "data"
        self.manifest = synth_dataset(
            mcfg.geometry, self.subjects, self.pairs_per_subject, seed, self.data_dir
        )
        train_ids, test_ids = train.split_for(self.cfg, self.manifest)
        n = sum(len(p) for sid, p in self.manifest.subjects if sid in train_ids)
        batch = max(1, min(self.cfg.batch_size, n))
        self.samples_per_job = self.cfg.epochs * max(1, n // batch) * batch
        resolved = dsp.resolve_pair_paths(self.manifest, self.data_dir)
        self.test_specs = [s for sid, pairs in resolved.subjects if sid in test_ids
                           for s, _v in pairs]
        t0 = time.perf_counter()
        Model(mcfg, seed=PROGRAM_SEED).predict(s2vt.read_tensor(self.test_specs[0]))
        return {"warmup_s": time.perf_counter() - t0}

    def run_unit(self, index):
        return self._job(f"job{index}")

    def traced_unit(self, recorder):
        # samples inside train_run are not visible from here: the job is the sample
        recorder.sample = "job"
        return self._job("traced")

    def _job(self, name):
        """One `eeg2vol train` run."""
        out = self.work / name
        t0 = time.perf_counter()
        result = train.train_run(self.cfg, self.manifest, self.data_dir, out)
        wall = time.perf_counter() - t0
        return Unit(
            items=self.samples_per_job,
            wall_s=wall,
            ops=len(_log_losses(out / "train.log")["steps"]),
            output=float(result["history"][-1]["loss"]).hex(),
            final_loss=result["history"][-1]["loss"],
            eval_ssim=result["best_ssim"],
            detail={"result": result, "out": out},
        )

    def checks(self, units):
        """[(check name, problem or None)] over the measured jobs.

        The `eeg2vol predict` path from both checkpoints of the last job gives
        its predict latencies.
        """
        found = []
        for unit in units:
            losses = _log_losses(unit.detail["out"] / "train.log")
            bad = [v for v in losses["steps"] + losses["epochs"] if not math.isfinite(v)]
            found.append(("train.log losses finite", f"{len(bad)} non-finite" if bad else None))
        losses = [u.final_loss for u in units]
        found.append(("final_loss repeats across jobs",
                      None if len(set(losses)) == 1 else f"final losses {losses}"))
        last = units[-1]
        history = last.detail["result"]["history"]
        if self.expect_decrease:
            first, final = history[0]["loss"], history[-1]["loss"]
            found.append(("last-epoch loss below first-epoch loss",
                          None if final < first else f"{final} >= {first}"))
        model = last.detail["result"]["model"]
        shape = tuple(model.cfg.geometry[3:])
        expected = [model.predict(s2vt.read_tensor(spec)) for spec in self.test_specs]
        for ckpt in ("best.ckpt", "last.ckpt"):
            reloaded = Model.from_checkpoint(last.detail["out"] / ckpt)
            for i, spec_path in enumerate(self.test_specs):
                vol, seconds = timed_predict(
                    reloaded, spec_path, last.detail["out"] / "pred" / ckpt / f"{i:04d}_vol.s2vt")
                last.latencies_s.append(seconds)
                problems = volume_problems(vol, shape)
                if not np.array_equal(vol, expected[i]):
                    problems.append(f"differs by {np.max(np.abs(vol - expected[i])):.3g}")
                found.append((f"{ckpt} reload predicts like the returned model",
                              "; ".join(problems) or None))
        return found


def _log_losses(path):
    """Loss column of a train.log: per-step rows and per-epoch summary rows."""
    steps, epochs = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line.startswith("epoch,"):
            continue
        fields = [f.strip() for f in line.split(",")]
        (steps if fields[4] == "-" else epochs).append(float(fields[3]))
    return {"steps": steps, "epochs": epochs}


class InferWorkload:
    """Raw cn-epfl sessions -> `build_pairs` -> pair files -> `predict` -> volumes.

    Each unit is one raw session of VOLUMES_PER_SESSION TRs, cycled in order.
    """

    ITEMS_METRIC = ("volumes_per_s", "volumes/s")
    SESSIONS = 4
    VOLUMES_PER_SESSION = 2
    SPEC_SHAPE = (64, 11, 50)
    # the cn-epfl decoder plane and widths equal noddi's
    scan_shapes = tuple(STAGE_SHAPES.values())

    def setup(self, work, seed):
        self.work = Path(work)
        self.cfg = preset_config("cn-epfl")
        mcfg = ModelConfig.from_run_config(self.cfg)
        self.vol_shape = tuple(mcfg.geometry[3:])
        n_samples = int(round(self.cfg.fs * self.cfg.tr)) * self.VOLUMES_PER_SESSION
        self.sessions = []
        for i in range(self.SESSIONS):
            eeg, vols = synth_raw_session(
                mcfg.geometry[0], n_samples, self.cfg.fs, self.VOLUMES_PER_SESSION,
                CN_EPFL_RAW_VOLUME, seed=seed * self.SESSIONS + i, tr_s=self.cfg.tr,
            )
            paths = (self.work / "raw" / f"sub{i:02d}_eeg.s2vt",
                     self.work / "raw" / f"sub{i:02d}_vols.s2vt")
            s2vt.write_tensor(paths[0], eeg)
            s2vt.write_tensor(paths[1], vols)
            self.sessions.append((f"sub{i:02d}", *paths))
        self.ckpt = self.work / "model.ckpt"
        Model(mcfg, seed=PROGRAM_SEED).save(self.ckpt)
        t0 = time.perf_counter()
        self.model = Model.from_checkpoint(self.ckpt)
        load_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self._pairs(*self.sessions[0][1:], "warm")
        self.model.predict(s2vt.read_tensor(self.work / "warm" / "pair0000_spec.s2vt"))
        return {"checkpoint_load_s": load_s, "warmup_s": time.perf_counter() - t0}

    def _pairs(self, eeg_path, vols_path, out_name):
        cfg = self.cfg
        pairs = dsp.build_pairs(
            dsp.EegRecording(s2vt.read_tensor(eeg_path), cfg.fs),
            s2vt.read_tensor(vols_path),
            cfg.tr,
            frame_len=cfg.frame_len or None,
            hop=cfg.hop or None,
            cutoff_hz=cfg.cutoff_hz,
            pairing_mode=cfg.pairing_mode,
            volume_target=cfg.volume_target_tuple(),
        )
        out = self.work / out_name
        specs = []
        for k, (spec, vol) in enumerate(pairs):
            specs.append(out / f"pair{k:04d}_spec.s2vt")
            s2vt.write_tensor(specs[-1], spec.data)
            s2vt.write_tensor(out / f"pair{k:04d}_vol.s2vt", vol.data)
        return specs, [spec.data.shape for spec, _vol in pairs]

    def run_unit(self, index):
        return self._session(index % self.SESSIONS, f"pass{index}")

    def traced_unit(self, recorder):
        """A predict user's path: load the checkpoint, then session 0, one sample per volume."""
        recorder.sample = "load"
        self.model = Model.from_checkpoint(self.ckpt)
        return self._session(0, "traced", mark=lambda sample: setattr(recorder, "sample", sample))

    def _session(self, index, name, mark=lambda sample: None):
        sid, eeg_path, vols_path = self.sessions[index]
        t0 = time.perf_counter()
        mark("pairs")
        specs, spec_shapes = self._pairs(eeg_path, vols_path, name)
        volumes, latencies = [], []
        for k, spec_path in enumerate(specs):
            mark(k)
            vol, seconds = timed_predict(
                self.model, spec_path, self.work / name / f"pair{k:04d}_pred.s2vt"
            )
            volumes.append(vol)
            latencies.append(seconds)
        return Unit(
            items=len(volumes),
            wall_s=time.perf_counter() - t0,
            ops=len(volumes),
            output=hashlib.sha256(b"".join(v.tobytes() for v in volumes)).hexdigest(),
            latencies_s=latencies,
            detail={"volumes": volumes, "spec_shapes": spec_shapes, "session": sid},
        )

    def checks(self, units):
        found = []
        for unit in units:
            for shape in unit.detail["spec_shapes"]:
                found.append(("spectrogram shape",
                              None if shape == self.SPEC_SHAPE else f"{shape} != {self.SPEC_SHAPE}"))
            for vol in unit.detail["volumes"]:
                found.append(("volume finite, in [0, 1], shaped",
                              "; ".join(volume_problems(vol, self.vol_shape)) or None))
        return found


WORKLOADS = {
    # noddi preset geometry 64x20x25 -> 30x64x64 with the default model;
    # batch 1 because a batch-2 noddi step peaked at 7.5 GB on a 2-CPU, 8 GB host
    "train-noddi": lambda: TrainWorkload(
        "noddi", {"batch_size": 1, "epochs": 1}, subjects=3, pairs_per_subject=1,
        expect_decrease=False, scan_shapes=tuple(STAGE_SHAPES.values()),
    ),
    # README desk-scale geometry 4x5x6 -> 3x8x8 with the learnability model
    "train-micro": lambda: TrainWorkload(
        None,
        {"channels": 4, "t_bins": 5, "f_bins": 6, "depth": 3, "height": 8, "width": 8,
         "embed": 8, "heads": 2, "vss_blocks": 1, "state_dim": 2,
         "batch_size": 8, "epochs": 10},
        subjects=2, pairs_per_subject=8, expect_decrease=True,
    ),
    "infer-cn-epfl": InferWorkload,
}
