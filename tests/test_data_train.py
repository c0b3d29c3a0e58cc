"""Synthetic data generation and the training/evaluation harness."""

import gc
import hashlib
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol import cli
from eeg2vol.config import Config
from eeg2vol.data import synth_dataset, synth_pair_stream
from eeg2vol.dsp import read_manifest
from eeg2vol.errors import DataError, NumericError
from eeg2vol.losses import hybrid_loss
from eeg2vol.model import Model
from eeg2vol.train import _batch_grads, evaluate_samples, load_pairs, train_run

from conftest import MICRO_GEOMETRY, micro_model_config


def tree_hashes(root):
    """Relative path -> content hash for every file under root."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def micro_run_config(**overrides):
    cfg = Config()
    values = {
        "channels": 4, "t_bins": 5, "f_bins": 6,
        "depth": 3, "height": 8, "width": 8,
        "embed": 4, "heads": 2, "state_dim": 2, "vss_blocks": 1,
        "epochs": 3, "batch_size": 4,
        "split_mode": "fixed", "k_train": 1, "k_test": 1,
    }
    values.update(overrides)
    for k, v in values.items():
        cfg.set(k, v)
    return cfg


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_synth_dataset_byte_determinism(tmp_path):
    for name in ("a", "b"):
        synth_dataset(MICRO_GEOMETRY, 2, 3, seed=7, out_dir=tmp_path / name)
    assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")


def test_synth_dataset_different_seed_differs(tmp_path):
    synth_dataset(MICRO_GEOMETRY, 1, 2, seed=7, out_dir=tmp_path / "a")
    synth_dataset(MICRO_GEOMETRY, 1, 2, seed=8, out_dir=tmp_path / "b")
    assert tree_hashes(tmp_path / "a") != tree_hashes(tmp_path / "b")


def test_synth_values_in_unit_range():
    stream = synth_pair_stream(MICRO_GEOMETRY, seed=0)
    for _ in range(4):
        spec, vol = next(stream)
        assert spec.shape == MICRO_GEOMETRY[:3]
        assert vol.shape == MICRO_GEOMETRY[3:]
        assert spec.min() >= 0.0 and spec.max() <= 1.0
        assert vol.min() >= 0.0 and vol.max() <= 1.0


def test_synth_manifest_is_valid(tmp_path):
    synth_dataset(MICRO_GEOMETRY, 2, 2, seed=1, out_dir=tmp_path)
    manifest = read_manifest(tmp_path / "manifest.txt", validate=True)
    assert manifest.geometry == MICRO_GEOMETRY
    assert manifest.subject_ids == ["sub00", "sub01"]


def test_planted_dependency_recoverable_by_ridge():
    stream = synth_pair_stream(MICRO_GEOMETRY, seed=2)
    pairs = [next(stream) for _ in range(64)]
    x = np.stack([s.reshape(-1) for s, _ in pairs])
    y = np.stack([v.reshape(-1) for _, v in pairs])
    lam = 1e-3
    w = np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y)
    ridge_mse = float(np.mean((x @ w - y) ** 2))
    mean_mse = float(np.mean((y - y.mean(axis=0)) ** 2))
    assert ridge_mse < mean_mse


# ---------------------------------------------------------------------------
# training harness
# ---------------------------------------------------------------------------

def test_train_run_artifacts_and_log(tmp_path):
    manifest = synth_dataset(MICRO_GEOMETRY, 2, 4, seed=3, out_dir=tmp_path / "data")
    cfg = micro_run_config()
    result = train_run(cfg, manifest, tmp_path / "data", tmp_path / "run")
    assert len(result["history"]) == 3
    assert math.isfinite(result["best_ssim"])
    assert (tmp_path / "run/best.ckpt/index.txt").exists()
    assert (tmp_path / "run/last.ckpt/index.txt").exists()

    log = (tmp_path / "run/train.log").read_text()
    assert "# lambda1 = 0.5" in log and "# lambda2 = 0.5" in log
    assert "# train_subjects = " in log and "# test_subjects = " in log
    assert "epoch, step, lr, loss, eval_ssim, eval_psnr" in log
    data_lines = [
        l for l in log.splitlines() if l and not l.startswith(("#", "epoch"))
    ]
    # three per-step lines plus three per-epoch summary lines
    assert len(data_lines) == 6
    first = data_lines[0].split(", ")
    assert first[0] == "0" and first[1] == "1"
    assert float(first[2]) == 1e-3  # schedule starts at lr
    assert math.isfinite(float(first[3]))


def test_train_run_loss_history_is_finite_and_recorded(tmp_path):
    manifest = synth_dataset(MICRO_GEOMETRY, 2, 2, seed=4, out_dir=tmp_path / "data")
    cfg = micro_run_config(epochs=2, batch_size=2)
    result = train_run(cfg, manifest, tmp_path / "data", tmp_path / "run")
    for entry in result["history"]:
        assert math.isfinite(entry["loss"])
        assert -1.0 <= entry["eval_ssim"] <= 1.0


def test_empty_subject_selection_is_error(tmp_path):
    manifest = synth_dataset(MICRO_GEOMETRY, 2, 2, seed=5, out_dir=tmp_path)
    with pytest.raises(DataError, match="no samples"):
        load_pairs(manifest, tmp_path, subjects=[])


def micro_batch(size, seed=0):
    stream = synth_pair_stream(MICRO_GEOMETRY, seed=seed)
    return [("sub00",) + next(stream) for _ in range(size)]


def forwards_first_grads(model, batch, cfg, rng):
    """Oracle: every forward pass before any backward, backwards in order."""
    results = []
    for _sid, spec, vol in batch:
        with ad.Tape() as tape:
            pred = model.forward(ad.Tensor(spec), rng=rng)
            results.append((tape, hybrid_loss(pred, ad.Tensor(vol), cfg)))
    total = 0.0
    scale = 1.0 / len(batch)
    for tape, loss in results:
        total += loss.item() * scale
        tape.backward(loss, seed=np.full_like(loss.data, scale))
    return total


def test_batch_grads_match_forwards_first_order():
    """Per-sample backward gives the gradients and loss of the order that ran
    all forwards first, bit for bit, with attention dropout drawing masks."""
    mcfg = micro_model_config()
    mcfg.attention_dropout = 0.1
    model = Model(mcfg, seed=0)
    batch = micro_batch(3)
    cfg = Config({"lambda1": 0.5, "lambda2": 0.5})
    runs = []
    for grads_of in (_batch_grads, forwards_first_grads):
        model.store.zero_grad()
        loss = grads_of(model, batch, cfg, rng=np.random.default_rng(5))
        runs.append((loss, {k: t.grad for k, t in model.store.params.items()}))
    (loss, grads), (oracle_loss, oracle_grads) = runs
    assert loss == oracle_loss
    assert grads.keys() == oracle_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, oracle_grads[name]), name


def batch_grads_peak(model, batch):
    gc.collect()
    tracemalloc.start()
    try:
        _batch_grads(model, batch, Config({"lambda1": 0.5, "lambda2": 0.5}))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_grads_memory_independent_of_batch_size():
    """One sample's tape is alive at a time, so a batch of 8 peaks near a
    batch of 1."""
    model = Model(micro_model_config(), seed=0)
    batch = micro_batch(8)
    batch_grads_peak(model, batch[:1])  # warm-up
    single = batch_grads_peak(model, batch[:1])
    eight = batch_grads_peak(model, batch)
    assert eight <= 1.5 * single, (single, eight)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("param, message", [
    ("dec.head.bias", "non-finite training loss"),
    ("dec.down0.block0.dir0.a_log", "discretized transition"),
])
def test_batch_grads_frees_the_tape_on_error(monkeypatch, param, message):
    """A NaN parameter raises out of _batch_grads, from the loss check or
    from the forward, and the failed sample's tape is already freed by
    reference counting: the cyclic GC is off throughout."""
    tapes = []

    class RecordedTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    model = Model(micro_model_config(), seed=0)
    model.store[param].data[0] = np.nan
    monkeypatch.setattr(ad, "Tape", RecordedTape)
    gc.disable()
    try:
        try:
            _batch_grads(model, micro_batch(1), Config())
        except NumericError as err:
            assert message in str(err)
        else:
            raise AssertionError("no NumericError")
        assert len(tapes) == 1 and tapes[0]() is None
    finally:
        gc.enable()


# Nodes and summed node-output bytes one micro training sample records
# (forward plus hybrid loss); a layout permute around each linear or
# LayerNorm, or a one-node op split back into its composition, would raise
# them.
MICRO_SAMPLE_TAPE_NODES = 229
MICRO_SAMPLE_TAPE_BYTES = 280_656  # summed node outputs


def micro_sample_tape():
    """The tape of one micro training sample's forward and hybrid loss."""
    model = Model(micro_model_config(), seed=0)
    spec, vol = next(synth_pair_stream(MICRO_GEOMETRY, seed=0))
    with ad.Tape() as tape:
        pred = model.forward(ad.Tensor(spec))
        hybrid_loss(pred, ad.Tensor(vol), Config())
    return tape


def test_micro_sample_tape_nodes_do_not_grow():
    assert len(micro_sample_tape().nodes) <= MICRO_SAMPLE_TAPE_NODES


def test_micro_sample_tape_bytes_do_not_grow():
    nbytes = sum(out.data.nbytes for out, _inputs, _backward in micro_sample_tape().nodes)
    assert nbytes <= MICRO_SAMPLE_TAPE_BYTES


def test_train_workers_other_than_1_exit_2(tmp_path, capsys):
    synth_dataset(MICRO_GEOMETRY, 2, 2, seed=3, out_dir=tmp_path / "data")
    rc = cli.main(
        ["train", "--manifest", str(tmp_path / "data/manifest.txt"),
         "--out", str(tmp_path / "run"), "--set", "workers=2"]
    )
    assert rc == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "run/train.log").exists()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class GroundTruthModel:
    """Stub predictor that returns the paired target for every spectrogram."""

    def __init__(self, samples):
        self.lookup = {spec.tobytes(): vol for _sid, spec, vol in samples}

    def predict(self, spec):
        return self.lookup[np.asarray(spec).tobytes()]


def test_evaluate_identity_gives_ssim_one_and_inf_psnr(tmp_path):
    manifest = synth_dataset(MICRO_GEOMETRY, 2, 2, seed=6, out_dir=tmp_path)
    samples = load_pairs(manifest, tmp_path)
    rows, mean_ssim, mean_psnr = evaluate_samples(
        GroundTruthModel(samples), samples, Config()
    )
    assert abs(mean_ssim - 1.0) < 1e-9
    assert mean_psnr == math.inf
    assert rows[-1].startswith("ALL, 4, 1.000000")
    for row in rows[:-1]:
        assert ", 1.000000, 0.000000, inf, 0.000000" in row
