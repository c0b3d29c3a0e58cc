"""Synthetic data generation and the training/evaluation harness."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol import cli
from eeg2vol.config import Config
from eeg2vol.data import synth_dataset, synth_pair_stream
from eeg2vol.dsp import read_manifest
from eeg2vol.errors import DataError, NumericError
from eeg2vol.losses import hybrid_loss
from eeg2vol.model import Model, ModelConfig
from eeg2vol.presets import preset_config
from eeg2vol.train import _batch_grads, evaluate_samples, load_pairs, train_run

from conftest import MICRO_GEOMETRY, micro_model_config
from model_arrays import sample_digests
from program_paths import tree_hashes


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
    manifest = read_manifest(tmp_path / "manifest.txt")
    assert manifest.geometry == MICRO_GEOMETRY
    assert manifest.subject_ids == ["sub00", "sub01"]
    # load_pairs checks every listed array against that geometry
    assert len(load_pairs(manifest, tmp_path, manifest.subject_ids)) == 4


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
    assert (tmp_path / "run/best.ckpt").is_file()
    assert (tmp_path / "run/last.ckpt").is_file()

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


def test_train_run_returns_a_model_without_gradients(tmp_path):
    """Gradients are dropped after each optimizer step, so neither the saves
    nor the returned model carry the last step's; last.ckpt reloads to the
    returned model's parameters and predictions bit for bit."""
    manifest = synth_dataset(MICRO_GEOMETRY, 2, 2, seed=4, out_dir=tmp_path / "data")
    result = train_run(micro_run_config(epochs=2, batch_size=2), manifest,
                       tmp_path / "data", tmp_path / "run")
    model = result["model"]
    assert [name for name, t in model.store.params.items() if t.grad is not None] == []
    reloaded = Model.from_checkpoint(tmp_path / "run/last.ckpt")
    for name, array in model.store.named_arrays().items():
        assert np.array_equal(reloaded.store.named_arrays()[name], array), name
    spec = np.random.default_rng(0).standard_normal(MICRO_GEOMETRY[:3])
    assert np.array_equal(reloaded.predict(spec), model.predict(spec))


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


def test_dropped_sample_tape_is_freed_by_reference_counting():
    """No tensor points back at its tape, so a micro training sample's tape
    (forward, hybrid loss and backward) is freed once its names are
    dropped, with the cyclic GC off."""
    model = Model(micro_model_config(), seed=0)
    (_sid, spec, vol), = micro_batch(1)
    gc.disable()
    try:
        with ad.Tape() as tape:
            loss = hybrid_loss(model.forward(ad.Tensor(spec)), ad.Tensor(vol), Config())
        tape.backward(loss)
        dropped = weakref.ref(tape)
        del tape, loss
        assert dropped() is None
    finally:
        gc.enable()


# Nodes and summed node-output bytes one micro training sample records
# (forward plus hybrid loss); a layout permute around each linear or
# LayerNorm, a head split around attention, a batch axis around each conv,
# or a one-node op split back into its composition (a VSS block's gate or
# output path included), would raise them.
MICRO_SAMPLE_TAPE_NODES = 139
MICRO_SAMPLE_TAPE_BYTES = 162_544  # summed node outputs


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


def test_model_arrays_digests_every_array_of_a_micro_sample():
    """tests/model_arrays.py digests the prediction, the loss and every
    gradient, to the same digests twice, and counts the sample's tape."""
    mcfg = micro_model_config()
    first, second = (sample_digests(mcfg) for _ in range(2))
    assert first == second
    grads = {f"grad.{name}" for name in Model(mcfg).store.params}
    assert first.keys() == grads | {"prediction", "loss", "nodes"}
    assert first["nodes"] == len(micro_sample_tape().nodes)


def test_training_and_predict_call_no_layout_helper(monkeypatch):
    """One micro training sample (forward at attention dropout 0.2, hybrid
    loss, backward) and one predict never call np.moveaxis, np.pad, np.flip
    or sliding_window_view: their argument handling cost more than the
    kernels they served at micro scale."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a layout helper ran on the hot path")

    monkeypatch.setattr(np, "moveaxis", forbidden)
    monkeypatch.setattr(np, "pad", forbidden)
    monkeypatch.setattr(np, "flip", forbidden)
    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", forbidden)
    mcfg = micro_model_config()
    mcfg.attention_dropout = 0.2
    model = Model(mcfg, seed=0)
    spec, vol = next(synth_pair_stream(MICRO_GEOMETRY, seed=0))
    loss = _batch_grads(model, [("s0", spec, vol)], Config(), np.random.default_rng(0))
    assert math.isfinite(loss)
    assert all(t.grad is not None for t in model.store.params.values())
    assert model.predict(spec).shape == MICRO_GEOMETRY[3:]


# tracemalloc bytes of one noddi training sample on a fresh model: live once
# its forward and hybrid loss are recorded, and the peak of its backward.
# Measured at 91.4 and 112.1 MB. With each VSS block's gate and output path
# as six nodes (their pre-activation, normed, gated and projected arrays on
# the tape) they were 118.7 and 139.4 MB; with the SSIM and MSE
# compositions on the tape, a whole-length da buffer in the scan backward
# and attention's backward over all heads at once, 138.2 and 166.0 MB; with
# attention's scores and weights and layer_norm's normalized copy on the
# tape too, 183.1 and 210.8 MB.
NODDI_SAMPLE_LIVE_BYTES = 93_000_000
NODDI_SAMPLE_BACKWARD_PEAK_BYTES = 114_000_000
# live bytes attention dropout may add: its boolean [heads, T*F, T*F] masks
# (1.3 MB over both encoder stages; float64 masks held 10.2 MB)
NODDI_DROPOUT_MASK_BYTES = 1_500_000


def noddi_sample_memory(attention_dropout=0.0, backward=True):
    """tracemalloc bytes of one noddi training sample on a fresh model: live
    once its forward and hybrid loss are recorded and, when backward is set,
    the backward's peak with the (op, tape index) of the node whose backward
    rule, or the gradient accumulation after it, reached that peak."""
    mcfg = ModelConfig.from_run_config(preset_config("noddi"))
    mcfg.attention_dropout = attention_dropout
    model = Model(mcfg, seed=0)
    spec, vol = next(synth_pair_stream(mcfg.geometry, seed=0))
    rng = np.random.default_rng(0) if attention_dropout else None
    tape = ad.Tape()
    gc.collect()
    tracemalloc.start()
    try:
        with tape:
            loss = hybrid_loss(model.forward(ad.Tensor(spec), rng=rng), ad.Tensor(vol), Config())
        live = tracemalloc.get_traced_memory()[0]
        if not backward:
            return live, None, None
        peaks = []  # (peak, node) per stretch of the backward
        node = [("the seed", None)]

        def enter(next_node):
            peaks.append((tracemalloc.get_traced_memory()[1], node[0]))
            tracemalloc.reset_peak()
            node[0] = next_node

        for i, (out, inputs, backward_fn) in enumerate(tape.nodes):
            def watched(g, backward_fn=backward_fn, at=(backward_fn.__qualname__.split(".")[0], i)):
                enter(at)
                return backward_fn(g)

            tape.nodes[i] = (out, inputs, watched)
        tracemalloc.reset_peak()
        tape.backward(loss)
        enter(None)
    finally:
        tracemalloc.stop()
    peak, at = max(peaks, key=lambda p: p[0])
    return live, peak, at


def test_noddi_sample_memory_is_bounded():
    live, peak, (op, index) = noddi_sample_memory()
    assert live <= NODDI_SAMPLE_LIVE_BYTES, live
    assert peak <= NODDI_SAMPLE_BACKWARD_PEAK_BYTES, (
        f"backward peak {peak} B, set by tape node {index} ({op})"
    )


def test_noddi_sample_dropout_masks_are_small():
    """Attention dropout keeps boolean masks: a noddi sample at dropout 0.1
    keeps little more live memory than one without dropout."""
    plain = noddi_sample_memory(backward=False)[0]
    dropped = noddi_sample_memory(attention_dropout=0.1, backward=False)[0]
    assert dropped - plain <= NODDI_DROPOUT_MASK_BYTES, (plain, dropped)


def test_train_workers_other_than_1_exit_2(tmp_path, capsys):
    synth_dataset(MICRO_GEOMETRY, 2, 2, seed=3, out_dir=tmp_path / "data")
    rc = cli.main(
        ["train", "--manifest", str(tmp_path / "data/manifest.txt"),
         "--out", str(tmp_path / "run"), "--set", "workers=2"]
    )
    assert rc == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "run/train.log").exists()


@pytest.mark.parametrize("sets, message", [
    (["fold=3"], "fold 3 outside 0..2"),
    (["split_mode=fixed", "k_train=2", "k_test=1", "fold=1"], "fold 1 outside 0..0"),
], ids=["loso", "fixed"])
def test_train_fold_outside_the_split_exit_2(tmp_path, capsys, sets, message):
    """A fold past the split's last (one fold per subject under loso, one
    fold under fixed) exits 2 before --out is created."""
    synth_dataset(MICRO_GEOMETRY, 3, 1, seed=3, out_dir=tmp_path / "data")
    argv = ["train", "--manifest", str(tmp_path / "data/manifest.txt"),
            "--out", str(tmp_path / "run")]
    rc = cli.main(argv + [arg for item in sets for arg in ("--set", item)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    samples = load_pairs(manifest, tmp_path, manifest.subject_ids)
    rows, mean_ssim, mean_psnr = evaluate_samples(
        GroundTruthModel(samples), samples, Config()
    )
    assert abs(mean_ssim - 1.0) < 1e-9
    assert mean_psnr == math.inf
    assert rows[-1].startswith("ALL, 4, 1.000000")
    for row in rows[:-1]:
        assert ", 1.000000, 0.000000, inf, 0.000000" in row
