"""Span arithmetic and wrapper installation of the benchmark's tracer."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
from eeg2vol import autodiff as ad  # noqa: E402
from eeg2vol import losses  # noqa: E402
from eeg2vol.model import Model, ModelConfig  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],  # overlaps a: together they cover [1, 5]
        ["c", 2.5, 4.0, 2, 0],
        ["d", 9.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.5, 1.5, 3.0]


def test_recorder_nests_spans_and_sums_layer_metrics():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0])
    recorder = tracing.SpanRecorder(clock=lambda: next(ticks))
    recorder.sample = 3

    def outer():
        recorder.call("inner", lambda: None)
        recorder.call("inner", lambda: None)
        return "done"

    assert recorder.call("outer", outer) == "done"
    assert [s[3] for s in recorder.spans] == [None, 0, 0]
    assert {s[4] for s in recorder.spans} == {3}
    assert tracing.layer_metrics(recorder) == {
        "outer_s": 8.0, "outer_calls": 1, "outer_self_s": 4.0,
        "inner_s": 4.0, "inner_calls": 2,
    }


def micro_model():
    return Model(ModelConfig(geometry=(4, 5, 6, 3, 8, 8), embed=8, heads=2,
                             vss_blocks=1, state_dim=2), seed=0)


def micro_step(model):
    rng = np.random.default_rng(0)
    with ad.Tape() as tape:
        pred = model.forward(ad.Tensor(rng.random((4, 5, 6))))
        loss = losses.hybrid_loss(pred, ad.Tensor(rng.random((3, 8, 8))))
    tape.backward(loss)
    return loss.item(), {k: t.grad for k, t in model.store.params.items()}


def test_tracer_restores_every_original():
    targets = tracing.eeg2vol_targets()
    before = [vars(owner)[attr] for owner, attr, _name, _hook in targets]
    recorder = tracing.SpanRecorder()
    with tracing.Tracer(recorder, targets):
        assert all(vars(owner)[attr] is not raw
                   for (owner, attr, _n, _h), raw in zip(targets, before))
        micro_step(micro_model())
    assert all(vars(owner)[attr] is raw for (owner, attr, _n, _h), raw in zip(targets, before))

    with pytest.raises(RuntimeError):
        with tracing.Tracer(tracing.SpanRecorder(), targets):
            raise RuntimeError("inside the traced region")
    assert all(vars(owner)[attr] is raw for (owner, attr, _n, _h), raw in zip(targets, before))


def test_traced_step_is_bit_identical_and_records_layers():
    loss, grads = micro_step(micro_model())
    recorder = tracing.SpanRecorder()
    with tracing.Tracer(recorder, tracing.eeg2vol_targets()):
        traced_loss, traced_grads = micro_step(micro_model())
    assert traced_loss == loss
    assert all(np.array_equal(grads[k], traced_grads[k]) for k in grads)
    metrics = tracing.layer_metrics(recorder)
    assert metrics["autodiff.backward_calls"] == 1
    assert metrics["decoder.s6_scan_calls"] == 5 * 4  # 5 stages x 1 block x 4 directions
    assert metrics["autodiff.tape_nodes"] > 0
    for name in ("model.forward", "encoder.encode", "decoder.decode", "decoder.down0",
                 "decoder.up0", "losses.hybrid_loss", "losses.ssim", "autodiff.conv2d"):
        assert metrics[f"{name}_s"] > 0, name
