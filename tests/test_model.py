"""Parameter registration: the names, order, shapes and seed-0 bytes that
every checkpoint depends on; and the whole model against the composition
of its fused ops."""

import hashlib
import re

import numpy as np
import pytest

from eeg2vol import autodiff as ad
from eeg2vol.config import Config
from eeg2vol.data import synth_pair_stream
from eeg2vol.errors import DimensionError
from eeg2vol.losses import hybrid_loss
from eeg2vol.model import Model, ModelConfig
from eeg2vol.presets import preset_config

from conftest import (
    COMPOSED_OPS,
    GENERIC_OPS,
    MICRO_GEOMETRY,
    composed_ops,
    micro_model_config,
    record_tape_ops,
)

# (count, sha256 of the newline-joined names in registration order,
#  sha256 over each name, shape and little-endian float64 bytes)
PINNED = {
    "micro": (
        218,
        "063f730244254838e60ad5414f71eb6b0cc9e2f58d12e45748f8e2f776bff996",
        "f4da814be14c253bd99410417b05af8d297a36bfbcfab044c871715c14183cb8",
    ),
    "noddi": (
        388,
        "4e3b2cf948c3d7b534b38b84b9e43c683877517b70287cb3e3ee2e6b3d110d37",
        "bef0e391d0f7fd4a0d4826e1e679c25521b93c92728f78b28b05e13b12a6a1ae",
    ),
}

DECODER_STAGES = [
    "down0", "merge0", "down1", "merge1", "bottleneck", "expand1", "reduce1",
    "up1", "expand0", "reduce0", "up0", "head",
]


def seed0_store(name):
    if name == "micro":
        return Model(micro_model_config(), seed=0).store
    return Model(ModelConfig.from_run_config(preset_config(name)), seed=0).store


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed0_registration_is_pinned(name):
    """A reordered registration, renamed layer or changed fan-in alters the
    seed's draws and so every checkpoint; this test catches each."""
    store = seed0_store(name)
    names = list(store.params)
    content = hashlib.sha256()
    for key, tensor in store.params.items():
        content.update(key.encode())
        content.update(repr(tensor.shape).encode())
        content.update(tensor.data.astype("<f8").tobytes())
    count, names_sha, content_sha = PINNED[name]
    assert len(names) == count
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == names_sha
    assert content.hexdigest() == content_sha


def test_decoder_stages_register_in_unet_order():
    stages = []
    for key in seed0_store("micro").params:
        if key.startswith("dec."):
            stage = key.split(".")[1]
            if stage not in stages:
                stages.append(stage)
    assert stages == DECODER_STAGES


@pytest.mark.parametrize("shape", [(4, 3, 6), (4, 5, 7), (4, 5, 2)])
def test_forward_rejects_a_spectrogram_off_the_geometry(micro_model, shape):
    """A T or F other than the geometry's is rejected up front, naming both
    shapes, whether it would pad onto the plane or fail to downsample."""
    named = re.escape(str(shape)) + ".*" + re.escape(str(MICRO_GEOMETRY[:3]))
    with pytest.raises(DimensionError, match=named):
        micro_model.predict(np.zeros(shape))


def test_forward_takes_the_geometry_shape(micro_model):
    assert micro_model.predict(np.zeros(MICRO_GEOMETRY[:3])).shape == MICRO_GEOMETRY[3:]


# ---------------------------------------------------------------------------
# the whole model against its composed oracle
# ---------------------------------------------------------------------------

# largest max |diff| / max |ref| allowed per array between the fused and the
# composed micro sample, about 23x the measured worst (4.3e-14, the head
# bias gradient)
WHOLE_MODEL_TOL = 1e-12


def micro_sample():
    """One micro training sample at attention dropout 0.2 (forward, hybrid
    loss, backward) on a seed-0 model with every parameter moved by noise,
    so no norm gain is 1 and no shift or bias 0: {array name: array} for
    the prediction, the loss and each parameter's gradient, and the name of
    each op the tape recorded, in order."""
    ops = []
    mcfg = micro_model_config()
    mcfg.attention_dropout = 0.2
    model = Model(mcfg, seed=0)
    noise = np.random.default_rng(1)
    for t in model.store.params.values():
        t.data = t.data + 0.01 * noise.standard_normal(t.shape)
    spec, vol = next(synth_pair_stream(MICRO_GEOMETRY, seed=0))
    with pytest.MonkeyPatch.context() as mp, ad.Tape() as tape:
        record_tape_ops(mp, ops)
        pred = model.forward(ad.Tensor(spec), rng=np.random.default_rng(0))
        loss = hybrid_loss(pred, ad.Tensor(vol), Config())
    tape.backward(loss)
    arrays = {"prediction": pred.data, "loss": loss.data}
    arrays.update((f"grad.{name}", t.grad) for name, t in model.store.params.items())
    return arrays, ops


def test_every_op_of_a_training_sample_has_a_composed_oracle():
    """Each op a micro training sample records is in COMPOSED_OPS or is a
    generic op, and with composed_ops() open none of COMPOSED_OPS records a
    node: every fused op is patched where the program looks it up."""
    _arrays, ops = micro_sample()
    unknown = sorted(set(ops) - COMPOSED_OPS.keys() - GENERIC_OPS)
    assert not unknown, f"tape ops with neither an oracle nor a generic rule: {unknown}"
    with composed_ops():
        _arrays, composed = micro_sample()
    fused_left = sorted(set(composed) & COMPOSED_OPS.keys())
    assert not fused_left, f"fused ops that still record a node when composed: {fused_left}"


def test_micro_sample_matches_its_composed_oracle():
    """The prediction, the loss and every gradient of a micro training
    sample at dropout 0.2 are within WHOLE_MODEL_TOL of the same sample run
    with every fused op replaced by its composition."""
    fused, _ops = micro_sample()
    with composed_ops():
        composed, _ops = micro_sample()
    assert fused.keys() == composed.keys()
    worst = {
        name: float(np.max(np.abs(fused[name] - ref))) / float(np.max(np.abs(ref)))
        if np.any(ref) else float(np.any(fused[name]))
        for name, ref in composed.items()
    }
    name = max(worst, key=worst.get)
    assert worst[name] <= WHOLE_MODEL_TOL, (name, worst[name])
