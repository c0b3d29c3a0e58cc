"""Parameter registration: the names, order, shapes and seed-0 bytes that
every checkpoint depends on."""

import hashlib
import re

import numpy as np
import pytest

from eeg2vol.errors import DimensionError
from eeg2vol.model import Model, ModelConfig
from eeg2vol.presets import preset_config

from conftest import MICRO_GEOMETRY, micro_model_config

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
