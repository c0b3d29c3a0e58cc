"""A sha256 per array of one training sample, and its tape's node count.

`sample_digests(mcfg, rng=None)` runs one synthetic sample of geometry
mcfg.geometry through a fresh `Model(mcfg, seed=0)`: forward (rng draws the
attention-dropout masks), hybrid loss at the default weights, and backward,
as `train._batch_grads` does for a batch of one. It returns
{array name: sha256} for the prediction, the loss and each parameter's
gradient, plus "nodes", the number of nodes the tape recorded.

Run as a script, it prints {case.name: digest} for one micro sample at
attention dropout 0.2 and one noddi sample, one JSON object as its last line:

    python tests/model_arrays.py

A bit-identity claim is two such runs, before and after a change, on one
machine with one OPENBLAS_NUM_THREADS value, and a diff of their last lines.
"""

import hashlib
import json
import sys

import numpy as np

from eeg2vol import autodiff as ad
from eeg2vol.config import Config
from eeg2vol.data import synth_pair_stream
from eeg2vol.losses import hybrid_loss
from eeg2vol.model import Model, ModelConfig
from eeg2vol.presets import preset_config


def array_digest(array):
    """sha256 of an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str} {array.shape}\n".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def sample_digests(mcfg, rng=None):
    """{array name: sha256} and "nodes" of one sample's forward, loss and backward."""
    model = Model(mcfg, seed=0)
    spec, vol = next(synth_pair_stream(mcfg.geometry, seed=0))
    with ad.Tape() as tape:
        pred = model.forward(ad.Tensor(spec), rng=rng)
        loss = hybrid_loss(pred, ad.Tensor(vol), Config())
    digests = {"nodes": len(tape.nodes)}
    tape.backward(loss)
    digests["prediction"] = array_digest(pred.data)
    digests["loss"] = array_digest(loss.data)
    for name, t in model.store.params.items():
        digests[f"grad.{name}"] = array_digest(t.grad)
    return digests


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]}")
    micro = ModelConfig(geometry=(4, 5, 6, 3, 8, 8), embed=4, heads=2,
                        vss_blocks=1, state_dim=2, attention_dropout=0.2)
    noddi = ModelConfig.from_run_config(preset_config("noddi"))
    digests = {}
    for case, mcfg, rng in (("micro", micro, np.random.default_rng(0)), ("noddi", noddi, None)):
        digests.update((f"{case}.{name}", d) for name, d in sample_digests(mcfg, rng).items())
    print(json.dumps(digests, sort_keys=True))
