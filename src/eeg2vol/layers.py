"""Parameter store and its layer helpers over channel-last [H, W, C] grids.

Layers name their parameters `<name>.weight`/`.bias` (linear, [out, in]),
`.gain`/`.shift` (LayerNorm), and `.kernel` ([out, in, kh, kw]) with an
optional `.bias` (conv). The store builds every parameter's leaf tensor
itself; a weight is drawn with its fan-in before its bias, so registration
order fixes the seed's draws and with them every checkpoint.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DataError


class ParamStore:
    """Flat name -> Tensor registry shared by the model components. Built on
    arrays, a checkpoint's name -> array mapping, it takes every value from
    there and checks each name and shape before allocating anything."""

    def __init__(self, arrays=None):
        self.params = {}
        self.arrays = arrays

    def add(self, name, shape, init):
        """Register parameter name, of the given shape, with value init()."""
        if name in self.params:
            raise ValueError(f"duplicate parameter {name}")
        if self.arrays is None:
            value = init()
        elif name not in self.arrays:
            raise DataError(f"checkpoint missing parameter {name}")
        elif (got := tuple(self.arrays[name].shape)) != shape:
            raise DataError(f"checkpoint parameter {name} has shape {got}, model expects {shape}")
        else:
            value = self.arrays[name]
        tensor = self.params[name] = ad.Tensor(value, requires_grad=True)
        return tensor

    def weight(self, name, shape, fan_in, rng):
        """Uniform +-sqrt(1/fan_in), the conventional default."""
        bound = float(np.sqrt(1.0 / fan_in))
        return self.add(name, shape, lambda: rng.uniform(-bound, bound, size=shape))

    def zeros(self, name, shape):
        return self.add(name, shape, lambda: np.zeros(shape))

    def ones(self, name, shape):
        return self.add(name, shape, lambda: np.ones(shape))

    def linear(self, name, n_out, n_in, rng):
        self.weight(f"{name}.weight", (n_out, n_in), n_in, rng)
        self.zeros(f"{name}.bias", (n_out,))

    def norm(self, name, width):
        self.ones(f"{name}.gain", (width,))
        self.zeros(f"{name}.shift", (width,))

    def conv(self, name, n_out, n_in, kh, kw, rng, bias=False):
        self.weight(f"{name}.kernel", (n_out, n_in, kh, kw), n_in * kh * kw, rng)
        if bias:
            self.zeros(f"{name}.bias", (n_out,))

    def apply_linear(self, name, x):
        return ad.linear(x, self[f"{name}.weight"], self[f"{name}.bias"])

    def apply_norm(self, name, x):
        return ad.layer_norm(x, self[f"{name}.gain"], self[f"{name}.shift"])

    def apply_conv(self, name, x, stride=(1, 1), padding=(0, 0)):
        """conv2d over an [H, W, C] grid, plus the bias when there is one."""
        y = ad.conv2d(x, self[f"{name}.kernel"], stride, padding)
        bias = self.params.get(f"{name}.bias")
        return y if bias is None else y + bias

    def __getitem__(self, name):
        return self.params[name]

    def named_arrays(self):
        return {name: t.data for name, t in self.params.items()}

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None
