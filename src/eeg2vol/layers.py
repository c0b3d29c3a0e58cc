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
    """Flat name -> Tensor registry shared by the model components."""

    def __init__(self):
        self.params = {}

    def add(self, name, tensor):
        if name in self.params:
            raise ValueError(f"duplicate parameter {name}")
        self.params[name] = tensor
        return tensor

    def weight(self, name, shape, fan_in, rng):
        """Uniform +-sqrt(1/fan_in), the conventional default."""
        bound = float(np.sqrt(1.0 / fan_in))
        return self.add_array(name, rng.uniform(-bound, bound, size=shape))

    def zeros(self, name, shape):
        return self.add_array(name, np.zeros(shape))

    def ones(self, name, shape):
        return self.add_array(name, np.ones(shape))

    def add_array(self, name, array):
        return self.add(name, ad.Tensor(array, requires_grad=True))

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
        """conv2d over an [H, W, C] grid (batch axis added and removed)."""
        y = ad.conv2d(ad.reshape(x, (1,) + x.shape), self[f"{name}.kernel"], stride, padding)
        y = ad.reshape(y, y.shape[1:])
        bias = self.params.get(f"{name}.bias")
        return y if bias is None else y + bias

    def __getitem__(self, name):
        return self.params[name]

    def named_arrays(self):
        return {name: t.data for name, t in self.params.items()}

    def load_arrays(self, arrays):
        unknown = sorted(set(arrays) - set(self.params))
        if unknown:
            raise DataError(f"checkpoint parameter {unknown[0]} is not a model parameter")
        for name, tensor in self.params.items():
            if name not in arrays:
                raise DataError(f"checkpoint missing parameter {name}")
            if tuple(arrays[name].shape) != tensor.shape:
                raise DataError(
                    f"checkpoint parameter {name} has shape "
                    f"{tuple(arrays[name].shape)}, model expects {tensor.shape}"
                )
            tensor.data = np.asarray(arrays[name], dtype=np.float64)
            tensor.grad = None

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None
