"""Shared building blocks operating on single-sample channel-last grids."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DataError, DimensionError


def conv_grid(x, kernel, bias=None, stride=(1, 1), padding=(0, 0)):
    """conv2d over an [H, W, C] grid (batch axis added and removed)."""
    y = ad.conv2d(ad.reshape(x, (1,) + x.shape), kernel, stride, padding)
    y = ad.reshape(y, y.shape[1:])
    if bias is not None:
        y = y + bias
    return y


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
        return self.add(name, ad.init_weight(shape, fan_in, rng))

    def zeros(self, name, shape):
        return self.add(name, ad.zeros(shape, requires_grad=True))

    def ones(self, name, shape):
        return self.add(name, ad.ones(shape, requires_grad=True))

    def add_array(self, name, array):
        return self.add(name, ad.Tensor(array, requires_grad=True))

    def __getitem__(self, name):
        return self.params[name]

    def named_arrays(self):
        return {name: t.data for name, t in self.params.items()}

    def load_arrays(self, arrays):
        for name, tensor in self.params.items():
            if name not in arrays:
                raise DataError(f"checkpoint missing parameter {name}")
            if tuple(arrays[name].shape) != tensor.shape:
                raise DimensionError(
                    f"checkpoint parameter {name} has shape "
                    f"{tuple(arrays[name].shape)}, model expects {tensor.shape}"
                )
            tensor.data = np.asarray(arrays[name], dtype=np.float64)
            tensor.grad = None

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None
