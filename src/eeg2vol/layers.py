"""Shared building blocks operating on single-sample channel-first grids."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DimensionError


def conv_grid(x, kernel, bias=None, stride=(1, 1), padding=(0, 0)):
    """conv2d over a [C, H, W] grid (batch axis added and removed)."""
    y = ad.conv2d(ad.reshape(x, (1,) + x.shape), kernel, stride, padding)
    y = ad.reshape(y, y.shape[1:])
    if bias is not None:
        y = y + ad.reshape(bias, (bias.shape[0], 1, 1))
    return y


def channels_last(x):
    """[C, H, W] -> [H, W, C]."""
    return ad.permute(x, (1, 2, 0))


def channels_first(x):
    """[H, W, C] -> [C, H, W]."""
    return ad.permute(x, (2, 0, 1))


def channel_layer_norm_tokens(tokens, gain, shift, eps=1e-5):
    return ad.layer_norm(tokens, gain, shift, eps)


def pointwise(x, weight, bias=None):
    """1x1 channel mapping on a [C, H, W] grid via a [C_out, C] weight."""
    if x.shape[0] != weight.shape[1]:
        raise DimensionError(
            f"pointwise: {x.shape[0]} channels vs weight expecting {weight.shape[1]}"
        )
    return channels_first(ad.linear(channels_last(x), weight, bias))


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
                raise KeyError(f"checkpoint missing parameter {name}")
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
