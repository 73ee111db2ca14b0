"""Parameterized layers on top of the autodiff primitives.

Modules discover parameters and submodules by scanning attributes in
definition order, which keeps checkpoint names stable.  Weights use
centered uniform fan-in initialization from an explicit generator so a
model build is fully determined by its seed; biases start at zero and
normalization scales at one.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .autodiff import Parameter, Tensor, ops


class Module:
    """Base class: parameter/submodule discovery and train/eval state."""

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value

    def _own_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield name, value

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._own_parameters():
            yield prefix + name, p
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, child in self._children():
            yield from child.named_modules(prefix + name + ".")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class ModuleList(Module):
    """Ordered container; children are named by their index."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = list(modules)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def _children(self):
        for i, m in enumerate(self._items):
            yield str(i), m


def _uniform(rng: np.random.Generator, fan_in: int, shape, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv2d(Module):
    """Convolution with a bias and "same" padding of ``kernel // 2``."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, *,
                 stride: int = 1, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.stride = stride
        self.padding = kernel // 2
        fan_in = in_ch * kernel * kernel
        self.weight = Parameter(
            _uniform(rng, fan_in, (out_ch, in_ch, kernel, kernel), dtype))
        self.bias = Parameter(np.zeros(out_ch, dtype=dtype), decay=False)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias,
                          stride=self.stride, padding=self.padding)


class Conv3d(Module):
    """2x3x3 convolution with a bias over a stacked [N, C, 2, H, W] pair:
    it collapses the two epochs and keeps the spatial size."""

    def __init__(self, in_ch: int, out_ch: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.weight = Parameter(
            _uniform(rng, in_ch * 2 * 3 * 3, (out_ch, in_ch, 2, 3, 3), dtype))
        self.bias = Parameter(np.zeros(out_ch, dtype=dtype), decay=False)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv3d(x, self.weight, self.bias, padding=(0, 1, 1))


class BatchNorm(Module):
    """Per-channel normalization for any [N, C, ...spatial] input.

    In training, ``groups`` equal leading slices of the batch are each
    normalized by their own statistics (``ops.batch_norm``); a layer of
    the Siamese trunk sees both epochs stacked and uses 2.  Running
    statistics live as plain arrays (not parameters) and are serialized
    separately by the checkpoint writer.
    """

    def __init__(self, channels: int, *, groups: int = 1, dtype=np.float32):
        super().__init__()
        self.groups = groups
        self.weight = Parameter(np.ones(channels, dtype=dtype), decay=False)
        self.bias = Parameter(np.zeros(channels, dtype=dtype), decay=False)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ops.batch_norm(x, self.weight, self.bias,
                              self.running_mean, self.running_var,
                              training=self.training, groups=self.groups)


class Linear(Module):
    """Fully connected layer on a pooled [N, in, 1, 1] map.

    It runs as a 1x1 convolution; the weight stays stored as
    [out, in], the layout checkpoints hold.
    """

    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.weight = Parameter(
            _uniform(rng, in_features, (out_features, in_features), dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), decay=False)

    def forward(self, x: Tensor) -> Tensor:
        weight = ops.reshape(self.weight, self.weight.shape + (1, 1))
        return ops.conv2d(x, weight, self.bias)


class ConvBlock(Module):
    """3x3 convolution, batch norm (over ``groups`` batch slices), relu:
    the standard feature block."""

    def __init__(self, in_ch: int, out_ch: int, *, stride: int = 1,
                 groups: int = 1, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, 3, stride=stride, rng=rng,
                           dtype=dtype)
        self.bn = BatchNorm(out_ch, groups=groups, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(self.bn(self.conv(x)))


class SqueezeExcite(Module):
    """Channel attention (Hu et al. 2018): global pool to [N, C, 1, 1],
    a bottleneck of two 1x1 layers (a quarter of the channels, at least
    one), and a sigmoid gate that scales each channel."""

    def __init__(self, channels: int, *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        hidden = max(channels // 4, 1)
        self.fc1 = Linear(channels, hidden, rng=rng, dtype=dtype)
        self.fc2 = Linear(hidden, channels, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        s = ops.global_avg_pool(x)
        s = ops.relu(self.fc1(s))
        s = ops.sigmoid(self.fc2(s))
        return ops.mul(x, s)
