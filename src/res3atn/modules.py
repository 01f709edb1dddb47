"""Minimal layer containers: parameter registration, buffers, train/eval mode,
and dotted paths (stamp_names), by which a NonFiniteError names its module."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from . import ops
from .tensor import Parameter, Tensor


class Module:
    """Base container tracking child modules, parameters, and buffers."""

    def __init__(self):
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "path", "")

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """(prefix, module) for self and each module under it, parents first; a
        prefix is "" for self, else the module's dotted attribute path and a dot."""
        yield prefix, self
        for cname, child in self._modules.items():
            yield from child.named_modules(f"{prefix}{cname}.")

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for prefix, m in self.named_modules():
            yield from ((prefix + name, p) for name, p in m._params.items())

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for prefix, m in self.named_modules():
            yield from ((prefix + name, b) for name, b in m._buffers.items())

    def modules(self) -> Iterator["Module"]:
        return (m for _, m in self.named_modules())

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def astype(self, dtype) -> "Module":
        """Convert all parameters and buffers in place (e.g. for f64 checks)."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        for m in self.modules():
            for name, buf in list(m._buffers.items()):
                if np.issubdtype(buf.dtype, np.floating):
                    m.set_buffer(name, buf.astype(dtype))
        return self

    def __call__(self, *args, **kwargs):
        try:
            return self.forward(*args, **kwargs)
        except ops.NonFiniteError as exc:
            exc.module = exc.module or self.path
            raise

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class ModuleList(Module):
    """Sequence of child modules registered by index."""

    def __init__(self, items=()):
        super().__init__()
        for item in items:
            self._modules[str(len(self._modules))] = item

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)

    def __getitem__(self, idx):
        return list(self._modules.values())[idx]


# init gain of a layer whose output feeds a ReLU
RELU_GAIN = float(np.sqrt(2.0))


def _fan_in_normal(rng: np.random.Generator, shape, fan_in: int, gain: float) -> np.ndarray:
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


class Conv3d(Module):
    """3-D convolution layer; weights use fan-in scaled normal init.

    RELU_GAIN, the default, suits ReLU-followed convs; pass gain=1.0 for convs
    feeding a sigmoid or the logits so fresh pre-activations stay near zero.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel,
        stride=1,
        padding=0,
        bias: bool = True,
        *,
        rng: np.random.Generator,
        gain: float = RELU_GAIN,
    ):
        super().__init__()
        kernel = ops._triple(kernel, "kernel")
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel[0] * kernel[1] * kernel[2]
        self.weight = Parameter(
            _fan_in_normal(rng, (out_channels, in_channels) + kernel, fan_in, gain)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv3d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm3d(Module):
    """Per-channel batchnorm (ops.BN_EPS, EMA momentum ops.BN_MOMENTUM).

    Running buffers hold the biased batch statistics EMA, moved by every
    train-mode forward; the steps buffer counts those updates so eval before
    any update (and before a checkpoint load, which restores steps) fails
    loudly instead of normalizing with the untouched init values.
    """

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))
        self.register_buffer("steps", np.zeros(1, dtype=np.float32))

    @property
    def stats_ready(self) -> bool:
        return float(self.steps[0]) > 0

    def forward(self, x: Tensor, pool=None, conv: Optional[Conv3d] = None) -> Tensor:
        """The normalized x; pool = (kernel, stride, padding) max-pools it too
        (ops.maxpool3d's norm), and conv makes it the unit conv(relu(bn(x)))
        (ops.batchnorm3d's conv), whose rule keeps x, not relu(bn(x))."""
        if not self.training and not self.stats_ready:
            raise RuntimeError(
                "batchnorm eval requested before any running-stat update; "
                "train first or load statistics from a checkpoint"
            )
        norm = (self.gamma, self.beta, self.running_mean, self.running_var)
        try:
            if pool is not None:
                out = ops.maxpool3d(x, *pool, norm=(*norm, self.training))
            else:
                unit = None if conv is None else (conv.weight, conv.bias, conv.stride, conv.padding)
                out = ops.batchnorm3d(x, *norm, self.training, conv=unit)
        except ops.NonFiniteError as exc:  # the unit's conv stage is the conv's
            exc.module = conv.path if exc.args[0].startswith("conv3d") else exc.module
            raise
        if self.training:
            self.steps[0] += 1
        return out


class Linear(Module):
    """Fully connected layer over (N, D) rows."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator,
        gain: float = RELU_GAIN,
    ):
        super().__init__()
        self.weight = Parameter(_fan_in_normal(rng, (out_features, in_features), in_features, gain))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


def stamp_names(root: Module) -> None:
    """Set the path of every module under root to its dotted attribute path
    (root's is ""), and every parameter's name to that path plus its own."""
    for prefix, module in root.named_modules():
        module.path = prefix[:-1]
        for name, p in module._params.items():
            p.name = prefix + name
