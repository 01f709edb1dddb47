"""Nesterov-momentum SGD with L2 weight decay.

Per step and per parameter p with gradient grad and velocity v:

    g <- grad + weight_decay * p
    v <- momentum * v + g
    p <- p - lr * (g + momentum * v)

The learning rate is constant; no schedule exists. Weight decay applies to
every parameter, including batchnorm affine terms, unless decay_bn=False
excludes parameters named ``*.gamma``/``*.beta`` (the batchnorm layers own
those suffixes). Gradients are zeroed after each step. The hyperparameters
have no defaults here; training.RunConfig holds them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Parameter

_BN_SUFFIXES = (".gamma", ".beta")


def check_hyperparameters(lr: float, momentum: float, weight_decay: float) -> None:
    """Raise ValueError unless lr > 0, 0 <= momentum < 1 and weight_decay >= 0, all finite."""
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
    if not (np.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(f"weight_decay must be >= 0 and finite, got {weight_decay}")


class NesterovSGD:
    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float,
        weight_decay: float,
        decay_bn: bool,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(map(id, self.params))) != len(self.params):
            raise ValueError("duplicate parameter passed to optimizer")
        if any(not n for n in names) or len(set(names)) != len(names):
            raise ValueError("optimizer parameters must carry unique names")
        check_hyperparameters(lr, momentum, weight_decay)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.decay_bn = decay_bn
        self.velocities: dict[str, np.ndarray] = {
            p.name: np.zeros_like(p.data) for p in self.params
        }

    def _decays(self, p: Parameter) -> bool:
        if self.decay_bn:
            return True
        return not p.name.endswith(_BN_SUFFIXES)

    def step(self) -> None:
        """Apply one update to every parameter, then clear gradients."""
        for p in self.params:
            if p.grad is None:
                raise RuntimeError(f"parameter {p.name!r} has no gradient; run backward first")
            g = p.grad
            if self.weight_decay and self._decays(p):
                g = g + self.weight_decay * p.data
            v = self.velocities[p.name]
            v *= self.momentum
            v += g
            p.data -= self.lr * (g + self.momentum * v)
            p.grad = None

    def load_velocities(self, velocities: dict[str, np.ndarray]) -> None:
        for name, v in velocities.items():
            if name not in self.velocities:
                raise KeyError(f"velocity for unknown parameter {name!r}")
            if v.shape != self.velocities[name].shape:
                raise ValueError(f"velocity shape mismatch for {name!r}")
            self.velocities[name] = v.astype(self.velocities[name].dtype)
