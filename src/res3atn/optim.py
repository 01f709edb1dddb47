"""Nesterov-momentum SGD with L2 weight decay.

Per step and per parameter p with gradient grad and velocity v:

    g <- grad + weight_decay * p
    v <- momentum * v + g
    p <- p - lr * (g + momentum * v)

The learning rate is constant; no schedule exists. Weight decay applies to
every parameter, including batchnorm affine terms, unless decay_bn=False
excludes parameters named ``*.gamma``/``*.beta`` (the batchnorm layers own
those suffixes). The hyperparameters have no defaults here;
training.RunConfig holds them.

A gradient is freed as soon as it is applied. Training passes `update` to
backward as its on_final callback (see tensor), so each parameter is
updated once the tape's last rule that reads it has run, and no step holds
every gradient at once. `step` then ends the step: it updates any
parameter that still holds a gradient and raises for one that got none.
The arithmetic is the same either way, so parameters and velocities are
bitwise those of an update made wholly in `step`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import GradCell, Parameter

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
        self._owners = {p.cell: p for p in self.params}
        self._updated: set[GradCell] = set()  # updated by `update` since the last step

    def _decays(self, p: Parameter) -> bool:
        if self.decay_bn:
            return True
        return not p.name.endswith(_BN_SUFFIXES)

    def update(self, cell: GradCell) -> None:
        """Update the parameter whose gradient cell this is, then free its gradient.

        A cell that is no parameter's, or that holds no gradient, is left alone.
        """
        p = self._owners.get(cell)
        if p is None or p.grad is None:
            return
        g = p.grad
        if self.weight_decay and self._decays(p):
            g = g + self.weight_decay * p.data
        v = self.velocities[p.name]
        v *= self.momentum
        v += g
        p.data -= self.lr * (g + self.momentum * v)
        p.grad = None
        self._updated.add(cell)

    def step(self) -> None:
        """End one step: update every parameter that still holds a gradient.

        Raises RuntimeError for a parameter that got no gradient this step,
        neither here nor through `update` during backward.
        """
        try:
            for p in self.params:
                if p.grad is None and p.cell not in self._updated:
                    raise RuntimeError(f"parameter {p.name!r} has no gradient; run backward first")
                self.update(p.cell)
        finally:
            self._updated.clear()

    def load_velocities(self, velocities: dict[str, np.ndarray]) -> None:
        for name, v in velocities.items():
            if name not in self.velocities:
                raise KeyError(f"velocity for unknown parameter {name!r}")
            if v.shape != self.velocities[name].shape:
                raise ValueError(f"velocity shape mismatch for {name!r}")
            self.velocities[name] = v.astype(self.velocities[name].dtype)
