"""Nesterov-momentum SGD with L2 weight decay.

Per step and per parameter p with gradient grad and velocity v:

    g <- grad + weight_decay * p
    v <- momentum * v + g
    p <- p - lr * (g + momentum * v)

The learning rate is constant; no schedule exists. Weight decay applies to
every parameter, batchnorm's gamma and beta included. The hyperparameters
have no defaults here; training.RunConfig holds them.

A gradient is freed as soon as it is taken. Training passes `update` to
backward as its on_final callback (see tensor), so each parameter's
gradient is taken once the tape's last rule that reads it has run, and no
step holds every gradient at once. A parameter of more than SMALL elements
is updated then. A smaller one's data, velocity and gradient are views of
an arena, one flat buffer per dtype; `update` copies the gradient there and
`step` updates each dtype's group in one pass. Either way the parameters
and velocities are bitwise those of per-parameter updates.

The update makes no temporary the size of a parameter. It runs the three
lines above, op by op in the same order, over one chunk of at most CHUNK
elements of the flattened (C-ordered) parameter or arena group at a time,
into two chunk-sized scratch arrays the optimizer keeps per dtype. Each
parameter keeps views of them shaped like its chunks, so a parameter's
update costs no more than whole-array arithmetic. Every op is elementwise,
so parameters and velocities are bitwise those of whole-array arithmetic.
The hyperparameters are Python floats, so it runs in the parameter's and
the gradient's dtype (an arena's, in the parameter's).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import GradCell, Parameter

# elements per chunk of the update: a pair of float32 scratch chunks is 512 KiB
CHUNK = 1 << 16

# a parameter of at most this many elements lives in the arena and is updated in step()
SMALL = 4096


def check_hyperparameters(lr: float, momentum: float, weight_decay: float) -> None:
    """Raise ValueError unless lr > 0, 0 <= momentum < 1 and weight_decay >= 0, all finite."""
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
    if not (np.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(f"weight_decay must be >= 0 and finite, got {weight_decay}")


class NesterovSGD:
    def __init__(self, params: Iterable[Parameter], lr: float, momentum: float,
                 weight_decay: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(map(id, self.params))) != len(self.params):
            raise ValueError("duplicate parameter passed to optimizer")
        if any(not n for n in names) or len(set(names)) != len(names):
            raise ValueError("optimizer parameters must carry unique names")
        check_hyperparameters(lr, momentum, weight_decay)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._scratch: dict[np.dtype, tuple] = {}  # dtype -> two chunk-sized arrays
        self._chunks: dict[GradCell, list] = {}  # cell -> _chunk_views of its parameter
        self._owners = {p.cell: p for p in self.params}
        self._updated: set[GradCell] = set()  # gradient taken by `update` since the last step
        self.velocities = {p.name: np.zeros_like(p.data) for p in self.params}
        groups: dict[np.dtype, list] = {}  # dtype -> its small parameters
        for p in (p for p in self.params if p.size <= SMALL):
            groups.setdefault(p.dtype, []).append(p)
        self._arena: dict[GradCell, tuple] = {}  # cell -> (data view, gradient view)
        self._groups = []  # (gradient, data, velocity, chunk views) per group
        for dtype, group in groups.items():
            sizes = [p.size for p in group]
            arena = np.zeros((3, sum(sizes)), dtype)  # gradient, data, velocity
            for p, views in zip(group, np.split(arena, np.cumsum(sizes)[:-1], axis=1)):
                grad, data, velocity = views.reshape(3, *p.shape)
                np.copyto(data, p.data)
                p.data, self.velocities[p.name] = data, velocity
                self._arena[p.cell] = (data, grad)
            self._groups.append((*arena, self._chunk_views(arena[0].shape, dtype)))

    def _chunk_views(self, shape, dtype) -> list:
        """The chunks of an array of shape, each (index, a, b): its index
        into the arrays, which are flattened when they span several chunks,
        and the views of the two dtype scratch arrays it computes in, of its
        shape."""
        scratch = self._scratch.get(dtype)
        if scratch is None:
            scratch = self._scratch[dtype] = (np.empty(CHUNK, dtype), np.empty(CHUNK, dtype))
        size = int(np.prod(shape))
        if size <= CHUNK:
            return [(..., *(s[:size].reshape(shape) for s in scratch))]
        return [(slice(lo, lo + CHUNK), *(s[: min(CHUNK, size - lo)] for s in scratch))
                for lo in range(0, size, CHUNK)]

    def _apply(self, grad, data, velocity, chunks) -> None:
        """The update of data and velocity by grad, chunk by chunk."""
        if len(chunks) > 1:
            grad, data, velocity = grad.reshape(-1), data.reshape(-1), velocity.reshape(-1)
        decay, lr, momentum = self.weight_decay, self.lr, self.momentum
        for index, a, b in chunks:
            g, d, v = grad[index], data[index], velocity[index]
            if decay:  # g <- grad + weight_decay * p
                g = np.add(g, np.multiply(decay, d, a), a)
            v *= momentum  # v <- momentum * v + g
            v += g
            # p <- p - lr * (g + momentum * v)
            np.subtract(d, np.multiply(lr, np.add(g, np.multiply(momentum, v, b), b), b), d)

    def update(self, cell: GradCell) -> None:
        """Take the gradient of the parameter whose cell this is, then free it:
        into the arena for `step` if the parameter is small, else applied now.
        A cell that is no parameter's, or that holds no gradient, is left alone."""
        p = self._owners.get(cell)
        if p is None or cell.grad is None:
            return
        if cell in self._arena:
            np.copyto(self._arena[cell][1], cell.grad)
        else:
            dtype = np.result_type(cell.grad, p.data)
            chunks = self._chunks.get(cell)
            if chunks is None or chunks[0][1].dtype != dtype:
                chunks = self._chunks[cell] = self._chunk_views(p.shape, dtype)
            self._apply(cell.grad, p.data, self.velocities[p.name], chunks)
        cell.grad = None
        self._updated.add(cell)

    def step(self) -> None:
        """End one step: take every gradient still held, then update the arena.
        Raises RuntimeError, updating no small parameter, for a parameter that
        got no gradient or whose data was rebound since the optimizer was built."""
        try:
            for p in self.params:
                if p.grad is None and p.cell not in self._updated:
                    raise RuntimeError(f"parameter {p.name!r} has no gradient; run backward first")
                if p.cell in self._arena and p.data is not self._arena[p.cell][0]:
                    raise RuntimeError(f"parameter {p.name!r} was rebound after the optimizer "
                                       "was built; copy into its data instead")
                self.update(p.cell)
            for group in self._groups:
                self._apply(*group)
        finally:
            self._updated.clear()

    def load_velocities(self, velocities: dict[str, np.ndarray]) -> None:
        for name, v in velocities.items():
            if name not in self.velocities:
                raise KeyError(f"velocity for unknown parameter {name!r}")
            if v.shape != self.velocities[name].shape:
                raise ValueError(f"velocity shape mismatch for {name!r}")
            np.copyto(self.velocities[name], v, casting="unsafe")
