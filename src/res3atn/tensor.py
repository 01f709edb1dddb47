"""Dense tensors and the reverse-mode differentiation tape.

Activations use the axis order (batch, channel, frame, height, width) in
row-major float32 storage; fully connected layers and losses use lower ranks.
Gradients are plain numpy arrays of the same shape as the value they belong
to and accumulate by summation when a tensor fans out into several consumers.

A gradient rule owns the g it is handed: it may overwrite g or return it
(or a view of it) as an input's gradient. Backward hands a rule its output's
own gradient buffer once the output tensor is gone, and a copy while the
caller still holds the tensor, so a held intermediate keeps its .grad.

Backward takes an optional on_final callback. It is called once with each
gradient cell that some recorded rule accumulates into, as soon as every
such rule has run, even one whose output got no gradient. From then on no
rule reads or adds to that cell, so a parameter's gradient is final and a
parameter's data may change: every rule that closed over it has run.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)


def _coerce(data, dtype) -> np.ndarray:
    """C-ordered storage of data; a 0-d value stays 0-d."""
    arr = np.asarray(data)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in _FLOAT_DTYPES else DEFAULT_DTYPE
    return np.asarray(arr, dtype=dtype, order="C")


class GradCell:
    """The gradient slot of one tensor: its value's shape and its gradient.

    Tape nodes hold cells rather than tensors, so recording an operation
    keeps no tensor's data alive.
    """

    __slots__ = ("shape", "grad")

    def __init__(self, shape):
        self.shape = shape
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.shape:
            raise ValueError(f"gradient shape {g.shape} does not match value shape {self.shape}")
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


class Tensor:
    """A dense n-d float array with an optional gradient buffer.

    The gradient lives in the tensor's GradCell; `grad` reads and writes it.
    """

    __slots__ = ("data", "cell", "requires_grad", "tape", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.cell = GradCell(self.data.shape)
        self.requires_grad = bool(requires_grad)
        self.tape: Optional["Tape"] = None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.cell.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self.cell.grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"


class Parameter(Tensor):
    """A trainable tensor with a dotted-path name, which modules.stamp_names
    sets; a .trunk. or .mask. in it names an attention block's branch."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = "", dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class _Node:
    """One recorded operation: the gradient cells of its output and inputs,
    a weak reference to its output tensor, and the gradient rule.

    An input that does not require gradients has None for a cell. The node
    holds no tensor, so what it keeps for backward is exactly what its rule
    closes over.
    """

    __slots__ = ("output", "tensor", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: tuple, backward_fn: Callable):
        self.output = output.cell
        self.tensor = weakref.ref(output)
        self.inputs = inputs
        self.backward_fn = backward_fn


_STACK = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STACK, "tapes", None)
    if stack is None:
        stack = []
        _STACK.tapes = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed operations for one backward pass.

    Operations append nodes in execution order, which is already a valid
    topological order, so backward simply pops the list from the end. A node
    keeps gradient cells and its rule, never a tensor: an intermediate whose
    data no rule reads is freed during the forward as soon as the caller lets
    go of it. A node is dropped as soon as its rule has run: every consumer
    of its output was recorded later and has already run. A tape is consumed
    by its backward pass and cannot be replayed.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape context exited out of order")
        stack.pop()

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
        if self.consumed:
            raise RuntimeError("cannot record onto a consumed tape")
        output.tape = self
        cells = tuple(t.cell if t.requires_grad else None for t in inputs)
        self.nodes.append(_Node(output, cells, backward_fn))

    def backward(self, loss: Tensor, on_final: Optional[Callable] = None) -> None:
        """Accumulate d(loss)/d(t) into t.grad for every recorded tensor.

        on_final: see the module docstring; readers are counted when backward starts.
        """
        if self.consumed:
            raise RuntimeError("backward called on a consumed tape")
        if loss.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if loss.tape is not self:
            raise RuntimeError("loss was not produced under this tape")
        loss.grad = np.ones_like(loss.data)
        self.consumed = True
        readers = Counter(c for node in self.nodes for c in node.inputs if c is not None)
        while self.nodes:
            for cell in _apply(self.nodes.pop()):
                if cell is not None:
                    readers[cell] -= 1
                    if not readers[cell] and on_final is not None:
                        on_final(cell)


def _apply(node: _Node) -> tuple:
    """Run one popped node's rule, accumulate into its input cells, return them.

    Every consumer of the output has already run, so if the output tensor is
    gone nothing can read its gradient: the cell gives up its buffer and the
    rule owns it. A held output keeps its gradient and the rule gets a copy.
    Once this returns nothing references the node, so the arrays its rule
    closed over are freed; backward counts down the returned cells, not the
    node.
    """
    g = node.output.grad
    if g is not None:
        if node.tensor() is None:
            node.output.grad = None
        else:
            g = g.copy()
        for cell, gi in zip(node.inputs, node.backward_fn(g)):
            if cell is not None and gi is not None:
                cell.accumulate(gi)
    return node.inputs


def backward(loss: Tensor, on_final: Optional[Callable] = None) -> None:
    """Run reverse-mode accumulation from a scalar loss to its tape's leaves.

    on_final is Tape.backward's: called with each cell once its gradient is final.
    """
    if loss.tape is None:
        raise RuntimeError("loss was not produced under an active tape")
    loss.tape.backward(loss, on_final)


def zero_grads(params) -> None:
    """Clear the gradient buffers of an iterable of tensors."""
    for p in params:
        p.grad = None
