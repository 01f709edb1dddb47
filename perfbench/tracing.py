"""Traced run: spans around the public functions of each res3atn layer.

Everything is wrapped from here, never inside res3atn: the ``ops.*`` module
attributes, ``Tape.record`` (each recorded backward closure is timed and
attributed to its op and module), the ``forward`` of the network's named
submodules, the names ``training`` and ``checksuite`` import,
``NesterovSGD.step``, and the two suite entry points.

A span is ``[name, start, end, parent, step, module]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``step`` the number of
optimizer steps taken before it opened, and ``module`` the innermost named
network module at the time (for backward spans, at record time). Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path

from res3atn import checksuite, ops, training
from res3atn.optim import NesterovSGD
from res3atn.tensor import Tape

from workloads import median, patched

OPS = (
    "conv3d",
    "maxpool3d",
    "avgpool3d_adaptive",
    "trilinear_upsample",
    "batchnorm3d",
    "relu",
    "sigmoid",
    "linear",
    "softmax_cross_entropy",
    "add",
    "mul",
    "add_scalar",
    "reshape",
    "sum_all",
)
# conv is split by kernel: k1 is 1x1x1, k3 every larger kernel
OP_ROWS = ("conv3d.k1", "conv3d.k3") + OPS[1:]
SITES = (1, 2, 3)
MODULE_ROWS = (
    ("stem",)
    + tuple(f"stage{k}" for k in range(1, 8))
    + tuple(f"attention{k}{part}" for k in SITES for part in ("", ".trunk", ".mask", ".out"))
    + ("head",)
)
# per-step sums (median over steps), per-call medians, and per-pass counts
STEP_SPANS = {
    "training.forward_ms": "training.forward",
    "training.backward_ms": "training.backward",
    "optim.step_ms": "optim.step",
    "data.augment_ms": "data.augment",
}
CALL_SPANS = {
    "data.eval_preprocess_ms": ("data.eval_preprocess", 1e3),
    "training.evaluate_ms": ("training.evaluate", 1e3),
    "checkpoint.save_ms": ("checkpoint.save", 1e3),
    "checksuite.op_suite_s": ("checksuite.operator_suite", 1.0),
    "checksuite.network_check_s": ("checksuite.network_check", 1.0),
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, name in (("_ms", "ms"), ("_s", "s"), ("mib", "MiB"), ("gflop", "GFLOP")):
        if metric.endswith(suffix):
            return name
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.modules: list = []
        self.step = 0
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.conv_flop = 0
        self.checkpoint_bytes: list[int] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        module = self.modules[-1] if self.modules else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.step, module])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- layer wrappers ---------------------------------------------------

    def _op(self, op: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = op
            if op == "conv3d":
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                row = "conv3d.k1" if weight.shape[2:] == (1, 1, 1) else "conv3d.k3"
            index = self.open("ops." + row)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.out_bytes[row] += out.data.nbytes
            if op == "conv3d":
                self.conv_flop += 2 * out.size * weight.data[0].size
            return out

        return traced

    def _record(self, record):
        @functools.wraps(record)
        def traced(tape, output, inputs, backward_fn):
            op = self.spans[self.stack[-1]][0] if self.stack else "ops.unknown"
            module = self.modules[-1] if self.modules else None

            def timed(g):
                index = self.open(op + ".bwd")
                self.spans[index][5] = module
                try:
                    return backward_fn(g)
                finally:
                    self.close(index)

            return record(tape, output, inputs, timed)

        return traced

    def _module(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before()
            self.modules.append("network." + name)
            index = self.open("network." + name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                self.modules.pop()
                if after:
                    after()

        return traced

    def _instrument_network(self, net):
        """Wrap the forward of each named submodule of one built network.

        The root's own ops before stage1 form the ``stem`` and those after
        stage7 the ``head``; both are marked by pseudo-spans opened inside
        the root span.
        """
        pseudo: list[int] = []

        def open_part(name):
            self.modules.append("network." + name)
            pseudo.append(self.open("network." + name))

        def close_part():
            if pseudo:
                self.close(pseudo.pop())
                self.modules.pop()

        root_forward = net.forward

        def root(*args, **kwargs):
            index = self.open("network")
            open_part("stem")
            try:
                return root_forward(*args, **kwargs)
            finally:
                close_part()
                self.close(index)

        object.__setattr__(net, "forward", root)
        for k in range(1, 8):
            stage = getattr(net, f"stage{k}")
            before = close_part if k == 1 else None
            after = (lambda: open_part("head")) if k == 7 else None
            object.__setattr__(
                stage, "forward", self._module(f"stage{k}", stage.forward, before, after)
            )
        for k in SITES:
            att = getattr(net, f"attention{k}", None)
            if att is None:
                continue
            parts = (("", att), (".trunk", att.trunk), (".mask", att.mask), (".out", att.out_block))
            for suffix, module in parts:
                object.__setattr__(
                    module, "forward", self._module(f"attention{k}{suffix}", module.forward)
                )
        return net

    def install(self, stack: ExitStack) -> None:
        """Put every wrapper in place; ``stack`` restores the originals."""
        for op in OPS:
            stack.enter_context(patched(ops, op, self._op(op, getattr(ops, op))))
        # training imported the loss by name; point that name at the wrapped op
        stack.enter_context(
            patched(training, "softmax_cross_entropy", ops.softmax_cross_entropy)
        )
        stack.enter_context(patched(Tape, "record", self._record(Tape.record)))

        def build(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._instrument_network(fn(*args, **kwargs))

            return traced

        for owner in (training, checksuite):
            stack.enter_context(patched(owner, "build_res3atn", build(owner.build_res3atn)))

        tracer = self

        class ForwardTape(Tape):
            """The training step's tape; its context spans the taped forward."""

            def __enter__(self):
                self._span = tracer.open("training.forward")
                return super().__enter__()

            def __exit__(self, *exc):
                super().__exit__(*exc)
                tracer.close(self._span)

        stack.enter_context(patched(training, "Tape", ForwardTape))
        for owner, name, span in (
            (training, "backward", "training.backward"),
            (training, "augment_clip", "data.augment"),
            (training, "eval_preprocess", "data.eval_preprocess"),
            (training, "evaluate", "training.evaluate"),
            (training, "train", "training.train"),
            (checksuite, "grad_check", "gradcheck.grad_check"),
            (checksuite, "operator_suite", "checksuite.operator_suite"),
            (checksuite, "network_check", "checksuite.network_check"),
        ):
            stack.enter_context(patched(owner, name, self.wrap(span, getattr(owner, name))))

        def save(path, *args, _save=self.wrap("checkpoint.save", training.save_checkpoint),
                 **kwargs):
            _save(path, *args, **kwargs)
            self.checkpoint_bytes.append(os.path.getsize(path))

        def step(opt, _step=self.wrap("optim.step", NesterovSGD.step)):
            try:
                _step(opt)
            finally:
                self.step += 1

        stack.enter_context(patched(training, "save_checkpoint", save))
        stack.enter_context(patched(NesterovSGD, "step", step))

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """The per-layer table: self times per pass, counts, and sizes."""
        per_pass = 1.0 / max(passes, 1)
        duration = [s[2] - s[1] for s in self.spans]
        child_module_time = [0.0] * len(self.spans)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, _, _, parent, _, _) in enumerate(self.spans):
            by_name[name].append(i)
            if parent >= 0 and name.startswith("network."):
                child_module_time[parent] += duration[i]
        bwd_by_module: dict[str, float] = defaultdict(float)
        for i in range(len(self.spans)):
            if self.spans[i][0].endswith(".bwd") and self.spans[i][5]:
                bwd_by_module[self.spans[i][5]] += duration[i]

        def total_ms(name: str) -> float:
            return 1e3 * per_pass * sum(duration[i] for i in by_name.get(name, ()))

        m: dict[str, float] = {}
        for row in OP_ROWS:
            m[f"ops.{row}.calls"] = per_pass * len(by_name.get(f"ops.{row}", ()))
            m[f"ops.{row}.fwd_ms"] = total_ms(f"ops.{row}")
            m[f"ops.{row}.bwd_ms"] = total_ms(f"ops.{row}.bwd")
            m[f"ops.{row}.out_mib"] = per_pass * self.out_bytes.get(row, 0) / 2**20
        m["ops.conv3d.gflop"] = per_pass * self.conv_flop / 1e9
        for row in MODULE_ROWS:
            name = f"network.{row}"
            self_s = sum(duration[i] - child_module_time[i] for i in by_name.get(name, ()))
            m[f"{name}.fwd_ms"] = 1e3 * per_pass * self_s
            m[f"{name}.bwd_ms"] = 1e3 * per_pass * bwd_by_module.get(name, 0.0)
        for metric, name in STEP_SPANS.items():
            per_step: dict[int, float] = defaultdict(float)
            for i in by_name.get(name, ()):
                per_step[self.spans[i][4]] += duration[i]
            m[metric] = 1e3 * median(list(per_step.values()))
        for metric, (name, scale) in CALL_SPANS.items():
            m[metric] = scale * median([duration[i] for i in by_name.get(name, ())])
        m["checkpoint.mib"] = median(self.checkpoint_bytes) / 2**20
        m["gradcheck.grad_check_calls"] = per_pass * len(by_name.get("gradcheck.grad_check", ()))
        return m

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "step", "module"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
