"""Canonical gradient-check suites and the conv reference, shared by the CLI and tests.

OPERATOR_CHECKS holds one row per operator in ops, all 14 of them: an rng
tag, a maker that draws one case's inputs, and the cases. One runner checks
every row. It projects a non-scalar op output against a fixed random weight
tensor (so coordinate permutation bugs cannot cancel out) and compares the
recorded gradient with central finite differences. mutate_backward wraps
ops.<name> from outside to double the gradients its recorded rule returns,
proving the checks catch a wrong derivative. The network check casts a
reduced-width model to float64 and probes its parameters in place through
the cross-entropy loss. conv3d_direct is the nested-loop convolution that
ops.conv3d's im2col route is held to.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial, wraps

import numpy as np

from . import ops
from .gradcheck import GradCheckReport, grad_check
from .network import NetworkSpec, build_res3atn
from .tensor import Tensor


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(tag))))


def _randn(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def _project(out: Tensor, weights: np.ndarray) -> Tensor:
    w = Tensor(weights.astype(out.data.dtype))
    return ops.sum_all(ops.mul(out, w))


def conv3d_direct(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None, stride=1, padding=0
) -> np.ndarray:
    """Reference 3-D cross-correlation: one dot product per output element.

    Same contract as ops.conv3d's forward, on plain arrays; it is slow and
    exists only as the oracle the fast route is compared against.
    """
    stride = ops._triple(stride, "stride")
    padding = ops._triple(padding, "padding")
    n = x.shape[0]
    cout, _, kf, kh, kw = weight.shape
    fo, ho, wo = ops._check_window_geometry(
        "conv3d_direct", x.shape[2:], (kf, kh, kw), stride, padding
    )
    xp = ops._pad5(x, padding)
    out = np.empty((n, cout, fo, ho, wo), dtype=xp.dtype)
    for ni in range(n):
        for co in range(cout):
            wk = weight[co]
            for fi in range(fo):
                f0 = fi * stride[0]
                for hi in range(ho):
                    h0 = hi * stride[1]
                    for wi in range(wo):
                        w0 = wi * stride[2]
                        window = xp[ni, :, f0 : f0 + kf, h0 : h0 + kh, w0 : w0 + kw]
                        acc = np.vdot(wk, window)
                        if bias is not None:
                            acc += bias[co]
                        out[ni, co, fi, hi, wi] = acc
    return out


def _leaf(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


def _conv3d_case(rng, n, cin, cout, f, h, w, k, s, p, use_bias):
    x = _leaf(_randn(rng, (n, cin, f, h, w)))
    wt = _leaf(_randn(rng, (cout, cin, k, k, k), scale=0.5))
    bias = [_leaf(_randn(rng, (cout,)))] if use_bias else []
    return (lambda *ts: ops.conv3d(*ts, stride=s, padding=p)), [x, wt] + bias


def _maxpool3d_case(rng, n, c, f, h, w, k, s, p, mode=None):
    # A shuffled, evenly spaced grid with the spread of N(0, 10^2): no two
    # values lie closer than 20*sqrt(3)/(size-1) >= 0.069, far beyond the
    # FD step, so no probe can move a window's maximum onto another value.
    size = n * c * f * h * w
    grid = np.linspace(-10.0 * np.sqrt(3.0), 10.0 * np.sqrt(3.0), size)
    x = _leaf(rng.permutation(grid).reshape(n, c, f, h, w).astype(np.float32))
    if mode is None:
        return (lambda x: ops.maxpool3d(x, k, stride=s, padding=p)), [x]
    # mode "train" or "eval": the pool normalizes x first (norm). A
    # channel's map is monotone and one for all its cells, and |gamma| >=
    # 0.5 keeps a probe from flipping gamma's sign, so no probe moves a
    # winner there either.
    gamma = _leaf((rng.uniform(0.5, 1.5, c) * rng.choice([-1.0, 1.0], c)).astype(np.float32))
    beta = _leaf(_randn(rng, (c,), scale=0.5))
    norm = _running_stats(rng, c, mode == "train") + (mode == "train",)

    def op(x, gamma, beta):
        return ops.maxpool3d(x, k, stride=s, padding=p, norm=(gamma, beta, *norm))

    return op, [x, gamma, beta]


def _avgpool_case(rng, *shape):
    return ops.avgpool3d_adaptive, [_leaf(_randn(rng, shape))]


def _upsample_case(rng, shape, target):
    return (lambda x: ops.trilinear_upsample(x, target)), [_leaf(_randn(rng, shape))]


def _running_stats(rng, c, training):
    """Running mean and variance buffers: the init values, or fixed statistics for eval."""
    if training:
        return np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)
    rm = _randn(rng, (c,), scale=0.3)
    return rm, (np.abs(_randn(rng, (c,))) + 0.5).astype(np.float32)


def _batchnorm_case(rng, shape, training):
    c = shape[1]
    x = _leaf(_randn(rng, shape))
    gamma = _leaf(_randn(rng, (c,), scale=0.5) + 1.0)
    beta = _leaf(_randn(rng, (c,), scale=0.5))
    rm, rv = _running_stats(rng, c, training)

    def op(x, gamma, beta):
        return ops.batchnorm3d(x, gamma, beta, rm, rv, training=training)

    return op, [x, gamma, beta]


def _sigmoid_case(rng, *shape):
    return ops.sigmoid, [_leaf(_randn(rng, shape, scale=2.0))]


def _relu_case(rng, *shape):
    # keep every coordinate away from the kink at zero
    mag = rng.uniform(0.1, 2.0, shape).astype(np.float32)
    sign = rng.choice([-1.0, 1.0], shape).astype(np.float32)
    return ops.relu, [_leaf(mag * sign)]


def _linear_case(rng, n, d_in, d_out):
    x = _leaf(_randn(rng, (n, d_in)))
    w = _leaf(_randn(rng, (d_out, d_in), scale=0.5))
    b = _leaf(_randn(rng, (d_out,)))
    return ops.linear, [x, w, b]


def _softmax_ce_case(rng, n, k):
    logits = _leaf(_randn(rng, (n, k), scale=2.0))
    labels = rng.integers(0, k, size=n)
    return (lambda logits: ops.softmax_cross_entropy(logits, labels)), [logits]


def _binary_case(name: str):
    """Cases for ops.add or ops.mul. operands is "both", "left" (the right
    operand is a constant), or "same" (one tensor in both slots, so its two
    gradients accumulate)."""

    def make(rng, shape, operands):
        op = getattr(ops, name)
        a = _leaf(_randn(rng, shape))
        if operands == "same":
            return (lambda a: op(a, a)), [a]
        b = Tensor(_randn(rng, shape), requires_grad=operands == "both")
        return op, [a, b]

    return make


def _add_scalar_case(rng, shape, value):
    return (lambda x: ops.add_scalar(x, value)), [_leaf(_randn(rng, shape))]


def _reshape_case(rng, shape, target):
    return (lambda x: ops.reshape(x, target)), [_leaf(_randn(rng, shape))]


def _sum_all_case(rng, *shape):
    return ops.sum_all, [_leaf(_randn(rng, shape))]


def _check(tag: int, make, cases, seed: int) -> list[GradCheckReport]:
    """One report per case: make(rng, *case) draws the inputs and returns
    (op, tensors); an op output that is not 0-d is projected to a scalar.

    Makers look ops up when the check runs, so an op that mutate_backward
    has replaced is the one checked."""
    rng = _rng(seed, tag)
    reports = []
    for case in cases:
        op, tensors = make(rng, *case)
        out = op(*tensors)
        proj = None if out.ndim == 0 else _randn(rng, out.shape)

        def fn(*ts, op=op, proj=proj):
            out = op(*ts)
            return out if proj is None else _project(out, proj)

        reports.append(grad_check(fn, tensors, rng=_rng(seed, 100 + tag)))
    return reports


# name -> check(seed), one row per operator: rng tag, case maker, and cases.
# Tags 10 and 11 belong to network_check.
OPERATOR_CHECKS = {
    "conv3d": partial(_check, 1, _conv3d_case, [
        # (N, Cin, Cout, F, H, W, k, stride, pad, bias)
        (1, 1, 2, 4, 5, 5, 3, 1, 1, True),
        (2, 2, 3, 5, 4, 4, 3, 2, 1, True),
        (1, 3, 2, 4, 4, 4, 1, 1, 0, False),
        (2, 2, 2, 6, 5, 5, 3, 2, 0, True),
        (1, 2, 4, 5, 6, 4, 2, 1, 1, True),
        # 8.5 MiB of float32 columns, above ops.KEEP_COLUMNS_BYTES: the
        # regather route, one frame per run, runs sharing input frames
        (1, 4, 2, 4, 72, 72, 3, 1, 1, True),
    ]),
    "maxpool3d": partial(_check, 2, _maxpool3d_case, [
        # (N, C, F, H, W, k, stride, pad[, norm mode])
        (1, 1, 4, 6, 6, 2, 2, 0),
        (2, 2, 5, 5, 5, 3, 2, 1),
        (1, 3, 6, 4, 4, 2, 1, 1),
        (2, 1, 4, 4, 6, 3, 3, 0),
        (1, 2, 5, 6, 5, 3, 2, 1),
        (2, 3, 5, 6, 5, 3, 2, 1, "train"),
        (1, 4, 4, 5, 6, 3, 2, 1, "eval"),
    ]),
    "avgpool3d_adaptive": partial(_check, 3, _avgpool_case, [
        (1, 1, 2, 3, 3), (2, 3, 4, 4, 4), (1, 2, 5, 3, 6), (3, 1, 2, 2, 2), (1, 4, 3, 5, 4),
    ]),
    "trilinear_upsample": partial(_check, 4, _upsample_case, [
        ((1, 1, 2, 3, 3), (4, 6, 6)),
        ((2, 2, 3, 4, 4), (6, 8, 8)),
        ((1, 3, 2, 2, 5), (4, 4, 7)),
        ((1, 1, 4, 4, 4), (4, 4, 4)),
        ((2, 1, 3, 5, 2), (5, 9, 4)),
    ]),
    "batchnorm3d": partial(_check, 5, _batchnorm_case, [
        ((2, 2, 3, 4, 4), True),
        ((1, 3, 4, 3, 3), True),
        ((3, 1, 2, 5, 5), True),
        ((2, 4, 3, 2, 2), True),
        ((2, 3, 3, 4, 4), False),
    ]),
    "sigmoid": partial(_check, 6, _sigmoid_case, [
        (3,), (2, 5), (1, 2, 3, 2, 2), (4, 4), (2, 2, 2),
    ]),
    "relu": partial(_check, 7, _relu_case, [
        (4,), (3, 3), (2, 2, 2, 2, 2), (5, 2), (1, 6),
    ]),
    "linear": partial(_check, 8, _linear_case, [
        # (N, D_in, D_out)
        (2, 3, 4), (1, 5, 2), (4, 2, 2), (3, 6, 5), (2, 4, 1),
    ]),
    "softmax_cross_entropy": partial(_check, 9, _softmax_ce_case, [
        # (N, classes)
        (2, 3), (4, 2), (3, 5), (1, 4), (6, 7),
    ]),
    "add": partial(_check, 12, _binary_case("add"), [
        ((2, 3), "both"), ((1, 2, 3, 2, 2), "both"), ((4,), "left"), ((3, 3), "same"),
        ((2, 2, 2, 3, 1), "both"),
    ]),
    "mul": partial(_check, 13, _binary_case("mul"), [
        ((2, 3), "both"), ((1, 2, 3, 2, 2), "both"), ((4,), "left"), ((3, 3), "same"),
        ((2, 2, 2, 3, 1), "both"),
    ]),
    "add_scalar": partial(_check, 14, _add_scalar_case, [
        ((3,), 1.0), ((2, 4), -0.5), ((1, 2, 3, 2, 2), 1.0), ((5, 2), 0.0), ((2, 2, 2), 3.0),
    ]),
    "reshape": partial(_check, 15, _reshape_case, [
        ((2, 3), (3, 2)), ((2, 3, 2, 2, 2), (2, -1)), ((6,), (1, 2, 3)),
        ((1, 4, 1, 2, 2), (4, 4)), ((3, 4), (12,)),
    ]),
    "sum_all": partial(_check, 16, _sum_all_case, [
        (3,), (2, 5), (1, 2, 3, 2, 2), (4, 4), (2, 2, 2),
    ]),
}


@contextmanager
def mutate_backward(name: str):
    """Double every gradient the named operator's recorded rule returns.

    Inside the context ops.<name> is a wrapper that corrupts the backward
    closure of each node the op records; it proves the checks can detect a
    wrong derivative. The op itself is never edited.
    """
    if name not in OPERATOR_CHECKS:
        raise ValueError(f"no backward mutation for unknown operator {name!r}")
    original = getattr(ops, name)

    def doubled(rule):
        return lambda g: tuple(None if d is None else d * 2.0 for d in rule(g))

    @wraps(original)
    def mutated(*args, **kwargs):
        out = original(*args, **kwargs)
        if out.tape is not None and out.tape.nodes and out.tape.nodes[-1].output is out.cell:
            node = out.tape.nodes[-1]
            node.backward_fn = doubled(node.backward_fn)
        return out

    setattr(ops, name, mutated)
    try:
        yield
    finally:
        setattr(ops, name, original)


def operator_suite(seed: int = 0) -> dict[str, list[GradCheckReport]]:
    """Every operator row's reports, keyed by op name; one row is OPERATOR_CHECKS[name](seed)."""
    return {name: check(seed) for name, check in OPERATOR_CHECKS.items()}


def network_check(
    num_classes: int = 4,
    frames: int = 8,
    size: int = 32,
    channel_scale: int = 16,
    seed: int = 0,
    max_coords: int = 64,
) -> GradCheckReport:
    """End-to-end parameter gradient check on a reduced-width network.

    The whole model runs in float64, so grad_check perturbs its parameters
    in place by eps 1e-6, small enough that few switching points of the
    piecewise-smooth loss (relu, max pooling) lie within reach of a probe.
    A coordinate whose one-sided slopes disagree beyond tol sits at such a
    point and is excluded and replaced; that never masks a wrong backward,
    because exclusion compares finite differences only with each other.
    """
    spec = NetworkSpec(
        num_classes=num_classes,
        input_frames=frames,
        input_size=size,
        channel_scale=channel_scale,
    )
    net = build_res3atn(spec, seed=seed)
    net.astype(np.float64)
    net.train()
    rng = _rng(seed, 10)
    x = Tensor(rng.standard_normal((2, spec.input_channels, frames, size, size)))
    labels = rng.integers(0, num_classes, size=2)

    def fn(*_params):
        return ops.softmax_cross_entropy(net(x), labels)

    return grad_check(
        fn,
        net.parameters(),
        eps=1e-6,
        tol=2e-3,
        max_coords=max_coords,
        rng=_rng(seed, 11),
        exclude_kinks=True,
    )
