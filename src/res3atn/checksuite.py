"""Canonical gradient-check suites and the conv reference, shared by the CLI and tests.

Each operator check projects the op output against a fixed random weight
tensor (so coordinate permutation bugs cannot cancel out) and compares the
recorded gradient with central finite differences. The network check casts
a reduced-width model to float64 and probes its parameters in place through
the cross-entropy loss. conv3d_direct is the nested-loop convolution that
ops.conv3d's im2col route is held to.
"""

from __future__ import annotations

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


def _proj_for(rng, fn, *tensors) -> np.ndarray:
    """Draw a projection weight matching the op's output shape."""
    out = fn(*tensors)
    return _randn(rng, out.shape)


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


def _check_conv3d(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 1)
    reports = []
    configs = [
        # (N, Cin, Cout, F, H, W, k, stride, pad, bias)
        (1, 1, 2, 4, 5, 5, 3, 1, 1, True),
        (2, 2, 3, 5, 4, 4, 3, 2, 1, True),
        (1, 3, 2, 4, 4, 4, 1, 1, 0, False),
        (2, 2, 2, 6, 5, 5, 3, 2, 0, True),
        (1, 2, 4, 5, 6, 4, 2, 1, 1, True),
    ]
    for n, cin, cout, f, h, w, k, s, p, use_bias in configs:
        x = Tensor(_randn(rng, (n, cin, f, h, w)), requires_grad=True)
        wt = Tensor(_randn(rng, (cout, cin, k, k, k), scale=0.5), requires_grad=True)
        b = Tensor(_randn(rng, (cout,)), requires_grad=True) if use_bias else None
        tensors = [x, wt] + ([b] if b is not None else [])

        def op(x, wt, b=None, s=s, p=p):
            return ops.conv3d(x, wt, b, stride=s, padding=p)

        proj = _proj_for(rng, op, *tensors)

        def fn(*ts, op=op, proj=proj):
            return _project(op(*ts), proj)

        reports.append(grad_check(fn, tensors, rng=_rng(seed, 101)))
    return reports


def _check_maxpool3d(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 2)
    reports = []
    configs = [
        # (N, C, F, H, W, k, stride, pad)
        (1, 1, 4, 6, 6, 2, 2, 0),
        (2, 2, 5, 5, 5, 3, 2, 1),
        (1, 3, 6, 4, 4, 2, 1, 1),
        (2, 1, 4, 4, 6, 3, 3, 0),
        (1, 2, 5, 6, 5, 3, 2, 1),
    ]
    for n, c, f, h, w, k, s, p in configs:
        # A shuffled, evenly spaced grid with the spread of N(0, 10^2): no two
        # values lie closer than 20*sqrt(3)/(size-1) >= 0.069, far beyond the
        # FD step, so no probe can move a window's maximum onto another value.
        size = n * c * f * h * w
        grid = np.linspace(-10.0 * np.sqrt(3.0), 10.0 * np.sqrt(3.0), size)
        x = Tensor(rng.permutation(grid).reshape(n, c, f, h, w).astype(np.float32),
                   requires_grad=True)

        def op(x, k=k, s=s, p=p):
            return ops.maxpool3d(x, k, stride=s, padding=p)

        proj = _proj_for(rng, op, x)

        def fn(x, op=op, proj=proj):
            return _project(op(x), proj)

        reports.append(grad_check(fn, [x], rng=_rng(seed, 102)))
    return reports


def _check_avgpool(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 3)
    reports = []
    for shape in [(1, 1, 2, 3, 3), (2, 3, 4, 4, 4), (1, 2, 5, 3, 6),
                  (3, 1, 2, 2, 2), (1, 4, 3, 5, 4)]:
        x = Tensor(_randn(rng, shape), requires_grad=True)
        proj = _proj_for(rng, ops.avgpool3d_adaptive, x)

        def fn(x, proj=proj):
            return _project(ops.avgpool3d_adaptive(x), proj)

        reports.append(grad_check(fn, [x], rng=_rng(seed, 103)))
    return reports


def _check_upsample(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 4)
    reports = []
    configs = [
        ((1, 1, 2, 3, 3), (4, 6, 6)),
        ((2, 2, 3, 4, 4), (6, 8, 8)),
        ((1, 3, 2, 2, 5), (4, 4, 7)),
        ((1, 1, 4, 4, 4), (4, 4, 4)),
        ((2, 1, 3, 5, 2), (5, 9, 4)),
    ]
    for shape, target in configs:
        x = Tensor(_randn(rng, shape), requires_grad=True)

        def op(x, target=target):
            return ops.trilinear_upsample(x, target)

        proj = _proj_for(rng, op, x)

        def fn(x, op=op, proj=proj):
            return _project(op(x), proj)

        reports.append(grad_check(fn, [x], rng=_rng(seed, 104)))
    return reports


def _check_batchnorm(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 5)
    reports = []
    shapes = [(2, 2, 3, 4, 4), (1, 3, 4, 3, 3), (3, 1, 2, 5, 5), (2, 4, 3, 2, 2)]
    for shape in shapes:
        c = shape[1]
        x = Tensor(_randn(rng, shape), requires_grad=True)
        gamma = Tensor(_randn(rng, (c,), scale=0.5) + 1.0, requires_grad=True)
        beta = Tensor(_randn(rng, (c,), scale=0.5), requires_grad=True)
        rm = np.zeros(c, dtype=np.float32)
        rv = np.ones(c, dtype=np.float32)

        def op(x, gamma, beta, rm=rm, rv=rv):
            return ops.batchnorm3d(x, gamma, beta, rm, rv, training=True,
                                   update_running=False)

        proj = _proj_for(rng, op, x, gamma, beta)

        def fn(x, gamma, beta, op=op, proj=proj):
            return _project(op(x, gamma, beta), proj)

        reports.append(grad_check(fn, [x, gamma, beta], rng=_rng(seed, 105)))
    # eval mode: fixed running statistics
    shape = (2, 3, 3, 4, 4)
    c = shape[1]
    x = Tensor(_randn(rng, shape), requires_grad=True)
    gamma = Tensor(_randn(rng, (c,), scale=0.5) + 1.0, requires_grad=True)
    beta = Tensor(_randn(rng, (c,), scale=0.5), requires_grad=True)
    rm = _randn(rng, (c,), scale=0.3)
    rv = (np.abs(_randn(rng, (c,))) + 0.5).astype(np.float32)
    proj = _randn(rng, shape)

    def fn_eval(x, gamma, beta, rm=rm, rv=rv, proj=proj):
        out = ops.batchnorm3d(x, gamma, beta, rm, rv, training=False)
        return _project(out, proj)

    reports.append(grad_check(fn_eval, [x, gamma, beta], rng=_rng(seed, 105)))
    return reports


def _check_sigmoid(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 6)
    reports = []
    for shape in [(3,), (2, 5), (1, 2, 3, 2, 2), (4, 4), (2, 2, 2)]:
        x = Tensor(_randn(rng, shape, scale=2.0), requires_grad=True)
        proj = _randn(rng, shape)

        def fn(x, proj=proj):
            return _project(ops.sigmoid(x), proj)

        reports.append(grad_check(fn, [x], rng=_rng(seed, 106)))
    return reports


def _check_relu(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 7)
    reports = []
    for shape in [(4,), (3, 3), (2, 2, 2, 2, 2), (5, 2), (1, 6)]:
        # keep every coordinate away from the kink at zero
        mag = rng.uniform(0.1, 2.0, shape).astype(np.float32)
        sign = rng.choice([-1.0, 1.0], shape).astype(np.float32)
        x = Tensor(mag * sign, requires_grad=True)
        proj = _randn(rng, shape)

        def fn(x, proj=proj):
            return _project(ops.relu(x), proj)

        reports.append(grad_check(fn, [x], rng=_rng(seed, 107)))
    return reports


def _check_linear(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 8)
    reports = []
    for n, d_in, d_out in [(2, 3, 4), (1, 5, 2), (4, 2, 2), (3, 6, 5), (2, 4, 1)]:
        x = Tensor(_randn(rng, (n, d_in)), requires_grad=True)
        w = Tensor(_randn(rng, (d_out, d_in), scale=0.5), requires_grad=True)
        b = Tensor(_randn(rng, (d_out,)), requires_grad=True)
        proj = _randn(rng, (n, d_out))

        def fn(x, w, b, proj=proj):
            return _project(ops.linear(x, w, b), proj)

        reports.append(grad_check(fn, [x, w, b], rng=_rng(seed, 108)))
    return reports


def _check_softmax_ce(seed: int) -> list[GradCheckReport]:
    rng = _rng(seed, 9)
    reports = []
    for n, k in [(2, 3), (4, 2), (3, 5), (1, 4), (6, 7)]:
        logits = Tensor(_randn(rng, (n, k), scale=2.0), requires_grad=True)
        labels = rng.integers(0, k, size=n)

        def fn(logits, labels=labels):
            return ops.softmax_cross_entropy(logits, labels)

        reports.append(grad_check(fn, [logits], rng=_rng(seed, 109)))
    return reports


OPERATOR_CHECKS = {
    "conv3d": _check_conv3d,
    "maxpool3d": _check_maxpool3d,
    "avgpool3d_adaptive": _check_avgpool,
    "trilinear_upsample": _check_upsample,
    "batchnorm3d": _check_batchnorm,
    "sigmoid": _check_sigmoid,
    "relu": _check_relu,
    "linear": _check_linear,
    "softmax_cross_entropy": _check_softmax_ce,
}


def operator_suite(seed: int = 0, only=None) -> dict[str, list[GradCheckReport]]:
    """Run the per-operator checks; returns reports keyed by op name."""
    names = list(OPERATOR_CHECKS) if only is None else list(only)
    unknown = [n for n in names if n not in OPERATOR_CHECKS]
    if unknown:
        raise ValueError(f"unknown operator names: {unknown}")
    return {name: OPERATOR_CHECKS[name](seed) for name in names}


def suite_max_errors(results: dict[str, list[GradCheckReport]]) -> dict[str, float]:
    return {name: max(r.max_rel_error for r in reps) for name, reps in results.items()}


def suite_passed(results: dict[str, list[GradCheckReport]]) -> bool:
    return all(r.passed for reps in results.values() for r in reps)


def network_check(
    num_classes: int = 4,
    frames: int = 8,
    size: int = 32,
    channel_scale: int = 16,
    seed: int = 0,
    max_coords: int = 64,
    eps: float = 1e-4,
    tol: float = 2e-3,
) -> GradCheckReport:
    """End-to-end parameter gradient check on a reduced-width network.

    The whole model runs in float64 and parameters are perturbed in place,
    so the comparison is limited by finite-difference truncation only. The
    loss is piecewise smooth (relu, max pooling); coordinates whose probe
    interval straddles a switching point are excluded and replaced, which
    never masks a wrong backward because exclusion only compares the two
    finite-difference estimates against each other.
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
        eps=eps,
        tol=tol,
        max_coords=max_coords,
        rng=_rng(seed, 11),
        perturb_in_place=True,
        exclude_kinks=True,
    )
