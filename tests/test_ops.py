"""Operator forward oracles, gradient spot checks, and error paths."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from res3atn import ops
from res3atn.checksuite import conv3d_direct, mutate_backward
from res3atn.gradcheck import grad_check
from res3atn.modules import BatchNorm3d
from res3atn.tensor import Tape, Tensor, backward


def _sum_backward(out_fn, *tensors):
    with Tape():
        loss = ops.sum_all(out_fn())
    backward(loss)
    return [t.grad for t in tensors]


def _assert_grads_follow_requires_grad(op, arrays, proj):
    """Over every requires_grad pattern of op's inputs, a frozen input's grad
    stays None and every other gradient equals the all-true run's bitwise."""

    def run(needs):
        tensors = [Tensor(a, requires_grad=need) for a, need in zip(arrays, needs)]
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(op(*tensors), Tensor(proj)))
        if any(needs):
            backward(loss)
        else:
            assert not tape.nodes
        return [t.grad for t in tensors]

    want = run((True,) * len(arrays))
    for needs in itertools.product((True, False), repeat=len(arrays)):
        for need, got, ref in zip(needs, run(needs), want):
            if need:
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            else:
                assert got is None


# ---------------------------------------------------------------------------
# conv3d


def test_conv3d_identity_kernel_reproduces_input(rng):
    x = Tensor(rng.normal(size=(1, 1, 3, 4, 4)).astype(np.float32))
    w = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1, 1] = 1.0
    out = ops.conv3d(x, Tensor(w), stride=1, padding=1)
    assert np.array_equal(out.data, x.data)


def test_conv3d_all_ones_counts_window_overlap():
    x = Tensor(np.ones((1, 1, 3, 3, 3), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 3, 3), dtype=np.float32))
    out = ops.conv3d(x, w, stride=1, padding=1)
    assert out.shape == (1, 1, 3, 3, 3)
    # corner window covers a 2x2x2 slab of ones, the center all 27
    assert out.data[0, 0, 0, 0, 0] == 8.0
    assert out.data[0, 0, 1, 1, 1] == 27.0


def test_conv3d_extent_law():
    x = Tensor(np.zeros((2, 3, 4, 6, 6), dtype=np.float32))
    w = Tensor(np.zeros((5, 3, 3, 3, 3), dtype=np.float32))
    out = ops.conv3d(x, w, stride=2, padding=1)
    assert out.shape == (2, 5, 2, 3, 3)


def test_conv3d_bias_broadcasts(rng):
    x = Tensor(rng.normal(size=(1, 2, 2, 2, 2)).astype(np.float32))
    w = Tensor(np.zeros((3, 2, 1, 1, 1), dtype=np.float32))
    b = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32))
    out = ops.conv3d(x, w, b)
    for c, v in enumerate([1.0, -2.0, 0.5]):
        assert np.all(out.data[:, c] == v)


def test_conv3d_dual_route_agreement(rng):
    x = Tensor(rng.normal(size=(2, 3, 4, 6, 6)).astype(np.float32))
    w = Tensor(rng.normal(size=(5, 3, 3, 3, 3)).astype(np.float32))
    fast = ops.conv3d(x, w, stride=2, padding=1)
    slow = conv3d_direct(x.data, w.data, stride=2, padding=1)
    assert np.max(np.abs(fast.data - slow)) <= 1e-5


def test_conv3d_gradients_match_finite_differences(rng):
    x = Tensor(rng.normal(size=(1, 2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float32) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=2).astype(np.float32), requires_grad=True)
    proj = rng.normal(size=(1, 2, 3, 2, 2)).astype(np.float32)

    def fn(x, w, b):
        out = ops.conv3d(x, w, b, stride=(1, 2, 2), padding=1)
        return ops.sum_all(ops.mul(out, Tensor(proj)))

    report = grad_check(fn, [x, w, b], rng=rng)
    assert report.passed, report.max_rel_error


def test_conv3d_gradients_follow_requires_grad(rng):
    x = rng.normal(size=(2, 2, 3, 4, 4)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=3).astype(np.float32)
    proj = rng.normal(size=(2, 3, 2, 2, 2)).astype(np.float32)

    def conv(x, w, b):
        return ops.conv3d(x, w, b, stride=2, padding=1)

    _assert_grads_follow_requires_grad(conv, [x, w, b], proj)


@pytest.mark.parametrize("stride, shared", [(1, True), (2, False)])
def test_conv3d_pointwise_columns_view_the_input(stride, shared):
    x = np.arange(2 * 3 * 4 * 5 * 6, dtype=np.float32).reshape(2, 3, 4, 5, 6)
    strides = (stride,) * 3
    out_shape = ops._check_window_geometry("conv3d", x.shape[2:], (1, 1, 1), strides, (0, 0, 0))
    cols2 = ops._gather_windows(x, (1, 1, 1), strides, out_shape).reshape(2, 3, -1)
    assert np.shares_memory(cols2, x) == shared
    assert np.array_equal(cols2, x[:, :, ::stride, ::stride, ::stride].reshape(2, 3, -1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv3d_pointwise_input_gradient_matches_the_zero_filled_scatter(stride, dtype, rng):
    """A 1x1x1 conv's dx is bitwise the one tap added into a zeroed input-sized buffer."""
    x = Tensor(rng.standard_normal((2, 3, 5, 6, 7)), requires_grad=True, dtype=dtype)
    w = Tensor(rng.standard_normal((4, 3, 1, 1, 1)), requires_grad=True, dtype=dtype)
    out_extents = tuple(-(-e // stride) for e in x.shape[2:])
    proj = rng.standard_normal((2, 4) + out_extents).astype(dtype)
    with Tape():
        loss = ops.sum_all(ops.mul(ops.conv3d(x, w, stride=stride), Tensor(proj)))
    backward(loss)

    dcols2 = np.matmul(w.data.reshape(4, 3).T, proj.reshape(2, 4, -1))
    expected = np.zeros(x.shape, dtype=dtype)
    expected[:, :, ::stride, ::stride, ::stride] += dcols2.reshape((2, 3) + out_extents)
    assert x.grad.dtype == dtype
    assert x.grad.shape == x.shape
    assert x.grad.tobytes() == expected.tobytes()
    # at stride 1 the scatter is the tap itself, with no zero-filled buffer
    dcols = dcols2.reshape((2, 3, 1, 1, 1) + out_extents)
    scattered = ops._scatter_windows(dcols, x.shape, (1, 1, 1), (stride,) * 3, out_extents)
    assert np.shares_memory(scattered, dcols) == (stride == 1)


def _conv_run(data, w, b, stride, padding, need_x):
    """Taped output, untaped output and the three gradients of one conv call."""
    x = Tensor(data, requires_grad=need_x)
    weight, bias = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape():
        out = ops.conv3d(x, weight, bias, stride=stride, padding=padding)
        proj = np.cos(np.arange(out.size)).reshape(out.shape).astype(out.dtype)
        loss = ops.sum_all(ops.mul(out, Tensor(proj)))
    backward(loss)
    untaped = ops.conv3d(Tensor(data), Tensor(w), Tensor(b), stride=stride, padding=padding)
    return [out.data, untaped.data, x.grad, weight.grad, bias.grad]


# Every output frame here has a multiple of 16 positions, as the paper
# geometry's 112x112, 56x56 and 28x28 frames do. A BLAS kernel may sum a
# column of a partly filled tile in another order: OpenBLAS's AVX-512 GEMM
# does, so runs of 9x8 frames differ from one GEMM in the last bit. The
# forward, dx and db are bitwise the kept route's. The weight gradient is
# summed run by run, so dw matches it only to float rounding.
@pytest.mark.parametrize("need_x", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("frames_per_run", [1, 2])
@pytest.mark.parametrize("kernel, stride, padding, extents", [
    (3, 1, 1, (5, 4, 8)),
    (3, 2, 1, (7, 8, 8)),
    (3, 1, 0, (6, 10, 10)),
    (3, 2, 0, (7, 9, 9)),
    ((3, 3, 1), (2, 1, 2), (1, 0, 0), (7, 6, 8)),
])
def test_conv_in_runs_bitwise_equals_one_gemm(kernel, stride, padding, extents, frames_per_run,
                                              n, dtype, need_x, monkeypatch):
    rng = np.random.default_rng(n)
    data = rng.normal(size=(n, 3, *extents)).astype(dtype)
    w = rng.normal(size=(4, 3, *ops._triple(kernel, "kernel"))).astype(dtype)
    b = rng.normal(size=4).astype(dtype)
    want = _conv_run(data, w, b, stride, padding, need_x)
    fo, ho, wo = want[0].shape[2:]
    assert ho * wo % 16 == 0 and fo > frames_per_run
    monkeypatch.setattr(ops, "KEEP_COLUMNS_BYTES", 0)
    monkeypatch.setattr(ops, "BLOCK_BYTES", frames_per_run * w[0].nbytes * ho * wo)
    got = _conv_run(data, w, b, stride, padding, need_x)
    rounding = 1e-6 if dtype == np.float32 else 1e-12
    for name, have, expected in zip(("out", "untaped", "dx", "dw", "db"), got, want):
        if expected is None:
            assert have is None
        elif name == "dw":
            assert have.dtype == expected.dtype
            assert np.max(np.abs(have - expected)) <= rounding * np.max(np.abs(expected))
        else:
            assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mutated", [False, True])
def test_regathered_conv_gradients_match_finite_differences(mutated, monkeypatch, rng):
    # two samples, runs of two frames whose input spans overlap (kf > sf)
    x = Tensor(rng.normal(size=(2, 2, 5, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    proj = rng.normal(size=(2, 3, 5, 4, 4))
    monkeypatch.setattr(ops, "KEEP_COLUMNS_BYTES", 0)
    monkeypatch.setattr(ops, "BLOCK_BYTES", 2 * x.data[0].nbytes * 27 // 5)
    assert len(list(ops._conv_runs(2, 2, (3, 3, 3), (1, 1, 1), (5, 4, 4), np.float64))) == 6

    def fn(x, w, b):
        return ops.sum_all(ops.mul(ops.conv3d(x, w, b, padding=1), Tensor(proj)))

    if mutated:
        with mutate_backward("conv3d"):
            report = grad_check(fn, [x, w, b], eps=1e-6, tol=1e-6, rng=rng)
    else:
        report = grad_check(fn, [x, w, b], eps=1e-6, tol=1e-6, rng=rng)
    assert report.passed != mutated, report.max_rel_error


def _one_channel_conv(data, w, stride, padding):
    """Output and weight gradient of a taped cin = 1 conv, and those of the
    3-D columns: one GEMM per output frame, and one over every frame."""
    weight = Tensor(w, requires_grad=True)
    with Tape():
        out = ops.conv3d(Tensor(data), weight, stride=stride, padding=padding)
        proj = np.cos(np.arange(out.size)).reshape(out.shape).astype(out.dtype)
        loss = ops.sum_all(ops.mul(out, Tensor(proj)))
    backward(loss)
    n, cout, fo = out.shape[:3]
    xp = np.pad(data, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    cols = ops._gather_windows(xp, w.shape[2:], ops._triple(stride, "stride"), out.shape[2:])
    cols = cols.reshape(n, w[0].size, fo, -1)
    w2 = w.reshape(cout, -1)
    per_frame = np.stack([np.matmul(w2, cols[:, :, t]) for t in range(fo)], axis=2)
    one_gemm = np.matmul(w2, cols.reshape(n, w[0].size, -1))
    gflat = proj.reshape(n, cout, -1).transpose(1, 0, 2).reshape(cout, -1)
    dw = (gflat @ cols.transpose(1, 0, 2, 3).reshape(w[0].size, -1).T).reshape(w.shape)
    return (out.data, weight.grad), (per_frame.reshape(out.shape), one_gemm.reshape(out.shape), dw)


# A cin = 1 conv contracts frame columns shared by its output frames, one GEMM
# per output frame, with the 3-D columns' K order. A BLAS kernel may sum a
# column of a partly filled tile in another order at another GEMM width, so
# the output is held bitwise to per-frame GEMMs over the 3-D columns, and to
# one GEMM where a frame fills whole tiles of 16 (as the desk stem's 24x24
# frames do). The weight gradient is one GEMM over the 3-D columns, as before.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [(3, 3, 3), (1, 3, 3), (3, 1, 1), (2, 2, 2)])
def test_one_channel_conv_is_bitwise_the_3d_column_arithmetic(kernel, dtype):
    rng = np.random.default_rng(7)
    for n, stride, pad, extents in itertools.product(
        (1, 2, 3), (1, 2, (2, 1, 1)), (0, 1), ((5, 7, 9), (6, 8, 8))
    ):
        padding = tuple(min(pad, k - 1) for k in kernel)
        data = rng.normal(size=(n, 1, *extents)).astype(dtype)
        w = rng.normal(size=(4, 1, *kernel)).astype(dtype)
        (out, dw), (per_frame, one_gemm, want_dw) = _one_channel_conv(data, w, stride, padding)
        case = (n, stride, padding, extents)
        assert out.dtype == dtype and out.tobytes() == per_frame.tobytes(), case
        if out.shape[3] * out.shape[4] % 16 == 0:
            assert out.tobytes() == one_gemm.tobytes(), case
        assert dw.dtype == dtype and dw.tobytes() == want_dw.tobytes(), case


def _conv_routes(monkeypatch, x, w, **kwargs):
    """Whether a taped conv and its rule walk runs of columns (_conv_runs
    calls), and the bytes the taped forward leaves live beyond its output."""
    runs = []
    conv_runs = ops._conv_runs
    monkeypatch.setattr(ops, "_conv_runs", lambda *a: runs.append(a) or conv_runs(*a))
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            out = ops.conv3d(x, w, **kwargs)
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
            loss = ops.sum_all(out)
    finally:
        tracemalloc.stop()
    forward_runs = len(runs)
    backward(loss)
    return forward_runs, len(runs) - forward_runs, kept


def test_one_channel_conv_routes_by_its_3d_columns(monkeypatch, rng):
    # stem-shaped at one channel: 2x1x8x32x32, 3x3x3, padding 1; 3-D columns
    # 1.7 MiB, the frame columns shared by the output frames 0.7 MiB
    x = Tensor(rng.normal(size=(2, 1, 8, 32, 32)).astype(np.float32))
    w = Tensor(rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32), requires_grad=True)
    frames = 2 * 10 * 9 * 32 * 32 * 4
    assert frames < 2 * 27 * 8 * 32 * 32 * 4 <= ops.KEEP_COLUMNS_BYTES
    # within the limit: no runs, and the rule keeps the input (alive already),
    # not columns; its backward gathers the 3-D columns once for dw
    forward_runs, backward_runs, kept = _conv_routes(monkeypatch, x, w, padding=1)
    assert (forward_runs, backward_runs) == (0, 0) and kept < frames // 16
    # above the limit, even with the frame columns within it: the regather route
    for limit in (frames, frames - 1):
        monkeypatch.setattr(ops, "KEEP_COLUMNS_BYTES", limit)
        assert _conv_routes(monkeypatch, x, w, padding=1)[:2] == (1, 1)


def test_taped_conv_above_the_column_limit_keeps_its_input_not_its_columns(rng):
    x = Tensor(rng.normal(size=(1, 8, 16, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 3, 3)).astype(np.float32), requires_grad=True)
    columns = 8 * 27 * 16 * 32 * 32 * 4  # 13.5 MiB
    assert columns > ops.KEEP_COLUMNS_BYTES
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = ops.conv3d(x, w, padding=1)
            grown, peak = (v - before for v in tracemalloc.get_traced_memory())
            loss = ops.sum_all(out)
    finally:
        tracemalloc.stop()
    # the output stays, and the rule reads the input, which was alive already
    assert out.data.nbytes <= grown < out.data.nbytes + columns // 16
    # on the way, one run of columns (at most a block) and the padded input
    assert peak < out.data.nbytes + 2 * ops.BLOCK_BYTES
    backward(loss)
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_conv3d_validation_errors(rng):
    x5 = Tensor(np.zeros((1, 2, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="rank 5"):
        ops.conv3d(Tensor(np.zeros((2, 4, 4, 4), dtype=np.float32)), Tensor(np.zeros((1, 2, 1, 1, 1), dtype=np.float32)))
    with pytest.raises(ValueError, match="channels"):
        ops.conv3d(x5, Tensor(np.zeros((1, 3, 1, 1, 1), dtype=np.float32)))
    with pytest.raises(ValueError, match="exceeds padded input"):
        ops.conv3d(x5, Tensor(np.zeros((1, 2, 5, 5, 5), dtype=np.float32)))


def test_conv3d_rejects_non_finite_input():
    x = Tensor(np.full((1, 1, 2, 2, 2), np.inf, dtype=np.float32))
    w = Tensor(np.ones((1, 1, 1, 1, 1), dtype=np.float32))
    with pytest.raises(ops.NonFiniteError, match="conv3d produced non-finite"):
        ops.conv3d(x, w)


def test_non_finite_check_survives_optimized_mode():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from res3atn import ops\n"
        "from res3atn.tensor import Tensor\n"
        "try:\n"
        "    ops.relu(Tensor(np.array([np.nan], dtype=np.float32)))\n"
        "except ops.NonFiniteError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    env = os.environ.copy()
    src = str(Path(ops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 relu produced non-finite values"


# ---------------------------------------------------------------------------
# pooling


def test_maxpool3d_takes_window_maximum():
    x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 1, 2, 2, 2), requires_grad=True)
    out = ops.maxpool3d(x, 2)
    assert out.shape == (1, 1, 1, 1, 1)
    assert out.item() == 7.0
    (gx,) = _sum_backward(lambda: ops.maxpool3d(x, 2), x)
    expected = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
    expected[0, 0, 1, 1, 1] = 1.0
    assert np.array_equal(gx, expected)


def test_maxpool3d_ties_route_to_first_position():
    x = Tensor(np.ones((1, 1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    (gx,) = _sum_backward(lambda: ops.maxpool3d(x, (1, 2, 2)), x)
    expected = np.zeros((1, 1, 1, 2, 2), dtype=np.float32)
    expected[0, 0, 0, 0, 0] = 1.0
    assert np.array_equal(gx, expected)


def test_maxpool3d_padding_never_wins():
    x = Tensor(np.full((1, 1, 3, 3, 3), -5.0, dtype=np.float32))
    out = ops.maxpool3d(x, 3, stride=1, padding=1)
    assert np.all(out.data == -5.0)


def test_maxpool3d_backward_marks_one_cell_per_window(rng):
    x = Tensor(rng.normal(size=(1, 2, 4, 5, 5)).astype(np.float32), requires_grad=True)
    out = ops.maxpool3d(x, 3, stride=2, padding=1)
    (gx,) = _sum_backward(lambda: ops.maxpool3d(x, 3, stride=2, padding=1), x)
    assert gx.sum() == out.data.size  # one unit of gradient per pooling window
    # brute-force argmax agreement on each window
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)), constant_values=-np.inf)
    for n in range(1):
        for c in range(2):
            for of in range(out.shape[2]):
                for oh in range(out.shape[3]):
                    for ow in range(out.shape[4]):
                        win = xp[n, c, of * 2:of * 2 + 3, oh * 2:oh * 2 + 3, ow * 2:ow * 2 + 3]
                        assert out.data[n, c, of, oh, ow] == win.max()


def _maxpool_window_oracle(x, g, kernel, stride, padding):
    """The window-tensor maxpool: gather every window, argmax, scatter g back."""
    n, c = x.shape[:2]
    pad = [(0, 0), (0, 0)] + [(p, p) for p in padding]
    xp = np.pad(x, pad, constant_values=-np.inf)
    view = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3, 4))
    view = view[:, :, :: stride[0], :: stride[1], :: stride[2]]
    out_shape = view.shape[2:5]
    windows = view.reshape(n, c, -1, int(np.prod(kernel)))
    am = windows.argmax(axis=-1)  # first max wins ties
    out = np.take_along_axis(windows, am[..., None], axis=-1)[..., 0].reshape(n, c, *out_shape)
    ka, kb, kd = np.unravel_index(am, kernel)
    lf, lh, lw = np.unravel_index(np.arange(am.shape[-1]), out_shape)
    ni, ci = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
    index = (
        np.broadcast_to(ni[..., None], am.shape),
        np.broadcast_to(ci[..., None], am.shape),
        lf * stride[0] + ka,
        lh * stride[1] + kb,
        lw * stride[2] + kd,
    )
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    np.add.at(dxp, tuple(i.ravel() for i in index), g.reshape(n, c, -1).ravel())
    crop = (slice(None), slice(None)) + tuple(
        slice(p, p + e) for p, e in zip(padding, x.shape[2:])
    )
    return out, dxp[crop]


def test_maxpool3d_winners_bordering_the_padding_match_the_oracle(rng):
    # every value falls with its distance from the nearest face, so each
    # window's winner lies on a face of the input, next to the -inf border
    shape = (2, 2, 3, 4, 4)
    grids = np.meshgrid(*(np.arange(e) for e in shape[2:]), indexing="ij")
    depth = np.minimum.reduce([np.minimum(i, e - 1 - i) for i, e in zip(grids, shape[2:])])
    data = np.broadcast_to(-1.0 - depth, shape) - 0.25 * rng.random(shape)
    x = Tensor(data.astype(np.float32), requires_grad=True)
    with Tape():
        out = ops.maxpool3d(x, 3, stride=2, padding=1)
        g = rng.normal(size=out.shape).astype(np.float32)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    backward(loss)
    want_out, want_dx = _maxpool_window_oracle(x.data, g, (3, 3, 3), (2, 2, 2), (1, 1, 1))
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_dx)
    assert np.all(x.grad[..., depth > 0] == 0)


MAXPOOL_GEOMETRIES = [
    # (N, C, F, H, W, kernel, stride, padding): the gradient-check suite's five
    # plus the network's stem pool
    (1, 1, 4, 6, 6, 2, 2, 0),
    (2, 2, 5, 5, 5, 3, 2, 1),
    (1, 3, 6, 4, 4, 2, 1, 1),
    (2, 1, 4, 4, 6, 3, 3, 0),
    (1, 2, 5, 6, 5, 3, 2, 1),
    (2, 3, 8, 12, 12, 3, 2, 1),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geometry", MAXPOOL_GEOMETRIES)
def test_maxpool3d_bitwise_equals_window_oracle(geometry, dtype):
    n, c, f, h, w, k, s, p = geometry
    rng = np.random.default_rng(7)
    # a coarse grid makes ties common, so the tie rule is exercised
    x = Tensor(np.round(rng.normal(size=(n, c, f, h, w)) * 2.0) / 2.0, dtype=dtype,
               requires_grad=True)
    with Tape():
        out = ops.maxpool3d(x, k, stride=s, padding=p)
        g = rng.normal(size=out.shape).astype(dtype)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    backward(loss)
    want_out, want_dx = _maxpool_window_oracle(x.data, g, (k,) * 3, (s,) * 3, (p,) * 3)
    assert out.dtype == x.dtype and x.grad.dtype == x.dtype
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_dx)
    eval_out = ops.maxpool3d(Tensor(x.data), k, stride=s, padding=p)
    assert np.array_equal(eval_out.data, want_out)


ANISOTROPIC_MAXPOOL_GEOMETRIES = [
    # (N, C, (F, H, W), kernel, stride, padding): per-axis geometries, p < k on
    # every axis, so each axis indexes its stride-phase planes differently
    (2, 2, (3, 6, 5), (1, 3, 2), (2, 1, 3), (0, 1, 1)),
    (1, 3, (6, 5, 7), (3, 2, 3), (1, 2, 2), (1, 0, 1)),
    (2, 1, (7, 4, 6), (2, 3, 2), (3, 1, 2), (1, 1, 0)),  # stride > kernel along frames
    (1, 2, (1, 5, 4), (3, 2, 2), (2, 3, 1), (2, 1, 1)),  # one frame phase is all border
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geometry", ANISOTROPIC_MAXPOOL_GEOMETRIES)
def test_maxpool3d_anisotropic_geometries_match_the_window_oracle(geometry, dtype):
    n, c, spatial, kernel, stride, padding = geometry
    rng = np.random.default_rng(11)
    # a relu'd coarse grid: zero ties are common
    data = np.maximum(np.round(rng.normal(size=(n, c, *spatial)) * 2.0) / 2.0, 0.0)
    x = Tensor(data, dtype=dtype, requires_grad=True)
    with Tape():
        out = ops.maxpool3d(x, kernel, stride=stride, padding=padding)
        g = rng.normal(size=out.shape).astype(dtype)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    backward(loss)
    want_out, want_dx = _maxpool_window_oracle(x.data, g, kernel, stride, padding)
    assert out.dtype == x.dtype and x.grad.dtype == x.dtype
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_dx)
    eval_out = ops.maxpool3d(Tensor(x.data), kernel, stride=stride, padding=padding)
    assert np.array_equal(eval_out.data, want_out)


def test_taped_maxpool_keeps_only_its_winner_index(rng):
    x = Tensor(rng.normal(size=(1, 8, 16, 32, 32)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            out = ops.maxpool3d(x, 3, stride=2, padding=1)
            grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the output plus a one-byte winner per window; planes or scan buffers
    # left alive would add about x.nbytes or out.size more
    assert out.data.nbytes + out.size <= grown < out.data.nbytes + out.size + out.size // 2


def test_relu_after_maxpool_equals_relu_before_it_bitwise(rng):
    # small integers tie often; one corner holds only negative windows
    data = rng.integers(-3, 4, size=(2, 3, 6, 9, 9)).astype(np.float32)
    data[:, :, :3, :4, :4] = -rng.integers(1, 3, size=(2, 3, 3, 4, 4))
    weight = Tensor(rng.normal(size=(2, 3, 3, 5, 5)).astype(np.float32))
    results = []
    for first_pool in (True, False):
        x = Tensor(data, requires_grad=True)

        def pooled():
            if first_pool:
                return ops.relu(ops.maxpool3d(x, 3, stride=2, padding=1))
            return ops.maxpool3d(ops.relu(x), 3, stride=2, padding=1)

        (gx,) = _sum_backward(lambda: ops.mul(pooled(), weight), x)
        results.append((pooled().data, gx))
    (out_a, gx_a), (out_b, gx_b) = results
    assert np.any(out_a == 0.0) and np.any(gx_a != 0.0)
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(gx_a, gx_b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_taped_maxpool_rejects_non_finite_input_before_recording(bad):
    data = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
    data[0, 0, 1, 2, 1] = bad
    x = Tensor(data, requires_grad=True)
    # a NaN window matches no offset, so its winner would be out of range
    with Tape() as tape:
        with pytest.raises(ops.NonFiniteError, match="maxpool3d"):
            ops.maxpool3d(x, 3, stride=2, padding=1)
    assert not tape.nodes


def test_avgpool_is_plain_mean(rng):
    x = Tensor(rng.normal(size=(2, 2048, 1, 4, 4)).astype(np.float32), requires_grad=True)
    out = ops.avgpool3d_adaptive(x)
    assert out.shape == (2, 2048, 1, 1, 1)
    expected = x.data.mean(axis=(2, 3, 4)).reshape(2, 2048, 1, 1, 1)
    assert np.allclose(out.data, expected, atol=1e-6)
    (gx,) = _sum_backward(lambda: ops.avgpool3d_adaptive(x), x)
    assert np.allclose(gx, 1.0 / 16.0)


# ---------------------------------------------------------------------------
# trilinear upsampling


def test_upsample_width_doubling_oracle():
    x = Tensor(np.array([0.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 1, 2), requires_grad=True)
    out = ops.trilinear_upsample(x, (1, 1, 4))
    assert np.allclose(out.data.ravel(), [0.0, 0.5, 1.5, 2.0], atol=1e-6)
    (gx,) = _sum_backward(lambda: ops.trilinear_upsample(x, (1, 1, 4)), x)
    # adjoint of the interpolation matrix: each source feeds weight-sum 2
    assert np.allclose(gx.ravel(), [2.0, 2.0], atol=1e-6)


def test_upsample_same_extent_is_identity(rng):
    x = Tensor(rng.normal(size=(1, 2, 2, 3, 3)).astype(np.float32))
    out = ops.trilinear_upsample(x, (2, 3, 3))
    assert np.array_equal(out.data, x.data)


def test_upsample_frames_axis(rng):
    x = Tensor(np.array([0.0, 2.0], dtype=np.float32).reshape(1, 1, 2, 1, 1))
    out = ops.trilinear_upsample(x, (4, 1, 1))
    assert np.allclose(out.data.ravel(), [0.0, 0.5, 1.5, 2.0], atol=1e-6)


def _upsample_backward_add_at(g, src_spatial):
    """The two-np.add.at-per-axis adjoint of trilinear_upsample."""
    dg = g
    for axis in (4, 3, 2):
        i0, i1, w0, w1 = ops._linear_axis_coeffs(src_spatial[axis - 2], g.shape[axis], g.dtype)
        gm = np.moveaxis(dg, axis, 0)
        wshape = (-1,) + (1,) * (gm.ndim - 1)
        dm = np.zeros((src_spatial[axis - 2],) + gm.shape[1:], dtype=g.dtype)
        np.add.at(dm, i0, gm * w0.reshape(wshape))
        np.add.at(dm, i1, gm * w1.reshape(wshape))
        dg = np.moveaxis(dm, 0, axis)
    return dg


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("src, target", [
    # every extent pair the network resamples, plus an identity axis
    ((1, 2, 2), (2, 3, 4)),
    ((4, 4, 7), (7, 8, 14)),
    ((14, 3, 5), (28, 3, 5)),
])
def test_trilinear_backward_bitwise_equals_add_at(src, target, dtype):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3, *src)), dtype=dtype, requires_grad=True)
    g = rng.normal(size=(2, 3, *target)).astype(dtype)
    with Tape():
        loss = ops.sum_all(ops.mul(ops.trilinear_upsample(x, target), Tensor(g)))
    backward(loss)
    want = _upsample_backward_add_at(g, src)
    assert x.grad.dtype == want.dtype and np.array_equal(x.grad, want)


def test_upsample_validation():
    x = Tensor(np.zeros((1, 1, 2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="must be >= 1"):
        ops.trilinear_upsample(x, (0, 2, 2))
    with pytest.raises(ValueError, match="rank 5"):
        ops.trilinear_upsample(Tensor(np.zeros((2, 2), dtype=np.float32)), (1, 1, 1))


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_standardizes_in_train_mode(rng):
    x = Tensor(rng.normal(2.0, 3.0, size=(4, 2, 2, 3, 3)).astype(np.float32))
    gamma = Tensor(np.ones(2, dtype=np.float32))
    beta = Tensor(np.zeros(2, dtype=np.float32))
    rm, rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
    out = ops.batchnorm3d(x, gamma, beta, rm, rv, training=True)
    got = out.data.reshape(4, 2, -1)
    for c in range(2):
        vals = got[:, c].ravel()
        assert abs(vals.mean()) < 1e-5
        assert abs(vals.var() - 1.0) < 1e-3


def test_batchnorm_affine_parameters_shift_and_scale(rng):
    x = Tensor(rng.normal(size=(2, 1, 2, 2, 2)).astype(np.float32))
    gamma = Tensor(np.array([2.0], dtype=np.float32))
    beta = Tensor(np.array([3.0], dtype=np.float32))
    rm, rv = np.zeros(1, dtype=np.float32), np.ones(1, dtype=np.float32)
    out = ops.batchnorm3d(x, gamma, beta, rm, rv, training=True)
    assert abs(out.data.mean() - 3.0) < 1e-5
    assert abs(out.data.std() - 2.0) < 2e-3


def test_batchnorm_running_stats_follow_ema(rng):
    x = Tensor(rng.normal(1.5, 2.0, size=(3, 2, 2, 2, 2)).astype(np.float32))
    gamma = Tensor(np.ones(2, dtype=np.float32))
    beta = Tensor(np.zeros(2, dtype=np.float32))
    rm = np.full(2, 10.0, dtype=np.float32)
    rv = np.full(2, 4.0, dtype=np.float32)
    ops.batchnorm3d(x, gamma, beta, rm, rv, training=True)
    batch_mean = x.data.mean(axis=(0, 2, 3, 4))
    batch_var = x.data.var(axis=(0, 2, 3, 4))  # biased
    assert np.allclose(rm, 0.9 * 10.0 + 0.1 * batch_mean, atol=1e-5)
    assert np.allclose(rv, 0.9 * 4.0 + 0.1 * batch_var, atol=1e-5)


def test_batchnorm_eval_uses_running_buffers():
    x = Tensor(np.full((1, 1, 1, 1, 2), 5.0, dtype=np.float32))
    gamma, beta = Tensor(np.ones(1, dtype=np.float32)), Tensor(np.zeros(1, dtype=np.float32))
    rm = np.array([3.0], dtype=np.float32)
    rv = np.array([4.0], dtype=np.float32)
    out = ops.batchnorm3d(x, gamma, beta, rm, rv, training=False)
    expected = (5.0 - 3.0) / math.sqrt(4.0 + 1e-5)
    assert np.allclose(out.data, expected, atol=1e-6)


def test_batchnorm_train_needs_two_samples():
    x = Tensor(np.zeros((1, 2, 1, 1, 1), dtype=np.float32))
    gamma, beta = Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
    rm, rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
    with pytest.raises(ValueError, match="at least 2 samples"):
        ops.batchnorm3d(x, gamma, beta, rm, rv, training=True)


def test_batchnorm_module_refuses_eval_before_any_statistics_update(rng):
    bn = BatchNorm3d(2).eval()
    x = Tensor(rng.standard_normal((2, 2, 2, 3, 3)).astype(np.float32))
    with pytest.raises(RuntimeError, match="before any running-stat update"):
        bn(x)
    assert bn.steps.tolist() == [0.0] and bn.running_mean.tolist() == [0.0, 0.0]
    bn.train()(x)
    assert bn.eval()(x).shape == x.shape


def test_batchnorm_gradients_match_finite_differences(rng):
    x = Tensor(rng.normal(size=(3, 2, 2, 2, 2)).astype(np.float32), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 2).astype(np.float32), requires_grad=True)
    beta = Tensor(rng.normal(size=2).astype(np.float32), requires_grad=True)
    proj = rng.normal(size=(3, 2, 2, 2, 2)).astype(np.float32)

    def fn(x, gamma, beta):
        rm, rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
        out = ops.batchnorm3d(x, gamma, beta, rm, rv, training=True)
        return ops.sum_all(ops.mul(out, Tensor(proj)))

    report = grad_check(fn, [x, gamma, beta], rng=rng)
    assert report.passed, report.max_rel_error


def _batchnorm_textbook(x, gamma, beta, rm, rv, g, training, momentum=0.1, eps=1e-5):
    """Batchnorm forward, running-stat update and backward as plain expressions."""
    axes, gshape = (0, 2, 3, 4), (1, -1, 1, 1, 1)
    m = x.size // x.shape[1]
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        rm *= 1.0 - momentum
        rm += momentum * mean.astype(rm.dtype)
        rv *= 1.0 - momentum
        rv += momentum * var.astype(rv.dtype)
    else:
        mean, var = rm.astype(x.dtype), rv.astype(x.dtype)
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(gshape)
    xhat = (x - mean.reshape(gshape)) * inv_std
    out = gamma.reshape(gshape) * xhat + beta.reshape(gshape)
    dxhat = g * gamma.reshape(gshape)
    if training:
        sum_dxhat = dxhat.sum(axis=axes).reshape(gshape)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes).reshape(gshape)
        dx = (inv_std / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    else:
        dx = dxhat * inv_std
    return out, (dx, (g * xhat).sum(axis=axes), g.sum(axis=axes))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("needs", [
    (True, True, True), (True, False, False), (False, True, False), (False, False, True),
    (True, True, False), (True, False, True), (False, True, True), (False, False, False),
])
def test_batchnorm3d_bitwise_equals_textbook(needs, training, dtype):
    rng = np.random.default_rng(11)
    shape = (2, 3, 4, 5, 6)
    xs = rng.normal(1.5, 2.0, size=shape).astype(dtype)
    gs = rng.normal(size=(3,)).astype(np.float32) + 1.0
    bs = rng.normal(size=(3,)).astype(np.float32)
    g = rng.normal(size=shape).astype(dtype)
    rm = rng.normal(size=3).astype(np.float32)
    rv = rng.uniform(0.5, 2.0, 3).astype(np.float32)
    want_rm, want_rv = rm.copy(), rv.copy()
    want_out, want_grads = _batchnorm_textbook(xs, gs.astype(dtype), bs.astype(dtype),
                                               want_rm, want_rv, g, training)
    tensors = [
        Tensor(xs, requires_grad=needs[0]),
        Tensor(gs, dtype=dtype, requires_grad=needs[1]),
        Tensor(bs, dtype=dtype, requires_grad=needs[2]),
    ]
    with Tape() as tape:
        out = ops.batchnorm3d(*tensors, rm, rv, training=training)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(rm, want_rm) and np.array_equal(rv, want_rv)
    if not any(needs):
        assert not tape.nodes
        return
    backward(loss)
    for t, need, want in zip(tensors, needs, want_grads):
        if need:
            assert t.grad.dtype == want.dtype
            assert np.array_equal(t.grad, want)
        else:
            assert t.grad is None


def _batchnorm_run(data, gamma, beta, g, training):
    """Output, running buffers and the three gradients of one taped call."""
    c = data.shape[1]
    rm = np.linspace(-1.0, 1.0, c).astype(np.float32)
    rv = np.linspace(0.5, 2.0, c).astype(np.float32)
    tensors = [Tensor(a, requires_grad=True) for a in (data, gamma, beta)]
    with Tape():
        out = ops.batchnorm3d(*tensors, rm, rv, training=training)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    backward(loss)
    return [out.data, rm, rv] + [t.grad for t in tensors]


def _blocks_of(monkeypatch, x, channels):
    """Make blocks of `channels` whole channels of x; returns the block count."""
    monkeypatch.setattr(ops, "BLOCK_BYTES", channels * x[0, 0].nbytes)
    return len(ops._channel_blocks(x))


# (input dtype, gamma/beta dtype): a float32 network also takes float64
# input; float64 gamma on float32 input centres and squares in float64
@pytest.mark.parametrize("dtype, param_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32),
    (np.float32, np.float64),
])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("n", [1, 2, 6])
def test_blocked_batchnorm_bitwise_equals_one_block(n, training, dtype, param_dtype, monkeypatch):
    rng = np.random.default_rng(n)
    shape = (n, 7, 3, 5, 6)  # blocks of 3 channels leave a run of 1
    x = (rng.normal(1.5, 2.0, size=shape) * np.exp(rng.normal(size=shape))).astype(dtype)
    gamma = (rng.normal(size=7) + 1.0).astype(param_dtype)
    beta = rng.normal(size=7).astype(param_dtype)
    g = rng.normal(size=shape).astype(dtype)
    want = _batchnorm_run(x, gamma, beta, g, training)
    assert _blocks_of(monkeypatch, x, 3) == 3 * n
    got = _batchnorm_run(x, gamma, beta, g, training)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_gamma_wider_than_x_matches_a_float64_reference(training, monkeypatch):
    # out takes gamma's dtype, and each block's xhat is formed in out
    rng = np.random.default_rng(5)
    shape = (2, 3, 4, 5, 6)
    x = rng.normal(1.5, 2.0, size=shape).astype(np.float32)
    gamma, beta = rng.normal(size=3) + 1.0, rng.normal(size=3)
    rm, rv = np.linspace(-1.0, 1.0, 3), np.linspace(0.5, 2.0, 3)
    want_rm, want_rv = rm.copy(), rv.copy()
    want, _ = _batchnorm_textbook(x.astype(np.float64), gamma, beta, want_rm, want_rv,
                                  np.zeros(shape), training)
    assert _blocks_of(monkeypatch, x, 2) == 4
    out = ops.batchnorm3d(Tensor(x), Tensor(gamma, dtype=np.float64),
                          Tensor(beta, dtype=np.float64), rm, rv, training=training)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out.data, want, rtol=1e-6, atol=2e-6)
    np.testing.assert_allclose(rm, want_rm, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(rv, want_rv, rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("kernel, stride, padding", [(3, 2, 1), ((1, 3, 3), (1, 2, 2), (0, 1, 1))])
def test_blocked_taped_maxpool_bitwise_equals_one_block(n, dtype, kernel, stride, padding,
                                                       monkeypatch):
    rng = np.random.default_rng(n)
    # small integers tie often, so the lowest-offset rule is exercised
    data = rng.integers(-4, 5, size=(n, 5, 4, 7, 6)).astype(dtype)

    def run():
        x = Tensor(data, requires_grad=True)
        with Tape():
            out = ops.maxpool3d(x, kernel, stride=stride, padding=padding)
            w = np.random.default_rng(0).normal(size=out.shape).astype(dtype)
            loss = ops.sum_all(ops.mul(out, Tensor(w)))
        backward(loss)
        return out.data, x.grad

    want = run()
    assert _blocks_of(monkeypatch, data, 2) == 3 * n  # runs of 2, 2 and 1
    for a, b in zip(run(), want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kernel, stride, padding", [
    (3, 2, 1), ((1, 3, 3), (1, 2, 2), (0, 1, 1)),
    (3, 1, 2),  # corner windows hold one input cell and the rest -inf border
])
def test_blocked_untaped_maxpool_bitwise_equals_the_taped_output(n, dtype, kernel, stride,
                                                                 padding, monkeypatch):
    rng = np.random.default_rng(n)
    # small negative integers: ties are common, and the border must lose to all
    data = rng.integers(-9, -5, size=(n, 5, 4, 7, 6)).astype(dtype)
    with Tape():
        want = ops.maxpool3d(Tensor(data, requires_grad=True), kernel, stride=stride,
                             padding=padding).data
    one_block = ops.maxpool3d(Tensor(data), kernel, stride=stride, padding=padding).data
    assert _blocks_of(monkeypatch, data, 2) == 3 * n  # runs of 2, 2 and 1
    got = ops.maxpool3d(Tensor(data), kernel, stride=stride, padding=padding).data
    for out in (one_block, got):
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


def _bn_pool_run(data, gamma, beta, g, training, taped, kernel, stride, padding, fused):
    """Output, running buffers and, taped, the three gradients of batchnorm
    then max-pool: maxpool3d's norm if fused, else the two ops."""
    c = data.shape[1]
    rm = np.linspace(-1.0, 1.0, c).astype(np.float32)
    rv = np.linspace(0.5, 2.0, c).astype(np.float32)
    tensors = [Tensor(a, requires_grad=taped) for a in (data, gamma, beta)]
    with Tape() as tape:
        if fused:
            out = ops.maxpool3d(tensors[0], kernel, stride, padding,
                                norm=(*tensors[1:], rm, rv, training))
        else:
            out = ops.maxpool3d(ops.batchnorm3d(*tensors, rm, rv, training=training),
                                kernel, stride, padding)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    if not taped:
        assert not tape.nodes
        return [out.data, rm, rv]
    assert len(tape.nodes) == (3 if fused else 4)  # one node for the normalizing pool
    backward(loss)
    return [out.data, rm, rv] + [t.grad for t in tensors]


@pytest.mark.parametrize("dtype, param_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32),
    (np.float32, np.float64),
])
@pytest.mark.parametrize("kernel, stride, padding", [
    (3, 2, 1), ((1, 3, 3), (1, 2, 2), (0, 1, 1)),
    (3, 1, 2),  # corner windows hold one input cell and the rest -inf border
])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("training, taped", [(True, True), (True, False), (False, False),
                                             (False, True)])
def test_normalizing_maxpool_bitwise_equals_batchnorm_then_maxpool(
        training, taped, n, kernel, stride, padding, dtype, param_dtype, monkeypatch):
    rng = np.random.default_rng(n)
    shape = (n, 7, 4, 7, 6)
    # small integers tie often, before and after the map; channels 1, 4 and
    # 6 pool the negated input, and channel 2's values are all beta
    data = (rng.integers(-4, 5, size=shape) * 1.5 + 0.25).astype(dtype)
    gamma = np.array([1.5, -0.7, 0.0, 2.0, -1.2, 0.3, -1e-3], dtype=param_dtype)
    beta = (rng.normal(size=7) + 0.1).astype(param_dtype)
    geometry = [ops._triple(v, "") for v in (kernel, stride, padding)]
    out_shape = ops._check_window_geometry("maxpool3d", shape[2:], *geometry)
    g = rng.normal(size=(n, 7, *out_shape)).astype(np.result_type(dtype, param_dtype))
    args = (data, gamma, beta, g, training, taped, kernel, stride, padding)
    for blocked in (False, True):
        if blocked:
            assert _blocks_of(monkeypatch, data, 2) == 4 * n  # runs of 2, 2, 2 and 1
        want = _bn_pool_run(*args, fused=False)
        got = _bn_pool_run(*args, fused=True)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_taped_normalizing_maxpool_allocates_its_output_winners_and_a_few_blocks(
        monkeypatch, rng):
    x = Tensor(rng.normal(size=(2, 8, 8, 64, 64)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.linspace(-1.0, 1.0, 8).astype(np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    rm, rv = np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.float32)
    assert _blocks_of(monkeypatch, x.data, 1) == 16
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = ops.maxpool3d(x, 3, 2, 1, norm=(gamma, beta, rm, rv, True))
            grown, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    kept = out.data.nbytes + out.size  # the output and a one-byte winner per window
    # the rule keeps x, which was alive already, and per-channel statistics;
    # a kept normalized input would add 16 blocks
    assert kept <= grown < kept + out.size // 2
    # on the way: one normalized block beside its phase planes (1.2 blocks
    # here); the normalized input would add 16 blocks
    assert peak < kept + 3 * ops.BLOCK_BYTES


def _unit_run(arrays, g, training, conv, fused):
    """Output, running buffers and the gradients of x, gamma, beta, the
    weight and the bias (if any) of one taped pre-activation unit:
    batchnorm3d's conv if fused, else batchnorm3d, relu and conv3d."""
    c = arrays[0].shape[1]
    rm = np.linspace(-0.5, 0.5, c).astype(np.float32)
    rv = np.linspace(0.5, 2.0, c).astype(np.float32)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    (x, gamma, beta, weight), bias = tensors[:4], (tensors[4:] or [None])[0]
    stride, padding = conv
    with Tape() as tape:
        if fused:
            out = ops.batchnorm3d(x, gamma, beta, rm, rv, training,
                                  conv=(weight, bias, stride, padding))
        else:
            act = ops.relu(ops.batchnorm3d(x, gamma, beta, rm, rv, training))
            out = ops.conv3d(act, weight, bias, stride, padding)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    assert len(tape.nodes) == (3 if fused else 5)  # one node for the unit
    backward(loss)
    return [out.data, rm, rv] + [t.grad for t in tensors]


# (cin, kernel, stride, padding, keep columns): every route of the unit's
# conv. A 1x1x1 stride-1 conv's columns are the activated input, which the
# rule forms again; at stride 2 they are a kept copy, as the kept k>1
# columns are, so the rule masks one block at a time from x; one input
# channel shares frame columns; with no columns kept, the conv regathers.
@pytest.mark.parametrize("cin, kernel, stride, padding, keep", [
    (4, 1, 1, 0, True), (4, 1, 2, 0, True), (3, 3, 2, 1, True), (1, 3, 1, 1, True),
    (3, 3, 1, 1, False),
])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("use_bias", [True, False])
def test_batchnorm_unit_bitwise_equals_batchnorm_relu_conv(cin, kernel, stride, padding, keep,
                                                          training, use_bias, monkeypatch):
    if not keep:
        monkeypatch.setattr(ops, "KEEP_COLUMNS_BYTES", 0)
    rng = np.random.default_rng(cin * kernel * stride)
    shape = (2, cin, 5, 6, 7)
    data = rng.normal(size=shape).astype(np.float32)
    data[0, 0, 0, 0, :3] = 0.0  # some cells normalize to exactly 0 in eval mode
    gamma = rng.uniform(-1.5, 1.5, cin).astype(np.float32)
    beta = (rng.normal(size=cin) * 0.5).astype(np.float32)
    weight = rng.normal(size=(3, cin) + (kernel,) * 3).astype(np.float32)
    arrays = [data, gamma, beta, weight] + ([rng.normal(size=3).astype(np.float32)]
                                            if use_bias else [])
    out_shape = ops._check_window_geometry("conv3d", shape[2:], (kernel,) * 3, (stride,) * 3,
                                           (padding,) * 3)
    g = rng.normal(size=(2, 3, *out_shape)).astype(np.float32)
    for blocked in (False, True):
        if blocked and cin > 1:
            assert _blocks_of(monkeypatch, data, 1) == 2 * cin
        want = _unit_run(arrays, g, training, (stride, padding), fused=False)
        got = _unit_run(arrays, g, training, (stride, padding), fused=True)
        assert len(got) == len(want) == 7 + use_bias
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel, padding", [(1, 0), (3, 1)])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_unit_gradients_follow_requires_grad(kernel, padding, training, rng):
    arrays = [rng.normal(size=(2, 3, 3, 4, 4)).astype(np.float32),
              rng.uniform(-1.5, 1.5, 3).astype(np.float32), rng.normal(size=3).astype(np.float32),
              rng.normal(size=(2, 3) + (kernel,) * 3).astype(np.float32),
              rng.normal(size=2).astype(np.float32)]
    rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
    proj = rng.normal(size=(2, 2, 3, 4, 4)).astype(np.float32)

    def unit(x, gamma, beta, weight, bias):
        return ops.batchnorm3d(x, gamma, beta, rm, rv, training, conv=(weight, bias, 1, padding))

    _assert_grads_follow_requires_grad(unit, arrays, proj)


@pytest.mark.parametrize("kernel, padding", [(1, 0), (3, 1)])
def test_taped_batchnorm_unit_keeps_its_input_not_its_activation(kernel, padding, rng):
    x = Tensor(rng.normal(size=(2, 4, 8, 16, 16)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(4, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(4, np.float32), requires_grad=True)
    weight = Tensor(rng.normal(size=(4, 4) + (kernel,) * 3).astype(np.float32),
                    requires_grad=True)
    rm, rv = np.zeros(4, np.float32), np.ones(4, np.float32)
    columns = x.data.nbytes * kernel**3  # kept for a 3x3x3 kernel, within the limit
    assert columns <= ops.KEEP_COLUMNS_BYTES
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            out = ops.batchnorm3d(x, gamma, beta, rm, rv, True, conv=(weight, None, 1, padding))
            grown = tracemalloc.get_traced_memory()[0] - before
            loss = ops.sum_all(out)
    finally:
        tracemalloc.stop()
    # the output and the conv's kept columns (none at 1x1x1); the rule keeps
    # x, which was alive already, and forms relu(bn(x)) again in backward;
    # a kept activation would add x.nbytes
    kept = out.data.nbytes + (columns if kernel > 1 else 0)
    assert kept <= grown < kept + x.data.nbytes // 8
    backward(loss)
    assert all(t.grad.shape == t.shape for t in (x, gamma, beta, weight))


def test_batchnorm_unit_names_the_stage_that_is_not_finite(rng):
    x = Tensor(rng.normal(size=(2, 2, 3, 4, 4)).astype(np.float32))
    rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
    weight = Tensor(np.ones((2, 2, 1, 1, 1), np.float32))

    def unit(beta):
        ops.batchnorm3d(x, Tensor(np.ones(2, np.float32)), Tensor(beta), rm, rv, True,
                        conv=(weight, None, 1, 0))

    # channel 0 normalizes to -inf, which the ReLU would turn into 0s
    with pytest.raises(ops.NonFiniteError, match=r"^batchnorm3d produced non-finite values$"):
        unit(np.array([-np.inf, 0.0], np.float32))
    weight.data[0, 0] = np.nan
    with pytest.raises(ops.NonFiniteError, match=r"^conv3d produced non-finite values$"):
        unit(np.zeros(2, np.float32))


def _stem_run(data, gamma, beta, g, keep, reader, dtype=np.float32):
    """One taped normalizing pool of x = x0 + 0, a new array, as the stem
    pools its conv output. keep holds x until backward has run. reader is
    None; "mul", x * y recorded before the pool and summed into the loss, so
    that y's gradient is x's data as mul's rule reads it after the pool's;
    or "view", a held ops.reshape of x.

    Returns the gradients of x0, gamma, beta and y, whether x0's gradient
    is x's storage, x's bytes before backward, and after it as the holder
    or the reader sees them (None if nothing can see them).
    """
    x0 = Tensor(data, requires_grad=True)
    params = [Tensor(a, dtype=dtype, requires_grad=True) for a in (gamma, beta)]
    c = data.shape[1]
    rm, rv = np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)
    y = Tensor(np.ones_like(data), requires_grad=True)
    with Tape():
        x = ops.add_scalar(x0, 0.0)
        address, before = x.data.ctypes.data, x.data.tobytes()
        extra = ops.sum_all(ops.mul(x, y)) if reader == "mul" else None
        view = ops.reshape(x, (-1,)) if reader == "view" else None
        out = ops.maxpool3d(x, 3, 2, 1, norm=(*params, rm, rv, True))
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
        if extra is not None:
            loss = ops.add(loss, extra)
    held = x if keep else None
    del x, out
    backward(loss)
    if keep:
        seen = held.data
    elif reader == "mul":
        seen = y.grad
    elif reader == "view":
        seen = view.data
    else:
        seen = None
    grads = [t.grad for t in (x0, *params, y)]
    return (grads, x0.grad.ctypes.data == address, before,
            None if seen is None else seen.tobytes())


@pytest.mark.parametrize("reader", [None, "mul", "view"])
def test_stem_rule_leaves_x_alone_while_anything_can_read_it(reader, monkeypatch, rng):
    # the caller holding x, a rule recorded before the pool that reads x's
    # array, or a held view of it: each keeps dx out of x's storage
    data = rng.normal(size=(2, 4, 4, 8, 6)).astype(np.float32)
    gamma, beta = np.array([1.5, -0.7, 0.3, 2.0]), np.array([0.1, -0.2, 0.3, 0.0])
    g = rng.normal(size=(2, 4, 2, 4, 3)).astype(np.float32)
    assert _blocks_of(monkeypatch, data, 1) == 8
    want = _stem_run(data, gamma, beta, g, keep=True, reader=reader)[0]
    for keep in (True, False) if reader else (True,):
        grads, in_x, before, after = _stem_run(data, gamma, beta, g, keep, reader)
        assert not in_x and after == before
        for a, b in zip(grads, want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stem_rule_writes_dx_into_a_dropped_xs_storage(dtype, monkeypatch, rng):
    # with float64 gamma, dx is float64 and float32 x's storage cannot take it
    data = rng.normal(size=(2, 4, 4, 8, 6)).astype(np.float32)
    gamma, beta = np.array([1.5, -0.7, 0.3, 2.0]), np.array([0.1, -0.2, 0.3, 0.0])
    g = rng.normal(size=(2, 4, 2, 4, 3)).astype(np.result_type(np.float32, dtype))
    assert _blocks_of(monkeypatch, data, 1) == 8
    want = _stem_run(data, gamma, beta, g, keep=True, reader=None, dtype=dtype)[0]
    grads, in_x, _, _ = _stem_run(data, gamma, beta, g, False, None, dtype)
    assert in_x == (dtype == np.float32)
    for a, b in zip(grads[:3], want[:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_stem_rule_on_a_dropped_x_allocates_a_few_blocks(monkeypatch, rng):
    # x, made inline, has no reference but the rule's
    gamma = Tensor(np.linspace(-1.0, 1.0, 8).astype(np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    rm, rv = np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.float32)
    monkeypatch.setattr(ops, "BLOCK_BYTES", 8 * 32 * 32 * 4)  # one channel of x
    with Tape() as tape:
        out = ops.maxpool3d(
            Tensor(rng.normal(size=(2, 8, 8, 32, 32)).astype(np.float32), requires_grad=True),
            3, 2, 1, norm=(gamma, beta, rm, rv, True))
    rule = tape.nodes[-1].backward_fn
    g = rng.normal(size=out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dx, dgamma, dbeta = rule(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert dx.shape == (2, 8, 8, 32, 32) and dgamma.shape == dbeta.shape == (8,)
    # a block of scattered gradient, a block of xhat and one block's int64
    # index plane (a quarter block here); a new dx would be 16 blocks
    assert peak < 4 * ops.BLOCK_BYTES


def _stem_rule(x):
    """The rule of a taped normalizing pool of x, whose output is dropped."""
    gamma = Tensor(np.array([1.5, -0.7, 0.3, 2.0], dtype=np.float32), requires_grad=True)
    beta = Tensor(np.array([0.1, -0.2, 0.3, 0.0], dtype=np.float32), requires_grad=True)
    rm, rv = np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32)
    with Tape() as tape:
        ops.maxpool3d(x, 3, 2, 1, norm=(gamma, beta, rm, rv, True))
    return tape.nodes[-1].backward_fn


@pytest.mark.parametrize("storage", [
    "read-only", "held-view", "frombuffer", "bytearray-base",
])
def test_stem_rule_leaves_borrowed_storage_of_a_dropped_x_alone(storage, monkeypatch, rng):
    # x's Tensor is dropped, but its array is not the rule's to write: one
    # case for each guard of owns_x that a dropped x can meet
    data = rng.normal(size=(2, 4, 4, 8, 6)).astype(np.float32)
    g = rng.normal(size=(2, 4, 2, 4, 3)).astype(np.float32)
    assert _blocks_of(monkeypatch, data, 1) == 8
    if storage == "read-only":  # not writeable
        arr = data.copy()
        arr.flags.writeable = False
        holder = weakref.ref(arr)  # a strong one would raise the array's count

        def read():
            return holder().tobytes()
    elif storage == "held-view":  # the base it views has another reference
        holder = data.copy()
        arr, read = holder.reshape(data.shape), holder.tobytes
    else:
        holder = bytearray(data.tobytes())
        if storage == "frombuffer":  # the ndarray base it views owns no data
            arr = np.frombuffer(holder, np.float32).reshape(data.shape)
        else:  # the base is no ndarray
            arr = np.ndarray(data.shape, np.float32, buffer=holder)

        def read():
            return bytes(holder)
    before = read()
    # held x views a base that nothing else holds, as the stem's conv output
    # does, so only the count of x's own references keeps dx out of it
    held = Tensor(data.copy().reshape(data.shape), requires_grad=True)
    want = _stem_rule(held)(g.copy())
    assert held.data.tobytes() == data.tobytes()
    rule = _stem_rule(Tensor(arr, requires_grad=True))
    del arr
    got = rule(g.copy())
    assert read() == before
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_blocked_reductions_keep_numpys_order(monkeypatch):
    # Reducing a strided one-channel slice of an N > 1 array sums in another
    # order than numpy's reduction of the whole array; the blocks (one
    # sample's run of channels each) must reproduce the whole-array order.
    x = np.random.default_rng(3).normal(1.5, 2.0, size=(2, 2, 3, 4, 4)).astype(np.float32)
    axes = (0, 2, 3, 4)
    assert x[:, :1].mean(axis=axes).tobytes() != x.mean(axis=axes)[:1].tobytes()
    assert _blocks_of(monkeypatch, x, 1) == 4
    rm, rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
    ones, zeros = Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
    ops.batchnorm3d(Tensor(x), ones, zeros, rm, rv, training=True)
    want_rm, want_rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
    _batchnorm_textbook(x, ones.data, zeros.data, want_rm, want_rv, x, training=True)
    assert rm.tobytes() == want_rm.tobytes() and rv.tobytes() == want_rv.tobytes()


def _transient_bytes(fn):
    """Peak traced memory during fn() above what was live before it and after it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - max(before, after), result


def test_blocked_taped_maxpool_allocates_about_one_block(monkeypatch, rng):
    x = Tensor(rng.normal(size=(2, 8, 8, 32, 32)).astype(np.float32), requires_grad=True)
    assert _blocks_of(monkeypatch, x.data, 1) == 16

    def pool():
        with Tape():
            return ops.maxpool3d(x, 3, stride=2, padding=1)

    transient, _ = _transient_bytes(pool)
    # one block's phase planes hold 1.2 blocks here and the finiteness scan's
    # mask of the output 0.5; the whole input's planes would hold 19 blocks
    assert transient < 2 * ops.BLOCK_BYTES


def test_blocked_untaped_maxpool_allocates_its_output_and_about_two_blocks(monkeypatch, rng):
    x = Tensor(rng.normal(size=(2, 4, 8, 64, 64)).astype(np.float32))
    assert _blocks_of(monkeypatch, x.data, 1) == 8
    transient, out = _transient_bytes(lambda: ops.maxpool3d(x, 3, stride=2, padding=1))
    assert out.shape == (2, 4, 4, 32, 32)
    # beyond the output: one block's padded copy (1.33 blocks here) beside its
    # running max along frames (0.53), and numpy's ufunc buffers for the two
    # strided taps of one np.maximum (at most bufsize elements each, which a
    # 2 MiB block dwarfs); a padded copy of the whole input would be 10.6 blocks
    ufunc_buffers = 2 * np.getbufsize() * x.data.itemsize
    assert transient < 2 * ops.BLOCK_BYTES + ufunc_buffers


def test_blocked_taped_batchnorm_forward_allocates_out_and_about_one_block(monkeypatch, rng):
    x = Tensor(rng.normal(size=(2, 8, 8, 16, 16)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    rm, rv = np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.float32)
    assert _blocks_of(monkeypatch, x.data, 1) == 16
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = ops.batchnorm3d(x, gamma, beta, rm, rv, training=True)
            grown, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # what stays is the output and the rule's small arrays and block list,
    # as the rule keeps x, which was alive already; a kept xhat would add
    # 16 blocks
    assert out.data.nbytes <= grown < out.data.nbytes + ops.BLOCK_BYTES
    # on the way, one block of xhat at a time, or the finiteness scan's
    # mask of the output (out.size bytes), beside those
    assert peak < out.data.nbytes + max(ops.BLOCK_BYTES, out.size) + ops.BLOCK_BYTES


def test_blocked_taped_maxpool_backward_allocates_dx_and_about_one_block(monkeypatch, rng):
    x = Tensor(rng.normal(size=(2, 8, 8, 32, 32)).astype(np.float32), requires_grad=True)
    assert _blocks_of(monkeypatch, x.data, 1) == 16
    with Tape() as tape:
        out = ops.maxpool3d(x, 3, stride=2, padding=1)
    rule = tape.nodes[-1].backward_fn
    g = rng.normal(size=out.shape).astype(np.float32)
    transient, (dx,) = _transient_bytes(lambda: rule(g))
    assert dx.shape == x.shape
    # beyond dx: one block's int64 index plane (8 bytes per window of one
    # channel here) and a few arrays of its size made on the way, such as
    # the window origins, about 38 KiB; an index of the whole output would
    # be 16 planes and grow with the channel count
    index = 8 * out.data[0, 0].size
    assert transient < 6 * index


def test_regathered_conv_backward_holds_one_run_of_columns(rng):
    # stem-shaped: 2x3x8x112x112, 3x3x3, padding 1; 62 MiB of columns
    x = Tensor(rng.normal(size=(2, 3, 8, 112, 112)).astype(np.float32))
    w = Tensor(rng.normal(size=(16, 3, 3, 3, 3)).astype(np.float32), requires_grad=True)
    assert 2 * 81 * 8 * 112 * 112 * 4 > ops.KEEP_COLUMNS_BYTES
    with Tape() as tape:
        out = ops.conv3d(x, w, padding=1)
    rule = tape.nodes[-1].backward_fn
    g = rng.normal(size=out.shape).astype(np.float32)
    del out
    transient, (dx, dw) = _transient_bytes(lambda: rule(g))
    assert dx is None and dw.shape == w.shape
    # the padded input (3.0 MiB) and one run of columns (one frame, 3.9 MiB
    # here, as a frame's columns exceed a block)
    padded = x.data[:, :, :1].nbytes * 10 * 114 * 114 // (112 * 112)
    assert transient < padded + 81 * 112 * 112 * 4 + ops.BLOCK_BYTES // 2


def test_blocked_batchnorm_backward_allocates_about_one_block(monkeypatch, rng):
    x = Tensor(rng.normal(size=(2, 8, 8, 16, 16)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    assert _blocks_of(monkeypatch, x.data, 1) == 16
    rm, rv = np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.float32)
    with Tape() as tape:
        ops.batchnorm3d(x, gamma, beta, rm, rv, training=True)
    rule = tape.nodes[-1].backward_fn
    g = rng.normal(size=x.shape).astype(np.float32)
    transient, (dx, _, _) = _transient_bytes(lambda: rule(g))
    assert dx is g  # built in the gradient it was handed
    # one block of scratch; a full-size scratch would be 16 blocks
    assert transient < 1.5 * ops.BLOCK_BYTES


# ---------------------------------------------------------------------------
# activations and classifier ops


def test_relu_oracle_and_zero_subgradient():
    x = Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32), requires_grad=True)
    out = ops.relu(x)
    assert out.data.tolist() == [0.0, 0.0, 2.0]
    (gx,) = _sum_backward(lambda: ops.relu(x), x)
    assert gx.tolist() == [0.0, 0.0, 1.0]


def test_taped_relu_keeps_only_its_output(rng):
    x = Tensor(rng.normal(size=2**16).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            out = ops.relu(x)
            grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the rule rebuilds the mask from its output; a kept mask adds x.size bytes
    assert out.data.nbytes <= grown < out.data.nbytes + x.size // 2


def test_sigmoid_midpoint_and_strict_range():
    assert ops.sigmoid(Tensor(np.array([0.0], dtype=np.float32))).item() == 0.5
    hi = ops.sigmoid(Tensor(np.array([100.0], dtype=np.float32))).item()
    lo = ops.sigmoid(Tensor(np.array([-100.0], dtype=np.float32))).item()
    assert 0.0 < lo < hi < 1.0
    assert hi == float(np.nextafter(np.float32(1.0), np.float32(0.0)))


def test_sigmoid_gradient_peak():
    x = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
    (gx,) = _sum_backward(lambda: ops.sigmoid(x), x)
    assert abs(gx[0] - 0.25) < 1e-7


def test_linear_oracle():
    x = Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32), requires_grad=True)
    w = Tensor(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=np.float32), requires_grad=True)
    b = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    out = ops.linear(x, w, b)
    assert out.data.tolist() == [[5.0, 4.0]]
    gx, gw, gb = _sum_backward(lambda: ops.linear(x, w, b), x, w, b)
    assert gx.tolist() == [[1.0, 1.0, 1.0]]
    assert gw.tolist() == [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]
    assert gb.tolist() == [1.0, 1.0]


def test_linear_gradients_follow_requires_grad(rng):
    x = rng.normal(size=(3, 5)).astype(np.float32)
    w = rng.normal(size=(4, 5)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    proj = rng.normal(size=(3, 4)).astype(np.float32)
    _assert_grads_follow_requires_grad(ops.linear, [x, w, b], proj)


def test_linear_validation():
    with pytest.raises(ValueError, match="rank 2"):
        ops.linear(Tensor(np.zeros(3, dtype=np.float32)), Tensor(np.zeros((2, 3), dtype=np.float32)))
    with pytest.raises(ValueError, match="bias shape"):
        ops.linear(
            Tensor(np.zeros((1, 3), dtype=np.float32)),
            Tensor(np.zeros((2, 3), dtype=np.float32)),
            Tensor(np.zeros(3, dtype=np.float32)),
        )


def test_cross_entropy_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
    loss = ops.softmax_cross_entropy(logits, np.array([0, 3]))
    assert abs(loss.item() - math.log(4.0)) < 1e-6


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
    with Tape():
        loss = ops.softmax_cross_entropy(logits, np.array([0, 3]))
    backward(loss)
    expected = np.full((2, 4), 0.25)
    expected[0, 0] -= 1.0
    expected[1, 3] -= 1.0
    expected /= 2.0  # mean reduction
    assert np.allclose(logits.grad, expected, atol=1e-7)


def test_cross_entropy_confident_correct_is_near_zero():
    logits = Tensor(np.array([[10.0, 0.0, 0.0, 0.0]], dtype=np.float32))
    loss = ops.softmax_cross_entropy(logits, np.array([0]))
    assert 0.0 < loss.item() < 1e-3


def test_cross_entropy_label_validation():
    logits = Tensor(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="labels shape"):
        ops.softmax_cross_entropy(logits, np.array([0]))
    with pytest.raises(ValueError, match="lie in"):
        ops.softmax_cross_entropy(logits, np.array([0, 4]))
    with pytest.raises(ValueError, match="integers"):
        ops.softmax_cross_entropy(logits, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# elementwise plumbing


def test_add_scalar_and_reshape_and_sum():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    assert ops.add_scalar(x, 0.5).data.tolist() == [1.5, 2.5]
    r = ops.reshape(x, (2, 1))
    assert r.shape == (2, 1)
    (gx,) = _sum_backward(lambda: ops.reshape(x, (2, 1)), x)
    assert gx.tolist() == [1.0, 1.0]
    assert ops.sum_all(Tensor(np.ones((2, 2)))).item() == 4.0


def test_scalar_outputs_are_zero_dim():
    x = Tensor(np.ones((2, 3), dtype=np.float32))
    assert ops.sum_all(x).shape == ()
    assert ops.softmax_cross_entropy(x, np.array([0, 2])).shape == ()


def test_mul_gradients_swap_operands(rng):
    x = Tensor(np.array([2.0, 3.0], dtype=np.float32), requires_grad=True)
    y = Tensor(np.array([5.0, 7.0], dtype=np.float32), requires_grad=True)
    gx, gy = _sum_backward(lambda: ops.mul(x, y), x, y)
    assert gx.tolist() == [5.0, 7.0]
    assert gy.tolist() == [2.0, 3.0]


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        ops.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_mutate_backward_requires_known_op():
    with pytest.raises(ValueError, match="no backward mutation"):
        with mutate_backward("sigmoid_x"):
            pass


def _zeros(*shape):
    return Tensor(np.zeros(shape, dtype=np.float32))


_X5, _W1, _C2 = _zeros(1, 2, 4, 4, 4), _zeros(1, 2, 1, 1, 1), _zeros(2)

VALIDATION_ERRORS = {
    "triple-length": (lambda: ops.conv3d(_X5, _W1, stride=(1, 1)),
                      r"stride must be an int or a 3-tuple, got \(1, 1\)"),
    "stride-below-1": (lambda: ops.conv3d(_X5, _W1, stride=(1, 0, 1)),
                       "conv3d: stride along height must be >= 1, got 0"),
    "negative-padding": (lambda: ops.maxpool3d(_X5, 2, padding=(0, 0, -1)),
                         "maxpool3d: padding along width must be >= 0, got -1"),
    "padding-not-below-window": (lambda: ops.maxpool3d(_X5, 2, padding=2),
                                 "padding 2 along frame must be smaller than the window 2"),
    "conv3d-weight-rank": (lambda: ops.conv3d(_X5, _zeros(1, 2, 1, 1)),
                           r"conv3d: weight must be rank 5, got shape \(1, 2, 1, 1\)"),
    "conv3d-bias-shape": (lambda: ops.conv3d(_X5, _W1, _C2),
                          r"conv3d: bias shape \(2,\) does not match 1 output channels"),
    "maxpool3d-rank": (lambda: ops.maxpool3d(_zeros(2, 4, 4, 4), 2),
                       "maxpool3d: input must be rank 5"),
    "avgpool-rank": (lambda: ops.avgpool3d_adaptive(_zeros(2, 4, 4, 4)),
                     "avgpool3d_adaptive: input must be rank 5"),
    "batchnorm3d-rank": (lambda: ops.batchnorm3d(_zeros(2, 4, 4, 4), _C2, _C2, np.zeros(2),
                                                 np.ones(2), training=True),
                         "batchnorm3d: input must be rank 5"),
    "batchnorm3d-gamma-beta": (lambda: ops.batchnorm3d(_X5, _C2, _zeros(3), np.zeros(2),
                                                       np.ones(2), training=True),
                               r"batchnorm3d: gamma/beta must have shape \(2,\)"),
    "linear-weight": (lambda: ops.linear(_zeros(1, 3), _zeros(2, 4)),
                      r"linear: weight shape \(2, 4\) does not match input features 3"),
    "cross-entropy-logits-rank": (lambda: ops.softmax_cross_entropy(_zeros(4), np.zeros(4, int)),
                                  "softmax_cross_entropy: logits must be rank 2"),
    "mul-shapes": (lambda: ops.mul(_zeros(2), _zeros(3)), r"mul: shapes \(2,\) and \(3,\) differ"),
}


@pytest.mark.parametrize("call, message", VALIDATION_ERRORS.values(), ids=VALIDATION_ERRORS)
def test_op_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# what a taped call keeps for backward

RELEASING_CALLS = {
    "relu": ops.relu,
    "add": lambda x: ops.add(x, x),
    "add_scalar": lambda x: ops.add_scalar(x, 1.0),
    "sigmoid": ops.sigmoid,
    "maxpool3d": lambda x: ops.maxpool3d(x, 3, stride=2, padding=1),
    "avgpool3d_adaptive": ops.avgpool3d_adaptive,
    "trilinear_upsample": lambda x: ops.trilinear_upsample(x, (6, 8, 8)),
    "conv3d": lambda x: ops.conv3d(
        x, Tensor(np.ones((3, 2, 3, 3, 3), np.float32), requires_grad=True), padding=1),
}


@pytest.mark.parametrize("name", sorted(RELEASING_CALLS))
def test_taped_call_releases_its_input(name, rng):
    x = Tensor(rng.normal(size=(2, 2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    cell, data = x.cell, weakref.ref(x.data)
    with Tape():
        out = RELEASING_CALLS[name](x)
        loss = ops.sum_all(ops.mul(out, Tensor(rng.normal(size=out.shape).astype(out.dtype))))
    del x
    assert data() is None  # no rule closed over the input or its array
    backward(loss)
    assert cell.grad is not None and np.all(np.isfinite(cell.grad))


@pytest.mark.parametrize("training", [True, False])
def test_taped_batchnorm_keeps_exactly_its_input(training, rng):
    x = Tensor(rng.normal(size=(2, 4, 8, 16, 16)).astype(np.float32), requires_grad=True)
    cell, data = x.cell, weakref.ref(x.data)
    gamma = Tensor(np.ones(4, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(4, np.float32), requires_grad=True)
    rm, rv = np.zeros(4, np.float32), np.ones(4, np.float32)
    tracemalloc.start()
    try:
        with Tape():
            before, _ = tracemalloc.get_traced_memory()
            out = ops.batchnorm3d(x, gamma, beta, rm, rv, training=training)
            grown = tracemalloc.get_traced_memory()[0] - before
            loss = ops.sum_all(ops.mul(out, Tensor(rng.normal(size=out.shape).astype(out.dtype))))
    finally:
        tracemalloc.stop()
    x_bytes = x.data.nbytes
    del x
    # the rule reads the input to form xhat again; a kept xhat would add
    # x.nbytes to what the call leaves behind
    assert data() is not None
    assert out.data.nbytes <= grown < out.data.nbytes + x_bytes // 8
    backward(loss)
    assert cell.grad is not None and np.all(np.isfinite(cell.grad))
    del loss
    assert data() is None  # only the rule held it


def test_taped_pointwise_conv_keeps_its_input_as_columns():
    # a 1x1x1 stride-1 conv reads its input as its weight-gradient columns
    x = Tensor(np.ones((1, 2, 2, 3, 3), np.float32), requires_grad=True)
    data = weakref.ref(x.data)
    with Tape() as tape:
        ops.conv3d(x, Tensor(np.ones((3, 2, 1, 1, 1)), requires_grad=True))
    del x
    assert len(tape.nodes) == 1 and data() is not None
