"""Differentiable operators over 5-D video tensors.

Every operator computes its forward value with numpy, and when called under
an active tape with at least one input requiring gradients it records a
closure g -> grads implementing the exact reverse-mode rule. The tape holds
gradient cells, not tensors, so a rule keeps alive only what it closes over:
the arrays it reads, shapes, and the inputs' requires_grad flags as plain
bools, never an input Tensor. It returns None for each input that does not
require gradients. A rule owns the gradient g it is handed (see tensor): it
may overwrite g in place or return it as an input's gradient, so the
elementwise rules (relu, batchnorm3d's dx, add, add_scalar, reshape) make no
full-size array of their own. Every forward value is scanned, and a NaN or
infinity raises NonFiniteError naming the operator and module.

maxpool3d's norm (the stem's batchnorm-then-pool) and batchnorm3d's conv
(a pre-activation unit, conv(relu(bn(x))), whose rule keeps x, not the
activated x) are each one tape node, bitwise the separate ops'. Conv routes
(_conv) serve conv3d and the unit; checksuite holds their nested-loop
reference. Batchnorm (_BatchNorm) and the max-pool run their passes one
cache-sized block of channels at a time (_channel_blocks), bitwise.
"""

from __future__ import annotations

import itertools
import sys
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tape, Tensor, active_tape

_AXIS_NAMES = ("frame", "height", "width")

# batchnorm's running-statistics EMA weight and variance floor
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

# Batchnorm, the maxpool and a conv's column runs work block by block,
# each block at most this size (about one core's L2), so the passes over a
# block stay in cache.
BLOCK_BYTES = 2 << 20

# A conv whose im2col columns (whole batch) exceed this keeps its input
# instead, gathering the columns one run of output frames at a time, in the
# forward and again in the backward.
KEEP_COLUMNS_BYTES = 8 << 20


def _triple(value, what: str) -> tuple[int, int, int]:
    if isinstance(value, (int, np.integer)):
        value = (int(value),) * 3
    value = tuple(int(v) for v in value)
    if len(value) != 3:
        raise ValueError(f"{what} must be an int or a 3-tuple, got {value}")
    return value


class NonFiniteError(FloatingPointError):
    """An operator produced NaN or infinity; the message names the operator, and
    the innermost stamped module it ran in once Module.__call__ sets module."""

    module = ""

    def __str__(self) -> str:
        return f"{super().__str__()} in {self.module}" if self.module else super().__str__()


def _recording(inputs: Sequence[Tensor]) -> Optional[Tape]:
    """The active tape, if there is one and some input requires gradients."""
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        return tape
    return None


def _finish(op: str, out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap a forward result, checking finiteness and recording if needed."""
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteError(f"{op} produced non-finite values")
    tape = _recording(inputs)
    if tape is None:
        return Tensor(out_data, dtype=out_data.dtype)
    out = Tensor(out_data, requires_grad=True, dtype=out_data.dtype)
    tape.record(out, inputs, backward_fn)
    return out


def _check_window_geometry(op: str, spatial, kernel, stride, padding) -> tuple[int, int, int]:
    out = []
    for axis, (n, k, s, p) in enumerate(zip(spatial, kernel, stride, padding)):
        if s < 1:
            raise ValueError(f"{op}: stride along {_AXIS_NAMES[axis]} must be >= 1, got {s}")
        if p < 0:
            raise ValueError(f"{op}: padding along {_AXIS_NAMES[axis]} must be >= 0, got {p}")
        if p >= k:
            raise ValueError(
                f"{op}: padding {p} along {_AXIS_NAMES[axis]} must be smaller than the window {k}"
            )
        if k > n + 2 * p:
            raise ValueError(
                f"{op}: window {k} exceeds padded input extent {n + 2 * p} along {_AXIS_NAMES[axis]}"
            )
        out.append((n + 2 * p - k) // s + 1)  # >= 1, as the window fits
    return tuple(out)


def _gather_windows(xp: np.ndarray, kernel, stride, out_shape, out=None) -> np.ndarray:
    """Stack sliding windows: (N, C, kf, kh, kw, Fo, Ho, Wo), into out if given.

    The stack is one strided view of xp, copied in one pass. A 1x1x1 window
    is one input cell, so with no out the view itself is returned.
    """
    steps = xp.strides[2:]
    windows = as_strided(xp, (*xp.shape[:2], *kernel, *out_shape),
                         (*xp.strides, *(s * t for s, t in zip(stride, steps))), writeable=False)
    if out is None:
        return windows if kernel == (1, 1, 1) else windows.copy()
    np.copyto(out, windows)
    return out


def _scatter_windows(dcols: np.ndarray, padded_shape, kernel, stride, out_shape,
                     out=None) -> np.ndarray:
    """Adjoint of _gather_windows: sum window gradients into a padded array.

    The sums go into out if given, else into a zeroed array of the padded
    shape. A 1x1x1 window at stride 1 covers every input cell once, so with
    no out its one tap is the whole gradient, returned as a view.
    """
    if out is None and kernel == (1, 1, 1) and stride == (1, 1, 1):
        return dcols[:, :, 0, 0, 0]
    kf, kh, kw = kernel
    sf, sh, sw = stride
    fo, ho, wo = out_shape
    dxp = np.zeros(padded_shape, dtype=dcols.dtype) if out is None else out
    for a in range(kf):
        for b in range(kh):
            for d in range(kw):
                dxp[:, :, a : a + sf * fo : sf, b : b + sh * ho : sh, d : d + sw * wo : sw] += (
                    dcols[:, :, a, b, d]
                )
    return dxp


def _pad5(x: np.ndarray, padding, value=0.0) -> np.ndarray:
    """x with a border of value, padding[i] cells wide on each side of axis 2 + i."""
    if not any(padding):
        return x
    (pf, ph, pw), (f, h, w) = padding, x.shape[2:]
    xp = np.empty((*x.shape[:2], f + 2 * pf, h + 2 * ph, w + 2 * pw), x.dtype)
    xp[:, :, :pf] = xp[:, :, pf + f :] = value  # the border, face by face
    xp[:, :, pf : pf + f, :ph] = xp[:, :, pf : pf + f, ph + h :] = value
    xp[:, :, pf : pf + f, ph : ph + h, :pw] = xp[:, :, pf : pf + f, ph : ph + h, pw + w :] = value
    xp[:, :, pf : pf + f, ph : ph + h, pw : pw + w] = x
    return xp


def _unpad5(xp: np.ndarray, padding) -> np.ndarray:
    """Crop the border _pad5 added, as a contiguous array."""
    crop = tuple(slice(p, e - p) for e, p in zip(xp.shape[2:], padding))
    return np.ascontiguousarray(xp[(slice(None), slice(None)) + crop])


def _conv_runs(n: int, cin: int, kernel, stride, out_shape, dtype):
    """The regather route's runs of output frames, each with a column buffer.

    A run is one sample's consecutive output frames whose columns fit in
    BLOCK_BYTES, or one frame when a frame's are larger. Yields (i, pos,
    span, cols) per run, sample by sample: sample i, the run's slice of
    the flattened output positions, its slice of padded input frames, and
    a (1, cin, kf, kh, kw, frames, Ho, Wo) view of one reused buffer of
    dtype, for its columns. A GEMM per run forms each output element as
    the dot product one GEMM over all the columns does, and bitwise so
    where the BLAS sums a column alike at every GEMM width. OpenBLAS does
    for runs that fill whole kernel tiles, as the paper geometry's 112x112,
    56x56 and 28x28 frames do; a 9x8 frame on its AVX-512 kernels differs
    in the last bit. A sum over runs, such as the weight gradient, is
    added run by run, an order one GEMM does not keep.
    """
    fo, ho, wo = out_shape
    plane = ho * wo
    kdim = cin * kernel[0] * kernel[1] * kernel[2]
    run = max(1, min(fo, BLOCK_BYTES // (kdim * plane * np.dtype(dtype).itemsize)))
    buf = np.empty(kdim * run * plane, dtype=dtype)
    sf, kf = stride[0], kernel[0]
    for i in range(n):
        for f0 in range(0, fo, run):
            nf = min(run, fo - f0)
            cols = buf[: kdim * nf * plane].reshape(1, cin, *kernel, nf, ho, wo)
            span = slice(sf * f0, sf * (f0 + nf - 1) + kf)
            yield i, slice(f0 * plane, (f0 + nf) * plane), span, cols


def _conv_geometry(shape, weight: np.ndarray, bias: Optional[np.ndarray], stride, padding):
    """Check conv3d's arguments; return stride, padding and the output extents as triples."""
    if len(shape) != 5:
        raise ValueError(f"conv3d: input must be rank 5, got shape {shape}")
    if weight.ndim != 5:
        raise ValueError(f"conv3d: weight must be rank 5, got shape {weight.shape}")
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    cin, (cout, cin_w) = shape[1], weight.shape[:2]
    if cin != cin_w:
        raise ValueError(
            f"conv3d: input has {cin} channels but weight expects {cin_w} along the channel axis"
        )
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv3d: bias shape {bias.shape} does not match {cout} output channels")
    return stride, padding, _check_window_geometry("conv3d", shape[2:], weight.shape[2:], stride,
                                                   padding)


def _conv(xd: np.ndarray, wd: np.ndarray, bd: Optional[np.ndarray], stride, padding, out_shape):
    """conv3d's forward and rule on arrays: (out, reads_input, rule).

    The windows are gathered into columns (im2col) and contracted with the
    weight. Columns of at most KEEP_COLUMNS_BYTES, and those of a 1x1x1
    kernel (a view of the strided input), are gathered at once, contracted
    in one GEMM and kept for the weight gradient (at 1x1x1 and stride 1 they
    are the input, which the rule reads instead). With one input channel
    (and a larger kernel) each padded input frame's taps are gathered once;
    output frame t's columns are a view of frames sf*t on, in the 3-D K
    order, for one GEMM per output frame (bitwise the one GEMM where
    _conv_runs' GEMMs are), and the rule reads the input, gathering the 3-D
    columns once for the weight gradient. Larger columns are never all
    alive: their forward gathers and contracts one run of output frames at a
    time (_conv_runs), and their rule reads the input instead. Its backward
    walks the same runs: it gathers a run's columns again, adds
    g_run @ cols.T into the weight gradient, then forms the run's column
    gradient w.T @ g_run in the same buffer and scatters it into the run's
    frames of the padded input gradient. So neither direction holds more
    than one run of columns. The output, the input gradient and the bias
    gradient are bitwise the kept route's where _conv_runs' GEMMs are; the
    weight gradient differs in its last bits. rule(g, xd, needs) gives the
    gradients of (x, weight(, bias)) that needs (requires_grad flags) asks
    for; xd is the input, or its values formed again, if reads_input.
    """
    n, cin = xd.shape[:2]
    cout, _, kf, kh, kw = wd.shape
    kernel = (kf, kh, kw)
    fo, ho, wo = out_shape
    kdim = cin * kf * kh * kw
    loc = fo * ho * wo

    xp = _pad5(xd, padding)
    padded_shape = xp.shape
    w2 = wd.reshape(cout, kdim)
    kept = kernel == (1, 1, 1) or n * kdim * loc * xp.itemsize <= KEEP_COLUMNS_BYTES
    shared = kept and cin == 1 and kernel != (1, 1, 1)
    cols2 = None
    if shared:  # frame t's K = (kf, kh, kw) steps one Ho*Wo plane from frame sf*t on
        fp = xp.shape[2]
        frames = np.empty((n, fp, kh, kw, ho, wo), dtype=xp.dtype)
        _gather_windows(xp, (1, kh, kw), (1, *stride[1:]), (fp, ho, wo),
                        out=frames[:, None, None].transpose(0, 1, 2, 4, 5, 3, 6, 7))
        cols = as_strided(frames, (n, fo, kdim, ho * wo), (frames.strides[0],
                          stride[0] * frames.strides[1], *frames.strides[3::2]))
        out = np.empty((n, cout, loc), dtype=np.result_type(w2, xp))
        for t in range(fo):  # into frame t's (N, Co, Ho*Wo) slice of the output
            np.matmul(w2, cols[:, t], out=out.reshape(n, cout, fo, -1)[:, :, t])
        del frames, cols
    elif kept:
        cols2 = _gather_windows(xp, kernel, stride, out_shape).reshape(n, kdim, loc)
        out = np.matmul(w2, cols2)  # (N, Co, L)
        if kernel == stride == (1, 1, 1):  # the columns are a view of the input
            cols2 = None
    else:
        out = np.empty((n, cout, loc), dtype=np.result_type(w2, xp))
        for i, pos, span, cols in _conv_runs(n, cin, kernel, stride, out_shape, xp.dtype):
            _gather_windows(xp[i : i + 1, :, span], kernel, stride, cols.shape[-3:], out=cols)
            np.matmul(w2, cols.reshape(kdim, -1), out=out[i, :, pos])
    del xp
    if bd is not None:
        out += bd[:, None]
    out = out.reshape(n, cout, fo, ho, wo)

    def rule(g, xd, needs):
        need_x, need_w, need_b = needs
        g2 = g.reshape(n, cout, loc)
        dxp = dw = None
        if kept:
            if need_w:
                gflat = g2.transpose(1, 0, 2).reshape(cout, n * loc)
                if shared:  # the 3-D columns, gathered once from the input, K-major
                    cflat = np.empty((*kernel, n, 1, *out_shape), dtype=xd.dtype)
                    _gather_windows(_pad5(xd, padding), kernel, stride, out_shape,
                                    out=cflat.transpose(3, 4, 0, 1, 2, 5, 6, 7))
                else:
                    cflat = (xd.reshape(n, kdim, -1) if cols2 is None else cols2).transpose(1, 0, 2)
                dw = gflat @ cflat.reshape(kdim, n * loc).T
            if need_x:
                dcols = np.matmul(w2.T, g2).reshape(n, cin, kf, kh, kw, fo, ho, wo)
                dxp = _scatter_windows(dcols, padded_shape, kernel, stride, out_shape)
        else:
            xp = _pad5(xd, padding) if need_w else None
            dw = np.zeros((cout, kdim), dtype=np.result_type(g2, xd)) if need_w else None
            dxp = np.zeros(padded_shape, dtype=np.result_type(w2, g2)) if need_x else None
            # Last run first: an input frame two runs share then takes its
            # frame taps in ascending order, as the kept route's one scatter
            # adds them, so dx is bitwise that route's; dw is summed run by run.
            runs = list(_conv_runs(n, cin, kernel, stride, out_shape, xd.dtype))
            for i, pos, span, cols in reversed(runs):
                g_run, c2 = g2[i, :, pos], cols.reshape(kdim, -1)
                if need_w:
                    _gather_windows(xp[i : i + 1, :, span], kernel, stride, cols.shape[-3:],
                                    out=cols)
                    dw += g_run @ c2.T
                if need_x:  # the run's column gradient overwrites its columns
                    dc = np.matmul(w2.T, g_run, out=c2 if c2.dtype == dxp.dtype else None)
                    span_dxp = dxp[i : i + 1, :, span]
                    _scatter_windows(dc.reshape(cols.shape), span_dxp.shape, kernel, stride,
                                     cols.shape[-3:], out=span_dxp)
        dx = None if dxp is None else _unpad5(dxp, padding)
        dw = None if dw is None else dw.reshape(cout, cin, kf, kh, kw)
        if need_b is None:
            return (dx, dw)
        return (dx, dw, g2.sum(axis=(0, 2)) if need_b else None)

    return out, cols2 is None, rule


def conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride=1, padding=0) -> Tensor:
    """3-D cross-correlation of (N,C,F,H,W) input with (Co,Ci,kf,kh,kw) weight (_conv)."""
    bd = None if bias is None else bias.data
    geometry = _conv_geometry(x.shape, weight.data, bd, stride, padding)
    out, reads_x, rule = _conv(x.data, weight.data, bd, *geometry)
    xd = x.data if reads_x else None
    needs = (x.requires_grad, weight.requires_grad, None if bias is None else bias.requires_grad)
    return _finish("conv3d", out, [x, weight] + ([] if bias is None else [bias]),
                   lambda g: rule(g, xd, needs))


def _channel_blocks(x: np.ndarray) -> list[tuple[slice, slice]]:
    """Index pairs (samples, channels) that split x into cache-sized blocks.

    A block is one contiguous run of whole channels within one sample, at
    most BLOCK_BYTES (or one channel, if a channel alone is larger), listed
    run by run and each run sample by sample; an x no larger than
    BLOCK_BYTES is one block. For a C-contiguous x, numpy's reduction over
    axes (0, 2, 3, 4) pairwise-sums each sample's contiguous run of every
    channel and adds those sums in sample order, so per-block sums added up
    in list order (_channel_sum) give its bits. Reducing a strided channel
    slice of an N > 1 array does not.
    """
    n, c = x.shape[:2]
    if x.nbytes <= BLOCK_BYTES:
        return [(slice(None), slice(None))]
    run = max(1, BLOCK_BYTES // (x.nbytes // (n * c)))  # channels per block
    return [(slice(i, i + 1), slice(j, j + run)) for j in range(0, c, run) for i in range(n)]


def _channel_sum(total: np.ndarray, block, part: np.ndarray) -> None:
    """Sum one block's part over (N, F, H, W) into its channels of total.

    Blocks of the first sample write their sums and later samples add to
    them, which is numpy's own order for the whole array (_channel_blocks).
    """
    dest = total[:, block[1]]
    if block[0].start:
        dest += np.add.reduce(part, axis=(0, 2, 3, 4), keepdims=True)
    else:
        np.add.reduce(part, axis=(0, 2, 3, 4), keepdims=True, out=dest)


class _BatchNorm:
    """One batchnorm call: its statistics, its per-block map and its rule.

    batchnorm3d and maxpool3d's norm share it. Building it checks gamma,
    beta and the channel count and takes the statistics. scratch(block) is
    an array of the block's shape and of dtype result_type(gamma, x), the
    dtype of scale * xhat, where train mode may centre the block: the
    caller's output, or a one-block buffer it reuses. Train mode uses
    biased batch statistics, with np.mean's and np.var's own steps
    (add-reduce, divide; centre, square, add-reduce, divide) run block by
    block (_channel_blocks), so mean and var equal theirs bitwise. The
    squares are summed in the scratch's dtype and rounded to x's once, so
    blocking never changes var, whatever the dtypes. It moves the running
    buffers in place by BN_MOMENTUM toward them. Eval mode normalizes with
    the running buffers. BN_EPS is added to the variance.

    The rule (backward) keeps x, not xhat, which costs no more than xhat
    would and nothing where another rule keeps x too, and forms each
    block's xhat again with the same two ops (centred), so its values are
    the forward's, always from x's block before its dx is written there.
    """

    def __init__(self, op: str, x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray, training: bool, scratch):
        n, c, f, h, w = x.shape
        if gamma.shape != (c,) or beta.shape != (c,):
            raise ValueError(
                f"{op}: gamma/beta must have shape ({c},), got {gamma.shape} and {beta.shape}"
            )
        m = n * f * h * w
        if training and m < 2:
            raise ValueError(f"{op}: train mode needs at least 2 samples per channel, got {m}")
        gshape = (1, c, 1, 1, 1)
        xd = self.xd = x.data
        blocks = self.blocks = _channel_blocks(xd)
        self.m, self.training = m, training
        self.needs = (x.requires_grad, gamma.requires_grad, beta.requires_grad)
        if training:
            mean = np.empty(gshape, dtype=x.dtype)
            squares = np.empty(gshape, dtype=np.result_type(gamma.data, xd))
            self.mean = mean
            for block in blocks:
                _channel_sum(mean, block, xd[block])
            np.true_divide(mean, np.intp(m), out=mean, casting="unsafe")
            for block in blocks:
                sq = self.centred(block[1], scratch(block), xd[block], scaled=False)
                _channel_sum(squares, block, np.multiply(sq, sq, out=sq))
            var = squares.astype(x.dtype)
            var /= m
            running_mean *= 1.0 - BN_MOMENTUM
            running_mean += BN_MOMENTUM * mean.reshape(c).astype(running_mean.dtype)
            running_var *= 1.0 - BN_MOMENTUM
            running_var += BN_MOMENTUM * var.reshape(c).astype(running_var.dtype)
        else:
            self.mean = running_mean.astype(x.dtype).reshape(gshape)
            var = running_var.astype(x.dtype).reshape(gshape)
        self.inv_std = 1.0 / np.sqrt(var + BN_EPS)
        self.scale, self.shift = gamma.data.reshape(gshape), beta.data.reshape(gshape)

    def centred(self, ch: slice, dest: np.ndarray, src: np.ndarray, scaled=True) -> np.ndarray:
        """xhat = (src - mean) * inv_std of src's channels ch, formed in dest."""
        xb = np.subtract(src, self.mean[:, ch], out=dest)
        if scaled:
            xb *= self.inv_std[:, ch]
        return xb

    def normalize(self, ch: slice, dest: np.ndarray, src: np.ndarray) -> np.ndarray:
        """scale * xhat + shift of src's channels ch, formed in dest."""
        np.multiply(self.scale[:, ch], self.centred(ch, dest, src), out=dest)
        dest += self.shift[:, ch]
        return dest

    def owns_x(self, dtype) -> bool:
        """Whether x's storage may take x's gradient, of dtype: the dtypes
        match, and neither x's Tensor nor any other rule or view can read
        the array. Reference counts show that, as numpy's own test for
        eliding a temporary does (a live Tensor's data is a reference):
        self.xd is the array's one reference, and the array the one
        reference to the base it views, if any."""
        if self.xd.dtype != dtype or not self.xd.flags.writeable:
            return False
        if self.xd.base is None:
            return sys.getrefcount(self.xd) == 2  # self.xd and the argument
        return (type(self.xd.base) is np.ndarray and self.xd.base.flags.owndata
                and sys.getrefcount(self.xd.base) == 2 and sys.getrefcount(self.xd) == 2)

    def backward(self, grad, dtype, dx: Optional[np.ndarray] = None) -> tuple:
        """Gradients of (x, gamma, beta); None where not needed.

        grad(block) gives the output gradient's block, of dtype, in a buffer
        the rule may overwrite. dx, of dtype and x's shape, takes x's
        gradient. A caller hands over dx when grad's buffers are its blocks:
        batchnorm3d hands over g (a unit, its conv's input gradient, which
        grad masks block by block), and the pool a one-block scratch. The
        first pass then leaves each block's dxhat there for the second.
        With no dx, dx is x's own storage if the rule owns x (owns_x), else
        a new array, and the second pass asks grad for each block again.
        Both passes go run by run (_channel_blocks), and a run of one block,
        as every run is at N = 1, keeps the first pass's dxhat for the second.
        """
        # dx is formed from dxhat = g * scale, in the order of the
        # expressions (inv_std / m) * (m * dxhat - sum_dxhat - xhat *
        # sum_dxhat_xhat) in train mode and dxhat * inv_std in eval mode
        need_x, need_gamma, need_beta = self.needs
        again = dx is None
        if need_x and again:
            dx = self.xd if self.owns_x(dtype) else np.empty(self.xd.shape, dtype)
        xd, blocks, m, scale, inv_std = self.xd, self.blocks, self.m, self.scale, self.inv_std
        gshape = scale.shape
        dgamma, sum_dxhat_xhat = np.empty((2, *gshape), dtype=xd.dtype)
        dbeta, sum_dxhat = np.empty((2, *gshape), dtype=dtype)
        scratch = np.empty_like(xd[blocks[0]])
        for run in [list(r) for _, r in itertools.groupby(blocks, lambda b: b[1])]:
            for block in run:
                ch, gb = (slice(None), block[1]), grad(block)
                sb = scratch[:, : gb.shape[1]]
                if need_gamma:
                    xb = self.centred(block[1], sb, xd[block])
                    _channel_sum(dgamma, block, np.multiply(gb, xb, out=xb))
                if need_beta:
                    _channel_sum(dbeta, block, gb)
                if not need_x:
                    continue
                dxhat = np.multiply(gb, scale[ch], out=gb)  # dgamma and dbeta have read g
                if self.training:
                    _channel_sum(sum_dxhat, block, dxhat)
                    xb = self.centred(block[1], sb, xd[block])
                    _channel_sum(sum_dxhat_xhat, block, np.multiply(dxhat, xb, out=xb))
                else:  # x's block has been read
                    np.multiply(dxhat, inv_std[ch], out=dx[block])
            if not (need_x and self.training):
                continue
            for block in run:  # the run's sums are final; one block keeps its dxhat
                ch = (slice(None), block[1])
                if len(run) > 1 and again:
                    gb = grad(block)
                    dxhat = np.multiply(gb, scale[ch], out=gb)
                elif len(run) > 1:
                    dxhat = dx[block]
                dxhat *= m
                dxhat -= sum_dxhat[ch]
                xb = self.centred(block[1], scratch[:, : dxhat.shape[1]], xd[block])
                dxhat -= np.multiply(xb, sum_dxhat_xhat[ch], out=xb)
                np.multiply(dxhat, inv_std[ch] / m, out=dx[block])  # x's block has been read
        c = gshape[1]
        return (dx if need_x else None, dgamma.reshape(c) if need_gamma else None,
                dbeta.reshape(c) if need_beta else None)


def _strided_max(a: np.ndarray, axis: int, k: int, s: int, o: int) -> np.ndarray:
    """Running max along one axis: out[i] = max(a[s*i : s*i + k]), o outputs."""

    def tap(j):
        index = [slice(None)] * a.ndim
        index[axis] = slice(j, j + s * o, s)
        return a[tuple(index)]

    out = np.maximum(tap(0), tap(1)) if k > 1 else np.array(tap(0))
    for j in range(2, k):
        np.maximum(out, tap(j), out=out)
    return out


def _phase_planes(x: np.ndarray, kernel, stride, padding, out_shape) -> dict:
    """The -inf-padded input split into stride phases, built straight from x.

    Along an axis, phase r holds padded cells r, r+s, r+2s, ..., as many as
    its taps a = r, r+s, ... reach: (k-1-r)//s + o of them. There are
    min(s, k) phases per axis, and plane[(rf, rh, rw)] is contiguous.
    """
    n, c = x.shape[:2]
    planes = {}
    for phase in itertools.product(*(range(min(s, k)) for k, s in zip(kernel, stride))):
        extents, inner, src = [], [], []
        for r, e, k, s, p, o in zip(phase, x.shape[2:], kernel, stride, padding, out_shape):
            extent = (k - 1 - r) // s + o
            lo = min(-(-max(p - r, 0) // s), extent)  # first cell inside x
            hi = max(min(extent, (e - 1 + p - r) // s + 1), lo)  # one past the last
            extents.append(extent)
            inner.append(slice(lo, hi))
            src.append(slice(r + s * lo - p, r + s * (hi - 1) - p + 1, s) if hi > lo else slice(0))
        plane = np.empty((n, c, *extents), dtype=x.dtype)
        for axis, cut in enumerate(inner):
            border = [slice(None)] * 5
            border[2 + axis] = slice(0, cut.start)
            plane[tuple(border)] = -np.inf
            border[2 + axis] = slice(cut.stop, None)
            plane[tuple(border)] = -np.inf
        plane[(slice(None), slice(None), *inner)] = x[(slice(None), slice(None), *src)]
        planes[phase] = plane
    return planes


def maxpool3d(x: Tensor, kernel, stride=None, padding=0, norm=None) -> Tensor:
    """Max pooling with -inf padding; backward routes to the recorded winner.

    norm, if given, is (gamma, beta, running_mean, running_var, training):
    the op then returns the pool of batchnorm3d's output for those
    arguments, bitwise, moves the running buffers as batchnorm3d does, and
    records one node whose inputs are [x, gamma, beta]. The full-size
    normalized array is never made.

    No window tensor is built, and both routes run one block of channels at
    a time (_channel_blocks) into a preallocated output, so no full-size
    padded copy or intermediate is ever live. Untaped, the forward is
    separable: each block is padded and takes one strided running max per
    axis. Under a tape the input is split into stride-phase planes
    (_phase_planes), so that every window offset j = (a, b, d) is a
    unit-stride slice of one plane, and the output is a running max over
    the offsets. Max is exact, so both routes give the same output. The
    untaped route builds no planes because, with no winner to find, they
    cost more than they save. Under a tape they serve both jobs, into the
    output and the winner array: a block's planes stay in cache across the
    2 * ksize passes over them. Backward walks the same blocks, so its
    int64 scatter index is one block's, never the whole output's; each
    cell's adds keep their order, so dx is bitwise that of one scatter.

    The winner of a window is the lowest offset whose tap equals the output:
    score = max_j (ksize - j) * (tap_j == out) in the smallest unsigned
    dtype, then winner = ksize - score, so ties resolve to the lowest linear
    index in the window with no masked copy. The rule keeps only the winner
    index. A winner never lies in the -inf border: the padding is narrower
    than the window and a recorded output is finite. So backward indexes the
    unpadded input directly and scatters into a gradient of its shape.

    With norm, the untaped route pools x itself and normalizes only the
    pooled cells (_BatchNorm.normalize). That is bitwise the pool of the
    normalized values because each of normalization's steps, x - mean,
    * inv_std, * gamma and + beta, is monotone under rounding. Where gamma
    > 0 they do not decrease, so the max of the normalized values is the
    normalized max. Where gamma < 0 they do not increase, so the block
    pools -x, exactly, and the normalized min is the max. Where gamma = 0
    every value is beta (a beta of -0.0 gives zeros of either sign). The
    taped route normalizes each block into a one-block scratch that
    _phase_planes then copies into the planes (normalizing into the planes'
    strided interiors is slower), so winners are found on normalized
    values, as without norm. Its rule is batchnorm's (_BatchNorm.backward),
    fed one block at a time: each block's scatter above goes into a zeroed
    one-block scratch. An x of one block hands that scratch over as dx; at
    N > 1, an x of many blocks is scattered again in the rule's second pass;
    its gradient goes into x's own storage when the rule owns x, so no
    full-size array is made, and into a new array otherwise.
    """
    if x.ndim != 5:
        raise ValueError(f"maxpool3d: input must be rank 5, got shape {x.shape}")
    kernel = _triple(kernel, "kernel")
    stride = kernel if stride is None else _triple(stride, "stride")
    padding = _triple(padding, "padding")
    n, c, f, h, w = x.shape
    out_shape = _check_window_geometry("maxpool3d", (f, h, w), kernel, stride, padding)
    fo, ho, wo = out_shape
    ksize = kernel[0] * kernel[1] * kernel[2]

    inputs, bn, blocks, dtype = [x], None, _channel_blocks(x.data), x.dtype
    block_shape = x.data[blocks[0]].shape
    if norm is not None:
        gamma, beta, running_mean, running_var, training = norm
        inputs, dtype = [x, gamma, beta], np.result_type(gamma.data, x.data)
        buf = np.empty(block_shape, dtype)

        def one_block(block):  # train mode's statistics scratch, then the taped route's
            return buf[:, : x.data[block].shape[1]]

        bn = _BatchNorm("maxpool3d", x, gamma, beta, running_mean, running_var, training,
                        one_block)
    out = np.empty((n, c, fo, ho, wo), dtype=dtype)
    if not _recording(inputs):
        # +1 or -1 per channel: a block pools sign * x, and the sign undoes it
        sign = None if bn is None else np.where(bn.scale < 0, -1, 1).astype(x.dtype)
        for block in blocks:
            part = x.data[block]
            flip = None if sign is None or sign[:, block[1]].min() > 0 else sign[:, block[1]]
            if flip is not None:
                part = part * flip
            part = _pad5(part, padding, value=-np.inf)
            for axis, (k, s, o) in enumerate(zip(kernel, stride, out_shape)):
                part = _strided_max(part, 2 + axis, k, s, o)
            if flip is not None:
                part *= flip
            if bn is None:
                out[block] = part
            else:
                bn.normalize(block[1], out[block], part)
        return _finish("maxpool3d", out, inputs, None)

    sf, sh, sw = stride
    am = np.zeros(out.shape, dtype=np.min_scalar_type(ksize))  # the score, then the winner
    hit = np.empty_like(am[blocks[0]])
    for block in blocks:
        src = x.data[block]
        if bn is not None:
            src = one_block(block)
            bn.normalize(block[1], src, x.data[block])
        planes = _phase_planes(src, kernel, stride, padding, out_shape)
        taps = [  # offset j = (a, b, d) in linear order, each a unit-stride view
            planes[(a % sf, b % sh, d % sw)][
                :, :, a // sf : a // sf + fo, b // sh : b // sh + ho, d // sw : d // sw + wo
            ]
            for a, b, d in itertools.product(*map(range, kernel))
        ]
        block_out, score, block_hit = out[block], am[block], hit[:, : taps[0].shape[1]]
        np.copyto(block_out, taps[0])
        for tap in taps[1:]:
            np.maximum(block_out, tap, out=block_out)
        for j, tap in enumerate(taps):
            np.equal(tap, block_out, out=block_hit.view(bool))
            np.multiply(block_hit, ksize - j, out=block_hit)
            np.maximum(score, block_hit, out=score)
        del planes, taps, tap  # before the next block's planes are made
    np.subtract(ksize, am, out=am)

    def backward_fn(g):
        # A winner's flat index in x is its window's origin (which may lie
        # in the border) plus its offset inside the window, both unpadded.
        ka, kb, kd = np.unravel_index(np.arange(ksize), kernel)
        lf, lh, lw = np.ogrid[:fo, :ho, :wo]
        tap_offset = (ka * h + kb) * w + kd
        pf, ph, pw = padding
        origin = (((lf * sf - pf) * h + (lh * sh - ph)) * w + (lw * sw - pw)).ravel()
        plane = f * h * w

        def scatter(block, dest):  # g's block to its winners in dest, zeros of x[block]'s shape
            score = am[block]
            nb, cb = score.shape[:2]
            index = tap_offset[score.reshape(nb, cb, -1)]  # built in place
            index += origin
            index += (np.arange(nb * cb) * plane).reshape(nb, cb, 1)
            np.add.at(dest.reshape(-1), index.ravel(), g[block].ravel())
            return dest

        if bn is None:
            dx = np.zeros((n, c, f, h, w), dtype=g.dtype)
            for block in blocks:  # the forward's, so an index plane is one block's
                scatter(block, dx[block])
            return (dx,)
        scratch = np.empty(block_shape, g.dtype)

        def grad(block):  # batchnorm's output gradient, one block at a time
            dest = scratch[:, : am[block].shape[1]]
            dest.fill(0)
            return scatter(block, dest)

        return bn.backward(grad, g.dtype, scratch if len(blocks) == 1 else None)

    return _finish("maxpool3d", out, inputs, backward_fn)


def avgpool3d_adaptive(x: Tensor) -> Tensor:
    """Global average over (F,H,W), keeping singleton spatial axes."""
    if x.ndim != 5:
        raise ValueError(f"avgpool3d_adaptive: input must be rank 5, got shape {x.shape}")
    n, c, f, h, w = x.shape
    count = f * h * w
    out = x.data.mean(axis=(2, 3, 4), keepdims=True)

    def backward_fn(g):
        return (np.broadcast_to(g / count, (n, c, f, h, w)).astype(g.dtype, copy=True),)

    return _finish("avgpool3d_adaptive", out, [x], backward_fn)


def _linear_axis_coeffs(in_extent: int, out_extent: int, dtype):
    """Source indices and weights for 1-D linear resampling of one axis.

    Sample t maps to source (t+0.5)*in/out - 0.5, clamped to [0, in-1],
    then blends the two nearest cells (the upper index is edge-clamped).
    """
    t = np.arange(out_extent, dtype=np.float64)
    src = np.clip((t + 0.5) * (in_extent / out_extent) - 0.5, 0.0, in_extent - 1)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, in_extent - 1)
    w1 = (src - i0).astype(dtype)
    w0 = np.asarray(1.0 - w1, dtype=dtype)
    return i0, i1, w0, w1


def trilinear_upsample(x: Tensor, target) -> Tensor:
    """Resample (F,H,W) to `target` extents with separable linear interpolation."""
    if x.ndim != 5:
        raise ValueError(f"trilinear_upsample: input must be rank 5, got shape {x.shape}")
    target = _triple(target, "target")
    for axis, t in enumerate(target):
        if t < 1:
            raise ValueError(
                f"trilinear_upsample: target extent along {_AXIS_NAMES[axis]} must be >= 1"
            )
    coeffs = []
    src_shape = x.shape
    out = x.data
    for axis_off, t in enumerate(target):
        axis = 2 + axis_off
        i0, i1, w0, w1 = _linear_axis_coeffs(out.shape[axis], t, out.dtype)
        shape = [1] * out.ndim
        shape[axis] = t
        out = out.take(i0, axis=axis) * w0.reshape(shape) + out.take(i1, axis=axis) * w1.reshape(
            shape
        )
        coeffs.append((axis, i0, i1, w0, w1))

    def backward_fn(g):
        dg = g
        # each axis was interpolated exactly once from its original extent,
        # so undoing in reverse order scatters back to x.shape per axis
        for axis, i0, i1, w0, w1 in reversed(coeffs):
            src_extent = src_shape[axis]
            gm = np.moveaxis(dg, axis, 0)
            wshape = (-1,) + (1,) * (gm.ndim - 1)
            dm = np.zeros((src_extent,) + gm.shape[1:], dtype=g.dtype)
            # row adds in np.add.at's own order, so the sums are bitwise its sums
            for index, weight in ((i0, w0), (i1, w1)):
                part = gm * weight.reshape(wshape)
                for t, i in enumerate(index):
                    dm[i] += part[t]
            dg = np.moveaxis(dm, 0, axis)
        return (np.ascontiguousarray(dg),)

    return _finish("trilinear_upsample", out, [x], backward_fn)


def batchnorm3d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool, conv=None) -> Tensor:
    """Per-channel normalization over (N,F,H,W) with EMA running statistics
    (_BatchNorm), each block's xhat formed in the output, never full-size.

    conv = (weight, bias, stride, padding) makes the op the pre-activation
    unit conv3d(relu(batchnorm3d(x))), bitwise, as one node with inputs [x,
    gamma, beta, weight(, bias)]. The normalized array is scanned, made its
    ReLU in place and convolved (_conv); a non-finite conv output raises as
    conv3d's. The rule keeps x, not the activated array, and the kept
    route's k>1 columns. Backward forms relu(bn(x)) again, bitwise, for a
    conv rule that reads its input. It masks the conv's input gradient one
    block at a time, as _BatchNorm.backward reads it, with that array, or
    else with each block formed again from x in a one-block scratch.
    """
    if x.ndim != 5:
        raise ValueError(f"batchnorm3d: input must be rank 5, got shape {x.shape}")
    if conv is not None:
        weight, bias, stride, padding = conv
        bd = None if bias is None else bias.data
        geometry = _conv_geometry(x.shape, weight.data, bd, stride, padding)
    dtype = np.result_type(gamma.data, x.data)
    out = np.empty(x.shape, dtype)
    bn = _BatchNorm("batchnorm3d", x, gamma, beta, running_mean, running_var, training,
                    out.__getitem__)
    xd, blocks = x.data, bn.blocks
    for block in blocks:
        bn.normalize(block[1], out[block], xd[block])
    if conv is None:
        return _finish("batchnorm3d", out, [x, gamma, beta],
                       lambda g: bn.backward(g.__getitem__, g.dtype, g))
    if not np.all(np.isfinite(out)):  # before the ReLU hides a -inf
        raise NonFiniteError("batchnorm3d produced non-finite values")
    out, reads_a, rule = _conv(np.maximum(out, 0, out=out), weight.data, bd, *geometry)
    needs = (any(bn.needs), weight.requires_grad, None if bias is None else bias.requires_grad)

    def backward_fn(g):
        act = None
        if reads_a:  # the conv's input again, bitwise the forward's
            act = np.empty(xd.shape, dtype)
            for block in blocks:
                np.maximum(bn.normalize(block[1], act[block], xd[block]), 0, out=act[block])
        da, *dconv = rule(g, act, needs)
        if da is None:
            return (None, None, None, *dconv)
        scratch = None if reads_a else np.empty(xd[blocks[0]].shape, dtype)

        def grad(block):  # da's block, masked where relu(bn(x)) is 0
            sb = act[block] if reads_a else bn.normalize(
                block[1], scratch[:, : da[block].shape[1]], xd[block])
            return np.multiply(da[block], sb > 0, out=da[block])

        return (*bn.backward(grad, da.dtype, da), *dconv)

    return _finish("conv3d", out, [x, gamma, beta, weight] + ([] if bias is None else [bias]),
                   backward_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); subgradient at 0 is taken as 0.

    The rule reads its output: out > 0 is exactly x > 0.
    """
    out = np.maximum(x.data, 0)

    def backward_fn(g):
        return (np.multiply(g, out > 0, out=g),)

    return _finish("relu", out, [x], backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic, clamped strictly inside (0, 1).

    The clamp keeps the open-interval mask contract valid in float32, where
    the exact logistic would round to 1.0 for moderate inputs.
    """
    z = np.clip(x.data, -30.0, 30.0)
    out = 1.0 / (1.0 + np.exp(-z))
    one = np.asarray(1.0, dtype=out.dtype)
    zero = np.asarray(0.0, dtype=out.dtype)
    np.clip(out, np.nextafter(zero, one), np.nextafter(one, zero), out=out)

    def backward_fn(g):
        return (g * out * (1.0 - out),)

    return _finish("sigmoid", out, [x], backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map of (N, D) rows by (Dout, D) weight plus (Dout,) bias."""
    if x.ndim != 2:
        raise ValueError(f"linear: input must be rank 2, got shape {x.shape}")
    if weight.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise ValueError(
            f"linear: weight shape {weight.shape} does not match input features {x.shape[1]}"
        )
    out = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"linear: bias shape {bias.shape} does not match {weight.shape[0]}")
        out = out + bias.data
    inputs = [x, weight] if bias is None else [x, weight, bias]
    x_data, w_data = x.data, weight.data
    need_x, need_w = x.requires_grad, weight.requires_grad
    need_b = None if bias is None else bias.requires_grad

    def backward_fn(g):
        dx = g @ w_data if need_x else None
        dw = g.T @ x_data if need_w else None
        if need_b is None:
            return (dx, dw)
        return (dx, dw, g.sum(axis=0) if need_b else None)

    return _finish("linear", out, inputs, backward_fn)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy between row-softmax of logits and integer labels."""
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy: logits must be rank 2, got {logits.shape}")
    y = np.asarray(labels)
    n, k = logits.shape
    if y.shape != (n,):
        raise ValueError(f"softmax_cross_entropy: labels shape {y.shape} does not match batch {n}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("softmax_cross_entropy: labels must be integers")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"softmax_cross_entropy: labels must lie in [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1, keepdims=True)
    logp = shifted - np.log(denom)
    loss = np.asarray(-logp[np.arange(n), y].mean(), dtype=logits.dtype)

    def backward_fn(g):
        d = expz / denom
        d[np.arange(n), y] -= 1.0
        d *= g / n
        return (d,)

    return _finish("softmax_cross_entropy", loss, [logits], backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (skip merges use this)."""
    if a.shape != b.shape:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        # the inputs never share a buffer, so accumulating into one leaves the other
        if need_a and need_b:
            return (g, g.copy())
        return (g if need_a else None, g if need_b else None)

    return _finish("add", out, [a, b], backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors (mask fusion uses this)."""
    if a.shape != b.shape:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} differ")
    a_data, b_data = a.data, b.data
    out = a_data * b_data
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward_fn(g):
        return (g * b_data if need_a else None, g * a_data if need_b else None)

    return _finish("mul", out, [a, b], backward_fn)


def add_scalar(x: Tensor, value: float) -> Tensor:
    """Elementwise x + value."""
    out = x.data + np.asarray(value, dtype=x.dtype)

    def backward_fn(g):
        return (g,)

    return _finish("add_scalar", out, [x], backward_fn)


def reshape(x: Tensor, shape) -> Tensor:
    src_shape = x.shape
    out = x.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(src_shape),)

    return _finish("reshape", out, [x], backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Scalar sum of all elements."""
    src_shape = x.shape
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward_fn(g):
        return (np.broadcast_to(g, src_shape).astype(g.dtype, copy=True),)

    return _finish("sum_all", out, [x], backward_fn)
