"""Residual bottleneck blocks and the soft-mask attention block.

An attention block splits into a trunk branch T(x) and a mask branch M(x)
whose sigmoid output gates the trunk: residual fusion computes (1 + M) * T
(the residual attention learning of Wang et al. 2017), so an all-zero mask
passes the trunk through unchanged. One stride-1 residual block closes the
attention block.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import ops
from .modules import BatchNorm3d, Conv3d, Module, ModuleList
from .tensor import Tensor

# Branch output convs start small so every block is near-identity at init;
# the constant-lr recipe is unstable from a cold start without this.
BRANCH_OUTPUT_GAIN = 0.1


class ResidualBlock(Module):
    """Pre-activation bottleneck: three BN-ReLU-conv stages plus a shortcut.

    Widths run in_channels -> bottleneck_channels -> out_channels through
    kernels 1x1x1, 3x3x3 (carrying mid_stride, padding 1), 1x1x1; no conv
    carries a bias. The shortcut is the identity when shapes allow
    (identity_shortcut), else a 1x1x1 projection conv with the same stride.
    """

    def __init__(self, in_channels: int, bottleneck_channels: int, out_channels: int,
                 mid_stride: int = 1, *, rng: np.random.Generator):
        super().__init__()
        for name, value in zip(("in_channels", "bottleneck_channels", "out_channels", "mid_stride"),
                               (in_channels, bottleneck_channels, out_channels, mid_stride)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        self.identity_shortcut = in_channels == out_channels and mid_stride == 1
        b = bottleneck_channels
        self.bn1 = BatchNorm3d(in_channels)
        self.conv1 = Conv3d(in_channels, b, 1, bias=False, rng=rng)
        self.bn2 = BatchNorm3d(b)
        self.conv2 = Conv3d(b, b, 3, stride=mid_stride, padding=1, bias=False, rng=rng)
        self.bn3 = BatchNorm3d(b)
        self.conv3 = Conv3d(b, out_channels, 1, bias=False, rng=rng, gain=BRANCH_OUTPUT_GAIN)
        if not self.identity_shortcut:
            self.proj = Conv3d(in_channels, out_channels, 1, mid_stride, bias=False, rng=rng,
                               gain=1.0)

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn1(x, conv=self.conv1)
        h = self.bn2(h, conv=self.conv2)
        h = self.bn3(h, conv=self.conv3)
        shortcut = x if self.identity_shortcut else self.proj(x)
        return ops.add(h, shortcut)


def _channel_block(channels: int, rng) -> ResidualBlock:
    return ResidualBlock(channels, max(1, channels // 4), channels, rng=rng)


class TrunkBranch(Module):
    """Two stride-1 residual blocks, then two 1x1x1 convs with BN+ReLU between."""

    def __init__(self, channels: int, *, rng: np.random.Generator):
        super().__init__()
        self.res1 = _channel_block(channels, rng)
        self.res2 = _channel_block(channels, rng)
        self.conv1 = Conv3d(channels, channels, 1, bias=False, rng=rng)
        self.bn = BatchNorm3d(channels)
        self.conv2 = Conv3d(channels, channels, 1, bias=True, rng=rng, gain=1.0)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(self.conv1(self.res2(self.res1(x))), conv=self.conv2)


def _check_mask_geometry(channels: int, depth: int, skip_count: int) -> None:
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not 0 <= skip_count <= depth:
        raise ValueError("skip_count must lie in [0, depth]")


class MaskBranch(Module):
    """U-shaped soft mask: pool/res encoder, res/upsample decoder, sigmoid head.

    The encoder applies depth repetitions of (maxpool 3/2/1 -> residual
    block); the decoder mirrors with (residual block -> trilinear upsample
    to the matching encoder shape). Skips add the encoder feature at the
    same scale right after each upsample at skip_count of the depth
    junctions, deepest first; with skip_count == depth the shallowest
    junction adds the branch input itself. The head is conv 1x1x1 -> BN ->
    ReLU -> conv 1x1x1 -> sigmoid. Every width is the branch's channels.
    """

    def __init__(self, channels: int, depth: int, skip_count: int, *, rng: np.random.Generator):
        super().__init__()
        _check_mask_geometry(channels, depth, skip_count)
        self.depth, self.skip_count = depth, skip_count
        self.encoder = ModuleList(_channel_block(channels, rng) for _ in range(depth))
        self.decoder = ModuleList(_channel_block(channels, rng) for _ in range(depth))
        self.head_conv1 = Conv3d(channels, channels, 1, bias=False, rng=rng)
        self.head_bn = BatchNorm3d(channels)
        self.head_conv2 = Conv3d(channels, channels, 1, bias=True, rng=rng, gain=1.0)

    def forward(self, x: Tensor) -> Tensor:
        depth = self.depth
        minimum = 2**depth
        for axis, extent in enumerate(x.shape[2:]):
            if extent < minimum:
                raise ValueError(
                    f"mask branch of depth {depth} needs every extent >= {minimum}; "
                    f"{ops._AXIS_NAMES[axis]} extent is {extent}"
                )
        feats = [x]
        h = x
        for block in self.encoder:
            h = ops.maxpool3d(h, 3, stride=2, padding=1)
            h = block(h)
            feats.append(h)
        for j, block in enumerate(self.decoder):
            target_scale = depth - 1 - j
            h = block(h)
            h = ops.trilinear_upsample(h, feats[target_scale].shape[2:])
            if target_scale >= depth - self.skip_count:
                h = ops.add(h, feats[target_scale])
        return ops.sigmoid(self.head_bn(self.head_conv1(h), conv=self.head_conv2))


def residual_fusion(mask: Tensor, trunk: Tensor) -> Tensor:
    """(1 + M) * T, the attention block's fusion of its two branches."""
    return ops.mul(ops.add_scalar(mask, 1.0), trunk)


class AttentionBlock(Module):
    """Trunk/mask split, residual fusion, and the stride-1 output residual block.

    All three keep the block's channels; depth and skip_count shape the mask.
    """

    def __init__(self, channels: int, depth: int, skip_count: int, *, rng: np.random.Generator):
        super().__init__()
        _check_mask_geometry(channels, depth, skip_count)
        self.trunk = TrunkBranch(channels, rng=rng)
        self.mask = MaskBranch(channels, depth, skip_count, rng=rng)
        self.out_block = _channel_block(channels, rng)

    def forward(self, x: Tensor, capture: Optional[dict] = None) -> Tensor:
        """Apply the block; capture, when given, receives the trunk/mask/fused tensors."""
        t = self.trunk(x)
        m = self.mask(x)
        fused = residual_fusion(m, t)
        if capture is not None:
            capture.update(trunk=t, mask=m, fused=fused)
        return self.out_block(fused)
