"""Residual bottleneck blocks and the soft-mask attention block.

An attention block splits into a trunk branch T(x) and a mask branch M(x)
whose sigmoid output gates the trunk: residual fusion computes (1 + M) * T
(the residual attention learning of Wang et al. 2017), so an all-zero mask
passes the trunk through unchanged. One stride-1 residual block closes the
attention block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .modules import BatchNorm3d, Conv3d, Module, ModuleList, set_role
from .tensor import Tensor

# Branch output convs start small so every block is near-identity at init;
# the constant-lr recipe is unstable from a cold start without this.
BRANCH_OUTPUT_GAIN = 0.1


@dataclass(frozen=True)
class ResidualBlockSpec:
    """Geometry of one pre-activation bottleneck block."""

    in_channels: int
    bottleneck_channels: int
    out_channels: int
    mid_stride: int = 1

    def __post_init__(self):
        for field_name in ("in_channels", "bottleneck_channels", "out_channels"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        if self.mid_stride < 1:
            raise ValueError("mid_stride must be >= 1")

    @property
    def identity_shortcut(self) -> bool:
        return self.in_channels == self.out_channels and self.mid_stride == 1


class ResidualBlock(Module):
    """Pre-activation bottleneck: three BN-ReLU-conv stages plus a shortcut.

    Kernels are 1x1x1, 3x3x3 (carrying mid_stride, padding 1), 1x1x1; none
    of the convs carries a bias. The shortcut is the identity when shapes
    allow, otherwise a 1x1x1 projection conv with the same stride.
    """

    def __init__(self, spec: ResidualBlockSpec, *, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        b = spec.bottleneck_channels
        self.bn1 = BatchNorm3d(spec.in_channels)
        self.conv1 = Conv3d(spec.in_channels, b, 1, bias=False, rng=rng)
        self.bn2 = BatchNorm3d(b)
        self.conv2 = Conv3d(b, b, 3, stride=spec.mid_stride, padding=1, bias=False, rng=rng)
        self.bn3 = BatchNorm3d(b)
        self.conv3 = Conv3d(
            b, spec.out_channels, 1, bias=False, rng=rng, gain=BRANCH_OUTPUT_GAIN
        )
        if not spec.identity_shortcut:
            self.proj = Conv3d(
                spec.in_channels,
                spec.out_channels,
                1,
                stride=spec.mid_stride,
                bias=False,
                rng=rng,
                gain=1.0,
            )

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv1(ops.relu(self.bn1(x)))
        h = self.conv2(ops.relu(self.bn2(h)))
        h = self.conv3(ops.relu(self.bn3(h)))
        shortcut = x if self.spec.identity_shortcut else self.proj(x)
        return ops.add(h, shortcut)


@dataclass(frozen=True)
class AttentionBlockSpec:
    """Geometry of one attention block.

    depth is the number of mask-branch downsample levels; skip_count the
    number of encoder-to-decoder additive skips, filled deepest-first and
    never exceeding depth.
    """

    channels: int
    depth: int
    skip_count: int

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not 0 <= self.skip_count <= self.depth:
            raise ValueError("skip_count must lie in [0, depth]")


def _channel_block(channels: int, rng) -> ResidualBlock:
    b = max(1, channels // 4)
    return ResidualBlock(ResidualBlockSpec(channels, b, channels), rng=rng)


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
        h = self.res2(self.res1(x))
        h = self.conv1(h)
        h = ops.relu(self.bn(h))
        return self.conv2(h)


class MaskBranch(Module):
    """U-shaped soft mask: pool/res encoder, res/upsample decoder, sigmoid head.

    The encoder applies depth repetitions of (maxpool 3/2/1 -> residual
    block); the decoder mirrors with (residual block -> trilinear upsample
    to the matching encoder shape). Skips add the encoder feature at the
    same scale right after each upsample, deepest junction first; with
    skip_count == depth the shallowest junction adds the branch input
    itself. The head is conv 1x1x1 -> BN -> ReLU -> conv 1x1x1 -> sigmoid.
    """

    def __init__(self, spec: AttentionBlockSpec, *, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        c = spec.channels
        self.encoder = ModuleList(_channel_block(c, rng) for _ in range(spec.depth))
        self.decoder = ModuleList(_channel_block(c, rng) for _ in range(spec.depth))
        self.head_conv1 = Conv3d(c, c, 1, bias=False, rng=rng)
        self.head_bn = BatchNorm3d(c)
        self.head_conv2 = Conv3d(c, c, 1, bias=True, rng=rng, gain=1.0)

    def forward(self, x: Tensor) -> Tensor:
        depth = self.spec.depth
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
            if target_scale >= depth - self.spec.skip_count:
                h = ops.add(h, feats[target_scale])
        h = self.head_conv1(h)
        h = ops.relu(self.head_bn(h))
        h = self.head_conv2(h)
        return ops.sigmoid(h)


def residual_fusion(mask: Tensor, trunk: Tensor) -> Tensor:
    """(1 + M) * T, the attention block's fusion of its two branches."""
    return ops.mul(ops.add_scalar(mask, 1.0), trunk)


class AttentionBlock(Module):
    """Trunk/mask split, residual fusion, and the stride-1 output residual block."""

    def __init__(self, spec: AttentionBlockSpec, *, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        self.trunk = TrunkBranch(spec.channels, rng=rng)
        self.mask = MaskBranch(spec, rng=rng)
        self.out_block = _channel_block(spec.channels, rng)
        set_role(self.trunk, "trunk")
        set_role(self.mask, "mask")

    def forward(self, x: Tensor, capture: Optional[dict] = None) -> Tensor:
        """Apply the block; capture, when given, receives the trunk/mask/fused tensors."""
        t = self.trunk(x)
        m = self.mask(x)
        fused = residual_fusion(m, t)
        if capture is not None:
            capture["trunk"] = t
            capture["mask"] = m
            capture["fused"] = fused
        return self.out_block(fused)
