"""Full gesture-classification network assembly.

The backbone is a 3x3x3 stem conv, a batchnorm inside the stride-2 maxpool
(ops.maxpool3d's norm) and a ReLU after the pool (Res3ATN._walk); four
stride-2 bottleneck stages widening 64 -> 128 -> 256 -> 512 -> 1028, three
stride-1 stages ending at 2048 channels, global average pooling, and two FC
layers.
Attention blocks slot in after the first three stride-2 stages at sites
1/2/3 with mask depths 3/2/1 and skip counts 4/2/0 (both clamped to what
the site's extents allow). The 1028-channel widths are kept verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .blocks import AttentionBlock, ResidualBlock
from .modules import BatchNorm3d, Conv3d, Linear, Module, stamp_names
from .tensor import Tensor

STEM_CHANNELS = 64
# (in, bottleneck, out, mid_stride) per backbone stage, full-scale widths
STAGE_TABLE = (
    (64, 32, 128, 2),
    (128, 64, 256, 2),
    (256, 128, 512, 2),
    (512, 256, 1028, 2),
    (1028, 256, 1028, 1),
    (1028, 256, 1028, 1),
    (1028, 512, 2048, 1),
)
FC_HIDDEN = 512
# site -> (configured mask depth, configured skip count)
SITE_DEFAULTS = {1: (3, 4), 2: (2, 2), 3: (1, 0)}


def _halve(n: int) -> int:
    """Output extent of the k3/s2/p1 convs and pools (and the k1/s2 shortcut)."""
    return (n - 1) // 2 + 1


@dataclass(frozen=True)
class NetworkSpec:
    """Build-time description of one network variant.

    channel_scale divides every width (floor, minimum 1) for desk-scale
    runs; input_size widens the fixed 112x112 full-scale geometry to other
    even extents so reduced variants stay buildable.
    """

    num_classes: int
    input_frames: int = 32
    input_size: int = 112
    input_channels: int = 3
    attention_sites: tuple[int, ...] = (1, 2, 3)
    channel_scale: int = 1

    def __post_init__(self):
        object.__setattr__(self, "attention_sites", tuple(sorted(set(self.attention_sites))))
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.input_frames < 8 or self.input_frames % 8:
            raise ValueError(
                f"input_frames must be a positive multiple of 8, got {self.input_frames}"
            )
        if self.input_size < 16 or self.input_size % 2:
            raise ValueError(f"input_size must be an even extent >= 16, got {self.input_size}")
        if self.input_channels not in (1, 3):
            raise ValueError(f"input_channels must be 1 or 3, got {self.input_channels}")
        if not set(self.attention_sites) <= {1, 2, 3}:
            raise ValueError(f"attention_sites must be a subset of {{1,2,3}}")
        if self.channel_scale < 1:
            raise ValueError("channel_scale must be >= 1")

    def scaled(self, channels: int) -> int:
        return max(1, channels // self.channel_scale)

    def site_input_extents(self, site: int) -> tuple[int, int, int]:
        """(F, H, W) seen by the attention block at `site`: its stage's output."""
        return dict(stage_trace(self))[f"stage{site}"][2:]

    def site_spec(self, site: int) -> tuple[int, int, int]:
        """AttentionBlock's (channels, depth, skip_count) at `site`, SITE_DEFAULTS clamped to
        what the site's extents allow."""
        depth_cfg, skip_cfg = SITE_DEFAULTS[site]
        depth = min(depth_cfg, *(e.bit_length() - 1 for e in self.site_input_extents(site)))
        return self.scaled(STAGE_TABLE[site - 1][2]), depth, min(skip_cfg, depth)


def stage_trace(spec: NetworkSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Per-stage output shapes for a batch-1 input, computed analytically."""
    f, s = spec.input_frames, spec.input_size
    rows = [("input", (1, spec.input_channels, f, s, s))]
    rows.append(("stem_conv", (1, spec.scaled(STEM_CHANNELS), f, s, s)))
    f, s = _halve(f), _halve(s)
    rows.append(("stem_pool", (1, spec.scaled(STEM_CHANNELS), f, s, s)))
    for idx, (_, _, out_c, stride) in enumerate(STAGE_TABLE, start=1):
        if stride == 2:
            f, s = _halve(f), _halve(s)
        rows.append((f"stage{idx}", (1, spec.scaled(out_c), f, s, s)))
        if idx in (1, 2, 3) and idx in spec.attention_sites:
            rows.append((f"attention{idx}", (1, spec.scaled(out_c), f, s, s)))
    rows.append(("avgpool", (1, spec.scaled(2048), 1, 1, 1)))
    rows.append(("fc1", (1, spec.scaled(FC_HIDDEN))))
    rows.append(("logits", (1, spec.num_classes)))
    return rows


class Res3ATN(Module):
    """The assembled network; build with build_res3atn for a seeded init."""

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        super().__init__()
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x3A7)))
        sc = spec.scaled
        self.stem_conv = Conv3d(
            spec.input_channels, sc(STEM_CHANNELS), 3, stride=1, padding=1, bias=False, rng=rng
        )
        self.stem_bn = BatchNorm3d(sc(STEM_CHANNELS))
        for idx, (in_c, mid_c, out_c, stride) in enumerate(STAGE_TABLE, start=1):
            block = ResidualBlock(sc(in_c), sc(mid_c), sc(out_c), stride, rng=rng)
            setattr(self, f"stage{idx}", block)
            if idx in (1, 2, 3) and idx in spec.attention_sites:
                setattr(self, f"attention{idx}", AttentionBlock(*spec.site_spec(idx), rng=rng))
        self.fc1 = Linear(sc(2048), sc(FC_HIDDEN), rng=rng)
        # Small logit gain: the first steps then move the classifier toward the
        # data before full-strength gradients reach the deep layers, which keeps
        # the constant-lr recipe stable from a cold start.
        self.fc2 = Linear(sc(FC_HIDDEN), spec.num_classes, rng=rng, gain=0.1)
        stamp_names(self)

    def _check_input(self, x: Tensor) -> None:
        spec = self.spec
        expected = (spec.input_channels, spec.input_frames, spec.input_size, spec.input_size)
        if x.ndim != 5 or x.shape[1:] != expected:
            raise ValueError(
                f"input shape {x.shape} does not match the network's (N, {expected[0]}, "
                f"{expected[1]}, {expected[2]}, {expected[3]}) contract"
            )

    def _walk(self, x: Tensor, stop_after: int, masks: Optional[dict] = None) -> Tensor:
        """Stem, then stages 1..stop_after, each followed by its attention block.

        When `masks` is given, every attention block's soft mask is stored in
        it under the block's site.
        """
        self._check_input(x)
        # the stem pools before its ReLU, which gives the same output and
        # gradients (max is exact and monotone), so the ReLU runs on 1/8 of
        # the stem's cells; its batchnorm is applied inside the pool, which
        # in eval normalizes only those cells (ops.maxpool3d's norm)
        h = ops.relu(self.stem_bn(self.stem_conv(x), pool=(3, 2, 1)))
        for idx in range(1, stop_after + 1):
            h = getattr(self, f"stage{idx}")(h)
            att = getattr(self, f"attention{idx}", None)
            if att is None:
                continue
            if masks is None:
                h = att(h)
            else:
                cap: dict = {}
                h = att(h, capture=cap)
                masks[idx] = cap["mask"]
        return h

    def forward(self, x: Tensor) -> Tensor:
        h = self._walk(x, stop_after=len(STAGE_TABLE))
        h = ops.avgpool3d_adaptive(h)
        h = ops.reshape(h, (h.shape[0], h.shape[1]))
        h = ops.relu(self.fc1(h))
        return self.fc2(h)

    def attention_masks(self, x: Tensor) -> dict[int, Tensor]:
        """Soft masks at every enabled site, running only as deep as needed.

        Stops after the deepest enabled site, so a single desk-scale clip can
        be inspected even where the later stages would reduce a channel to
        one value (which train-mode batchnorm rejects).
        """
        if not self.spec.attention_sites:
            raise ValueError("network has no attention sites enabled")
        masks: dict[int, Tensor] = {}
        self._walk(x, stop_after=max(self.spec.attention_sites), masks=masks)
        return masks

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


def build_res3atn(spec: NetworkSpec, seed: int = 0) -> Res3ATN:
    """Construct a seeded network for the given variant description."""
    return Res3ATN(spec, seed=seed)
