"""Clip containers, training augmentations, and the synthetic motion dataset.

A clip is 8-bit video (frames, height, width, channels). The training chain
applies, in order: frame-window sampling, isotropic random rescale from a
fixed four-value factor set, random spatial crop, elastic displacement at
the fixed ELASTIC_SIGMA and ELASTIC_ALPHA, and 0-1 normalization into a
(1, C, F, H, W) float32 tensor. Random draws use one generator per clip so
a factor, a crop offset, and a displacement field pair are shared by every
frame of that clip. Evaluation uses the centered frame window and center
crop at scale 1 with no elastic displacement.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ops import _linear_axis_coeffs

SCALE_SET = (1.0, 2.0 ** -0.25, 2.0 ** -0.75, 0.5)

# the training chain's elastic blur and scale: a 13-tap kernel, narrower than any crop
ELASTIC_SIGMA = 2.0
ELASTIC_ALPHA = 1.0

_MAGIC = b"R3CL"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIII")  # magic, version, channels, frames, height, width


class ClipFormatError(ValueError):
    """Raised when a .r3clip file cannot be decoded."""


@dataclass
class LabeledClip:
    """8-bit video frames with an integer label (-1 means unlabeled)."""

    frames: np.ndarray  # (F, H, W, C) uint8
    label: int
    clip_id: str = ""

    def __post_init__(self):
        f = self.frames
        if not isinstance(f, np.ndarray) or f.ndim != 4:
            raise ValueError("clip frames must be a (F, H, W, C) array")
        if f.dtype != np.uint8:
            raise ValueError(f"clip frames must be uint8, got {f.dtype}")
        if f.shape[3] not in (1, 3):
            raise ValueError(f"clip must have 1 or 3 channels, got {f.shape[3]}")
        if min(f.shape[:3]) < 1:
            raise ValueError(f"clip extents must be positive, got {f.shape}")

    @property
    def shape(self):
        return self.frames.shape


@dataclass
class AugmentConfig:
    """Knobs of the training chain; the rescale factors are always SCALE_SET."""

    crop: int = 112
    frames_out: int = 32

    def __post_init__(self):
        if self.crop < 16 or self.crop % 2:
            raise ValueError(f"crop must be an even extent >= 16, got {self.crop}")
        if self.frames_out < 1:
            raise ValueError("frames_out must be >= 1")


# ---------------------------------------------------------------------------
# augmentation steps


def _window(clip: LabeledClip, frames_out: int, offset: int) -> LabeledClip:
    """frames_out frames from offset on; a clip shorter than that repeats cyclically."""
    total = clip.frames.shape[0]
    if total >= frames_out:
        idx = np.arange(offset, offset + frames_out)
    else:
        idx = np.arange(frames_out) % total
    return LabeledClip(clip.frames[idx], clip.label, clip.clip_id)


def sample_frames(clip: LabeledClip, frames_out: int, rng: np.random.Generator) -> LabeledClip:
    """Take a contiguous window at a uniform random offset; short clips wrap."""
    total = clip.frames.shape[0]
    offset = int(rng.integers(0, total - frames_out + 1)) if total >= frames_out else 0
    return _window(clip, frames_out, offset)


def _resize_bilinear(frames: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Per-frame bilinear resize of (F, H, W, C) uint8 video."""
    x = frames.astype(np.float32)
    _, h, w, _ = x.shape
    i0, i1, w0, w1 = _linear_axis_coeffs(h, out_h, np.float32)
    x = x[:, i0] * w0[None, :, None, None] + x[:, i1] * w1[None, :, None, None]
    j0, j1, v0, v1 = _linear_axis_coeffs(w, out_w, np.float32)
    x = x[:, :, j0] * v0[None, None, :, None] + x[:, :, j1] * v1[None, None, :, None]
    return np.clip(np.rint(x), 0, 255).astype(np.uint8)


def _scaled(extent: int, factor: float) -> int:
    """An extent rescaled by factor, rounded to nearest (half away from zero)."""
    return int(math.floor(extent * factor + 0.5))


def _min_extent(crop: int, factor: float) -> int:
    """The smallest extent that _scaled (monotone) takes to at least crop.

    The estimate is settled on _scaled itself, so float error cannot make them disagree.
    """
    need = math.ceil((crop - 0.5) / factor)
    while _scaled(need - 1, factor) >= crop:
        need -= 1
    while _scaled(need, factor) < crop:
        need += 1
    return need


def check_crop_fits(clip: LabeledClip, crop: int, augmented: bool) -> None:
    """Raise ValueError unless every crop the clip's chain takes fits in it.

    An augmented (train) clip must hold the crop at the smallest SCALE_SET
    factor, so that any factor random_scale draws keeps it; an eval clip must
    hold it at scale 1.
    """
    factor = min(SCALE_SET) if augmented else 1.0
    _, h, w, _ = clip.frames.shape
    need = _min_extent(crop, factor)
    if h < need or w < need:
        raise ValueError(
            f"clip {clip.clip_id!r}: extent {h}x{w} at scale {factor:g} is smaller than "
            f"the {crop} crop; sources must be at least {need}x{need}"
        )


def random_scale(clip: LabeledClip, rng: np.random.Generator, crop: int) -> LabeledClip:
    """Rescale both spatial axes by one factor drawn uniformly from SCALE_SET.

    New extents round to nearest (half away from zero); a clip that the
    smallest factor would take below the crop is a configuration error
    (check_crop_fits). Factor 1 returns the clip itself.
    """
    check_crop_fits(clip, crop, augmented=True)
    factor = SCALE_SET[int(rng.integers(0, len(SCALE_SET)))]
    _, h, w, _ = clip.frames.shape
    nh, nw = _scaled(h, factor), _scaled(w, factor)
    if (nh, nw) == (h, w):
        return clip
    return LabeledClip(_resize_bilinear(clip.frames, nh, nw), clip.label, clip.clip_id)


def _crop(clip: LabeledClip, oy: int, ox: int, crop: int) -> LabeledClip:
    frames = clip.frames[:, oy : oy + crop, ox : ox + crop].copy()
    return LabeledClip(frames, clip.label, clip.clip_id)


def random_crop(clip: LabeledClip, crop: int, rng: np.random.Generator) -> LabeledClip:
    """Crop a random crop x crop window, one offset reused for every frame."""
    check_crop_fits(clip, crop, augmented=False)
    _, h, w, _ = clip.frames.shape
    oy = int(rng.integers(0, h - crop + 1))
    ox = int(rng.integers(0, w - crop + 1))
    return _crop(clip, oy, ox, crop)


def center_crop(clip: LabeledClip, crop: int) -> LabeledClip:
    check_crop_fits(clip, crop, augmented=False)
    _, h, w, _ = clip.frames.shape
    return _crop(clip, (h - crop) // 2, (w - crop) // 2, crop)


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    """The normalized elastic blur kernel, truncated at 3 sigma: 2*round(3*sigma)+1 taps."""
    radius = int(round(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return (k / k.sum()).astype(np.float32)


def _smooth2d(noise: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    rows = np.stack([np.convolve(r, kernel, mode="same") for r in noise])
    cols = np.stack([np.convolve(c, kernel, mode="same") for c in rows.T]).T
    return cols


def elastic_displacement(
    clip: LabeledClip, sigma: float, alpha: float, rng: np.random.Generator
) -> LabeledClip:
    """Warp all frames by one smoothed random displacement field pair.

    Two uniform(-1, 1) fields (row and column displacement) are blurred by
    a normalized Gaussian truncated at 3*sigma and scaled by alpha; pixels
    sample their displaced source position bilinearly with edge clamping.
    """
    f, h, w, c = clip.frames.shape
    kernel = _gaussian_kernel1d(sigma)
    dy = alpha * _smooth2d(rng.uniform(-1.0, 1.0, (h, w)), kernel)
    dx = alpha * _smooth2d(rng.uniform(-1.0, 1.0, (h, w)), kernel)
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float32), np.arange(w, dtype=np.float32), indexing="ij")
    sy = np.clip(yy + dy, 0.0, h - 1.0)
    sx = np.clip(xx + dx, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0).astype(np.float32)[None, :, :, None]
    wx = (sx - x0).astype(np.float32)[None, :, :, None]
    img = clip.frames.astype(np.float32)
    out = (
        img[:, y0, x0] * (1 - wy) * (1 - wx)
        + img[:, y0, x1] * (1 - wy) * wx
        + img[:, y1, x0] * wy * (1 - wx)
        + img[:, y1, x1] * wy * wx
    )
    frames = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return LabeledClip(frames, clip.label, clip.clip_id)


def normalize(clip: LabeledClip) -> np.ndarray:
    """Scale to [0, 1] float32 and lay out as (1, C, F, H, W)."""
    x = clip.frames.astype(np.float32) / 255.0
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2))[None]


def augment_clip(clip: LabeledClip, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Full training chain: sample, scale, crop, elastic, normalize."""
    out = sample_frames(clip, cfg.frames_out, rng)
    out = random_scale(out, rng, cfg.crop)
    out = random_crop(out, cfg.crop, rng)
    return normalize(elastic_displacement(out, ELASTIC_SIGMA, ELASTIC_ALPHA, rng))


def eval_preprocess(clip: LabeledClip, cfg: AugmentConfig) -> np.ndarray:
    """Deterministic eval chain: centered window, center crop, normalize."""
    offset = (clip.frames.shape[0] - cfg.frames_out) // 2
    return normalize(center_crop(_window(clip, cfg.frames_out, offset), cfg.crop))


# ---------------------------------------------------------------------------
# synthetic motion dataset

# synth_dataset's seed stream for the eval split; stream 0 is the train split
EVAL_STREAM = 1

_DIRECTIONS = {
    "right": (0.0, 1.0),
    "left": (0.0, -1.0),
    "up": (-1.0, 0.0),
    "down": (1.0, 0.0),
    "up_right": (-1.0, 1.0),
    "up_left": (-1.0, -1.0),
    "down_right": (1.0, 1.0),
    "down_left": (1.0, -1.0),
}


def synth_class_names(num_classes: int) -> list[str]:
    if num_classes not in (4, 8):
        raise ValueError(f"synthetic datasets support 4 or 8 classes, got {num_classes}")
    return list(_DIRECTIONS)[:num_classes]


def class_direction(name: str) -> np.ndarray:
    dy, dx = _DIRECTIONS[name]
    v = np.array([dy, dx], dtype=np.float64)
    return v / np.linalg.norm(v)


def synth_dataset(
    num_classes: int,
    clips_per_class: int,
    frames: int = 16,
    extent: int = 48,
    noise_level: float = 0.1,
    channels: int = 1,
    seed: int = 0,
    stream: int = 0,
) -> list[LabeledClip]:
    """Deterministic clips of a bright blob drifting in a class-bound direction.

    Start position, speed, blob size, and brightness jitter per clip; the
    path stays centered enough that any crop covering the image center sees
    the blob mid-clip. `stream` separates train/eval splits under one seed.
    """
    names = synth_class_names(num_classes)
    if clips_per_class < 1:
        raise ValueError("clips_per_class must be >= 1")
    if extent < 16:
        raise ValueError(f"extent must be >= 16, got {extent}")
    if frames < 2:
        raise ValueError("frames must be >= 2")
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must lie in [0, 1]")
    if channels not in (1, 3):
        raise ValueError("channels must be 1 or 3")
    yy, xx = np.meshgrid(np.arange(extent), np.arange(extent), indexing="ij")
    clips = []
    for label, name in enumerate(names):
        direction = class_direction(name)
        for i in range(clips_per_class):
            rng = np.random.default_rng(
                np.random.SeedSequence((int(seed), int(stream), label, i))
            )
            radius = extent * rng.uniform(0.07, 0.10)
            travel = extent * rng.uniform(0.28, 0.36)
            center = extent / 2.0 + rng.uniform(-extent / 16.0, extent / 16.0, size=2)
            brightness = rng.uniform(0.75, 1.0)
            gains = rng.uniform(0.7, 1.0, size=channels)
            start = center - direction * travel / 2.0
            video = np.empty((frames, extent, extent, channels), dtype=np.uint8)
            for t in range(frames):
                pos = start + direction * travel * (t / (frames - 1))
                dist2 = (yy - pos[0]) ** 2 + (xx - pos[1]) ** 2
                blob = brightness * np.exp(-dist2 / (2.0 * radius * radius))
                noise = noise_level * rng.uniform(0.0, 1.0, (extent, extent))
                frame = 255.0 * np.clip(noise[:, :, None] + blob[:, :, None] * gains, 0.0, 1.0)
                video[t] = np.rint(frame).astype(np.uint8)
            clips.append(LabeledClip(video, label, f"{name}_{i:04d}"))
    return clips


def synthetic_splits(
    num_classes: int, train_per_class: int, eval_per_class: int, **options
) -> tuple[list[LabeledClip], list[LabeledClip]]:
    """Disjoint train/eval splits from separate seed streams; options go to synth_dataset."""
    train = synth_dataset(num_classes, train_per_class, stream=0, **options)
    evals = synth_dataset(num_classes, eval_per_class, stream=EVAL_STREAM, **options)
    return train, evals


# ---------------------------------------------------------------------------
# container format

def save_clip(path, clip: LabeledClip) -> None:
    """Write one clip: R3CL header then frame-major/row-major/channel-minor bytes."""
    f, h, w, c = clip.frames.shape
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, c, f, h, w))
        fh.write(np.ascontiguousarray(clip.frames).tobytes())


def load_clip(path, label: int = -1, clip_id: str | None = None) -> LabeledClip:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ClipFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, c, f, h, w = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ClipFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ClipFormatError(f"{path}: unsupported version {version}")
    if c not in (1, 3) or min(f, h, w) < 1:
        raise ClipFormatError(f"{path}: invalid geometry c={c} f={f} h={h} w={w}")
    expected = f * h * w * c
    payload = raw[_HEADER.size :]
    if len(payload) != expected:
        raise ClipFormatError(
            f"{path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    frames = np.frombuffer(payload, dtype=np.uint8).reshape(f, h, w, c).copy()
    return LabeledClip(frames, label, clip_id if clip_id is not None else path.stem)


def scan_classes(root) -> list[str]:
    root = Path(root)
    if not root.is_dir():
        raise ClipFormatError(f"{root}: not a directory")
    names = sorted(d.name for d in root.iterdir() if d.is_dir())
    if not names:
        raise ClipFormatError(f"{root}: no class directories found")
    return names


def load_clip_dir(root) -> list[LabeledClip]:
    """Load <root>/<class>/<clip>.r3clip; labels index lexicographic class order."""
    root = Path(root)
    clips = []
    for label, name in enumerate(scan_classes(root)):
        files = sorted((root / name).glob("*.r3clip"))
        if not files:
            raise ClipFormatError(f"{root}: class directory {name!r} contains no clips")
        for fp in files:
            clips.append(load_clip(fp, label=label, clip_id=f"{name}/{fp.stem}"))
    return clips


def save_dataset(root, clips: list[LabeledClip], class_names: list[str]) -> None:
    """Write clips under <root>/<class>/<clip_id>.r3clip.

    A clip without an id is named clip_<i>, after its position i in `clips`.
    """
    root = Path(root)
    for position, clip in enumerate(clips):
        name = class_names[clip.label]
        d = root / name
        d.mkdir(parents=True, exist_ok=True)
        stem = clip.clip_id.split("/")[-1] or f"clip_{position}"
        save_clip(d / f"{stem}.r3clip", clip)
