"""Clip containers, augmentation chain, synthetic data, and the file format."""

import tracemalloc

import numpy as np
import pytest

from res3atn.data import (
    ELASTIC_ALPHA,
    ELASTIC_SIGMA,
    EVAL_STREAM,
    AugmentConfig,
    ClipFormatError,
    LabeledClip,
    augment_clip,
    center_crop,
    check_crop_fits,
    class_direction,
    elastic_displacement,
    eval_preprocess,
    load_clip,
    load_clip_dir,
    normalize,
    random_crop,
    random_scale,
    sample_frames,
    save_clip,
    save_dataset,
    scan_classes,
    synth_class_names,
    synth_dataset,
    synthetic_splits,
)
from res3atn.data import _gaussian_kernel1d


def _clip(frames=6, h=32, w=32, c=1, seed=0, label=2):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(frames, h, w, c), dtype=np.uint8)
    return LabeledClip(data, label, "probe")


# ---------------------------------------------------------------------------
# containers and configs


def test_clip_validation():
    with pytest.raises(ValueError, match="must be a \\(F, H, W, C\\) array"):
        LabeledClip(np.zeros((4, 8, 8), dtype=np.uint8), 0)
    with pytest.raises(ValueError, match="must be uint8"):
        LabeledClip(np.zeros((4, 8, 8, 1), dtype=np.float32), 0)
    with pytest.raises(ValueError, match="1 or 3 channels"):
        LabeledClip(np.zeros((4, 8, 8, 2), dtype=np.uint8), 0)
    with pytest.raises(ValueError, match="extents must be positive"):
        LabeledClip(np.zeros((0, 8, 8, 1), dtype=np.uint8), 0)


def test_augment_config_validation():
    with pytest.raises(ValueError, match="even extent >= 16"):
        AugmentConfig(crop=23)
    with pytest.raises(ValueError, match="frames_out"):
        AugmentConfig(crop=24, frames_out=0)


def test_augment_clip_warps_the_smallest_crop_by_the_fixed_elastic_field():
    # round(3 * ELASTIC_SIGMA) = 6 taps a side: 13 taps, within any crop (>= 16)
    assert _gaussian_kernel1d(ELASTIC_SIGMA).size == 13
    out = augment_clip(_clip(frames=6), AugmentConfig(crop=16, frames_out=4),
                       np.random.default_rng(0))
    rng = np.random.default_rng(0)
    clip = random_crop(random_scale(sample_frames(_clip(frames=6), 4, rng), rng, 16), 16, rng)
    want = normalize(elastic_displacement(clip, ELASTIC_SIGMA, ELASTIC_ALPHA, rng))
    assert out.shape == (1, 1, 4, 16, 16) and np.array_equal(out, want)


# ---------------------------------------------------------------------------
# augmentation steps


def test_sample_frames_takes_contiguous_window():
    clip = _clip(frames=10)
    out = sample_frames(clip, 4, np.random.default_rng(3))
    assert out.frames.shape[0] == 4
    assert not np.shares_memory(out.frames, clip.frames)
    starts = [
        np.array_equal(out.frames, clip.frames[o : o + 4]) for o in range(7)
    ]
    assert sum(starts) == 1


def test_sample_frames_offsets_cover_full_range():
    clip = _clip(frames=10)
    offsets = set()
    for seed in range(200):
        out = sample_frames(clip, 4, np.random.default_rng(seed))
        for o in range(7):
            if np.array_equal(out.frames, clip.frames[o : o + 4]):
                offsets.add(o)
    assert offsets == set(range(7))


def test_sample_frames_wraps_short_clips():
    clip = _clip(frames=3)
    out = sample_frames(clip, 8, np.random.default_rng(0))
    idx = np.arange(8) % 3
    assert np.array_equal(out.frames, clip.frames[idx])


def test_random_scale_extents_match_the_factor_set():
    clip = _clip(h=48, w=48)
    seen = set()
    for seed in range(60):
        out = random_scale(clip, np.random.default_rng(seed), 24)
        assert out.frames.shape[1] == out.frames.shape[2]
        assert (out is clip) == (out.frames.shape == clip.frames.shape)  # factor 1: no copy
        seen.add(out.frames.shape[1])
    assert seen == {48, 40, 29, 24}


def test_random_scale_rejects_sources_below_the_crop():
    clip = _clip(h=24, w=24)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sources must be at least 47x47"):
        for _ in range(60):  # keep drawing until the 0.5 factor comes up
            random_scale(clip, rng, 24)


def test_random_scale_rejects_a_clip_below_the_crop_whatever_it_draws():
    clip = _clip(h=46, w=48)  # 46 at scale 0.5 rounds to 23
    for seed in range(8):  # factor 1, which would keep 46x48, is among these draws
        with pytest.raises(ValueError, match="extent 46x48 at scale 0.5"):
            random_scale(clip, np.random.default_rng(seed), 24)


@pytest.mark.parametrize("augmented, fits, too_small", [(True, 47, 46), (False, 24, 23)])
def test_check_crop_fits_rounds_as_random_scale_does(augmented, fits, too_small):
    check_crop_fits(_clip(h=fits, w=fits), 24, augmented)
    with pytest.raises(ValueError, match="smaller than the 24 crop"):
        check_crop_fits(_clip(h=fits, w=too_small), 24, augmented)


def test_random_crop_window_and_bounds():
    clip = _clip(h=40, w=36)
    out = random_crop(clip, 24, np.random.default_rng(5))
    assert out.frames.shape == (6, 24, 24, 1)
    found = any(
        np.array_equal(out.frames, clip.frames[:, oy : oy + 24, ox : ox + 24])
        for oy in range(17)
        for ox in range(13)
    )
    assert found
    with pytest.raises(ValueError, match="smaller than the 64 crop"):
        random_crop(clip, 64, np.random.default_rng(0))


def test_center_crop_takes_the_middle_window():
    clip = _clip(h=40, w=36)
    out = center_crop(clip, 24)
    assert np.array_equal(out.frames, clip.frames[:, 8:32, 6:30])


def test_elastic_zero_alpha_is_identity():
    clip = _clip()
    out = elastic_displacement(clip, sigma=2.0, alpha=0.0, rng=np.random.default_rng(0))
    assert np.array_equal(out.frames, clip.frames)


def test_elastic_is_deterministic_and_bounded():
    clip = _clip(seed=7)
    a = elastic_displacement(clip, 2.0, 1.5, np.random.default_rng(11))
    b = elastic_displacement(clip, 2.0, 1.5, np.random.default_rng(11))
    assert np.array_equal(a.frames, b.frames)
    assert a.frames.shape == clip.frames.shape
    assert a.frames.dtype == np.uint8
    assert not np.array_equal(a.frames, clip.frames)


def test_normalize_layout_and_range():
    clip = _clip(frames=4, h=8, w=8, c=3)
    x = normalize(clip)
    assert x.shape == (1, 3, 4, 8, 8)
    assert x.dtype == np.float32
    assert x.min() >= 0.0 and x.max() <= 1.0
    np.testing.assert_allclose(
        x[0].transpose(1, 2, 3, 0), clip.frames.astype(np.float32) / 255.0
    )


def test_augment_clip_is_deterministic_per_rng_state():
    clip = _clip(frames=20, h=48, w=48)
    cfg = AugmentConfig(crop=24, frames_out=8)
    a = augment_clip(clip, cfg, np.random.default_rng(42))
    b = augment_clip(clip, cfg, np.random.default_rng(42))
    c = augment_clip(clip, cfg, np.random.default_rng(43))
    assert np.array_equal(a, b)
    assert a.shape == (1, 1, 8, 24, 24)
    assert not np.array_equal(a, c)


def test_eval_preprocess_wraps_short_clips():
    frames = np.stack([np.full((24, 24, 1), i, dtype=np.uint8) for i in range(3)])
    x = eval_preprocess(LabeledClip(frames, 0), AugmentConfig(crop=24, frames_out=8))
    np.testing.assert_allclose(
        x[0, 0].mean(axis=(1, 2)), (np.arange(8) % 3).astype(np.float32) / 255.0
    )


def test_eval_preprocess_uses_the_centered_window():
    frames = np.stack(
        [np.full((32, 32, 1), i, dtype=np.uint8) for i in range(10)]
    )
    clip = LabeledClip(frames, 0)
    cfg = AugmentConfig(crop=24, frames_out=4)
    x = eval_preprocess(clip, cfg)
    assert x.shape == (1, 1, 4, 24, 24)
    np.testing.assert_allclose(
        x[0, 0].mean(axis=(1, 2)), np.array([3, 4, 5, 6], dtype=np.float32) / 255.0
    )


# ---------------------------------------------------------------------------
# synthetic data


def _centroid(frame):
    total = frame.sum()
    ys = np.arange(frame.shape[0], dtype=np.float64)
    xs = np.arange(frame.shape[1], dtype=np.float64)
    cy = (frame.sum(axis=1) * ys).sum() / total
    cx = (frame.sum(axis=0) * xs).sum() / total
    return np.array([cy, cx])


def _oracle_label(video):
    """Class whose direction best matches the blob's centroid displacement."""
    d = _centroid(video[-1]) - _centroid(video[0])
    dirs = [class_direction(n) for n in synth_class_names(4)]
    return int(np.argmax([float(d @ v) for v in dirs]))


def test_noise_free_clips_classify_perfectly_by_centroid_drift():
    clips = synth_dataset(4, 10, frames=16, extent=48, noise_level=0.0, seed=0)
    hits = sum(
        _oracle_label(c.frames[..., 0].astype(np.float64)) == c.label for c in clips
    )
    assert hits == len(clips)


def test_augmentation_preserves_labels():
    clips = synth_dataset(4, 10, frames=16, extent=48, noise_level=0.0, seed=0)
    cfg = AugmentConfig(crop=24, frames_out=16)
    hits = 0
    for i, clip in enumerate(clips):
        x = augment_clip(clip, cfg, np.random.default_rng(1000 + i))
        hits += _oracle_label(x[0].mean(axis=0).astype(np.float64)) == clip.label
    assert hits >= 0.95 * len(clips)


def test_synth_dataset_is_deterministic():
    a = synth_dataset(4, 2, seed=3)
    b = synth_dataset(4, 2, seed=3)
    assert all(np.array_equal(x.frames, y.frames) for x, y in zip(a, b))


def _synth_oracle(num_classes, clips_per_class, frames=16, extent=48, noise_level=0.1,
                  channels=1, seed=0, stream=0):
    """The per-frame generator: (frames, label, id) of each clip synth_dataset makes."""
    yy, xx = np.meshgrid(np.arange(extent), np.arange(extent), indexing="ij")
    clips = []
    for label, name in enumerate(synth_class_names(num_classes)):
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
            clips.append((video, label, f"{name}_{i:04d}"))
    return clips


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("options", [
    dict(num_classes=4, clips_per_class=50),  # the desk train split: 16x48x48x1
    dict(num_classes=4, clips_per_class=20, stream=EVAL_STREAM),  # and its eval split
    dict(num_classes=8, clips_per_class=1, frames=40, extent=224, channels=3),  # full geometry
    dict(num_classes=4, clips_per_class=1, extent=128),  # chunks of 5 frames, then 1
    dict(num_classes=4, clips_per_class=2, frames=2),
    dict(num_classes=4, clips_per_class=2, extent=16),
    dict(num_classes=4, clips_per_class=2, noise_level=0.0),
    dict(num_classes=4, clips_per_class=2, noise_level=1.0),
    dict(num_classes=4, clips_per_class=2, extent=32, channels=3),
])
def test_synth_dataset_bytes_equal_the_per_frame_oracle(options, seed):
    got = synth_dataset(**options, seed=seed)
    want = _synth_oracle(**options, seed=seed)
    assert len(got) == len(want)
    for clip, (frames, label, clip_id) in zip(got, want):
        assert clip.frames.shape == frames.shape and clip.frames.tobytes() == frames.tobytes()
        assert clip.label == label and clip.clip_id == clip_id


def test_synth_dataset_allocates_its_clips_and_about_one_chunk():
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        clips = synth_dataset(8, 1, frames=40, extent=224, channels=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    videos = sum(clip.frames.nbytes for clip in clips)  # 6.0 MB a clip
    # one chunk of float64 scratch: a 224x224 frame's blob, its noise and its
    # three channels (2.0 MB); a clip's pixels in float64 at once would add
    # 48 MB, and its noise alone 16 MB
    assert videos < peak < videos + (4 << 20)


def test_synthetic_splits_are_disjoint():
    train, evals = synthetic_splits(4, 3, 2, frames=8, extent=32)
    assert len(train) == 12 and len(evals) == 8
    train_bytes = {c.frames.tobytes() for c in train}
    assert all(c.frames.tobytes() not in train_bytes for c in evals)


def test_synth_dataset_validation():
    with pytest.raises(ValueError, match="4 or 8 classes"):
        synth_dataset(5, 1)
    with pytest.raises(ValueError, match="clips_per_class"):
        synth_dataset(4, 0)
    with pytest.raises(ValueError, match="extent must be >= 16"):
        synth_dataset(4, 1, extent=8)
    with pytest.raises(ValueError, match="frames must be >= 2"):
        synth_dataset(4, 1, frames=1)
    with pytest.raises(ValueError, match="noise_level"):
        synth_dataset(4, 1, noise_level=1.5)
    with pytest.raises(ValueError, match="channels must be 1 or 3"):
        synth_dataset(4, 1, channels=2)


# ---------------------------------------------------------------------------
# clip files


def test_clip_file_round_trip(tmp_path):
    clip = _clip(frames=5, h=20, w=24, c=3, label=1)
    path = tmp_path / "probe.r3clip"
    save_clip(path, clip)
    loaded = load_clip(path, label=1)
    assert np.array_equal(loaded.frames, clip.frames)
    assert loaded.label == 1
    assert loaded.clip_id == "probe"

    save_clip(tmp_path / "again.r3clip", loaded)
    assert (tmp_path / "again.r3clip").read_bytes() == path.read_bytes()


def test_clip_file_default_label_is_unlabeled(tmp_path):
    path = tmp_path / "x.r3clip"
    save_clip(path, _clip())
    assert load_clip(path).label == -1


def test_clip_file_corruption_is_detected(tmp_path):
    path = tmp_path / "x.r3clip"
    save_clip(path, _clip(frames=2, h=4, w=4))
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.r3clip"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ClipFormatError, match="bad magic"):
        load_clip(bad)

    bad.write_bytes(bytes(raw[:1]))
    with pytest.raises(ClipFormatError, match="truncated header"):
        load_clip(bad)

    version_bumped = bytearray(raw)
    version_bumped[4] = 9
    bad.write_bytes(bytes(version_bumped))
    with pytest.raises(ClipFormatError, match="unsupported version"):
        load_clip(bad)

    bad.write_bytes(bytes(raw[:-3]))
    with pytest.raises(ClipFormatError, match="payload holds"):
        load_clip(bad)


def test_dataset_directory_round_trip(tmp_path):
    names = synth_class_names(4)
    clips = synth_dataset(4, 2, frames=4, extent=16)
    save_dataset(tmp_path, clips, names)
    assert scan_classes(tmp_path) == sorted(names)
    loaded = load_clip_dir(tmp_path)
    assert len(loaded) == len(clips)
    # labels follow lexicographic class order, not generation order
    by_name = {c.clip_id: c for c in loaded}
    lex = {name: i for i, name in enumerate(sorted(names))}
    for clip in clips:
        name = names[clip.label]
        match = by_name[f"{name}/{name}_{clip.clip_id.split('_')[-1]}"]
        assert match.label == lex[name]
        assert np.array_equal(match.frames, clip.frames)


def test_dataset_names_of_clips_without_id_are_deterministic(tmp_path):
    clips = [LabeledClip(c.frames, c.label) for c in synth_dataset(4, 2, frames=4, extent=16)]
    names = synth_class_names(4)
    saved = []
    for run in ("a", "b"):
        save_dataset(tmp_path / run, clips, names)
        saved.append(sorted(p.relative_to(tmp_path / run).as_posix()
                            for p in (tmp_path / run).rglob("*.r3clip")))
    assert saved[0] == saved[1]
    assert len(saved[0]) == len(clips)
    assert f"{names[clips[5].label]}/clip_5.r3clip" in saved[0]


def test_clip_dir_errors(tmp_path):
    with pytest.raises(ClipFormatError, match="not a directory"):
        scan_classes(tmp_path / "missing")
    (tmp_path / "empty").mkdir()
    with pytest.raises(ClipFormatError, match="no class directories"):
        scan_classes(tmp_path / "empty")
    (tmp_path / "tree" / "classless").mkdir(parents=True)
    with pytest.raises(ClipFormatError, match="contains no clips"):
        load_clip_dir(tmp_path / "tree")
