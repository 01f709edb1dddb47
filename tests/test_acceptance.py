"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test carries a `criterion` marker; the terminal summary prints one
PASS/FAIL line per criterion. Runtime bounds are asserted where the
criterion states one.
"""

import time

import numpy as np
import pytest

from res3atn import ops
from res3atn.blocks import AttentionBlock, residual_fusion
from res3atn.checkpoint import load_state, restore_network, save_checkpoint
from res3atn.checksuite import OPERATOR_CHECKS, conv3d_direct, network_check, operator_suite
from res3atn.data import (
    AugmentConfig,
    eval_preprocess,
    load_clip,
    save_clip,
    synthetic_splits,
)
from res3atn.network import NetworkSpec, build_res3atn, stage_trace
from res3atn.optim import NesterovSGD
from res3atn.tensor import Tape, Tensor, backward
from res3atn.training import (
    PAPER_GRID,
    RunConfig,
    ablation_run,
    read_metrics,
    train,
)

DESK_NET = NetworkSpec(
    num_classes=4, input_frames=16, input_size=24, input_channels=1,
    channel_scale=8,
)
DESK_AUG = AugmentConfig(crop=24, frames_out=16)

TINY_NET = NetworkSpec(
    num_classes=4, input_frames=8, input_size=16, input_channels=1,
    attention_sites=(1,), channel_scale=64,
)
TINY_AUG = AugmentConfig(crop=16, frames_out=8)


@pytest.fixture(scope="module")
def synth_data():
    """The desk-scale task: 200 train / 80 eval clips, 4 classes."""
    return synthetic_splits(
        4, 50, 20, frames=16, extent=48, noise_level=0.1, channels=1, seed=0
    )


def _tiny_attention(seed=0):
    att = AttentionBlock(4, 1, 1, rng=np.random.default_rng(seed))
    att.train()
    return att


@pytest.mark.criterion("criterion 01: operator gradient suite")
def test_operator_gradient_suite():
    start = time.monotonic()
    results = operator_suite(seed=0)
    elapsed = time.monotonic() - start
    assert set(results) == set(OPERATOR_CHECKS)
    for name, reports in results.items():
        assert len(reports) >= 5, name
        for rep in reports:
            assert rep.tolerance <= 1e-3
            assert rep.passed, f"{name}: {rep}"
    assert elapsed < 120.0, f"suite took {elapsed:.0f}s"


@pytest.mark.criterion("criterion 02: convolution dual-route oracle")
def test_conv3d_oracle_agreement():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = 0.0
    for _ in range(24):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 5))
        f, h, w = (int(rng.integers(3, 7)) for _ in range(3))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, min(2, k)))  # padding must stay below the window
        x = Tensor(rng.standard_normal((n, cin, f, h, w)).astype(np.float32))
        wt = Tensor(rng.standard_normal((cout, cin, k, k, k)).astype(np.float32))
        b = Tensor(rng.standard_normal(cout).astype(np.float32)) if rng.integers(2) else None
        fast = ops.conv3d(x, wt, b, stride=stride, padding=pad)
        slow = conv3d_direct(x.data, wt.data, None if b is None else b.data,
                             stride=stride, padding=pad)
        worst = max(worst, float(np.abs(fast.data - slow).max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-5, f"routes disagree by {worst:.2e}"
    assert elapsed < 60.0, f"oracle took {elapsed:.0f}s"


@pytest.mark.criterion("criterion 03: residual fusion identity")
def test_residual_fusion_identity():
    att = _tiny_attention(1)
    rng = np.random.default_rng(2)

    t = att.trunk(Tensor(rng.standard_normal((2, 4, 2, 4, 4)).astype(np.float32)))
    zeros = Tensor(np.zeros(t.shape, dtype=np.float32))
    assert np.array_equal(residual_fusion(zeros, t).data, t.data)

    for _ in range(100):
        x = Tensor(rng.standard_normal((1, 4, 2, 4, 4)).astype(np.float32))
        m = att.mask(x).data
        assert np.all(m > 0.0) and np.all(m < 1.0)
        assert np.all(1.0 + m > 1.0) and np.all(1.0 + m < 2.0)


def _constant_mask(value, like):
    return Tensor(np.full(like.shape, value, dtype=like.dtype))


@pytest.mark.criterion("criterion 04: mask gradient law")
def test_mask_gradient_law():
    att = _tiny_attention(3)
    x = Tensor(np.random.default_rng(4).standard_normal(
        (2, 4, 2, 4, 4)).astype(np.float32))

    with Tape() as tape:
        t = att.trunk(x)
        m = _constant_mask(0.37, t)
        fused = residual_fusion(m, t)
        tape.backward(ops.sum_all(att.out_block(fused)))
    assert np.array_equal(t.grad, (1.0 + m.data) * fused.grad)

    att = _tiny_attention(3)
    with Tape() as tape:
        t = att.trunk(x)
        out = att.out_block(residual_fusion(_constant_mask(-1.0, t), t))
        tape.backward(ops.sum_all(out))
    trunk_params = att.trunk.parameters()
    assert trunk_params
    for p in trunk_params:
        assert p.grad is not None and not p.grad.any()


@pytest.mark.criterion("criterion 05: stage trace and frame variants")
def test_stage_trace_and_frame_variants():
    full = NetworkSpec(num_classes=10)
    assert stage_trace(full) == [
        ("input", (1, 3, 32, 112, 112)),
        ("stem_conv", (1, 64, 32, 112, 112)),
        ("stem_pool", (1, 64, 16, 56, 56)),
        ("stage1", (1, 128, 8, 28, 28)),
        ("attention1", (1, 128, 8, 28, 28)),
        ("stage2", (1, 256, 4, 14, 14)),
        ("attention2", (1, 256, 4, 14, 14)),
        ("stage3", (1, 512, 2, 7, 7)),
        ("attention3", (1, 512, 2, 7, 7)),
        ("stage4", (1, 1028, 1, 4, 4)),
        ("stage5", (1, 1028, 1, 4, 4)),
        ("stage6", (1, 1028, 1, 4, 4)),
        ("stage7", (1, 2048, 1, 4, 4)),
        ("avgpool", (1, 2048, 1, 1, 1)),
        ("fc1", (1, 512)),
        ("logits", (1, 10)),
    ]

    net = build_res3atn(full, seed=0)
    net.train()
    x = Tensor(np.random.default_rng(5).standard_normal(
        (1, 3, 32, 112, 112)).astype(np.float32))
    assert net(x).shape == (1, 10)

    for frames in (8, 16, 32):
        spec = NetworkSpec(num_classes=10, input_frames=frames)
        variant = build_res3atn(spec)
        assert variant.parameter_count() > 0
        assert stage_trace(spec)[0][1] == (1, 3, frames, 112, 112)
        assert stage_trace(spec)[-1][1] == (1, 10)


@pytest.mark.criterion("criterion 06: reduced-network gradient check")
def test_reduced_network_gradient_check():
    start = time.monotonic()
    report = network_check(channel_scale=16, frames=8, size=32, seed=0)
    elapsed = time.monotonic() - start
    assert report.tolerance == 2e-3
    assert report.coords_checked >= 64
    assert report.passed, str(report)
    assert elapsed < 600.0, f"check took {elapsed:.0f}s"


@pytest.mark.criterion("criterion 07: synthetic overfit run")
def test_synthetic_overfit_run(synth_data, tmp_path):
    train_clips, eval_clips = synth_data
    assert len(train_clips) == 200 and len(eval_clips) == 80
    config = RunConfig(
        network=DESK_NET, augment=DESK_AUG,
        lr=0.01, epochs=50, batch_size=6, seed=0,
    )
    start = time.monotonic()
    train(config, train_clips, eval_clips, tmp_path)
    elapsed = time.monotonic() - start
    records = read_metrics(tmp_path / "metrics.jsonl")
    train_top1 = [r.top1 for r in records if r.split == "train"]
    eval_top1 = [r.top1 for r in records if r.split == "eval"]
    assert max(train_top1) >= 95.0, f"train top1 peaked at {max(train_top1):.2f}"
    assert max(eval_top1) >= 80.0, f"eval top1 peaked at {max(eval_top1):.2f}"
    assert elapsed < 3600.0, f"run took {elapsed:.0f}s"


@pytest.mark.criterion("criterion 08: ablation grid")
def test_ablation_grid(synth_data, tmp_path):
    train_clips, eval_clips = synth_data
    base = RunConfig(
        network=DESK_NET, augment=DESK_AUG, epochs=5, batch_size=6, seed=0,
    )
    rows = ablation_run(base, PAPER_GRID, train_clips, eval_clips, tmp_path)
    assert [r["sites"] for r in rows] == [tuple(s) for s in PAPER_GRID]
    params = {r["sites"]: r["parameters"] for r in rows}
    # every added attention block strictly adds parameters
    for small in params:
        for big in params:
            if small != big and set(small) <= set(big):
                assert params[small] < params[big], (small, big)
    table = (tmp_path / "ablation.txt").read_text().splitlines()
    assert len(table) == 2 + len(PAPER_GRID)


@pytest.mark.criterion("criterion 09: determinism and persistence")
def test_determinism_and_persistence(tmp_path):
    train_clips, eval_clips = synthetic_splits(4, 2, 1, frames=8, extent=32, seed=0)
    config = RunConfig(network=TINY_NET, augment=TINY_AUG, epochs=2,
                       batch_size=2, seed=0)
    train(config, train_clips, eval_clips, tmp_path / "a")
    train(config, train_clips, eval_clips, tmp_path / "b")
    a = [r.content() for r in read_metrics(tmp_path / "a" / "metrics.jsonl")]
    b = [r.content() for r in read_metrics(tmp_path / "b" / "metrics.jsonl")]
    assert a == b

    # checkpoint round trip: restored network computes bitwise-equal logits
    net = build_res3atn(TINY_NET, seed=0)
    opt = NesterovSGD(net.parameters(), lr=0.01)
    rng = np.random.default_rng(6)
    net.train()
    for _ in range(2):
        x = Tensor(rng.standard_normal((2, 1, 8, 16, 16)).astype(np.float32))
        with Tape():
            loss = ops.softmax_cross_entropy(net(x), rng.integers(0, 4, size=2))
        backward(loss)
        opt.step()
    save_checkpoint(tmp_path / "net.r3ck", net, optimizer=opt, epoch=1)
    restored = build_res3atn(TINY_NET, seed=42)
    restore_network(restored, load_state(tmp_path / "net.r3ck"))
    probe = Tensor(rng.standard_normal((2, 1, 8, 16, 16)).astype(np.float32))
    net.eval()
    restored.eval()
    assert np.array_equal(net(probe).data, restored(probe).data)

    # clip container round trip is byte-identical
    clip = train_clips[0]
    save_clip(tmp_path / "c.r3clip", clip)
    again = load_clip(tmp_path / "c.r3clip", label=clip.label)
    save_clip(tmp_path / "c2.r3clip", again)
    assert (tmp_path / "c.r3clip").read_bytes() == (tmp_path / "c2.r3clip").read_bytes()
    assert np.array_equal(again.frames, clip.frames)


@pytest.mark.criterion("criterion 10: single-batch overfit")
def test_single_batch_overfit(synth_data):
    train_clips, _ = synth_data
    spec = NetworkSpec(
        num_classes=4, input_frames=16, input_size=24, input_channels=1,
        attention_sites=(1, 3), channel_scale=8,
    )
    net = build_res3atn(spec, seed=0)
    opt = NesterovSGD(net.parameters(), lr=0.01)
    batch = train_clips[:3] + train_clips[50:51] + train_clips[100:101] + train_clips[150:151]
    x = Tensor(np.concatenate([eval_preprocess(c, DESK_AUG) for c in batch]))
    y = np.array([c.label for c in batch], dtype=np.int64)
    assert len(set(y.tolist())) == 4

    net.train()
    final = None
    for step in range(300):
        with Tape():
            loss = ops.softmax_cross_entropy(net(x), y)
        final = float(loss.item())
        if final < 0.01:
            break
        backward(loss)
        opt.step()
    assert final is not None and final < 0.01, f"loss stuck at {final:.4f}"
