"""Training loop, metrics, ablation harness, and mask export."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import res3atn.training as training
from res3atn.data import AugmentConfig, synth_dataset, synthetic_splits
from res3atn.modules import BatchNorm3d
from res3atn.network import NetworkSpec, Res3ATN, build_res3atn
from res3atn.tensor import Tensor
from res3atn.training import (
    MetricsRecord,
    RunConfig,
    _topk_hits,
    ablation_run,
    evaluate,
    export_attention_masks,
    format_ablation_table,
    read_metrics,
    train,
)

TINY_NET = NetworkSpec(
    num_classes=4, input_frames=8, input_size=16, input_channels=1,
    attention_sites=(1,), channel_scale=64,
)
TINY_AUG = AugmentConfig(crop=16, frames_out=8)


def _tiny_config(**overrides):
    defaults = dict(network=TINY_NET, augment=TINY_AUG, epochs=2, batch_size=2, seed=0)
    defaults.update(overrides)
    return RunConfig(**defaults)


def _tiny_splits():
    return synthetic_splits(4, 2, 1, frames=8, extent=32, channels=1, seed=0)


# ---------------------------------------------------------------------------
# records and metrics


def test_metrics_record_round_trip():
    rec = MetricsRecord(epoch=3, split="train", loss=1.25, top1=50.0, top5=100.0,
                        wall_seconds=2.5)
    again = MetricsRecord.from_json(rec.to_json())
    assert again == rec
    assert rec.content() == {
        "epoch": 3, "split": "train", "loss": 1.25, "top1": 50.0, "top5": 100.0,
    }
    assert "wall_seconds" not in rec.content()


def test_topk_ties_rank_lower_class_first():
    logits = np.array([[1.0, 1.0, 0.0]], dtype=np.float32)
    assert _topk_hits(logits, np.array([0]), 1).tolist() == [True]
    assert _topk_hits(logits, np.array([1]), 1).tolist() == [False]
    assert _topk_hits(logits, np.array([1]), 2).tolist() == [True]


def test_run_config_round_trip_and_validation():
    cfg = _tiny_config()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown config sections"):
        RunConfig.from_dict({"surprise": {}})
    with pytest.raises(ValueError, match="unknown config key run.lr"):
        RunConfig.from_dict({"network": {"num_classes": 4}, "run": {"lr": 0.1}})
    with pytest.raises(ValueError, match="crop 32 must equal"):
        RunConfig(network=TINY_NET, augment=AugmentConfig(crop=32, frames_out=8))
    with pytest.raises(ValueError, match="frames_out 16 must equal"):
        RunConfig(network=TINY_NET, augment=AugmentConfig(crop=16, frames_out=16))


@pytest.mark.parametrize("key, value", [
    ("lr", -1.0), ("lr", float("nan")), ("momentum", 1.0),
    ("weight_decay", float("inf")),
])
def test_run_config_rejects_optimizer_settings_the_optimizer_rejects(key, value):
    with pytest.raises(ValueError, match=f"{key} must"):
        _tiny_config(**{key: value})


# ---------------------------------------------------------------------------
# evaluation


def _primed_net():
    net = build_res3atn(TINY_NET, seed=0)
    net.train()
    x = Tensor(np.random.default_rng(1).standard_normal(
        (2, 1, 8, 16, 16)).astype(np.float32))
    net(x)
    return net


def test_evaluate_is_idempotent():
    net = _primed_net()
    clips = _tiny_splits()[1]
    a = evaluate(net, clips, TINY_AUG, batch_size=3, epoch=4)
    b = evaluate(net, clips, TINY_AUG, batch_size=3, epoch=4)
    assert a.content() == b.content()
    assert a.split == "eval" and a.epoch == 4


def test_evaluate_topk_saturates_when_classes_fit():
    net = _primed_net()
    rec = evaluate(net, _tiny_splits()[1], TINY_AUG)
    assert rec.top5 == 100.0
    assert 0.0 <= rec.top1 <= 100.0


def test_evaluate_rejects_empty_split():
    with pytest.raises(ValueError, match="eval split is empty"):
        evaluate(_primed_net(), [], TINY_AUG)


# ---------------------------------------------------------------------------
# the training loop


def test_train_writes_artifacts_and_metrics(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    summary = train(_tiny_config(), train_clips, eval_clips, tmp_path)
    for name in ("metrics.jsonl", "last.r3ck", "best.r3ck", "summary.txt"):
        assert (tmp_path / name).exists()
    records = read_metrics(tmp_path / "metrics.jsonl")
    assert [(r.epoch, r.split) for r in records] == [
        (0, "train"), (0, "eval"), (1, "train"), (1, "eval"),
    ]
    assert summary["epochs_run"] == 2
    assert summary["parameters"] == build_res3atn(TINY_NET).parameter_count()
    assert summary["final_eval_top1"] == records[-1].top1
    assert 0 <= summary["best_epoch"] <= 1
    text = (tmp_path / "summary.txt").read_text()
    assert "best_eval_top1" in text


def test_training_is_deterministic_per_seed(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    train(_tiny_config(), train_clips, eval_clips, tmp_path / "a")
    train(_tiny_config(), train_clips, eval_clips, tmp_path / "b")
    train(_tiny_config(seed=1), train_clips, eval_clips, tmp_path / "c")
    a = [r.content() for r in read_metrics(tmp_path / "a" / "metrics.jsonl")]
    b = [r.content() for r in read_metrics(tmp_path / "b" / "metrics.jsonl")]
    c = [r.content() for r in read_metrics(tmp_path / "c" / "metrics.jsonl")]
    assert a == b
    assert a != c


def test_zero_epochs_still_checkpoints_and_evaluates(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    summary = train(_tiny_config(epochs=0), train_clips, eval_clips, tmp_path)
    records = read_metrics(tmp_path / "metrics.jsonl")
    assert [(r.epoch, r.split) for r in records] == [(0, "eval")]
    assert (tmp_path / "last.r3ck").exists() and (tmp_path / "best.r3ck").exists()
    assert summary["epochs_run"] == 0


def test_nonfinite_loss_aborts_with_location(tmp_path, monkeypatch):
    train_clips, eval_clips = _tiny_splits()

    def poisoned(logits, labels):
        return Tensor(np.array([np.inf], dtype=np.float32))

    monkeypatch.setattr(training, "softmax_cross_entropy", poisoned)
    with pytest.raises(RuntimeError, match="training aborted at epoch 0 batch 0"):
        train(_tiny_config(), train_clips, eval_clips, tmp_path)


def test_label_and_batch_validation(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    with pytest.raises(ValueError, match="train split is empty"):
        train(_tiny_config(), [], eval_clips, tmp_path)
    only_two_classes = [c for c in train_clips if c.label < 2]
    with pytest.raises(ValueError, match="covers 2 classes"):
        train(_tiny_config(), only_two_classes, eval_clips, tmp_path)
    with pytest.raises(ValueError, match="smaller than one batch"):
        train(_tiny_config(batch_size=50), train_clips, eval_clips, tmp_path)


def test_zero_epochs_accepts_a_split_smaller_than_a_batch(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    train(_tiny_config(epochs=0, batch_size=50), train_clips, eval_clips, tmp_path)
    assert [r.split for r in read_metrics(tmp_path / "metrics.jsonl")] == ["eval"]


def test_failing_rerun_keeps_the_previous_run_files(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    train(_tiny_config(epochs=1), train_clips, eval_clips, tmp_path)
    names = ("metrics.jsonl", "last.r3ck", "best.r3ck", "summary.txt")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    assert before["metrics.jsonl"].count(b"\n") == 2
    with pytest.raises(ValueError, match="smaller than one batch"):
        train(_tiny_config(epochs=1, batch_size=50), train_clips, eval_clips, tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in names} == before


def test_train_calls_its_seams_through_module_globals(tmp_path, monkeypatch):
    """The benchmark tracer and the tests patch these names on the module."""
    calls = Counter()

    def counting(name):
        original = getattr(training, name)

        def counted(*args, **kwargs):
            calls[Path(args[0]).name if name == "save_checkpoint" else name] += 1
            return original(*args, **kwargs)

        return counted

    class CountedTape(training.Tape):
        def __init__(self):
            calls["Tape"] += 1
            super().__init__()

    for name in ("augment_clip", "evaluate", "save_checkpoint", "backward"):
        monkeypatch.setattr(training, name, counting(name))
    monkeypatch.setattr(training, "Tape", CountedTape)

    train_clips, eval_clips = _tiny_splits()
    train(_tiny_config(epochs=2, batch_size=3), train_clips, eval_clips, tmp_path)
    evals = [r.top1 for r in read_metrics(tmp_path / "metrics.jsonl") if r.split == "eval"]
    best_saves = sum(top1 > max(evals[:i], default=-1.0) for i, top1 in enumerate(evals))
    # 8 train clips at batch 3: 2 whole batches (6 clips) per epoch
    assert calls == {
        "augment_clip": 2 * 6,
        "Tape": 2 * 2,
        "backward": 2 * 2,
        "evaluate": 2,
        "last.r3ck": 2,
        "best.r3ck": best_saves,
    }


# ---------------------------------------------------------------------------
# ablation harness


def test_format_ablation_table_tags_and_aligns():
    rows = [
        {"sites": (), "parameters": 1000, "final_eval_top1": 25.0,
         "final_eval_top5": 100.0},
        {"sites": (1, 3), "parameters": 2345, "final_eval_top1": 50.0,
         "final_eval_top5": 100.0},
    ]
    table = format_ablation_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["sites", "blocks", "parameters", "top1", "top5"]
    assert "(none)" in lines[2]
    assert "13" in lines[3] and "2345" in lines[3]


def test_ablation_run_trains_each_subset(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    rows = ablation_run(
        _tiny_config(epochs=1), [(), (1,)], train_clips, eval_clips, tmp_path
    )
    assert [r["sites"] for r in rows] == [(), (1,)]
    assert rows[0]["parameters"] < rows[1]["parameters"]
    assert (tmp_path / "sites_none" / "metrics.jsonl").exists()
    assert (tmp_path / "sites_1" / "metrics.jsonl").exists()
    table = (tmp_path / "ablation.txt").read_text()
    assert "(none)" in table
    loaded = json.loads((tmp_path / "ablation.json").read_text())
    assert [tuple(r["sites"]) for r in loaded] == [(), (1,)]


def test_ablation_grid_validation(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    with pytest.raises(ValueError, match="grid is empty"):
        ablation_run(_tiny_config(), [], train_clips, eval_clips, tmp_path)
    with pytest.raises(ValueError, match="duplicate subsets"):
        ablation_run(_tiny_config(), [(1,), (1,)], train_clips, eval_clips, tmp_path)
    with pytest.raises(ValueError, match="attention_sites must be a subset"):
        ablation_run(_tiny_config(), [(), (1,), (4,)], train_clips, eval_clips, tmp_path)
    assert list(tmp_path.glob("sites_*")) == []


# ---------------------------------------------------------------------------
# mask export


MASK_NET = NetworkSpec(
    num_classes=4, input_frames=16, input_size=24, input_channels=1,
    attention_sites=(1, 2, 3), channel_scale=8,
)


def test_fresh_network_mask_export(tmp_path):
    net = build_res3atn(MASK_NET, seed=0)
    clip = synth_dataset(4, 1, frames=16, extent=48, channels=1)[0]
    paths = export_attention_masks(net, clip, tmp_path)
    assert [p.name for p in paths] == [
        "site1_frame0.pgm", "site1_frame1.pgm", "site1_frame2.pgm",
        "site1_frame3.pgm", "site2_frame0.pgm", "site2_frame1.pgm",
        "site3_frame0.pgm",
    ]
    raw = (tmp_path / "site1_frame0.pgm").read_bytes()
    assert raw.startswith(b"P5\n6 6\n255\n")
    assert len(raw) == len(b"P5\n6 6\n255\n") + 36

    # mask branches start near-identity, so fresh masks sit near mid-gray
    values = np.concatenate([
        np.frombuffer(p.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        for p in paths
    ]).astype(np.float64)
    assert values.min() >= 96 and values.max() <= 160
    assert abs(values.mean() - 127.5) < 16


def _buffer_bytes(net):
    return {name: buf.tobytes() for name, buf in net.named_buffers()}


def test_fresh_mask_export_leaves_every_buffer_unchanged(tmp_path):
    net = build_res3atn(MASK_NET, seed=0)
    clip = synth_dataset(4, 1, frames=16, extent=48, channels=1)[0]
    before = _buffer_bytes(net)
    assert any(name.endswith(".steps") for name in before)
    export_attention_masks(net, clip, tmp_path)
    assert net.training  # statistics were not ready: a train-mode forward
    assert _buffer_bytes(net) == before


def test_fresh_mask_export_restores_buffers_when_the_forward_fails(tmp_path, monkeypatch):
    net = build_res3atn(MASK_NET, seed=0)
    clip = synth_dataset(4, 1, frames=16, extent=48, channels=1)[0]
    before = _buffer_bytes(net)

    def forward_then_fail(self, x, _masks=Res3ATN.attention_masks):
        _masks(self, x)
        raise RuntimeError("late failure")

    monkeypatch.setattr(Res3ATN, "attention_masks", forward_then_fail)
    with pytest.raises(RuntimeError, match="late failure"):
        export_attention_masks(net, clip, tmp_path)
    assert _buffer_bytes(net) == before


def _ready_statistics(net):
    for bn in net.modules():
        if isinstance(bn, BatchNorm3d):
            bn.steps[0] = 1
    return net


def _export_seeing_modes(net, tmp_path, monkeypatch) -> list:
    """Export masks; returns the set of module modes the forward ran under."""
    seen = []

    def recording(self, x, _masks=Res3ATN.attention_masks):
        seen.append({m.training for m in self.modules()})
        return _masks(self, x)

    monkeypatch.setattr(Res3ATN, "attention_masks", recording)
    clip = synth_dataset(4, 1, frames=16, extent=48, channels=1)[0]
    export_attention_masks(net, clip, tmp_path)
    return seen


def test_mask_export_with_ready_statistics_runs_in_eval_mode(tmp_path, monkeypatch):
    net = _ready_statistics(build_res3atn(MASK_NET, seed=0))
    before = _buffer_bytes(net)
    assert _export_seeing_modes(net, tmp_path, monkeypatch) == [{False}]
    assert _buffer_bytes(net) == before


def test_mask_export_with_ready_statistics_keeps_train_mode(tmp_path, monkeypatch):
    net = _ready_statistics(build_res3atn(MASK_NET, seed=0))
    net.stage1.eval()  # a mixed state is restored module by module
    want = [m.training for m in net.modules()]
    assert _export_seeing_modes(net, tmp_path, monkeypatch) == [{False}]
    assert [m.training for m in net.modules()] == want


def test_fresh_mask_export_keeps_eval_mode(tmp_path, monkeypatch):
    net = build_res3atn(MASK_NET, seed=0).eval()
    assert _export_seeing_modes(net, tmp_path, monkeypatch) == [{True}]
    assert not any(m.training for m in net.modules())


def test_mask_export_requires_attention_sites(tmp_path):
    spec = NetworkSpec(
        num_classes=4, input_frames=16, input_size=24, input_channels=1,
        attention_sites=(), channel_scale=8,
    )
    net = build_res3atn(spec)
    clip = synth_dataset(4, 1, frames=16, extent=48, channels=1)[0]
    with pytest.raises(ValueError, match="no attention sites"):
        export_attention_masks(net, clip, tmp_path)
