"""Training loop, metrics, ablation harness, and mask export."""

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import res3atn.training as training
from res3atn.data import AugmentConfig, LabeledClip, synth_dataset, synthetic_splits
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


# the default config as checkpoints stored it before decay_bn, elastic_sigma
# and elastic_alpha became fixed behaviour
STORED_DEFAULT_CONFIG = json.loads("""{
  "network": {"num_classes": 4, "input_frames": 32, "input_size": 112, "input_channels": 3,
              "attention_sites": [1, 2, 3], "channel_scale": 1},
  "augment": {"crop": 112, "elastic_sigma": 2.0, "elastic_alpha": 1.0, "frames_out": 32},
  "optimizer": {"lr": 0.01, "momentum": 0.9, "weight_decay": 0.001, "decay_bn": true},
  "run": {"batch_size": 6, "epochs": 30, "seed": 0}
}""")

# the default config as checkpoints stored it before momentum and weight_decay
# became fixed behaviour
STORED_LR_MOMENTUM_DECAY_CONFIG = json.loads("""{
  "network": {"num_classes": 4, "input_frames": 32, "input_size": 112, "input_channels": 3,
              "attention_sites": [1, 2, 3], "channel_scale": 1},
  "augment": {"crop": 112, "frames_out": 32},
  "optimizer": {"lr": 0.01, "momentum": 0.9, "weight_decay": 0.001},
  "run": {"batch_size": 6, "epochs": 30, "seed": 0}
}""")


@pytest.mark.parametrize("stored", [STORED_DEFAULT_CONFIG, STORED_LR_MOMENTUM_DECAY_CONFIG])
def test_a_stored_config_with_the_retired_keys_loads_as_the_default_config(stored):
    default = RunConfig(network=NetworkSpec(num_classes=4), augment=AugmentConfig())
    assert RunConfig.from_dict(stored) == default
    assert RunConfig.from_dict({"network": {"num_classes": 4},
                                "augment": {"elastic_sigma": 2}}) == default


@pytest.mark.parametrize("section, key, value", [
    ("optimizer", "decay_bn", False),
    ("optimizer", "decay_bn", 1),
    ("augment", "elastic_sigma", 2.5),
    ("augment", "elastic_alpha", 0.0),
    ("augment", "elastic_alpha", True),
    ("optimizer", "momentum", 0.0),
    ("optimizer", "momentum", 0.95),
    ("optimizer", "weight_decay", 0.0),
    ("optimizer", "weight_decay", 0.0005),
])
def test_a_retired_key_off_its_fixed_value_is_an_error(section, key, value):
    config = json.loads(json.dumps(STORED_DEFAULT_CONFIG))
    config[section][key] = value
    fixed = {"decay_bn": "true", "elastic_sigma": "2.0", "elastic_alpha": "1.0",
             "momentum": "0.9", "weight_decay": "0.001"}[key]
    with pytest.raises(ValueError, match=f"^config key {section}.{key} is retired; it may only "
                                         f"hold its fixed value {fixed}, got {value!r}$"):
        RunConfig.from_dict(config)


def test_run_config_round_trip_and_validation():
    cfg = _tiny_config()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown config sections"):
        RunConfig.from_dict({"surprise": {}})
    with pytest.raises(ValueError, match="unknown config key run.lr"):
        RunConfig.from_dict({"network": {"num_classes": 4}, "run": {"lr": 0.1}})
    with pytest.raises(ValueError, match="unknown config key network.wingspan"):
        RunConfig.from_dict({"network": {"num_classes": 4, "wingspan": 3}})
    with pytest.raises(ValueError, match="unknown config key augment.blur"):
        RunConfig.from_dict({"network": {"num_classes": 4}, "augment": {"blur": 1.0}})
    with pytest.raises(ValueError, match="crop 32 must equal"):
        RunConfig(network=TINY_NET, augment=AugmentConfig(crop=32, frames_out=8))
    with pytest.raises(ValueError, match="frames_out 16 must equal"):
        RunConfig(network=TINY_NET, augment=AugmentConfig(crop=16, frames_out=16))


@pytest.mark.parametrize("lr", [-1.0, float("nan")])
def test_run_config_rejects_an_lr_the_optimizer_rejects(lr):
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        _tiny_config(lr=lr)


@pytest.mark.parametrize("section, key, value, kind", [
    ("run", "batch_size", 2.5, "an integer"),
    ("run", "seed", True, "an integer"),
    ("run", "epochs", 1.5, "an integer"),
    ("run", "epochs", "3", "an integer"),
    ("network", "channel_scale", 64.0, "an integer"),
    ("network", "attention_sites", 1, "a list of integers"),
    ("network", "attention_sites", [1, 2.0], "a list of integers"),
    ("network", "attention_sites", [True], "a list of integers"),
    ("augment", "crop", None, "an integer"),
    ("optimizer", "lr", "x", "a number"),
    ("optimizer", "lr", False, "a number"),
])
def test_a_stored_value_of_the_wrong_type_is_an_error_naming_its_key(section, key, value, kind):
    config = json.loads(json.dumps(STORED_LR_MOMENTUM_DECAY_CONFIG))
    config[section][key] = value
    # and the key alone, as in {"optimizer": {"lr": "x"}}
    for stored in (config, {section: {key: value}}):
        with pytest.raises(ValueError, match=rf"^config key {section}\.{key} must be {kind}, "
                                             rf"got {re.escape(repr(value))}$"):
            RunConfig.from_dict(stored)


def test_stored_numbers_of_the_right_type_load():
    config = RunConfig.from_dict({"network": {"num_classes": 4, "attention_sites": (2,)},
                                  "optimizer": {"lr": 1}})
    assert config.lr == 1 and config.network.attention_sites == (2,)


@pytest.mark.parametrize("value", [5, [1], "lr", None])
def test_a_stored_section_that_is_no_dict_is_an_error_naming_it(value):
    with pytest.raises(ValueError, match=rf"^config section optimizer must map keys to values, "
                                         rf"got {re.escape(repr(value))}$"):
        RunConfig.from_dict({"optimizer": value})


def test_run_config_rejects_a_negative_seed():
    assert _tiny_config(seed=0).seed == 0
    with pytest.raises(ValueError, match="seed must be >= 0"):
        _tiny_config(seed=-1)


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
    rec = evaluate(net, _tiny_splits()[1], TINY_AUG, batch_size=6)
    assert rec.top5 == 100.0
    assert 0.0 <= rec.top1 <= 100.0


def test_evaluate_rejects_empty_split():
    with pytest.raises(ValueError, match="eval split is empty"):
        evaluate(_primed_net(), [], TINY_AUG, batch_size=6)


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


@pytest.mark.parametrize("split, extent, message", [
    ("train", 30, "'up_0000': extent 30x30 at scale 0.5 is smaller than the 16 crop"),
    ("eval", 15, "'up_0000': extent 15x15 at scale 1 is smaller than the 16 crop"),
])
def test_clips_below_the_crop_are_rejected_before_writing(tmp_path, split, extent, message):
    splits = dict(zip(("train", "eval"), _tiny_splits()))
    splits[split] = [
        LabeledClip(c.frames[:, :extent, :extent], c.label, c.clip_id) if c.label == 2 else c
        for c in splits[split]
    ]
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        train(_tiny_config(), splits["train"], splits["eval"], out)
    assert not out.exists()


def test_clips_with_other_channel_counts_are_rejected_before_writing(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    rgb = LabeledClip(np.repeat(eval_clips[0].frames, 3, axis=3), 0, "rgb")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="clip 'rgb' has 3 channels, network expects 1"):
        train(_tiny_config(), train_clips, [rgb, *eval_clips], out)
    assert not out.exists()


def test_a_batch_of_one_value_per_batchnorm_channel_is_rejected_before_writing(tmp_path):
    # stage7 is 1x1x1 at this geometry, so batch 1 leaves its batchnorm one value
    train_clips, eval_clips = _tiny_splits()
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="batch_size 1 leaves stage7's train-mode batchnorm"):
        train(_tiny_config(batch_size=1), train_clips, eval_clips, out)
    assert not out.exists()
    train(_tiny_config(batch_size=1, epochs=0), train_clips, eval_clips, out)


def test_paper_geometry_accepts_batch_one():
    # stage7 is 1x4x4 there: 16 values per batchnorm channel from one clip
    clips = [LabeledClip(np.zeros((32, 224, 224, 3), np.uint8), label) for label in (0, 1)]
    config = RunConfig(network=NetworkSpec(num_classes=2), augment=AugmentConfig(),
                       batch_size=1, epochs=1)
    training._check_inputs(config, clips, clips)


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


def test_rerun_aborting_in_its_first_epoch_keeps_the_previous_run_files(tmp_path):
    train_clips, eval_clips = _tiny_splits()
    train(_tiny_config(epochs=1), train_clips, eval_clips, tmp_path)
    names = ("metrics.jsonl", "last.r3ck", "best.r3ck", "summary.txt")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    with np.errstate(over="ignore"), pytest.raises(RuntimeError,
                                                  match="training aborted at epoch 0 batch 1"):
        train(_tiny_config(epochs=2, lr=1e30, seed=1), train_clips, eval_clips, tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in names} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_rerun_aborting_after_its_first_epoch_leaves_its_own_files(tmp_path, monkeypatch):
    train_clips, eval_clips = _tiny_splits()
    train(_tiny_config(epochs=1), train_clips, eval_clips, tmp_path)
    evaluate = training.evaluate

    def failing_second(net, clips, augment, batch_size, epoch):
        if epoch == 1:
            raise RuntimeError("stopped in epoch 1")
        return evaluate(net, clips, augment, batch_size, epoch)

    monkeypatch.setattr(training, "evaluate", failing_second)
    with pytest.raises(RuntimeError, match="stopped in epoch 1"):
        train(_tiny_config(epochs=2, seed=1), train_clips, eval_clips, tmp_path)
    records = read_metrics(tmp_path / "metrics.jsonl")
    assert [(r.epoch, r.split) for r in records] == [(0, "train"), (0, "eval"), (1, "train")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.r3ck", "last.r3ck",
                                                           "metrics.jsonl"]


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


def _ready_statistics(net):
    for bn in net.modules():
        if isinstance(bn, BatchNorm3d):
            bn.steps[0] = 1
    return net


def test_fresh_network_mask_export(tmp_path):
    net = _ready_statistics(build_res3atn(MASK_NET, seed=0))
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


def test_mask_export_refuses_a_network_without_statistics(tmp_path):
    net = build_res3atn(MASK_NET, seed=0)
    clip = synth_dataset(4, 1, frames=16, extent=48, channels=1)[0]
    before = _buffer_bytes(net)
    assert any(name.endswith(".steps") for name in before)
    with pytest.raises(RuntimeError, match="before any running-stat update"):
        export_attention_masks(net, clip, tmp_path / "masks")
    assert _buffer_bytes(net) == before
    assert all(m.training for m in net.modules())  # the failed export restored train mode
    assert not (tmp_path / "masks").exists()


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


def test_mask_export_requires_attention_sites(tmp_path):
    spec = NetworkSpec(
        num_classes=4, input_frames=16, input_size=24, input_channels=1,
        attention_sites=(), channel_scale=8,
    )
    net = build_res3atn(spec)
    clip = synth_dataset(4, 1, frames=16, extent=48, channels=1)[0]
    with pytest.raises(ValueError, match="no attention sites"):
        export_attention_masks(net, clip, tmp_path)
