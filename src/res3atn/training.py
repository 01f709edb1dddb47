"""Training loop, evaluation metrics, ablation harness, and mask export.

The metrics log is line-delimited JSON, one record per line with keys
epoch, split, loss, top1, top5, wall_seconds. Everything except
wall_seconds is deterministic for a fixed seed and config; timing is
informational and excluded from determinism comparisons. Checkpoints are
written every epoch: last.r3ck always, best.r3ck whenever eval top-1
strictly improves. train checks every input before it writes anything
under out_dir, and a 0-epoch run writes its eval record and checkpoints
through the same end-of-epoch step as a trained epoch. The log is written
to metrics.jsonl.tmp until the first epoch's checkpoints are saved; only
then does it replace metrics.jsonl, and a previous run's summary.txt is
removed. So a re-run into the same out_dir that aborts in its first epoch
leaves the previous run's files as they were.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .checkpoint import save_checkpoint
from .data import (ELASTIC_ALPHA, ELASTIC_SIGMA, AugmentConfig, LabeledClip, augment_clip,
                   check_crop_fits, eval_preprocess)
from .network import NetworkSpec, Res3ATN, build_res3atn, stage_trace
from .ops import softmax_cross_entropy
from .optim import MOMENTUM, WEIGHT_DECAY, NesterovSGD, check_lr
from .tensor import Tape, Tensor, backward

PAPER_GRID = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))

# rng stream tags so shuffle and augmentation draws never collide
_STREAM_SHUFFLE = 1
_STREAM_AUGMENT = 2


_OPTIMIZER = {"section": "optimizer"}
_RUN = {"section": "run"}

# keys that older run configs hold, each with the one value it now always takes
_RETIRED_KEYS = {("optimizer", "decay_bn"): True, ("augment", "elastic_sigma"): ELASTIC_SIGMA,
                 ("augment", "elastic_alpha"): ELASTIC_ALPHA,
                 ("optimizer", "momentum"): MOMENTUM, ("optimizer", "weight_decay"): WEIGHT_DECAY}

# config field type -> (test of a stored value, what it must be); a bool is no number
_VALUE_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float), "a number"),
    tuple[int, ...]: (lambda v: type(v) in (list, tuple) and all(type(i) is int for i in v),
                      "a list of integers"),
}


@dataclass(frozen=True)
class RunConfig:
    """One training run: architecture, preprocessing, optimizer, loop knobs.

    The fields are the config schema (see config_schema): network and
    augment are sections of their own, and each other field names its
    section in its metadata.
    """

    network: NetworkSpec
    augment: AugmentConfig
    lr: float = field(default=0.01, metadata=_OPTIMIZER)
    batch_size: int = field(default=6, metadata=_RUN)
    epochs: int = field(default=30, metadata=_RUN)
    seed: int = field(default=0, metadata=_RUN)

    def __post_init__(self):
        if self.augment.crop != self.network.input_size:
            raise ValueError(
                f"augment crop {self.augment.crop} must equal "
                f"network input_size {self.network.input_size}"
            )
        if self.augment.frames_out != self.network.input_frames:
            raise ValueError(
                f"augment frames_out {self.augment.frames_out} must equal "
                f"network input_frames {self.network.input_frames}"
            )
        check_lr(self.lr)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict:
        """{section: {key: value}}, the layout of the INI file and of checkpoints."""
        values = asdict(self)
        return {
            section: values[section] if section in values else {k: values[k] for k in keys}
            for section, keys in config_schema().items()
        }

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Inverse of to_dict; missing keys take the dataclass defaults.

        A missing augment crop or frames_out takes the network's input_size
        or input_frames, which it must equal. A retired key (_RETIRED_KEYS)
        is dropped when it holds its fixed value and is a ValueError otherwise.
        A section that is no dict, an unknown key, a missing key with no
        default (network.num_classes), and a value of the wrong type for its
        field (_VALUE_TYPES) are ValueErrors naming it.
        """
        schema = config_schema()
        extra = set(d) - set(schema)
        if extra:
            raise ValueError(f"unknown config sections: {sorted(extra)}")
        for name, values in d.items():
            if not isinstance(values, dict):
                raise ValueError(f"config section {name} must map keys to values, got {values!r}")
        sections = {name: dict(d.get(name, {})) for name in schema}
        for (name, key), fixed in _RETIRED_KEYS.items():
            value = sections[name].pop(key, fixed)
            if isinstance(value, bool) != isinstance(fixed, bool) or value != fixed:
                raise ValueError(f"config key {name}.{key} is retired; it may only hold "
                                 f"its fixed value {json.dumps(fixed)}, got {value!r}")
        for name, values in sections.items():
            unknown = sorted(set(values) - set(schema[name]))
            if unknown:
                raise ValueError(f"unknown config key {name}.{unknown[0]}")
            for key, value in values.items():
                accepts, kind = _VALUE_TYPES[schema[name][key]]
                if not accepts(value):
                    raise ValueError(f"config key {name}.{key} must be {kind}, got {value!r}")
        if "num_classes" not in sections["network"]:
            raise ValueError("config key network.num_classes is missing")
        network = NetworkSpec(**sections.pop("network"))
        augment = AugmentConfig(**{
            "crop": network.input_size,
            "frames_out": network.input_frames,
            **sections.pop("augment"),
        })
        flat = {key: value for values in sections.values() for key, value in values.items()}
        return RunConfig(network=network, augment=augment, **flat)


def config_schema() -> dict[str, dict[str, object]]:
    """Config section -> key -> type, read from the config dataclasses' fields."""
    hints = get_type_hints(RunConfig)
    schema: dict[str, dict[str, object]] = {}
    for f in fields(RunConfig):
        kind = hints[f.name]
        if is_dataclass(kind):
            nested = get_type_hints(kind)
            schema[f.name] = {g.name: nested[g.name] for g in fields(kind)}
        else:
            schema.setdefault(f.metadata["section"], {})[f.name] = kind
    return schema


@dataclass
class MetricsRecord:
    epoch: int
    split: str
    loss: float
    top1: float
    top5: float
    wall_seconds: float

    def content(self) -> dict:
        """Deterministic portion, i.e. everything but wall_seconds."""
        d = asdict(self)
        del d["wall_seconds"]
        return d

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(line: str) -> "MetricsRecord":
        return MetricsRecord(**json.loads(line))

    def __str__(self):
        return (
            f"epoch {self.epoch:3d} {self.split:5s} loss {self.loss:.4f} "
            f"top1 {self.top1:6.2f} top5 {self.top5:6.2f} ({self.wall_seconds:.1f}s)"
        )


def read_metrics(path) -> list[MetricsRecord]:
    lines = Path(path).read_text().splitlines()
    return [MetricsRecord.from_json(ln) for ln in lines if ln.strip()]


def _check_inputs(config: RunConfig, train_clips, eval_clips) -> None:
    """Every check train makes before it writes anything under out_dir."""
    spec = config.network
    num_classes = spec.num_classes
    for split, clips in (("train", train_clips), ("eval", eval_clips)):
        if not clips:
            raise ValueError(f"{split} split is empty")
        labels = {c.label for c in clips}
        bad = sorted(l for l in labels if l < 0 or l >= num_classes)
        if bad:
            raise ValueError(f"{split} split has labels {bad} outside 0..{num_classes - 1}")
        if split == "train" and len(labels) != num_classes:
            raise ValueError(
                f"train split covers {len(labels)} classes, network expects {num_classes}"
            )
        for clip in clips:
            if clip.shape[3] != spec.input_channels:
                raise ValueError(
                    f"clip {clip.clip_id!r} has {clip.shape[3]} channels, "
                    f"network expects {spec.input_channels}"
                )
            check_crop_fits(clip, config.augment.crop, augmented=split == "train")
    if config.epochs and len(train_clips) < config.batch_size:
        raise ValueError(
            f"train split ({len(train_clips)} clips) smaller than one batch "
            f"of {config.batch_size}"
        )
    # stage 7 holds the smallest train-mode batchnorm input, which needs 2 values
    cells = int(np.prod(dict(stage_trace(spec))["stage7"][2:]))
    if config.epochs and config.batch_size * cells < 2:
        raise ValueError(
            f"batch_size {config.batch_size} leaves stage7's train-mode batchnorm "
            f"{config.batch_size * cells} sample per channel; it needs at least 2"
        )


def _topk_hits(logits: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    # stable sort on negated logits ranks tied classes by lower index
    ranked = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    return (ranked == labels[:, None]).any(axis=1)


class _Score:
    """Running mean loss and top-1/top-k hit counts over the clips scored so far."""

    def __init__(self, num_classes: int):
        self.k = min(5, num_classes)
        self.start = time.perf_counter()
        self.loss_sum = 0.0
        self.hit1 = 0
        self.hitk = 0
        self.seen = 0

    def add(self, loss: float, logits: np.ndarray, labels: np.ndarray) -> None:
        self.loss_sum += loss * len(labels)
        self.hit1 += int(_topk_hits(logits, labels, 1).sum())
        self.hitk += int(_topk_hits(logits, labels, self.k).sum())
        self.seen += len(labels)

    def record(self, epoch: int, split: str) -> MetricsRecord:
        n = self.seen
        return MetricsRecord(
            epoch=epoch,
            split=split,
            loss=self.loss_sum / n,
            top1=100.0 * self.hit1 / n,
            top5=100.0 * self.hitk / n,
            wall_seconds=time.perf_counter() - self.start,
        )


def evaluate(
    net: Res3ATN,
    clips: list[LabeledClip],
    augment: AugmentConfig,
    batch_size: int,
    epoch: int = 0,
) -> MetricsRecord:
    """Center-window, center-crop forward pass; partial batches kept."""
    if not clips:
        raise ValueError("evaluate: eval split is empty")
    score = _Score(net.spec.num_classes)
    net.eval()
    for lo in range(0, len(clips), batch_size):
        batch = clips[lo : lo + batch_size]
        x = np.concatenate([eval_preprocess(c, augment) for c in batch])
        y = np.array([c.label for c in batch], dtype=np.int64)
        logits = net(Tensor(x))
        score.add(float(softmax_cross_entropy(logits, y).item()), logits.data, y)
    return score.record(epoch, "eval")


def _augment_rng(seed: int, epoch: int, position: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, _STREAM_AUGMENT, epoch, position))
    )


def _prime_batchnorm(net: Res3ATN, clips, config: RunConfig) -> None:
    """One train-mode forward so running stats exist before any eval."""
    net.train()
    take = clips[: max(2, min(config.batch_size, len(clips)))]
    x = np.concatenate([eval_preprocess(c, config.augment) for c in take])
    net(Tensor(x))


def _train_epoch(
    net: Res3ATN, opt: NesterovSGD, config: RunConfig, clips: list[LabeledClip], epoch: int
) -> MetricsRecord:
    """One shuffled pass over the whole batches of `clips`; returns its train record.

    Backward updates each parameter as soon as its gradient is final
    (NesterovSGD.update), so no step holds every gradient at once; opt.step()
    ends the step. Raises RuntimeError naming the epoch, batch and clip ids if the loss or
    an operator leaves the finite range.
    """
    score = _Score(config.network.num_classes)
    net.train()
    order = np.random.default_rng(
        np.random.SeedSequence((config.seed, _STREAM_SHUFFLE, epoch))
    ).permutation(len(clips))
    size = config.batch_size
    for b in range(len(clips) // size):
        positions = range(b * size, (b + 1) * size)
        batch = [clips[order[pos]] for pos in positions]
        x = Tensor(np.concatenate([
            augment_clip(clip, config.augment, _augment_rng(config.seed, epoch, pos))
            for pos, clip in zip(positions, batch)
        ]))
        y = np.array([c.label for c in batch], dtype=np.int64)
        try:
            with Tape():
                logits = net(x)
                loss = softmax_cross_entropy(logits, y)
            loss_value = float(loss.item())
            if not np.isfinite(loss_value):
                raise FloatingPointError(f"loss = {loss_value}")
            backward(loss, opt.update)
            opt.step()
        except FloatingPointError as exc:
            raise RuntimeError(
                f"training aborted at epoch {epoch} batch {b} "
                f"(clips {[c.clip_id for c in batch]}): {exc}"
            ) from exc
        score.add(loss_value, logits.data, y)
    return score.record(epoch, "train")


def train(
    config: RunConfig,
    train_clips: list[LabeledClip],
    eval_clips: list[LabeledClip],
    out_dir,
    log=None,
) -> dict:
    """Run the full loop and return a summary dict.

    Checks every input, then writes metrics.jsonl, last.r3ck, best.r3ck and
    summary.txt under out_dir. Each epoch is one _train_epoch pass and one
    end-of-epoch step: eval record, last.r3ck, and best.r3ck on a strictly
    better eval top-1. epochs=0 primes the running stats with one forward
    pass, then takes that end-of-epoch step once.
    """
    _check_inputs(config, train_clips, eval_clips)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = build_res3atn(config.network, seed=config.seed)
    opt = NesterovSGD(net.parameters(), lr=config.lr)
    config_dict = config.to_dict()
    best = None

    tmp = out_dir / "metrics.jsonl.tmp"
    try:
        with open(tmp, "w") as fh:
            def emit(rec: MetricsRecord) -> None:
                fh.write(rec.to_json() + "\n")
                fh.flush()
                if log:
                    log(str(rec))

            for epoch in range(max(config.epochs, 1)):
                if config.epochs:
                    emit(_train_epoch(net, opt, config, train_clips, epoch))
                else:
                    _prime_batchnorm(net, train_clips, config)
                final = evaluate(net, eval_clips, config.augment, config.batch_size, epoch)
                emit(final)
                save_checkpoint(out_dir / "last.r3ck", net, optimizer=opt, epoch=epoch,
                                run_config=config_dict)
                if best is None or final.top1 > best.top1:
                    best = final
                    save_checkpoint(out_dir / "best.r3ck", net, optimizer=opt,
                                    epoch=epoch, run_config=config_dict)
                if epoch == 0:  # this run's files now replace any earlier run's
                    os.replace(tmp, out_dir / "metrics.jsonl")
                    (out_dir / "summary.txt").unlink(missing_ok=True)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

    scores = {
        "parameters": net.parameter_count(),
        "epochs_run": config.epochs,
        "best_epoch": best.epoch,
        "best_eval_top1": best.top1,
        "final_eval_top1": final.top1,
        "final_eval_top5": final.top5,
        "final_eval_loss": final.loss,
    }
    lines = ["metric                value", "-" * 34]
    for key, value in scores.items():
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"{key:<20s}  {text}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    return {**scores, "last_checkpoint": str(out_dir / "last.r3ck"),
            "best_checkpoint": str(out_dir / "best.r3ck")}


# ---------------------------------------------------------------------------
# ablation harness

def _sites_tag(sites) -> str:
    return "".join(str(s) for s in sites) or "none"


def format_ablation_table(rows: list[dict]) -> str:
    header = f"{'sites':<8s} {'blocks':>6s} {'parameters':>11s} {'top1':>7s} {'top5':>7s}"
    out = [header, "-" * len(header)]
    for r in rows:
        tag = _sites_tag(r["sites"]) if r["sites"] else "(none)"
        out.append(
            f"{tag:<8s} {len(r['sites']):>6d} {r['parameters']:>11d} "
            f"{r['final_eval_top1']:>7.2f} {r['final_eval_top5']:>7.2f}"
        )
    return "\n".join(out)


def ablation_variants(base: RunConfig, sites_list) -> list[RunConfig]:
    """One copy of `base` per attention-site subset; raises ValueError on a bad grid."""
    variants = [
        replace(base, network=replace(base.network, attention_sites=tuple(sites)))
        for sites in sites_list
    ]
    if not variants:
        raise ValueError("ablation grid is empty")
    sites = [v.network.attention_sites for v in variants]
    if len(set(sites)) != len(sites):
        raise ValueError("ablation grid contains duplicate subsets")
    return variants


def ablation_run(
    base: RunConfig,
    sites_list,
    train_clips: list[LabeledClip],
    eval_clips: list[LabeledClip],
    out_dir,
    log=None,
) -> list[dict]:
    """Train one variant per attention-site subset under identical settings.

    Every variant's config is built, and its inputs checked as train checks
    them, before out_dir is made. The table goes to ablation.txt, not to
    log; the caller shows it.
    """
    variants = ablation_variants(base, sites_list)
    for cfg in variants:
        _check_inputs(cfg, train_clips, eval_clips)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for cfg in variants:
        sites = cfg.network.attention_sites
        run_dir = out_dir / f"sites_{_sites_tag(sites)}"
        if log:
            log(f"== attention sites {sites or '(none)'} ==")
        summary = train(cfg, train_clips, eval_clips, run_dir, log=log)
        rows.append(
            {
                "sites": sites,
                "parameters": summary["parameters"],
                "final_eval_top1": summary["final_eval_top1"],
                "final_eval_top5": summary["final_eval_top5"],
                "best_eval_top1": summary["best_eval_top1"],
            }
        )
    table = format_ablation_table(rows)
    (out_dir / "ablation.txt").write_text(table + "\n")
    (out_dir / "ablation.json").write_text(
        json.dumps([{**r, "sites": list(r["sites"])} for r in rows], indent=2) + "\n"
    )
    return rows


# ---------------------------------------------------------------------------
# attention-mask export

def _write_pgm(path, image: np.ndarray) -> None:
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())


def export_attention_masks(net: Res3ATN, clip: LabeledClip, out_dir) -> list[Path]:
    """Write each site's channel-averaged soft mask as one PGM per frame.

    The forward runs in eval mode, so a network whose batchnorms have no
    running statistics yet is refused (BatchNorm3d's RuntimeError) and its
    buffers never move. Each module's train/eval mode is restored afterwards.
    out_dir is created only once the masks exist.
    """
    if not net.spec.attention_sites:
        raise ValueError("network has no attention sites enabled")
    cfg = AugmentConfig(crop=net.spec.input_size, frames_out=net.spec.input_frames)
    x = Tensor(eval_preprocess(clip, cfg))
    modes = [(m, m.training) for m in net.modules()]
    net.eval()
    try:
        captured = net.attention_masks(x)
    finally:
        for m, mode in modes:
            m.training = mode
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for site in sorted(captured):
        mask = captured[site].data[0]  # (C, F, H, W)
        gray = mask.mean(axis=0)  # channel average, values in (0, 1)
        for f in range(gray.shape[0]):
            img = np.clip(np.rint(gray[f] * 255.0), 0, 255)
            path = out_dir / f"site{site}_frame{f}.pgm"
            _write_pgm(path, img)
            paths.append(path)
    return paths
