"""Tests of the benchmark itself: output checks, failure counting, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from res3atn import ops, training  # noqa: E402
from res3atn.data import AugmentConfig  # noqa: E402
from res3atn.network import NetworkSpec  # noqa: E402
from res3atn.optim import NesterovSGD  # noqa: E402
from res3atn.tensor import Tape  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.TrainWorkload(
    name="tiny-train",
    network=NetworkSpec(num_classes=4, input_frames=8, input_size=16, input_channels=1,
                        channel_scale=64),
    augment=AugmentConfig(crop=16, frames_out=8),
    batch_size=2,
    epochs=1,
    train_per_class=2,
    eval_per_class=1,
    eval_keep=0,
    frames=8,
    extent=32,
)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("name", ["desk-train", "full-train"])
def test_output_check_rejects_perturbed_reference_loss(reference, name):
    seed, row = next(iter(reference[name]["seeds"].items()))
    seed = int(seed)
    assert workloads.check_training(name, seed, row["loss"], row["top1"], reference) == ""
    perturbed = copy.deepcopy(reference)
    spread = perturbed[name]["spread"]["loss"]
    perturbed[name]["seeds"][str(seed)]["loss"] += 2 * workloads.SEED_TOLERANCE * spread
    problem = workloads.check_training(name, seed, row["loss"], row["top1"], perturbed)
    assert "final loss" in problem
    assert workloads.check_training(name, seed, float("nan"), row["top1"], reference)


def test_output_check_holds_unrecorded_seeds_on_the_bad_side_only(reference):
    seeds = reference["desk-train"]["seeds"]
    unrecorded = max(int(s) for s in seeds) + 1000
    losses = [r["loss"] for r in seeds.values()]
    margin = workloads.BAND_MARGIN * reference["desk-train"]["spread"]["loss"]
    top1 = next(iter(seeds.values()))["top1"]
    check = workloads.check_training
    assert check("desk-train", unrecorded, min(losses) / 2, 100.0, reference) == ""
    assert check("desk-train", unrecorded, max(losses) + 1.01 * margin, top1, reference)
    assert check("desk-train", unrecorded, min(losses), -1e9, reference)


def test_raised_step_counts_as_failed(tmp_path, monkeypatch):
    inputs, _ = TINY.setup(0)
    calls = []
    step = NesterovSGD.step

    def failing_step(opt):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("injected")
        step(opt)

    monkeypatch.setattr(NesterovSGD, "step", failing_step)
    tally = workloads.Tally()
    TINY.run_unit(inputs, 0, tmp_path / "unit", tally, reference={})
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "injected" in tally.errors[0]
    assert not tally.passes


def test_traced_unit_yields_every_per_layer_metric(tmp_path):
    inputs, _ = TINY.setup(0)
    reference = {TINY.name: {"spread": {"loss": 1e9}, "seeds": {"0": {"loss": 0.0}}}}
    originals = (ops.conv3d, Tape.record, NesterovSGD.step, training.train, training.Tape)
    tracer = tracing.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        tally = workloads.run_units(TINY, inputs, 0, 0.0, tmp_path, reference)
    assert tally.failed == 0 and tally.passes
    assert not tracer.stack
    assert originals == (ops.conv3d, Tape.record, NesterovSGD.step, training.train, training.Tape)

    metrics = tracer.layer_metrics(TINY.epochs)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {"setup_s", "peak_rss_mib"} | set(TINY.metrics(tally))
    assert end_to_end == {m["name"] for m in spec["end_to_end"]}
    names = {name for name, value in metrics.items() if value}
    names |= {"tensor.tape_nodes", "tensor.tape_live_mib", "data.synth_s"}
    names |= {f"trace.overhead.{name}" for name in end_to_end}
    assert names == {m["name"] for m in spec["per_layer"]}

    steps = len(inputs[0]) // TINY.batch_size
    assert metrics["ops.softmax_cross_entropy.calls"] >= steps
    for key in ("network.stem.fwd_ms", "network.stem.bwd_ms", "network.head.fwd_ms",
                "network.attention1.mask.fwd_ms", "ops.maxpool3d.bwd_ms",
                "training.forward_ms", "training.backward_ms", "optim.step_ms",
                "data.augment_ms", "training.evaluate_ms", "checkpoint.save_ms",
                "checkpoint.mib", "ops.conv3d.gflop"):
        assert metrics[key] > 0, key
    nodes, live_mib = workloads.probe_tape(TINY, inputs, 0)
    assert nodes > 0 and live_mib > 0
