"""Checkpoint format: canonical bytes, corruption detection, restore contract."""

import re
import struct
import warnings
import tracemalloc
import zlib

import numpy as np
import pytest

from res3atn import checkpoint
from res3atn.checkpoint import (
    CheckpointFormatError,
    checkpoint_meta,
    load_state,
    network_state,
    restore_network,
    restore_optimizer,
    save_checkpoint,
    save_state,
)
from res3atn.network import NetworkSpec, build_res3atn
from res3atn.optim import NesterovSGD
from res3atn.tensor import Parameter, Tape, Tensor, backward
from res3atn.ops import softmax_cross_entropy

SPEC = NetworkSpec(
    num_classes=4, input_frames=8, input_size=16, input_channels=1,
    channel_scale=64,
)
LR = 0.01


def _state():
    return {
        "b.vec": np.arange(3, dtype=np.float32),
        "a.mat": np.arange(6, dtype=np.float32).reshape(2, 3),
        "c.cube": np.ones((2, 2, 2), dtype=np.float32),
    }


def _trained_net(steps=2, seed=0):
    net = build_res3atn(SPEC, seed=seed)
    opt = NesterovSGD(net.parameters(), lr=LR)
    rng = np.random.default_rng(5)
    net.train()
    for _ in range(steps):
        x = Tensor(rng.standard_normal((2, 1, 8, 16, 16)).astype(np.float32))
        y = rng.integers(0, 4, size=2)
        with Tape():
            loss = softmax_cross_entropy(net(x), y)
        backward(loss)
        opt.step()
    return net, opt


# ---------------------------------------------------------------------------
# raw state files


def test_state_round_trip(tmp_path):
    path = tmp_path / "s.r3ck"
    save_state(path, _state())
    loaded = load_state(path)
    assert sorted(loaded) == ["a.mat", "b.vec", "c.cube"]
    for name, arr in _state().items():
        np.testing.assert_array_equal(loaded[name], arr)

    again = tmp_path / "s2.r3ck"
    save_state(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_insertion_order_does_not_change_bytes(tmp_path):
    state = _state()
    reversed_state = dict(reversed(list(state.items())))
    save_state(tmp_path / "a.r3ck", state)
    save_state(tmp_path / "b.r3ck", reversed_state)
    assert (tmp_path / "a.r3ck").read_bytes() == (tmp_path / "b.r3ck").read_bytes()


class _HalfWriteFile:
    """A file whose write stores half the bytes, then fails like a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data[: len(data) // 2]))
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stage", ["write", "fsync", "replace"])
def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch, stage):
    path = tmp_path / "last.r3ck"
    save_state(path, _state())
    good = path.read_bytes()
    assert [f.name for f in tmp_path.iterdir()] == ["last.r3ck"]

    if stage == "write":
        monkeypatch.setattr(checkpoint, "open", _HalfWriteFile, raising=False)
    else:
        def fail(*args):
            raise OSError(5, f"{stage} failed")

        monkeypatch.setattr(checkpoint.os, stage, fail)
    newer = {name: arr + 1.0 for name, arr in _state().items()}
    with pytest.raises(OSError):
        save_state(path, newer)
    monkeypatch.undo()

    assert [f.name for f in tmp_path.iterdir()] == ["last.r3ck"]
    assert path.read_bytes() == good
    for name, arr in load_state(path).items():
        np.testing.assert_array_equal(arr, _state()[name])


def test_rank_zero_entries_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="unsupported rank"):
        save_state(tmp_path / "x.r3ck", {"scalar": np.float32(1.0)})


def _recrc(body_no_crc: bytes) -> bytes:
    return body_no_crc + struct.pack("<I", zlib.crc32(body_no_crc) & 0xFFFFFFFF)


def test_corruption_is_detected(tmp_path):
    path = tmp_path / "s.r3ck"
    save_state(path, _state())
    raw = path.read_bytes()
    body = raw[:-4]
    bad = tmp_path / "bad.r3ck"

    bad.write_bytes(_recrc(b"NOPE" + body[4:]))
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        load_state(bad)

    bumped = bytearray(body)
    bumped[4] = 9
    bad.write_bytes(_recrc(bytes(bumped)))
    with pytest.raises(CheckpointFormatError, match="unsupported version"):
        load_state(bad)

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointFormatError, match="CRC mismatch"):
        load_state(bad)

    bad.write_bytes(raw[:6])
    with pytest.raises(CheckpointFormatError, match="file too small"):
        load_state(bad)

    bad.write_bytes(_recrc(body[:-2]))
    with pytest.raises(CheckpointFormatError, match="truncated at byte"):
        load_state(bad)

    bad.write_bytes(_recrc(body + b"JUNK"))
    with pytest.raises(CheckpointFormatError, match="unexpected trailing bytes"):
        load_state(bad)


def test_duplicate_entries_are_rejected(tmp_path):
    path = tmp_path / "one.r3ck"
    save_state(path, {"only": np.ones(2, dtype=np.float32)})
    body = path.read_bytes()[:-4]
    head = struct.Struct("<4sHI")
    magic, version, count = head.unpack(body[: head.size])
    entry = body[head.size :]
    doubled = head.pack(magic, version, 2) + entry + entry
    bad = tmp_path / "dup.r3ck"
    bad.write_bytes(_recrc(doubled))
    with pytest.raises(CheckpointFormatError, match="duplicate entry"):
        load_state(bad)


def test_non_utf8_entry_name_is_a_format_error(tmp_path):
    path = tmp_path / "name.r3ck"
    save_state(path, {"entry": np.ones(2, dtype=np.float32)})
    path.write_bytes(_recrc(path.read_bytes()[:-4].replace(b"entry", b"\xffntry")))
    with pytest.raises(CheckpointFormatError, match="entry 0 name is not UTF-8") as err:
        load_state(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("config", [b"\xff\xfe", b'{"run": '])
def test_undecodable_run_config_is_a_format_error(config):
    state = {"meta.run_config_json": np.frombuffer(config, dtype=np.uint8).astype(np.float32)}
    with pytest.raises(CheckpointFormatError, match="meta.run_config_json is not UTF-8 JSON"):
        checkpoint_meta(state)


@pytest.mark.parametrize("config", [
    [123, 125, 256 + 32, 512 + 32],  # a uint8 cast wraps these to spaces: "{}  "
    [123, np.nan, 125],  # a uint8 cast warns on NaN
    [123, 125, -1],
    [123, 125.5],
], ids=["256-512", "nan", "negative", "fraction"])
def test_run_config_value_other_than_a_byte_is_a_format_error(config):
    state = {"meta.run_config_json": np.array(config, dtype=np.float32)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CheckpointFormatError,
                           match="meta.run_config_json holds values that are not bytes 0-255"):
            checkpoint_meta(state)


@pytest.mark.parametrize("epoch", [[np.nan], [np.inf], [-1.0], [2.5], [], [1.0, 2.0]],
                         ids=["nan", "inf", "negative", "fraction", "empty", "two-values"])
def test_epoch_other_than_one_whole_number_is_a_format_error(epoch):
    state = {"meta.epoch": np.array(epoch, dtype=np.float32)}
    with pytest.raises(CheckpointFormatError, match="meta.epoch must be one whole number >= 0"):
        checkpoint_meta(state)


@pytest.mark.parametrize("config", [b"[]", b"3", b'"run"', b"null"])
def test_run_config_other_than_a_json_object_is_a_format_error(config):
    state = {"meta.run_config_json": np.frombuffer(config, dtype=np.uint8).astype(np.float32)}
    with pytest.raises(CheckpointFormatError, match="meta.run_config_json is not a JSON object"):
        checkpoint_meta(state)


def _traced(fn):
    """fn()'s result, with traced bytes it left allocated and its peak above the start."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def _large_state():
    rng = np.random.default_rng(0)
    return {f"layer{i}.weight": rng.standard_normal((64, 1 << 14), dtype=np.float32)
            for i in range(8)}  # 32 MiB


def test_save_holds_no_copy_of_the_state(tmp_path):
    state = _large_state()
    size = sum(a.nbytes for a in state.values())
    _, _, peak = _traced(lambda: save_state(tmp_path / "large.r3ck", state))
    assert peak < size // 8  # joined entry bytes alone would be `size`


def test_load_holds_no_copy_of_the_file(tmp_path):
    state = _large_state()
    size = sum(a.nbytes for a in state.values())
    path = tmp_path / "large.r3ck"
    save_state(path, state)
    loaded, kept, peak = _traced(lambda: load_state(path))
    # the arrays it returns, and no copy of the file's bytes or of its body
    assert size <= kept and peak < size + size // 8
    assert all(loaded[k].tobytes() == a.tobytes() for k, a in state.items())


# ---------------------------------------------------------------------------
# network checkpoints


def test_checkpoint_restores_bitwise_identical_forward(tmp_path):
    net, opt = _trained_net()
    config = {"run": {"seed": 0}}
    path = tmp_path / "net.r3ck"
    save_checkpoint(path, net, optimizer=opt, epoch=7, run_config=config)

    state = load_state(path)
    epoch, meta_config = checkpoint_meta(state)
    assert epoch == 7
    assert meta_config == config

    fresh = build_res3atn(SPEC, seed=99)
    restore_network(fresh, state)
    x = Tensor(np.random.default_rng(8).standard_normal(
        (2, 1, 8, 16, 16)).astype(np.float32))
    net.eval()
    fresh.eval()
    assert np.array_equal(net(x).data, fresh(x).data)


def test_checkpoint_save_is_canonical(tmp_path):
    net, opt = _trained_net()
    save_checkpoint(tmp_path / "a.r3ck", net, optimizer=opt, epoch=1)
    save_checkpoint(tmp_path / "b.r3ck", net, optimizer=opt, epoch=1)
    assert (tmp_path / "a.r3ck").read_bytes() == (tmp_path / "b.r3ck").read_bytes()


def test_restore_reports_every_mismatch_and_changes_nothing(tmp_path):
    net, _ = _trained_net()
    state = dict(network_state(net))
    first = sorted(state)[0]
    state.pop(first)
    state["ghost.weight"] = np.zeros(3, dtype=np.float32)
    second = sorted(state)[1]
    state[second] = state[second].reshape(-1)[: state[second].size].copy().reshape(
        state[second].shape[::-1]
    ) if state[second].ndim > 1 else np.concatenate([state[second], state[second]])

    target = build_res3atn(SPEC, seed=123)
    before = {n: p.data.copy() for n, p in target.named_parameters()}
    with pytest.raises(ValueError) as err:
        restore_network(target, state)
    message = str(err.value)
    assert "missing" in message and first in message
    assert "unexpected" in message and "ghost.weight" in message
    assert "shape mismatch" in message and second in message
    for n, p in target.named_parameters():
        assert np.array_equal(p.data, before[n])


def test_restore_optimizer_velocities(tmp_path):
    net, opt = _trained_net()
    path = tmp_path / "net.r3ck"
    save_checkpoint(path, net, optimizer=opt, epoch=2)

    fresh_net = build_res3atn(SPEC, seed=0)
    fresh_opt = NesterovSGD(fresh_net.parameters(), lr=LR)
    assert all(not v.any() for v in fresh_opt.velocities.values())
    restore_optimizer(fresh_opt, load_state(path))
    for name, v in opt.velocities.items():
        np.testing.assert_array_equal(fresh_opt.velocities[name], v)
    assert any(v.any() for v in fresh_opt.velocities.values())


@pytest.mark.parametrize("velocities, message", [
    ({"optim.v.b": np.full(4, 5.0, np.float32)},
     "shape mismatch [optim.v.b: checkpoint (4,) vs optimizer (2, 2)]"),
    ({"optim.v.b": None}, "missing ['optim.v.b']"),
    ({"optim.v.c": np.full(1, 5.0, np.float32)}, "unexpected ['optim.v.c']"),
])
def test_restore_optimizer_names_the_mismatch_and_changes_no_velocity(velocities, message):
    opt = NesterovSGD([Parameter(np.ones(3, np.float32), name="a"),
                       Parameter(np.ones((2, 2), np.float32), name="b")], lr=LR)
    state = {"optim.v.a": np.full(3, 5.0, np.float32),
             "optim.v.b": np.full((2, 2), 5.0, np.float32),
             "meta.epoch": np.zeros(1, np.float32), **velocities}
    state = {k: v for k, v in state.items() if v is not None}
    match = re.escape(f"checkpoint does not match optimizer: {message}")
    with pytest.raises(ValueError, match=match):
        restore_optimizer(opt, state)
    assert all(not v.any() for v in opt.velocities.values())


def test_restored_training_continues_bitwise(tmp_path):
    # restore copies into the parameters and velocities in place, so a
    # fresh optimizer's storage, built before the restore, takes the values
    net, opt = _trained_net()
    path = tmp_path / "net.r3ck"
    save_checkpoint(path, net, optimizer=opt, epoch=2)
    fresh_net = build_res3atn(SPEC, seed=99)
    fresh_opt = NesterovSGD(fresh_net.parameters(), lr=LR)
    state = load_state(path)
    restore_network(fresh_net, state)
    restore_optimizer(fresh_opt, state)
    x = Tensor(np.random.default_rng(6).standard_normal((2, 1, 8, 16, 16)).astype(np.float32))
    for model, optimizer in ((net, opt), (fresh_net, fresh_opt)):
        with Tape():
            loss = softmax_cross_entropy(model(x), np.array([0, 3]))
        backward(loss, optimizer.update)
        optimizer.step()
    for (name, p), (_, q) in zip(net.named_parameters(), fresh_net.named_parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name
        assert opt.velocities[name].tobytes() == fresh_opt.velocities[name].tobytes(), name


def test_checkpoint_without_config_yields_none(tmp_path):
    net, _ = _trained_net(steps=1)
    path = tmp_path / "bare.r3ck"
    save_checkpoint(path, net)
    epoch, config = checkpoint_meta(load_state(path))
    assert epoch == 0
    assert config is None
