"""Binary checkpoints for network state, optimizer velocity, and run metadata.

Layout: a 10-byte header (magic R3CK, u16 version, u32 entry count), then one
entry per tensor in sorted-name order (u16 name length, utf-8 name, u8 rank,
rank u32 extents, float32 little-endian payload), then a u32 CRC-32 of every
preceding byte. Sorted names make save/load/save byte-identical. Network
entries use dotted parameter/buffer names; optimizer velocity is stored under
optim.v.<name>; metadata lives in meta.epoch and meta.run_config_json (the
config JSON's bytes widened to float32).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

_MAGIC = b"R3CK"
_VERSION = 1
_HEAD = struct.Struct("<4sHI")
_U16 = struct.Struct("<H")
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")

_META_EPOCH = "meta.epoch"
_META_CONFIG = "meta.run_config_json"
_VEL_PREFIX = "optim.v."


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file cannot be decoded."""


def save_state(path, state: dict[str, np.ndarray]) -> None:
    """Write a name -> float32 array mapping in canonical sorted order.

    The bytes go to <name>.tmp in the same directory, are fsynced, and then
    replace the target, so a crash mid-save leaves the previous file intact.
    On any failure the temp file is removed.
    """
    chunks = [_HEAD.pack(_MAGIC, _VERSION, len(state))]
    for name in sorted(state):
        arr = np.asarray(state[name], dtype=np.float32)
        if arr.ndim < 1 or arr.ndim > 255:
            raise ValueError(f"entry {name!r} has unsupported rank {arr.ndim}")
        arr = np.ascontiguousarray(arr)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"entry name too long: {name[:32]!r}...")
        chunks.append(_U16.pack(len(encoded)))
        chunks.append(encoded)
        chunks.append(_U8.pack(arr.ndim))
        for dim in arr.shape:
            chunks.append(_U32.pack(dim))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    body += _U32.pack(zlib.crc32(body) & 0xFFFFFFFF)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointFormatError(
                f"{self.path}: truncated at byte {self.pos}: "
                f"needed {n} bytes for {what}, {len(self.raw) - self.pos} left"
            )
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out


def load_state(path) -> dict[str, np.ndarray]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEAD.size + _U32.size:
        raise CheckpointFormatError(f"{path}: file too small ({len(raw)} bytes)")
    stored_crc = _U32.unpack(raw[-_U32.size :])[0]
    actual_crc = zlib.crc32(raw[: -_U32.size]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointFormatError(
            f"{path}: CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    rd = _Reader(raw[: -_U32.size], path)
    magic, version, count = _HEAD.unpack(rd.take(_HEAD.size, "header"))
    if magic != _MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    state: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = _U16.unpack(rd.take(_U16.size, f"entry {i} name length"))
        name = rd.take(name_len, f"entry {i} name").decode("utf-8")
        (rank,) = _U8.unpack(rd.take(_U8.size, f"{name} rank"))
        shape = tuple(
            _U32.unpack(rd.take(_U32.size, f"{name} extent {d}"))[0] for d in range(rank)
        )
        n_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
        payload = rd.take(4 * n_items, f"{name} payload")
        if name in state:
            raise CheckpointFormatError(f"{path}: duplicate entry {name!r}")
        state[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    if rd.pos != len(rd.raw):
        raise CheckpointFormatError(
            f"{path}: {len(rd.raw) - rd.pos} unexpected trailing bytes at byte {rd.pos}"
        )
    return state


# ---------------------------------------------------------------------------
# network / optimizer adapters

def network_state(net) -> dict[str, np.ndarray]:
    state = {name: p.data for name, p in net.named_parameters()}
    for name, buf in net.named_buffers():
        state[name] = buf
    return state


def save_checkpoint(path, net, *, optimizer=None, epoch: int = 0, run_config=None) -> None:
    state = dict(network_state(net))
    state[_META_EPOCH] = np.array([float(epoch)], dtype=np.float32)
    config_json = json.dumps(run_config, sort_keys=True) if run_config is not None else ""
    state[_META_CONFIG] = np.frombuffer(config_json.encode("utf-8"), dtype=np.uint8).astype(
        np.float32
    )
    if optimizer is not None:
        for name, v in optimizer.velocities.items():
            state[_VEL_PREFIX + name] = v
    save_state(path, state)


def checkpoint_meta(state: dict[str, np.ndarray]) -> tuple[int, dict | None]:
    epoch = int(state[_META_EPOCH][0]) if _META_EPOCH in state else 0
    config = None
    if _META_CONFIG in state and state[_META_CONFIG].size:
        text = bytes(np.rint(state[_META_CONFIG]).astype(np.uint8)).decode("utf-8")
        config = json.loads(text)
    return epoch, config


def _network_entries(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {
        k: v
        for k, v in state.items()
        if not k.startswith("meta.") and not k.startswith(_VEL_PREFIX)
    }


def restore_network(net, state: dict[str, np.ndarray]) -> None:
    """Copy checkpoint entries into the network, all-or-nothing.

    Missing, unexpected, and shape-mismatched names abort with a full
    listing before any value is written.
    """
    expected = network_state(net)
    present = _network_entries(state)
    missing = sorted(set(expected) - set(present))
    unexpected = sorted(set(present) - set(expected))
    mismatched = sorted(
        f"{k}: checkpoint {present[k].shape} vs network {expected[k].shape}"
        for k in set(expected) & set(present)
        if present[k].shape != expected[k].shape
    )
    if missing or unexpected or mismatched:
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if unexpected:
            parts.append(f"unexpected {unexpected}")
        if mismatched:
            parts.append(f"shape mismatch [{'; '.join(mismatched)}]")
        raise ValueError("checkpoint does not match network: " + "; ".join(parts))
    for name, target in expected.items():
        np.copyto(target, present[name])


def restore_optimizer(optimizer, state: dict[str, np.ndarray]) -> None:
    vels = {k[len(_VEL_PREFIX) :]: v for k, v in state.items() if k.startswith(_VEL_PREFIX)}
    if vels:
        optimizer.load_velocities(vels)
