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
import math
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

    Each entry's header and array bytes are streamed to <name>.tmp in the
    same directory, with a running CRC, so no copy of the whole state is
    made. The file is fsynced and then replaces the target, so a crash
    mid-save leaves the previous file intact. On any failure, an entry
    rejected for its rank or name included, the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0

            def write(data) -> None:
                nonlocal crc
                fh.write(data)
                crc = zlib.crc32(data, crc)

            write(_HEAD.pack(_MAGIC, _VERSION, len(state)))
            for name in sorted(state):
                arr = np.asarray(state[name], dtype="<f4")
                if arr.ndim < 1 or arr.ndim > 255:
                    raise ValueError(f"entry {name!r} has unsupported rank {arr.ndim}")
                encoded = name.encode("utf-8")
                if len(encoded) > 0xFFFF:
                    raise ValueError(f"entry name too long: {name[:32]!r}...")
                write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                                  arr.ndim, *arr.shape))
                write(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
            fh.write(_U32.pack(crc & 0xFFFFFFFF))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CRC_CHUNK = 1 << 20


class _Reader:
    """Reads a checkpoint body from an open file, naming what a short read cut."""

    def __init__(self, fh, end: int, path):
        self.fh = fh
        self.pos = 0
        self.end = end
        self.path = path

    def _advance(self, n: int, what: str) -> None:
        left = self.end - self.pos
        if n > left:
            raise CheckpointFormatError(
                f"{self.path}: truncated at byte {self.pos}: "
                f"needed {n} bytes for {what}, {left} left"
            )
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        self._advance(n, what)
        return self.fh.read(n)

    def take_array(self, shape, what: str) -> np.ndarray:
        """A little-endian float32 array of this shape, read straight into place."""
        self._advance(4 * math.prod(shape), what)
        arr = np.empty(shape, dtype="<f4")
        self.fh.readinto(arr.reshape(-1).view(np.uint8))
        return arr


def _crc_of_first(fh, size: int, path) -> int:
    """CRC-32 of the next size bytes of fh, read one chunk at a time."""
    crc, buf = 0, memoryview(bytearray(_CRC_CHUNK))
    while size:
        got = fh.readinto(buf[: min(size, _CRC_CHUNK)])
        if not got:
            raise CheckpointFormatError(f"{path}: file shrank while it was read")
        crc = zlib.crc32(buf[:got], crc)
        size -= got
    return crc & 0xFFFFFFFF


def load_state(path) -> dict[str, np.ndarray]:
    """Read a save_state file back; every format fault is a CheckpointFormatError.

    The CRC is checked first, over the file read in chunks, and each payload
    is then read straight into its array, so no copy of the file is held.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEAD.size + _U32.size:
            raise CheckpointFormatError(f"{path}: file too small ({size} bytes)")
        body = size - _U32.size
        actual_crc = _crc_of_first(fh, body, path)
        stored_crc = _U32.unpack(fh.read(_U32.size))[0]
        if stored_crc != actual_crc:
            raise CheckpointFormatError(
                f"{path}: CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )
        fh.seek(0)
        rd = _Reader(fh, body, path)
        magic, version, count = _HEAD.unpack(rd.take(_HEAD.size, "header"))
        if magic != _MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise CheckpointFormatError(f"{path}: unsupported version {version}")
        state: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = _U16.unpack(rd.take(_U16.size, f"entry {i} name length"))
            try:
                name = rd.take(name_len, f"entry {i} name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointFormatError(f"{path}: entry {i} name is not UTF-8") from None
            (rank,) = _U8.unpack(rd.take(_U8.size, f"{name} rank"))
            shape = struct.unpack(f"<{rank}I", rd.take(4 * rank, f"{name} extents"))
            if name in state:
                raise CheckpointFormatError(f"{path}: duplicate entry {name!r}")
            state[name] = rd.take_array(shape, f"{name} payload")
        if rd.pos != body:
            raise CheckpointFormatError(
                f"{path}: {body - rd.pos} unexpected trailing bytes at byte {rd.pos}"
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
    """The stored epoch and run config.

    An epoch that is not one whole number >= 0, a config value that is not
    a whole number in 0-255, or a config that is not a UTF-8 JSON object, is
    a format error.
    """
    stored = state.get(_META_EPOCH, np.zeros(1)).reshape(-1)
    epoch = float(stored[0]) if stored.size == 1 else math.nan
    if not (epoch >= 0 and epoch.is_integer()):  # NaN and infinity fail both
        raise CheckpointFormatError(f"{_META_EPOCH} must be one whole number >= 0, got {stored}")
    config = None
    if _META_CONFIG in state and state[_META_CONFIG].size:
        stored = state[_META_CONFIG]
        if not np.all((stored >= 0) & (stored <= 255) & (stored == np.rint(stored))):
            raise CheckpointFormatError(f"{_META_CONFIG} holds values that are not bytes 0-255")
        raw = bytes(stored.astype(np.uint8))
        try:
            config = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both are
            raise CheckpointFormatError(f"{_META_CONFIG} is not UTF-8 JSON: {exc}") from None
        if not isinstance(config, dict):
            raise CheckpointFormatError(f"{_META_CONFIG} is not a JSON object")
    return int(epoch), config


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
