"""Binary checkpoint format with byte-exact round-trips.

Layout (all integers little-endian):

    magic   8 bytes  b"HATCKPT3"
    u32     length of the canonical config text (UTF-8)
    bytes   config text
    u32     tensor count
    per tensor:
        u16   name length, then UTF-8 name
        u8    ndim, then ndim x u32 dims
        f32   raw little-endian values, row-major
    u32     zlib.crc32 of every byte before it

Tensors are stored sorted by name, fused as `model.param_shapes` lays them
out (HATCKPT2 stored q, k, v and gate, up apart; such a file is refused by
name). Values are 32-bit floats; float64 parameter sets are rejected
(saving them would silently lose precision). Loading verifies the checksum
before it parses anything, so a flipped byte anywhere (a digit of the
config text included) or a truncated file is rejected; it then checks the
tensor names and shapes against the parameter layout the stored config
implies. Every malformed file raises CheckpointError.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from . import config as config_mod
from . import model
from .config import HatConfig

MAGIC = b"HATCKPT3"


class CheckpointError(ValueError):
    pass


def save(path, cfg: HatConfig, params: dict) -> None:
    for name, arr in params.items():
        if arr.dtype != np.float32:
            raise CheckpointError(
                f"{name} has dtype {arr.dtype}; checkpoints store float32 only")
    cfg_text = config_mod.to_text(cfg).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(cfg_text)), cfg_text,
             struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        nb = name.encode("utf-8")
        parts += [struct.pack("<H", len(nb)), nb, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape),
                  arr.astype("<f4", copy=False).tobytes()]
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def load(path) -> tuple[HatConfig, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] == b"HATCKPT2":
        raise CheckpointError("unsupported HATCKPT2 checkpoint (q, k, v and gate, up apart)")
    if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    blob, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob) != crc:
        raise CheckpointError("checkpoint checksum mismatch (truncated or corrupted)")
    off = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError("truncated checkpoint")
        out = blob[off:off + n]
        off += n
        return out

    (cfg_len,) = struct.unpack("<I", take(4))
    cfg_text = take(cfg_len)
    try:
        cfg = config_mod.from_text(cfg_text.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise CheckpointError(f"bad config header: {exc}") from None
    shapes = model.param_shapes(cfg)
    (count,) = struct.unpack("<I", take(4))
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not UTF-8") from None
        if name in params:
            raise CheckpointError(f"duplicate tensor {name}")
        if name not in shapes:
            raise CheckpointError(f"unexpected tensor {name}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if shape != shapes[name]:
            raise CheckpointError(
                f"{name} has shape {shape}, the config needs {shapes[name]}")
        arr = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        params[name] = arr.astype(np.float32, copy=True)
    if off != len(blob):
        raise CheckpointError("trailing bytes after last tensor")
    missing = sorted(shapes.keys() - params.keys())
    if missing:
        raise CheckpointError(f"missing tensors: {', '.join(missing)}")
    return cfg, params
