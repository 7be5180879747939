"""Binary checkpoint format with byte-exact round-trips.

Layout (all integers little-endian):

    magic   8 bytes  b"HATCKPT1"
    u32     length of the canonical config text (UTF-8)
    bytes   config text
    u32     tensor count
    per tensor:
        u16   name length, then UTF-8 name
        u8    ndim, then ndim x u32 dims
        f32   raw little-endian values, row-major

Tensors are stored sorted by name. Values are 32-bit floats; float64
parameter sets are rejected (saving them would silently lose precision).
Loading checks the tensor names and shapes against the parameter layout
the stored config implies; every malformed file raises CheckpointError.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import config as config_mod
from . import model
from .config import HatConfig

MAGIC = b"HATCKPT1"


class CheckpointError(ValueError):
    pass


def save(path, cfg: HatConfig, params: dict) -> None:
    for name, arr in params.items():
        if arr.dtype != np.float32:
            raise CheckpointError(
                f"{name} has dtype {arr.dtype}; checkpoints store float32 only")
    cfg_text = config_mod.to_text(cfg).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(cfg_text)))
        fh.write(cfg_text)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name])
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4", copy=False).tobytes())


def load(path) -> tuple[HatConfig, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError("truncated checkpoint")
        out = blob[off:off + n]
        off += n
        return out

    if take(len(MAGIC)) != MAGIC:
        raise CheckpointError("bad checkpoint magic")
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
