"""Dense numeric kernels: matmul, normalization, rotary embedding, softmax,
and the single-query grouped-KV attention read.

These are the one implementation of each piece of math: the autodiff
primitives, taped or not (the incremental step's layer), take their values
from them, and the step's cache reads call `attend`. `capped_logits` and
`softmax` (which shifts a row by its max unless `shift_free`) work in place on
the logits they are given; the rest are pure functions, and all are
deterministic for a given input dtype (float32 or float64; outputs follow inputs).
Setting the environment variable HATLM_DEBUG_FINITE=1 (or the module flag)
makes every kernel, and every autodiff value and gradient, pass `check_finite`.

`matmul`, `swiglu_ffn`, `rms_norm`, `rotate` and `attend` are
batch-invariant: a row's result has the same bits whatever other rows are
computed beside it (every product is gemm rows; a one-row input is padded).
Batched generation relies on this to match a solo run exactly (see :mod:`hatlm.infer`).
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

DEBUG_FINITE = os.environ.get("HATLM_DEBUG_FINITE", "") not in ("", "0")


class ShapeError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """An impossible-by-construction condition was reached (e.g. a query with
    no visible keys)."""


def check_finite(x: np.ndarray, what: str = "value") -> np.ndarray:
    """x, which must be finite under DEBUG_FINITE; `what` names it (a value
    or a gradient) in the error."""
    if DEBUG_FINITE and not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite {what} of shape {np.shape(x)}")
    return x


def matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`x @ w` as gemm rows, over any leading axes; a 1-D x is one row.

    BLAS runs one row as a gemv, which sums in another order than a gemm. A
    gemm row has the same bits in a product of any two or more rows, so a
    one-row input runs as two (the row twice) and the pad row is dropped."""
    if w.ndim < 2 or x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"matmul inner dims {x.shape} x {w.shape}")
    if x.ndim == 1:
        return matmul(x[None], w)[..., 0, :]
    if x.shape[-2] == 1:
        return check_finite((x.repeat(2, -2) @ w)[..., :1, :])
    return check_finite(x @ w)


def rms(x: np.ndarray, eps: float) -> np.ndarray:
    """sqrt(mean(x^2) + eps) over the last axis, kept: `rms_norm`'s denominator."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return np.sqrt(np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1] + eps)


def rms_norm(x: np.ndarray, eps: float = 1e-5,
             gain: np.ndarray | None = None) -> np.ndarray:
    """x / rms(x) over the last axis, optionally gain-scaled."""
    y = x / rms(x, eps)
    if gain is not None:
        if gain.shape != x.shape[-1:]:
            raise ShapeError(f"gain {gain.shape} does not match {x.shape}")
        y = y * gain
    return check_finite(y)


def silu_denominator(x: np.ndarray) -> np.ndarray:
    """1 + exp(-x) in a new array: `silu`'s denominator, whose reciprocal is
    the sigmoid."""
    e = np.negative(x)
    np.exp(e, out=e)
    e += 1.0
    return e


def silu(x: np.ndarray) -> np.ndarray:
    """x / (1 + exp(-x)), holding one array beside x."""
    e = silu_denominator(x)
    return np.divide(x, e, out=e)


def swiglu_ffn(x: np.ndarray, w_gate_up: np.ndarray, w_down: np.ndarray) -> np.ndarray:
    """w_down applied to silu(x w_gate) * (x w_up). w_gate_up is w_gate|w_up,
    [hidden, 2 intermediate], read in one `matmul` as a stack of its two column
    blocks, so gate and up come out contiguous (strided halves cost ~1.5x)."""
    gate, up = matmul(x, w_gate_up.reshape(len(w_gate_up), 2, -1).swapaxes(0, 1))
    h = silu(gate)
    h *= up
    return matmul(h, w_down)


def rope_angles(positions: np.ndarray, d: int, base: float,
                dtype) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the rotary angles at `positions`, each (T, d/2), at
    frequencies base**(-2i/d)."""
    positions = np.asarray(positions, dtype=dtype)
    inv = base ** (-np.arange(0, d, 2, dtype=dtype) / d)
    ang = positions[:, None] * inv[None, :]
    return np.cos(ang), np.sin(ang)


@functools.cache
def rope_table(d: int, base: float, n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rows C[p] = cos_p|cos_p and S[p] = -sin_p|sin_p (`rope_angles` at p) of
    positions 0..n-1, each [n, d]; shared and read-only, built on first use."""
    if d % 2:
        raise ShapeError(f"rope head dim must be even, got {d}")
    cos, sin = rope_angles(np.arange(n), d, base, dtype)
    c, s = np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)
    c.flags.writeable = s.flags.writeable = False
    return c, s


def rotate(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rotate the pairs (x[..., i], x[..., i + d/2]) by `rope_table` rows that broadcast
    against x: x·C + swap_halves(x)·S, the bits of (x1 cos - x2 sin | x1 sin + x2 cos)."""
    half = x.shape[-1] // 2
    y = np.concatenate([x[..., half:], x[..., :half]], axis=-1)
    y *= s
    y += x * c
    return check_finite(y)


def softcap(logits: np.ndarray, cap: float) -> np.ndarray:
    """Saturate logits smoothly at +-cap: cap * tanh(logits / cap)."""
    return cap * np.tanh(logits / cap)


def capped_logits(z: np.ndarray, scale: float, cap: float | None) -> np.ndarray:
    """Attention logits in place: z * scale, or with a cap cap * tanh(z *
    (scale / cap)), the 1/sqrt(hs) scale and the 1/cap divide in one multiply."""
    z *= scale if cap is None else scale / cap
    if cap is not None:
        np.multiply(np.tanh(z, out=z), cap, out=z)
    return z


def shift_free(x: np.ndarray, cap: float | None) -> bool:
    """Whether `softmax` may skip the row-max shift of x, logits within +-cap
    or -inf: in x's dtype every exp is then normal and a row's sum finite."""
    if cap is None:
        return False
    f = np.finfo(x.dtype)
    return cap + math.log(x.shape[-1]) < math.log(f.max) and cap < -math.log(f.tiny)


def softmax(x: np.ndarray, cap: float | None = None):
    """Softmax over the last axis, in place: x becomes the probabilities.
    Logits within +-cap are exponentiated as they are where `shift_free`;
    else x is first shifted by its row max. A hidden key is a -inf logit."""
    if not shift_free(x, cap):
        x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, cap: float | None,
           valid: np.ndarray | None = None) -> np.ndarray:
    """Scaled dot-product read of one query position per batch row.

    q is [..., n_heads, hs]; k and v are [..., n, n_kv_heads, hs] with
    n_kv_heads dividing n_heads; the leading axes (none, or a batch axis)
    are the same for all three. Query heads are grouped per KV head by
    reshaping, so the keys are never repeated. Logits are scaled by
    1/sqrt(hs) and, when `cap` is set, softcapped (`capped_logits`, as the
    tape's reads), then go through `softmax`.
    `valid` ([..., n]) masks keys out with exactly zero weight. Returns
    [..., n_heads*hs].

    Both products are one BLAS call per (row, KV head) of the same shape
    whatever the batch size, and the softmax reduces along the key axis
    only, so a row's result does not depend on the other rows.
    """
    *lead, n_heads, hs = q.shape
    n_kv = k.shape[-2]
    qg = q.reshape(*lead, n_kv, n_heads // n_kv, hs)
    logits = capped_logits(qg @ k.swapaxes(-3, -2).swapaxes(-2, -1),     # [..., kv, g, n]
                           1.0 / math.sqrt(hs), cap)
    if valid is not None:   # -inf where hidden
        if not valid.any(axis=-1).all():
            raise InternalInvariantError("attention row with empty visible key set")
        np.copyto(logits, -np.inf, where=~valid[..., None, None, :])
    return check_finite((softmax(logits, cap) @ v.swapaxes(-3, -2)).reshape(*lead, n_heads * hs))
