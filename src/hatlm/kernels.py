"""Dense numeric kernels: matmul, normalization, rotary embedding, softmax,
and the single-query grouped-KV attention read.

These are the one implementation of each piece of math: the incremental
engine calls them directly and the autodiff tape wraps `rope` and
`masked_softmax` as its forward values. All operations are pure functions
over numpy arrays, deterministic for a given input dtype (float32 or float64
throughout; outputs follow inputs). Setting the environment variable
HATLM_DEBUG_FINITE=1 (or the module flag) makes every kernel assert that its
output is finite.
"""

from __future__ import annotations

import math
import os

import numpy as np

DEBUG_FINITE = os.environ.get("HATLM_DEBUG_FINITE", "") not in ("", "0")


class ShapeError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """An impossible-by-construction condition was reached (e.g. a query with
    no visible keys)."""


def _check(x: np.ndarray) -> np.ndarray:
    if DEBUG_FINITE and not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite value in kernel output")
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-major matrix product with an explicit inner-dimension check."""
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dims {a.shape} x {b.shape}")
    return _check(np.matmul(a, b))


def rms_norm(x: np.ndarray, eps: float = 1e-5,
             gain: np.ndarray | None = None) -> np.ndarray:
    """x / sqrt(mean(x^2) + eps) over the last axis, optionally gain-scaled."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    y = x / np.sqrt(ms + eps)
    if gain is not None:
        if gain.shape != x.shape[-1:]:
            raise ShapeError(f"gain {gain.shape} does not match {x.shape}")
        y = y * gain
    return _check(y)


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def swiglu_ffn(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray,
               w_down: np.ndarray) -> np.ndarray:
    """w_down applied to silu(x w_gate) * (x w_up)."""
    return _check(matmul(silu(matmul(x, w_gate)) * matmul(x, w_up), w_down))


def rope(x: np.ndarray, positions: np.ndarray, base: float) -> np.ndarray:
    """Rotary position transform on the last axis (pairs split half/half).

    `x` has shape (..., T, d) with d even; `positions` has length T and
    aligns with axis -2. Frequencies are base**(-2i/d). Negated positions
    apply the inverse rotation.
    """
    d = x.shape[-1]
    if d % 2:
        raise ShapeError(f"rope head dim must be even, got {d}")
    positions = np.asarray(positions, dtype=x.dtype)
    if positions.shape != (x.shape[-2],):
        raise ShapeError("positions length must match the sequence axis")
    half = d // 2
    inv = base ** (-np.arange(0, d, 2, dtype=x.dtype) / d)
    ang = positions[:, None] * inv[None, :]          # (T, d/2)
    cos, sin = np.cos(ang), np.sin(ang)               # broadcast over leading axes
    x1, x2 = x[..., :half], x[..., half:]
    return _check(np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1))


def softcap(logits: np.ndarray, cap: float) -> np.ndarray:
    """Saturate logits smoothly at +-cap: cap * tanh(logits / cap)."""
    return cap * np.tanh(logits / cap)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to mask==True positions.

    Masked positions contribute exactly zero weight (bit-exact insensitivity
    to their logits). Raises if any query row has no visible key.
    """
    mask = np.broadcast_to(mask, logits.shape)
    if not mask.any(axis=-1).all():
        raise InternalInvariantError("attention row with empty visible key set")
    neg = np.array(-np.inf, dtype=logits.dtype)
    z = np.where(mask, logits, neg)
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
           cap: float | None) -> np.ndarray:
    """One query position's scaled dot-product read over n visible keys.

    q is [n_heads, hs]; k and v are [n, n_kv_heads, hs] with n_kv_heads
    dividing n_heads. Query heads are grouped per KV head by reshaping, so
    the cache is never repeated. Logits are scaled by 1/sqrt(hs) and, when
    `cap` is set, softcapped. Returns the concatenated heads, [n_heads*hs].
    """
    n_heads, hs = q.shape
    n_kv = k.shape[1]
    qg = q.reshape(n_kv, n_heads // n_kv, hs)
    logits = np.einsum("kgd,nkd->kgn", qg, k) / math.sqrt(hs)
    if cap is not None:
        logits = softcap(logits, cap)
    p = softmax(logits)
    return _check(np.einsum("kgn,nkd->kgd", p, v).reshape(n_heads * hs))
