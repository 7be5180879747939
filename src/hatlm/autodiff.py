"""Minimal reverse-mode autodiff over numpy arrays.

Just enough primitives to express the model forward pass; every VJP is
hand-derived and checked against central finite differences in the test
suite. Values keep the dtype of their inputs, so running a graph in float64
gives float64 gradients (used by the gradient oracle).
"""

from __future__ import annotations

import numpy as np

from . import kernels


class Var:
    __slots__ = ("v", "grad", "_parents", "_bw", "rg")

    def __init__(self, value, parents=(), bw=None, rg=None):
        self.v = np.asarray(value)
        self._parents = parents
        self._bw = bw
        self.rg = any(p.rg for p in parents) if rg is None else rg
        self.grad = None

    @property
    def shape(self):
        return self.v.shape

    @property
    def dtype(self):
        return self.v.dtype

    def __repr__(self):
        return f"Var(shape={self.v.shape}, rg={self.rg})"


def wrap(x, rg: bool = False) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x), rg=rg)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _accum(p: Var, g: np.ndarray) -> None:
    if not p.rg:
        return
    if p.grad is None:
        p.grad = np.zeros_like(p.v)
    p.grad += g


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every requires-grad leaf."""
    if root.v.ndim != 0:
        raise ValueError("backward root must be a scalar")
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen or not node.rg:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.v)
    for node in reversed(order):
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)


# ---------------------------------------------------------------------------
# primitives

def add(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    out = a.v + b.v

    def bw(g):
        _accum(a, _unbroadcast(g, a.v.shape))
        _accum(b, _unbroadcast(g, b.v.shape))
    return Var(out, (a, b), bw)


def sub(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    out = a.v - b.v

    def bw(g):
        _accum(a, _unbroadcast(g, a.v.shape))
        _accum(b, _unbroadcast(-g, b.v.shape))
    return Var(out, (a, b), bw)


def mul(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    out = a.v * b.v

    def bw(g):
        _accum(a, _unbroadcast(g * b.v, a.v.shape))
        _accum(b, _unbroadcast(g * a.v, b.v.shape))
    return Var(out, (a, b), bw)


def scale(a, c: float) -> Var:
    a = wrap(a)

    def bw(g):
        _accum(a, g * c)
    return Var(a.v * c, (a,), bw)


def matmul(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    out = np.matmul(a.v, b.v)

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.v, -1, -2))
        gb = np.matmul(np.swapaxes(a.v, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.v.shape))
        _accum(b, _unbroadcast(gb, b.v.shape))
    return Var(out, (a, b), bw)


def gather(a, idx, axis: int = 0) -> Var:
    a = wrap(a)
    idx = np.asarray(idx)
    out = np.take(a.v, idx, axis=axis)

    def bw(g):
        if not a.rg:
            return
        ga = np.zeros_like(a.v)
        ga_m = np.moveaxis(ga, axis, 0)  # view: writes land in ga
        g_m = np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim))
        np.add.at(ga_m, idx, g_m)
        _accum(a, ga)
    return Var(out, (a,), bw)


def reshape(a, shape) -> Var:
    a = wrap(a)

    def bw(g):
        _accum(a, g.reshape(a.v.shape))
    return Var(a.v.reshape(shape), (a,), bw)


def transpose(a, axes) -> Var:
    a = wrap(a)
    inv = np.argsort(axes)

    def bw(g):
        _accum(a, g.transpose(inv))
    return Var(a.v.transpose(axes), (a,), bw)


def concat(parts, axis: int = 0) -> Var:
    parts = [wrap(p) for p in parts]
    sizes = [p.v.shape[axis] for p in parts]
    out = np.concatenate([p.v for p in parts], axis=axis)

    def bw(g):
        offs = np.cumsum([0] + sizes)
        for p, s, e in zip(parts, offs[:-1], offs[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(s, e)
            _accum(p, g[tuple(sl)])
    return Var(out, tuple(parts), bw)


def narrow(a, axis: int, start: int, length: int) -> Var:
    a = wrap(a)
    sl = [slice(None)] * a.v.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def bw(g):
        if not a.rg:
            return
        ga = np.zeros_like(a.v)
        ga[sl] = g
        _accum(a, ga)
    return Var(a.v[sl], (a,), bw)


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = wrap(a)
    out = a.v.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.v.shape).copy())
    return Var(out, (a,), bw)


def expand(a, shape) -> Var:
    a = wrap(a)

    def bw(g):
        _accum(a, _unbroadcast(g, a.v.shape))
    return Var(np.broadcast_to(a.v, shape), (a,), bw)


def rsqrt(a) -> Var:
    a = wrap(a)
    out = 1.0 / np.sqrt(a.v)

    def bw(g):
        _accum(a, g * (-0.5) * out ** 3)
    return Var(out, (a,), bw)


def tanh(a) -> Var:
    a = wrap(a)
    out = np.tanh(a.v)

    def bw(g):
        _accum(a, g * (1.0 - out ** 2))
    return Var(out, (a,), bw)


def sigmoid(a) -> Var:
    a = wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.v))

    def bw(g):
        _accum(a, g * out * (1.0 - out))
    return Var(out, (a,), bw)


def silu(a) -> Var:
    a = wrap(a)
    return mul(a, sigmoid(a))


def masked_softmax(a, mask: np.ndarray) -> Var:
    """Softmax over the last axis where mask (a constant) is True."""
    a = wrap(a)
    p = kernels.masked_softmax(a.v, mask)

    def bw(g):
        _accum(a, p * (g - np.sum(g * p, axis=-1, keepdims=True)))
    return Var(p, (a,), bw)


def rope(a, positions, base: float) -> Var:
    """Rotary transform on the last axis; positions align with axis -2.

    The rotation is orthogonal, so its VJP is the inverse rotation."""
    a = wrap(a)

    def bw(g):
        _accum(a, kernels.rope(g, -np.asarray(positions), base))
    return Var(kernels.rope(a.v, positions, base), (a,), bw)


def cross_entropy(logits, targets) -> Var:
    """Mean cross-entropy of rows of `logits` against integer `targets`."""
    lg = wrap(logits)
    t = np.asarray(targets)
    n = lg.v.shape[0]
    if t.shape != (n,):
        raise ValueError("targets must be one index per logits row")
    m = lg.v.max(axis=-1, keepdims=True)
    e = np.exp(lg.v - m)
    se = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(se)).squeeze(-1)
    loss = (lse - lg.v[np.arange(n), t]).mean()

    def bw(g):
        p = e / se
        p[np.arange(n), t] -= 1.0
        _accum(lg, g * p / n)
    return Var(np.asarray(loss), (lg,), bw)


def rms_norm(a, eps: float, gain: Var | None = None) -> Var:
    """Composite RMS normalization over the last axis."""
    a = wrap(a)
    d = a.v.shape[-1]
    ms = scale(sum_(mul(a, a), axis=-1, keepdims=True), 1.0 / d)
    y = mul(a, rsqrt(add(ms, np.array(eps, dtype=a.v.dtype))))
    if gain is not None:
        y = mul(y, gain)
    return y


def softcap(a, cap: float) -> Var:
    return scale(tanh(scale(a, 1.0 / cap)), cap)


def swiglu(x, w_gate, w_up, w_down) -> Var:
    return matmul(mul(silu(matmul(x, w_gate)), matmul(x, w_up)), w_down)
