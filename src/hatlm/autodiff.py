"""Minimal reverse-mode autodiff over numpy arrays.

Just enough primitives to express the model forward pass; every VJP is
hand-derived and checked against central finite differences in the test
suite. Values keep the dtype of their inputs, so running a graph in float64
gives float64 gradients (used by the gradient oracle).

A node that needs no gradient keeps neither its parents nor its backward
closure, so a no-grad forward holds no tape: each intermediate array is
freed as soon as the next operation has consumed it. With
`kernels.DEBUG_FINITE` on, every node value and every accumulated gradient
must be finite or a FloatingPointError is raised.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels


class Var:
    __slots__ = ("v", "grad", "_parents", "_bw", "rg")

    def __init__(self, value, parents=(), bw=None, rg=None):
        self.v = np.asarray(value)
        self.rg = any(p.rg for p in parents) if rg is None else rg
        self._parents, self._bw = (parents, bw) if self.rg else ((), None)
        self.grad = None
        if kernels.DEBUG_FINITE:
            _check_finite(self.v, "value")

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


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite autodiff {what} of shape {x.shape}")


def _accum(p: Var, g: np.ndarray, owned: bool = False) -> None:
    """Add `g` into p.grad. The first gradient is kept as it is when `owned`
    (a new array nothing else holds) and copied otherwise; later ones are
    added in place."""
    if not p.rg:
        return
    if p.grad is None:
        keep = owned and isinstance(g, np.ndarray) and g.dtype == p.v.dtype
        p.grad = g if keep else np.array(g, dtype=p.v.dtype)
    else:
        p.grad += g
    if kernels.DEBUG_FINITE:
        _check_finite(p.grad, "gradient")


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
        _accum(b, _unbroadcast(-g, b.v.shape), owned=True)
    return Var(out, (a, b), bw)


def mul(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    out = a.v * b.v

    def bw(g):
        _accum(a, _unbroadcast(g * b.v, a.v.shape), owned=True)
        _accum(b, _unbroadcast(g * a.v, b.v.shape), owned=True)
    return Var(out, (a, b), bw)


def scale(a, c: float) -> Var:
    a = wrap(a)

    def bw(g):
        _accum(a, g * c, owned=True)
    return Var(a.v * c, (a,), bw)


def matmul(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    out = np.matmul(a.v, b.v)

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.v, -1, -2))
        gb = np.matmul(np.swapaxes(a.v, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.v.shape), owned=True)
        _accum(b, _unbroadcast(gb, b.v.shape), owned=True)
    return Var(out, (a, b), bw)


def _scatter_plan(flat: np.ndarray):
    """Order the rows of a scatter-add into `flat` so that it runs as a few
    vectorised adds yet sums in exactly the order of `np.add.at`.

    Rows are stably sorted by target, and a row's rank is its place among
    the rows of the same target. The rows of one rank have distinct targets,
    so one fancy-indexed `+=` adds them all; taken rank by rank, every
    target receives its rows in their original order. A rank of fewer than
    32 rows costs more as its own `+=` than inside `np.add.at`, so from the
    first such rank on (the tail of a few frequent targets) the rows go
    through one `np.add.at`, still in rank order.

    Returns (perm, targets, bounds): row `perm[i]` goes to `targets[i]`,
    the r-th rank added on its own holds rows `bounds[r]:bounds[r + 1]`, and
    the rows from `bounds[-1]` on go through `np.add.at`.
    """
    n = len(flat)
    if n < 32:                          # no rank can be large enough
        return np.arange(n), flat, [0]
    order = np.argsort(flat, kind="stable")
    st = flat[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(st[1:], st[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    rank = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    # a stable sort of small unsigned keys is a radix sort
    by_rank = np.argsort(rank.astype(np.uint16) if n <= 0xFFFF else rank, kind="stable")
    sizes = np.bincount(rank)
    small = np.flatnonzero(sizes < 32)
    full = small[0] if len(small) else len(sizes)
    return order[by_rank], st[by_rank], np.cumsum(np.append(0, sizes[:full])).tolist()


def gather(a, idx, axis: int = 0) -> Var:
    a = wrap(a)
    idx = np.asarray(idx)
    out = np.take(a.v, idx, axis=axis)
    if not a.rg:
        return Var(out)
    perm, targets, bounds = _scatter_plan(idx.ravel())

    def bw(g):
        # rows of g in the layout [index, rest], then in plan order
        g_m = np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim))
        rest = g_m.shape[idx.ndim:]
        rows = np.take(np.ascontiguousarray(g_m).reshape(idx.size, math.prod(rest)),
                       perm, axis=0)
        acc = np.zeros((a.v.shape[axis], rows.shape[1]), dtype=a.v.dtype)
        for lo, hi in zip(bounds, bounds[1:]):
            acc[targets[lo:hi]] += rows[lo:hi]
        if bounds[-1] < idx.size:
            np.add.at(acc, targets[bounds[-1]:], rows[bounds[-1]:])
        _accum(a, np.moveaxis(acc.reshape(a.v.shape[axis], *rest), 0, axis), owned=True)
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
        _accum(a, ga, owned=True)
    return Var(a.v[sl], (a,), bw)


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = wrap(a)
    out = a.v.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.v.shape))
    return Var(out, (a,), bw)


def rsqrt(a) -> Var:
    a = wrap(a)
    out = 1.0 / np.sqrt(a.v)

    def bw(g):
        _accum(a, g * (-0.5) * out ** 3, owned=True)
    return Var(out, (a,), bw)


def tanh(a) -> Var:
    a = wrap(a)
    out = np.tanh(a.v)

    def bw(g):
        _accum(a, g * (1.0 - out ** 2), owned=True)
    return Var(out, (a,), bw)


def sigmoid(a) -> Var:
    a = wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.v))

    def bw(g):
        _accum(a, g * out * (1.0 - out), owned=True)
    return Var(out, (a,), bw)


def silu(a) -> Var:
    a = wrap(a)
    return mul(a, sigmoid(a))


def masked_softmax(a, mask: np.ndarray) -> Var:
    """Softmax over the last axis where mask (a constant) is True."""
    a = wrap(a)
    p = kernels.masked_softmax(a.v, mask)

    def bw(g):
        _accum(a, p * (g - np.sum(g * p, axis=-1, keepdims=True)), owned=True)
    return Var(p, (a,), bw)


def _segment_counts(starts: np.ndarray, n: int) -> np.ndarray:
    """Lengths of the segments [starts[j], starts[j+1]) of an axis of n."""
    starts = np.asarray(starts)
    if starts.ndim != 1 or len(starts) == 0 or starts[0] != 0 or starts[-1] >= n \
            or np.any(starts[1:] <= starts[:-1]):
        raise ValueError("segment starts must rise strictly from 0 below the axis length")
    return np.diff(np.append(starts, n))


def segment_softmax(a, starts) -> Var:
    """Softmax over the last axis within each segment: the segments split it
    at `starts` (strictly rising, from 0), every one non-empty."""
    a = wrap(a)
    counts = _segment_counts(starts, a.v.shape[-1])
    m = np.maximum.reduceat(a.v, starts, axis=-1)
    e = np.exp(a.v - np.repeat(m, counts, axis=-1))
    p = e / np.repeat(np.add.reduceat(e, starts, axis=-1), counts, axis=-1)

    def bw(g):
        dot = np.add.reduceat(g * p, starts, axis=-1)
        _accum(a, p * (g - np.repeat(dot, counts, axis=-1)), owned=True)
    return Var(p, (a,), bw)


def segment_sum(a, starts, axis: int) -> Var:
    """Sum of each segment of `axis`; the segments split it at `starts`
    (strictly rising, from 0), every one non-empty."""
    a = wrap(a)
    counts = _segment_counts(starts, a.v.shape[axis])

    def bw(g):
        _accum(a, np.repeat(g, counts, axis=axis), owned=True)
    return Var(np.add.reduceat(a.v, starts, axis=axis), (a,), bw)


def rope(a, positions, base: float) -> Var:
    """Rotary transform on the last axis; positions align with axis -2.

    The rotation is orthogonal, so its VJP is the inverse rotation."""
    a = wrap(a)

    def bw(g):
        _accum(a, kernels.rope(g, -np.asarray(positions), base), owned=True)
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
        _accum(lg, g * p / n, owned=True)
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
