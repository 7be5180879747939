"""Minimal reverse-mode autodiff over numpy arrays.

Just enough primitives to express the model forward pass; every VJP is
hand-derived and checked against central finite differences in the test
suite. Values keep the dtype of their inputs, so running a graph in float64
gives float64 gradients (used by the gradient oracle).

The layer math is one node per operation, valued by `kernels`: `matmul`
(gemm rows), `rms_norm`, `softcap`, `swiglu` (`kernels.swiglu_ffn`, over
one gate|up tensor), `rope` (`kernels.rotate` by `kernels.rope_table`
rows), and `attention`, the causal, optionally banded self-attention of
fused query|key heads over grouped KV heads. The remaining primitives
(gather, reshape, the segment ops, ...) glue them together.

A VJP reuses what its forward computed instead of computing it again
(the norm's RMS, the rotation's table rows, the attention's probabilities,
swiglu's 1 + exp(-a)); cross_entropy builds its gradient in the buffer of
its forward's exponentials.

A gradient moves by reference where it can. A node keeps the first
gradient that reaches it as it is, and `Var.owns_grad` records whether it
owns that array (a new one from a VJP) or borrows it (the view that `add`,
`reshape`, `transpose`, `concat` or `sum_` passes on from its own
gradient). A second contribution copies a borrowed gradient once, then adds
in place, so no node writes into an array that another node holds. A
`narrow` part lands in an array its parent owns, which the first part
zeroes only outside itself. `train.loss_and_grads` copies the leaf
gradients that are borrowed.

`backward` consumes the graph as it walks it: once a node's VJP has run,
the node drops its gradient and its VJP, and with it what the VJP kept
(probabilities, normalized rows, gate|up halves), so backward's memory
falls as it goes. Leaves keep their gradients and every node its value.

A dense (unwindowed) attention read goes ATTENTION_BLOCK query positions at
a time (one product per block shape of a pack), with or without a gradient,
so it never holds [kv, g*t, t] logits. On the tape it keeps each read's
probabilities for its VJP, which goes read by read; without one it keeps
none. Each read scales and caps its logits (`kernels.capped_logits`) and
writes -inf into the keys it hides with one write: a block the triangle
above the diagonal of its last keys, the band read the slots before each
sequence, in the rows whose band starts before it. `kernels.softmax` shifts
each row by its max unless `kernels.shift_free` holds.

A `Var` is a tape node only, and a frozen leaf is a plain array. A
primitive none of whose inputs is a Var returns its kernel's ndarray, with
no node and no closure, so a no-grad forward holds no tape and frees each
array once the next operation has consumed it. With `kernels.DEBUG_FINITE`
on, every value, a node's or a plain one, and every accumulated gradient
must be finite or `kernels.check_finite` raises a FloatingPointError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import kernels
from .kernels import check_finite

ATTENTION_BLOCK = 32   # query positions per block of a dense attention read


class Var:
    """A tape node: a value whose gradient is wanted, its parents and its VJP."""
    __slots__ = ("v", "grad", "owns_grad", "_parents", "_bw")

    def __init__(self, value, parents=(), bw=None):
        self.v = np.asarray(value)
        self._parents, self._bw = parents, bw
        self.grad, self.owns_grad = None, False
        check_finite(self.v)

    shape = property(lambda self: self.v.shape)
    dtype = property(lambda self: self.v.dtype)


def wrap(x, rg: bool = False):
    """A leaf: x as a Var (`backward` fills its .grad) if rg, else as an array."""
    return x if type(x) is Var else Var(x) if rg else np.asarray(x)


def _v(x):
    """A taped input's value: a Var's, or a constant as it is (a scalar stays weak)."""
    return x.v if type(x) is Var else x


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _accum(p, g: np.ndarray, owned: bool = False, at=None) -> None:
    """Add `g` into p.grad, or into its part p.grad[at] when `at` is a
    `narrow` slice (whole along every axis before its last); a constant p
    (not a Var) takes nothing.

    The first whole gradient is kept by reference, whether p owns it (`owned`:
    a new array nothing else holds) or borrows it (a view of another node's
    gradient, which that node no longer changes); `p.owns_grad` records which.
    A second contribution copies a borrowed gradient once, then adds in place.
    A part always lands in an array p owns: the first writes 0 + g (the bits
    of adding into zeros, so -0.0 becomes +0.0) and zeroes the rest."""
    if type(p) is not Var:
        return
    if p.grad is None and at is not None:
        p.grad, p.owns_grad = np.empty_like(p.v), True
        np.add(g, 0.0, out=p.grad[at])
        *whole, part = at
        p.grad[(*whole, slice(None, part.start))] = 0
        p.grad[(*whole, slice(part.stop, None))] = 0
    elif p.grad is None:
        if isinstance(g, np.ndarray) and g.dtype == p.v.dtype:
            p.grad, p.owns_grad = g, owned
        else:
            p.grad, p.owns_grad = np.array(g, dtype=p.v.dtype), True
    else:
        if not p.owns_grad:
            p.grad, p.owns_grad = np.array(p.grad), True
        p.grad[... if at is None else at] += g
    check_finite(p.grad, "gradient")


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every leaf Var.

    A graph is walked once and consumed as it is walked: a VJP may build its
    gradient in its forward's buffers, a node lends its gradient to its
    parents by reference, and once its VJP has run (or no gradient reached
    it) an inner node other than the root drops its .grad and its VJP, and
    with it what the VJP captured. Leaves keep their gradients and every
    node its .v."""
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
        if type(node) is not Var or id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    root.grad, root.owns_grad = np.ones_like(root.v), True
    for node in reversed(order):
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)
        if node._bw is not None and node is not root:
            node.grad = node._bw = None


# ---------------------------------------------------------------------------
# primitives: each returns its kernel's plain array when no input is a Var

def add(a, b):
    if type(a) is not Var and type(b) is not Var:
        return check_finite(a + b)
    av, bv = _v(a), _v(b)

    def bw(g):
        _accum(a, _unbroadcast(g, np.shape(av)))
        _accum(b, _unbroadcast(g, np.shape(bv)))
    return Var(av + bv, (a, b), bw)


def mul(a, b):
    if type(a) is not Var and type(b) is not Var:
        return check_finite(a * b)
    av, bv = _v(a), _v(b)

    def bw(g):
        _accum(a, _unbroadcast(g * bv, np.shape(av)), owned=True)
        _accum(b, _unbroadcast(g * av, np.shape(bv)), owned=True)
    return Var(av * bv, (a, b), bw)


def scale(a, c: float):
    if type(a) is not Var:
        return check_finite(a * c)
    return Var(a.v * c, (a,), lambda g: _accum(a, g * c, owned=True))


def matmul(a, b):
    if type(a) is not Var and type(b) is not Var:
        return kernels.matmul(a, b)
    av, bv = _v(a), _v(b)

    def bw(g):
        ga = np.matmul(g, np.swapaxes(bv, -1, -2))
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
        _accum(a, _unbroadcast(ga, av.shape), owned=True)
        _accum(b, _unbroadcast(gb, bv.shape), owned=True)
    return Var(kernels.matmul(av, bv), (a, b), bw)


def gather(a, idx, axis: int = 0):
    if type(a) is not Var:
        return check_finite(np.take(a, idx, axis=axis))
    idx = np.asarray(idx)

    def bw(g):
        # sum each source row's gradients as one run of the sorted index
        flat = idx.ravel() % a.v.shape[axis]
        order = np.argsort(flat, kind="stable")
        runs = np.flatnonzero(np.diff(flat[order], prepend=-1))
        g = np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim))
        acc = np.zeros_like(a.v)
        np.moveaxis(acc, axis, 0)[flat[order[runs]]] = np.add.reduceat(
            g.reshape(flat.size, *g.shape[idx.ndim:])[order], runs, axis=0)
        _accum(a, acc, owned=True)
    return Var(np.take(a.v, idx, axis=axis), (a,), bw)


def reshape(a, shape):
    if type(a) is not Var:
        return check_finite(a.reshape(shape))
    return Var(a.v.reshape(shape), (a,), lambda g: _accum(a, g.reshape(a.v.shape)))


def transpose(a, axes):
    if type(a) is not Var:
        return check_finite(a.transpose(axes))
    inv = np.argsort(axes)
    return Var(a.v.transpose(axes), (a,), lambda g: _accum(a, g.transpose(inv)))


def concat(parts, axis: int = 0):
    if not any(type(p) is Var for p in parts):
        return check_finite(np.concatenate(parts, axis=axis))
    values = [_v(p) for p in parts]
    ends = np.cumsum([p.shape[axis] for p in values])[:-1]

    def bw(g):
        for p, gp in zip(parts, np.split(g, ends, axis=axis)):
            _accum(p, gp)
    return Var(np.concatenate(values, axis=axis), tuple(parts), bw)


@functools.lru_cache(maxsize=1024)
def _narrow_index(axis: int, start: int, length: int) -> tuple:
    """`narrow`'s index, built once per part rather than on every call."""
    return (slice(None),) * axis + (slice(start, start + length),)


def narrow(a, axis: int, start: int, length: int):
    """A slice of `axis`. Its gradient lands in its part of a's, so the
    parts of one node share one full-size gradient array; the first part
    zeroes only the rows outside it."""
    sl = _narrow_index(axis, start, length)
    if type(a) is not Var:
        return check_finite(a[sl])
    return Var(a.v[sl], (a,), lambda g: _accum(a, g, at=sl))


def sum_(a, axis=None, keepdims: bool = False):
    if type(a) is not Var:
        return check_finite(a.sum(axis=axis, keepdims=keepdims))
    out = a.v.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.v.shape))
    return Var(out, (a,), bw)


def _segment_counts(starts: np.ndarray, n: int) -> np.ndarray:
    """Lengths of the segments [starts[j], starts[j+1]) of an axis of n."""
    starts = np.asarray(starts)
    if starts.ndim == 1 and len(starts) and starts[0] == 0:
        counts = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = n - starts[-1]
        if counts.min() > 0:
            return counts
    raise ValueError("segment starts must rise strictly from 0 below the axis length")


def segment_softmax(a, starts):
    """Softmax over the last axis within each segment: the segments split it
    at `starts` (strictly rising, from 0), every one non-empty."""
    av = _v(a)
    counts = _segment_counts(starts, av.shape[-1])
    m = np.maximum.reduceat(av, starts, axis=-1)
    e = np.exp(av - np.repeat(m, counts, axis=-1))
    p = e / np.repeat(np.add.reduceat(e, starts, axis=-1), counts, axis=-1)
    if type(a) is not Var:
        return check_finite(p)

    def bw(g):
        dot = np.add.reduceat(g * p, starts, axis=-1)
        _accum(a, p * (g - np.repeat(dot, counts, axis=-1)), owned=True)
    return Var(p, (a,), bw)


def segment_sum(a, starts, axis: int):
    """Sum of each segment of `axis`; the segments split it at `starts`
    (strictly rising, from 0), every one non-empty."""
    av = _v(a)
    counts = _segment_counts(starts, av.shape[axis])
    out = np.add.reduceat(av, starts, axis=axis)
    if type(a) is not Var:
        return check_finite(out)
    return Var(out, (a,), lambda g: _accum(a, np.repeat(g, counts, axis=axis), owned=True))


def rope(a, c, s):
    """Rotary transform by `kernels.rope_table` rows c and s that broadcast against
    a. It is orthogonal: its VJP is the inverse rotation, by the rows c and -s."""
    if type(a) is not Var:
        return kernels.rotate(a, c, s)
    return Var(kernels.rotate(a.v, c, s), (a,),
               lambda g: _accum(a, kernels.rotate(g, c, np.negative(s)), owned=True))


def cross_entropy(logits, targets):
    """Mean cross-entropy of rows of `logits` against integer `targets`."""
    lv = _v(logits)
    t = np.asarray(targets)
    n = lv.shape[0]
    if t.shape != (n,):
        raise ValueError("targets must be one index per logits row")
    m = lv.max(axis=-1, keepdims=True)
    e = np.exp(lv - m)
    se = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(se)).squeeze(-1)
    loss = np.asarray((lse - lv[np.arange(n), t]).mean())
    if type(logits) is not Var:
        return check_finite(loss)

    def bw(g):      # in e: e / se, less 1 at the targets, times g, over n
        np.divide(e, se, out=e)
        e[np.arange(n), t] -= 1.0
        np.multiply(e, g, out=e)
        np.divide(e, n, out=e)
        _accum(logits, e, owned=True)
    return Var(loss, (logits,), bw)


def rms_norm(a, eps: float, gain=None):
    """RMS normalization over the last axis, optionally gain-scaled."""
    if type(a) is not Var and type(gain) is not Var:
        return kernels.rms_norm(a, eps, gain)
    av, gv = _v(a), None if gain is None else _v(gain)
    rms = kernels.rms(av, eps)
    xhat = av / rms

    def bw(g):
        dxhat = g if gv is None else g * gv
        dot = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / av.shape[-1]
        ga = xhat * dot
        _accum(a, np.divide(np.subtract(dxhat, ga, out=ga), rms, out=ga), owned=True)
        if gv is not None:
            _accum(gain, _unbroadcast(g * xhat, gv.shape), owned=True)
    return Var(xhat if gv is None else xhat * gv, (a, gain), bw)


def softcap(a, cap: float):
    """cap * tanh(a / cap)."""
    if type(a) is not Var:
        return check_finite(kernels.softcap(a, cap))
    out = kernels.softcap(a.v, cap)
    return Var(out, (a,), lambda g: _accum(a, g * (1.0 - np.square(out / cap)), owned=True))


def swiglu(x, w_gate_up, w_down):
    """w_down applied to silu(x w_gate) * (x w_up), for rows x [n, hidden],
    with w_gate|w_up one tensor (`kernels.swiglu_ffn`)."""
    if type(x) is not Var and type(w_gate_up) is not Var and type(w_down) is not Var:
        return kernels.swiglu_ffn(x, w_gate_up, w_down)
    xv, wgu, wd = _v(x), _v(w_gate_up), _v(w_down)
    a, b = kernels.matmul(xv, wgu.reshape(len(wgu), 2, -1).swapaxes(0, 1))
    d = kernels.silu_denominator(a)     # the backward's sigmoid is 1 / d
    sa = a / d
    h = sa * b

    def bw(g):
        dh = g @ wd.T
        s = np.divide(1.0, d, out=d)
        ds = np.subtract(1.0, s)        # silu' = s + sa * (1 - s)
        ds *= sa
        ds += s
        n, m = a.shape
        dab = np.empty((n, 2 * m), dtype=np.result_type(dh, a))
        np.multiply(dh, b, out=dab[:, :m])
        dab[:, :m] *= ds
        np.multiply(dh, sa, out=dab[:, m:])
        _accum(x, dab @ wgu.T, owned=True)
        _accum(w_gate_up, xv.T @ dab, owned=True)
        _accum(w_down, h.T @ g, owned=True)
    return Var(kernels.matmul(h, wd), (x, w_gate_up, w_down), bw)


def _band(x: np.ndarray, w: int) -> np.ndarray:
    """[kv, t, hs] -> the view [kv, t, hs, w] whose [:, i, :, j] is row
    i - (w-1) + j of x, zero before row 0. The view repeats no row: only the
    t + w - 1 padded rows are written."""
    pad = np.zeros((x.shape[0], w - 1, x.shape[2]), dtype=x.dtype)
    return np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, x], axis=1), w, axis=1)


def _unband(g: np.ndarray) -> np.ndarray:
    """The adjoint of `_band` for g laid out [kv, t, w, hs]: row i - (w-1) + j
    collects g[:, i, j], and the pad rows are dropped."""
    kv, t, w, hs = g.shape
    acc = np.zeros((kv, t + w - 1, hs), dtype=g.dtype)
    for j in range(w):
        acc[:, j:j + t] += g[:, :, j]
    return acc[:, w - 1:]


def _causal_blocks(q: np.ndarray, k: np.ndarray, v: np.ndarray, positions: np.ndarray,
                   cap: float | None, tape: list | None) -> np.ndarray:
    """The dense causal read of `attention`: each sequence of the pack goes
    ATTENTION_BLOCK query rows at a time, each block meeting only its
    sequence's keys up to its last row, so the logits held at once are
    [kv, g, block, <= t] rather than [kv, g*t, t]. A pack's G blocks of one
    shape (n rows, m keys, by rising m) share one product over [kv, g, G, n,
    hs] and [kv, 1, G, m, hs] gathers; a lone block, or a one-row one (a
    vector product, whose bits follow the operand layout), reads its slices.
    A `tape` list gets each read's row and key indices, probabilities and
    (with `cap`) tanh values, capped / cap; without one, a read keeps
    nothing. Returns [t, n_heads * hs] rows."""
    nh, t, hs = q.shape
    nkv = k.shape[0]
    qg = q.reshape(nkv, nh // nkv, t, hs)
    kx, vx = k[:, None], v[:, None]
    out = np.empty((t, nkv, nh // nkv, hs), q.dtype)
    inv = 1.0 / math.sqrt(hs)
    starts = np.flatnonzero(positions == 0)
    above = ~np.tri(ATTENTION_BLOCK, dtype=bool)    # a block's last keys ahead of its rows
    shapes = {}
    for s, e in zip(starts, np.append(starts[1:], t)):
        for a in range(s, e, ATTENTION_BLOCK):
            b = min(a + ATTENTION_BLOCK, e)
            shapes.setdefault((b - s, b - a), []).append((a, s))
    for (m, n), blocks in sorted(shapes.items()):
        a, s = np.array(blocks).T
        reads = ([(a[:, None] + np.arange(n), s[:, None] + np.arange(m))] if n > 1 and len(a) > 1
                 else [(slice(i, i + n), slice(j, j + m)) for i, j in blocks])
        for qi, ki in reads:
            z = qg[:, :, qi] @ kx[:, :, ki].swapaxes(-1, -2)
            kernels.capped_logits(z, inv, cap)
            th = None if cap is None or tape is None else z / cap
            np.copyto(z[..., m - n:], -np.inf, where=above[:n, :n])
            p = kernels.softmax(z, cap)
            out[qi] = np.moveaxis(p @ vx[:, :, ki], (0, 1), (-3, -2))
            if tape is not None:
                tape.append((qi, ki, p, th))
    return out.reshape(t, nh * hs)


def attention(qk, v, positions, window: int | None, cap: float | None):
    """Causal self-attention of t positions over grouped KV heads.

    qk is [n_heads + n_kv_heads, t, hs], the query heads and then the key
    heads, and v is [n_kv_heads, t, hs], with n_kv_heads dividing n_heads;
    returns [t, n_heads * hs] rows, the output projection's input, and qk
    gets one gradient. Row i is at `positions[i]` of its sequence (one per
    prompt of a pack), which starts at row i - positions[i]; it reads that
    sequence's rows in (i - window, i], or up to i when `window` is None.
    The positions must start at 0 and each one rise by 1 or restart at 0,
    else ValueError. Logits are scaled by 1/sqrt(hs) and, when `cap` is
    set, softcapped.

    Query heads are grouped per KV head by reshaping (as `kernels.attend`),
    so keys are never repeated. A windowed read goes through a sliding-window
    view of the front-padded K and V rows (`_band`), [kv, t, g, window]
    logits, at every t: fewer key slots would sum in another order, and the
    backward reuses its probabilities.
    Otherwise the read is `_causal_blocks`, one product per block shape of
    the pack, with or without a gradient. On the tape each read keeps its
    probabilities (and tanh values); the backward goes read by read, in each
    block's product shapes, writing query rows and adding into keys and values.
    """
    rg = type(qk) is Var or type(v) is Var
    qkv, vv = _v(qk), _v(v)
    nkv, t, hs = vv.shape
    nh = qkv.shape[0] - nkv
    g = nh // nkv
    q, k = qkv[:nh], qkv[nh:]
    positions = np.asarray(positions)
    if positions.shape != (t,) or np.any(positions[:1] != 0) or np.any(
            (positions[1:] != positions[:-1] + 1) & (positions[1:] != 0)):
        raise ValueError("positions must start at 0 and each one rise by 1 or restart at 0")
    inv = 1.0 / math.sqrt(hs)
    if window is None:
        blocks = [] if rg else None
        out = _causal_blocks(q, k, vv, positions, cap, blocks)
        if not rg:
            return check_finite(out)
        qg, kx, vx = q.reshape(nkv, g, t, hs), k[:, None], vv[:, None]

        def bw(gr):
            gx = gr.reshape(t, nkv, g, hs).transpose(1, 2, 0, 3)
            dqk, dv = np.empty_like(qkv), np.zeros_like(vv)
            dqk[nh:] = 0
            dq, dk = dqk[:nh].reshape(nkv, g, t, hs), dqk[nh:]

            def rows(x):    # [kv, g, (G,) n, c] -> [kv, (G,) g*n, c], a KV head's rows
                x = np.moveaxis(x, 1, -3)
                return x.reshape(*x.shape[:-3], -1, x.shape[-1])
            for qi, ki, p, th in blocks:
                dz = gx[:, :, qi] @ vx[:, :, ki].swapaxes(-1, -2)
                dz -= np.sum(dz * p, axis=-1, keepdims=True)
                dz *= p
                if th is not None:
                    dz *= 1.0 - np.square(th)
                dz *= inv
                dq[:, :, qi] = dz @ kx[:, :, ki]
                # a KV head's keys and values sum over its g query heads' rows
                dk[:, ki] += rows(dz).swapaxes(-1, -2) @ rows(qg[:, :, qi])
                dv[:, ki] += rows(p).swapaxes(-1, -2) @ rows(gx[:, :, qi])
            _accum(qk, dqk, owned=True)
            _accum(v, dv, owned=True)
        return Var(out, (qk, v), bw)

    kx, vx = _band(k, window), _band(vv, window).swapaxes(-1, -2)
    qx = q.reshape(nkv, g, t, hs).transpose(0, 2, 1, 3)     # [kv, t, g, hs]
    z = kernels.capped_logits(qx @ kx, inv, cap)
    p = z.copy() if cap is not None and rg else z     # the cap's VJP reads z
    # band slot j of row i holds row i - (window-1) + j, so in the rows r
    # whose band starts before their sequence the first window - 1 - position
    # slots are hidden
    r = np.flatnonzero(positions < window - 1)
    p[:, r] = np.where(np.arange(window) < window - 1 - positions[r, None, None],
                       -np.inf, p[:, r])
    kernels.softmax(p, cap)
    out = (p @ vx).swapaxes(0, 1).reshape(t, nh * hs)
    if not rg:
        return check_finite(out)

    def bw(gr):
        gx = gr.reshape(t, nkv, g, hs).swapaxes(0, 1)
        dp = gx @ vx.swapaxes(-1, -2)
        dz = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        if cap is not None:
            dz *= 1.0 - np.square(z / cap)
        dz *= inv
        dk, dv = _unband(dz.swapaxes(-1, -2) @ qx), _unband(p.swapaxes(-1, -2) @ gx)
        dq = (dz @ kx.swapaxes(-1, -2)).transpose(0, 2, 1, 3).reshape(nh, t, hs)
        _accum(qk, np.concatenate([dq, dk]), owned=True)
        _accum(v, dv, owned=True)
    return Var(out, (qk, v), bw)
