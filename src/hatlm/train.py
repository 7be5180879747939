"""Toy-scale training: cross-entropy loss, analytic gradients, Adam with a
warmup-stable-decay schedule, and per-group freezing / learning-rate
multipliers.

Gradients come from the reverse-mode graph in :mod:`hatlm.autodiff`; the
test suite validates them against central finite differences in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import autodiff as ad
from .config import HatConfig
from . import model
from .model import PARAM_GROUPS, forward, group_of, init_params
from .splitter import SplitError

WEIGHT_DECAY_EXEMPT_SUFFIX = "norm.gain"
WEIGHT_DECAY_EXEMPT_NAMES = ("encoder.byte_embedding", "backbone.bos")


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise warmup-stable-decay: linear 0 -> stable_lr over
    warmup_steps, constant for stable_steps, linear to final_lr over
    decay_steps."""
    warmup_steps: int
    stable_lr: float
    stable_steps: int
    decay_steps: int
    final_lr: float = 0.0

    def __post_init__(self):
        for f in ("warmup_steps", "stable_lr", "stable_steps", "decay_steps", "final_lr"):
            v = getattr(self, f)
            if not 0 <= v < math.inf:
                raise ValueError(f"{f} must be finite and not negative, got {v!r}")


def lr_at(schedule: LrSchedule, step: int) -> float:
    w, s, d = schedule.warmup_steps, schedule.stable_steps, schedule.decay_steps
    if step < 0:
        raise ValueError("negative step")
    if step < w:
        return schedule.stable_lr * step / w
    if step < w + s:
        return schedule.stable_lr
    if step < w + s + d:
        frac = (step - w - s) / d
        return schedule.stable_lr + (schedule.final_lr - schedule.stable_lr) * frac
    return schedule.final_lr


@dataclass(frozen=True)
class GroupPolicy:
    """Per parameter group: no updates before frozen_until_step, and an
    effective learning rate of lr * lr_multiplier afterwards."""
    frozen_until_step: dict = field(default_factory=dict)
    lr_multiplier: dict = field(default_factory=dict)

    def __post_init__(self):
        for g in list(self.frozen_until_step) + list(self.lr_multiplier):
            if g not in PARAM_GROUPS:
                raise ValueError(f"unknown parameter group {g!r}")
        if not all(0 < m < math.inf for m in self.lr_multiplier.values()):
            raise ValueError(f"lr multipliers must be finite and positive: {self.lr_multiplier}")
        if any(n < 0 for n in self.frozen_until_step.values()):
            raise ValueError("frozen_until_step must not be negative")

    def frozen_at(self, group: str, step: int) -> bool:
        return step < self.frozen_until_step.get(group, 0)

    def multiplier(self, group: str) -> float:
        return self.lr_multiplier.get(group, 1.0)

    @classmethod
    def from_text(cls, text: str) -> "GroupPolicy":
        """`group.frozen_until_step=N` and `group.lr_multiplier=X` lines."""
        frozen, mult = {}, {}
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, _, v = (part.strip() for part in line.partition("="))
            group, _, what = k.partition(".")
            into = {"frozen_until_step": frozen, "lr_multiplier": mult}.get(what)
            if into is None:
                raise ValueError(f"line {ln}: unknown policy key {k!r}")
            if group in into:
                raise ValueError(f"line {ln}: policy key {k} given twice")
            try:
                into[group] = int(v) if into is frozen else float(v)
            except ValueError:
                raise ValueError(f"line {ln}: policy key {k} has no valid value: {v!r}") from None
        return cls(frozen, mult)


# ---------------------------------------------------------------------------
# loss and gradients

def _loss_var(params, cfg: HatConfig, data: bytes, words=None):
    if len(data) < 2:
        raise ValueError("need at least 2 bytes to form a prediction target")
    targets = np.frombuffer(data, dtype=np.uint8)[1:].astype(np.int64)
    return ad.cross_entropy(ad.narrow(forward(params, cfg, data, words), 0, 0, len(data) - 1),
                            targets)


def loss(params, cfg: HatConfig, data: bytes) -> float:
    """Mean next-byte cross-entropy over the len(data)-1 predictable positions."""
    return float(_loss_var(params, cfg, data))


class Grads(dict):
    """`loss_and_grads`' gradients by name. `unreached` names the tensors that
    no gradient reached (a frozen group's, or one the loss does not read):
    their gradients are zeros, `clip_global_norm` skips them, and
    `adam_step` leaves them as they are."""
    unreached: frozenset = frozenset()


def loss_and_grads(params, cfg: HatConfig, data: bytes, frozen: tuple[str, ...] = (),
                   words=None) -> tuple[float, Grads]:
    """The loss and its analytic gradients, with frozen groups exactly zero.
    Each gradient is a writable array that shares no memory with another:
    one that its leaf borrowed from the tape is copied."""
    P = {k: ad.wrap(v, rg=group_of(k) not in frozen) for k, v in params.items()}
    out = _loss_var(P, cfg, data, words)
    if type(out) is ad.Var:     # not when every group is frozen
        ad.backward(out)
        out = out.v
    grads = Grads()
    grads.unreached = frozenset(k for k, leaf in P.items()
                                if type(leaf) is not ad.Var or leaf.grad is None)
    for k, leaf in P.items():
        if k in grads.unreached:
            grads[k] = np.zeros_like(params[k])
        else:
            grads[k] = leaf.grad if leaf.owns_grad else np.array(leaf.grad)
    return float(out), grads


def documents(corpus: bytes, seq_len: int) -> list[bytes]:
    """The corpus cut into documents of at most seq_len bytes, each at the
    last codepoint boundary at or below seq_len; documents under 2 bytes,
    with nothing to predict, are dropped. Raises SplitError if the corpus
    is not UTF-8, and ValueError if a codepoint is longer than seq_len."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    try:
        corpus.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SplitError("invalid UTF-8", exc.start) from None
    docs, i = [], 0
    while i < len(corpus):
        j = min(i + seq_len, len(corpus))
        while j < len(corpus) and corpus[j] & 0xC0 == 0x80:
            j -= 1
        if j == i:
            raise ValueError(f"seq_len {seq_len} cannot hold the codepoint at byte offset {i}")
        docs.append(corpus[i:j])
        i = j
    return [d for d in docs if len(d) >= 2]


def corpus_loss(params, cfg: HatConfig, corpus: bytes, seq_len: int) -> float:
    """Per-byte loss over the corpus's documents: each document's mean loss
    weighted by the bytes it predicts. Raises ValueError if no document
    has a byte to predict."""
    docs = documents(corpus, seq_len)
    if not docs:
        raise ValueError("corpus too short for the sequence length")
    return (sum(loss(params, cfg, d) * (len(d) - 1) for d in docs)
            / sum(len(d) - 1 for d in docs))


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale grads in place so their joint L2 norm is at most max_norm, unless
    it is not finite; return the norm before scaling. A tensor in
    `grads.unreached` (`Grads`) is neither counted nor scaled."""
    skip = getattr(grads, "unreached", ())
    keys = [k for k in grads if k not in skip]
    total = math.sqrt(sum(float(np.sum(np.square(g, out=g)))
                          for g in (grads[k].astype(np.float64) for k in keys)))
    if 0 < total < math.inf and total > max_norm:
        scale = max_norm / total
        for k in keys:
            grads[k] *= scale
    return total


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.05
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)  # per-tensor update count


def _decayed(name: str) -> bool:
    return not (name.endswith(WEIGHT_DECAY_EXEMPT_SUFFIX)
                or name in WEIGHT_DECAY_EXEMPT_NAMES)


def adam_step(params: dict, grads: dict, state: AdamState, lr_of_name) -> None:
    """One decoupled-weight-decay Adam update of the dict `params`.

    `lr_of_name(name)` returns the effective step size (schedule x group
    multiplier). A tensor in `grads.unreached` (`Grads`), which no gradient
    reached (a frozen group's among them), is skipped entirely. The moments
    in `state` are updated in place; each updated tensor is a new array
    bound into `params`, so the arrays a caller passed are never written.
    Each tensor's update is built in one buffer, with the operations (and
    so the bits) of m' = b1 m + (1 - b1) g, v' = b2 v + (1 - b2) g g and
    p' = p - lr (m' / c1 / (sqrt(v' / c2) + eps) + wd p), c_i = 1 - b_i^t."""
    skip = getattr(grads, "unreached", ())
    for name in sorted(params):
        if name in skip:
            continue
        g, p = grads[name], params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        tmp = np.multiply(1 - state.beta1, g)
        m += tmp
        v *= state.beta2
        np.multiply(1 - state.beta2, g, out=tmp)
        tmp *= g
        v += tmp
        upd = np.divide(m, 1 - state.beta1 ** t)
        np.divide(v, 1 - state.beta2 ** t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        upd /= tmp
        if state.weight_decay and _decayed(name):
            upd += np.multiply(state.weight_decay, p, out=tmp)
        upd *= np.asarray(lr_of_name(name), dtype=p.dtype)
        params[name] = np.subtract(p, upd, out=upd)


@dataclass
class TrainResult:
    params: dict
    loss_curve: list[float]            # training loss per step
    grad_norms: list[float] = field(default_factory=list)  # global norm per step, before clipping


def train_loop(cfg: HatConfig, corpus: bytes, schedule: LrSchedule,
               policy: GroupPolicy, steps: int, seed: int,
               seq_len: int = 256, clip_norm: float = 1.0,
               params: dict | None = None, on_step=None) -> TrainResult:
    """Deterministic single-sequence-per-step training.

    The corpus is cut into seq_len-byte documents visited round-robin,
    each split into words once (`splitter.stream`), before the first step.
    Aborts with a diagnostic, before that step's update, if the loss or the
    gradient norm turns NaN or infinite. After each step, `on_step` (if
    given) receives a dict with `step`, `loss`, `lr` (the schedule's base
    rate), `grad_norm` (the global norm before clipping) and `bytes_per_s`
    (the step's bytes over its wall time).
    """
    if steps < 0:
        raise ValueError(f"steps must not be negative, got {steps}")
    if not corpus:
        raise ValueError("empty corpus")
    chunks = documents(corpus, seq_len)
    if not chunks:
        raise ValueError("corpus too short for the sequence length")
    words = [model.stream(d, cfg.max_word_bytes) for d in chunks]
    if params is None:
        params = init_params(cfg, seed)
    else:
        params = dict(params)
    state = AdamState()
    curve: list[float] = []
    norms: list[float] = []
    for step in range(steps):
        t0 = perf_counter()
        data = chunks[step % len(chunks)]
        frozen = tuple(g for g in PARAM_GROUPS if policy.frozen_at(g, step))
        step_loss, grads = loss_and_grads(params, cfg, data, frozen, words[step % len(chunks)])
        if not math.isfinite(step_loss):
            raise FloatingPointError(f"loss diverged to {step_loss} at step {step}")
        norm = clip_global_norm(grads, clip_norm)
        if not math.isfinite(norm):
            raise FloatingPointError(f"gradient norm diverged to {norm} at step {step}")
        base_lr = lr_at(schedule, step)
        adam_step(params, grads, state,
                  lambda name: base_lr * policy.multiplier(group_of(name)))
        curve.append(step_loss)
        norms.append(norm)
        if on_step is not None:
            on_step({"step": step, "loss": step_loss, "lr": base_lr, "grad_norm": norm,
                     "bytes_per_s": len(data) / (perf_counter() - t0)})
    return TrainResult(params=params, loss_curve=curve, grad_norms=norms)


def write_loss_curve(curve, path) -> None:
    """Plain-text loss curve: one `step<TAB>loss` line per step."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, v in enumerate(curve):
            fh.write(f"{i}\t{v:.6f}\n")
