"""Incremental generation with dual KV caches and batched scheduling.

A generation session keeps two caches: per-layer byte-level K/V rings
capped at the sliding window (encoder and decoder), and an append-only
word-level cache for the backbone. Bytes cycle through the lightweight
encoder-decoder loop; the backbone runs only when the incremental splitter
closes a word (plus once for the BOS position). The single-position layer
math mirrors the batch pass in :mod:`hatlm.model` and runs on the shared
kernels: :func:`hatlm.kernels.rope` and :func:`hatlm.kernels.attend`.

Sampling is constrained to bytes that keep the output a valid UTF-8 stream
(the end sentinel 0xFF is allowed at codepoint boundaries); a batch
recomputation oracle for the same assignment lives in
:mod:`hatlm.model.next_byte_logits`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import HatConfig, StackConfig
from .kernels import attend, rms_norm, rope, softmax, swiglu_ffn
from .splitter import BYTE_BOS, BYTE_EOS, IncrementalSplitterState, WordClosed


class SessionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# UTF-8 output gate

_BOUNDARY_OK = np.zeros(256, dtype=bool)
_BOUNDARY_OK[0x00:0x80] = True
_BOUNDARY_OK[0xC2:0xE0] = True
_BOUNDARY_OK[0xE0:0xF0] = True
_BOUNDARY_OK[0xF0:0xF5] = True

_FIRST_CONT = {0xE0: (0xA0, 0xBF), 0xED: (0x80, 0x9F),
               0xF0: (0x90, 0xBF), 0xF4: (0x80, 0x8F)}


@dataclass
class Utf8Gate:
    """Tracks the in-flight codepoint so sampling can mask invalid bytes."""
    need: int = 0
    lo: int = 0x80
    hi: int = 0xBF

    def allowed(self, allow_eos: bool = True) -> np.ndarray:
        if self.need == 0:
            mask = _BOUNDARY_OK.copy()
            mask[BYTE_EOS] = allow_eos
            return mask
        mask = np.zeros(256, dtype=bool)
        mask[self.lo:self.hi + 1] = True
        return mask

    def push(self, b: int) -> None:
        if self.need:
            if not self.lo <= b <= self.hi:
                raise SessionError(f"byte {b:#x} breaks the UTF-8 stream")
            self.need -= 1
            self.lo, self.hi = 0x80, 0xBF
            return
        if b < 0x80:
            return
        if 0xC2 <= b <= 0xDF:
            self.need = 1
        elif 0xE0 <= b <= 0xEF:
            self.need = 2
        elif 0xF0 <= b <= 0xF4:
            self.need = 3
        else:
            raise SessionError(f"byte {b:#x} cannot start a UTF-8 sequence")
        self.lo, self.hi = _FIRST_CONT.get(b, (0x80, 0xBF))

    @property
    def mid_codepoint(self) -> bool:
        return self.need > 0


@dataclass(frozen=True)
class SamplingConfig:
    mode: str = "greedy"          # greedy | temperature | forced
    temperature: float = 1.0
    seed: int = 0
    forced: bytes = b""           # test hook: scripted output bytes

    def __post_init__(self):
        if self.mode not in ("greedy", "temperature", "forced"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.mode == "temperature" and self.temperature <= 0:
            raise ValueError("temperature must be positive")


def sample_from_logits(logits: np.ndarray, allowed: np.ndarray,
                       sampling: SamplingConfig, rng) -> int:
    """Pick the next byte; greedy ties break toward the lower byte value."""
    if sampling.mode == "greedy":
        masked = np.where(allowed, logits, -np.inf)
        return int(np.argmax(masked))
    idx = np.flatnonzero(allowed)
    p = softmax(logits[idx].astype(np.float64) / sampling.temperature)
    return int(idx[rng.choice(len(idx), p=p / p.sum())])


# ---------------------------------------------------------------------------
# caches

class ByteCache:
    """Per-layer K/V ring buffers capped at the stack's sliding window."""

    def __init__(self, stack: StackConfig):
        if stack.window is None:
            raise ValueError("byte cache requires a sliding-window stack")
        self.window = stack.window
        self.layers = [deque(maxlen=stack.window) for _ in range(stack.n_layers)]

    @property
    def rows(self) -> int:
        return len(self.layers[0]) if self.layers else 0


class WordCache:
    """Per-layer append-only K/V rows, one per consumed backbone position."""

    def __init__(self, stack: StackConfig):
        self.layers = [[] for _ in range(stack.n_layers)]

    @property
    def rows(self) -> int:
        return len(self.layers[0]) if self.layers else 0


# ---------------------------------------------------------------------------
# single-position layer math (mirrors the batch pass)

def _attn_step(P, prefix: str, cfg: HatConfig, s: StackConfig, cache_layer,
               x: np.ndarray, pos: int) -> np.ndarray:
    nh, nkv, hs = s.n_heads, s.n_kv_heads, s.head_size
    h = rms_norm(x, cfg.norm_eps, P[f"{prefix}.attn_norm.gain"])
    q = (h @ P[f"{prefix}.attn.wq"]).reshape(nh, hs)
    k = (h @ P[f"{prefix}.attn.wk"]).reshape(nkv, hs)
    v = (h @ P[f"{prefix}.attn.wv"]).reshape(nkv, hs)
    if cfg.qk_norm:
        q = rms_norm(q, cfg.norm_eps)
        k = rms_norm(k, cfg.norm_eps)
    # one position for every head row: the rotated K row owns its memory,
    # so the cache keeps no view of a larger base alive
    q = rope(q, np.full(nh, pos), s.rope_base)
    k = rope(k, np.full(nkv, pos), s.rope_base)
    cache_layer.append((k, v))
    K = np.stack([e[0] for e in cache_layer])   # [n_vis, nkv, hs]
    V = np.stack([e[1] for e in cache_layer])
    return attend(q, K, V, cfg.softcap) @ P[f"{prefix}.attn.wo"]


def _layer_step(P, prefix: str, cfg: HatConfig, s: StackConfig, cache_layer,
                x: np.ndarray, pos: int) -> np.ndarray:
    x = x + _attn_step(P, prefix, cfg, s, cache_layer, x, pos)
    h = rms_norm(x, cfg.norm_eps, P[f"{prefix}.mlp_norm.gain"])
    return x + swiglu_ffn(h, P[f"{prefix}.mlp.w_gate"], P[f"{prefix}.mlp.w_up"],
                          P[f"{prefix}.mlp.w_down"])


def _pool_word(P, cfg: HatConfig, states: np.ndarray) -> np.ndarray:
    nh, hs = cfg.n_enc_cross_heads, cfg.encoder.head_size
    n = states.shape[0]
    k = (states @ P["connector.wk"]).reshape(n, nh, hs)
    v = (states @ P["connector.wv"]).reshape(n, nh, hs)
    q = (P["connector.query"] @ P["connector.wq"]).reshape(nh, hs)
    return attend(q, k, v, cfg.softcap) @ P["connector.wo"]


def _dec_injections(P, cfg: HatConfig, row: np.ndarray) -> list[np.ndarray]:
    """Per-decoder-block residual contribution of the word-context read.

    The cross block attends to a single backbone row, so its output is a
    fixed vector until the next word closes."""
    inj = []
    for i in range(cfg.decoder.n_layers):
        cp = f"decoder.layers.{i}.cross"
        kvn = rms_norm(row, cfg.norm_eps, P[f"{cp}.kv_norm.gain"])
        o = (kvn @ P[f"{cp}.wv"]) @ P[f"{cp}.wo"]
        inj.append(rms_norm(o, cfg.norm_eps, P[f"{cp}.post_norm.gain"]))
    return inj


# ---------------------------------------------------------------------------
# generation session

@dataclass
class GenSession:
    params: dict
    cfg: HatConfig
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    max_new_bytes: int | None = None

    def __post_init__(self):
        cfg = self.cfg
        if self.max_new_bytes is None:
            # default byte budget: 4 bytes-per-word headroom x 8
            self.max_new_bytes = 4 * cfg.backbone.max_positions * 8
        self.rng = np.random.default_rng(self.sampling.seed)
        self._forced = deque(self.sampling.forced)
        self.enc_cache = ByteCache(cfg.encoder)
        self.dec_cache = ByteCache(cfg.decoder)
        self.word_cache = WordCache(cfg.backbone)
        self.splitter = IncrementalSplitterState(max_word_bytes=cfg.max_word_bytes)
        self.gate = Utf8Gate()
        self.prompt = b""
        self.generated = bytearray()
        self.sentinel_used = False
        self.next_pos = 0               # next byte position in the model stream
        self.pending_states: list[np.ndarray] = []  # encoder states, unpooled bytes
        self.pending_base = 0           # text offset of pending_states[0]
        self.pending_byte: int | None = None        # committed, not yet encoded
        self.pending_closes: list[WordClosed] = []
        self.consumed_spans: list[tuple[int, int]] = []  # pooled word spans
        self.inc_index: list[int] = []  # backbone row used per encoded text byte
        self.backbone_calls = 0
        self.prefill_words = 0
        self.gen_closes = 0
        self.status = "prefilling"
        self.context_row = self._backbone_advance(self.params["backbone.bos"])
        self.inject = _dec_injections(self.params, cfg, self.context_row)
        self.cur_logits: np.ndarray | None = None

    # -- backbone/word level --------------------------------------------

    def _backbone_advance(self, w_vec: np.ndarray) -> np.ndarray:
        pos = self.word_cache.rows
        if pos >= self.cfg.backbone.max_positions:
            raise SessionError("word cache exhausted: backbone position limit")
        x = w_vec
        for i in range(self.cfg.backbone.n_layers):
            x = _layer_step(self.params, f"backbone.layers.{i}", self.cfg,
                            self.cfg.backbone, self.word_cache.layers[i], x, pos)
        self.backbone_calls += 1
        return x

    def _consume_closes(self) -> None:
        for ev in self.pending_closes:
            lo, hi = ev.start - self.pending_base, ev.end - self.pending_base
            if lo < 0 or hi > len(self.pending_states):
                raise SessionError("word close outside the buffered byte states")
            states = np.stack(self.pending_states[lo:hi])
            del self.pending_states[:hi]
            self.pending_base = ev.end
            w = _pool_word(self.params, self.cfg, states)
            self.context_row = self._backbone_advance(w)
            self.consumed_spans.append((ev.start, ev.end))
        self.inject = _dec_injections(self.params, self.cfg, self.context_row)
        self.pending_closes = []

    # -- byte level -------------------------------------------------------

    def _encode_decode(self, b: int) -> None:
        cfg = self.cfg
        pos = self.next_pos
        if pos >= cfg.encoder.max_positions:
            raise SessionError("byte position limit exhausted")
        x = self.params["encoder.byte_embedding"][b]
        for i in range(cfg.encoder.n_layers):
            x = _layer_step(self.params, f"encoder.layers.{i}", cfg, cfg.encoder,
                            self.enc_cache.layers[i], x, pos)
        if b not in (BYTE_BOS, BYTE_EOS):
            self.pending_states.append(x)
            self.inc_index.append(self.word_cache.rows - 1)
        y = x
        for i in range(cfg.decoder.n_layers):
            y = y + self.inject[i]
            y = _layer_step(self.params, f"decoder.layers.{i}", cfg, cfg.decoder,
                            self.dec_cache.layers[i], y, pos)
        h = rms_norm(y, cfg.norm_eps, self.params["decoder.final_norm.gain"])
        self.cur_logits = h @ self.params["decoder.lm_head"]
        self.next_pos += 1

    def _commit_push(self, b: int) -> list[WordClosed]:
        self.gate.push(b)
        events = self.splitter.push_byte(b)
        self.generated.append(b)
        return events

    def sample(self) -> int:
        if self.cur_logits is None:
            raise SessionError("session has no logits; prefill first")
        if self.sampling.mode == "forced":
            if not self._forced:
                return BYTE_EOS
            b = self._forced.popleft()
            if not self.gate.allowed()[b]:
                raise SessionError(f"forced byte {b:#x} is not a legal continuation")
            return b
        return sample_from_logits(self.cur_logits, self.gate.allowed(),
                                  self.sampling, self.rng)

    @property
    def committed(self) -> bytes:
        """All committed text bytes (prompt plus generated, no sentinels)."""
        return self.prompt + bytes(self.generated)

    @property
    def finished(self) -> bool:
        return self.status == "finished"


def prefill(session: GenSession, prompt_bytes: bytes) -> GenSession:
    """Feed the prompt through the incremental pipeline.

    An empty prompt seeds the stream with the 0xFE sentinel so the first
    byte can be predicted from begin-of-sequence context alone."""
    if session.status != "prefilling":
        raise SessionError("session already prefilled")
    session.prompt = bytes(prompt_bytes)
    if not prompt_bytes:
        session.sentinel_used = True
        session._encode_decode(BYTE_BOS)
    else:
        for b in prompt_bytes:
            session.gate.push(b)
            events = session.splitter.push_byte(b)
            if events:
                session.pending_closes = events
                session.prefill_words += len(events)
                session._consume_closes()
            session._encode_decode(b)
        if session.gate.mid_codepoint:
            raise SessionError("prompt ends inside a multi-byte codepoint")
    session.status = "mid_word"
    return session


@dataclass(frozen=True)
class StepOutcome:
    byte: int | None              # emitted byte (None if only a word step ran)
    closes: tuple[WordClosed, ...] = ()
    finished: bool = False


def byte_phase(session: GenSession) -> StepOutcome:
    """Sample, commit, and push one byte; defer its encode if a word closed."""
    if session.finished:
        raise SessionError("session is finished")
    if session.status == "at_boundary":
        raise SessionError("session is blocked on a backbone step")
    b = session.sample()
    if b == BYTE_EOS:
        session.status = "finished"
        return StepOutcome(byte=b, finished=True)
    events = session._commit_push(b)
    if events:
        session.gen_closes += len(events)
        session.pending_closes = events
        session.pending_byte = b
        session.status = "at_boundary"
    else:
        session._encode_decode(b)
        if len(session.generated) >= session.max_new_bytes:
            session.status = "finished"
    return StepOutcome(byte=b, closes=tuple(events),
                       finished=session.finished)


def word_phase(session: GenSession) -> None:
    """Advance the backbone for pending closes and encode the deferred byte."""
    if session.status != "at_boundary":
        raise SessionError("no pending word boundary")
    session._consume_closes()
    b = session.pending_byte
    session.pending_byte = None
    session.status = "mid_word"
    session._encode_decode(b)
    if len(session.generated) >= session.max_new_bytes:
        session.status = "finished"


def step_byte(session: GenSession) -> StepOutcome:
    """One full generation step: byte phase plus any required word phase."""
    out = byte_phase(session)
    if session.status == "at_boundary":
        word_phase(session)
        return StepOutcome(byte=out.byte, closes=out.closes,
                           finished=session.finished)
    return out


def generate(session: GenSession, prompt: bytes, max_new_bytes: int | None = None) -> bytes:
    """Prefill then greedy-loop until EOS or the byte budget."""
    if max_new_bytes is not None:
        session.max_new_bytes = max_new_bytes
    prefill(session, prompt)
    while not session.finished:
        step_byte(session)
    return bytes(session.generated)


# ---------------------------------------------------------------------------
# cache accounting

@dataclass(frozen=True)
class CacheReport:
    byte_rows: int
    word_rows: int
    memory_bytes: int

    def __iter__(self):
        return iter((self.byte_rows, self.word_rows, self.memory_bytes))


def cache_report(session: GenSession) -> CacheReport:
    """Exact K/V cache row counts and their projected memory footprint."""
    cfg = session.cfg
    itemsize = session.params["encoder.byte_embedding"].dtype.itemsize
    byte_rows = session.enc_cache.rows
    word_rows = session.word_cache.rows

    def kv_bytes(stack: StackConfig, rows: int) -> int:
        return stack.n_layers * rows * 2 * stack.n_kv_heads * stack.head_size * itemsize

    mem = (kv_bytes(cfg.encoder, session.enc_cache.rows)
           + kv_bytes(cfg.decoder, session.dec_cache.rows)
           + kv_bytes(cfg.backbone, word_rows))
    return CacheReport(byte_rows, word_rows, mem)


# ---------------------------------------------------------------------------
# batched scheduling

@dataclass(frozen=True)
class BoundarySync:
    """Hold backbone steps until every unfinished session is at a boundary."""


@dataclass(frozen=True)
class FixedByteStride:
    """Backbone steps fire at tick multiples of `stride`; byte steps always run."""
    stride: int

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


Policy = BoundarySync | FixedByteStride


@dataclass(frozen=True)
class StepPlan:
    byte_steps: tuple[int, ...]
    word_steps: tuple[int, ...]

    def __post_init__(self):
        if set(self.byte_steps) & set(self.word_steps):
            raise ValueError("a session may appear in at most one list per tick")


def schedule(sessions: list[GenSession], policy: Policy, tick: int = 0) -> StepPlan:
    """Plan one tick: which sessions take byte steps vs. a batched word step."""
    if not sessions:
        raise ValueError("empty batch")
    active = [i for i, s in enumerate(sessions) if not s.finished]
    boundary = tuple(i for i in active if sessions[i].status == "at_boundary")
    mid = tuple(i for i in active if sessions[i].status == "mid_word")
    if isinstance(policy, BoundarySync):
        if active and len(boundary) == len(active):
            return StepPlan(byte_steps=(), word_steps=boundary)
        return StepPlan(byte_steps=mid, word_steps=())
    if isinstance(policy, FixedByteStride):
        words = boundary if tick % policy.stride == 0 else ()
        return StepPlan(byte_steps=mid, word_steps=words)
    raise TypeError(f"unknown policy {policy!r}")


class BatchRunner:
    """Drives a batch of sessions tick by tick and records a trace log.

    Trace format: one line per tick, `tick<TAB>s<i>=<action>[:<hex>]` per
    session, where the action is P (prefill), B (byte step, with the
    emitted byte in hex), or W (word step)."""

    def __init__(self, sessions: list[GenSession], policy: Policy):
        self.sessions = sessions
        self.policy = policy
        self.tick = 0
        self.trace: list[str] = []

    def prefill_all(self, prompts: list[bytes]) -> None:
        for s, p in zip(self.sessions, prompts):
            prefill(s, p)
        self.trace.append(
            "0\t" + " ".join(f"s{i}=P" for i in range(len(self.sessions))))
        self.tick = 1

    def run_tick(self) -> StepPlan:
        plan = schedule(self.sessions, self.policy, self.tick)
        actions = []
        for i in plan.word_steps:
            word_phase(self.sessions[i])
            actions.append(f"s{i}=W")
        for i in plan.byte_steps:
            out = byte_phase(self.sessions[i])
            suffix = f":{out.byte:02x}" if out.byte is not None else ""
            actions.append(f"s{i}=B{suffix}")
        if actions:
            self.trace.append(f"{self.tick}\t" + " ".join(actions))
        self.tick += 1
        return plan

    def run_to_completion(self, max_ticks: int = 1_000_000) -> None:
        while any(not s.finished for s in self.sessions):
            if self.tick > max_ticks:
                raise SessionError("scheduler exceeded max ticks")
            self.run_tick()

    def trace_text(self) -> str:
        return "\n".join(self.trace) + "\n"
