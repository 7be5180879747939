"""Incremental generation with dual KV caches and batched scheduling.

A session keeps per-layer byte-level K/V rings of the sliding window
(encoder and decoder; slot `pos % window`, keys rotated before caching) and
a block-grown word-level cache for the backbone. Bytes cycle through the
encoder-decoder loop; the backbone runs only when the incremental splitter
closes a word. A layer is the tape's own, on no-grad [B, hidden] rows:
`model.layer_qkv`, the read of the caches (`kernels.attend`) and
`model.layer_out`, so only the attention read differs from the batch pass.
The head is `model.head` and the word-context read is `model.word_context`.

Every step is batched over sessions: `BatchRunner.run_tick` runs one byte
step for its byte-stepping sessions (per session one sample, one splitter
push and a few list appends, then one encoder+decoder pass for the bytes
that closed no word, whose new pending states and `cur_logits` are views of
that pass's fresh arrays until it finishes) and one word step for those at a
boundary (pooling, backbone, decoder injections and the deferred byte;
several closes run in rounds), both in `_run_plan`. `byte_phase`,
`word_phase` and `step_byte` run it at batch size one on the session's own
row. A new `GenSession` only allocates (an empty word cache);
`BatchRunner.prefill_all` starts its sessions from no-grad forwards over the
pack of their prompts (`model.prompt_pass`, one per chunk of at most
`PACK_BYTES` bytes; an empty prompt is the 0xFE sentinel), once every prompt
has passed its own splitter and checks, and `prefill` is the same call with
one prompt. Each prompt is its own sequence of the pack, so a session gets
the same bits in any pack as alone. The pass encodes every byte but decodes
only each prompt's last n_layers*(window-1)+1 bytes, the rows that the
decoder ring and the last logits read. Filling the caches is a copy; they
match a byte-by-byte prefill within the 1e-4 incremental = batch tolerance.

Batch invariance is part of the contract: a session's logits have the same
bits in any batch as alone. Hence every product is gemm rows and a one-row
input is padded (:func:`hatlm.kernels.matmul`: BLAS runs one row as a gemv,
which sums in another order). `attend` reduces along the key axis only, and
a padded read sums in another order, so a session reads its word cache in
whole blocks of WORD_BLOCK rows, masked past its last: one call per block
count. A session's caches are row `row` of its `rows` (`_Rows`; byte rings
read masked until full): a one-row store until a `BatchRunner` adopts it into
the store its batch shares. Words pool through the batch pass's
`model.pool_words_var`, whose softmax and sum run within each span.

A session's prompt and output are one byte stream through one splitter,
whose UTF-8 gate masks sampling to the bytes it accepts (and the end
sentinel 0xFF at codepoint boundaries). Its word assignment is the one that
training reads (`model.forward`), and `model.next_byte_logits` is the batch
recomputation oracle.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import model
from .config import HatConfig, StackConfig
from .kernels import attend, softmax
from .splitter import BYTE_EOS, IncrementalSplitterState, SplitError, stream


class SessionError(RuntimeError):
    """A session cannot take the requested step.

    A step that runs out of byte or backbone positions, or whose forced byte
    is not a legal UTF-8 continuation, raises this before it changes any
    session. `session` is the offending session's index in its
    BatchRunner (its `s<i>` in the trace), or None for a lone session."""

    def __init__(self, message: str, session: int | None = None):
        super().__init__(message if session is None else f"s{session}: {message}")
        self.session = session


@dataclass(frozen=True)
class SamplingConfig:
    mode: str = "greedy"          # greedy | temperature | forced
    temperature: float = 1.0
    seed: int = 0
    forced: bytes = b""           # test hook: scripted output bytes

    def __post_init__(self):
        if self.mode not in ("greedy", "temperature", "forced"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.mode == "temperature" and not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and positive, got {self.temperature!r}")


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

def _ring(stack: StackConfig) -> tuple[int, ...]:
    """The K/V ring shape of a sliding-window stack: [n_layers, 2, window, n_kv, hs].

    `ring[i, 0, p % window]` holds layer i's rotated key of byte position p
    and `ring[i, 1, p % window]` its value. Slots not yet written are masked
    out of the read; softmax does not depend on key order, so the slots are
    never reordered."""
    if stack.window is None:
        raise ValueError("byte cache requires a sliding-window stack")
    return stack.n_layers, 2, stack.window, stack.n_kv_heads, stack.head_size


WORD_BLOCK = 16     # word-cache rows: a cache's growth and a backbone read's unit


@dataclass
class _Rows:
    """The caches of N sessions, one row each: byte rings,
    [N, n_layers, 2, window, n_kv, hs] per stack (`_ring`), decoder
    injections, [N, n_dec_layers, h_dec], and word caches,
    [N, n_bb_layers, 2, C, n_kv, hs]. A word cache `words[j, i, 0, :n]` holds
    layer i's rotated keys of its n word positions and `words[j, i, 1, :n]`
    their values, zeros after them; C, a multiple of WORD_BLOCK, is grown
    for every row at once."""
    enc: np.ndarray
    dec: np.ndarray
    inject: np.ndarray
    words: np.ndarray

    @classmethod
    def zeros(cls, cfg: HatConfig, dtype, n: int, c: int) -> _Rows:
        """n rows of zeros, with word caches of c positions."""
        d, bb = cfg.decoder, cfg.backbone
        return cls(np.zeros((n, *_ring(cfg.encoder)), dtype), np.zeros((n, *_ring(d)), dtype),
                   np.zeros((n, d.n_layers, d.hidden), dtype),
                   np.zeros((n, bb.n_layers, 2, c, bb.n_kv_heads, bb.head_size), dtype))

    def grow(self, rows: int) -> None:
        """Unless every word cache holds `rows` positions, zero-pad them all to
        hold `rows` and at least half as many again, in whole WORD_BLOCKs."""
        c = self.words.shape[3]
        if c < rows:
            pad = -(-max(rows, c * 3 // 2) // WORD_BLOCK) * WORD_BLOCK - c
            self.words = np.pad(self.words, [(0, 0)] * 3 + [(0, pad), (0, 0), (0, 0)])


# ---------------------------------------------------------------------------
# one new position per session, batched over sessions (the batch pass's layer)

def _byte_stack(P, name: str, cfg: HatConfig, kv: np.ndarray, rows: slice | np.ndarray,
                x: np.ndarray, pos: np.ndarray,
                inject: np.ndarray | None = None) -> np.ndarray:
    """One byte per row through the encoder or the decoder.

    Row j sits at byte position pos[j] of ring kv[rows][j] (`_Rows.enc` or
    `.dec`). Each layer writes its new K/V slots straight into `kv` and reads
    the window from `kv[rows, i]` (a view if `rows` is a slice, else one
    gather of that layer), masked until every ring read is full. `inject` ([B, n_layers, hidden]) is added before each
    decoder layer."""
    s = getattr(cfg, name)
    r, slot = np.arange(len(kv))[rows], pos % s.window
    valid = None if pos.min() >= s.window - 1 else np.arange(s.window) <= pos[:, None]
    rot = model.rope_rows(s, pos[:, None], x.dtype)
    for i in range(s.n_layers):
        prefix = f"{name}.layers.{i}"
        if inject is not None:
            x = x + inject[:, i]
        qk, v = model.layer_qkv(P, prefix, s, cfg, x, rot)
        kv[r, i, 0, slot] = qk[:, s.n_heads:]
        kv[r, i, 1, slot] = v
        ring = kv[rows, i]                          # [B, 2, W, n_kv, hs]
        o = attend(qk[:, :s.n_heads], ring[:, 0], ring[:, 1], cfg.softcap, valid)
        x = model.layer_out(P, prefix, cfg, x, o)
    return x


def _groups(keys: list[int]) -> list[list[int]]:
    """Indices of equal keys, by first appearance (a dict: the first
    `np.unique` call in a process adds about 1.7 MiB of resident memory)."""
    out: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return list(out.values())


def _word_stack(sessions: list[GenSession], batch: _Rows, rows: list[int],
                x: np.ndarray) -> np.ndarray:
    """One new backbone position n per session, whose word cache is row rows[j]
    of batch.words. Each layer writes the new K/V there, then reads each row's
    first (n // WORD_BLOCK + 1) * WORD_BLOCK slots, masked past n: one `attend`
    per block count (a view of a run of rows, else a gather), never padded further."""
    P, cfg = sessions[0].params, sessions[0].cfg
    bb, words = cfg.backbone, batch.words
    n = [s.word_rows for s in sessions]
    r, slot = np.array(rows), np.array(n)
    reads = []
    for g in _groups([k // WORD_BLOCK for k in n]):
        rg, m = [rows[j] for j in g], (n[g[0]] // WORD_BLOCK + 1) * WORD_BLOCK
        at = slice(rg[0], rg[0] + len(g)) if rg == list(range(rg[0], rg[0] + len(g))) else r[g]
        valid = None if all(n[j] == m - 1 for j in g) else np.arange(m) <= slot[g][:, None]
        reads.append((g if len(g) < len(n) else slice(None), at, m, valid))   # a view if all
    rot = model.rope_rows(bb, slot[:, None], x.dtype)
    for i in range(bb.n_layers):
        prefix = f"backbone.layers.{i}"
        qk, v = model.layer_qkv(P, prefix, bb, cfg, x, rot)
        words[r, i, 0, slot] = qk[:, bb.n_heads:]
        words[r, i, 1, slot] = v
        o = np.empty((len(sessions), bb.n_heads * bb.head_size), x.dtype)
        for g, at, m, valid in reads:
            kv = words[at, i, :, :m]                    # [G, 2, m, n_kv, hs]
            o[g] = attend(qk[g, :bb.n_heads], kv[:, 0], kv[:, 1], cfg.softcap, valid)
        x = model.layer_out(P, prefix, cfg, x, o)
    for s in sessions:
        s.word_rows += 1
        s.backbone_calls += 1
    return x


# ---------------------------------------------------------------------------
# generation session

@dataclass
class GenSession:
    """One generation stream. Its caches are row `row` of `rows`: a one-row
    `_Rows` from birth, or the store that a `BatchRunner` which adopted it
    shares among its sessions. `enc_ring`, `dec_ring`, `inject` (zeros until
    prefill; `cur_logits is None` marks a session not yet prefilled) and
    `words`, whose first `word_rows` positions are written, are views of that
    row. So deep-copying one session copies all of its batch's arrays;
    deep-copying a whole runner gives its sessions one copy through the memo."""
    params: dict
    cfg: HatConfig
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    max_new_bytes: int | None = None

    def __post_init__(self):
        cfg, P = self.cfg, self.params
        if self.max_new_bytes is None:
            # default byte budget: 4 bytes-per-word headroom x 8
            self.max_new_bytes = 4 * cfg.backbone.max_positions * 8
        if self.max_new_bytes < 0:
            raise ValueError(f"max_new_bytes must be >= 0, got {self.max_new_bytes}")
        self.rng = np.random.default_rng(self.sampling.seed)
        self._forced = deque(self.sampling.forced)
        self.rows = _Rows.zeros(cfg, P["encoder.byte_embedding"].dtype, 1, 0)
        self.row = 0
        self.word_rows = 0
        self.splitter = IncrementalSplitterState(max_word_bytes=cfg.max_word_bytes)
        self.prompt = b""
        self.generated = bytearray()
        self.sentinel_used = False
        self.next_pos = 0               # next byte position in the model stream
        self.pending_states: list[np.ndarray] = []  # encoder states, unpooled bytes
        self.pending_base = 0           # text offset of pending_states[0]
        self.pending_byte: int | None = None        # committed, not yet encoded
        self.pending_closes: list[tuple[int, int]] = []
        self.consumed_spans: list[tuple[int, int]] = []  # pooled word spans
        self.inc_index: list[int] = []  # backbone row used per encoded text byte
        self.backbone_calls = 0
        self.prefill_words = 0
        self.gen_closes = 0
        self.status = "prefilling"
        self.cur_logits: np.ndarray | None = None

    enc_ring = property(lambda self: self.rows.enc[self.row])
    dec_ring = property(lambda self: self.rows.dec[self.row])
    inject = property(lambda self: self.rows.inject[self.row])   # [decoder layers, hidden]
    words = property(lambda self: self.rows.words[self.row])     # [bb layers, 2, C, n_kv, hs]

    def _take_span(self, span: tuple[int, int]) -> list[np.ndarray]:
        """Remove and return the buffered encoder states of a closed word,
        one [hidden] row per byte."""
        start, end = span
        lo, hi = start - self.pending_base, end - self.pending_base
        if lo < 0 or hi > len(self.pending_states):
            raise SessionError("word close outside the buffered byte states")
        states = self.pending_states[lo:hi]
        del self.pending_states[:hi]
        self.pending_base = end
        self.consumed_spans.append(span)
        return states

    def check_sample(self, index: int | None = None) -> None:
        """Raise SessionError (naming session `index`) unless `sample` can
        run: the session has logits, and a forced byte is legal under the
        UTF-8 gate. Changes nothing."""
        if self.cur_logits is None:
            raise SessionError("session has no logits; prefill first", index)
        if self.sampling.mode == "forced" and self._forced:
            b = self._forced[0]
            if not self.splitter.gate.admits(b):
                raise SessionError(f"forced byte {b:#x} is not a legal continuation",
                                   index)

    def peek(self, rng) -> int:
        """The byte `sample` picks next if it draws from `rng`; pops nothing."""
        if self.sampling.mode == "forced":
            return self._forced[0] if self._forced else BYTE_EOS
        return sample_from_logits(self.cur_logits, self.splitter.gate.allowed(),
                                  self.sampling, rng)

    def sample(self) -> int:
        """Pick and take the next byte. The caller has run `check_sample`
        (every step does, in `_run_plan`, before any session changes): the
        session has logits and a forced byte is legal."""
        if self.sampling.mode == "forced":
            return self._forced.popleft() if self._forced else BYTE_EOS
        return self.peek(self.rng)

    @property
    def committed(self) -> bytes:
        """All committed text bytes (prompt plus generated, no sentinels)."""
        return self.prompt + bytes(self.generated)

    @property
    def finished(self) -> bool:
        return self.status == "finished"


def _check_room(s: GenSession, closes: int, index: int | None = None) -> None:
    """Raise SessionError unless `s` has a byte position for one more byte and
    backbone positions for `closes` more words."""
    cfg = s.cfg
    limit = model.byte_limit(cfg)
    if s.next_pos >= limit:
        raise SessionError(f"byte positions exhausted ({limit})", index)
    if s.word_rows + closes > cfg.backbone.max_positions:
        raise SessionError(
            f"backbone positions exhausted ({cfg.backbone.max_positions})", index)


def _check_byte_step(s: GenSession, index: int | None) -> None:
    """Raise SessionError (naming session `index`) unless `s` can sample its
    next byte and has positions for it and the words it closes (at least
    one). A push closes at most `len(buf)` words, since every span it closes
    lies in the unclosed text before the pushed byte; only near the limit is
    the pick pushed into a copy of the splitter to count them."""
    _check_room(s, 1, index)
    s.check_sample(index)
    if s.word_rows + len(s.splitter.buf) > s.cfg.backbone.max_positions:
        b = s.peek(copy.deepcopy(s.rng))
        if b != BYTE_EOS:
            _check_room(s, len(copy.deepcopy(s.splitter).push_byte(b)), index)


# ---------------------------------------------------------------------------
# batched steps: every public step below is `_run_plan` at batch size one

def _finish(s: GenSession) -> None:
    """Finish `s`, copying its rows of step arrays, so that it keeps none alive."""
    s.status, s.cur_logits = "finished", s.cur_logits.copy()
    s.pending_states = [state.copy() for state in s.pending_states]


def _encode_decode(sessions: list[GenSession], byte_vals: list[int], batch: _Rows,
                   rows: list[int]) -> None:
    """Encode and decode the committed text byte byte_vals[j] for sessions[j]
    in one step; a session that has used its budget finishes."""
    if not sessions:
        return
    P, cfg = sessions[0].params, sessions[0].cfg
    pos = np.array([s.next_pos for s in sessions])
    sel = slice(None) if len(rows) == len(batch.enc) else np.array(rows)   # ascending
    x = _byte_stack(P, "encoder", cfg, batch.enc, sel, P["encoder.byte_embedding"][byte_vals], pos)
    y = _byte_stack(P, "decoder", cfg, batch.dec, sel, x, pos, batch.inject[sel])
    for s, state, row in zip(sessions, x, model.head(P, cfg, y)):
        s.pending_states.append(state)
        s.inc_index.append(s.word_rows - 1)
        s.cur_logits = row
        s.next_pos += 1
        s.status = "mid_word"
        if len(s.generated) >= s.max_new_bytes:
            _finish(s)


def _consume_closes(sessions: list[GenSession], batch: _Rows, rows: list[int]) -> None:
    """Pool and step the backbone once per pending close, then refresh the
    decoder injections in place. Round r takes the r-th close of every
    session that has one, so a session's words still go through in order,
    and pools them in one `model.pool_words_var` call over the stack of
    their states, which the spans tile."""
    P, cfg = sessions[0].params, sessions[0].cfg
    last = np.empty((len(sessions), cfg.backbone.hidden), P["backbone.bos"].dtype)
    for r in range(max(len(s.pending_closes) for s in sessions)):
        idx = [j for j, s in enumerate(sessions) if len(s.pending_closes) > r]
        group = [sessions[j] for j in idx]
        states, spans = [], []
        for s in group:
            span = s._take_span(s.pending_closes[r])
            spans.append((len(states), len(states) + len(span)))
            states += span
        words = model.pool_words_var(P, cfg, np.stack(states), spans)
        last[idx] = _word_stack(group, batch, [rows[j] for j in idx], words)
    for i, c in enumerate(model.word_context(P, cfg, last)):
        batch.inject[rows, i] = c
    for s in sessions:
        s.pending_closes = []


def _byte_steps(sessions: list[GenSession], batch: _Rows, rows: list[int]) -> list[int]:
    """Sample and commit one byte per session, then encode the bytes that
    closed no word in one step; the others wait for a word step. Returns
    each session's byte."""
    picks, todo, vals, todo_rows = [], [], [], []
    for s, r in zip(sessions, rows):
        b = s.sample()
        picks.append(b)
        if b == BYTE_EOS:
            _finish(s)
            continue
        events = s.splitter.push_byte(b)
        s.generated.append(b)
        if events:
            s.gen_closes += len(events)
            s.pending_closes = events
            s.pending_byte = b
            s.status = "at_boundary"
        else:
            todo.append(s)
            vals.append(b)
            todo_rows.append(r)
    _encode_decode(todo, vals, batch, todo_rows)
    return picks


def _word_steps(sessions: list[GenSession], batch: _Rows, rows: list[int]) -> None:
    """Consume every session's pending closes, then encode the deferred bytes."""
    _consume_closes(sessions, batch, rows)
    byte_vals = [s.pending_byte for s in sessions]
    for s in sessions:
        s.pending_byte = None
    _encode_decode(sessions, byte_vals, batch, rows)


def _run_plan(sessions: list[GenSession], plan: StepPlan, batch: _Rows,
              named: bool = True) -> list[int]:
    """Run one tick of `plan` over `sessions`, each at its own `row` of
    `batch`: the word step first, then the byte step. Returns the bytes that
    the byte-stepping sessions emitted, in plan order.

    Every planned session's positions, and whether each byte-stepping
    session can sample and has room for the words its byte closes (see
    `_check_byte_step`), are checked before any session changes: no script
    byte is taken and no RNG is drawn from. So a SessionError (naming
    session i if `named`) leaves every session as it was."""
    words = [sessions[i] for i in plan.word_steps]
    steps = [sessions[i] for i in plan.byte_steps]
    for i, s in zip(plan.word_steps, words):
        _check_room(s, len(s.pending_closes), i if named else None)
    if steps:   # inline far from every limit; near one, or refused, the full check
        cfg = steps[0].cfg
        limit, room = model.byte_limit(cfg), cfg.backbone.max_positions
        for i, s in zip(plan.byte_steps, steps):
            f = s._forced
            if (s.next_pos >= limit or s.word_rows + len(s.splitter.buf) >= room
                    or s.cur_logits is None or f and not s.splitter.gate.admits(f[0])):
                _check_byte_step(s, i if named else None)
    if words:
        batch.grow(max(s.word_rows + len(s.pending_closes) for s in words))
        _word_steps(words, batch, [s.row for s in words])
    return _byte_steps(steps, batch, [s.row for s in steps])


# Prompt bytes per prefill forward, which holds all its activations at once
# (about 1 MiB per KiB of prompt, micro); a wave of 64 chat prompts fits.
PACK_BYTES = 8192


def _prefill(sessions: list[GenSession], prompts: list[bytes],
             indices: list[int | None]) -> None:
    """Prefill sessions[b] with prompts[b], one forward per PACK_BYTES chunk,
    once every prompt passed its checks (a SessionError names indices[b])."""
    streams = []
    for s, p, i in zip(sessions, prompts, indices):
        if s.status != "prefilling":
            raise SessionError("session already prefilled", i)
        cfg, limit = s.cfg, model.byte_limit(s.cfg)
        if len(p) > limit:
            raise SessionError(f"prompt of {len(p)} bytes exceeds the byte positions ({limit})", i)
        try:
            splitter, closes, inc_index = stream(p, cfg.max_word_bytes)
        except SplitError as exc:
            raise SessionError(str(exc), i) from None
        if splitter.gate.need:
            raise SessionError("prompt ends inside a multi-byte codepoint", i)
        if len(closes) + 1 > cfg.backbone.max_positions:
            raise SessionError(f"backbone positions exhausted ({cfg.backbone.max_positions})", i)
        streams.append((splitter, closes, inc_index))
    a = size = 0
    for j, p in enumerate(prompts, 1):
        size += len(p)
        if j == len(prompts) or size + len(prompts[j]) > PACK_BYTES:
            _fill(sessions[a:j], prompts[a:j], streams[a:j])
            a, size = j, 0


def _fill(sessions: list[GenSession], prompts: list[bytes], streams: list[tuple]) -> None:
    """Fill checked sessions' rows from one `model.prompt_pass` over their
    prompts, growing the word caches once for the pack."""
    P, cfg = sessions[0].params, sessions[0].cfg
    passes = model.prompt_pass(P, cfg, [(p, sp, index, not p) for p, (_, sp, index)
                                        in zip(prompts, streams)])
    need = max(len(sp) for _, sp, _ in streams) + 1
    for s in sessions:          # a no-op after the first of sessions that share rows
        s.rows.grow(need)
    for s, p, (splitter, sp, index), fw in zip(sessions, prompts, streams, passes):
        n, m, rows = len(p), len(fw.byte_states), len(sp) + 1
        for ring, kv, w in ((s.enc_ring, fw.encoder_kv, cfg.encoder.window),
                            (s.dec_ring, fw.decoder_kv, cfg.decoder.window)):
            ring[:, :, np.arange(max(0, m - w), m) % w] = kv
        s.words[:, :, :rows] = fw.backbone_kv
        s.word_rows = rows
        s.inject[:] = fw.inject
        s.pending_base = sp[-1][1] if sp else 0
        s.pending_states = list(fw.byte_states[s.pending_base:n].copy())
        s.consumed_spans = sp
        s.inc_index = index
        s.cur_logits = fw.logits.copy()
        s.next_pos = m
        s.prefill_words = len(sp)
        s.backbone_calls += rows
        s.sentinel_used = not p
        s.splitter = splitter
        s.prompt = bytes(p)
        s.status = "mid_word" if s.max_new_bytes > 0 else "finished"


def prefill(session: GenSession, prompt_bytes: bytes) -> GenSession:
    """Fill the session's caches from one no-grad forward over the prompt:
    `BatchRunner.prefill_all` with one prompt (see the module docstring).

    A prompt that is not valid UTF-8, ends inside a codepoint or needs more
    positions than the model has raises SessionError before the session
    changes. An empty prompt runs as the 0xFE sentinel, which is not text."""
    _prefill([session], [prompt_bytes], [None])
    return session


def byte_phase(session: GenSession) -> int:
    """Sample, commit, and push one byte, and return it; defer its encode if
    a word closed. The byte step of `_run_plan` on the session's own row.

    Needs a free byte position, a byte it can sample and a backbone position
    for each word that byte closes (at least one); without them it raises
    SessionError and changes nothing."""
    if session.finished:
        raise SessionError("session is finished")
    if session.status == "at_boundary":
        raise SessionError("session is blocked on a backbone step")
    return _run_plan([session], StepPlan((0,), ()), session.rows, named=False)[0]


def word_phase(session: GenSession) -> None:
    """Advance the backbone for pending closes and encode the deferred byte:
    the word step of `_run_plan` on the session's own row.

    Without a byte position and a backbone position per pending close it
    raises SessionError and changes nothing."""
    if session.status != "at_boundary":
        raise SessionError("no pending word boundary")
    _run_plan([session], StepPlan((), (0,)), session.rows, named=False)


def step_byte(session: GenSession) -> int:
    """One full generation step, returning the emitted byte: `byte_phase`
    plus any required `word_phase`."""
    b = byte_phase(session)
    if session.status == "at_boundary":
        word_phase(session)
    return b


def generate(session: GenSession, prompt: bytes) -> bytes:
    """Prefill then loop until EOS or the session's byte budget."""
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
    byte_rows = min(session.next_pos, cfg.encoder.window)
    word_rows = session.word_rows

    def kv_bytes(stack: StackConfig, rows: int) -> int:
        return stack.n_layers * rows * 2 * stack.n_kv_heads * stack.head_size * itemsize

    mem = (kv_bytes(cfg.encoder, byte_rows)
           + kv_bytes(cfg.decoder, min(session.next_pos, cfg.decoder.window))
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
    status = [s.status for s in sessions]
    boundary = tuple(i for i, x in enumerate(status) if x == "at_boundary")
    mid = tuple(i for i, x in enumerate(status) if x == "mid_word")
    if isinstance(policy, BoundarySync):   # every unfinished session at a boundary
        if boundary and len(boundary) == len(status) - status.count("finished"):
            return StepPlan(byte_steps=(), word_steps=boundary)
        return StepPlan(byte_steps=mid, word_steps=())
    if isinstance(policy, FixedByteStride):
        words = boundary if tick % policy.stride == 0 else ()
        return StepPlan(byte_steps=mid, word_steps=words)
    raise TypeError(f"unknown policy {policy!r}")


class BatchRunner:
    """Drives a batch of sessions tick by tick and records a trace log.

    A tick runs one batched word step for its `word_steps` sessions and one
    batched byte step for its `byte_steps` sessions (see `run_tick`). All
    sessions must share one model: the same `params` and `cfg` objects.

    The runner owns its sessions' caches: session i's `rows` is the runner's
    `_Rows` and its `row` is i. It adopts them (copies each session's row
    into a fresh `_Rows` and points the session at its row there, so a
    session that left keeps its old row) when it is built, and again at the
    top of a tick if `sessions` changed (a deep copy, a session added,
    removed or reordered).

    Trace format: one line per tick, `tick<TAB>s<i>=<action>[:<hex>]` per
    session, where the action is P (prefill), B (byte step, with the
    emitted byte in hex), or W (word step)."""

    def __init__(self, sessions: list[GenSession], policy: Policy):
        self.sessions = sessions
        self.policy = policy
        self.tick = 0
        self.trace: list[str] = []
        self._adopt()

    def _adopted(self) -> bool:
        return all(s.rows is self._rows and s.row == i for i, s in enumerate(self.sessions))

    def _adopt(self) -> None:
        ss = self.sessions
        if any(s.params is not ss[0].params or s.cfg is not ss[0].cfg for s in ss):
            raise ValueError("a batch runs one model: every session needs the "
                             "same params and cfg objects")
        self._rows = rows = _Rows.zeros(ss[0].cfg, ss[0].enc_ring.dtype, len(ss), max(
            s.words.shape[2] for s in ss)) if ss else None
        for i, s in enumerate(ss):
            rows.enc[i], rows.dec[i], rows.inject[i] = s.enc_ring, s.dec_ring, s.inject
            rows.words[i, :, :, :s.words.shape[2]] = s.words
            s.rows, s.row = rows, i

    def prefill_all(self, prompts: list[bytes]) -> None:
        """Prefill session i with prompts[i] from one forward (see `prefill`);
        a SessionError (naming the session) leaves every session fresh."""
        if len(prompts) != len(self.sessions):
            raise ValueError(f"{len(prompts)} prompts for {len(self.sessions)} sessions")
        _prefill(self.sessions, prompts, list(range(len(prompts))))
        self.trace.append(
            "0\t" + " ".join(f"s{i}=P" for i in range(len(self.sessions))))
        self.tick = 1

    def run_tick(self) -> StepPlan:
        """Plan one tick and run it with `_run_plan`: the word step first,
        then the byte step. A SessionError (naming the session) leaves the
        whole batch as it was; so does the ValueError of sessions that do
        not share one model."""
        if not self._adopted():
            self._adopt()
        plan = schedule(self.sessions, self.policy, self.tick)
        picks = _run_plan(self.sessions, plan, self._rows)
        actions = [f"s{i}=W" for i in plan.word_steps]
        actions += [f"s{i}=B:{b:02x}" for i, b in zip(plan.byte_steps, picks)]
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
