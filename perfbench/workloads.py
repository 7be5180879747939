"""Seeded inputs, timed work units and correctness gates of the benchmark.

Inputs come only from `data/english_sample.txt` and `data/german_sample.txt`
and the workload seed. The seed picks where windows start; the share of
each language in a workload is fixed, because the cost per byte depends on
word density (a 1 KB English window has about 30% more words, and so more
backbone work, than a German one). The model is the `micro`
config with `init_params(seed=1234)`. Generation is scripted: each session
gets `SamplingConfig("forced")` bytes cut from the same text as its prompt,
so the emitted bytes, every word close and every backbone call depend only
on the seed.

A workload runs in *units*: `chat_b64` runs two waves of 64 sessions,
`solo_long` one long session, `train_1k` one short training run plus
no-grad eval passes. A unit always does the same work for a given seed.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hatlm import config, infer, model, train
from hatlm.infer import BatchRunner, BoundarySync, GenSession, SamplingConfig, SessionError
from hatlm.splitter import IncrementalSplitterState

MODEL_SEED = 1234
CORPUS_FILES = ("english_sample.txt", "german_sample.txt")
ORACLE_TOL = 1e-4
MAX_TICKS = 1_000_000
PREFILL_POOL = 3   # prefill pieces pooled on each side (see pooled_prefill)
WS = b" \t\n\r"


class GateError(AssertionError):
    """A correctness gate failed: the program's output is wrong."""


def load_texts(root: Path) -> list[bytes]:
    """The English and the German sample."""
    return [(root / "data" / f).read_bytes() for f in CORPUS_FILES]


def word_starts(text: bytes) -> list[int]:
    """Offsets of the first byte of each whitespace-delimited word."""
    return [i for i in range(len(text))
            if text[i] not in WS and (i == 0 or text[i - 1] in WS)]


def cp_floor(text: bytes, i: int) -> int:
    """Largest codepoint boundary <= i."""
    while 0 < i < len(text) and 0x80 <= text[i] <= 0xBF:
        i -= 1
    return i


def non_ascii_share(chunks) -> float:
    total = sum(len(c) for c in chunks)
    return sum(b >= 0x80 for c in chunks for b in c) / total if total else 0.0


# ---------------------------------------------------------------------------
# generation workloads

@dataclass(frozen=True)
class GenSizes:
    waves: int
    sessions: int      # per wave; prompt lengths are a permutation of
    prompt_min: int    # prompt_min .. prompt_min + sessions - 1
    script: int        # forced continuation bytes per session
    checked_solo: int  # sessions re-run alone for the batch-invariance gate
    jitter: int = 0    # > 0: one window within +-jitter of half-English, half-German
    forks: int = 1     # generation phases run per prefill, from copies of its state


GEN_SIZES = {
    "chat_b64": GenSizes(waves=2, sessions=64, prompt_min=32, script=64, checked_solo=3),
    "solo_long": GenSizes(waves=1, sessions=1, prompt_min=2048, script=256,
                          checked_solo=0, jitter=256, forks=2),
}
GEN_TINY = {
    "chat_b64": GenSizes(waves=2, sessions=4, prompt_min=32, script=12, checked_solo=1),
    "solo_long": GenSizes(waves=1, sessions=1, prompt_min=300, script=24,
                          checked_solo=0, jitter=64, forks=2),
}


def _pair(text: bytes, start: int, n: int, script: int) -> tuple[bytes, bytes]:
    e = cp_floor(text, start + n)
    return text[start:e], text[e:cp_floor(text, e + script)]


def gen_inputs(texts: list[bytes], sizes: GenSizes, seed: int) -> list[list[tuple[bytes, bytes]]]:
    """Per wave, (prompt, script) pairs; prompts start at word starts.

    Sessions alternate English and German; the English ones take a seeded
    permutation of the even prompt lengths and the German ones of the odd
    lengths, so every wave prefills the same bytes of each language up to
    codepoint rounding. With `jitter`, the single window instead starts
    within +-jitter bytes of where it would be half English, half German."""
    rng = np.random.default_rng(seed)
    n, lo = sizes.sessions, sizes.prompt_min
    longest = lo + n - 1 + sizes.script
    if sizes.jitter:
        joined = b"\n".join(texts)
        mid = len(texts[0]) + 1 - lo // 2
        starts = [s for s in word_starts(joined) if abs(s - mid) <= sizes.jitter]
        s = starts[int(rng.integers(len(starts)))]
        return [[_pair(joined, s, lo, sizes.script)] for _ in range(sizes.waves)]
    starts = [[s for s in word_starts(t) if s + longest <= len(t)] for t in texts]
    waves = []
    for _ in range(sizes.waves):
        lengths = np.empty(n, dtype=np.int64)
        lengths[0::2] = rng.permutation(np.arange(lo, lo + n, 2))
        lengths[1::2] = rng.permutation(np.arange(lo + 1, lo + n, 2))
        pairs = []
        for i, length in enumerate(lengths):
            text, ok = texts[i % 2], starts[i % 2]
            pairs.append(_pair(text, ok[int(rng.integers(len(ok)))], int(length),
                               sizes.script))
        waves.append(pairs)
    return waves


def new_session(params, cfg, script: bytes) -> GenSession:
    return GenSession(params, cfg, SamplingConfig("forced", forced=script),
                      max_new_bytes=len(script))


class CallClock:
    """Marks each entry into one function or method while open, to cut a
    long call (`prefill_all`, `train_loop`) into per-byte or per-step
    pieces. At each entry it reads the clock, lets `speed` probe the machine
    if one is given, and reads the clock again, so the probe falls between
    two pieces and in neither. The wrapper is removed on exit."""

    def __init__(self, owner, attr: str, note=None, speed: "Speed | None" = None):
        self.owner, self.attr, self.note, self.speed = owner, attr, note, speed
        self.marks: list[tuple[float, float]] = []
        self.notes: list = []

    def __enter__(self) -> "CallClock":
        self._orig = self.owner.__dict__[self.attr]
        marks, notes, note, speed = self.marks, self.notes, self.note, self.speed
        orig = getattr(self.owner, self.attr)

        def timed(*args, **kwargs):
            a = perf_counter()
            if speed is not None:
                speed.catch_up()
            marks.append((a, perf_counter()))
            result = orig(*args, **kwargs)
            if note is not None:
                notes.append(note(args, result))
            return result

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self._orig)

    def spans(self, start: float, end: float, n: int | None = None) -> list:
        """(start, end) of the piece before the first of the first `n`
        marks, of the piece after each of them, the last one up to `end`."""
        marks = self.marks[:n]
        edges = [start] + [x for m in marks for x in m] + [end]
        return list(zip(edges[0::2], edges[1::2]))


class Speed:
    """The machine's speed around each timed call.

    `sample` times two fixed probes that do not touch hatlm: interpreter
    work with tiny numpy operations (~0.7 ms on a quiet machine), the kind
    of work that dominates generation, and, when `array_share` > 0, a
    softmax over a 1024x256 array (~0.8 ms), the kind that dominates
    training. It keeps their times over REFERENCE_PROBE_S and
    REFERENCE_ARRAY_S, weighted by 1 - array_share and array_share: how
    much slower than the reference the machine runs such work. On a shared
    machine the host's speed changes by up to half within seconds, and the
    probes slow down with the workload. So the run probes between timed
    calls, about once per PROBE_GAP_S of work (`catch_up`), and
    `reference_s` brings each call to the reference speed with the median
    of the NEIGHBOURS probes taken nearest to it: a call that took d where
    the machine ran r times slower than the reference counts as d / r."""

    REFERENCE_PROBE_S = 700e-6
    REFERENCE_ARRAY_S = 800e-6
    PROBE_GAP_S = 0.01
    MAX_BURST = 8
    NEIGHBOURS = 41

    def __init__(self, array_share: float = 0.0):
        self.array_share = array_share
        self.at: list[float] = []    # clock at the end of each probe
        self.took: list[float] = []  # slowness against the reference
        self._w = np.full((16, 64), 0.01, dtype=np.float32)
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((1024, 16)).astype(np.float32)
        self._v = (0.1 * rng.standard_normal((16, 256))).astype(np.float32)

    def sample(self) -> None:
        t0 = perf_counter()
        x = np.ones((1, 16), dtype=np.float32)
        for _ in range(60):
            h = x @ self._w
            h = h / np.sqrt((h * h).mean() + 1e-5)
            x = h[:, :16]
        acc = 0
        for i in range(3000):
            acc += i * i
        t1 = perf_counter()
        slow = (t1 - t0) / self.REFERENCE_PROBE_S
        if self.array_share > 0:
            z = self._x @ self._v
            e = np.exp(z - z.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            t2 = perf_counter()
            slow += self.array_share * ((t2 - t1) / self.REFERENCE_ARRAY_S - slow)
            t1 = t2
        self.at.append(t1)
        self.took.append(slow)

    def catch_up(self) -> None:
        """Probe once per PROBE_GAP_S since the last probe (at most
        MAX_BURST times, and once when there was none)."""
        n = round((perf_counter() - self.at[-1]) / self.PROBE_GAP_S) if self.at else 1
        for _ in range(min(n, self.MAX_BURST)):
            self.sample()

    def reference_s(self, spans) -> np.ndarray:
        """Durations of the (start, end) spans, at the reference speed."""
        spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
        took = np.asarray(self.took)
        k = min(self.NEIGHBOURS, len(took))
        # median of each window of k consecutive probes
        local = np.median(np.lib.stride_tricks.sliding_window_view(took, k), axis=1)
        mid = np.searchsorted(self.at, spans.mean(axis=1))
        first = np.clip(mid - k // 2, 0, len(took) - k)
        return (spans[:, 1] - spans[:, 0]) / local[first]


def push_closes(args, events) -> int:
    return len(events)


def completes_codepoint(pairs) -> list:
    """Per prompt byte, in prefill order: whether it completes a codepoint,
    which is when push_byte re-splits the buffer."""
    return [j + 1 == len(p) or not 0x80 <= p[j + 1] <= 0xBF
            for p, _ in pairs for j in range(len(p))]


def pooled_prefill(pieces: list, kind: list) -> float:
    """Prefill time of one wave from its pieces' timings in every repeat.

    Piece k (push k, plus the encode and any word step after it) counts as
    the median of its timings and those of the pieces within +-PREFILL_POOL
    of it whose push did the same kind of work. Those differ only by a few
    bytes of buffer length, which changes a 2 KB re-split by well under
    1%."""
    n = len(pieces)
    if len(kind) != n:  # prefill failed part-way
        return float(sum(np.median(p) for p in pieces))
    w = PREFILL_POOL
    return float(sum(np.median(np.concatenate(
        [pieces[j] for j in range(max(0, k - w), min(n, k + w + 1)) if kind[j] == kind[k]]))
        for k in range(n)))


@dataclass
class GenPhase:
    """The generation phase of one wave: ticks after prefill_all."""
    sessions: list
    ticks: list = field(default_factory=list)        # (start, end) of each run_tick
    emit_ticks: list = field(default_factory=list)   # per session: ticks that emitted
    sched: dict = field(default_factory=dict)


@dataclass
class WaveResult:
    build: tuple        # (start, end) of constructing the sessions
    prefill: list       # (start, end) of each piece of prefill_all, cut at each push
    prefill_kind: list  # per piece: (push re-split, words it closed); None first
    phases: list        # GenPhase per fork; the first ran on the original sessions

    @property
    def sessions(self) -> list:
        return self.phases[0].sessions


def run_gen(runner: BatchRunner, observe: bool, speed: Speed | None) -> GenPhase:
    """Tick the runner until every session finished, timing each tick.

    A byte counts as emitted when the `run_tick` that produced it returns,
    which is when a caller of the scheduler can first hand it out. With
    `observe`, it also reads each StepPlan and the session states between
    ticks for the scheduler's per-layer numbers."""
    sessions = runner.sessions
    n = len(sessions)
    ph = GenPhase(sessions, [], [[] for _ in range(n)])
    counts = [len(s.generated) for s in sessions]
    byte_batches, word_batches, waits = [], [], []
    waiting = [0] * n
    try:
        while any(not s.finished for s in sessions):
            if runner.tick > MAX_TICKS:
                raise SessionError("scheduler exceeded max ticks")
            a = perf_counter()
            plan = runner.run_tick()
            ph.ticks.append((a, perf_counter()))
            if speed is not None:
                speed.catch_up()
            k = len(ph.ticks) - 1
            for i in plan.byte_steps:
                g = len(sessions[i].generated)
                if g > counts[i]:
                    counts[i] = g
                    ph.emit_ticks[i].append(k)
            if observe:
                if plan.byte_steps:
                    byte_batches.append(len(plan.byte_steps))
                if plan.word_steps:
                    word_batches.append(len(plan.word_steps))
                for i in plan.word_steps:
                    waits.append(waiting[i])
                    waiting[i] = 0
                for i, s in enumerate(sessions):
                    if s.status == "at_boundary":
                        waiting[i] += 1
    except (SessionError, FloatingPointError):
        pass
    if observe:
        reports = [infer.cache_report(s) for s in sessions]
        ph.sched = {
            "ticks": len(ph.ticks),
            "byte_batches": byte_batches,
            "word_batches": word_batches,
            "boundary_waits": waits,
            "cache_byte_rows": sum(r.byte_rows for r in reports),
            "cache_word_rows": sum(r.word_rows for r in reports),
            "cache_kv_bytes": sum(r.memory_bytes for r in reports),
            "backbone_calls": sum(s.backbone_calls for s in sessions),
            "committed_bytes": sum(len(s.committed) for s in sessions),
        }
    return ph


def run_wave(params, cfg, pairs, speed: Speed | None = None, observe: bool = False,
             forks: int = 1) -> WaveResult:
    """One wave under BatchRunner(BoundarySync()), timed per call.

    With forks > 1, the state after prefill is deep-copied and the
    generation phase also runs from each copy; the copies do the same work,
    so each tick gets several timings. A SessionError or FloatingPointError
    ends the phase it happens in; unfinished sessions count as failed."""
    t0 = perf_counter()
    sessions = [new_session(params, cfg, script) for _, script in pairs]
    runner = BatchRunner(sessions, BoundarySync())
    t1 = perf_counter()
    res = WaveResult((t0, t1), [], [], [])
    try:
        with CallClock(IncrementalSplitterState, "push_byte", push_closes, speed) as clock:
            try:
                runner.prefill_all([p for p, _ in pairs])
            finally:
                res.prefill = clock.spans(t1, perf_counter())
                res.prefill_kind = [None, *zip(completes_codepoint(pairs), clock.notes)]
    except (SessionError, FloatingPointError):
        res.phases.append(GenPhase(sessions, [], [[] for _ in sessions]))
        return res
    shared = {id(params): params, id(cfg): cfg}
    copies = [copy.deepcopy(runner, dict(shared)) for _ in range(forks - 1)]
    for r in [runner, *copies]:
        res.phases.append(run_gen(r, observe, speed))
    return res


@dataclass
class GenUnit:
    waves: list
    forks: int

    def segments(self) -> list:
        """(start, end) of every timed call, in call order; a tick has one
        span per fork."""
        out = []
        for w in self.waves:
            out.append([w.build])
            out.extend([p] for p in w.prefill)
            out.extend(list(ts) for ts in zip(*(ph.ticks for ph in w.phases)))
        return out


def at_reference(units, speed: Speed) -> list:
    """Per timed call, in call order, its timings in every unit (and fork),
    each at the reference speed.

    The units (and the forks within one) run the same inputs through the
    same deterministic code, so call k of one does the same work as call k
    of another; the median of its timings, each scaled by the machine's
    speed around it, removes most of the slow-downs other tenants of the
    machine cause."""
    segs = [u.segments() for u in units]
    if any(len(x) != len(segs[0]) for x in segs):  # a unit failed part-way
        segs = segs[:1]
    calls = [[s for x in xs for s in x] for xs in zip(*segs)]
    flat = speed.reference_s([s for c in calls for s in c])
    ends = np.cumsum([len(c) for c in calls])
    return np.split(flat, ends[:-1])


def overhead(traced, plain) -> float:
    """Median over matching calls of traced / untraced duration, minus one."""
    ratios = [(t[0][1] - t[0][0]) / (p[0][1] - p[0][0])
              for t, p in zip(traced.segments(), plain.segments()) if p[0][1] > p[0][0]]
    return float(np.median(ratios)) - 1.0 if ratios else 0.0


# -- gates -------------------------------------------------------------------

def gate_outputs(sessions, scripts) -> None:
    for i, (s, script) in enumerate(zip(sessions, scripts)):
        if bytes(s.generated) != script:
            raise GateError(f"session {i}: emitted bytes differ from its script")


def gate_accounting(sessions, n_sessions: int) -> None:
    calls = sum(s.backbone_calls for s in sessions)
    expect = (sum(s.gen_closes for s in sessions)
              + sum(s.prefill_words for s in sessions) + n_sessions)
    if calls != expect:
        raise GateError(f"backbone calls {calls} != closes + prefill words + "
                        f"sessions = {expect}")


def gate_oracle(params, cfg, sessions) -> None:
    """Final incremental logits equal the batch recomputation within 1e-4."""
    for i, s in enumerate(sessions):
        oracle = model.next_byte_logits(params, cfg, s.committed,
                                        list(s.consumed_spans), s.inc_index,
                                        s.sentinel_used)
        err = float(np.max(np.abs(s.cur_logits - oracle)))
        if not err < ORACLE_TOL:
            raise GateError(f"session {i}: logits differ from next_byte_logits "
                            f"by {err:.3g}")


def gate_batch_invariance(params, cfg, sessions, pairs) -> None:
    """Sessions re-run alone end with identical bytes and logits."""
    for i, (s, (prompt, script)) in enumerate(zip(sessions, pairs)):
        solo = new_session(params, cfg, script)
        infer.prefill(solo, prompt)
        while not solo.finished:
            infer.step_byte(solo)
        if (bytes(solo.generated) != bytes(s.generated)
                or not np.array_equal(solo.cur_logits, s.cur_logits)):
            raise GateError(f"session {i}: batched run differs from a solo run")


class GenWorkload:
    def __init__(self, name: str, texts: list[bytes], seed: int, tiny: bool = False):
        self.sizes = (GEN_TINY if tiny else GEN_SIZES)[name]
        self.cfg = config.micro()
        self.params = model.init_params(self.cfg, seed=MODEL_SEED)
        self.waves = gen_inputs(texts, self.sizes, seed)

    def warm_up(self) -> None:
        """A short wave of four sessions through the same code path."""
        run_wave(self.params, self.cfg, [(p[:cp_floor(p, 32)], s[:cp_floor(s, 8)])
                                         for p, s in self.waves[0][:4]],
                 forks=self.sizes.forks)

    def run_unit(self, speed: Speed | None = None, observe: bool = False,
                 forks: int | None = None) -> GenUnit:
        """One unit; `speed` is sampled between ticks when given."""
        forks = self.sizes.forks if forks is None else forks
        return GenUnit([run_wave(self.params, self.cfg, pairs, speed, observe, forks)
                        for pairs in self.waves], forks)

    def attempted(self, unit: GenUnit) -> int:
        return sum(len(w) for w in self.waves) * unit.forks

    def failed(self, unit: GenUnit) -> int:
        return sum(not s.finished for w in unit.waves for ph in w.phases
                   for s in ph.sessions) + sum(
            len(pairs) * (unit.forks - len(w.phases))
            for w, pairs in zip(unit.waves, self.waves))

    def check(self, unit: GenUnit, first: GenUnit | None = None) -> None:
        """Gates on one unit. The first unit (`first` is None) also gets the
        oracle and batch-invariance gates; a later one must repeat the
        first unit's schedule exactly."""
        for wave, pairs in zip(unit.waves, self.waves):
            for ph in wave.phases:
                gate_outputs(ph.sessions, [s for _, s in pairs])
                gate_accounting(ph.sessions, len(ph.sessions))
        gate_same_schedule(unit, first or unit)
        if first is not None:
            return
        for wave in unit.waves:
            gate_oracle(self.params, self.cfg, wave.sessions)
        k = self.sizes.checked_solo
        if k:
            gate_batch_invariance(self.params, self.cfg, unit.waves[0].sessions[:k],
                                  self.waves[0][:k])

    def descriptors(self, unit: GenUnit) -> dict:
        pairs = [p for w in self.waves for p in w]
        sessions = [s for w in unit.waves for s in w.sessions]
        committed = sum(len(s.committed) for s in sessions)
        closes = sum(s.prefill_words + s.gen_closes for s in sessions)
        return {
            "sessions": len(pairs),
            "prompt_bytes": sum(len(p) for p, _ in pairs),
            "generated_bytes": sum(len(s.generated) for s in sessions),
            "non_ascii_share": round(non_ascii_share([p + s for p, s in pairs]), 6),
            "word_closes_per_kb": round(closes / (committed / 1024.0), 4),
            "backbone_calls": sum(s.backbone_calls for s in sessions),
            "train_bytes": 0,
            "eval_bytes": 0,
            "generated_sha256_16": _digest(b"\0".join(bytes(s.generated) for s in sessions)),
        }

    def end_to_end(self, units, speed: Speed) -> dict:
        """Throughputs and latency samples on a timeline of the per-call
        medians at the reference speed.

        TTFB runs from the start of a session's wave to the end of the tick
        that emitted its first byte; a gap is the time between the ends of
        the ticks that emitted two consecutive bytes of one session."""
        calls = iter(at_reference(units, speed))
        first = units[0]
        ttfb, gaps = [], []
        prefill_s = gen_s = 0.0
        for wave in first.waves:
            build = float(np.median(next(calls)))
            prefill = pooled_prefill([next(calls) for _ in wave.prefill], wave.prefill_kind)
            ticks = [float(np.median(next(calls))) for _ in wave.phases[0].ticks]
            ends = np.cumsum([build + prefill] + ticks)[1:]
            prefill_s += prefill
            gen_s += sum(ticks)
            for s, emits in zip(wave.sessions, wave.phases[0].emit_ticks):
                times = [ends[k] * 1e3 for k in emits]
                ttfb.append(times[0] if times else math.inf)
                gaps.extend(b - a for a, b in zip(times, times[1:]))
                if not s.finished:
                    gaps.append(math.inf)
        prompt = sum(len(s.prompt) for w in first.waves for s in w.sessions)
        gen = sum(len(s.generated) for w in first.waves for s in w.sessions)
        return {
            "ingest_bytes_per_s": prompt / prefill_s,
            "step_bytes_per_s": gen / gen_s,
            "first_result_ms": ttfb,
            "step_gap_ms": gaps,
        }

    @staticmethod
    def sched_stats(unit: GenUnit) -> dict:
        merged: dict = {}
        for w in unit.waves:
            for k, v in w.phases[0].sched.items():
                if k.startswith("cache_"):
                    merged[k] = max(merged.get(k, 0), v)  # peak over waves
                elif isinstance(v, list):
                    merged.setdefault(k, []).extend(v)
                else:
                    merged[k] = merged.get(k, 0) + v
        return merged


def gate_same_schedule(unit: GenUnit, first: GenUnit) -> None:
    """Identical inputs must give identical ticks and emissions in every
    fork and every repeat."""
    for a, b in zip(unit.waves, first.waves):
        ref = b.phases[0]
        for ph in a.phases:
            if len(ph.ticks) != len(ref.ticks) or ph.emit_ticks != ref.emit_ticks:
                raise GateError("a repeated generation phase took a different schedule")


# ---------------------------------------------------------------------------
# training workload

@dataclass(frozen=True)
class TrainSizes:
    seq_len: int
    docs: int          # training documents, each exactly seq_len bytes
    steps: int         # train steps per unit
    eval_passes: int   # no-grad loss passes over the held-out document per unit
    window: int        # steps averaged at each end of the loss curve for the gate
    lr: float = 3e-3
    warmup: int = 4


TRAIN_SIZES = TrainSizes(seq_len=1024, docs=4, steps=32, eval_passes=32, window=8)
TRAIN_TINY = TrainSizes(seq_len=256, docs=2, steps=12, eval_passes=4, window=3, lr=1e-2)


def _valid_doc(ring: bytes, pos: int, n: int) -> tuple[bytes, int]:
    """First n-byte window at or after pos that is complete UTF-8."""
    while True:
        doc = ring[pos:pos + n]
        try:
            doc.decode("utf-8")
            return doc, pos + n
        except UnicodeDecodeError:
            pos += 1


def train_inputs(texts: list[bytes], sizes: TrainSizes, seed: int) -> tuple[bytes, bytes]:
    """Training slice of `docs` full-length documents and one held-out
    document that follows it, read from the English then the German text
    taken as a ring; the slice starts at a seeded word start in the first
    256 bytes."""
    rng = np.random.default_rng(seed)
    text = b"\n".join(texts)
    ring = text + b"\n" + text
    starts = [s for s in word_starts(text) if s < 256]
    pos = starts[int(rng.integers(len(starts)))]
    docs = []
    for _ in range(sizes.docs + 1):
        doc, pos = _valid_doc(ring, pos, sizes.seq_len)
        docs.append(doc)
    return b"".join(docs[:-1]), docs[-1]


def gate_losses(curve, eval_losses, window: int) -> None:
    vals = list(curve) + list(eval_losses)
    if not all(math.isfinite(v) for v in vals):
        raise GateError("a training or eval loss is not finite")
    early, late = np.mean(curve[:window]), np.mean(curve[-window:])
    if not late < early:
        raise GateError(f"late-window loss {late:.4f} is not below early-window "
                        f"loss {early:.4f}")


@dataclass
class TrainUnit:
    curve: list
    eval_losses: list
    lead: tuple        # (start, end) from train_loop entry to its first step
    steps: list        # (start, end) of each completed step, Adam update included
    evals: list        # (start, end) of each no-grad loss pass

    def segments(self) -> list:
        return [[x] for x in (self.lead, *self.steps, *self.evals)]


class TrainWorkload:
    def __init__(self, name: str, texts: list[bytes], seed: int, tiny: bool = False):
        self.sizes = TRAIN_TINY if tiny else TRAIN_SIZES
        self.cfg = config.micro()
        self.params = model.init_params(self.cfg, seed=MODEL_SEED)
        self.train_text, self.heldout = train_inputs(texts, self.sizes, seed)
        sz = self.sizes
        self.schedule = train.LrSchedule(warmup_steps=sz.warmup, stable_lr=sz.lr,
                                         stable_steps=sz.steps, decay_steps=0)

    def _train(self, steps: int):
        return train.train_loop(self.cfg, self.train_text, self.schedule,
                                train.GroupPolicy(), steps, MODEL_SEED,
                                seq_len=self.sizes.seq_len, params=self.params)

    def warm_up(self) -> None:
        res = self._train(1)
        train.loss(res.params, self.cfg, self.heldout)

    def run_unit(self, speed: Speed | None = None, observe: bool = False,
                 forks: int | None = None) -> TrainUnit:
        """A fresh training run from the initial parameters, then no-grad
        loss passes with the trained parameters. A FloatingPointError ends
        the phase it happens in; what did not complete counts as failed.
        `observe` and `forks` only matter for generation."""
        curve, trained = [], self.params
        t0 = perf_counter()
        with CallClock(train, "loss_and_grads", speed=speed) as clock:
            try:
                res = self._train(self.sizes.steps)
                curve, trained = res.loss_curve, res.params
            except FloatingPointError:
                pass
        lead, *steps = clock.spans(t0, perf_counter(), len(curve))
        unit = TrainUnit(curve, [], lead, steps, [])
        for _ in range(self.sizes.eval_passes):
            if speed is not None:
                speed.catch_up()
            a = perf_counter()
            try:
                value = train.loss(trained, self.cfg, self.heldout)
            except FloatingPointError:
                break
            unit.evals.append((a, perf_counter()))
            unit.eval_losses.append(value)
        if speed is not None:
            speed.catch_up()
        return unit

    def attempted(self, unit: TrainUnit) -> int:
        return self.sizes.steps + self.sizes.eval_passes

    def failed(self, unit: TrainUnit) -> int:
        return (self.sizes.steps - len(unit.curve) + self.sizes.eval_passes
                - sum(math.isfinite(v) for v in unit.eval_losses))

    def check(self, unit: TrainUnit, first: TrainUnit | None = None) -> None:
        if len(unit.curve) != self.sizes.steps:
            raise GateError("training stopped early")
        gate_losses(unit.curve, unit.eval_losses, self.sizes.window)
        if first is not None and unit.curve != first.curve:
            raise GateError("a repeated training run gave a different loss curve")

    def descriptors(self, unit: TrainUnit) -> dict:
        chunks = [self.train_text, self.heldout]
        return {
            "sessions": 0,
            "prompt_bytes": 0,
            "generated_bytes": 0,
            "non_ascii_share": round(non_ascii_share(chunks), 6),
            "train_doc_bytes": len(self.train_text),
            "train_bytes": self.sizes.steps * self.sizes.seq_len,
            "eval_bytes": self.sizes.eval_passes * len(self.heldout),
            "inputs_sha256_16": _digest(self.train_text + b"\0" + self.heldout),
        }

    def end_to_end(self, units, speed: Speed) -> dict:
        """Throughputs and latency samples from the timings at the
        reference speed.

        Every eval pass does the same work, and so does every step on the
        same document (same graph and sizes; only the values differ), so
        each counts as the median timing of its kind over all units. Steps
        or passes that did not complete are misses (inf)."""
        sz = self.sizes
        first = units[0]
        n_steps = len(first.steps)
        docs = min(sz.docs, n_steps) or 1
        lead = float(np.median(speed.reference_s([u.lead for u in units])))
        steps = [speed.reference_s([s for u in units for s in u.steps[d::docs]])
                 for d in range(docs)]
        step_s = [float(np.median(steps[i % docs])) for i in range(n_steps)]
        evals = speed.reference_s([t for u in units for t in u.evals])
        n_ok = sum(math.isfinite(v) for v in first.eval_losses)
        typical = float(np.median(evals)) if len(evals) else math.inf
        return {
            "ingest_bytes_per_s": len(self.heldout) / typical if n_ok else 0.0,
            "step_bytes_per_s": n_steps * sz.seq_len / (lead + sum(step_s)),
            "first_result_ms": [typical * 1e3] * n_ok + [math.inf] * (sz.eval_passes - n_ok),
            "step_gap_ms": [t * 1e3 for t in step_s] + [math.inf] * (sz.steps - n_steps),
        }

    @staticmethod
    def sched_stats(unit) -> dict:
        return {}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


WORKLOADS = {"chat_b64": GenWorkload, "solo_long": GenWorkload, "train_1k": TrainWorkload}

# wall seconds of one unit, probes included, on a busy shared 2-vCPU x86-64 VM
# (CPython 3.11, numpy 2.4 with OpenBLAS); a run repeats its unit
# max(2, round(seconds / this)) times
NOMINAL_UNIT_S = {"chat_b64": 22.0, "solo_long": 15.0, "train_1k": 5.0}

# array_share of each workload's speed probe (see Speed): generation is mostly
# interpreter work on tiny arrays; in a train step, about half the time goes
# to numpy on whole-sequence arrays, and a probe weighted so tracks the
# step's slow-downs about twice as closely as the interpreter probe alone
PROBE_ARRAY_SHARE = {"chat_b64": 0.0, "solo_long": 0.0, "train_1k": 0.5}


def make_workload(name: str, texts: list[bytes], seed: int, tiny: bool = False):
    return WORKLOADS[name](name, texts, seed, tiny)
