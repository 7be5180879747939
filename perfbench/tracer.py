"""Outside-in span tracing for the benchmark's traced run.

`Tracer` replaces public entry points of the hatlm modules (module
functions and class methods) with wrappers that record one span per call:
name, start, end, parent span, session id and an optional count noted at
the boundary (bytes passed to a split, closes returned by a push). The
wrappers live only in this process and are removed when the `with` block
ends; nothing in the package itself changes.

`layer_metrics` turns the spans of one traced work unit into the per-layer
metrics named in BENCHMARK.json. A layer the workload never calls reports
zero calls and zero time.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

from hatlm import autodiff, infer, model, splitter, train

# span record fields
NAME, T0, T1, PARENT, SESSION, NOTE = range(6)

# spans that count work inside their parent's layer: their time stays in the
# parent's self time (a push's re-split is the push's own cost)
INNER = frozenset({"splitter.split"})


def _session_arg(args):
    return id(args[0])


def _split_bytes(args, result):
    return len(args[0])


def _push_closes(args, result):
    return len(result)


# (owner, attribute, span name, session-of-args, note-of-args-and-result)
ENTRY_POINTS = (
    (splitter.IncrementalSplitterState, "push_byte", "splitter.push", None, _push_closes),
    (splitter, "split", "splitter.split", None, _split_bytes),
    (infer, "prefill", "infer.prefill", _session_arg, None),
    (infer, "byte_phase", "infer.byte_phase", _session_arg, None),
    (infer, "word_phase", "infer.word_phase", _session_arg, None),
    (infer.GenSession, "sample", "infer.sample", _session_arg, None),
    (infer.BatchRunner, "run_tick", "sched.run_tick", None, None),
    (train, "train_loop", "train.train_loop", None, None),
    (train, "loss_and_grads", "train.loss_and_grads", None, None),
    (train, "forward", "train.forward", None, None),
    (autodiff, "backward", "autodiff.backward", None, None),
    (train, "clip_global_norm", "train.clip", None, None),
    (train, "adam_step", "train.adam", None, None),
    (train, "loss", "train.loss", None, None),
    (model, "split", "model.split", None, _split_bytes),
)


class Tracer:
    """Context manager that traces the ENTRY_POINTS while it is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, owner, attr, name, session_of, note_of):
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if session_of is not None:
                session = session_of(args)
            else:
                session = spans[parent][SESSION] if parent >= 0 else None
            rec = [name, perf_counter(), 0.0, parent, session, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
                if note_of is not None:
                    rec[NOTE] = note_of(args, result)
                return result
            finally:
                rec[T1] = perf_counter()
                stack.pop()

        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def __enter__(self) -> "Tracer":
        for entry in ENTRY_POINTS:
            self._wrap(*entry)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); inf samples count as
    misses, and an empty sample reads 0."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _by_name(spans):
    """Per span name: durations, self times and notes, in call order."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0 and rec[NAME] not in INNER:
            child[rec[PARENT]] += rec[T1] - rec[T0]
    out: dict[str, dict[str, list]] = {}
    for i, rec in enumerate(spans):
        d = out.setdefault(rec[NAME], {"dur": [], "self": [], "note": [], "parent": []})
        dur = rec[T1] - rec[T0]
        d["dur"].append(dur)
        d["self"].append(dur - child[i])
        d["note"].append(rec[NOTE])
        d["parent"].append(spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None)
    return out


# per-layer metric name -> unit, in BENCHMARK.json order
LAYER_UNITS = {
    "splitter.push.calls": "count",
    "splitter.push.self_ms": "ms",
    "splitter.push.us_p50": "us",
    "splitter.push.us_p95": "us",
    "splitter.push.share": "frac",
    "splitter.split.calls": "count",
    "splitter.split.bytes_per_push": "B/push",
    "splitter.closes_per_kb": "1/KiB",
    "infer.prefill.self_ms": "ms",
    "infer.byte_phase.calls": "count",
    "infer.byte_phase.self_us_p50": "us",
    "infer.word_phase.calls": "count",
    "infer.word_phase.us_p50": "us",
    "infer.word_phase.us_p95": "us",
    "infer.sample.us_p50": "us",
    "infer.backbone_calls_per_kb": "1/KiB",
    "infer.cache.byte_rows": "count",
    "infer.cache.word_rows": "count",
    "infer.cache.kv_bytes": "B",
    "sched.ticks": "count",
    "sched.run_tick.ms_p50": "ms",
    "sched.byte_batch_mean": "count",
    "sched.word_batch_mean": "count",
    "sched.boundary_wait_ticks_p50": "count",
    "sched.boundary_wait_ticks_p95": "count",
    "train.fwd.ms_p50": "ms",
    "train.bwd.ms_p50": "ms",
    "train.clip.ms_p50": "ms",
    "train.adam.ms_p50": "ms",
    "train.fwd_bwd.share": "frac",
    "model.split.ms_p50": "ms",
    "eval.loss.ms_p50": "ms",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans, wall_s: float, overhead_frac: float, sched: dict) -> dict:
    """Per-layer metrics of one traced work unit.

    `wall_s` is the unit's traced wall time; `sched` holds what the
    workload read from each StepPlan and from session state between ticks
    (`ticks`, `byte_batches`, `word_batches`, `boundary_waits`,
    `cache_byte_rows`, `cache_word_rows`, `cache_kv_bytes`,
    `backbone_calls`, `committed_bytes`)."""
    by = _by_name(spans)
    empty = {"dur": [], "self": [], "note": [], "parent": []}

    def get(name):
        return by.get(name, empty)

    def ms(xs):
        return [x * 1e3 for x in xs]

    def us(xs):
        return [x * 1e6 for x in xs]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    push, split = get("splitter.push"), get("splitter.split")
    pushes = len(push["dur"])
    push_kb = pushes / 1024.0
    step = get("train.loss_and_grads")
    fwd = [d for d, p in zip(get("train.forward")["dur"], get("train.forward")["parent"])
           if p == "train.loss_and_grads"]
    bwd = get("autodiff.backward")["dur"]
    loop_s = sum(get("train.train_loop")["dur"])
    committed_kb = sched.get("committed_bytes", 0) / 1024.0
    values = {
        "splitter.push.calls": pushes,
        "splitter.push.self_ms": sum(push["self"]) * 1e3,
        "splitter.push.us_p50": percentile(us(push["dur"]), 50),
        "splitter.push.us_p95": percentile(us(push["dur"]), 95),
        "splitter.push.share": sum(push["self"]) / wall_s,
        "splitter.split.calls": len(split["dur"]),
        "splitter.split.bytes_per_push": sum(split["note"]) / pushes if pushes else 0.0,
        "splitter.closes_per_kb": sum(push["note"]) / push_kb if pushes else 0.0,
        "infer.prefill.self_ms": sum(get("infer.prefill")["self"]) * 1e3,
        "infer.byte_phase.calls": len(get("infer.byte_phase")["dur"]),
        "infer.byte_phase.self_us_p50": percentile(us(get("infer.byte_phase")["self"]), 50),
        "infer.word_phase.calls": len(get("infer.word_phase")["dur"]),
        "infer.word_phase.us_p50": percentile(us(get("infer.word_phase")["dur"]), 50),
        "infer.word_phase.us_p95": percentile(us(get("infer.word_phase")["dur"]), 95),
        "infer.sample.us_p50": percentile(us(get("infer.sample")["dur"]), 50),
        "infer.backbone_calls_per_kb": (sched.get("backbone_calls", 0) / committed_kb
                                        if committed_kb else 0.0),
        "infer.cache.byte_rows": sched.get("cache_byte_rows", 0),
        "infer.cache.word_rows": sched.get("cache_word_rows", 0),
        "infer.cache.kv_bytes": sched.get("cache_kv_bytes", 0),
        "sched.ticks": sched.get("ticks", 0),
        "sched.run_tick.ms_p50": percentile(ms(get("sched.run_tick")["dur"]), 50),
        "sched.byte_batch_mean": mean(sched.get("byte_batches", [])),
        "sched.word_batch_mean": mean(sched.get("word_batches", [])),
        "sched.boundary_wait_ticks_p50": percentile(sched.get("boundary_waits", []), 50),
        "sched.boundary_wait_ticks_p95": percentile(sched.get("boundary_waits", []), 95),
        "train.fwd.ms_p50": percentile(ms(fwd), 50),
        "train.bwd.ms_p50": percentile(ms(bwd), 50),
        "train.clip.ms_p50": percentile(ms(get("train.clip")["dur"]), 50),
        "train.adam.ms_p50": percentile(ms(get("train.adam")["dur"]), 50),
        "train.fwd_bwd.share": (sum(fwd) + sum(bwd)) / loop_s if step["dur"] else 0.0,
        "model.split.ms_p50": percentile(ms(get("model.split")["dur"]), 50),
        "eval.loss.ms_p50": percentile(ms(get("train.loss")["dur"]), 50),
        "trace.overhead_frac": overhead_frac,
    }
    return {k: {"value": float(values[k]), "unit": u} for k, u in LAYER_UNITS.items()}
