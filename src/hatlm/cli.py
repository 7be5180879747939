"""Command-line surface: thin adapters over the library operations.

Machine-readable results go to stdout, diagnostics to stderr. Usage errors
exit with status 2 (argparse), operational errors with status 1. Set
HATLM_LOG=debug|info|warning to control stderr verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import resource
import sys
import time

import numpy as np

from . import checkpoint, config, infer, metrics, model, train
from .splitter import SplitError, split

log = logging.getLogger("hatlm")


def _setup_logging() -> None:
    level = os.environ.get("HATLM_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(spec: str) -> config.HatConfig:
    if spec in config.PRESETS:
        return config.PRESETS[spec]()
    return config.load(spec)


def _load_model(args) -> tuple[config.HatConfig, dict]:
    if getattr(args, "ckpt", None):
        return checkpoint.load(args.ckpt)
    cfg = _load_config(args.config)
    return cfg, model.init_params(cfg, seed=args.seed)


# ---------------------------------------------------------------------------

def cmd_split(args) -> int:
    if args.text is not None:
        data = os.fsencode(args.text)   # argv bytes, undecodable ones included
    else:
        with open(args.file, "rb") as fh:
            data = fh.read()
    out = sys.stdout
    for a, e in split(data, args.max_word_bytes):
        if args.offsets:
            out.write(f"{a}:{e}\n")
        else:
            out.write(data[a:e].decode("utf-8") + "\n")
    return 0


def cmd_count_params(args) -> int:
    cfg = _load_config(args.config)
    counts = model.count_params(cfg)
    if args.format == "kv":
        for key in ("encoder", "backbone", "decoder", "total", "backbone_per_layer", "aux"):
            print(f"{key}={counts[key]}")
    else:
        print(f"encoder  {counts['encoder']:>15,}")
        print(f"backbone {counts['backbone']:>15,}")
        print(f"decoder  {counts['decoder']:>15,}")
        print(f"total    {counts['total']:>15,}")
        print(f"# backbone per layer: {counts['backbone_per_layer']:,}; "
              f"aux (BOS vector, excluded above): {counts['aux']:,}")
    return 0


def cmd_train_toy(args) -> int:
    cfg = _load_config(args.config)
    with open(args.corpus, "rb") as fh:
        corpus = fh.read()
    schedule = train.LrSchedule(warmup_steps=args.warmup, stable_lr=args.lr,
                                stable_steps=max(0, args.steps - args.warmup - args.decay),
                                decay_steps=args.decay)
    policy = train.GroupPolicy()
    if args.policy:
        with open(args.policy, encoding="utf-8") as fh:
            policy = train.GroupPolicy.from_text(fh.read())
    log.info("training %s steps on %s bytes", args.steps, len(corpus))
    # written as the steps finish, so a run that diverges keeps its rows
    with (open(args.metrics, "w", encoding="utf-8") if args.metrics
          else contextlib.nullcontext()) as fh:
        def on_step(row):
            if fh is not None:   # ru_maxrss counts KiB on Linux
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                fh.write(json.dumps({**row, "peak_rss_mb": rss}) + "\n")
        result = train.train_loop(cfg, corpus, schedule, policy, steps=args.steps,
                                  seed=args.seed, seq_len=args.seq_len, on_step=on_step)
    if args.loss_curve:
        train.write_loss_curve(result.loss_curve, args.loss_curve)
    if args.save:
        checkpoint.save(args.save, cfg, result.params)
    print(f"final_loss={train.corpus_loss(result.params, cfg, corpus, args.seq_len):.6f}")
    print(f"steps={args.steps}")
    return 0


def cmd_generate(args) -> int:
    cfg, params = _load_model(args)
    if args.greedy:
        sampling = infer.SamplingConfig("greedy")
    else:
        sampling = infer.SamplingConfig("temperature", temperature=args.temperature,
                                        seed=args.seed)
    session = infer.GenSession(params, cfg, sampling, max_new_bytes=args.max_bytes)
    try:
        infer.generate(session, os.fsencode(args.prompt))
    finally:    # a step that fails (out of positions) keeps the bytes before it
        if session.cur_logits is not None:
            data = bytes(session.generated)
            if args.hex:
                print(data.hex())
            else:
                sys.stdout.buffer.write(data)
                sys.stdout.buffer.flush()
    log.info("generated %d bytes, %d backbone calls", len(data), session.backbone_calls)
    return 0


def cmd_bench_sched(args) -> int:
    cfg, params = _load_model(args)
    with open(args.prompts, "rb") as fh:
        prompts = [line for line in fh.read().split(b"\n") if line.strip()]
    if not prompts:
        raise ValueError("no prompts")
    if args.policy == "boundary_sync":
        policy = infer.BoundarySync()
    elif args.policy.startswith("stride:"):
        policy = infer.FixedByteStride(int(args.policy.split(":", 1)[1]))
    else:
        raise ValueError(f"unknown policy {args.policy!r} (boundary_sync or stride:N)")
    sessions = [infer.GenSession(params, cfg, infer.SamplingConfig("greedy"),
                                 max_new_bytes=args.max_bytes) for _ in prompts]
    runner = infer.BatchRunner(sessions, policy)
    t0 = time.perf_counter()
    runner.prefill_all(prompts)
    t1 = time.perf_counter()
    # per session, the end of each tick that emitted one of its bytes
    emits, batches, word_ms = [[] for _ in sessions], [], []
    while any(not s.finished for s in sessions):
        start = time.perf_counter()
        plan = runner.run_tick()
        now = time.perf_counter()
        batches += [len(plan.byte_steps)] if plan.byte_steps else []
        word_ms += [(now - start) * 1e3] if plan.word_steps else []
        for i in plan.byte_steps:
            if len(emits[i]) < len(sessions[i].generated):
                emits[i].append(now)
    t2 = time.perf_counter()
    total_bytes = sum(len(s.generated) for s in sessions)
    calls = sum(s.backbone_calls for s in sessions)
    closes = sum(s.gen_closes for s in sessions)
    prefill_words = sum(s.prefill_words for s in sessions)
    print(f"sessions={len(sessions)}")
    print(f"ticks={runner.tick - 1}")
    print(f"generated_bytes={total_bytes}")
    print(f"backbone_calls={calls}")
    print(f"gen_word_closes={closes}")
    print(f"prefill_words={prefill_words}")
    if calls:
        print(f"bytes_per_backbone_call={total_bytes / calls:.4f}")
    print(f"prefill_s={t1 - t0:.6f}")
    print(f"prefill_bytes_per_s={sum(map(len, prompts)) / (t1 - t0):.1f}")
    print(f"gen_s={t2 - t1:.6f}")
    print(f"gen_bytes_per_s={total_bytes / (t2 - t1):.1f}")
    gaps = [b - a for e in emits for a, b in zip(e, e[1:])]
    p50, p95 = np.percentile(gaps, [50, 95]) * 1e3 if gaps else (float("nan"),) * 2
    print(f"gap_ms_p50={p50:.4f}")
    print(f"gap_ms_p95={p95:.4f}")
    print(f"byte_batch_mean={np.mean(batches) if batches else 0.0:.4f}")
    print(f"word_ticks={len(word_ms)}")
    print(f"word_tick_ms_p50={np.median(word_ms) if word_ms else float('nan'):.4f}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(runner.trace_text())
    return 0


def cmd_compress(args) -> int:
    report = metrics.compression_report(args.files, args.max_word_bytes)
    print(report.format_kv() if args.format == "kv" else report.format())
    return 0 if not report.errors else 1


def cmd_ckpt_roundtrip(args) -> int:
    cfg = _load_config(args.config)
    params = model.init_params(cfg, seed=args.seed)
    checkpoint.save(args.out, cfg, params)
    cfg2, params2 = checkpoint.load(args.out)
    if config.to_text(cfg) != config.to_text(cfg2):
        raise ValueError("config did not round-trip")
    for name in params:
        if not np.array_equal(params[name], params2[name]):
            raise ValueError(f"tensor {name} did not round-trip bit-exactly")
    probe = b"roundtrip probe 123"
    if not np.array_equal(model.forward(params, cfg, probe),
                          model.forward(params2, cfg2, probe)):
        raise ValueError("forward outputs differ after round-trip")
    print(f"ok tensors={len(params)} forward=bit-exact path={args.out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hatlm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("split", help="split text into word chunks")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--text")
    g.add_argument("--file")
    sp.add_argument("--offsets", action="store_true", help="print byte offsets")
    sp.add_argument("--max-word-bytes", type=int, default=128)
    sp.set_defaults(func=cmd_split)

    cp = sub.add_parser("count-params", help="exact per-component parameter counts")
    cp.add_argument("--config", required=True, help="preset name or .cfg path")
    cp.add_argument("--format", choices=("text", "kv"), default="text")
    cp.set_defaults(func=cmd_count_params)

    tt = sub.add_parser("train-toy", help="toy training run")
    tt.add_argument("--config", default="micro")
    tt.add_argument("--corpus", required=True)
    tt.add_argument("--steps", type=int, default=2000)
    tt.add_argument("--seed", type=int, default=0)
    tt.add_argument("--seq-len", type=int, default=256)
    tt.add_argument("--lr", type=float, default=3e-3)
    tt.add_argument("--warmup", type=int, default=100)
    tt.add_argument("--decay", type=int, default=500)
    tt.add_argument("--policy", help="group policy file")
    tt.add_argument("--save", help="write final checkpoint here")
    tt.add_argument("--loss-curve", help="write step<TAB>loss lines here")
    tt.add_argument("--metrics", help="write one JSON line per step here: step, loss, "
                    "lr, grad_norm, bytes_per_s, peak_rss_mb")
    tt.set_defaults(func=cmd_train_toy)

    gen = sub.add_parser("generate", help="incremental generation from a checkpoint")
    gen.add_argument("--ckpt")
    gen.add_argument("--config", default="micro", help="used with --seed when no --ckpt")
    gen.add_argument("--prompt", required=True)
    gen.add_argument("--max-bytes", type=int, default=64)
    gen.add_argument("--greedy", action="store_true")
    gen.add_argument("--temperature", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--hex", action="store_true", help="print hex instead of raw bytes")
    gen.set_defaults(func=cmd_generate)

    bs = sub.add_parser("bench-sched", help="batched scheduling statistics")
    bs.add_argument("--ckpt")
    bs.add_argument("--config", default="micro")
    bs.add_argument("--seed", type=int, default=0)
    bs.add_argument("--prompts", required=True, help="file with one prompt per line")
    bs.add_argument("--policy", default="boundary_sync")
    bs.add_argument("--max-bytes", type=int, default=32)
    bs.add_argument("--trace", help="write the tick trace log here")
    bs.set_defaults(func=cmd_bench_sched)

    cm = sub.add_parser("compress", help="bytes-per-position report over files")
    cm.add_argument("files", nargs="+")
    cm.add_argument("--max-word-bytes", type=int, default=128)
    cm.add_argument("--format", choices=("text", "kv"), default="text")
    cm.set_defaults(func=cmd_compress)

    cr = sub.add_parser("ckpt-roundtrip", help="save + load + verify bit-exactness")
    cr.add_argument("--config", default="micro")
    cr.add_argument("--seed", type=int, default=0)
    cr.add_argument("--out", required=True)
    cr.set_defaults(func=cmd_ckpt_roundtrip)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, SplitError, infer.SessionError,
            checkpoint.CheckpointError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
