#!/usr/bin/env python3
"""Overfit the micro model on the bundled 1KB ASCII corpus, then generate.

Roughly 90 seconds on a laptop CPU. Writes the loss curve and a checkpoint
next to the repository's data directory unless overridden.

Usage:
    python scripts/overfit_demo.py [--steps 2000] [--out-dir /tmp/hat-demo]
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from hatlm import checkpoint, config, infer, train  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", type=Path, default=REPO / "out")
    args = ap.parse_args()

    cfg = config.micro()
    corpus = (REPO / "data" / "overfit_ascii.txt").read_bytes()
    sched = train.LrSchedule(warmup_steps=100, stable_lr=3e-3,
                             stable_steps=max(0, args.steps - 600), decay_steps=500)
    t0 = time.time()
    res = train.train_loop(cfg, corpus, sched, train.GroupPolicy(),
                           steps=args.steps, seed=args.seed, seq_len=256)
    dt = time.time() - t0

    per_byte = train.corpus_loss(res.params, cfg, corpus, seq_len=256)
    print(f"{args.steps} steps in {dt:.0f}s; final per-byte loss {per_byte:.4f}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    train.write_loss_curve(res.loss_curve, args.out_dir / "loss_curve.tsv")
    ckpt = args.out_dir / "micro_overfit.ckpt"
    checkpoint.save(ckpt, cfg, res.params)
    print(f"wrote {ckpt} and loss_curve.tsv")

    prompt = corpus[:24]
    session = infer.GenSession(res.params, cfg, infer.SamplingConfig("greedy"),
                               max_new_bytes=80)
    infer.generate(session, prompt)
    print("prompt      :", prompt.decode())
    print("continuation:", bytes(session.generated).decode("utf-8", "replace"))
    print(f"backbone calls {session.backbone_calls}, "
          f"cache rows {tuple(infer.cache_report(session))}")


if __name__ == "__main__":
    main()
