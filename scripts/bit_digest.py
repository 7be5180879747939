#!/usr/bin/env python3
"""Print one `name sha256` line per output of fixed micro runs.

Two checkouts give the same lines exactly when these outputs have the same
bits, so "no bit changed" is a `diff` of two outputs:

    PYTHONPATH=path/to/checkout/src python scripts/bit_digest.py > a.txt

The script takes no options and imports `hatlm` from PYTHONPATH, so one
copy digests any checkout; the texts come from this copy's `data/`. It
first prints `# field value` lines naming the environment the float
digests hold for (`fingerprint`), then the digests. Each
run uses params seed 1234, in float32 and in float64, and the micro config,
then again under `nocap.` names micro with `softcap=None` (whose attention
reads shift every softmax row by its max, where capped ones need not):

  * a wave of 64 prompts (0 to 95 bytes) prefilled in one `BatchRunner`:
    byte rings, word caches, injections and logits; then its greedy bytes
    under `BoundarySync`, the runner's trace text, and the same state after
    them (a rounding change in the step's layer shows there even where no
    greedy byte moves);
  * one 2 KB prompt, prefilled alone: the same caches, injection and logits;
  * `train.loss` and the `train.loss_and_grads` loss and gradients on the
    first 1 KB of each data text;
  * the loss curve, the global norms before clipping and the final
    parameters of a 12-step `train_loop` at seq_len 256.

Then, once (the splitter reads no dtype), `splitter.stream`'s closes and
per-byte index over each whole data text at caps 4, 16 and 128, so a change
to the splitter shows in its own lines and not only through the caches.
"""

import dataclasses
import hashlib
import os
from pathlib import Path

import numpy as np

from hatlm import config, infer, model, splitter, train

DATA = Path(__file__).resolve().parent.parent / "data"
TEXTS = ("english_sample.txt", "german_sample.txt")


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _utf8_prefix(data: bytes, n: int) -> bytes:
    """The longest prefix of at most n bytes that ends at a codepoint boundary."""
    while n < len(data) and data[n] & 0xC0 == 0x80:
        n -= 1
    return data[:n]


def _wave_prompts() -> list[bytes]:
    """The empty prompt, "a∑b c" and 62 cuts of 33 to 95 bytes of both texts."""
    text = b" ".join((DATA / name).read_bytes() for name in TEXTS)
    prompts = [b"", "a∑b c".encode()]
    for k in range(62):
        at = len(_utf8_prefix(text, 67 * k))
        prompts.append(_utf8_prefix(text[at:], 33 + 37 * k % 63))
    return prompts


def _caches(prefix: str, sessions: list) -> list[tuple[str, str]]:
    return [
        (f"{prefix}.enc_ring", _sha(*(s.enc_ring for s in sessions))),
        (f"{prefix}.dec_ring", _sha(*(s.dec_ring for s in sessions))),
        (f"{prefix}.words", _sha(*(s.words[:, :, :s.word_rows] for s in sessions))),
        (f"{prefix}.inject", _sha(*(s.inject for s in sessions))),
        (f"{prefix}.cur_logits", _sha(*(s.cur_logits for s in sessions))),
    ]


def _model_runs(cfg, dtype, tag: str) -> list[tuple[str, str]]:
    """The digests of one config and dtype, named under `tag`."""
    out = []
    params = {k: v.astype(dtype) for k, v in model.init_params(cfg, seed=1234).items()}

    def session(budget):
        return infer.GenSession(params, cfg, infer.SamplingConfig("greedy"),
                                max_new_bytes=budget)
    wave = [session(16) for _ in range(64)]
    runner = infer.BatchRunner(wave, infer.BoundarySync())
    runner.prefill_all(_wave_prompts())
    out += _caches(f"{tag}.wave.prefill", wave)
    runner.run_to_completion()
    out.append((f"{tag}.wave.generated",
                _sha(*(np.frombuffer(bytes(s.generated), np.uint8) for s in wave))))
    out.append((f"{tag}.wave.trace", hashlib.sha256(runner.trace_text().encode()).hexdigest()))
    out += _caches(f"{tag}.wave.generate", wave)
    solo = infer.prefill(session(1), (DATA / TEXTS[0]).read_bytes()[:2048])
    out += _caches(f"{tag}.solo2k.prefill", [solo])
    for name in TEXTS:
        doc = _utf8_prefix((DATA / name).read_bytes(), 1024)
        key = f"{tag}.{name.split('_')[0]}1k"
        loss, grads = train.loss_and_grads(params, cfg, doc)
        out += [(f"{key}.loss", _sha(np.float64(train.loss(params, cfg, doc)))),
                (f"{key}.loss_and_grads",
                 _sha(np.float64(loss), *(grads[k] for k in sorted(grads))))]
    schedule = train.LrSchedule(warmup_steps=2, stable_lr=3e-3, stable_steps=8, decay_steps=2)
    result = train.train_loop(cfg, (DATA / TEXTS[0]).read_bytes(), schedule,
                              train.GroupPolicy(), steps=12, seed=1234, seq_len=256,
                              params=params)
    return out + [(f"{tag}.train_loop12.loss_curve", _sha(np.array(result.loss_curve))),
                  (f"{tag}.train_loop12.grad_norms", _sha(np.array(result.grad_norms))),
                  (f"{tag}.train_loop12.params",
                   _sha(*(result.params[k] for k in sorted(result.params))))]


def digests() -> list[tuple[str, str]]:
    """The (name, sha256 hex digest) pairs, in print order."""
    out = []
    micro = config.micro()
    for prefix, cfg in (("", micro), ("nocap.", dataclasses.replace(micro, softcap=None))):
        for dtype in (np.float32, np.float64):
            out += _model_runs(cfg, dtype, prefix + np.dtype(dtype).name)
    for name in TEXTS:
        for cap in (4, 16, 128):
            _, closes, index = splitter.stream((DATA / name).read_bytes(), cap)
            out.append((f"splitter.{name.split('_')[0]}.cap{cap}",
                        _sha(np.array(closes, np.int64),
                             np.array(index, np.int64))))
    return out


def fingerprint() -> list[tuple[str, str]]:
    """The (field, value) pairs of the environment whose float digests are
    comparable: numpy's version, its BLAS build, the SIMD features numpy
    reports for this CPU (OpenBLAS picks its kernels by CPU) and the number
    of threads OpenBLAS starts with (a product split over more threads can
    sum in another order: at 1 and 2 threads the `*.loss_and_grads` lines of
    the English text differ). The integer `splitter.*` digests hold anywhere."""
    core = getattr(np, "_core", None) or np.core
    features = core._multiarray_umath.__cpu_features__
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    threads = (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
               or str(len(os.sched_getaffinity(0))))
    return [("numpy", np.__version__),
            ("blas", " ".join(str(blas.get(k)) for k in
                              ("name", "version", "openblas configuration"))),
            ("simd", " ".join(k for k, on in features.items() if on)),
            ("blas_threads", threads)]


def main() -> None:
    for field, value in fingerprint():
        print("#", field, value)
    for name, digest in digests():
        print(name, digest)


if __name__ == "__main__":
    main()
