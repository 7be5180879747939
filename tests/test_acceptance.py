"""Acceptance suite: one test per release criterion, each printing a PASS
line with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np

from hatlm import checkpoint, config, infer, metrics, model, train
from hatlm.infer import BatchRunner, BoundarySync, FixedByteStride, GenSession, SamplingConfig
from hatlm.splitter import split
from hatlm.wordbreak import word_boundaries

from conftest import DATA, TEST_DATA, random_utf8_strings, word_index_of_bytes


def _report(name: str, t0: float, detail: str = ""):
    print(f"\nPASS {name} ({time.time() - t0:.1f}s){' -- ' + detail if detail else ''}")


# ---------------------------------------------------------------------------

def test_parameter_count_reproduction_8b():
    t0 = time.time()
    c = model.count_params(config.table1())
    assert c["encoder"] == 119_291_904
    assert c["backbone"] == 6_979_584_000
    assert c["decoder"] == 93_619_200
    assert c["total"] == 7_192_495_104
    _report("parameter-count reproduction (8B-class table)", t0,
            f"total={c['total']:,}")


def test_parameter_count_reproduction_70b():
    t0 = time.time()
    c = model.count_params(config.table2())
    assert c["encoder"] == 476_610_560
    assert c["backbone"] == 68_452_352_000
    assert c["decoder"] == 373_884_928
    assert c["total"] == 69_302_847_488
    assert model.count_params(config.table1())["backbone_per_layer"] == 218_112_000
    assert 128_256 * 4_096 == 525_336_576
    _report("parameter-count reproduction (70B-class table + cross-checks)", t0,
            f"total={c['total']:,}")


def test_splitter_suite():
    t0 = time.time()
    # losslessness + codepoint safety on 10,000 random mixed-script strings
    for s in random_utf8_strings(10_000, seed=20240831):
        data = s.encode("utf-8")
        parts = [data[a:e] for a, e in split(data)]
        assert b"".join(parts) == data
        for p in parts:
            p.decode("utf-8")

    # rule unit anchors
    def chunks(s):
        d = s.encode()
        return [d[a:e].decode() for a, e in split(d)]

    assert chunks("FooBar") == ["Foo", "Bar"]
    assert chunks("a+b") == ["a", "+", "b"]
    assert chunks("Hello, world!") == ["Hello,", " world!"]
    assert chunks("wait...") == ["wait..."]

    # golden agreement with the recorded reference segmentation
    lines = (TEST_DATA / "uax29_golden.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 500
    for line in lines:
        text, _, expect = line.partition("\t")
        bounds = word_boundaries(text)
        cp2byte = [0]
        for ch in text:
            cp2byte.append(cp2byte[-1] + len(ch.encode("utf-8")))
        got = ",".join(f"{cp2byte[bounds[i]]}:{cp2byte[bounds[i + 1]]}"
                       for i in range(len(bounds) - 1))
        assert got == expect
    _report("splitter suite (10k losslessness, rule units, 500 goldens)", t0)


def test_incremental_full_equivalence():
    t0 = time.time()
    cfg = config.micro()
    params = model.init_params(cfg, seed=1234)
    rng = np.random.default_rng(555)
    words = ["the", "cat", "Fluss", "a+b", "3.14", "Hello,", "FooBar", "zz"]
    checked_steps = 0
    for trial in range(50):
        n = int(rng.integers(1, 4))
        prompt = " ".join(words[int(rng.integers(len(words)))] for _ in range(n))
        prompt = (prompt + " ").encode()
        s = GenSession(params, cfg, SamplingConfig("greedy"), max_new_bytes=24)
        infer.prefill(s, prompt)
        while not s.finished:
            oracle = model.next_byte_logits(params, cfg, s.committed,
                                            list(s.consumed_spans), s.inc_index,
                                            s.sentinel_used)
            assert np.max(np.abs(s.cur_logits - oracle)) < 1e-4
            expect = infer.sample_from_logits(oracle, s.splitter.gate.allowed(),
                                              SamplingConfig("greedy"), None)
            out = infer.step_byte(s)
            assert out == expect, "emitted byte diverged from recomputation"
            checked_steps += 1
        # on pure-ASCII committed text the training forward agrees as well
        committed = s.committed
        if committed and max(committed) < 0x80:
            assert s.inc_index == word_index_of_bytes(committed, cfg.max_word_bytes)
    _report("incremental/full equivalence (50 prompts, greedy byte-for-byte)", t0,
            f"{checked_steps} steps checked at 1e-4")


def _gradient_oracle(data: bytes) -> float:
    """Worst relative error of 200 analytic gradient coordinates, 40 per
    parameter group, against central differences in float64."""
    cfg = config.micro()
    params = {k: v.astype(np.float64)
              for k, v in model.init_params(cfg, seed=1234).items()}
    _, grads = train.loss_and_grads(params, cfg, data)
    rng = np.random.default_rng(2024)
    by_group = {}
    for n in sorted(params):
        by_group.setdefault(model.group_of(n), []).append(n)
    h = 1e-5
    worst = 0.0
    coords = 0
    for names in by_group.values():
        for _ in range(40):
            name = names[int(rng.integers(len(names)))]
            idx = tuple(int(rng.integers(0, d)) for d in params[name].shape)
            orig = params[name][idx]
            params[name][idx] = orig + h
            lp = train.loss(params, cfg, data)
            params[name][idx] = orig - h
            lm = train.loss(params, cfg, data)
            params[name][idx] = orig
            num = (lp - lm) / (2 * h)
            ana = grads[name][idx]
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-5))
            coords += 1
    assert coords == 200
    return worst


def test_gradient_oracle():
    t0 = time.time()
    worst = _gradient_oracle("Oracle text: FooBar a+b 3.14, mixed!".encode())
    assert worst < 1e-4
    _report("gradient oracle (200 coords, all groups, float64)", t0,
            f"max rel err {worst:.2e}")


def test_gradient_oracle_across_a_query_block():
    # 44 words: the backbone's 45 rows cross an ATTENTION_BLOCK seam, so the
    # oracle sees the second block's reads of the first block's keys
    t0 = time.time()
    data = ("Oracle text: FooBar a+b 3.14, mixed! It runs past one query block of the "
            "backbone, so the gradient crosses the seam: x=1, y=2; ok? Yes -- 42 words "
            "or more, with café and naïve, then stop.").encode()
    assert len(split(data, config.micro().max_word_bytes)) > 32
    worst = _gradient_oracle(data)
    assert worst < 1e-4
    _report("gradient oracle across a query block (200 coords, 189 B, float64)", t0,
            f"max rel err {worst:.2e}")


def test_overfit_smoke():
    t0 = time.time()
    cfg = config.micro()
    corpus = (DATA / "overfit_ascii.txt").read_bytes()
    assert 1000 <= len(corpus) <= 1100 and max(corpus) < 0x80
    sched = train.LrSchedule(warmup_steps=100, stable_lr=3e-3,
                             stable_steps=1400, decay_steps=500)

    # determinism of the training loop under a fixed seed
    a = train.train_loop(cfg, corpus, sched, train.GroupPolicy(), steps=40, seed=7)
    b = train.train_loop(cfg, corpus, sched, train.GroupPolicy(), steps=40, seed=7)
    assert a.loss_curve == b.loss_curve

    res = train.train_loop(cfg, corpus, sched, train.GroupPolicy(),
                           steps=2000, seed=7, seq_len=256)
    chunks = [corpus[i:i + 256] for i in range(0, len(corpus), 256)]
    chunks = [c for c in chunks if len(c) >= 2]
    weights = [len(c) - 1 for c in chunks]
    losses = [train.loss(res.params, cfg, c) for c in chunks]
    per_byte = sum(l * w for l, w in zip(losses, weights)) / sum(weights)
    assert per_byte < 0.1
    # smoothed trend: late loss far below early loss
    assert np.mean(res.loss_curve[-100:]) < np.mean(res.loss_curve[:100])
    _report("overfit smoke (1KB ASCII, 2000 steps, deterministic)", t0,
            f"per-byte loss {per_byte:.4f}")


def test_scheduler_accounting_100_prompts():
    t0 = time.time()
    cfg = config.micro()
    params = model.init_params(cfg, seed=1234)
    rng = np.random.default_rng(77)
    vocab = ["red", "blue", "fox", "Hund", "a+b", "42", "Hello,", "x"]
    prompts = []
    for _ in range(100):
        k = int(rng.integers(1, 4))
        prompts.append((" ".join(vocab[int(rng.integers(len(vocab)))]
                                 for _ in range(k)) + " ").encode())

    def fresh(n):
        return [GenSession(params, cfg, SamplingConfig("greedy"), max_new_bytes=12)
                for _ in range(n)]

    solo_out = []
    for p in prompts:
        s = GenSession(params, cfg, SamplingConfig("greedy"), max_new_bytes=12)
        infer.generate(s, p)
        solo_out.append(bytes(s.generated))

    batch = fresh(len(prompts))
    runner = BatchRunner(batch, BoundarySync())
    runner.prefill_all(prompts)
    runner.run_to_completion()
    calls = sum(s.backbone_calls for s in batch)
    closes = sum(s.gen_closes for s in batch)
    prefill_words = sum(s.prefill_words for s in batch)
    assert calls == closes + prefill_words + len(batch)
    assert [bytes(s.generated) for s in batch] == solo_out

    batch2 = fresh(len(prompts))
    runner2 = BatchRunner(batch2, FixedByteStride(2))
    runner2.prefill_all(prompts)
    runner2.run_to_completion()
    assert [bytes(s.generated) for s in batch2] == solo_out
    _report("scheduler accounting (100 prompts, both policies)", t0,
            f"{calls} backbone calls == {closes}+{prefill_words}+{len(batch)}")


def test_compression_sanity():
    t0 = time.time()
    en = metrics.compression_report([DATA / "english_sample.txt"])
    de = metrics.compression_report([DATA / "german_sample.txt"])
    assert 4.0 <= en.bytes_per_position <= 7.0
    assert 4.5 <= de.bytes_per_position <= 8.0
    _report("compression sanity (bundled corpora)", t0,
            f"en {en.bytes_per_position:.4f}, de {de.bytes_per_position:.4f}")


def test_freezing_semantics():
    t0 = time.time()
    cfg = config.micro()
    corpus = (DATA / "overfit_ascii.txt").read_bytes()
    K = 4
    policy = train.GroupPolicy(frozen_until_step={"backbone": K},
                               lr_multiplier={"backbone": 0.1})
    sched = train.LrSchedule(warmup_steps=0, stable_lr=3e-4, stable_steps=100,
                             decay_steps=1)
    init = model.init_params(cfg, seed=31)
    bb = [n for n in init if model.group_of(n) == "backbone"]

    rK = train.train_loop(cfg, corpus, sched, policy, steps=K, seed=31)
    assert all(np.array_equal(rK.params[n], init[n]) for n in bb)
    rK1 = train.train_loop(cfg, corpus, sched, policy, steps=K + 1, seed=31)
    assert any(not np.array_equal(rK1.params[n], init[n]) for n in bb)

    # effective backbone step size is exactly lr x 0.1 in the update rule
    params = model.init_params(cfg, seed=31)
    _, grads = train.loss_and_grads(params, cfg, corpus[:128])
    name = bb[0]
    g = grads[name]
    st = train.AdamState()
    before = params[name].copy()
    lr = train.lr_at(sched, 0)
    train.adam_step(params, grads, st,
                    lambda n: lr * (0.1 if model.group_of(n) == "backbone" else 1.0))
    # after one step the bias-corrected moments reduce to g and g*g
    expect = before - np.float32(lr * 0.1) * (g / (np.sqrt(g * g) + st.eps)
                                              + st.weight_decay * before)
    assert np.allclose(params[name], expect, atol=1e-7)
    _report("freezing semantics (bit-exact through K, 0.1x backbone LR)", t0)


def test_checkpoint_roundtrip(tmp_path):
    t0 = time.time()
    cfg = config.micro()
    params = model.init_params(cfg, seed=1234)
    path = tmp_path / "acc.ckpt"
    checkpoint.save(path, cfg, params)
    cfg2, params2 = checkpoint.load(path)
    for name in params:
        assert np.array_equal(params[name], params2[name]), name
    probe = "Round-trip probe: FooBar 3.14!".encode()
    assert np.array_equal(model.forward(params, cfg, probe),
                          model.forward(params2, cfg2, probe))
    _report("checkpoint round-trip (tensors and forward bit-exact)", t0)
