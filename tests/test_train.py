import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatlm import autodiff as ad
from hatlm import checkpoint, config, kernels, model, train
from hatlm.splitter import SplitError, stream
from hatlm.train import GroupPolicy, LrSchedule, lr_at

from conftest import DATA, REPO


# ---------------------------------------------------------------------------
# schedule

SCHED = LrSchedule(warmup_steps=500, stable_lr=3e-4, stable_steps=2000, decay_steps=1000)


def test_lr_starts_at_zero():
    assert lr_at(SCHED, 0) == 0.0


def test_lr_reaches_stable_at_warmup_end():
    assert lr_at(SCHED, 500) == pytest.approx(3e-4)


def test_lr_decays_to_zero_at_last_step():
    assert lr_at(SCHED, 500 + 2000 + 1000) == 0.0
    assert lr_at(SCHED, 500 + 2000 + 999) > 0.0


def test_lr_piecewise_shape():
    assert lr_at(SCHED, 250) == pytest.approx(1.5e-4)
    assert lr_at(SCHED, 1700) == pytest.approx(3e-4)
    assert lr_at(SCHED, 3000) == pytest.approx(1.5e-4)
    assert lr_at(SCHED, 10_000) == 0.0


@pytest.mark.parametrize("field,value", [("stable_lr", math.nan), ("stable_lr", math.inf),
                                         ("stable_lr", -1.0), ("final_lr", math.nan),
                                         ("final_lr", -1e-6), ("warmup_steps", -1),
                                         ("stable_steps", -1), ("decay_steps", -3)])
def test_schedule_refuses_a_rate_or_step_count_it_cannot_use(field, value):
    kw = dict(warmup_steps=1, stable_lr=1e-3, stable_steps=1, decay_steps=1, final_lr=0.0)
    LrSchedule(**kw)
    with pytest.raises(ValueError, match=field):
        LrSchedule(**{**kw, field: value})


# ---------------------------------------------------------------------------
# loss

def test_loss_requires_two_bytes(micro_cfg, micro_params):
    with pytest.raises(ValueError):
        train.loss(micro_params, micro_cfg, b"a")


def test_corpus_loss_weights_documents_by_predicted_bytes(micro_cfg, micro_params):
    assert [len(d) for d in train.documents(b"x" * 27, 13)] == [13, 13]   # 1-byte tail dropped
    corpus = b"Per-byte loss over three docs."               # 30 bytes: 13, 13 and 4
    losses = [train.loss(micro_params, micro_cfg, corpus[i:i + 13]) for i in (0, 13, 26)]
    expect = (12 * losses[0] + 12 * losses[1] + 3 * losses[2]) / 27
    assert train.corpus_loss(micro_params, micro_cfg, corpus, 13) == pytest.approx(expect, rel=1e-12)


@given(text=st.text(max_size=200), seq_len=st.integers(4, 40))
@example(text="abcä", seq_len=4)            # a raw cut would split the ä
@example(text="a\U0001F600b", seq_len=4)    # "a" alone is too short to keep
@settings(max_examples=200, deadline=None)
def test_documents_cut_at_codepoint_boundaries(text, seq_len):
    corpus = text.encode()
    docs = train.documents(corpus, seq_len)
    at = 0
    for d in docs:
        d.decode("utf-8")
        assert 2 <= len(d) <= seq_len
        if corpus[at:at + len(d)] != d:
            # only at seq_len 4: a 1-byte codepoint before a 4-byte one
            assert seq_len == 4 and corpus[at + 1:at + 1 + len(d)] == d
            at += 1
        at += len(d)
    assert len(corpus) - at < 2


@given(text=st.text(max_size=60), seq_len=st.integers(1, 3))
@example(text="a€b", seq_len=2)             # a raw cut gave the document b"\x82\xac"
@example(text="abcdefg", seq_len=1)
@example(text="abcdefg", seq_len=2)
@example(text="abcdefg", seq_len=3)
@example(text="aäb", seq_len=3)
@example(text="ab\U0001F600", seq_len=3)
@settings(max_examples=200, deadline=None)
def test_documents_refuse_a_codepoint_longer_than_seq_len(text, seq_len):
    # whole codepoints, as many as fit, per document; a codepoint that does
    # not fit names seq_len and its offset
    corpus, docs, cur, at = text.encode(), [], b"", 0
    for ch in text:
        b = ch.encode()
        if len(b) > seq_len:
            with pytest.raises(ValueError, match=f"seq_len {seq_len} .* offset {at}$"):
                train.documents(corpus, seq_len)
            return
        if len(cur) + len(b) > seq_len:
            docs.append(cur)
            cur = b""
        cur += b
        at += len(b)
    assert train.documents(corpus, seq_len) == [d for d in docs + [cur] if len(d) >= 2]


def test_documents_refuse_a_corpus_that_is_not_utf8():
    with pytest.raises(SplitError) as err:
        train.documents(b"abcd\xe2\x82ef", 2)
    assert err.value.offset == 4


def test_train_loop_names_seq_len_when_a_codepoint_cannot_fit(micro_cfg):
    with pytest.raises(ValueError, match="seq_len 2 cannot hold the codepoint at byte offset 1"):
        train.train_loop(micro_cfg, "a€b€c".encode() * 3, SCHED, GroupPolicy(), steps=1,
                         seed=0, seq_len=2)


@pytest.mark.parametrize("corpus,seq_len", [(b"a", 256), (b"abc", 1)])
def test_corpus_loss_refuses_a_corpus_with_nothing_to_predict(micro_cfg, micro_params,
                                                               corpus, seq_len):
    with pytest.raises(ValueError, match="corpus too short for the sequence length"):
        train.corpus_loss(micro_params, micro_cfg, corpus, seq_len)


@pytest.mark.parametrize("seq_len", [0, -3])
def test_documents_rejects_a_seq_len_below_one(seq_len):
    with pytest.raises(ValueError, match="seq_len"):
        train.documents(b"abcdef", seq_len)


def test_loss_nonnegative(micro_cfg, micro_params):
    assert train.loss(micro_params, micro_cfg, b"some text here") >= 0.0


def test_loss_matches_graph_loss(micro_cfg, micro_params):
    data = b"cross-check the two loss paths"
    direct = train.loss(micro_params, micro_cfg, data)
    graph, _ = train.loss_and_grads(micro_params, micro_cfg, data)
    assert direct == graph


def test_training_tape_stays_small(micro_cfg, micro_params, monkeypatch):
    # walk the tape from the loss root as `backward` does: the Var nodes,
    # leaves included
    roots, real = [], ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: (roots.append(root), real(root)))
    train.loss_and_grads(micro_params, micro_cfg, (DATA / "english_sample.txt").read_bytes()[:256])
    seen, stack = set(), [roots[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen and type(node) is ad.Var:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) <= 250


def test_debug_finite_training_step(micro_cfg, micro_params, monkeypatch):
    monkeypatch.setattr(kernels, "DEBUG_FINITE", True)
    loss, grads = train.loss_and_grads(micro_params, micro_cfg, b"checked at every node")
    assert np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())


# ---------------------------------------------------------------------------
# gradients

def assert_writable_and_unshared(grads, params):
    arrays = list(grads.values()) + list(params.values())
    assert all(g.flags.writeable for g in grads.values())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])


def test_loss_and_grads_returns_writable_arrays_that_share_no_memory(micro_cfg, micro_params,
                                                                    monkeypatch):
    # in the model, three leaves borrow views of the tape (a concat part, two reshapes)
    _, grads = train.loss_and_grads(micro_params, micro_cfg, b"each gradient is its own array",
                                    frozen=("encoder",))
    assert_writable_and_unshared(grads, micro_params)
    # two leaves added together, then summed, borrow one read-only broadcast view
    a, b = "decoder.final_norm.gain", "encoder.layers.0.attn_norm.gain"
    monkeypatch.setattr(train, "_loss_var", lambda P, *_: ad.sum_(ad.add(P[a], P[b])))
    _, grads = train.loss_and_grads(micro_params, micro_cfg, b"unused")
    assert np.array_equal(grads[a], np.ones(16)) and np.array_equal(grads[b], np.ones(16))
    assert_writable_and_unshared(grads, micro_params)


def test_gradients_deterministic(micro_cfg, micro_params):
    data = b"grad determinism probe"
    _, g1 = train.loss_and_grads(micro_params, micro_cfg, data)
    _, g2 = train.loss_and_grads(micro_params, micro_cfg, data)
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_frozen_group_gradients_are_zero(micro_cfg, micro_params):
    data = b"freeze the backbone"
    _, grads = train.loss_and_grads(micro_params, micro_cfg, data,
                                    frozen=("backbone",))
    for name, g in grads.items():
        if model.group_of(name) == "backbone":
            assert np.array_equal(g, np.zeros_like(g)), name
        elif name == "decoder.lm_head":
            assert np.abs(g).max() > 0


def test_finite_difference_agreement(micro_cfg, micro_params64):
    """Central-difference oracle in float64 across all parameter groups.

    FD noise floor: gradients below 1e-5 in magnitude are compared with the
    denominator floored at 1e-5 (absolute differences there sit at the
    1e-10 roundoff level)."""
    data = "Mixed FooBar text: a+b, 3.14!".encode()
    _, grads = train.loss_and_grads(micro_params64, micro_cfg, data)
    params = {k: v.copy() for k, v in micro_params64.items()}
    rng = np.random.default_rng(12)
    by_group = {}
    for n in sorted(params):
        by_group.setdefault(model.group_of(n), []).append(n)
    h = 1e-5
    worst = 0.0
    for names in by_group.values():
        for _ in range(12):
            name = names[int(rng.integers(len(names)))]
            idx = tuple(int(rng.integers(0, s)) for s in params[name].shape)
            orig = params[name][idx]
            params[name][idx] = orig + h
            lp = train.loss(params, micro_cfg, data)
            params[name][idx] = orig - h
            lm = train.loss(params, micro_cfg, data)
            params[name][idx] = orig
            num = (lp - lm) / (2 * h)
            ana = grads[name][idx]
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-5))
    assert worst < 1e-4, f"max relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# policy and optimizer

def test_policy_file_roundtrip():
    # the README's hatification recipe, a two-line `train-toy --policy` file
    text = "backbone.frozen_until_step=2000\nbackbone.lr_multiplier=0.1\n"
    assert "\n  ".join(text.splitlines()) in (REPO / "README.md").read_text()
    q = GroupPolicy.from_text(text)
    assert q.frozen_until_step.get("backbone") == 2000
    assert q.multiplier("backbone") == pytest.approx(0.1)
    assert q.multiplier("encoder") == 1.0


def test_policy_rejects_unknown_group():
    with pytest.raises(ValueError):
        GroupPolicy(frozen_until_step={"nonsense": 5})


@pytest.mark.parametrize("kw,match", [
    ({"lr_multiplier": {"backbone": math.nan}}, "lr multipliers must be finite and positive"),
    ({"lr_multiplier": {"encoder": math.inf}}, "lr multipliers must be finite and positive"),
    ({"lr_multiplier": {"decoder": 0.0}}, "lr multipliers must be finite and positive"),
    ({"frozen_until_step": {"backbone": -1}}, "frozen_until_step must not be negative")])
def test_policy_refuses_a_multiplier_or_freeze_it_cannot_use(kw, match):
    # a NaN multiplier once passed `m <= 0` and trained step 0 at a NaN rate
    with pytest.raises(ValueError, match=match):
        GroupPolicy(**kw)


@pytest.mark.parametrize("text,match", [
    ("# x\nbackbone.frozen_until_step=x\n", "line 2: policy key backbone.frozen_until_step "
                                            "has no valid value: 'x'"),
    ("encoder.lr_multiplier = 1e\n", "line 1: policy key encoder.lr_multiplier has no valid"),
    ("backbone.lr_multiplier=0.1\n\nbackbone.lr_multiplier=0.2\n",
     "line 3: policy key backbone.lr_multiplier given twice"),
    ("backbone.frozen=3\n", "line 1: unknown policy key 'backbone.frozen'"),
    ("backbone.lr_multiplier=nan\n", "lr multipliers must be finite and positive")])
def test_policy_from_text_names_the_line_and_key_it_refuses(text, match):
    with pytest.raises(ValueError, match=match):
        GroupPolicy.from_text(text)


def test_adam_effective_lr_is_lr_times_multiplier(micro_cfg):
    # one optimizer step must equal the hand-computed update at lr * mult
    params = model.init_params(micro_cfg, seed=9)
    data = b"single step check"
    _, grads = train.loss_and_grads(params, micro_cfg, data)
    name = "backbone.layers.0.attn.wqkv"
    g = grads[name]
    lr, mult = 3e-4, 0.1
    st = train.AdamState()
    before = params[name].copy()
    train.adam_step(params, grads, st,
                    lambda n: lr * (mult if model.group_of(n) == "backbone" else 1.0))
    mhat = (1 - st.beta1) * g / (1 - st.beta1)
    vhat = (1 - st.beta2) * g * g / (1 - st.beta2)
    expect = before - np.float32(lr * mult) * (mhat / (np.sqrt(vhat) + st.eps)
                                               + st.weight_decay * before)
    assert np.allclose(params[name], expect, atol=1e-7)


def allocating_adam_step(params, grads, state, lr_of_name):
    """`train.adam_step` as it was before its in-place moments: every
    operation in a new array."""
    for name in sorted(params):
        if name in grads.unreached:
            continue
        lr = lr_of_name(name)
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        mhat = state.m[name] / (1 - state.beta1 ** t)
        vhat = state.v[name] / (1 - state.beta2 ** t)
        upd = mhat / (np.sqrt(vhat) + state.eps)
        if state.weight_decay and train._decayed(name):
            upd = upd + state.weight_decay * params[name]
        params[name] = params[name] - np.asarray(lr, dtype=params[name].dtype) * upd


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_has_the_bits_of_the_allocating_update(micro_cfg, dtype):
    init = {k: v.astype(dtype) for k, v in model.init_params(micro_cfg, seed=9).items()}
    kept = {k: v.copy() for k, v in init.items()}
    rng = np.random.default_rng(4)
    steps = [train.Grads({k: rng.standard_normal(v.shape).astype(dtype)
                          for k, v in init.items()}) for _ in range(3)]
    steps[1].unreached = frozenset({"encoder.byte_embedding"})  # frozen at the second step
    runs = []
    for adam in (train.adam_step, allocating_adam_step):
        params, state = dict(init), train.AdamState()
        for t, grads in enumerate(steps):
            adam(params, grads, state, lambda n, t=t: 1e-3 * (t + 1))
        runs.append((params, state))
    (got, st_got), (ref, st_ref) = runs
    for k in init:
        assert got[k].dtype == dtype and got[k].tobytes() == ref[k].tobytes(), k
        assert st_got.m[k].tobytes() == st_ref.m[k].tobytes()
        assert st_got.v[k].tobytes() == st_ref.v[k].tobytes()
        assert init[k].tobytes() == kept[k].tobytes()      # the caller's arrays


def test_weight_decay_exemptions():
    assert not train._decayed("encoder.byte_embedding")
    assert not train._decayed("decoder.final_norm.gain")
    assert not train._decayed("backbone.bos")
    assert train._decayed("connector.query")
    assert train._decayed("decoder.lm_head")


# ---------------------------------------------------------------------------
# train loop

CORPUS = (DATA / "overfit_ascii.txt").read_bytes()


def test_freezing_bit_exact_through_boundary(micro_cfg):
    policy = GroupPolicy(frozen_until_step={"backbone": 3})
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=100, decay_steps=1)
    init = model.init_params(micro_cfg, seed=21)
    bb_names = [n for n in init if model.group_of(n) == "backbone"]

    r3 = train.train_loop(micro_cfg, CORPUS, sched, policy, steps=3, seed=21)
    assert all(np.array_equal(r3.params[n], init[n]) for n in bb_names)
    enc_moved = any(not np.array_equal(r3.params[n], init[n])
                    for n in init if model.group_of(n) == "encoder")
    assert enc_moved

    r4 = train.train_loop(micro_cfg, CORPUS, sched, policy, steps=4, seed=21)
    assert any(not np.array_equal(r4.params[n], init[n]) for n in bb_names)


def test_train_deterministic_same_seed(micro_cfg):
    sched = LrSchedule(warmup_steps=2, stable_lr=1e-3, stable_steps=50, decay_steps=2)
    a = train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=12, seed=5)
    b = train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=12, seed=5)
    assert a.loss_curve == b.loss_curve
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    assert a.grad_norms == b.grad_norms and len(a.grad_norms) == 12


def test_train_loop_leaves_the_callers_params_unchanged(micro_cfg):
    # perfbench passes one params dict to every unit it runs
    params = model.init_params(micro_cfg, seed=5)
    kept = {k: v.copy() for k, v in params.items()}
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=10, decay_steps=1)
    res = train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=2, seed=5,
                           seq_len=64, params=params)
    assert params.keys() == kept.keys()
    assert all(params[k].tobytes() == kept[k].tobytes() for k in kept)
    # every tensor Adam updates is a new array; one no gradient reaches is kept
    assert all(res.params[k] is not params[k] for k in kept if not k.endswith(UNREAD))
    assert any(not np.array_equal(res.params[k], kept[k]) for k in kept)


# the decoder cross blocks' tensors that a one-key read ignores (`model.word_context`)
UNREAD = (".cross.wq", ".cross.wk", ".cross.pre_norm.gain")


def test_adam_leaves_the_tensors_no_gradient_reaches(micro_cfg):
    # a byte reads one word, so no gradient reaches the cross blocks' wq, wk
    # and pre-norm gain: Adam neither moves nor decays them, and every other
    # tensor moves
    params = model.init_params(micro_cfg, seed=5)
    unread = frozenset(k for k in params if k.endswith(UNREAD))
    assert len(unread) == 3 * micro_cfg.decoder.n_layers
    assert train.loss_and_grads(params, micro_cfg, CORPUS[:64])[1].unreached == unread
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=10, decay_steps=1)
    res = train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=4, seed=5,
                           seq_len=64, params=params)
    for k in params:
        assert (res.params[k].tobytes() == params[k].tobytes()) == (k in unread), k


@given(text=st.text(min_size=1, max_size=80), seq_len=st.integers(4, 96))
@example(text="a\U0001F600", seq_len=4)    # "a" alone is too short to keep
@example(text="a", seq_len=4)               # no document at all: refused
@example(text="a\u2211b c\U0001F1E9\U0001F1EA", seq_len=5)  # chunk-opening multi-byte codepoints
@settings(max_examples=100, deadline=None)
def test_one_train_step_on_any_utf8_corpus(micro_cfg, text, seq_len):
    # every document streams through the splitter (training's word
    # assignment) and ends on a codepoint boundary; one step stays finite
    corpus = text.encode()
    docs = train.documents(corpus, seq_len)
    for d in docs:
        d.decode("utf-8")
        state, _, index = stream(d, micro_cfg.max_word_bytes)
        assert state.gate.need == 0 and len(index) == len(d)
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=10, decay_steps=1)
    if not docs:        # nothing of 2 bytes or more to predict
        with pytest.raises(ValueError, match="too short"):
            train.train_loop(micro_cfg, corpus, sched, GroupPolicy(), 1, seed=3, seq_len=seq_len)
        return
    res = train.train_loop(micro_cfg, corpus, sched, GroupPolicy(), 1, seed=3, seq_len=seq_len)
    assert len(res.loss_curve) == 1 and np.isfinite(res.loss_curve[0])


@pytest.mark.parametrize("f64", [False, True])
def test_clip_scales_the_gradients_in_place(micro_cfg, micro_params, micro_params64, f64):
    # the bits of the copying clip, grads[k] * scale, in the same arrays; a
    # tensor in `unreached` (the frozen backbone's, given ones here so that
    # counting or scaling them would show) is neither counted nor scaled
    params = micro_params64 if f64 else micro_params
    _, grads = train.loss_and_grads(params, micro_cfg, CORPUS[:64], ("backbone",))
    assert {k for k in grads if model.group_of(k) == "backbone"} <= grads.unreached
    for k in grads.unreached:
        grads[k][...] = 1.0
    names = tuple(k for k in grads if k not in grads.unreached)
    arrays, before = dict(grads), {k: g.copy() for k, g in grads.items()}
    total = math.sqrt(sum(float(np.sum(before[k].astype(np.float64) ** 2)) for k in names))
    assert train.clip_global_norm(grads, 1e-3) == total > 1e-3
    for k, g in grads.items():
        assert g is arrays[k]
        assert g.tobytes() == (before[k] * (1e-3 / total) if k in names else before[k]).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_clip_leaves_gradients_alone_on_a_non_finite_norm(micro_cfg, micro_params, bad):
    # max_norm / inf once scaled every entry by 0, so an infinite one became
    # NaN with a RuntimeWarning
    _, grads = train.loss_and_grads(micro_params, micro_cfg, CORPUS[:64])
    grads["decoder.lm_head"][0, 0] = bad
    before = {k: g.copy() for k, g in grads.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        total = train.clip_global_norm(grads, 1e-3)
    assert math.isnan(total) if math.isnan(bad) else total == math.inf
    for k, g in grads.items():
        assert g.tobytes() == before[k].tobytes()


def test_grad_norms_are_the_unclipped_norms(micro_cfg):
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=10, decay_steps=1)
    rows = []
    res = train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=2, seed=5,
                           clip_norm=1e-3, on_step=rows.append)
    _, grads = train.loss_and_grads(model.init_params(micro_cfg, seed=5), micro_cfg,
                                    CORPUS[:256])
    first = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values()))
    assert res.grad_norms[0] == pytest.approx(first, rel=1e-12) and first > 1e-3
    assert [r["grad_norm"] for r in rows] == res.grad_norms
    assert [r["loss"] for r in rows] == res.loss_curve
    assert [r["lr"] for r in rows] == [lr_at(sched, 0), lr_at(sched, 1)]


def test_loss_trend_downward(micro_cfg):
    sched = LrSchedule(warmup_steps=20, stable_lr=3e-3, stable_steps=300, decay_steps=10)
    res = train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=200, seed=7)
    assert np.mean(res.loss_curve[-20:]) < np.mean(res.loss_curve[:20]) - 1.0


def test_nan_divergence_aborts(micro_cfg, micro_params):
    bad = {k: v.copy() for k, v in micro_params.items()}
    bad["decoder.lm_head"][0, 0] = np.nan
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=10, decay_steps=1)
    with pytest.raises(FloatingPointError):
        train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=2, seed=0,
                         params=bad)


def test_inf_loss_aborts(micro_cfg, monkeypatch):
    monkeypatch.setattr(train, "loss_and_grads", lambda *a: (float("inf"), {}))
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=10, decay_steps=1)
    with pytest.raises(FloatingPointError, match="inf"):
        train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=2, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_gradient_norm_aborts_before_the_update(micro_cfg, monkeypatch, bad):
    # the loss stays finite; the second step's gradient does not
    real, updates = train.loss_and_grads, []

    def poisoned(params, cfg, data, frozen, words):
        loss, grads = real(params, cfg, data, frozen, words)
        if updates:
            grads["decoder.lm_head"][0, 0] = bad
        return loss, grads
    monkeypatch.setattr(train, "loss_and_grads", poisoned)
    monkeypatch.setattr(train, "adam_step", lambda *a: updates.append(a))
    sched = LrSchedule(warmup_steps=1, stable_lr=1e-3, stable_steps=10, decay_steps=1)
    with warnings.catch_warnings(), \
            pytest.raises(FloatingPointError, match="gradient norm .* at step 1$"):
        warnings.simplefilter("error", RuntimeWarning)
        train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=3, seed=0)
    assert len(updates) == 1


def test_train_loop_refuses_negative_steps(micro_cfg):
    sched = LrSchedule(1, 1e-3, 1, 1)
    assert train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=0,
                            seed=0).loss_curve == []
    with pytest.raises(ValueError, match="steps must not be negative, got -3"):
        train.train_loop(micro_cfg, CORPUS, sched, GroupPolicy(), steps=-3, seed=0)


def test_loss_curve_file_format(tmp_path):
    path = tmp_path / "curve.tsv"
    train.write_loss_curve([5.5, 4.25], path)
    assert path.read_text() == "0\t5.500000\n1\t4.250000\n"


def test_empty_corpus_rejected(micro_cfg):
    sched = LrSchedule(1, 1e-3, 1, 1)
    with pytest.raises(ValueError):
        train.train_loop(micro_cfg, b"", sched, GroupPolicy(), steps=1, seed=0)


def test_train_loop_splits_each_document_once(micro_cfg, micro_params, monkeypatch):
    # train_loop streams its 4 documents through the splitter before the
    # first step and passes the words down; the run is bit for bit the one
    # that streams on every step
    sched = LrSchedule(warmup_steps=4, stable_lr=3e-3, stable_steps=40, decay_steps=0)
    corpus = CORPUS[:256]
    splits = []
    real_stream = model.stream
    monkeypatch.setattr(model, "stream", lambda *a: splits.append(a) or real_stream(*a))
    got = train.train_loop(micro_cfg, corpus, sched, GroupPolicy(), steps=32, seed=5,
                           seq_len=64)
    assert len(splits) == 4
    real = train.loss_and_grads
    monkeypatch.setattr(train, "loss_and_grads",
                        lambda params, cfg, data, frozen=(), words=None:
                        real(params, cfg, data, frozen))
    splits.clear()
    want = train.train_loop(micro_cfg, corpus, sched, GroupPolicy(), steps=32, seed=5,
                            seq_len=64)
    assert len(splits) == 4 + 32        # the words made up front go unused
    assert got.loss_curve == want.loss_curve and got.grad_norms == want.grad_norms
    assert all(np.array_equal(got.params[k], want.params[k]) for k in got.params)
    for doc in train.documents(corpus, 64):
        a = real(micro_params, micro_cfg, doc, (), real_stream(doc, micro_cfg.max_word_bytes))
        b = real(micro_params, micro_cfg, doc)
        assert a[0] == b[0] and all(np.array_equal(a[1][k], b[1][k]) for k in a[1])


def test_overfit_demo_runs(tmp_path):
    # the demo script trains, saves a checkpoint, then generates from it
    out = subprocess.run([sys.executable, str(REPO / "scripts" / "overfit_demo.py"),
                          "--steps", "3", "--out-dir", str(tmp_path)],
                         capture_output=True, text=True, cwd=REPO)
    assert out.returncode == 0, out.stderr
    assert len((tmp_path / "loss_curve.tsv").read_text().splitlines()) == 3
    cfg, params = checkpoint.load(tmp_path / "micro_overfit.ckpt")
    assert cfg == config.micro() and params
