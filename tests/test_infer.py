import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatlm import autodiff as ad
from hatlm import config, infer, model, train
from hatlm import kernels as K
from hatlm.infer import (
    GenSession,
    SamplingConfig,
    SessionError,
    cache_report,
    prefill,
    sample_from_logits,
    step_byte,
)
from hatlm.splitter import BYTE_BOS, IncrementalSplitterState, SplitError, Utf8Gate, split

from conftest import (DATA, POOLS, boundary_divergence, half_split_rotate, random_utf8_strings,
                      stacked_byte_stack, word_index_of_bytes)


def make_session(params, cfg, mode="greedy", budget=32, **kw):
    return GenSession(params, cfg, SamplingConfig(mode, **kw), max_new_bytes=budget)


def loop_prefill(session, prompt):
    """Reference prefill, one byte at a time through the incremental path,
    as generation takes bytes: step the backbone for BOS, then per byte push
    it, step the backbone for any words it closes, and encode and decode it.
    An empty prompt encodes and decodes the 0xFE sentinel, which is not
    text: it leaves no pending state and no `inc_index` entry."""
    P, cfg = session.params, session.cfg
    rows, row = session.rows, [session.row]
    rows.grow(1)
    bos = infer._word_stack([session], rows, row, P["backbone.bos"][None])
    session.inject[:] = np.stack([c[0] for c in model.word_context(P, cfg, bos)])
    if not prompt:
        infer._encode_decode([session], [BYTE_BOS], rows, row)
        session.pending_states, session.inc_index = [], []
        session.sentinel_used = True
    session.prompt = bytes(prompt)
    for b in prompt:
        events = session.splitter.push_byte(b)
        if events:
            infer._check_room(session, len(events))
            session.pending_closes = events
            session.prefill_words += len(events)
            rows.grow(session.word_rows + len(events))
            infer._consume_closes([session], rows, row)
        infer._encode_decode([session], [b], rows, row)
    if session.splitter.gate.need:
        raise SessionError("prompt ends inside a multi-byte codepoint")
    session.status = "mid_word"
    return session


# ---------------------------------------------------------------------------
# prefill

ENGLISH = (DATA / "english_sample.txt").read_bytes()


# 14, 15 and 16 B sit around micro's decoder tail, 2 * (8 - 1) + 1 bytes
@pytest.mark.parametrize("prompt", [b"Hello, world", b"a", b"FooBar x ", b"3.14 and...",
                                    *(pytest.param(ENGLISH[:n], id=f"english{n}B")
                                      for n in (14, 15, 16, 100, 2000))])
def test_prefill_matches_full_forward(micro_cfg, micro_params, prompt):
    s = prefill(make_session(micro_params, micro_cfg), prompt)
    full = model.forward(micro_params, micro_cfg, prompt)
    assert np.max(np.abs(s.cur_logits - full[-1])) < 1e-4


def test_no_grad_passes_build_no_var(micro_cfg, micro_params, monkeypatch):
    # a primitive over plain arrays returns its kernel's array: a prefill of
    # a 64-prompt pack, a loss and generation steps (word steps included)
    # make no tape node
    made, real = [], ad.Var.__init__
    monkeypatch.setattr(ad.Var, "__init__",
                        lambda self, *a, **kw: made.append(1) or real(self, *a, **kw))
    prompts = [s.encode() for s in random_utf8_strings(64, seed=11)]
    sessions = [make_session(micro_params, micro_cfg) for _ in prompts]
    infer.BatchRunner(sessions, infer.BoundarySync()).prefill_all(prompts)
    train.loss(micro_params, micro_cfg, ENGLISH[:256])
    s = prefill(make_session(micro_params, micro_cfg, "forced", forced=b"ab cd ef"), b"x")
    for _ in range(8):
        step_byte(s)
    assert s.gen_closes >= 2 and made == []
    ad.add(ad.wrap(np.ones(2), rg=True), 1.0)          # a taped op makes its node
    assert len(made) == 2


def test_prefill_twice_identical_state(micro_cfg, micro_params):
    a = prefill(make_session(micro_params, micro_cfg), b"same prompt")
    b = prefill(make_session(micro_params, micro_cfg), b"same prompt")
    assert np.array_equal(a.cur_logits, b.cur_logits)
    assert cache_report(a) == cache_report(b)
    assert a.backbone_calls == b.backbone_calls


def test_new_session_only_allocates(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg)
    assert (s.backbone_calls, s.word_rows, s.next_pos) == (0, 0, 0)
    assert s.cur_logits is None
    assert s.rows.enc.shape[0] == 1 and s.row == 0
    assert not any(a.any() for a in (s.enc_ring, s.dec_ring, s.inject, s.words))


def test_prefill_empty_prompt_uses_sentinel(micro_cfg, micro_params):
    s = prefill(make_session(micro_params, micro_cfg), b"")
    assert s.sentinel_used
    assert s.word_rows == 1                 # BOS only
    assert s.backbone_calls == 1
    assert s.cur_logits.shape == (256,)


def test_prefill_rejects_partial_codepoint_prompt(micro_cfg, micro_params):
    with pytest.raises(SessionError):
        prefill(make_session(micro_params, micro_cfg), "é".encode()[:1])


def test_prefill_rejects_double_call(micro_cfg, micro_params):
    s = prefill(make_session(micro_params, micro_cfg), b"x")
    with pytest.raises(SessionError):
        prefill(s, b"y")


PROMPT = st.lists(st.sampled_from([c for pool in POOLS for c in pool]),
                  min_size=1, max_size=24).map("".join)


def assert_close(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) < 1e-4


@given(prompt=PROMPT, script=PROMPT, cap=st.sampled_from([4, 16]))
@example(prompt="abcdefg", script="h i", cap=16)            # one byte short of the window
@example(prompt="abcdefgh", script="ij", cap=16)            # exactly the window
@example(prompt="abcdefghijklmnopq r", script="s", cap=16)  # a word past the cap
@example(prompt="abcde fg", script="h.", cap=4)
@example(prompt="a+b", script="c", cap=16)                  # closes on the last byte
@example(prompt="日本語", script="は", cap=16)              # a multi-byte close at the end
@example(prompt="x \U0001F600", script="é", cap=4)
@example(prompt="ééé❤️", script="ß", cap=4)
@example(prompt="", script="hi", cap=16)                    # the sentinel alone
@settings(max_examples=40, deadline=None)
def test_prefill_matches_byte_loop(micro_cfg, micro_params, prompt, script, cap):
    cfg = replace(micro_cfg, max_word_bytes=cap)

    def make():
        return GenSession(micro_params, cfg, SamplingConfig("forced", forced=script.encode()),
                          max_new_bytes=len(script.encode()))
    ref, got = loop_prefill(make(), prompt.encode()), prefill(make(), prompt.encode())
    rows = ref.word_rows
    assert got.word_rows == rows
    for a, b in ((ref.cur_logits, got.cur_logits), (ref.enc_ring, got.enc_ring),
                 (ref.dec_ring, got.dec_ring), (ref.inject, got.inject),
                 (ref.words[:, :, :rows], got.words[:, :, :rows]),
                 (np.array(ref.pending_states), np.array(got.pending_states))):
        assert_close(a, b)
    assert got.splitter == ref.splitter
    assert got.splitter.gate == ref.splitter.gate
    assert got.inc_index == ref.inc_index
    assert got.consumed_spans == ref.consumed_spans
    assert (got.pending_base, got.next_pos, got.prefill_words, got.backbone_calls,
            got.sentinel_used) == (ref.pending_base, ref.next_pos, ref.prefill_words,
                                   ref.backbone_calls, ref.sentinel_used)
    assert (got.committed, got.status) == (ref.committed, ref.status)
    while not ref.finished:
        step_byte(ref)
        step_byte(got)
        assert_close(ref.cur_logits, got.cur_logits)
    assert got.finished and bytes(got.generated) == bytes(ref.generated)


def test_word_after_ignorable_after_punctuation_is_pooled(micro_cfg, micro_params):
    # "a:" then U+0301 looks like two chunks until "b" makes one word of
    # "a:\u0301b" (WB6/7 read past the mark): a close of "a" taken early and
    # never taken back would leave bytes 1-4 out of every pooled span
    data = "a:\u0301b c d".encode()
    expect = split(data)[:-1]
    assert expect == [(0, 5), (5, 7)]
    assert prefill(make_session(micro_params, micro_cfg), data).consumed_spans == expect
    s = GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=data),
                   max_new_bytes=len(data))
    prefill(s, b"")
    while not s.finished:
        step_byte(s)
    assert bytes(s.generated) == data and s.consumed_spans == expect


# ---------------------------------------------------------------------------
# sampling

def test_greedy_ties_break_to_lower_byte():
    logits = np.zeros(256)
    logits[[65, 66, 190]] = 7.0
    allowed = np.ones(256, dtype=bool)
    assert sample_from_logits(logits, allowed, SamplingConfig("greedy"), None) == 65


def test_greedy_respects_mask():
    logits = np.zeros(256)
    logits[0x80] = 10.0  # continuation byte, illegal at a boundary
    gate = Utf8Gate()
    pick = sample_from_logits(logits, gate.allowed(), SamplingConfig("greedy"), None)
    assert pick != 0x80


@pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sampling_refuses_a_temperature_that_is_not_finite_and_positive(temperature):
    with pytest.raises(ValueError, match="temperature must be finite and positive"):
        SamplingConfig("temperature", temperature=temperature)
    SamplingConfig("greedy", temperature=temperature)    # read only when sampling


def test_temperature_sampling_deterministic(micro_cfg, micro_params):
    outs = []
    for _ in range(2):
        s = make_session(micro_params, micro_cfg, "temperature",
                         budget=24, temperature=0.8, seed=99)
        infer.generate(s, b"seeded ")
        outs.append(bytes(s.generated))
    assert outs[0] == outs[1]


def test_generated_stream_is_valid_utf8(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, "temperature",
                     budget=60, temperature=1.5, seed=3)
    infer.generate(s, b"")
    data = bytes(s.generated)
    # trim a possibly budget-truncated trailing codepoint, then decode strictly
    while data and data[-1] >= 0x80:
        try:
            data.decode("utf-8")
            break
        except UnicodeDecodeError:
            data = data[:-1]
    data.decode("utf-8")


def test_utf8_gate_enforces_continuations():
    state = IncrementalSplitterState()
    state.push_byte(0xE0)
    mask = state.gate.allowed()
    assert mask[0xA0] and not mask[0x80] and not mask[0xFF]
    with pytest.raises(SplitError):
        state.push_byte(0x41)


@pytest.mark.parametrize("prefix", [b"", b"a", b"\xc3", b"\xe0", b"\xed", b"\xf0",
                                    b"\xf4", b"\xe1\x80", b"\xf0\x90\x80"])
def test_utf8_gate_admits_matches_allowed(prefix):
    gate = Utf8Gate()
    for b in prefix:
        gate.push(b)
    mask = gate.allowed()
    assert [gate.admits(b) for b in range(256)] == mask.tolist()


# ---------------------------------------------------------------------------
# stepping

def test_forced_generation_advances_backbone_at_word_closes(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, "forced", budget=16, forced=b"FooBar end")
    prefill(s, b"Say: ")        # "Say:" closes; " " stays open
    rows = [s.word_rows]
    for _ in range(10):
        step_byte(s)
        rows.append(s.word_rows)
    # prompt: BOS + "Say:" consumed = 2 rows. " Foo" closes at 'B' (camel split),
    # " FooB..." no wait: pushing F,o,o -> no closes; B closes " Foo"; a,r no;
    # ' ' closes "Bar"; e,n,d no.
    assert rows[0] == 2
    deltas = [b - a for a, b in zip(rows, rows[1:])]
    assert deltas == [0, 0, 0, 1, 0, 0, 1, 0, 0, 0]


def test_mid_word_steps_keep_word_rows(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, "forced", budget=8, forced=b"abc")
    prefill(s, b"x")
    before = s.word_rows
    step_byte(s)  # 'a' extends the open word "x"
    assert s.word_rows == before


def test_eos_finishes_without_commit(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, "forced", budget=8, forced=b"hi")
    prefill(s, b"p ")
    step_byte(s)
    step_byte(s)
    out = step_byte(s)          # forced list empty -> EOS
    assert out == 0xFF and s.finished
    assert bytes(s.generated) == b"hi"


def test_step_on_finished_session_raises(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, budget=1)
    prefill(s, b"go")
    step_byte(s)
    assert s.finished
    with pytest.raises(SessionError):
        step_byte(s)


def test_byte_budget_finishes_session(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, budget=5)
    infer.generate(s, b"start ")
    assert len(s.generated) <= 5


@pytest.mark.parametrize("prompt", [b"hello wor", b""])
def test_zero_byte_budget_emits_nothing(micro_cfg, micro_params, prompt):
    # a prompt that ends inside a word leaves prefill with a byte to sample;
    # a spent budget finishes the session there instead
    s = make_session(micro_params, micro_cfg, budget=0)
    assert infer.generate(s, prompt) == b""
    assert s.finished and s.next_pos == len(prompt) + (not prompt)
    with pytest.raises(SessionError, match="finished"):
        step_byte(s)


@pytest.mark.parametrize("budget", [-1, -3])
def test_negative_byte_budget_is_refused(micro_cfg, micro_params, budget):
    with pytest.raises(ValueError, match=f"max_new_bytes must be >= 0, got {budget}"):
        make_session(micro_params, micro_cfg, budget=budget)


# ---------------------------------------------------------------------------
# equivalence with batch recomputation

def test_incremental_matches_batch_oracle(micro_cfg, micro_params):
    for prompt in [b"The cat ", b"", b"one two three "]:
        s = make_session(micro_params, micro_cfg, budget=20)
        prefill(s, prompt)
        while not s.finished:
            oracle = model.next_byte_logits(
                micro_params, micro_cfg, s.committed, list(s.consumed_spans),
                s.inc_index, s.sentinel_used)
            assert np.max(np.abs(s.cur_logits - oracle)) < 1e-4
            expect = sample_from_logits(oracle, s.splitter.gate.allowed(),
                                        SamplingConfig("greedy"), None)
            out = step_byte(s)
            assert out == expect


MICRO_TEXT = [ln.split("=") for ln in config.to_text(config.micro()).splitlines()]
CONFIG_VALUES = ["none", "true", "0", "-1", "1", "2", "4", "8", "1e-30", "inf", "nan"]


@given(edits=st.dictionaries(st.sampled_from([k for k, _ in MICRO_TEXT if k != "format_version"]),
                             st.sampled_from(CONFIG_VALUES), min_size=1, max_size=3))
@example(edits={"backbone.window": "4"})     # generation reads every word-cache row
@settings(max_examples=200, deadline=None)
def test_any_config_mutation_runs_or_fails_typed(edits):
    # a micro config with 1-3 keys changed either fails `from_text` with a
    # ValueError, or prefills a short mixed-script prompt and generates 2
    # bytes (each closing a word) with finite logits within 1e-4 of the
    # oracle, or fails typed
    try:
        cfg = config.from_text("".join(f"{k}={edits.get(k, v)}\n" for k, v in MICRO_TEXT))
    except ValueError:
        return
    try:
        params = model.init_params(cfg, seed=7)
        s = prefill(GenSession(params, cfg, SamplingConfig("forced", forced=b" x"), 2),
                    "a∑b c d e 日本 f g h".encode())
        while True:
            oracle = model.next_byte_logits(params, cfg, s.committed, list(s.consumed_spans),
                                            s.inc_index, s.sentinel_used)
            assert np.all(np.isfinite(s.cur_logits))
            assert np.max(np.abs(s.cur_logits - oracle)) < 1e-4
            if s.finished:
                break
            step_byte(s)
    except (ValueError, SessionError):
        pass


def assert_caches_match_prompt_pass(s: GenSession):
    """Every layer's keys and values in the session's encoder and decoder
    rings and its word cache equal, within 1e-4, the ones `model.prompt_pass`
    computes for the same committed bytes, spans and index. A key rotated by
    a wrong position differs by O(1) here, where the logits barely move."""
    cfg = s.cfg
    fw = model.prompt_pass(s.params, cfg, [(s.committed, s.consumed_spans,
                                            np.array(s.inc_index), s.sentinel_used)])[0]
    m = s.next_pos
    for ring, kv, w in ((s.enc_ring, fw.encoder_kv, cfg.encoder.window),
                        (s.dec_ring, fw.decoder_kv, cfg.decoder.window)):
        slots = np.arange(max(0, m - w), m) % w
        for i in range(len(kv)):
            assert_close(ring[i][:, slots], kv[i])
    rows = s.word_rows
    for i in range(len(fw.backbone_kv)):
        assert_close(s.words[i, :, :rows], fw.backbone_kv[i])


POSITION_SCRIPTS = [("Hello there, ", "general kenobi, you are a bold one."),
                    ("", "a b c d e f g h i j"),
                    ("日本語 and ", "ééé ❤️ x\U0001F600y done")]


@pytest.mark.parametrize("prompt,script", POSITION_SCRIPTS)
def test_solo_caches_match_prompt_pass_after_forced_bytes(micro_cfg, micro_params,
                                                          prompt, script):
    script = script.encode()
    s = GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=script),
                   max_new_bytes=len(script))
    prefill(s, prompt.encode())
    assert_caches_match_prompt_pass(s)
    while not s.finished:
        step_byte(s)
        assert_caches_match_prompt_pass(s)
    assert bytes(s.generated) == script


def test_batched_caches_match_prompt_pass_after_forced_bytes(micro_cfg, micro_params):
    sessions = [GenSession(micro_params, micro_cfg,
                           SamplingConfig("forced", forced=script.encode()),
                           max_new_bytes=len(script.encode()))
                for _, script in POSITION_SCRIPTS]
    runner = infer.BatchRunner(sessions, infer.BoundarySync())
    runner.prefill_all([prompt.encode() for prompt, _ in POSITION_SCRIPTS])
    while not all(s.finished for s in sessions):
        runner.run_tick()
        for s in sessions:
            if s.status != "at_boundary":
                assert_caches_match_prompt_pass(s)
    assert [bytes(s.generated) for s in sessions] == \
        [script.encode() for _, script in POSITION_SCRIPTS]


def test_incremental_matches_training_forward_on_ascii(micro_cfg, micro_params):
    # where prefix consistency holds (ASCII), the generation-time assignment
    # equals the teacher-forced one, so the training forward is also an oracle
    s = make_session(micro_params, micro_cfg, budget=15)
    prefill(s, b"abc def ")
    while not s.finished:
        committed = s.committed
        assert s.inc_index == word_index_of_bytes(committed, micro_cfg.max_word_bytes)
        full = model.forward(micro_params, micro_cfg, committed)
        assert np.max(np.abs(s.cur_logits - full[-1])) < 1e-4
        step_byte(s)


MIXED = ["a∑b c", "flag \U0001F1E9\U0001F1EA then ∑x≤y",
         *random_utf8_strings(60, seed=7, max_len=30)]


def test_training_forward_matches_prefill_at_every_codepoint_boundary(micro_cfg, micro_params):
    # training reads generation's causal word index (`splitter.stream`), so
    # the teacher-forced logits of byte i are those of a session prefilled
    # with bytes 0..i, also where the batch split assigns bytes otherwise
    assert boundary_divergence(MIXED[0].encode()) == (2, [1, 2])
    for data in (text.encode() for text in MIXED if text):
        logits = model.forward(micro_params, micro_cfg, data)
        for i in range(len(data)):
            if i + 1 < len(data) and data[i + 1] & 0xC0 == 0x80:
                continue                # inside a codepoint: no prefill ends here
            s = prefill(make_session(micro_params, micro_cfg), data[:i + 1])
            assert np.max(np.abs(s.cur_logits - logits[i])) < 1e-4, (data, i)


# ---------------------------------------------------------------------------
# cache accounting

def test_cache_rows_formula(micro_cfg, micro_params):
    w = micro_cfg.encoder.window
    prompt = b"ab"
    s = make_session(micro_params, micro_cfg, "forced", budget=64,
                     forced=b"cdefghijklmnopqr")  # one long word, no closes
    prefill(s, prompt)
    assert cache_report(s).word_rows == 1 + s.prefill_words
    for g in range(1, 13):
        step_byte(s)
        rep = cache_report(s)
        assert rep.byte_rows == min(len(prompt) + g, w)
        assert rep.byte_rows <= w
    assert s.gen_closes == 0


def test_word_rows_grow_one_per_close(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, "forced", budget=64, forced=b"aa bb cc ")
    prefill(s, b"")
    rows = cache_report(s).word_rows
    while not s.finished:
        step_byte(s)
        assert cache_report(s).word_rows == rows + s.gen_closes


def test_cache_memory_projection(micro_cfg, micro_params):
    s = prefill(make_session(micro_params, micro_cfg), b"memory check")
    rep = cache_report(s)
    itemsize = 4

    def kv(stack, rows):
        return stack.n_layers * rows * 2 * stack.n_kv_heads * stack.head_size * itemsize

    expect = (kv(micro_cfg.encoder, rep.byte_rows)
              + kv(micro_cfg.decoder, rep.byte_rows)
              + kv(micro_cfg.backbone, rep.word_rows))
    assert rep.memory_bytes == expect


def test_backbone_call_accounting(micro_cfg, micro_params):
    s = make_session(micro_params, micro_cfg, budget=25)
    infer.generate(s, b"count the calls ")
    assert s.backbone_calls == 1 + s.prefill_words + s.gen_closes
    assert s.word_rows == s.backbone_calls


def test_word_position_limit_raises(micro_cfg, micro_params):
    from dataclasses import replace
    tiny = replace(micro_cfg, backbone=replace(micro_cfg.backbone, max_positions=2))
    s = GenSession(micro_params, tiny, SamplingConfig("forced", forced=b"a b c d e"),
                   max_new_bytes=32)
    with pytest.raises(SessionError):
        prefill(s, b"x ")
        while not s.finished:
            step_byte(s)


# ---------------------------------------------------------------------------
# blocked word-step reads

def lone_word_stack(P, cfg, s, x):
    """The backbone step of one lone session, as a loop over its own word
    cache `s.words`: per layer, put the new row n and read the cache's first
    (n // WORD_BLOCK + 1) * WORD_BLOCK slots, masked past n, with no batch axis."""
    bb, n = cfg.backbone, s.word_rows
    m = (n // infer.WORD_BLOCK + 1) * infer.WORD_BLOCK
    s.rows.grow(n + 1)
    kv, rot = s.words, model.rope_rows(bb, [[n]], x.dtype)
    for i in range(bb.n_layers):
        prefix = f"backbone.layers.{i}"
        qk, v = model.layer_qkv(P, prefix, bb, cfg, x[None], rot)
        kv[i, 0, n], kv[i, 1, n] = qk[0, bb.n_heads:], v[0]
        o = infer.attend(qk[0, :bb.n_heads], kv[i, 0, :m], kv[i, 1, :m],
                         cfg.softcap, np.arange(m) <= n)
        x = model.layer_out(P, prefix, cfg, x[None], o[None])[0]
    s.word_rows += 1
    return x


def counts(lo, hi, distinct):
    """Lists of 1-64 counts in [lo, hi]: any mix, all equal, or all distinct."""
    return st.one_of(
        st.lists(st.integers(lo, hi), min_size=1, max_size=64),
        st.integers(lo, hi).flatmap(lambda r: st.lists(st.just(r), min_size=1, max_size=64)),
        st.lists(st.integers(lo, hi), min_size=1, max_size=distinct, unique=True))


# the row counts around a 16-row block's edges
EDGES = st.sampled_from([15, 16, 17, 31, 32, 33])


@given(rows=st.one_of(counts(0, 70, 64), st.lists(st.one_of(EDGES, st.integers(0, 70)),
                                                  min_size=1, max_size=64)),
       pick=st.sampled_from(["all", "ordered", "unordered", "one"]), f64=st.booleans(),
       cap=st.sampled_from([None, 30.0]), seed=st.integers(0, 2 ** 16))
@example(rows=[15, 16, 17, 31, 32, 33], pick="all", f64=False, cap=30.0, seed=0)
@example(rows=[3], pick="one", f64=True, cap=None, seed=0)
@example(rows=[5, 5, 9, 15, 40, 20, 16, 47], pick="unordered", f64=False, cap=30.0, seed=1)
@settings(max_examples=60, deadline=None)
def test_blocked_word_reads_match_each_cache_read_alone(micro_cfg, micro_params, micro_params64,
                                                        rows, pick, f64, cap, seed):
    # a word step over rows of a runner's word caches, grouped by block
    # count (a view of a run of rows, else a gather), against each lone
    # session's step over its own cache: the same bits, and the same cache rows
    P, cfg = micro_params64 if f64 else micro_params, replace(micro_cfg, softcap=cap)
    bb, rng, dtype = cfg.backbone, np.random.default_rng(seed), P["backbone.bos"].dtype
    lone = []
    for r in rows:
        s = GenSession(P, cfg)
        s.rows.grow(r)
        s.words[:, :, :r] = rng.standard_normal((bb.n_layers, 2, r, bb.n_kv_heads, bb.head_size))
        s.word_rows = r
        lone.append(s)
    # the runner's rows hold every session's next row, as `run_tick` grows them
    batch = infer._Rows.zeros(cfg, dtype, len(rows), infer.WORD_BLOCK)
    batch.grow(max(rows) + 1)
    sessions = []
    for j, ref in enumerate(lone):
        batch.words[j, :, :, :ref.words.shape[2]] = ref.words
        s = GenSession(P, cfg)
        s.rows, s.row, s.word_rows = batch, j, ref.word_rows
        sessions.append(s)
    n = len(rows)
    at = {"all": np.arange(n), "one": rng.integers(0, n, 1),
          "ordered": np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False)),
          "unordered": rng.permutation(n)[:rng.integers(1, n + 1)]}[pick].tolist()
    x = rng.standard_normal((len(at), bb.hidden)).astype(dtype)
    got = infer._word_stack([sessions[j] for j in at], batch, at, x)
    want = [lone_word_stack(P, cfg, lone[j], x[t]) for t, j in enumerate(at)]
    assert np.array_equal(got, np.stack(want))
    for j, (s, ref) in enumerate(zip(sessions, lone)):
        m = min(ref.words.shape[2], s.words.shape[2])
        assert (s.word_rows, s.backbone_calls) == (ref.word_rows, int(j in at))
        assert np.array_equal(s.words[:, :, :m], ref.words[:, :, :m])
        assert not s.words[:, :, m:].any() and not ref.words[:, :, m:].any()


@given(lens=counts(1, 16, 16), f64=st.booleans(), cap=st.sampled_from([None, 30.0]),
       seed=st.integers(0, 2 ** 16))
@example(lens=[1], f64=False, cap=30.0, seed=0)
@example(lens=[16, 1, 16, 2, 1], f64=True, cap=None, seed=1)
@settings(max_examples=60, deadline=None)
def test_tiled_pooling_matches_each_span_pooled_alone(micro_cfg, micro_params, micro_params64,
                                                      lens, f64, cap, seed):
    # the word step pools a round's words in one `pool_words_var` call over
    # the stack of their states, which the spans tile: each word gets the
    # bits it gets pooled alone
    assert max(lens) <= micro_cfg.max_word_bytes
    P, cfg = micro_params64 if f64 else micro_params, replace(micro_cfg, softcap=cap)
    states = np.random.default_rng(seed).standard_normal(
        (sum(lens), cfg.encoder.hidden)).astype(P["encoder.byte_embedding"].dtype)
    ends = np.cumsum(lens).tolist()
    spans = [(b - n, b) for n, b in zip(lens, ends)]
    alone = [model.pool_words_var(P, cfg, states[a:b], [(0, b - a)]) for a, b in spans]
    assert np.array_equal(model.pool_words_var(P, cfg, states, spans), np.concatenate(alone))


@given(n=st.sampled_from([1, 2, 23, 64]), pick=st.sampled_from(["all", "subset", "one"]),
       full=st.booleans(), f64=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(n=64, pick="all", full=False, f64=False, seed=0)
@example(n=23, pick="subset", full=True, f64=True, seed=1)
@settings(max_examples=60, deadline=None)
def test_batch_rings_match_stacked_rings(micro_cfg, micro_params, micro_params64,
                                         n, pick, full, f64, seed):
    # a byte step over rows of a batch's ring and injection arrays (in place
    # when it takes every row in order, else a gather and a slot scatter)
    # against the step that stacks per-session rings and copies slots back
    P, rng, cfg = micro_params64 if f64 else micro_params, np.random.default_rng(seed), micro_cfg
    dtype, w = P["encoder.byte_embedding"].dtype, cfg.encoder.window
    enc, dec = (rng.standard_normal((n, *infer._ring(stack))).astype(dtype)
                for stack in (cfg.encoder, cfg.decoder))
    inject = rng.standard_normal((n, cfg.decoder.n_layers, cfg.decoder.hidden)).astype(dtype)
    rows = {"all": np.arange(n), "one": rng.integers(0, n, 1),
            "subset": np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))}[pick]
    pos = rng.integers(w - 1 if full else 0, cfg.encoder.max_positions, len(rows))
    if not full:
        pos[rng.integers(len(rows))] = rng.integers(0, w - 1)    # a ring not yet full
    x0 = P["encoder.byte_embedding"][rng.integers(0, 256, len(rows))]
    ref_enc, ref_dec, ref_inject = [list(a.copy()) for a in (enc, dec, inject)]
    sel = slice(None) if len(rows) == n else rows       # as `infer._encode_decode` picks
    x = infer._byte_stack(P, "encoder", cfg, enc, sel, x0, pos)
    y = infer._byte_stack(P, "decoder", cfg, dec, sel, x, pos, inject[sel])
    want_x = stacked_byte_stack(P, "encoder", cfg, [ref_enc[r] for r in rows], x0, pos)
    want_y = stacked_byte_stack(P, "decoder", cfg, [ref_dec[r] for r in rows], want_x, pos,
                                np.stack([ref_inject[r] for r in rows]))
    assert np.array_equal(x, want_x) and np.array_equal(y, want_y)
    for got, want in ((enc, ref_enc), (dec, ref_dec), (inject, ref_inject)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_word_step_reads_once_per_cache_shape(micro_cfg, micro_params, monkeypatch):
    # 64 sessions at a boundary hold 3 distinct word-cache row counts in 2
    # blocks of 16 rows and close words of 5 distinct lengths: a word step
    # makes one backbone read per layer and block count, and pools every
    # word in one call
    prompts = [("w" + " w" * (i % 3 * 9) + " " + "x" * (1 + i // 3 % 5)).encode()
               for i in range(64)]
    sessions = [GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=b" "),
                           max_new_bytes=1) for _ in prompts]
    runner = infer.BatchRunner(sessions, infer.BoundarySync())
    runner.prefill_all(prompts)
    runner.run_tick()
    assert all(len(s.pending_closes) == 1 for s in sessions)
    k = len({s.word_rows // infer.WORD_BLOCK for s in sessions})
    m = len({e - a for s in sessions for a, e in s.pending_closes})
    assert (len({s.word_rows for s in sessions}), k, m) == (3, 2, 5)
    calls, pools = [], []
    attend, pool = infer.attend, model.pool_words_var
    monkeypatch.setattr(infer, "attend", lambda *a: calls.append(a) or attend(*a))
    monkeypatch.setattr(model, "pool_words_var", lambda *a: pools.append(a) or pool(*a))
    infer._consume_closes(sessions, runner._rows, list(range(64)))
    assert len(calls) == micro_cfg.backbone.n_layers * k
    assert len(pools) == 1 and len(pools[0][3]) == 64


# ---------------------------------------------------------------------------
# the fused layer against the per-projection layer it replaced

def per_projection_qkv(P, prefix, cfg, s, x, pos):
    """Rows x [n, hidden] at positions pos to rotated q [n, n_heads, hs] and
    rotated k, v [n, n_kv, hs], as the layer computed them with separate
    products: wq, wk, wv are sliced out of wqkv, and qk-norm and a per-call
    `rope_angles` rotation run on q and on k apart."""
    n, hs = len(x), s.head_size
    wq, wk, wv = np.split(P[f"{prefix}.attn.wqkv"], np.cumsum([s.n_heads, s.n_kv_heads]) * hs, 1)
    h = K.rms_norm(x, cfg.norm_eps, P[f"{prefix}.attn_norm.gain"])
    q = K.matmul(h, wq).reshape(n, s.n_heads, hs)
    k = K.matmul(h, wk).reshape(n, s.n_kv_heads, hs)
    v = K.matmul(h, wv).reshape(n, s.n_kv_heads, hs)
    if cfg.qk_norm:
        q, k = K.rms_norm(q, cfg.norm_eps), K.rms_norm(k, cfg.norm_eps)
    cos, sin = (t[:, None] for t in K.rope_angles(pos, hs, s.rope_base, x.dtype))
    return half_split_rotate(q, cos, sin), half_split_rotate(k, cos, sin), v


def per_projection_out(P, prefix, cfg, x, o):
    """The attention output projection and the MLP, both residual, with
    w_gate and w_up sliced out of w_gate_up and multiplied apart."""
    w_gate, w_up = np.split(P[f"{prefix}.mlp.w_gate_up"], 2, axis=1)
    x = x + K.matmul(o, P[f"{prefix}.attn.wo"])
    h = K.rms_norm(x, cfg.norm_eps, P[f"{prefix}.mlp_norm.gain"])
    g = K.silu(K.matmul(h, w_gate))
    g *= K.matmul(h, w_up)
    return x + K.matmul(g, P[f"{prefix}.mlp.w_down"])


LAYERS = [(stack, i) for stack in ("encoder", "backbone", "decoder") for i in range(2)]


@given(layer=st.sampled_from(LAYERS), lens=st.lists(st.integers(1, 80), min_size=1, max_size=4),
       qk_norm=st.booleans(), taped=st.booleans(), f64=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_tape_layer_matches_per_projection_layer(micro_cfg, micro_params, micro_params64,
                                                 layer, lens, qk_norm, taped, f64, seed):
    # the tape's layer (`model.layer_qkv`, `ad.attention`, `model.layer_out`)
    # on a pack of sequences, with and without a gradient tape
    (stack, i), cfg = layer, replace(micro_cfg, qk_norm=qk_norm)
    s, prefix, P = getattr(cfg, stack), f"{stack}.layers.{i}", \
        micro_params64 if f64 else micro_params
    pos = np.concatenate([np.arange(n) for n in lens])
    x = np.random.default_rng(seed).standard_normal((len(pos), s.hidden))
    x = x.astype(P[prefix + ".attn.wo"].dtype)
    xv = ad.wrap(x, rg=taped)
    qk, v = model.layer_qkv(P, prefix, s, cfg, xv, model.rope_rows(s, pos[:, None], x.dtype))
    o = ad.attention(ad.transpose(qk, (1, 0, 2)), ad.transpose(v, (1, 0, 2)), pos, s.window,
                     cfg.softcap)
    y = model.layer_out(P, prefix, cfg, xv, o)
    q, k, v = (a.transpose(1, 0, 2) for a in per_projection_qkv(P, prefix, cfg, s, x, pos))
    o = ad.attention(np.concatenate([q, k]), v, pos, s.window, cfg.softcap)
    want = per_projection_out(P, prefix, cfg, x, o)
    assert (type(y) is ad.Var) == taped and np.array_equal(y.v if taped else y, want)


@given(layer=st.sampled_from(LAYERS), b=st.integers(1, 64), qk_norm=st.booleans(),
       f64=st.booleans(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_step_layer_matches_per_projection_layer(micro_cfg, micro_params, micro_params64,
                                                 layer, b, qk_norm, f64, seed):
    # the incremental step's halves (`model.layer_qkv`, `model.layer_out` on
    # plain rows) on b rows, each at its own position, with the rotation read
    # from the table
    (stack, i), cfg = layer, replace(micro_cfg, qk_norm=qk_norm)
    s, prefix, P = getattr(cfg, stack), f"{stack}.layers.{i}", \
        micro_params64 if f64 else micro_params
    rng = np.random.default_rng(seed)
    dtype = P[prefix + ".attn.wo"].dtype
    x = rng.standard_normal((b, s.hidden)).astype(dtype)
    o = rng.standard_normal((b, s.n_heads * s.head_size)).astype(dtype)
    pos = rng.integers(0, s.max_positions, b)
    qk, v = model.layer_qkv(P, prefix, s, cfg, x, model.rope_rows(s, pos[:, None], dtype))
    got = qk[:, :s.n_heads], qk[:, s.n_heads:], v
    for a, want in zip(got, per_projection_qkv(P, prefix, cfg, s, x, pos)):
        assert np.array_equal(a, want)
    assert np.array_equal(model.layer_out(P, prefix, cfg, x, o),
                          per_projection_out(P, prefix, cfg, x, o))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_table_rows_match_rope_angles(micro_cfg, dtype):
    # C[p] is cos_p|cos_p and S[p] is -sin_p|sin_p, of `rope_angles` at p
    for s in (micro_cfg.encoder, micro_cfg.backbone):
        pos = np.arange(s.max_positions)
        c, sn = model.rope_rows(s, pos, np.dtype(dtype))
        cos, sin = K.rope_angles(pos, s.head_size, s.rope_base, dtype)
        assert np.array_equal(c, np.hstack([cos, cos]))
        assert np.array_equal(sn, np.hstack([-sin, sin]))
        assert c.dtype == dtype
