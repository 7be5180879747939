import copy
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from hatlm import checkpoint, config, infer, model
from hatlm.infer import (
    BatchRunner,
    BoundarySync,
    FixedByteStride,
    GenSession,
    SamplingConfig,
    StepPlan,
    prefill,
    schedule,
    step_byte,
)

from conftest import DATA, POOLS


def solo_run(params, cfg, prompt, budget=20, sampling=None):
    s = GenSession(params, cfg, sampling or SamplingConfig("greedy"), max_new_bytes=budget)
    infer.generate(s, prompt)
    return s


def batch_run(params, cfg, prompts, policy, budget=20, samplings=None):
    sessions = [GenSession(params, cfg, (samplings[i] if samplings else SamplingConfig("greedy")),
                           max_new_bytes=budget) for i in range(len(prompts))]
    runner = BatchRunner(sessions, policy)
    runner.prefill_all(prompts)
    runner.run_to_completion()
    return sessions, runner


def test_step_plan_disjoint_lists():
    with pytest.raises(ValueError):
        StepPlan(byte_steps=(0, 1), word_steps=(1,))


def test_schedule_requires_sessions():
    with pytest.raises(ValueError):
        schedule([], BoundarySync())


def test_batch_of_one_equals_unbatched(micro_cfg, micro_params):
    prompt = b"single session "
    solo = solo_run(micro_params, micro_cfg, prompt)
    for policy in (BoundarySync(), FixedByteStride(1), FixedByteStride(4)):
        batch, _ = batch_run(micro_params, micro_cfg, [prompt], policy)
        assert bytes(batch[0].generated) == bytes(solo.generated)
        assert np.array_equal(batch[0].cur_logits, solo.cur_logits)


def test_boundary_sync_waits_for_all(micro_cfg, micro_params):
    # session 0 closes a word on its first sampled byte (space after "wo"),
    # session 1 stays mid-word; the next plan must schedule byte steps only
    s0 = GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=b" x"),
                    max_new_bytes=8)
    s1 = GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=b"bcdef"),
                    max_new_bytes=8)
    prefill(s0, b"wo")
    prefill(s1, b"a")
    from hatlm.infer import byte_phase
    byte_phase(s0)   # hits the boundary, blocks on the backbone
    assert s0.status == "at_boundary"
    plan = schedule([s0, s1], BoundarySync())
    assert plan.word_steps == ()
    assert plan.byte_steps == (1,)
    byte_phase(s1)
    plan2 = schedule([s0, s1], BoundarySync())   # still only s1 can advance
    assert 0 not in plan2.byte_steps


def test_batch_invariance_under_both_policies(micro_cfg, micro_params):
    prompts = [b"alpha beta ", b"x", b"Hello, wor", b"3.14 "]
    solos = [bytes(solo_run(micro_params, micro_cfg, p).generated) for p in prompts]
    for policy in (BoundarySync(), FixedByteStride(1), FixedByteStride(3)):
        batch, _ = batch_run(micro_params, micro_cfg, prompts, policy)
        assert [bytes(s.generated) for s in batch] == solos


def test_batch_invariance_with_temperature(micro_cfg, micro_params):
    prompts = [b"one ", b"two "]
    samplings = [SamplingConfig("temperature", temperature=0.9, seed=i) for i in range(2)]
    solos = [bytes(solo_run(micro_params, micro_cfg, p, sampling=s).generated)
             for p, s in zip(prompts, samplings)]
    batch, _ = batch_run(micro_params, micro_cfg, prompts, BoundarySync(),
                         samplings=samplings)
    assert [bytes(s.generated) for s in batch] == solos


def test_backbone_call_accounting_over_batch(micro_cfg, micro_params):
    prompts = [b"a few words here ", b"tiny", b"x y z ", b"Hello, world! "]
    batch, _ = batch_run(micro_params, micro_cfg, prompts, BoundarySync())
    calls = sum(s.backbone_calls for s in batch)
    closes = sum(s.gen_closes for s in batch)
    prefill_words = sum(s.prefill_words for s in batch)
    assert calls == closes + prefill_words + len(batch)


@pytest.mark.parametrize("policy", [BoundarySync(), FixedByteStride(1)])
def test_budget_zero_sessions_run_no_byte_tick(micro_cfg, micro_params, policy):
    # sessions 0 and 2 have a spent budget: they leave prefill finished, and
    # session 1 runs as it does alone
    budgets = [0, 6, 0]
    sessions = [GenSession(micro_params, micro_cfg, SamplingConfig("greedy"),
                           max_new_bytes=budget) for budget in budgets]
    runner = BatchRunner(sessions, policy)
    runner.prefill_all([b"hello wor", b"tick ", b""])
    assert [s.status for s in sessions] == ["finished", "mid_word", "finished"]
    runner.run_to_completion()
    assert not any(re.search(r"s[02]=", line) for line in runner.trace[1:])
    assert [bytes(s.generated) for s in sessions] == [
        b"", bytes(solo_run(micro_params, micro_cfg, b"tick ", budget=6).generated), b""]
    everyone_spent = [GenSession(micro_params, micro_cfg, max_new_bytes=0) for _ in range(2)]
    runner = BatchRunner(everyone_spent, policy)
    runner.prefill_all([b"ab", b"c"])
    runner.run_to_completion()
    assert runner.trace == ["0\ts0=P s1=P"]


def test_backbone_reduction_vs_per_byte(micro_cfg, micro_params):
    # forcing natural English text: backbone advances once per word, not per
    # byte, so bytes-per-call approximates the mean chunk length
    text = b"the quick brown fox jumps over the lazy dog again and again "
    s = GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=text),
                   max_new_bytes=len(text))
    prefill(s, b"")
    while not s.finished:
        step_byte(s)
    gen_bytes = len(s.generated)
    word_calls = s.gen_closes
    per_byte_calls = gen_bytes          # the naive per-byte-consultation baseline
    assert word_calls < per_byte_calls / 2
    mean_word_len = gen_bytes / max(1, word_calls)
    assert 2.0 < mean_word_len < 12.0


def test_trace_log_format_and_determinism(micro_cfg, micro_params):
    prompts = [b"tick ", b"tock"]
    _, r1 = batch_run(micro_params, micro_cfg, prompts, BoundarySync(), budget=6)
    _, r2 = batch_run(micro_params, micro_cfg, prompts, BoundarySync(), budget=6)
    assert r1.trace_text() == r2.trace_text()
    line_re = re.compile(r"^\d+\t(s\d+=(P|W|B(:[0-9a-f]{2})?))( s\d+=(P|W|B(:[0-9a-f]{2})?))*$")
    for line in r1.trace_text().splitlines():
        assert line_re.match(line), line
    first = r1.trace_text().splitlines()[0]
    assert first == "0\ts0=P s1=P"


def test_trace_byte_actions_match_emitted(micro_cfg, micro_params):
    prompts = [b"zz "]
    batch, runner = batch_run(micro_params, micro_cfg, prompts, FixedByteStride(2), budget=5)
    emitted = []
    for line in runner.trace:
        for m in re.finditer(r"s0=B:([0-9a-f]{2})", line):
            emitted.append(int(m.group(1), 16))
    # the final EOS byte (if any) is logged but not committed
    committed = list(bytes(batch[0].generated))
    assert emitted[:len(committed)] == committed


def test_word_phase_requires_boundary(micro_cfg, micro_params):
    s = prefill(GenSession(micro_params, micro_cfg, SamplingConfig("greedy"),
                           max_new_bytes=4), b"q")
    with pytest.raises(infer.SessionError):
        infer.word_phase(s)


def test_batch_runner_requires_one_model(micro_cfg, micro_params):
    a = GenSession(micro_params, micro_cfg)
    with pytest.raises(ValueError):
        BatchRunner([a, GenSession(dict(micro_params), micro_cfg)], BoundarySync())
    with pytest.raises(ValueError):
        BatchRunner([a, GenSession(micro_params, replace(micro_cfg))], BoundarySync())


def test_session_of_another_model_appended_later_is_refused(micro_cfg, micro_params):
    # the runner checks its sessions again when it adopts them, so a tick
    # refuses a session appended with other params or cfg objects before any
    # session changes
    runner = BatchRunner([GenSession(micro_params, micro_cfg, max_new_bytes=8)], BoundarySync())
    runner.prefill_all([b"ab"])
    runner.run_tick()
    for other in (GenSession(model.init_params(micro_cfg, seed=2), micro_cfg, max_new_bytes=8),
                  GenSession(micro_params, replace(micro_cfg), max_new_bytes=8)):
        runner.sessions.append(prefill(other, b"ab"))
        before = [_state(s) for s in runner.sessions]
        with pytest.raises(ValueError, match="one model"):
            runner.run_tick()
        assert [_state(s) for s in runner.sessions] == before
        runner.sessions.pop()
    runner.run_to_completion()
    assert bytes(runner.sessions[0].generated) == bytes(
        solo_run(micro_params, micro_cfg, b"ab", budget=8).generated)


TEXT = st.lists(st.sampled_from([c for pool in POOLS for c in pool]),
                max_size=10).map("".join)


@given(mix=st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=6),
       policy=st.sampled_from([BoundarySync(), FixedByteStride(1), FixedByteStride(3)]))
@example(mix=[("wo", " x"), ("a", "bc"), ("", "é ü")], policy=BoundarySync())
@example(mix=[("日本", "語 "), ("x.", ""), ("ab", " \U0001F600")], policy=FixedByteStride(3))
@settings(max_examples=40, deadline=None)
def test_tick_logits_equal_solo_run(micro_cfg, micro_params, mix, policy):
    # (prompt, script) per session; an empty script samples greedily. After
    # every tick that stepped a session, its logits (once computed: not
    # while it waits at a boundary) equal a solo run's at the same length.
    def make(script):
        sampling = (SamplingConfig("forced", forced=script.encode()) if script
                    else SamplingConfig("greedy"))
        return GenSession(micro_params, micro_cfg, sampling, max_new_bytes=8)

    solos, solo_bytes = [], []
    for prompt, script in mix:
        s = prefill(make(script), prompt.encode())
        seen = {len(s.committed): s.cur_logits}
        while not s.finished:
            step_byte(s)
            seen[len(s.committed)] = s.cur_logits
        solos.append(seen)
        solo_bytes.append(bytes(s.generated))
    sessions = [make(script) for _, script in mix]
    runner = BatchRunner(sessions, policy)
    runner.prefill_all([prompt.encode() for prompt, _ in mix])
    for s, seen in zip(sessions, solos):
        assert np.array_equal(s.cur_logits, seen[len(s.committed)])
    while any(not s.finished for s in sessions):
        plan = runner.run_tick()
        for i in plan.byte_steps + plan.word_steps:
            s = sessions[i]
            if s.status != "at_boundary":
                assert np.array_equal(s.cur_logits, solos[i][len(s.committed)])
    assert [bytes(s.generated) for s in sessions] == solo_bytes


def test_deepcopy_mid_generation_finishes_identically(micro_cfg, micro_params):
    prompts = [b"alpha beta ", b"x", "naïve 日本".encode(), b"3.14 "]
    sessions = [GenSession(micro_params, micro_cfg, SamplingConfig("greedy"),
                           max_new_bytes=16) for _ in prompts]
    runner = BatchRunner(sessions, FixedByteStride(2))
    runner.prefill_all(prompts)
    for _ in range(5):
        runner.run_tick()
    twin = copy.deepcopy(runner, {id(micro_params): micro_params, id(micro_cfg): micro_cfg})
    twin.run_to_completion()        # first, so shared state would show in the original
    runner.run_to_completion()
    assert twin.trace == runner.trace
    for a, b in zip(runner.sessions, twin.sessions):
        assert bytes(a.generated) == bytes(b.generated)
        assert np.array_equal(a.cur_logits, b.cur_logits)
        for x, y in ((a.enc_ring, b.enc_ring), (a.dec_ring, b.dec_ring), (a.inject, b.inject),
                     (a.words, b.words)):
            assert np.array_equal(x, y) and not np.shares_memory(x, y)


def test_word_rows_crossing_a_block_as_the_runner_grows_match_solo_twins(micro_cfg,
                                                                         micro_params):
    # session 0's cache passes 16 rows mid-wave: its reads go from one
    # 16-row block to two, and the runner grows its word-cache rows from 16
    # to 32 for every session; the others stay in one block. After every tick
    # each stepped session's logits, and at the end its cache rows, have the
    # bits of its solo twin's
    prompts = [b"a " * 13, b"x", "naïve 日本".encode(), b"3.14 "]
    scripts = [b"b c d e f ", b"yz w q r s ", b" q r s t u", b"15 ab cd ef "]

    def make(script):
        return GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=script),
                          max_new_bytes=len(script))

    solos = []
    for prompt, script in zip(prompts, scripts):
        s = prefill(make(script), prompt)
        seen = {len(s.committed): s.cur_logits}
        while not s.finished:
            step_byte(s)
            seen[len(s.committed)] = s.cur_logits
        solos.append((s, seen))
    sessions = [make(script) for script in scripts]
    runner = BatchRunner(sessions, BoundarySync())
    runner.prefill_all(prompts)
    sizes, rows0, after = [], [], 0      # word steps of the others once the runner grew
    while any(not s.finished for s in sessions):
        plan = runner.run_tick()
        if sizes and sizes[-1] == 32:
            after += len(set(plan.word_steps) - {0})
        sizes.append(runner._rows.words.shape[3])
        rows0.append(sessions[0].word_rows)
        for i in plan.byte_steps + plan.word_steps:
            s = sessions[i]
            if s.status != "at_boundary":
                assert np.array_equal(s.cur_logits, solos[i][1][len(s.committed)])
    assert sizes[0] == 16 and sizes[-1] == 32 and rows0[0] < 16 < rows0[-1] and after
    for s, (solo, _) in zip(sessions, solos):
        rows = solo.word_rows
        assert s.word_rows == rows and s.words.shape[2] == 32
        assert np.array_equal(s.words[:, :, :rows], solo.words[:, :, :rows])
        assert not s.words[:, :, rows:].any()


def test_finished_sessions_keep_no_step_arrays(micro_cfg, micro_params):
    # a session finishes when its byte budget is spent or when it draws the
    # end byte 0xFF; either way it copies its logits row and its unpooled
    # encoder states, rows of a step's [B, ...] arrays, so a finished wave
    # keeps none of those arrays alive
    prompts = [(b"w%d " % i) * (1 + i % 3) for i in range(64)]
    sessions = [GenSession(micro_params, micro_cfg,
                           SamplingConfig("forced", forced=b"ab cd"[:1 + i % 5]),
                           max_new_bytes=3 + i % 2 * 8) for i in range(64)]
    runner = BatchRunner(sessions, BoundarySync())
    runner.prefill_all(prompts)
    runner.run_to_completion()
    spent = [len(s.generated) == s.max_new_bytes for s in sessions]
    assert any(spent) and not all(spent)            # both ways of finishing
    assert sum(len(s.pending_states) for s in sessions) >= 64
    for s in sessions:
        assert s.finished
        assert all(a.base is None for a in (s.cur_logits, *s.pending_states))


def test_session_deleted_mid_run_steps_alone_like_its_solo_twin(micro_cfg, micro_params):
    # the runner and the session it lost step in turn: each keeps its own
    # rings and injections, so both finish as their solo twins do
    prompts = [b"alpha beta ", "naïve 日本".encode(), b"x", b"3.14 "]
    sessions = [GenSession(micro_params, micro_cfg, SamplingConfig("greedy"),
                           max_new_bytes=16) for _ in prompts]
    runner = BatchRunner(sessions, BoundarySync())
    runner.prefill_all(prompts)
    for _ in range(5):
        runner.run_tick()
    everyone = list(sessions)
    gone = runner.sessions.pop(1)
    while not gone.finished or not all(s.finished for s in runner.sessions):
        if not all(s.finished for s in runner.sessions):
            runner.run_tick()
        if not gone.finished:
            (infer.word_phase if gone.status == "at_boundary" else step_byte)(gone)
    for s, prompt in zip(everyone, prompts):
        solo = solo_run(micro_params, micro_cfg, prompt, budget=16)
        rows = solo.word_rows
        assert bytes(s.generated) == bytes(solo.generated)
        for x, y in ((s.cur_logits, solo.cur_logits), (s.enc_ring, solo.enc_ring),
                     (s.dec_ring, solo.dec_ring), (s.inject, solo.inject),
                     (s.words[:, :, :rows], solo.words[:, :, :rows])):
            assert np.array_equal(x, y)


def test_session_swapped_for_its_copy_mid_run_finishes_like_its_solo_twin(micro_cfg,
                                                                          micro_params):
    # the runner adopts the copy into its row; the original keeps its state
    prompts = [b"alpha beta ", b"x", b"3.14 "]
    sessions = [GenSession(micro_params, micro_cfg, SamplingConfig("greedy"),
                           max_new_bytes=16) for _ in prompts]
    runner = BatchRunner(sessions, BoundarySync())
    runner.prefill_all(prompts)
    for _ in range(5):
        runner.run_tick()
    original, before = sessions[1], _state(sessions[1])
    sessions[1] = copy.deepcopy(original, {id(micro_params): micro_params,
                                           id(micro_cfg): micro_cfg})
    runner.run_to_completion()
    assert _state(original) == before
    for s, prompt in zip(sessions, prompts):
        solo = solo_run(micro_params, micro_cfg, prompt, budget=16)
        assert bytes(s.generated) == bytes(solo.generated)
        assert np.array_equal(s.cur_logits, solo.cur_logits)


def test_runner_adopts_once_and_a_lone_step_keeps_it_adopted(micro_cfg, micro_params,
                                                              monkeypatch):
    # a runner adopts its sessions when it is built; prefill_all fills their
    # rows of its store and no tick adopts again. A lone step of one of them
    # (a word step included) steps its row in place: the runner stays
    # adopted and every session ends with its solo twin's bits
    adopts, real = [], BatchRunner._adopt
    monkeypatch.setattr(BatchRunner, "_adopt", lambda self: adopts.append(self) or real(self))
    prompts = [b"alpha beta ", b"x", "naïve 日本".encode()]
    scripts = [b"gamma delta", b"yz w", b" ab cd ef"]

    def make(script):
        return GenSession(micro_params, micro_cfg, SamplingConfig("forced", forced=script),
                          max_new_bytes=len(script))
    sessions = [make(script) for script in scripts]
    runner = BatchRunner(sessions, BoundarySync())
    runner.prefill_all(prompts)
    for _ in range(2):
        runner.run_tick()
    assert len(adopts) == 1 and runner._adopted()
    lone, calls = sessions[1], sessions[1].backbone_calls
    while not lone.finished:
        step_byte(lone)
        assert runner._adopted()
    assert lone.backbone_calls > calls
    runner.run_to_completion()
    assert len(adopts) == 1
    for s, prompt, script in zip(sessions, prompts, scripts):
        solo = prefill(make(script), prompt)
        while not solo.finished:
            step_byte(solo)
        rows = solo.word_rows
        assert bytes(s.generated) == script and s.word_rows == rows
        for x, y in ((s.cur_logits, solo.cur_logits), (s.enc_ring, solo.enc_ring),
                     (s.dec_ring, solo.dec_ring), (s.inject, solo.inject),
                     (s.words[:, :, :rows], solo.words[:, :, :rows])):
            assert np.array_equal(x, y)


# -- running out of positions --------------------------------------------------

def _tight(cfg, limit):
    if limit == "encoder":
        return replace(cfg, encoder=replace(cfg.encoder, max_positions=12),
                       decoder=replace(cfg.decoder, max_positions=12))
    return replace(cfg, backbone=replace(cfg.backbone, max_positions=3))


# per limit, (prompt, script) of three sessions; the middle one runs out
# first: at byte position 12, or at its first byte after the backbone holds
# BOS, "x" and " ab"
EXHAUST = {
    "encoder": [(b"ab", b"cdefghijkl"), (b"abcdefgh", b"ijklmnop"), (b"ab", b"cdefghijkl")],
    "backbone": [(b"x", b"abcdefgh"), (b"x ", b"ab cd"), (b"x", b"abcdefgh")],
}


def _state(s):
    return (bytes(s.generated), s.status, s.next_pos, copy.deepcopy(s.splitter),
            infer.cache_report(s), s.enc_ring.tobytes(), s.dec_ring.tobytes(),
            s.word_rows, s.words.tobytes(), np.array(s.pending_states).tobytes(),
            list(s.pending_closes), s.pending_byte, list(s._forced),
            None if s.cur_logits is None else s.cur_logits.tobytes(), s.backbone_calls)


# per case, a prompt prefill must reject and the backbone positions of the
# model it runs on (None: the micro config's)
FAILED_PREFILLS = {
    "invalid-utf8": (b"abc \xff", None),
    "ends-mid-codepoint": (b"ab c\xc3", None),
    "more-closes-than-rows": (b"a b c d ", 3),
}


@pytest.mark.parametrize("case", list(FAILED_PREFILLS))
def test_failed_prefill_leaves_session_fresh(micro_cfg, micro_params, case):
    prompt, rows = FAILED_PREFILLS[case]
    cfg = (micro_cfg if rows is None
           else replace(micro_cfg, backbone=replace(micro_cfg.backbone, max_positions=rows)))

    def make():
        return GenSession(micro_params, cfg, SamplingConfig("greedy"), max_new_bytes=8)

    def extra(s):
        return (s.prompt, s.sentinel_used, s.inc_index, s.consumed_spans, s.pending_base,
                s.prefill_words, copy.copy(s.splitter.gate), s.inject.tobytes())
    s, fresh = make(), make()
    with pytest.raises(infer.SessionError):
        prefill(s, prompt)
    assert _state(s) == _state(fresh)
    assert extra(s) == extra(fresh)
    prefill(s, b"hi")
    prefill(fresh, b"hi")
    assert np.array_equal(s.cur_logits, fresh.cur_logits)
    assert _state(s) == _state(fresh)
    assert extra(s) == extra(fresh)


# -- packed prefill ------------------------------------------------------------

# prompts the random sets must be able to hold: the sentinel, one byte, 2-9
# bytes around the window of 8, one word that closes nothing, and
# multi-byte codepoints that open a chunk (`∑` in `a∑b`, a flag, an emoji)
PACK_PROMPTS = ["", "a", ".", "é", "ab", "abcdefgh", "abcdefghi", "word", "a∑b c",
                "x \U0001F1E9\U0001F1EA!", "日本語 です", "\U0001F600y z"]


@st.composite
def prompt_sets(draw):
    base = draw(st.lists(st.one_of(TEXT, st.sampled_from(PACK_PROMPTS)),
                         min_size=1, max_size=6))
    return draw(st.permutations(base + draw(st.lists(st.sampled_from(base), max_size=2))))


@given(prompts=prompt_sets(), cap=st.sampled_from([4, 16]))
@example(prompts=PACK_PROMPTS + ["a", "word"], cap=16)
@example(prompts=["a"], cap=16)
@example(prompts=["word", ""], cap=4)
@settings(max_examples=40, deadline=None)
def test_packed_prefill_matches_solo_prefill(micro_cfg, micro_params, prompts, cap):
    # every session of a prefill_all holds the same bits as a solo prefill
    # of its prompt, whatever else is in the pack
    cfg = replace(micro_cfg, max_word_bytes=cap)
    sessions = [GenSession(micro_params, cfg) for _ in prompts]
    BatchRunner(sessions, BoundarySync()).prefill_all([p.encode() for p in prompts])
    assert_solo_prefills(micro_params, cfg, [p.encode() for p in prompts], sessions)


def assert_solo_prefills(params, cfg, prompts, sessions):
    """sessions[i] holds the bits of a solo prefill of prompts[i]."""
    for p, got in zip(prompts, sessions):
        solo = prefill(GenSession(params, cfg), p)
        rows = solo.word_rows
        assert got.word_rows == rows
        for a, b in ((solo.enc_ring, got.enc_ring), (solo.dec_ring, got.dec_ring),
                     (solo.words[:, :, :rows], got.words[:, :, :rows]),
                     (solo.inject, got.inject), (solo.cur_logits, got.cur_logits),
                     (np.array(solo.pending_states), np.array(got.pending_states))):
            assert np.array_equal(a, b)
        assert (got.consumed_spans, got.inc_index, got.next_pos) == \
            (solo.consumed_spans, solo.inc_index, solo.next_pos)


@pytest.mark.parametrize("n", [1, 2, 64])
def test_one_prompt_forward_per_prefill_all(micro_cfg, micro_params, monkeypatch, n):
    calls = []
    real = infer.model.prompt_pass
    monkeypatch.setattr(infer.model, "prompt_pass",
                        lambda *args: calls.append(len(args[2])) or real(*args))
    prompts = [PACK_PROMPTS[i % len(PACK_PROMPTS)].encode() for i in range(n)]
    sessions = [GenSession(micro_params, micro_cfg) for _ in prompts]
    BatchRunner(sessions, BoundarySync()).prefill_all(prompts)
    assert calls == [n]
    prefill(GenSession(micro_params, micro_cfg), prompts[0])
    assert calls == [n, 1]


@pytest.mark.parametrize("limit,chunks", [(0, [1] * 5), (8, [2, 1, 2]), (100, [5])])
def test_prefill_all_packs_consecutive_chunks(micro_cfg, micro_params, monkeypatch, limit,
                                              chunks):
    # a chunk takes prompts while they fit in PACK_BYTES, and at least one;
    # each session still holds the bits of a solo prefill
    calls = []
    real = infer.model.prompt_pass
    monkeypatch.setattr(infer.model, "prompt_pass",
                        lambda *args: calls.append(len(args[2])) or real(*args))
    monkeypatch.setattr(infer, "PACK_BYTES", limit)
    prompts = [b"ab", b"", "日本語 です".encode(), b"a", b"word"]
    sessions = [GenSession(micro_params, micro_cfg) for _ in prompts]
    BatchRunner(sessions, BoundarySync()).prefill_all(prompts)
    assert calls == chunks
    assert_solo_prefills(micro_params, micro_cfg, prompts, sessions)


def test_prefill_all_memory_is_bounded(micro_cfg, micro_params):
    # 64 prompts of 2,048 B peaked at 121 MiB traced in one forward; chunks
    # of PACK_BYTES keep it under 40 MiB
    text = (DATA / "english_sample.txt").read_bytes()[:2048]
    sessions = [GenSession(micro_params, micro_cfg) for _ in range(64)]
    tracemalloc.start()
    try:
        BatchRunner(sessions, BoundarySync()).prefill_all([text] * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20, peak / 2 ** 20
    assert_solo_prefills(micro_params, micro_cfg, [text, text], [sessions[0], sessions[-1]])


def test_prefill_all_needs_one_prompt_per_session(micro_cfg, micro_params):
    sessions = [GenSession(micro_params, micro_cfg) for _ in range(2)]
    fresh = _state(GenSession(micro_params, micro_cfg))
    runner = BatchRunner(sessions, BoundarySync())
    for prompts in ([b"hi "], [b"hi ", b"yo ", b"x"]):
        with pytest.raises(ValueError, match="prompts for 2 sessions"):
            runner.prefill_all(prompts)
        assert [_state(s) for s in sessions] == [fresh, fresh]


# per kind, a prompt prefill must reject on a model with 12 byte positions
# and 3 backbone rows (`_tight` both ways)
BAD_PROMPTS = {"invalid-utf8": b"ab\xff", "ends-mid-codepoint": b"x \xe6\x97",
               "too-many-bytes": b"abcdefghijklm", "too-many-words": b"a b c d "}


@given(good=st.lists(st.sampled_from([b"", b"hi", b"x y", "é日".encode()]), max_size=5),
       kind=st.sampled_from(sorted(BAD_PROMPTS)), data=st.data())
@settings(max_examples=30, deadline=None)
def test_failed_prefill_all_leaves_every_session_fresh(micro_cfg, micro_params, good, kind,
                                                       data):
    cfg = _tight(_tight(micro_cfg, "encoder"), "backbone")
    at = data.draw(st.integers(0, len(good)))
    prompts = good[:at] + [BAD_PROMPTS[kind]] + good[at:]
    sessions = [GenSession(micro_params, cfg) for _ in prompts]
    fresh = _state(GenSession(micro_params, cfg))
    with pytest.raises(infer.SessionError) as err:
        BatchRunner(sessions, BoundarySync()).prefill_all(prompts)
    assert err.value.session == at and str(err.value).startswith(f"s{at}: ")
    assert all(_state(s) == fresh for s in sessions)


@pytest.mark.parametrize("limit", ["encoder", "backbone"])
@pytest.mark.parametrize("batched", [False, True], ids=["solo", "batch3"])
def test_position_exhaustion_leaves_sessions_unchanged(micro_cfg, micro_params,
                                                       limit, batched):
    cfg = _tight(micro_cfg, limit)
    pairs = EXHAUST[limit] if batched else EXHAUST[limit][1:2]
    sessions = [GenSession(micro_params, cfg, SamplingConfig("forced", forced=script),
                           max_new_bytes=16) for _, script in pairs]
    runner = BatchRunner(sessions, FixedByteStride(1))
    runner.prefill_all([p for p, _ in pairs])
    for _ in range(20):
        before = [_state(s) for s in sessions]
        try:
            if batched:
                runner.run_tick()
            else:
                step_byte(sessions[0])
        except infer.SessionError as exc:
            err = exc
            break
    else:
        pytest.fail("no SessionError")
    assert "positions exhausted" in str(err)
    assert err.session == (1 if batched else None)
    assert (str(err).startswith("s1: ")) == batched
    assert [_state(s) for s in sessions] == before
    assert not any(s.finished for s in sessions)
    expect = {"encoder": b"ijkl", "backbone": b"ab "}[limit]
    assert bytes(sessions[1 if batched else 0].generated) == expect


# the script's last byte (0xAD, ending U+00AD) closes "+" and "___" at once
# (cap 4); beside it, sessions mid-way through a 4-byte codepoint
TWO_CLOSES = "+___\xad".encode()


@pytest.mark.parametrize("batched", [False, True], ids=["solo", "batch3"])
def test_byte_closing_two_words_past_the_last_row_is_not_committed(micro_cfg, micro_params,
                                                                   batched):
    cfg = replace(micro_cfg, max_word_bytes=4,
                  backbone=replace(micro_cfg.backbone, max_positions=2))
    scripts = ([TWO_CLOSES] if not batched
               else ["\U0001F600\U0001F600".encode(), TWO_CLOSES, "\u00e9\U0001F600".encode()])
    sessions = [GenSession(micro_params, cfg, SamplingConfig("forced", forced=script),
                           max_new_bytes=16) for script in scripts]
    runner = BatchRunner(sessions, FixedByteStride(1))
    runner.prefill_all([b""] * len(sessions))
    victim = sessions[1 if batched else 0]

    def step():
        return runner.run_tick() if batched else step_byte(victim)
    for _ in range(len(TWO_CLOSES) - 1):
        step()
    assert bytes(victim.generated) == TWO_CLOSES[:-1]
    before = [_state(s) for s in sessions]
    sampled = [_sampling_state(s) for s in sessions]
    with pytest.raises(infer.SessionError, match="backbone positions exhausted") as err:
        step()
    assert err.value.session == (1 if batched else None)
    assert str(err.value).startswith("s1: ") == batched
    assert [_state(s) for s in sessions] == before
    assert [_sampling_state(s) for s in sessions] == sampled
    assert victim.status == "mid_word"
    with pytest.raises(infer.SessionError, match="backbone positions exhausted"):
        step_byte(victim)       # the same refusal, not "blocked on a backbone step"
    assert [_state(s) for s in sessions] == before


def test_counting_closes_leaves_sampling_alone(micro_cfg, micro_params):
    # near the backbone limit a byte step's check draws from a copy of the
    # RNG, so the session samples what it would far from the limit, up to the
    # step that runs out of rows
    def run(rows):
        cfg = replace(micro_cfg, max_word_bytes=4,
                      backbone=replace(micro_cfg.backbone, max_positions=rows))
        s = GenSession(micro_params, cfg, SamplingConfig("temperature", seed=5),
                       max_new_bytes=48)
        prefill(s, b"")
        try:
            while not s.finished:
                step_byte(s)
        except infer.SessionError as exc:
            assert "backbone positions exhausted" in str(exc)
            return bytes(s.generated), True
        return bytes(s.generated), False
    (far, far_ran_out), (near, near_ran_out) = run(1024), run(3)
    assert near_ran_out and not far_ran_out
    assert len(near) >= 4 and far.startswith(near)


def _sampling_state(s):
    return s.rng.bit_generator.state, copy.copy(s.splitter.gate)


@pytest.mark.parametrize("beside", ["forced", "temperature"])
def test_illegal_forced_byte_leaves_tick_unchanged(micro_cfg, micro_params, beside):
    # session 1's script starts with a lone continuation byte; session 0
    # (forced "abc", or sampling at a temperature) must not advance either
    first = (SamplingConfig("forced", forced=b"abc") if beside == "forced"
             else SamplingConfig("temperature", temperature=0.8, seed=11))
    sessions = [GenSession(micro_params, micro_cfg, sampling, max_new_bytes=8)
                for sampling in (first, SamplingConfig("forced", forced=b"\x80"))]
    runner = BatchRunner(sessions, FixedByteStride(1))
    runner.prefill_all([b"hi ", b"yo "])
    before = [_state(s) for s in sessions]
    sampled = [_sampling_state(s) for s in sessions]
    with pytest.raises(infer.SessionError, match=r"^s1: forced byte 0x80") as err:
        runner.run_tick()
    assert err.value.session == 1
    assert [_state(s) for s in sessions] == before
    assert [_sampling_state(s) for s in sessions] == sampled
    with pytest.raises(infer.SessionError, match="forced byte 0x80") as err:
        step_byte(sessions[1])
    assert err.value.session is None
    assert [_state(s) for s in sessions] == before


# -- a stateful model of one batch ---------------------------------------------

MICRO = config.micro()
MACHINE_PARAMS = model.init_params(MICRO, seed=1234)
# mixed-script pieces: chunk-opening multi-byte codepoints (∑, a flag, an
# emoji) and U+00AD, U+FE0F, U+2044 and a combining mark, which decide a
# close late. At cap 4 the piece after "a.\u0301" or "1,\u00ad" closes two
# words with one byte, and so does the last byte of "+___\u00ad".
PIECES = ["a", "b", " ", ".", ":", "+", "_", "1", "é", "日", "∑", "\u00ad", "\ufe0f",
          "\u2044", "\u0301", "\U0001F1E9\U0001F1EA", "\U0001F600", "a.\u0301", "1,\u00ad",
          "+___\u00ad"]
SCRIPT = st.lists(st.sampled_from(PIECES), max_size=8).map(lambda p: "".join(p).encode())
TEXT_PROMPT = st.lists(st.sampled_from(PIECES), max_size=2).map(lambda p: "".join(p).encode())
# one prompt in four holds a byte no text may hold, a cut codepoint or a
# lone continuation byte
PROMPT = st.tuples(TEXT_PROMPT, st.sampled_from([b""] * 9 + [b"\xff", b"\xc3", b"\x80"]),
                   TEXT_PROMPT).map(b"".join)
# half the sessions follow a script, which reaches the limits by design
SAMPLING = st.one_of(SCRIPT.map(lambda b: SamplingConfig("forced", forced=b)),
                     SCRIPT.map(lambda b: SamplingConfig("forced", forced=b)),
                     st.just(SamplingConfig("greedy")),
                     st.integers(0, 9).map(lambda seed: SamplingConfig("temperature", seed=seed)))


class BatchMachine(RuleBasedStateMachine):
    """One BatchRunner of micro sessions with few positions. Each session
    has a shadow: a solo session prefilled with the same prompt that takes
    the same byte and word steps, one at a time."""

    @initialize(rows=st.sampled_from([2, 3, 4, 8]))
    def start(self, rows):
        self.cfg = replace(MICRO, max_word_bytes=4,
                           encoder=replace(MICRO.encoder, max_positions=24),
                           decoder=replace(MICRO.decoder, max_positions=24),
                           backbone=replace(MICRO.backbone, max_positions=rows))
        self.runner = BatchRunner([], BoundarySync())
        self.shadows = []
        self.original = None        # a session the batch swapped for its copy, and its state
        self.ticked = False         # whether a tick ran since the sessions last changed
        self.oracle_checked = {}    # (id, finished) -> session, kept so that no id is reused

    def session(self, sampling):
        return GenSession(MACHINE_PARAMS, self.cfg, sampling, max_new_bytes=12)

    def twin(self, s):
        return copy.deepcopy(s, {id(MACHINE_PARAMS): MACHINE_PARAMS, id(self.cfg): self.cfg})

    @precondition(lambda self: sum(not s.finished for s in self.runner.sessions) < 3)
    @rule(new=st.lists(st.tuples(PROMPT, SAMPLING), min_size=1, max_size=2))
    def add_sessions(self, new):
        # the new sessions prefill from one packed forward, their shadows alone
        self.ticked = False
        sessions = [self.session(sampling) for _, sampling in new]
        shadows, bad = [], []
        for j, (prompt, sampling) in enumerate(new):
            try:
                shadows.append(prefill(self.session(sampling), prompt))
            except infer.SessionError:
                bad.append(j)
        pack = BatchRunner(sessions, BoundarySync())
        if not bad:
            pack.prefill_all([p for p, _ in new])
            self.runner.sessions += sessions
            self.shadows += shadows
            return
        with pytest.raises(infer.SessionError) as err:
            pack.prefill_all([p for p, _ in new])
        assert err.value.session == bad[0]
        assert all(_state(s) == _state(self.session(sampling))
                   for s, (_, sampling) in zip(sessions, new))

    @precondition(lambda self: any(not s.finished for s in self.runner.sessions))
    @rule(policy=st.sampled_from([BoundarySync(), FixedByteStride(1), FixedByteStride(2)]))
    def tick(self, policy):
        # the shadows step copies of themselves first: the batch must refuse
        # the tick, naming the first session whose shadow refuses, or take it
        runner = self.runner
        runner.policy = policy
        plan = schedule(runner.sessions, policy, runner.tick)
        stepped, refused = {}, None
        for i in plan.word_steps + plan.byte_steps:
            stepped[i] = self.twin(self.shadows[i])
            try:
                (infer.word_phase if i in plan.word_steps else infer.byte_phase)(stepped[i])
            except infer.SessionError:
                refused = i
                break
        self.ticked = True          # even a refused tick adopts first
        if refused is None:
            runner.run_tick()
            for i, shadow in stepped.items():
                self.shadows[i] = shadow
            return
        before = [_state(s) for s in runner.sessions]
        with pytest.raises(infer.SessionError) as err:
            runner.run_tick()
        assert err.value.session == refused and str(err.value).startswith(f"s{refused}: ")
        assert [_state(s) for s in runner.sessions] == before
        assert refused not in plan.word_steps   # a byte step keeps room for its closes
        s, shadow = runner.sessions[refused], self.shadows[refused]
        if s._forced and not s.splitter.gate.admits(s._forced[0]):
            s._forced.popleft()
            shadow._forced.popleft()
        else:                       # out of positions for good
            del runner.sessions[refused], self.shadows[refused]
            self.ticked = False

    @precondition(lambda self: any(s.sampling.mode == "forced" and not s.finished
                                   for s in self.runner.sessions))
    @rule(data=st.data())
    def force_illegal_byte(self, data):
        i = data.draw(st.sampled_from([i for i, s in enumerate(self.runner.sessions)
                                       if s.sampling.mode == "forced" and not s.finished]))
        gate = self.runner.sessions[i].splitter.gate
        b = data.draw(st.integers(0, 255).filter(lambda b: not gate.admits(b)))
        self.runner.sessions[i]._forced.appendleft(b)
        self.shadows[i]._forced.appendleft(b)

    @precondition(lambda self: any(map(_restartable, self.runner.sessions)))
    @rule(data=st.data())
    def restart_from_checkpoint(self, data):
        # a twin prefilled with a mid-word session's committed bytes on
        # parameters saved and loaded mid-run reads its logits, then takes
        # the next bytes its shadow takes (up to 4) as forced bytes and ends alike
        i = data.draw(st.sampled_from([i for i, s in enumerate(self.runner.sessions)
                                       if _restartable(s)]))
        s, ahead = self.runner.sessions[i], self.twin(self.shadows[i])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "machine.ckpt")
            checkpoint.save(path, self.cfg, MACHINE_PARAMS)
            cfg, params = checkpoint.load(path)
        try:
            while not ahead.finished and len(ahead.generated) < len(s.generated) + 4:
                step_byte(ahead)
        except infer.SessionError:
            pass
        script = bytes(ahead.generated[len(s.generated):])
        twin = prefill(GenSession(params, cfg, SamplingConfig("forced", forced=script),
                                  max_new_bytes=len(script)), s.committed)
        assert np.max(np.abs(twin.cur_logits - s.cur_logits)) < 1e-4
        while not twin.finished:
            step_byte(twin)
        assert bytes(twin.generated) == script
        assert np.max(np.abs(twin.cur_logits - ahead.cur_logits)) < 1e-4

    @precondition(lambda self: self.runner.sessions)
    @rule(data=st.data())
    def deepcopy_session(self, data):
        i = data.draw(st.integers(0, len(self.runner.sessions) - 1))
        s = self.runner.sessions[i]
        self.runner.sessions[i] = self.twin(s)
        self.ticked = False
        self.original = (s, _state(s))

    @invariant()
    def sessions_hold_their_shadows_bits(self):
        for s, shadow in zip(self.runner.sessions, self.shadows):
            assert (bytes(s.generated), s.status, s.next_pos) == \
                (bytes(shadow.generated), shadow.status, shadow.next_pos)
            rows = s.word_rows
            assert rows == shadow.word_rows
            for a, b in ((s.cur_logits, shadow.cur_logits), (s.enc_ring, shadow.enc_ring),
                         (s.dec_ring, shadow.dec_ring), (s.inject, shadow.inject),
                         (s.words[:, :, :rows], shadow.words[:, :, :rows]),
                         (np.array(s.pending_states), np.array(shadow.pending_states))):
                assert np.array_equal(a, b)
            closes = s.prefill_words + s.gen_closes - len(s.pending_closes)
            assert s.backbone_calls == rows == 1 + closes
            assert rows + len(s.pending_closes) <= self.cfg.backbone.max_positions
        if self.original is not None:       # the copy shares no state with it
            assert _state(self.original[0]) == self.original[1]

    @invariant()
    def sessions_share_no_arrays(self):
        arrays = [a for s in self.runner.sessions
                  for a in (s.enc_ring, s.dec_ring, s.inject, s.words)]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    @invariant()
    def caches_are_runner_rows(self):
        # a tick adopts the runner's sessions: after one, session i's caches
        # are row i of the runner's store
        if self.ticked:
            assert all(s.rows is self.runner._rows and s.row == i
                       for i, s in enumerate(self.runner.sessions))

    @invariant()
    def cache_report_matches_the_caches(self):
        # rows written to a ring or a word cache are never all zero (keys are
        # normed), and rows never written are
        for s in self.runner.sessions:
            enc, dec, words = (int(kv.any(axis=(0, 1, 3, 4)).sum())
                               for kv in (s.enc_ring, s.dec_ring, s.words))
            assert (enc, dec) == (min(s.next_pos, self.cfg.encoder.window),
                                  min(s.next_pos, self.cfg.decoder.window))
            assert tuple(infer.cache_report(s)) == (
                enc, words, s.enc_ring[:, :, :enc].nbytes + s.dec_ring[:, :, :dec].nbytes
                + s.words[:, :, :words].nbytes)
            assert words == s.word_rows

    @invariant()
    def logits_match_the_batch_oracle(self):
        # each check is a forward pass, so a session is checked twice: after
        # its first generated byte is encoded, and once it has finished
        for s in self.runner.sessions:
            key = (id(s), s.finished)
            if s.generated and s.status != "at_boundary" and key not in self.oracle_checked:
                self.oracle_checked[key] = s
                want = model.next_byte_logits(MACHINE_PARAMS, self.cfg, s.committed,
                                              s.consumed_spans, np.array(s.inc_index),
                                              s.sentinel_used)
                assert np.max(np.abs(want - s.cur_logits)) < 1e-4


def _restartable(s) -> bool:
    """Whether a prompt of `s`'s committed bytes puts a fresh session where
    `s` is: mid-word at a codepoint boundary, with no sentinel."""
    return s.status == "mid_word" and not s.sentinel_used and not s.splitter.gate.need


TestBatchMachine = BatchMachine.TestCase
# no shrink phase: each step runs the model twice, so shrinking a failure took
# five minutes; a failure is reported as found, the search itself is unchanged.
# derandomize: every run draws the same 50 examples, so its work repeats; the
# trade is that runs no longer draw fresh examples
TestBatchMachine.settings = settings(max_examples=50, stateful_step_count=40, deadline=None,
                                     phases=[p for p in Phase if p != Phase.shrink],
                                     derandomize=True)


def test_machine_run_with_two_closes_at_the_last_row():
    # one run of the machine kept as an explicit example: session 1's last
    # script byte closes two words when the backbone has one row left, beside
    # a session mid-way through a 4-byte codepoint
    machine = BatchMachine()
    machine.start(rows=2)
    machine.add_sessions([(b"", SamplingConfig("forced", forced="\U0001F600".encode())),
                          (b"", SamplingConfig("forced", forced=TWO_CLOSES))])
    machine.sessions_hold_their_shadows_bits()
    for _ in TWO_CLOSES:
        machine.tick(FixedByteStride(1))
        machine.sessions_hold_their_shadows_bits()
    assert len(machine.runner.sessions) == 1      # session 1 was refused, then retired
