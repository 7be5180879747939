import math
import struct
import tracemalloc
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatlm import autodiff as ad
from hatlm import checkpoint, config, model, train
from hatlm.splitter import stream

from conftest import (
    DATA,
    forward_stages,
    full_decode_prompt_pass,
    masked_softmax,
    random_utf8_strings,
    separate_layout,
    write_hatckpt2,
)

TABLE1 = (119_291_904, 6_979_584_000, 93_619_200, 7_192_495_104)
TABLE2 = (476_610_560, 68_452_352_000, 373_884_928, 69_302_847_488)


# ---------------------------------------------------------------------------
# parameter accounting

@pytest.mark.parametrize("preset,expect", [("table1", TABLE1), ("table2", TABLE2)])
def test_published_parameter_counts(preset, expect):
    c = model.count_params(config.PRESETS[preset]())
    assert (c["encoder"], c["backbone"], c["decoder"], c["total"]) == expect


def test_backbone_per_layer_count():
    assert model.count_params(config.table1())["backbone_per_layer"] == 218_112_000


def test_replaced_embedding_reference_size():
    # the embedding matrix the encoder replaces in the 8B tokenizer model
    assert 128_256 * 4_096 == 525_336_576


@pytest.mark.parametrize("preset", ["table1", "table2", "micro"])
def test_shapes_sum_matches_counts(preset):
    cfg = config.PRESETS[preset]()
    counts = model.count_params(cfg)
    total = sum(int(np.prod(s)) for s in model.param_shapes(cfg).values())
    assert total == counts["total"] + counts["aux"]


def test_every_param_has_a_group(micro_cfg):
    for name in model.param_shapes(micro_cfg):
        assert model.group_of(name) in model.PARAM_GROUPS


# ---------------------------------------------------------------------------
# initialization

def test_init_deterministic_and_seed_sensitive(micro_cfg):
    a = model.init_params(micro_cfg, seed=5)
    b = model.init_params(micro_cfg, seed=5)
    c = model.init_params(micro_cfg, seed=6)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_keeps_the_draws_of_the_separate_layout(micro_cfg):
    # wq, wk, wv, w_gate and w_up were tensors of their own, drawn in sorted
    # name order; every block of a fused tensor keeps the bits of its draw
    old = separate_layout(micro_cfg, model.init_params(micro_cfg, seed=1234))
    rng = np.random.default_rng(1234)
    for name, arr in sorted(old.items()):
        if name.endswith("norm.gain"):
            continue
        std = 0.02
        if name.endswith((".attn.wo", ".mlp.w_down", ".cross.wo")):
            std /= math.sqrt(2.0 * getattr(micro_cfg, name.split(".", 1)[0]).n_layers)
        assert np.array_equal(arr, model._trunc_normal(rng, arr.shape, std, np.float32)), name


def test_norm_gains_initialized_to_one(micro_cfg, micro_params):
    for name, arr in micro_params.items():
        if name.endswith("norm.gain"):
            assert np.array_equal(arr, np.ones_like(arr))


def test_init_truncated_at_two_sigma(micro_cfg, micro_params):
    w = micro_params["encoder.byte_embedding"]
    assert np.abs(w).max() <= 2 * 0.02 + 1e-9


# ---------------------------------------------------------------------------
# forward pass shape and invariants

def test_trace_shapes(micro_cfg, micro_params):
    data = "Shape check: FooBar 3.14 ok!".encode()
    tr = forward_stages(micro_params, micro_cfg, data)
    n_closes = len(stream(data, micro_cfg.max_word_bytes)[1])
    assert tr.byte_states.shape == (len(data), micro_cfg.encoder.hidden)
    assert tr.word_embeddings.shape == (n_closes, micro_cfg.backbone.hidden)
    assert tr.backbone_rows.shape == (n_closes + 1, micro_cfg.backbone.hidden)
    assert tr.logits.shape == (len(data), 256)
    assert np.all(np.isfinite(tr.logits))
    # the stages rebuild model.forward's logits
    assert np.array_equal(model.forward(micro_params, micro_cfg, data), tr.logits)


def test_shape_closure_random_texts(micro_cfg, micro_params):
    for s in random_utf8_strings(100, seed=17, max_len=25):
        data = s.encode()
        if not data:
            continue
        tr = forward_stages(micro_params, micro_cfg, data)
        n_closes = len(stream(data, micro_cfg.max_word_bytes)[1])
        assert tr.word_embeddings.shape[0] == n_closes
        logits = model.forward(micro_params, micro_cfg, data)
        assert logits.shape == (len(data), 256)
        assert np.all(np.isfinite(logits))


def test_forward_bit_deterministic(micro_cfg, micro_params):
    data = b"determinism check 123"
    a = model.forward(micro_params, micro_cfg, data)
    b = model.forward(micro_params, micro_cfg, data)
    assert np.array_equal(a, b)


def test_loss_at_random_init_near_uniform(micro_cfg):
    params = model.init_params(micro_cfg, seed=77)
    val = train.loss(params, micro_cfg, b"The uniform-logits sanity check text.")
    assert abs(val - np.log(256)) < 0.5


def test_forward_with_array_params_keeps_no_tape(micro_cfg, micro_params):
    logits = model.forward(micro_params, micro_cfg, b"no tape here")
    assert type(logits) is np.ndarray


def test_logits_softmax_rows_sum_to_one(micro_cfg, micro_params):
    logits = model.forward(micro_params, micro_cfg, b"softmax rows")
    p = np.exp(logits - logits.max(-1, keepdims=True))
    p /= p.sum(-1, keepdims=True)
    assert np.allclose(p.sum(-1), 1.0, atol=1e-6)


def test_over_length_input_rejected(micro_cfg, micro_params):
    data = b"x" * (micro_cfg.encoder.max_positions + 1)
    with pytest.raises(ValueError):
        model.encode_bytes_var(micro_params, micro_cfg, np.frombuffer(data, np.uint8),
                               np.arange(len(data)))


def test_no_grad_stack_frees_the_layer_input_and_read_before_the_mlp(micro_cfg, micro_params):
    # at a layer's MLP a no-grad pass holds the residual sum, its norm, gate|up
    # (2x wide) and the silu: about 10 [t, hidden] arrays at micro. Holding the
    # layer input and the attention read through the MLP, and the embedding
    # rows through the stack, peaked at 13
    ids = np.frombuffer((DATA / "english_sample.txt").read_bytes()[:4000], np.uint8)
    ids, positions = ids.astype(np.int64), np.arange(len(ids)) % 500
    model.encode_bytes_var(micro_params, micro_cfg, ids[:2], positions[:2])   # the rope table
    tracemalloc.start()
    try:
        out = model.encode_bytes_var(micro_params, micro_cfg, ids, positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * out.nbytes, peak / out.nbytes


# ---------------------------------------------------------------------------
# causality suite

def test_byte_level_future_perturbation(micro_cfg, micro_params):
    # mutating a byte leaves all logits at earlier positions bit-unchanged
    base = bytearray(b"aaa bbb ccc ddd eee")
    mut = bytearray(base)
    mut[14] = ord("x")  # inside the 4th word
    a = model.forward(micro_params, micro_cfg, bytes(base))
    b = model.forward(micro_params, micro_cfg, bytes(mut))
    assert np.array_equal(a[:14], b[:14])
    assert not np.array_equal(a[14:], b[14:])


def test_word_level_future_perturbation(micro_cfg, micro_params):
    # perturbing word j leaves backbone outputs at rows <= j unchanged
    data = b"aaa bbb ccc ddd"
    tr = forward_stages(micro_params, micro_cfg, data)
    we = tr.word_embeddings.copy()
    we[2] += 1.0
    rows = np.arange(len(we) + 1)
    out_base = model.backbone_forward_var(micro_params, micro_cfg, tr.word_embeddings, rows)
    out_pert = model.backbone_forward_var(micro_params, micro_cfg, we, rows)
    assert np.array_equal(out_base[:3], out_pert[:3])   # rows 0..2 see words < 2 only
    assert not np.array_equal(out_base[3:], out_pert[3:])


def gather_then_wo_decode(P, cfg, byte_states, bb_out, byte_row, positions):
    """The decoder as it read the word context before `model.word_context`:
    gather each byte's wv row, then run wo and the post-norm on every byte."""
    inject = []
    for i in range(cfg.decoder.n_layers):
        cp = f"decoder.layers.{i}.cross"
        kvn = ad.rms_norm(bb_out, cfg.norm_eps, P[f"{cp}.kv_norm.gain"])
        vrows = ad.matmul(kvn, P[f"{cp}.wv"])
        inject.append(ad.rms_norm(ad.matmul(ad.gather(vrows, byte_row), P[f"{cp}.wo"]),
                                  cfg.norm_eps, P[f"{cp}.post_norm.gain"]))
    x = model._stack(P, "decoder", byte_states, cfg.decoder, cfg, positions, inject=inject)
    h = ad.rms_norm(x, cfg.norm_eps, P["decoder.final_norm.gain"])
    return ad.matmul(h, P["decoder.lm_head"])


def test_word_context_per_row_matches_gather_then_wo(micro_cfg, micro_params):
    # the read is row-wise and every product is gemm rows, so running it per
    # backbone row and gathering after gives each byte the same bits
    for s in random_utf8_strings(40, seed=23):
        data = s.encode()
        if not data:
            continue
        tr = forward_stages(micro_params, micro_cfg, data)
        ref = gather_then_wo_decode(micro_params, micro_cfg, tr.byte_states,
                                    tr.backbone_rows, tr.byte_row, np.arange(len(data)))
        assert np.array_equal(model.forward(micro_params, micro_cfg, data), ref), s


def _prompt_inputs(cfg, prompts: list[bytes]) -> list[tuple]:
    """`model.prompt_pass` inputs as prefill builds them (`splitter.stream`)."""
    out = []
    for p in prompts:
        _, closes, index = stream(p, cfg.max_word_bytes)
        out.append((p, closes, index, not p))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("decoder", [{}, {"window": 3, "n_layers": 3}, {"window": None}],
                         ids=["micro", "window3x3", "global"])
def test_prompt_pass_tail_decode_matches_full_decode(decoder, dtype):
    # the decoder reads each prompt's last n_layers*(window-1)+1 bytes: prompts
    # one byte short of that tail, equal to it and one over, alone and packed
    cfg = replace(config.micro(), decoder=replace(config.micro().decoder, **decoder))
    params = {k: v.astype(dtype) for k, v in model.init_params(cfg, seed=1234).items()}
    d = cfg.decoder
    tail = d.n_layers * (d.window - 1) + 1 if d.window else 15    # no window: whole prompts
    text = (DATA / "english_sample.txt").read_bytes()
    edge = [text[:n] for n in (tail - 1, tail, tail + 1)]
    packs = [[p] for p in edge] + [[b""], [text[:2048]],
                                   [b"", *edge, "a∑b c".encode(), b"x", text[:700]]]
    for pack in packs:
        inputs = _prompt_inputs(cfg, pack)
        for got, ref in zip(model.prompt_pass(params, cfg, inputs),
                            full_decode_prompt_pass(params, cfg, inputs), strict=True):
            for f in fields(model.PromptPass):
                a, b = getattr(got, f.name), getattr(ref, f.name)
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name


def test_cross_word_leakage(micro_cfg, micro_params):
    # bytes of word j are bit-insensitive to backbone rows > j
    data = b"aaa bbb ccc ddd"
    tr = forward_stages(micro_params, micro_cfg, data)
    word_index = np.array([0] * 3 + [1] * 4 + [2] * 4 + [3] * 4)
    assert np.array_equal(tr.byte_row, word_index)
    bb = model.backbone_forward_var(micro_params, micro_cfg, tr.word_embeddings,
                                    np.arange(len(tr.word_embeddings) + 1))
    bb_pert = bb.copy()
    bb_pert[2] += 3.0  # row consumed only by bytes with word_index == 2
    pos = np.arange(len(word_index))
    a, b = (model.decode_bytes_var(micro_params, micro_cfg, tr.byte_states,
                                   model.word_context(micro_params, micro_cfg, rows),
                                   word_index, pos) for rows in (bb, bb_pert))
    assert np.array_equal(a[:7], b[:7])
    assert not np.array_equal(a[7:11], b[7:11])


def test_attention_mask_exactness_sliding(micro_cfg):
    # one encoder layer: the last state sees bytes (t-1-window, t-1] only, so
    # a byte `window` back is bit-invisible and one nearer is not
    cfg = replace(micro_cfg, encoder=replace(micro_cfg.encoder, n_layers=1))
    params = model.init_params(cfg, seed=5)
    w, t = cfg.encoder.window, 20
    ids = np.frombuffer(b"sliding window probe", dtype=np.uint8).astype(np.int64)
    base = model.encode_bytes_var(params, cfg, ids, np.arange(t))
    far, near = ids.copy(), ids.copy()
    far[t - 1 - w] ^= 1
    near[t - w] ^= 1
    assert np.array_equal(base[-1], model.encode_bytes_var(params, cfg, far, np.arange(t))[-1])
    assert not np.array_equal(base[-1], model.encode_bytes_var(params, cfg, near, np.arange(t))[-1])


def test_single_byte_matches_self_only_attention_path(micro_cfg, micro_params):
    # one-byte input: every attention row is a softmax over one key
    from hatlm import kernels as K
    got = model.encode_bytes_var(micro_params, micro_cfg, np.array([65]), np.arange(1))
    x = micro_params["encoder.byte_embedding"][65]
    s, cfg = micro_cfg.encoder, micro_cfg
    for i in range(s.n_layers):
        pfx = f"encoder.layers.{i}"
        h = K.rms_norm(x, cfg.norm_eps, micro_params[f"{pfx}.attn_norm.gain"])
        wq, wk, wv = np.split(micro_params[f"{pfx}.attn.wqkv"],
                              np.cumsum([s.n_heads, s.n_kv_heads]) * s.head_size, axis=1)
        q = (h @ wq).reshape(s.n_heads, s.head_size)
        k = (h @ wk).reshape(1, s.n_kv_heads, s.head_size)
        v = (h @ wv).reshape(1, s.n_kv_heads, s.head_size)
        if cfg.qk_norm:
            q = K.rms_norm(q, cfg.norm_eps)
            k = K.rms_norm(k, cfg.norm_eps)
        att = K.attend(q, k, v, cfg.softcap)
        x = x + (att @ micro_params[f"{pfx}.attn.wo"])
        hm = K.rms_norm(x, cfg.norm_eps, micro_params[f"{pfx}.mlp_norm.gain"])
        x = x + K.swiglu_ffn(hm, micro_params[f"{pfx}.mlp.w_gate_up"],
                             micro_params[f"{pfx}.mlp.w_down"])
    assert np.allclose(got[0], x, atol=1e-6)


# ---------------------------------------------------------------------------
# pooling connector

def test_pool_single_byte_span_is_projection(micro_cfg, micro_params):
    # softmax over one key: output is exactly O(V(state))
    state = np.random.default_rng(3).standard_normal((1, micro_cfg.encoder.hidden)) \
        .astype(np.float32)
    got = model.pool_words_var(micro_params, micro_cfg, state, [(0, 1)])
    expect = (state @ micro_params["connector.wv"]) @ micro_params["connector.wo"]
    assert np.allclose(got, expect, atol=1e-6)


def test_pool_identical_bytes_match_single(micro_cfg, micro_params):
    rng = np.random.default_rng(4)
    row = rng.standard_normal((1, micro_cfg.encoder.hidden)).astype(np.float32)
    two = np.concatenate([row, row], axis=0)
    one_out = model.pool_words_var(micro_params, micro_cfg, row, [(0, 1)])
    two_out = model.pool_words_var(micro_params, micro_cfg, two, [(0, 2)])
    assert np.allclose(one_out, two_out, atol=1e-6)


def test_pool_output_shape(micro_cfg, micro_params):
    states = np.random.default_rng(5).standard_normal((9, micro_cfg.encoder.hidden)) \
        .astype(np.float32)
    out = model.pool_words_var(micro_params, micro_cfg, states, [(0, 3), (3, 4), (4, 9)])
    assert out.shape == (3, micro_cfg.backbone.hidden)


def test_pool_empty_span_rejected(micro_cfg, micro_params):
    states = np.zeros((3, micro_cfg.encoder.hidden), dtype=np.float32)
    with pytest.raises(ValueError):
        model.pool_words_var(micro_params, micro_cfg, states, [(1, 1)])


def test_pool_span_ignores_states_outside_it(micro_cfg, micro_params):
    states = np.random.default_rng(8).standard_normal((7, micro_cfg.encoder.hidden)) \
        .astype(np.float32)
    spans = [(0, 2), (2, 5), (5, 7)]
    base = model.pool_words_var(micro_params, micro_cfg, states, spans)
    pert = states.copy()
    pert[[0, 6]] += 9.0
    out = model.pool_words_var(micro_params, micro_cfg, pert, spans)
    assert np.array_equal(base[1], out[1])
    assert not np.array_equal(base[0], out[0])


def _dense_pool_reference(P, cfg, byte_states, spans):
    """The connector as a dense masked read: the query's logits broadcast to
    [heads, words, bytes], masked to each word's span. O(words x bytes)."""
    nh, hs, c = cfg.n_enc_cross_heads, cfg.encoder.head_size, cfg.cross_hidden
    n, t = len(spans), byte_states.shape[0]
    k = ad.transpose(ad.reshape(ad.matmul(byte_states, P["connector.wk"]), (t, nh, hs)), (1, 0, 2))
    v = ad.transpose(ad.reshape(ad.matmul(byte_states, P["connector.wv"]), (t, nh, hs)), (1, 0, 2))
    q = ad.transpose(ad.reshape(
        ad.matmul(ad.reshape(P["connector.query"], (1, c)), P["connector.wq"]),
        (1, nh, hs)), (1, 0, 2))
    logits = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(hs))
    if cfg.softcap is not None:
        logits = ad.softcap(logits, cfg.softcap)
    logits = ad.mul(logits, np.ones((nh, n, t), dtype=byte_states.dtype))
    mask = np.zeros((n, t), dtype=bool)
    for j, (a, b) in enumerate(spans):
        mask[j, a:b] = True
    p = masked_softmax(logits, mask[None])
    o = ad.reshape(ad.transpose(ad.matmul(p, v), (1, 0, 2)), (n, nh * hs))
    return ad.matmul(o, P["connector.wo"])


@st.composite
def _states_and_spans(draw):
    t = draw(st.integers(1, 24))
    if draw(st.booleans()):                 # a tiling of all bytes
        cuts = sorted(draw(st.sets(st.integers(1, t - 1), max_size=t - 1))) if t > 1 else []
        spans = list(zip([0] + cuts, cuts + [t]))
    else:                                   # skipping, single-byte, overlapping
        spans = []
        for _ in range(draw(st.integers(1, 6))):
            a = draw(st.integers(0, t - 1))
            spans.append((a, draw(st.integers(a + 1, t))))
    return t, spans, draw(st.integers(0, 2**32 - 1))


POOL_NAMES = ("connector.query", "connector.wk", "connector.wv", "connector.wq", "connector.wo")


@pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@given(case=_states_and_spans())
@settings(max_examples=60, deadline=None)
def test_pool_matches_dense_masked_reference(micro_cfg, micro_params, dtype, atol, case):
    t, spans, seed = case
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((t, micro_cfg.encoder.hidden)).astype(dtype)
    weight = rng.standard_normal((len(spans), micro_cfg.backbone.hidden)).astype(dtype)
    results = []
    for pool in (model.pool_words_var, _dense_pool_reference):
        P = {k: ad.wrap(micro_params[k].astype(dtype), rg=True) for k in POOL_NAMES}
        x = ad.wrap(states.copy(), rg=True)
        out = pool(P, micro_cfg, x, spans)
        ad.backward(ad.sum_(ad.mul(out, weight)))
        results.append([out.v, x.grad] + [P[k].grad for k in POOL_NAMES])
    for got, ref in zip(*results):
        assert got.dtype == dtype
        assert np.allclose(got, ref, rtol=0, atol=atol)


# ---------------------------------------------------------------------------
# checkpoint round-trip

def test_checkpoint_roundtrip_bit_exact(tmp_path, micro_cfg, micro_params):
    path = tmp_path / "toy.ckpt"
    checkpoint.save(path, micro_cfg, micro_params)
    cfg2, params2 = checkpoint.load(path)
    assert config.to_text(micro_cfg) == config.to_text(cfg2)
    assert set(params2) == set(micro_params)
    for name in micro_params:
        assert np.array_equal(micro_params[name], params2[name])
    probe = b"checkpoint probe text"
    a = model.forward(micro_params, micro_cfg, probe)
    b = model.forward(params2, cfg2, probe)
    assert np.array_equal(a, b)


def test_checkpoint_rejects_float64(tmp_path, micro_cfg, micro_params64):
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.save(tmp_path / "bad.ckpt", micro_cfg, micro_params64)


def test_checkpoint_rejects_corruption(tmp_path, micro_cfg, micro_params):
    path = tmp_path / "toy.ckpt"
    checkpoint.save(path, micro_cfg, micro_params)
    blob = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:-8])
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(tmp_path / "trunc.ckpt")
    (tmp_path / "magic.ckpt").write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(tmp_path / "magic.ckpt")


def test_checkpoint_rejects_separate_projection_format(tmp_path, micro_cfg, micro_params):
    # a HATCKPT2 file holds wq, wk, wv and w_gate, w_up apart: refused by name
    path = tmp_path / "old.ckpt"
    write_hatckpt2(path, micro_cfg, micro_params)
    with pytest.raises(checkpoint.CheckpointError, match="HATCKPT2"):
        checkpoint.load(path)


@pytest.fixture(scope="session")
def micro_ckpt(tmp_path_factory, micro_cfg, micro_params):
    path = tmp_path_factory.mktemp("ckpt") / "micro.ckpt"
    checkpoint.save(path, micro_cfg, micro_params)
    return path


# most positions fall in the config text and the first tensor records
@given(truncate=st.booleans(),
       where=st.one_of(st.integers(0, 1023), st.integers(0, 2**31)),
       xor=st.integers(1, 255))
@settings(max_examples=300, deadline=None)
def test_checkpoint_corruption_raises_only_checkpoint_error(micro_ckpt, truncate, where, xor):
    # the checksum trailer rejects every truncation and every flipped byte,
    # a flipped digit of the config text included
    blob = micro_ckpt.read_bytes()
    at = where % len(blob)
    bad = blob[:at] if truncate else blob[:at] + bytes([blob[at] ^ xor]) + blob[at + 1:]
    path = micro_ckpt.with_name("corrupt.ckpt")
    path.write_bytes(bad)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(path)


def _tensor_record(name, arr):
    nb = name.encode("utf-8")
    return (struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f4").tobytes())


@pytest.mark.parametrize("fault", ["missing", "extra", "shape", "duplicate"])
def test_checkpoint_rejects_tensor_mismatch(tmp_path, micro_cfg, micro_params, fault):
    params = dict(micro_params)
    if fault == "missing":
        del params["decoder.lm_head"]
    elif fault == "extra":
        params["decoder.extra"] = np.zeros(3, dtype=np.float32)
    elif fault == "shape":
        params["decoder.lm_head"] = np.ascontiguousarray(params["decoder.lm_head"].T)
    path = tmp_path / f"{fault}.ckpt"
    checkpoint.save(path, micro_cfg, params)
    if fault == "duplicate":
        blob = path.read_bytes()[:-4]                   # without the checksum
        at = 12 + struct.unpack("<I", blob[8:12])[0]   # offset of the tensor count
        (count,) = struct.unpack("<I", blob[at:at + 4])
        last = sorted(params)[-1]
        body = (blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:]
                + _tensor_record(last, params[last]))
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(path)


@pytest.mark.parametrize("key,value", [
    ("encoder.n_kv_heads", "0"),
    ("encoder.n_kv_heads", "3"),          # does not divide n_heads=2
    ("encoder.n_heads", "-2"),
    ("encoder.head_size", "8.0"),
    ("backbone.hidden", "true"),
    ("backbone.max_positions", "0"),
    ("backbone.max_positions", "1"),      # no row for a word after BOS
    ("decoder.mlp_expansion", "0.0"),
    ("decoder.rope_base", "-10000.0"),
    ("decoder.rope_base", "none"),
    ("encoder.n_layers", "-1"),
    ("encoder.n_layers", "0"),
    ("encoder.window", "true"),
    ("backbone.window", "4"),             # generation reads every word-cache row
    ("decoder.mlp_expansion", "1e-30"),   # no MLP unit
    ("backbone.mlp_expansion", "inf"),
    ("encoder.rope_base", "inf"),
    ("max_word_bytes", "none"),
    ("max_word_bytes", "inf"),
    ("qk_norm", "5"),
    ("norm_eps", "none"),
    ("norm_eps", "nan"),
    ("norm_eps", "0.0"),
    ("softcap", "0.0"),
    ("softcap", "nan"),
    ("softcap", "-1"),
])
def test_from_text_rejects_bad_sizes(key, value):
    lines = [f"{key}={value}" if ln.startswith(f"{key}=") else ln
             for ln in config.to_text(config.micro()).splitlines()]
    assert lines != config.to_text(config.micro()).splitlines()
    with pytest.raises(ValueError, match=key.split(".")[-1]):
        config.from_text("\n".join(lines))


@pytest.mark.parametrize("edit,match", [
    (("format_version=2", "format_version=1"), "format version 1"),
    (("max_word_bytes=16", "cross_hidden=64\nmax_word_bytes=16"), "cross_hidden"),
], ids=["v1", "cross_hidden"])
def test_from_text_rejects_v1_and_derived_keys(edit, match):
    text = config.to_text(config.micro())
    assert edit[0] in text
    with pytest.raises(ValueError, match=match):
        config.from_text(text.replace(*edit))


def test_from_text_names_the_line_and_key_of_a_value_that_does_not_parse():
    lines = config.to_text(config.micro()).splitlines()
    ln = lines.index("encoder.n_layers=2") + 1
    lines[ln - 1] = "encoder.n_layers = x"
    with pytest.raises(ValueError, match=f"^line {ln}: config key encoder.n_layers .*'x'$"):
        config.from_text("\n".join(lines))


def test_from_text_refuses_a_key_given_twice():
    # a second value would otherwise silently win over the first
    lines = (DATA / "micro.cfg").read_text().splitlines() + ["encoder.n_layers=7"]
    with pytest.raises(ValueError, match=f"^line {len(lines)}: config key encoder.n_layers "
                                         "given twice$"):
        config.from_text("\n".join(lines))


def test_connector_heads_must_tile_backbone_hidden():
    # the pooling connector has backbone.hidden / encoder.head_size heads
    cfg = config.micro()
    bb = replace(cfg.backbone, n_heads=6, n_kv_heads=3, head_size=10, hidden=60)
    with pytest.raises(ValueError, match="divisible"):
        replace(cfg, backbone=bb)


def test_config_text_roundtrip():
    for preset in config.PRESETS.values():
        cfg = preset()
        assert config.from_text(config.to_text(cfg)) == cfg


@pytest.mark.parametrize("name", ["table1", "table2", "micro"])
def test_presets_have_the_text_of_their_data_files(name):
    # `--config micro` and `--config data/micro.cfg` name the same model
    assert config.to_text(config.PRESETS[name]()) == (DATA / f"{name}.cfg").read_text()
