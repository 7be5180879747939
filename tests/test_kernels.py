import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatlm import autodiff as ad
from hatlm import kernels as K
from hatlm import model

from conftest import half_split_rotate, masked_softmax, where_attend, where_softmax


def test_rms_norm_hand_computed():
    x = np.array([3.0, 4.0])
    out = K.rms_norm(x, eps=1e-30)
    assert np.allclose(out, x / math.sqrt(12.5), atol=1e-7)


def test_rms_norm_constant_vector_is_ones():
    x = np.full(7, 2.5)
    assert np.allclose(K.rms_norm(x, eps=1e-30), np.ones(7), atol=1e-6)


def test_rms_norm_zero_vector_stays_zero():
    assert np.array_equal(K.rms_norm(np.zeros(5), eps=1e-5), np.zeros(5))


def test_rms_norm_gain_shape_mismatch():
    with pytest.raises(K.ShapeError):
        K.rms_norm(np.ones((2, 4)), 1e-5, gain=np.ones(3))


def test_swiglu_zero_input_and_zero_gate():
    w = np.eye(1)
    assert K.swiglu_ffn(np.zeros((1, 1)), np.hstack([w, w]), w)[0, 0] == 0
    x = np.random.default_rng(0).standard_normal((3, 4))
    zero_gate = np.zeros((4, 4))
    out = K.swiglu_ffn(x, np.hstack([zero_gate, np.eye(4)]), np.eye(4))
    assert np.array_equal(out, np.zeros((3, 4)))


def test_swiglu_scalar_case():
    w = np.ones((1, 1))
    out = K.swiglu_ffn(np.ones((1, 1)), np.hstack([w, w]), w)
    assert np.allclose(out, 1.0 / (1.0 + math.exp(-1.0)), atol=1e-6)
    assert round(float(out[0, 0]), 6) == 0.731059


def test_rope_position_zero_is_identity():
    x = np.random.default_rng(1).standard_normal((4, 1, 8))
    c, s = K.rope_table(8, 1e4, 1, np.dtype(np.float64))
    out = K.rotate(x, c, s)
    assert np.allclose(out, x, atol=1e-12)


def test_rope_preserves_norm():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 16))
    out = K.rotate(x, *K.rope_table(16, 1e5, 6, np.dtype(np.float64)))
    assert np.allclose(np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-6)


def test_rope_relative_shift_property():
    rng = np.random.default_rng(3)
    q = rng.standard_normal(8)
    k = rng.standard_normal(8)
    c, s = K.rope_table(8, 1e4, 8, np.dtype(np.float64))

    def dot_at(m, n):
        qm = K.rotate(q, c[m], s[m])
        kn = K.rotate(k, c[n], s[n])
        return float(qm @ kn)

    assert abs(dot_at(5, 3) - dot_at(7, 5)) < 1e-5


def test_rope_odd_dim_rejected():
    with pytest.raises(K.ShapeError):
        K.rope_table(7, 1e4, 2, np.dtype(np.float64))


# the full-width rotation against the half-split one it replaced

ROPE_DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", ROPE_DTYPES)
def test_rope_table_is_cached_read_only_and_full_width(dtype):
    c, s = K.rope_table(8, 1e5, 300, np.dtype(dtype))
    assert K.rope_table(8, 1e5, 300, np.dtype(dtype))[0] is c
    assert c.shape == s.shape == (300, 8) and c.dtype == s.dtype == dtype
    assert not (c.flags.writeable or s.flags.writeable)


@pytest.mark.parametrize("dtype", ROPE_DTYPES)
@pytest.mark.parametrize("b", [1, 2, 23, 64])
def test_rotate_matches_half_split_at_step_shapes(dtype, b):
    # the byte and word steps: [B, heads, hs] rows with [B, 1, hs] table rows
    rng = np.random.default_rng(b)
    c, s = K.rope_table(8, 1e5, 4096, np.dtype(dtype))
    pos = rng.integers(0, 4096, b)
    x = rng.standard_normal((b, 3, 8)).astype(dtype)
    cos, sin = (t[:, None] for t in K.rope_angles(pos, 8, 1e5, dtype))
    assert np.array_equal(K.rotate(x, c[pos, None], s[pos, None]), half_split_rotate(x, cos, sin))


@pytest.mark.parametrize("dtype", ROPE_DTYPES)
@pytest.mark.parametrize("lens", [[1], [7], [300], [4096], [5, 1, 40], [1000, 24, 3000]])
def test_rotate_matches_half_split_at_sequence_shapes(dtype, lens):
    # the tape: a strided [heads, t, hs] view of q|k|v, at the positions of a
    # pack whose sequences restart at 0
    rng = np.random.default_rng(len(lens))
    pos = np.concatenate([np.arange(n) for n in lens])
    x = rng.standard_normal((len(pos), 5, 8)).astype(dtype).transpose(1, 0, 2)[:3]
    c, s = K.rope_table(8, 5e5, 4096, np.dtype(dtype))
    want = half_split_rotate(x, *K.rope_angles(pos, 8, 5e5, dtype))
    assert np.array_equal(K.rotate(x, c[pos], s[pos]), want)


def test_softcap_hand_value():
    assert abs(K.softcap(np.array(50.0), 100.0) - 100 * math.tanh(0.5)) < 1e-12
    assert round(float(K.softcap(np.array(50.0), 100.0)), 4) == 46.2117


def test_matmul_examples():
    assert np.array_equal(K.matmul(np.eye(3), np.arange(9.).reshape(3, 3)),
                          np.arange(9.).reshape(3, 3))
    assert K.matmul(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0
    out = K.matmul(np.array([[1., 2.], [3., 4.]]), np.array([[5.], [6.]]))
    assert np.array_equal(out, np.array([[17.], [39.]]))
    # the inner dimension of a stacked w is its axis -2
    for a, b in (((2, 3), (2, 3)), ((2, 3), (2, 4, 3)), ((3,), (3,))):
        with pytest.raises(K.ShapeError):
            K.matmul(np.ones(a), np.ones(b))
    # one row comes back as one row, with the bits of a gemm row
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 64)).astype(np.float32)
    w = rng.standard_normal((64, 64)).astype(np.float32)
    one = K.matmul(x[:1], w)
    assert one.shape == (1, 64) and np.array_equal(one, (x @ w)[:1])
    assert np.array_equal(K.matmul(x[0], w), one[0])
    # stacked one-row inputs: each [1, K] is padded on its own
    stacked = K.matmul(x[:, None], w)
    assert stacked.shape == (2, 1, 64) and np.array_equal(stacked[:, 0], x @ w)


@pytest.mark.parametrize("width", [16, 64])
def test_rows_and_attend_are_batch_invariant(width):
    # width 16: the encoder/decoder (2 query heads on 1 KV head); width 64:
    # the backbone (8 on 4). A row's bits must not depend on the batch size,
    # which a plain (B, K) @ (K, N) product does not give at K=64 and B=1.
    rng = np.random.default_rng(width)
    x = rng.standard_normal((64, width)).astype(np.float32)
    w = rng.standard_normal((width, width)).astype(np.float32)
    alone = x @ w
    hs, n = 8, 8
    nh = width // hs
    q = rng.standard_normal((64, nh, hs)).astype(np.float32)
    k = rng.standard_normal((64, n, max(1, nh // 2), hs)).astype(np.float32)
    v = rng.standard_normal(k.shape).astype(np.float32)
    valid = rng.random((64, n)) < 0.6
    valid[:, 0] = True
    masked = np.stack([K.attend(q[b], k[b], v[b], 30.0, valid[b]) for b in range(64)])
    full = np.stack([K.attend(q[b], k[b], v[b], 30.0) for b in range(64)])
    for B in (1, 2, 3, 64):
        assert np.array_equal(K.matmul(x[:B], w), alone[:B])
        assert np.array_equal(K.attend(q[:B], k[:B], v[:B], 30.0, valid[:B]), masked[:B])
        assert np.array_equal(K.attend(q[:B], k[:B], v[:B], 30.0), full[:B])



@given(b=st.integers(1, 64), shape=st.sampled_from(["ring", "backbone"]),
       n=st.integers(1, 64), cap=st.sampled_from([None, 30.0]), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_all_true_mask_reads_as_no_mask(b, shape, n, cap, seed):
    # the byte-ring read drops its mask once every ring is full; a batch with
    # one unfilled ring still reads masked, so a session that is full gets
    # the same bits either way only if an all-true mask changes nothing.
    # Keys and values are views of one stacked [B, 2, n, kv, hs] array, as
    # the ring and grouped backbone reads pass them.
    nh, n_kv, n = (2, 1, 8) if shape == "ring" else (8, 4, n)
    rng = np.random.default_rng(seed)
    q = (3 * rng.standard_normal((b, nh, 8))).astype(np.float32)
    kv = rng.standard_normal((b, 2, n, n_kv, 8)).astype(np.float32)
    masked = K.attend(q, kv[:, 0], kv[:, 1], cap, np.ones((b, n), dtype=bool))
    assert np.array_equal(masked, K.attend(q, kv[:, 0], kv[:, 1], cap))


@given(b=st.sampled_from([1, 2, 23, 64]), shape=st.sampled_from(["ring", "backbone"]),
       n=st.integers(1, 70), mask=st.sampled_from(["prefix", "random", "all"]),
       cap=st.sampled_from([None, 30.0]), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_masked_attend_has_the_bits_of_the_where_mask(b, shape, n, mask, cap, dtype, seed):
    # the step writes -inf with one `np.copyto` into exactly the (row, slot)
    # pairs `valid` leaves out: the bits of the where mask, an all-true mask
    # included; "prefix" masks as an unfilled byte ring does (slots up to the
    # row's position), and a row that sees no key raises
    nh, n_kv = (2, 1) if shape == "ring" else (8, 4)
    rng = np.random.default_rng(seed)
    q = (3 * rng.standard_normal((b, nh, 8))).astype(dtype)
    kv = rng.standard_normal((b, 2, n, n_kv, 8)).astype(dtype)
    valid = {"prefix": np.arange(n) <= rng.integers(0, n, b)[:, None],
             "random": rng.random((b, n)) < 0.5, "all": np.ones((b, n), dtype=bool)}[mask]
    valid[np.arange(b), rng.integers(0, n, b)] = True
    got = K.attend(q, kv[:, 0], kv[:, 1], cap, valid)
    assert got.dtype == dtype
    assert np.array_equal(got, where_attend(q, kv[:, 0], kv[:, 1], cap, valid))
    assert np.array_equal(K.attend(q[0], kv[0, 0], kv[0, 1], cap, valid[0]),
                          where_attend(q[0], kv[0, 0], kv[0, 1], cap, valid[0]))
    valid[rng.integers(0, b)] = False
    with pytest.raises(K.InternalInvariantError):
        K.attend(q, kv[:, 0], kv[:, 1], cap, valid)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unshifted_softmax_at_the_longest_micro_read_is_finite_and_sums_to_1(micro_cfg, dtype):
    # the backbone's 1,024 keys, every logit at +cap or every one at -cap:
    # no row max is taken, and every exp is normal, so each row is uniform
    cap, keys = micro_cfg.softcap, micro_cfg.backbone.max_positions
    x = np.stack([np.full(keys, cap), np.full(keys, -cap)]).astype(dtype)
    assert K.shift_free(x, cap)
    p = K.softmax(x, cap)
    assert np.isfinite(p).all()
    assert np.allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-6)
    # the read itself: queries far beyond the cap meet keys of either sign
    q = np.full((1, 8, 8), 1e6, dtype)
    k = np.ones((1, keys, 4, 8), dtype) * np.where(np.arange(keys) % 2, -1, 1)[:, None, None]
    v = np.random.default_rng(0).standard_normal((1, keys, 4, 8)).astype(dtype)
    out = K.attend(q, k, v, cap)
    assert np.isfinite(out).all()
    want = np.repeat(v[0, ::2].mean(axis=0), 2, axis=0).ravel()    # 2 query heads a KV head
    assert np.allclose(out[0], want, rtol=0, atol=1e-6)


@pytest.mark.parametrize("cap,dtype,free", [
    (30.0, np.float32, True), (30.0, np.float64, True), (None, np.float32, False),
    (100.0, np.float32, False), (100.0, np.float64, True), (705.0, np.float64, False)])
def test_shift_free_holds_only_where_every_exp_is_normal_and_every_sum_finite(cap, dtype, free):
    x = np.zeros((2, 1024), dtype)
    assert K.shift_free(x, cap) == free
    if cap is not None:     # a row at +cap sums to a finite value unshifted exactly then
        x[:] = cap
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(np.exp(x).sum(axis=-1)).all() == free


def attend_rounding_bound(dtype, a, pv, n):
    """A bound on how far a capped read's output entry, in `dtype`, is off
    its exact value. With u the unit roundoff, g(m) = m u / (1 - m u), and
    exp and tanh within 4 ulp (8u relative, 4u absolute below 1):

    * a logit is off by d = g(12) a + 8u cap, a = sum_i |q_i k_i| / sqrt(hs):
      g(12) for the 8 products, the scale, the 1/cap and the roundings of
      their factors (tanh passes on no more error than it meets); 8u cap for
      tanh's own 4u, the cap's multiply and a shift by a max up to 2 cap away;
    * a weight p_j of a row of n keys is then off by a relative
      2 max(d) + g(n + 16): an exp in it and in the row's sum, the sum's
      n - 1 adds, the divide; and the sum of n weighted values adds g(n).

    So entry c is off by at most (2 max(d) + g(2n + 16)) sum_j p_j |v_jc|,
    given max(d) per row as `a` (its largest a) and sum_j p_j |v_jc| as `pv`."""
    u = np.finfo(dtype).eps / 2

    def g(m):
        return m * u / (1 - m * u)
    return (2 * (g(12) * a + 8 * u * 30.0) + g(2 * n + 16)) * pv


# the case drew an error of 1.02e-6 of max |want| against the float32 shifted read
@given(b=st.sampled_from([1, 2, 23]), n=st.integers(1, 40), mask=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 16))
@example(b=23, n=38, mask=False, dtype=np.float32, seed=792)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_unshifted_attend_matches_the_shifted_math(b, n, mask, dtype, seed):
    # the step's read at micro's cap, which takes no row-max shift, against
    # the shifted math in float64, within the rounding of both sides
    rng = np.random.default_rng(seed)
    q = (3 * rng.standard_normal((b, 8, 8))).astype(dtype)
    kv = (3 * rng.standard_normal((b, 2, n, 4, 8))).astype(dtype)
    valid = rng.random((b, n)) < 0.5 if mask else np.ones((b, n), dtype=bool)
    valid[np.arange(b), rng.integers(0, n, b)] = True
    qg = q.reshape(b, 4, 2, 8).astype(np.float64)
    kt, vx = kv[:, 0].transpose(0, 2, 3, 1), kv[:, 1].swapaxes(1, 2).astype(np.float64)
    logits = (qg @ kt) / math.sqrt(8)       # [b, kv, g, n]
    p = where_softmax(K.softcap(logits, 30.0), valid[:, None, None, :])
    want = (p @ vx).reshape(b, 64)
    a = np.max((np.abs(qg) @ np.abs(kt)) / math.sqrt(8), axis=-1, keepdims=True,
               where=valid[:, None, None, :], initial=0.0)
    pv = p @ np.abs(vx)
    bound = attend_rounding_bound(dtype, a, pv, n) + attend_rounding_bound(np.float64, a, pv, n)
    got = K.attend(q, kv[:, 0], kv[:, 1], 30.0, valid)
    assert got.dtype == dtype
    assert np.all(np.abs(got - want) <= bound.reshape(b, 64))


def test_gemm_rows_have_the_same_bits_from_two_rows_up(micro_cfg):
    # batched generation and packed prefill (`model.prompt_pass`) rest on
    # this: a row of X @ W has the same bits in a product of any M >= 2 rows,
    # wherever it sits, at every (K, N) a micro projection uses, the pooling
    # logits' included. M = 1 is the exception: it runs as a gemv, which sums
    # in another order at K >= 64, so `kernels.matmul` pads a one-row input
    # to two rows.
    rng = np.random.default_rng(0)
    shapes = {shape for name, shape in model.param_shapes(micro_cfg).items()
              if len(shape) == 2 and name != "encoder.byte_embedding"}
    shapes.add((micro_cfg.encoder.hidden, micro_cfg.n_enc_cross_heads))
    for k, n in sorted(shapes):
        x = rng.standard_normal((4200, k)).astype(np.float32)
        w = rng.standard_normal((k, n)).astype(np.float32)
        ref = x @ w
        for m in (2, 3, 17, 64, 1000, 4096):
            for s in (0, 1, 4200 - m):
                assert np.array_equal(x[s:s + m] @ w, ref[s:s + m]), (k, n, m, s)


@given(stack=st.sampled_from(["encoder", "backbone", "decoder"]),
       rows=st.one_of(st.integers(1, 64), st.integers(65, 4096)),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_fused_product_columns_match_separate_products(micro_cfg, stack, rows, dtype, seed):
    # the fused layout's "no bit changes" rests on this: each column block of
    # h @ [wq|wk|wv] and of h @ [w_gate|w_up] has the bits of its own product,
    # at the step's row counts (1-64) and the tape's (up to 4,096); so has
    # each block of w_gate|w_up read as a stack of the two (`swiglu_ffn`)
    s = getattr(micro_cfg, stack)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((rows, s.hidden)).astype(dtype)
    q, kv = s.n_heads * s.head_size, s.n_kv_heads * s.head_size
    for widths in ((q, kv, kv), (s.intermediate, s.intermediate)):
        parts = [rng.standard_normal((s.hidden, n)).astype(dtype) for n in widths]
        fused = np.concatenate(parts, axis=1)
        for got, w in zip(np.split(K.matmul(h, fused), np.cumsum(widths)[:-1], axis=1), parts):
            assert np.array_equal(got, K.matmul(h, w)), (stack, rows, widths)
    stacked = K.matmul(h, fused.reshape(s.hidden, 2, -1).swapaxes(0, 1))
    for got, w in zip(stacked, parts):
        assert np.array_equal(got, K.matmul(h, w)), (stack, rows)

def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((2, 4))
    k = rng.standard_normal((1, 2, 4))
    v = rng.standard_normal((1, 2, 4))
    out = K.attend(q, k, v, None)
    assert np.allclose(out, v.reshape(8), atol=1e-12)


def test_attention_sliding_one_attends_self_only():
    # a window of one leaves each position a single visible key, its own;
    # with 2 query heads on 1 kv head the value repeats across the group
    rng = np.random.default_rng(5)
    q = rng.standard_normal((5, 2, 4))
    k = rng.standard_normal((5, 1, 4))
    v = rng.standard_normal((5, 1, 4))
    for i in range(5):
        out = K.attend(q[i], k[i:i + 1], v[i:i + 1], None)
        assert np.allclose(out, np.concatenate([v[i, 0], v[i, 0]]), atol=1e-12)


def test_attention_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((3, 6, 6))
    mask = np.tril(np.ones((6, 6), dtype=bool))
    p = K.softmax(np.where(mask, logits, -np.inf))
    assert np.allclose(p.sum(-1), 1.0, atol=1e-6)
    assert np.array_equal(p[:, 0, 1:], np.zeros((3, 5)))


def test_attention_empty_visible_set_raises():
    # one row of the step's mask sees no key
    with pytest.raises(K.InternalInvariantError):
        K.attend(np.zeros((2, 2, 4)), np.zeros((2, 3, 1, 4)), np.zeros((2, 3, 1, 4)), None,
                 np.array([[True, False, False], [False, False, False]]))


def test_determinism_bit_identical():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((4, 4)).astype(np.float32)
    k = rng.standard_normal((6, 2, 4)).astype(np.float32)
    v = rng.standard_normal((6, 2, 4)).astype(np.float32)
    a = K.attend(q, k, v, 30.0)
    b = K.attend(q, k, v, 30.0)
    assert np.array_equal(a, b)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_float32_float64_agreement(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((2, 4))
    k = rng.standard_normal((4, 1, 4))
    v = rng.standard_normal((4, 1, 4))
    hi = K.attend(q, k, v, None)
    lo = K.attend(q.astype(np.float32), k.astype(np.float32), v.astype(np.float32), None)
    denom = np.maximum(np.abs(hi), 1e-3)
    assert np.max(np.abs(hi - lo.astype(np.float64)) / denom) < 1e-3


@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 9),
       n_kv=st.integers(1, 3), group=st.integers(2, 4),
       hs=st.sampled_from([2, 4, 8]), cap=st.sampled_from([None, 2.0, 30.0]))
@settings(max_examples=60, deadline=None)
def test_attend_matches_autodiff_reference(seed, n, n_kv, group, hs, cap):
    # the grouped read against the training graph's path: keys repeated per
    # query head, then the autodiff masked softmax with every key visible
    rng = np.random.default_rng(seed)
    nh = n_kv * group
    q = 3 * rng.standard_normal((nh, hs))
    k = 3 * rng.standard_normal((n, n_kv, hs))
    v = rng.standard_normal((n, n_kv, hs))
    rep = np.repeat(np.arange(n_kv), group)
    kh = k.transpose(1, 0, 2)[rep]                       # [nh, n, hs]
    vh = v.transpose(1, 0, 2)[rep]
    logits = ad.scale(ad.matmul(q[:, None, :], kh.transpose(0, 2, 1)), 1 / math.sqrt(hs))
    if cap is not None:
        logits = ad.softcap(logits, cap)
    p = masked_softmax(logits, np.ones((1, n), dtype=bool))
    ref = ad.matmul(p, vh).reshape(nh * hs)
    assert np.allclose(K.attend(q, k, v, cap), ref, rtol=0, atol=1e-6)
    # and against the last row of the training attention, q at position n-1
    qt = np.concatenate([rng.standard_normal((nh, n - 1, hs)), q[:, None, :]], axis=1)
    last = ad.attention(np.concatenate([qt, k.transpose(1, 0, 2)]), v.transpose(1, 0, 2),
                        np.arange(n), None, cap)[-1]
    assert np.allclose(K.attend(q, k, v, cap), last.reshape(nh * hs), rtol=0, atol=1e-6)


def test_output_dtype_follows_input():
    x32 = np.ones((2, 4), dtype=np.float32)
    assert K.rms_norm(x32, 1e-5).dtype == np.float32
    assert K.rms_norm(x32.astype(np.float64), 1e-5).dtype == np.float64
