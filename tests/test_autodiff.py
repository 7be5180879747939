"""Finite-difference validation of every autodiff primitive (float64)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatlm import autodiff as ad
from hatlm import kernels, train

from conftest import (DATA, angle_rope, dense_masked_attention, head_major_causal_attention,
                      head_rows, masked_softmax, recomputing_rms_norm_vjp, where_band_attention,
                      where_causal_read)

rng = np.random.default_rng(42)


def fd_check(fn, *arrays, eps=1e-6, tol=1e-5, samples=8):
    """Compare analytic grads of scalar fn(*Vars) against central differences."""
    leaves = [ad.wrap(a.copy(), rg=True) for a in arrays]
    out = fn(*leaves)
    ad.backward(out)
    for leaf, base in zip(leaves, arrays):
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(base)
        for _ in range(samples):
            idx = tuple(int(rng.integers(0, s)) for s in base.shape)
            plus, minus = base.copy(), base.copy()
            plus[idx] += eps
            minus[idx] -= eps
            fp = fn(*[plus if a is base else a for a in arrays])
            fm = fn(*[minus if a is base else a for a in arrays])
            num = (fp - fm) / (2 * eps)
            assert abs(num - grad[idx]) <= tol * max(1.0, abs(num), abs(grad[idx])), \
                f"grad mismatch at {idx}: fd={num} analytic={grad[idx]}"


def r(*shape):
    return rng.standard_normal(shape)


def test_add_mul_broadcast():
    fd_check(lambda a, b: ad.sum_(ad.mul(ad.add(a, b), b)), r(3, 4), r(4))


def test_matmul_2d_and_batched():
    fd_check(lambda a, b: ad.sum_(ad.matmul(a, b)), r(3, 4), r(4, 5))
    fd_check(lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), 2.0)), r(2, 3, 4), r(2, 4, 5))
    fd_check(lambda a, b: ad.sum_(ad.matmul(a, b)), r(2, 3, 4), r(4, 5))


def test_gather_axes():
    idx0 = np.array([0, 2, 2, 1])
    fd_check(lambda a: ad.sum_(ad.mul(ad.gather(a, idx0), 3.0)), r(4, 5))
    idx1 = np.array([1, 0, 1, 3, 3])
    fd_check(lambda a: ad.sum_(ad.mul(ad.gather(a, idx1, axis=1), 2.0)), r(2, 4, 3))


def test_reshape_transpose_concat_narrow():
    m = r(3, 4)
    fd_check(lambda a: ad.sum_(ad.mul(ad.transpose(ad.reshape(a, (4, 3)), (1, 0)), m)),
             r(2, 6))
    fd_check(lambda a, b: ad.sum_(ad.mul(ad.narrow(ad.concat([a, b], axis=1), 1, 1, 3), 2.0)),
             r(2, 2), r(2, 3))


def test_rms_norm_with_gain():
    fd_check(lambda a, g: ad.sum_(ad.mul(ad.rms_norm(a, 1e-5, g), 2.0)), r(3, 5), r(5))


def test_softcap():
    fd_check(lambda a: ad.sum_(ad.softcap(a, 3.0)), 5 * r(4, 4))


def test_masked_softmax():
    mask = np.tril(np.ones((4, 4), dtype=bool))
    m = r(2, 4, 4)
    fd_check(lambda a: ad.sum_(ad.mul(masked_softmax(a, mask), m)), r(2, 4, 4))


def test_rope():
    m = r(2, 5, 6)
    rows = kernels.rope_table(6, 100.0, 5, np.dtype(np.float64))
    fd_check(lambda a: ad.sum_(ad.mul(ad.rope(a, *rows), m)), r(2, 5, 6))


def _vjp(node, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x's gradient under `node` for the output gradient g: sum(node(x) * g)
    gives the node exactly g."""
    xv = ad.wrap(x, rg=True)
    ad.backward(ad.sum_(ad.mul(node(xv), g)))
    return xv.grad


ROPE_SHAPES = [("step", b) for b in (1, 2, 23, 64)] + \
    [("pack", lens) for lens in ([1], [300], [4096], [5, 1, 40], [1000, 24, 3000])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind,size", ROPE_SHAPES)
def test_rope_matches_angle_rope_forward_and_vjp(dtype, kind, size):
    # ad.rope on table rows against the per-call angles it replaced: the
    # forward at the positions and the VJP as the rotation at -positions
    gen = np.random.default_rng(7)
    base, hs = 1e5, 8
    if kind == "step":                  # [B, heads, hs] at [B, 1, hs] rows
        pos = gen.integers(0, 4096, size)
        x, g = (gen.standard_normal((size, 3, hs)).astype(dtype) for _ in "xg")

        def ref(a, p):
            return angle_rope(a.swapaxes(0, 1), p, base).swapaxes(0, 1)
        idx = pos[:, None]
    else:                               # a strided [heads, t, hs] view of a pack
        pos = np.concatenate([np.arange(n) for n in size])
        x, g = (gen.standard_normal((len(pos), 5, hs)).astype(dtype).transpose(1, 0, 2)[:3]
                for _ in "xg")

        def ref(a, p):
            return angle_rope(a, p, base)
        idx = pos
    c, s = (t[idx] for t in kernels.rope_table(hs, base, 4096, np.dtype(dtype)))
    assert np.array_equal(ad.rope(x, c, s), ref(x, pos))
    assert np.array_equal(_vjp(lambda a: ad.rope(a, c, s), x, g), ref(g, -pos))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 16), (2, 16), (23, 64), (1024, 16), (3, 4096, 8)])
@pytest.mark.parametrize("with_gain", [False, True])
def test_rms_norm_vjp_matches_recomputing_vjp(dtype, shape, with_gain):
    gen = np.random.default_rng(shape[0])
    x, g = (gen.standard_normal(shape).astype(dtype) for _ in "xg")
    gain = gen.standard_normal(shape[-1]).astype(dtype) if with_gain else None
    got = _vjp(lambda a: ad.rms_norm(a, 1e-5, gain), x, g)
    assert np.array_equal(got, recomputing_rms_norm_vjp(x, g, 1e-5, gain))


def test_sum_keepdims():
    m2 = r(3, 1, 5)
    fd_check(lambda a: ad.sum_(ad.mul(ad.sum_(a, axis=1, keepdims=True), m2)), r(3, 4, 5))


def test_cross_entropy():
    fd_check(lambda a: ad.cross_entropy(a, np.array([1, 0, 3])), r(3, 5))


def test_swiglu_composite():
    fd_check(lambda x, gu, d: ad.sum_(ad.swiglu(x, gu, d)), r(3, 4), r(4, 12), r(6, 4))


def test_swiglu_without_tape_matches_taped_value():
    # with no input needing a gradient, swiglu is `kernels.swiglu_ffn`
    args = r(5, 4), r(4, 12), r(6, 4)
    plain, taped = ad.swiglu(*args), ad.swiglu(ad.wrap(args[0], rg=True), *args[1:])
    assert type(plain) is np.ndarray and type(taped) is ad.Var
    assert np.array_equal(plain, taped.v)


# ---------------------------------------------------------------------------
# grouped, banded attention

def composite_attention(q, k, v, window, cap):
    """Grouped causal attention from generic nodes, as the training graph
    built it before `ad.attention`: K and V repeated per query head by
    `gather`, a window shorter than t copied out as a band by `gather`, then
    `masked_softmax`."""
    nh, t, hs = q.shape
    rep = np.repeat(np.arange(k.shape[0]), nh // k.shape[0])
    k, v = ad.gather(k, rep, axis=0), ad.gather(v, rep, axis=0)
    w = t if window is None else min(window, t)
    idx = np.arange(t)[:, None] - (w - 1) + np.arange(w)[None, :]
    kb = ad.reshape(ad.gather(k, np.clip(idx, 0, None).ravel(), axis=1), (nh, t, w, hs))
    vb = ad.reshape(ad.gather(v, np.clip(idx, 0, None).ravel(), axis=1), (nh, t, w, hs))
    qe = ad.reshape(q, (nh, t, 1, hs))
    logits = ad.scale(ad.matmul(qe, ad.transpose(kb, (0, 1, 3, 2))), 1.0 / math.sqrt(hs))
    if cap is not None:
        logits = ad.softcap(logits, cap)
    p = masked_softmax(logits, (idx >= 0)[None, :, None, :])
    return head_rows(ad.reshape(ad.matmul(p, vb), (nh, t, hs)))


ATTENTION_CASES = {            # n_heads, n_kv_heads, t, window, cap
    "dense": (4, 2, 6, None, None),
    "dense-cap": (4, 2, 6, None, 2.0),
    "band": (2, 2, 7, 3, None),
    "band-grouped-cap": (6, 1, 7, 3, 2.0),
    "window-at-t": (4, 2, 5, 5, 2.0),
    "window-above-t": (2, 1, 5, 9, None),
    "window-1": (4, 2, 5, 1, 2.0),
}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention(case):
    nh, nkv, t, window, cap = ATTENTION_CASES[case]
    m = r(t, nh * 4)
    fd_check(lambda q, k, v: ad.sum_(ad.mul(ad.attention(ad.concat([q, k]), v, np.arange(t),
                                                         window, cap), m)),
             2 * r(nh, t, 4), 2 * r(nkv, t, 4), r(nkv, t, 4))


def _check_against_composite(seed, n_kv, group, t, hs, window, cap, dtype):
    g = np.random.default_rng(seed)
    arrays = [(s * g.standard_normal(shape)).astype(dtype) for s, shape in
              ((3, (n_kv * group, t, hs)), (3, (n_kv, t, hs)), (1, (n_kv, t, hs)))]
    m = g.standard_normal((t, n_kv * group * hs)).astype(dtype)
    results = []
    for fn in (lambda q, k, v: ad.attention(ad.concat([q, k]), v, np.arange(t), window, cap),
               lambda *qkv: composite_attention(*qkv, window, cap)):
        leaves = [ad.wrap(a, rg=True) for a in arrays]
        out = fn(*leaves)
        ad.backward(ad.sum_(ad.mul(out, m)))
        results.append([out.v] + [leaf.grad for leaf in leaves])
    tol = dict(rtol=0, atol=1e-12) if dtype == np.float64 else dict(rtol=1e-4, atol=1e-5)
    for got, want in zip(*results):
        assert got.dtype == dtype
        assert np.allclose(got, want, **tol)


@given(seed=st.integers(0, 2 ** 31 - 1), n_kv=st.integers(1, 3), group=st.integers(1, 3),
       t=st.integers(1, 12), hs=st.sampled_from([2, 4, 8]),
       window=st.one_of(st.none(), st.integers(1, 14)),
       cap=st.sampled_from([None, 2.0, 30.0]), dtype=st.sampled_from([np.float64, np.float32]))
@settings(max_examples=150, deadline=None)
def test_attention_matches_composite(seed, n_kv, group, t, hs, window, cap, dtype):
    _check_against_composite(seed, n_kv, group, t, hs, window, cap, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cap", [None, 30.0])
@pytest.mark.parametrize("window", [None, 9])
@pytest.mark.parametrize("t", [40, 70])
def test_attention_matches_composite_over_blocks(t, window, cap, dtype):
    # t spans two and three query blocks of the dense read
    _check_against_composite(t, 2, 2, t, 4, window, cap, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cap", [None, 2.0])
@pytest.mark.parametrize("t", [1, 31, 32, 33, 64, 100])
def test_attention_no_grad_matches_tape(t, cap, dtype):
    # the dense read runs one code path with or without a tape: the same bits
    g = np.random.default_rng(t)
    qk, v = ((s * g.standard_normal(shape)).astype(dtype) for s, shape in
             ((3, (6 + 2, t, 8)), (1, (2, t, 8))))
    for window in (None, t + 3):
        plain = ad.attention(qk, v, np.arange(t), window, cap)
        taped = ad.attention(ad.wrap(qk, rg=True), v, np.arange(t), window, cap)
        assert type(plain) is np.ndarray and type(taped) is ad.Var
        assert plain.dtype == dtype
        if window is None:
            assert np.array_equal(plain, taped.v)
        else:
            atol = 1e-12 if dtype == np.float64 else 1e-6
            assert np.allclose(plain, taped.v, rtol=0, atol=atol)


def _pack_positions(lens):
    return np.concatenate([np.arange(n) for n in lens])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cap", [None, 2.0, 30.0])
@pytest.mark.parametrize("lens", [(1,), (31,), (32,), (33,), (70,), (100,),
                                  (32, 33), (1, 40, 29), (5, 64, 31)], ids=str)
def test_attention_blocked_matches_dense(lens, cap, dtype):
    positions = _pack_positions(lens)
    t = len(positions)
    g = np.random.default_rng(t + len(lens))
    qk, v, m = ((s * g.standard_normal(shape)).astype(dtype) for s, shape in
                ((3, (8 + 4, t, 8)), (1, (4, t, 8)), (1, (t, 8 * 8))))
    results = []
    for fn in (lambda a, b: ad.attention(a, b, positions, None, cap),
               lambda a, b: dense_masked_attention(a, b, positions, cap)):
        leaves = [ad.wrap(qk, rg=True), ad.wrap(v, rg=True)]
        out = fn(*leaves)
        ad.backward(ad.sum_(ad.mul(out, m)))
        results.append([out.v] + [leaf.grad for leaf in leaves])
    tol = dict(rtol=0, atol=1e-12) if dtype == np.float64 else dict(rtol=1e-4, atol=1e-5)
    for got, want in zip(*results):
        assert got.dtype == dtype
        assert np.allclose(got, want, **tol)


@pytest.mark.parametrize("lens,cap", [((70,), None), ((70,), 2.0), ((33, 37), 2.0)], ids=str)
def test_attention_blocked_fd(lens, cap):
    positions = _pack_positions(lens)
    t = len(positions)
    m = r(t, 4 * 4)
    fd_check(lambda q, k, v: ad.sum_(ad.mul(ad.attention(ad.concat([q, k]), v, positions,
                                                         None, cap), m)),
             2 * r(4, t, 4), 2 * r(2, t, 4), r(2, t, 4), samples=16)


def _qkv_m(seed, lens, n_kv, group, dtype):
    g = np.random.default_rng(seed)
    t = sum(lens)
    return [(s * g.standard_normal(shape)).astype(dtype) for s, shape in
            ((3, (n_kv * (group + 1), t, 8)), (1, (n_kv, t, 8)), (1, (t, n_kv * group * 8)))]


@given(seed=st.integers(0, 2 ** 31 - 1), window=st.sampled_from([1, 2, 8]),
       lens=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       n_kv=st.integers(1, 2), group=st.integers(1, 3), cap=st.sampled_from([None, 30.0]),
       dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=80, deadline=None)
def test_band_read_has_the_bits_of_the_where_mask(seed, window, lens, n_kv, group, cap, dtype):
    # the band read hides only the slots before each sequence's first row,
    # in the rows whose band reaches back before it, and shifts by the row
    # max of all its slots: no bit moves, with or without a tape, gradients
    # included (the softcap's VJP reads the capped logits, which the mask
    # must not touch)
    positions = _pack_positions(lens)
    qk, v, m = _qkv_m(seed, lens, n_kv, group, dtype)
    plain = ad.attention(qk, v, positions, window, cap)
    results = []
    for fn in (lambda a, b: ad.attention(a, b, positions, window, cap),
               lambda a, b: where_band_attention(a, b, positions, window, cap)):
        leaves = [ad.wrap(qk, rg=True), ad.wrap(v, rg=True)]
        out = fn(*leaves)
        ad.backward(ad.sum_(ad.mul(out, m)))
        results.append([out.v] + [leaf.grad for leaf in leaves])
    assert np.array_equal(plain, results[1][0])
    for got, want in zip(*results):
        assert got.dtype == dtype and np.array_equal(got, want)


@given(seed=st.integers(0, 2 ** 31 - 1),
       lens=st.lists(st.sampled_from([1, 31, 32, 33, 70]), min_size=1, max_size=3),
       cap=st.sampled_from([None, 30.0]), dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=40, deadline=None)
def test_causal_read_has_the_bits_of_the_where_mask(seed, lens, cap, dtype):
    # each block hides only the triangle above the diagonal of its last keys
    positions = _pack_positions(lens)
    qk, v, _ = _qkv_m(seed, lens, 2, 2, dtype)
    want = where_causal_read(qk, v, positions, cap)
    for rg in (False, True):
        got = ad.attention(ad.wrap(qk, rg=rg), v, positions, None, cap)
        got = got.v if rg else got
        assert got.dtype == dtype and np.array_equal(got, want)


def _taped_read(qk, v, m, positions, cap):
    """A dense read on the tape: its output and the gradients of sum(out * m)."""
    leaves = [ad.wrap(qk, rg=True), ad.wrap(v, rg=True)]
    out = ad.attention(*leaves, positions, None, cap)
    ad.backward(ad.sum_(ad.mul(out, m)))
    return out.v, leaves[0].grad, leaves[1].grad


@given(seed=st.integers(0, 2 ** 31 - 1),
       lens=st.lists(st.sampled_from([1, 2, 4, 7, 31, 32, 33, 40]), min_size=2, max_size=64),
       cap=st.sampled_from([None, 30.0]), dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=30, deadline=None)
def test_pack_reads_each_sequence_with_the_bits_of_its_read_alone(seed, lens, cap, dtype):
    # a pack's blocks of one shape share one product, on the tape and off
    # it: no bit of a sequence's output rows or gradients may move
    positions = _pack_positions(lens)
    qk, v, m = _qkv_m(seed, lens, 2, 2, dtype)
    pack = _taped_read(qk, v, m, positions, cap)
    assert np.array_equal(ad.attention(qk, v, positions, None, cap), pack[0])
    ends = np.cumsum(lens)
    for s, e in zip(ends - lens, ends):
        alone = _taped_read(qk[:, s:e], v[:, s:e], m[s:e], np.arange(e - s), cap)
        for got, want in zip((pack[0][s:e], pack[1][:, s:e], pack[2][:, s:e]), alone):
            assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,cap", [(None, None), (None, 30.0), (3, None), (9, 2.0)])
@pytest.mark.parametrize("lens", [(7,), (40,), (33, 37)], ids=str)
def test_attention_rows_have_the_bits_of_the_head_major_read(lens, window, cap, dtype):
    # the read returns [t, n_heads * hs] rows, the output projection's input:
    # the bits of the head-major reads put in rows on the graph, as the model
    # did before, for the output and both gradients, with and without a tape
    # (`where_band_attention` has the band read's bits)
    positions = _pack_positions(lens)
    qk, v, m = _qkv_m(sum(lens), lens, 2, 3, dtype)
    results = []
    for fn in (lambda a, b: ad.attention(a, b, positions, window, cap),
               lambda a, b: head_major_causal_attention(a, b, positions, cap) if window is None
               else where_band_attention(a, b, positions, window, cap)):
        leaves = [ad.wrap(qk, rg=True), ad.wrap(v, rg=True)]
        out = fn(*leaves)
        ad.backward(ad.sum_(ad.mul(out, m)))
        results.append([out.v] + [leaf.grad for leaf in leaves])
    assert np.array_equal(ad.attention(qk, v, positions, window, cap), results[1][0])
    for got, want in zip(*results):
        assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window", [None, 1, 3, 8])
@pytest.mark.parametrize("lens", [(7,), (40,), (33, 37), (1, 64, 5)], ids=str)
def test_unshifted_reads_match_the_shifted_math(lens, window, dtype):
    # micro's cap of 30 lets every read skip the row-max shift; the output
    # and both gradients differ from the dense read's with the shifted math
    # by at most 1e-6 of its largest entry, on the tape and off it
    positions = _pack_positions(lens)
    qk, v, m = _qkv_m(sum(lens) + len(lens), lens, 2, 3, dtype)
    assert kernels.shift_free(np.empty(sum(lens), dtype), 30.0)
    results = []
    for fn in (lambda a, b: ad.attention(a, b, positions, window, 30.0),
               lambda a, b: dense_masked_attention(a, b, positions, 30.0, window)):
        leaves = [ad.wrap(qk, rg=True), ad.wrap(v, rg=True)]
        out = fn(*leaves)
        ad.backward(ad.sum_(ad.mul(out, m)))
        results.append([out.v] + [leaf.grad for leaf in leaves])
    results[0].append(ad.attention(qk, v, positions, window, 30.0))
    results[1].append(results[1][0])
    for got, want in zip(*results):
        assert got.dtype == dtype
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("window", [None, 2, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_cap_the_dtype_cannot_hold_takes_the_shifted_path(window, dtype):
    # exp(100) overflows float32: its reads of logits near +-100 must shift,
    # and then have the shifted references' bits; float64 holds it unshifted
    lens = (40, 33)
    positions = _pack_positions(lens)
    qk, v, _ = _qkv_m(7, lens, 2, 2, dtype)
    qk *= 100                   # logits far beyond the cap, so capped near +-100
    assert kernels.shift_free(np.empty(sum(lens), dtype), 100.0) == (dtype == np.float64)
    want = (where_causal_read(qk, v, positions, 100.0) if window is None else
            where_band_attention(qk, v, positions, window, 100.0).v)
    for rg in (False, True):
        got = ad.attention(ad.wrap(qk, rg=rg), v, positions, window, 100.0)
        got = got.v if rg else got
        assert np.isfinite(got).all() and np.array_equal(got, want)


@pytest.mark.parametrize("rg", [False, True])
def test_causal_blocks_hide_exactly_the_triangle_above_their_last_keys(monkeypatch, rg):
    # each block writes -inf with one `np.copyto` over its last keys: exactly
    # the slots a plain causal mask hides, in grouped and single reads
    seen, softmax = [], kernels.softmax

    def spy(x, *args):
        seen.append(np.isneginf(x))
        return softmax(x, *args)
    monkeypatch.setattr(kernels, "softmax", spy)
    lens = (1, 31, 32, 33, 70, 33)
    qk, v, _ = _qkv_m(3, lens, 2, 2, np.float32)
    ad.attention(ad.wrap(qk, rg=rg), v, _pack_positions(lens), None, 30.0)
    assert len(seen) == 7       # the block shapes of the pack, 33 in one product
    for hidden in seen:
        n, m = hidden.shape[-2:]    # a block's rows sit at its last n of m keys
        want = np.arange(m) > np.arange(m - n, m)[:, None]
        assert np.array_equal(hidden, np.broadcast_to(want, hidden.shape))


@pytest.mark.parametrize("window", [None, 3])
@pytest.mark.parametrize("positions", [np.arange(3, 8), [0, 1, 2, 0, 5], [0, 1, 3, 4, 5],
                                       [0, 1, 2, 3], np.zeros((1, 5), dtype=int)], ids=str)
def test_attention_rejects_positions_that_do_not_count_up_from_0(window, positions):
    # rows before a first 0 would read garbage, and a row that skips ahead
    # would read keys of the sequence before it
    with pytest.raises(ValueError, match="positions"):
        ad.attention(r(4 + 2, 5, 4), r(2, 5, 4), positions, window, None)


def test_attention_no_grad_dense_read_is_blocked():
    g = np.random.default_rng(0)
    qk, v = g.standard_normal((4 + 2, 512, 8)), g.standard_normal((2, 512, 8))
    peaks = []
    for rg in (False, True):
        tracemalloc.start()
        out = ad.attention(ad.wrap(qk, rg=rg), v, np.arange(512), None, 30.0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        del out
    assert peaks[0] < peaks[1] / 4


def test_attention_tape_is_blocked():
    # the tape keeps per-block probabilities, not the [kv, g*t, t] logits
    g = np.random.default_rng(0)
    qk, v, m = (g.standard_normal(shape) for shape in ((4 + 2, 512, 8), (2, 512, 8), (512, 32)))
    peaks = []
    for fn in (lambda a, b: ad.attention(a, b, np.arange(512), None, 30.0),
               lambda a, b: dense_masked_attention(a, b, np.arange(512), 30.0)):
        leaves = [ad.wrap(qk, rg=True), ad.wrap(v, rg=True)]
        tracemalloc.start()
        ad.backward(ad.sum_(ad.mul(fn(*leaves), m)))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < 0.7 * peaks[1]


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError):
        ad.backward(ad.wrap(np.ones(3), rg=True))


def test_no_grad_leaves_skip_tape():
    a = ad.wrap(r(3, 3), rg=False)
    b = ad.wrap(r(3, 3), rg=True)
    out = ad.sum_(ad.matmul(a, b))
    ad.backward(out)
    assert type(a) is np.ndarray and b.grad is not None
    assert out._parents[0]._parents[0] is a         # a constant input, not a node


def test_a_scalar_constant_keeps_the_arrays_dtype():
    # a Python scalar stays weak with a tape as without one
    x = np.ones(3, np.float32)
    for op in (ad.add, ad.mul):
        assert op(x, 2.0).dtype == op(ad.wrap(x, rg=True), 2.0).v.dtype == np.float32


def test_grad_accumulates_over_reuse():
    a = ad.wrap(np.array([2.0]), rg=True)
    out = ad.sum_(ad.add(ad.mul(a, a), a))  # d/da (a^2 + a) = 2a + 1
    ad.backward(out)
    assert np.allclose(a.grad, [5.0])


# ---------------------------------------------------------------------------
# gradient ownership: kept by reference, copied on a second contribution

def copying_accum(p, g, owned=False, at=None):
    """`ad._accum` as it was before gradients were kept by reference: the
    first whole gradient is copied, one into a part zero-fills p.grad first,
    and later ones are added in place."""
    if type(p) is not ad.Var:
        return
    if p.grad is None and at is None:
        p.grad = np.array(g, dtype=p.v.dtype)
        return
    if p.grad is None:
        p.grad = np.zeros_like(p.v)
    p.grad[... if at is None else at] += g


GRAPH_OPS = ("add", "reshape", "transpose", "narrow", "split", "concat", "sum")
SHAPES = ((2, 3), (2, 3), (3, 2))
WEIGHTS = (0.0, -0.0, 1.0, -1.5, 0.25, 3.0)     # -0.0 shows a part written as g, not 0 + g


def build_graph(leaves, steps, uses, weights):
    """A scalar over nodes built from `leaves` by `steps` (op, i, j, k): i
    and j pick earlier nodes, k an axis and a size. `uses[n]` adds node n
    to the root as 0: nothing, 1: its sum (a broadcast view of the root's
    gradient), 2: its sum weighted by `weights` rolled by n (an array it owns)."""
    nodes = list(leaves)
    for op, i, j, k in steps:
        x = nodes[i % len(nodes)]
        axis, n = k % 2, x.shape[k % 2]
        if op == "add":         # with a node of x's shape, maybe x
            alike = [y for y in nodes if y.shape == x.shape]
            nodes.append(ad.add(x, alike[j % len(alike)]))
        elif op == "reshape":
            nodes.append(ad.reshape(x, x.shape[::-1]))
        elif op == "transpose":
            nodes.append(ad.transpose(x, (1, 0)))
        elif op == "narrow":        # any part, the whole axis included
            start = j % n
            nodes.append(ad.narrow(x, axis, start, 1 + k // 2 % (n - start)))
        elif op == "split" and n > 1:   # two parts that cover the axis
            cut = 1 + j % (n - 1)
            nodes += [ad.narrow(x, axis, 0, cut), ad.narrow(x, axis, cut, n - cut)]
        elif op == "concat":
            alike = [y for y in nodes if y.shape[1 - axis] == x.shape[1 - axis]]
            nodes.append(ad.concat([x, alike[j % len(alike)]], axis=axis))
        elif op == "sum":
            nodes.append(ad.sum_(x, axis=axis, keepdims=True))
    terms = []
    for n, (node, use) in enumerate(zip(nodes, uses)):
        if use == 1:
            terms.append(ad.sum_(node))
        elif use == 2:
            w = np.resize(np.roll(weights, n), node.shape).astype(node.dtype)
            terms.append(ad.sum_(ad.mul(node, w)))
    if not terms:   # the used last node was a split of a 1-long axis, which adds none
        terms.append(ad.sum_(nodes[-1]))
    root = terms[0]
    for term in terms[1:]:
        root = ad.add(root, term)
    return root


def leaf_gradients(accum, dtype, steps, uses, weights):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_accum", accum)
        leaves = [ad.wrap(np.arange(6, dtype=dtype).reshape(s), rg=True) for s in SHAPES]
        ad.backward(build_graph(leaves, steps, uses, weights))
    return leaves


STEP = st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 6), st.integers(0, 6),
                 st.integers(0, 20))


@given(dtype=st.sampled_from([np.float32, np.float64]), steps=st.lists(STEP, max_size=8),
       uses=st.lists(st.sampled_from([0, 1, 2, 2]), min_size=19, max_size=19),
       weights=st.lists(st.sampled_from(WEIGHTS), min_size=6, max_size=6))
# an owned gradient lent to both leaves of an add, then a second one into
# one of them: added in place, it would reach the other leaf too
@example(dtype=np.float64, steps=[("add", 0, 1, 1), ("add", 1, 1, 9)],
         uses=[0, 0, 0, 2, 2] + [0] * 14, weights=[1.0, -1.5, 0.25, 3.0, 1.0, 1.0])
@example(dtype=np.float32, steps=[("concat", 5, 0, 19), ("add", 5, 6, 14), ("reshape", 6, 0, 10)],
         uses=[0, 0, 2, 2, 2, 1] + [0] * 13, weights=[1.0, -1.5, 0.25, 3.0, 1.0, -0.0])
@example(dtype=np.float32, steps=[("narrow", 0, 0, 2), ("split", 6, 0, 12), ("add", 1, 3, 4),
                                  ("sum", 3, 0, 12)],
         uses=[0, 0, 2, 0, 0, 0, 2, 2] + [0] * 11, weights=[-0.0, -1.5, 0.25, 3.0, -0.0, 1.0])
@settings(max_examples=300, deadline=None)
def test_leaf_gradients_have_the_bits_of_always_copying(dtype, steps, uses, weights):
    n_nodes = len(SHAPES) + sum(2 if op == "split" else 1 for op, *_ in steps)
    uses = uses[:n_nodes]
    uses[-1] = uses[-1] or 1
    weights = np.array(weights)
    got = leaf_gradients(ad._accum, dtype, steps, uses, weights)
    ref = leaf_gradients(copying_accum, dtype, steps, uses, weights)
    # what loss_and_grads hands out without a copy shares no memory
    owned = [a.grad for a in got if a.owns_grad]
    assert not any(np.shares_memory(g, b.grad) for g in owned
                   for b in got if b.grad is not None and b.grad is not g)
    for a, b in zip(got, ref):
        assert (a.grad is None) == (b.grad is None)
        if b.grad is not None:
            assert a.grad.dtype == b.grad.dtype and a.grad.shape == b.grad.shape
            assert np.ascontiguousarray(a.grad).tobytes() == b.grad.tobytes()


def test_cross_entropy_vjp_has_the_bits_of_the_allocating_vjp():
    # the parent VJP: g * (e / se - onehot(t)) / n in new arrays
    for dtype in (np.float32, np.float64):
        x, t = r(6, 11).astype(dtype), np.array([3, 0, 10, 3, 7, 1])
        a = ad.wrap(x, rg=True)
        ad.backward(ad.scale(ad.cross_entropy(a, t), 1.75))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        p[np.arange(6), t] -= 1.0
        ref = np.array(1.75, dtype=dtype) * p / 6
        assert a.grad.dtype == dtype and a.grad.tobytes() == ref.tobytes()


def test_swiglu_vjp_has_the_bits_of_the_recomputing_vjp():
    # the parent VJP: the sigmoid recomputed as 1 / (1 + exp(-a))
    for dtype in (np.float32, np.float64):
        xv, guv, dv, m = (q.astype(dtype) for q in (r(5, 4), r(4, 12), r(6, 4), r(5, 4)))
        leaves = [ad.wrap(q, rg=True) for q in (xv, guv, dv)]
        ad.backward(ad.sum_(ad.mul(ad.swiglu(*leaves), m)))
        a, b = xv @ guv[:, :6], xv @ guv[:, 6:]
        sa = kernels.silu(a)
        dh = m @ dv.T
        s = 1.0 / (1.0 + np.exp(-a))
        dab = np.concatenate([dh * b * (s + sa * (1.0 - s)), dh * sa], axis=1)
        refs = dab @ guv.T, xv.T @ dab, (sa * b).T @ m
        for leaf, ref in zip(leaves, refs):
            assert leaf.grad.tobytes() == ref.tobytes()


def test_no_grad_graph_keeps_no_tape():
    a, b = ad.wrap(r(3, 3)), ad.wrap(r(3, 3))
    out = ad.sum_(ad.softcap(ad.matmul(a, b), 2.0))
    assert not isinstance(out, ad.Var)
    kept = ad.sum_(ad.matmul(a, ad.wrap(r(3, 3), rg=True)))
    assert kept._parents != () and kept._bw is not None


# ---------------------------------------------------------------------------
# segment primitives (the pooling connector's softmax and weighted sum)

SEGMENTS = [
    np.array([0]),              # one segment over the whole axis
    np.array([0, 1, 2, 3, 4, 5, 6]),  # every segment of length 1
    np.array([0, 1, 4]),        # a leading single, then lengths 3 and 3
    np.array([0, 5, 6]),        # a long leading segment, then 1 and 1
]


@pytest.mark.parametrize("starts", SEGMENTS, ids=lambda s: "-".join(map(str, s)))
def test_segment_softmax(starts):
    m = r(3, 7)
    fd_check(lambda a: ad.sum_(ad.mul(ad.segment_softmax(a, starts), m)), 3 * r(3, 7))
    p = ad.segment_softmax(ad.wrap(r(3, 7)), starts)
    assert np.allclose(np.add.reduceat(p, starts, axis=-1), 1.0)


@pytest.mark.parametrize("starts", SEGMENTS, ids=lambda s: "-".join(map(str, s)))
def test_segment_sum(starts):
    m0, m1 = r(len(starts), 2, 3), r(2, len(starts), 3)
    fd_check(lambda a: ad.sum_(ad.mul(ad.segment_sum(a, starts, axis=0), m0)), r(7, 2, 3))
    fd_check(lambda a: ad.sum_(ad.mul(ad.segment_sum(a, starts, axis=1), m1)), r(2, 7, 3))


@pytest.mark.parametrize("starts", [[], [1, 3], [0, 3, 3], [0, 4, 2], [0, 7]])
def test_segment_starts_validated(starts):
    with pytest.raises(ValueError):
        ad.segment_sum(ad.wrap(r(7)), np.array(starts, dtype=np.int64), axis=0)
    with pytest.raises(ValueError):
        ad.segment_softmax(ad.wrap(r(7)), np.array(starts, dtype=np.int64))


# ---------------------------------------------------------------------------
# gather backward: a sorted np.add.reduceat, against a plain np.add.at scatter

def add_at_scatter(shape, idx, axis, g):
    """The gather's backward as it was before the sorted reduceat: one
    np.add.at, which adds each gathered row in index order."""
    acc = np.zeros(shape, dtype=g.dtype)
    np.add.at(np.moveaxis(acc, axis, 0), idx,
              np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim)))
    return acc


def assert_gather_backward_matches_add_at(a, idx, axis, m):
    """a's gradient under gather(a, idx, axis) for the output gradient m is
    the np.add.at scatter of m up to the rounding of the sums: within 1e-12
    (float64) or 1e-5 (float32) of the scatter of |m|."""
    v = ad.wrap(a, rg=True)
    ad.backward(ad.sum_(ad.mul(ad.gather(v, idx, axis=axis), m)))
    ref = add_at_scatter(a.shape, idx, axis, m)
    scale = add_at_scatter(a.shape, idx, axis, np.abs(m).astype(np.float64))
    assert v.grad.dtype == a.dtype
    tol = 1e-12 if a.dtype == np.float64 else 1e-5
    assert np.all(np.abs(v.grad - ref) <= tol * np.maximum(scale, 1.0))


TEXT = (DATA / "english_sample.txt").read_bytes()[:1024]
GATHER_CASES = {
    "repeated-axis0": ((6, 4), np.array([0, 2, 2, 1, 2, 0, 5]), 0),
    "unsorted-axis1": ((2, 9, 3), np.array([7, 1, 8, 1, 0, 7, 7, 3]), 1),
    "clipped-axis0": ((5, 3), np.clip(np.arange(-6, 9), 0, 4), 0),
    "2d-index-axis1": ((3, 5, 2), np.array([[4, 0, 0], [1, 4, 4]]), 1),
    "band-axis1": ((2, 300, 8),
                   np.clip(np.arange(300)[:, None] - 7 + np.arange(8), 0, None).ravel(), 1),
    "text-bytes-axis0": ((256, 16), np.frombuffer(TEXT, dtype=np.uint8).astype(np.int64), 0),
    "1d-source": ((53,), np.concatenate([np.arange(1500) * 7 % 53, [3] * 40]), 0),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(GATHER_CASES))
def test_gather_backward_equals_add_at(case, dtype):
    shape, idx, axis = GATHER_CASES[case]
    out_shape = shape[:axis] + idx.shape + shape[axis + 1:]
    m = (r(*out_shape) * 10.0 ** rng.uniform(-4, 4, out_shape)).astype(dtype)
    assert_gather_backward_matches_add_at(r(*shape).astype(dtype), idx, axis, m)


@given(seed=st.integers(0, 2 ** 31 - 1), rows=st.integers(1, 9), cols=st.integers(1, 4),
       idx_shape=st.sampled_from([(0,), (1,), (7,), (40,), (2, 3), (5, 4)]),
       axis=st.sampled_from([0, 1]), sort=st.booleans(),
       dtype=st.sampled_from([np.float64, np.float32]))
@settings(max_examples=150, deadline=None)
def test_gather_backward_matches_add_at_scatter(seed, rows, cols, idx_shape, axis, sort, dtype):
    g = np.random.default_rng(seed)
    idx = g.integers(-rows, rows, size=idx_shape)  # repeats, and negative rows as np.take reads
    if sort:
        idx = np.sort(idx, axis=None).reshape(idx_shape)
    shape = (rows, cols) if axis == 0 else (cols, rows)
    out_shape = shape[:axis] + idx.shape + shape[axis + 1:]
    m = (g.standard_normal(out_shape) * 10.0 ** g.uniform(-3, 3, out_shape)).astype(dtype)
    assert_gather_backward_matches_add_at(g.standard_normal(shape).astype(dtype), idx, axis, m)


# ---------------------------------------------------------------------------
# HATLM_DEBUG_FINITE over the tape

def test_debug_finite_rejects_forward_overflow(monkeypatch):
    # a node's value and a no-grad primitive's plain array are both checked
    from hatlm import kernels
    monkeypatch.setattr(kernels, "DEBUG_FINITE", True)
    for rg in (True, False):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            ad.scale(ad.wrap(np.full(3, 1e200), rg=rg), 1e200)


def test_debug_finite_rejects_infinite_gradient(monkeypatch):
    from hatlm import kernels
    # a * b * 1e200 = 1e200 is finite and so is its derivative in a
    # (b * 1e200 = 1), but the one in b (a * 1e200 = 1e400) is not
    def graph():
        a = ad.wrap(np.array([1e200]), rg=True)
        b = ad.wrap(np.array([1e-200]), rg=True)
        return a, b, ad.sum_(ad.scale(ad.mul(a, b), 1e200))

    monkeypatch.setattr(kernels, "DEBUG_FINITE", False)
    a, b, out = graph()
    with np.errstate(over="ignore"):
        ad.backward(out)
    assert np.isfinite(a.grad[0]) and np.isinf(b.grad[0])   # the flag off: no check
    monkeypatch.setattr(kernels, "DEBUG_FINITE", True)
    a, b, out = graph()
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        ad.backward(out)


# ---------------------------------------------------------------------------
# backward consumes the tape as it walks it

def tape(root):
    """Every node reachable from root, each after its parents."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif type(node) is ad.Var and id(node) not in seen:
            seen.add(id(node))
            stack += [(node, True)] + [(p, False) for p in node._parents]
    return order


def keeping_backward(root):
    """`ad.backward` as it was before it released the tape: every node keeps
    its gradient and its VJP, and what the VJP captured, until it is dropped."""
    root.grad, root.owns_grad = np.ones_like(root.v), True
    for node in reversed(tape(root)):
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)


@pytest.mark.parametrize("dtype,frozen", [(np.float32, ()), (np.float64, ("encoder",)),
                                          (np.float32, ("backbone", "decoder"))])
def test_backward_releases_each_inner_node_and_keeps_values_and_leaf_gradients(
        micro_cfg, micro_params, dtype, frozen, monkeypatch):
    params = {k: v.astype(dtype) for k, v in micro_params.items()}
    walked, grads = {}, {}
    for name, walk in (("kept", keeping_backward), ("released", ad.backward)):
        def recording(root, walk=walk, name=name):
            nodes = tape(root)
            values = [(n.v, n.v.tobytes()) for n in nodes]
            walk(root)
            walked[name] = root, nodes, values
        monkeypatch.setattr(ad, "backward", recording)
        grads[name] = train.loss_and_grads(params, micro_cfg, TEXT[:300], frozen)[1]
    root, nodes, values = walked["released"]
    inner = [n for n in nodes if n._parents and n is not root]
    assert inner and all(n.grad is None and n._bw is None for n in inner)
    assert root.grad is not None and root._bw is not None
    assert any(n.grad is not None for n in nodes if not n._parents)
    for n, (v, bits) in zip(nodes, values):
        assert n.v is v and n.v.tobytes() == bits
    assert grads["kept"].unreached == grads["released"].unreached
    for k, g in grads["kept"].items():
        assert g.dtype == grads["released"][k].dtype == dtype
        assert g.tobytes() == grads["released"][k].tobytes()


def test_backward_adds_little_to_the_tape_it_walks(micro_cfg, micro_params, monkeypatch):
    # a node's gradient and what its VJP kept go once the VJP has run: backward
    # peaks 7% over what the tape holds when it starts (46% keeping them)
    real, marks = ad.backward, []

    def traced(root):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real(root)
        marks.append((held, tracemalloc.get_traced_memory()[1]))
    train.loss_and_grads(micro_params, micro_cfg, TEXT)
    monkeypatch.setattr(ad, "backward", traced)
    tracemalloc.start()
    try:
        train.loss_and_grads(micro_params, micro_cfg, TEXT)
    finally:
        tracemalloc.stop()
    (held, peak), = marks
    assert peak - held < 0.15 * held
