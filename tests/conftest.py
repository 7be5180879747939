import math
import struct
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hatlm import autodiff as ad
from hatlm import checkpoint, config, infer, kernels, model
from hatlm.splitter import DEFAULT_MAX_WORD_BYTES, split, stream

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def micro_cfg():
    return config.micro()


@pytest.fixture(scope="session")
def micro_params(micro_cfg):
    return model.init_params(micro_cfg, seed=1234)


@pytest.fixture(scope="session")
def micro_params64(micro_cfg):
    return {k: v.astype(np.float64)
            for k, v in model.init_params(micro_cfg, seed=1234).items()}


def where_softmax(logits: np.ndarray, mask: np.ndarray, cap=None) -> np.ndarray:
    """Softmax over the last axis restricted to mask==True positions: one
    `np.where` of the mask, broadcast over all the logits, then the max
    (skipped for logits capped at `cap` where `kernels.shift_free` holds),
    exp, sum and divide. Raises if a query row has no visible key."""
    if not mask.any(axis=-1).all():
        raise kernels.InternalInvariantError("attention row with empty visible key set")
    e = np.where(mask, logits, np.array(-np.inf, dtype=logits.dtype))
    if not kernels.shift_free(e, cap):
        e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def masked_softmax(a, mask: np.ndarray) -> ad.Var:
    """Softmax over the last axis where mask (a constant) is True, as an
    autodiff node: the differentiable reference of the dense attention reads."""
    p = where_softmax(ad._v(a), mask)
    if type(a) is not ad.Var:
        return p

    def bw(g):
        ad._accum(a, p * (g - np.sum(g * p, axis=-1, keepdims=True)), owned=True)
    return ad.Var(p, (a,), bw)


def head_rows(out) -> ad.Var:
    """[n_heads, t, hs] heads as the [t, n_heads * hs] rows that
    `ad.attention` returns: a transpose and a reshape on the graph."""
    nh, t, hs = out.shape
    return ad.reshape(ad.transpose(out, (1, 0, 2)), (t, nh * hs))


def head_major_causal_attention(qk, v, positions, cap) -> ad.Var:
    """`ad.attention` with no window as it read when it returned
    [n_heads, t, hs] heads, put in rows on the graph (`head_rows`), as
    `model._self_attn` did: the blocks' output is kept head-major, and the
    backward reads its gradient in that order. Logits are scaled and capped
    by `kernels.capped_logits`, and the tape keeps their tanh as capped / cap;
    each block's causal mask over all its keys goes through `where_softmax`."""
    qkv, vv = ad._v(qk), ad._v(v)
    nkv, t, hs = vv.shape
    nh = qkv.shape[0] - nkv
    g = nh // nkv
    qg, k = qkv[:nh].reshape(nkv, g, t, hs), qkv[nh:]
    kt, kx, vx = k[:, None].swapaxes(-1, -2), k[:, None], vv[:, None]
    out, blocks, inv = np.empty_like(qg), [], 1.0 / math.sqrt(hs)
    starts = np.flatnonzero(np.asarray(positions) == 0)
    for s, e in zip(starts, np.append(starts[1:], t)):
        for a in range(s, e, ad.ATTENTION_BLOCK):
            b = min(a + ad.ATTENTION_BLOCK, e)
            z = kernels.capped_logits(qg[:, :, a:b] @ kt[..., s:b], inv, cap)
            th = None if cap is None else z / cap
            p = where_softmax(z, np.arange(s, b) <= np.arange(a, b)[:, None], cap)
            out[:, :, a:b] = p @ vx[:, :, s:b]
            blocks.append((a, b, s, p, th))

    def bw(gr):
        gx = gr.reshape(nkv, g, t, hs)
        dqk, dv = np.zeros_like(qkv), np.zeros_like(vv)
        dq, dk = dqk[:nh].reshape(nkv, g, t, hs), dqk[nh:]
        for a, b, s, p, th in blocks:
            dz = gx[:, :, a:b] @ vx[:, :, s:b].swapaxes(-1, -2)
            dz -= np.sum(dz * p, axis=-1, keepdims=True)
            dz *= p
            if th is not None:
                dz *= 1.0 - np.square(th)
            dz *= inv
            dq[:, :, a:b] = dz @ kx[:, :, s:b]
            rows = (nkv, g * (b - a), -1)
            dk[:, s:b] += dz.reshape(rows).swapaxes(-1, -2) @ qg[:, :, a:b].reshape(rows)
            dv[:, s:b] += p.reshape(rows).swapaxes(-1, -2) @ gx[:, :, a:b].reshape(rows)
        ad._accum(qk, dqk, owned=True)
        ad._accum(v, dv, owned=True)
    return head_rows(ad.Var(out.reshape(nh, t, hs), (qk, v), bw))


def dense_masked_attention(qk, v, positions, cap, window=None) -> ad.Var:
    """`ad.attention` as the tape read it before the query blocks: each KV
    head's g*t query rows meet all t keys under a causal mask (each row's
    last `window` keys when set) tiled g times, and the node keeps the whole
    [kv, g*t, t] probabilities and logits for its backward. The math is the
    shifted one of the reads before `kernels.capped_logits`: the scaled
    logits capped by `kernels.softcap`, every row shifted by its max."""
    qkv, vv = ad._v(qk), ad._v(v)
    nkv, t, hs = vv.shape
    nh = qkv.shape[0] - nkv
    g = nh // nkv
    positions = np.asarray(positions)
    qx, kx, vx = qkv[:nh].reshape(nkv, g * t, hs), qkv[nh:].swapaxes(-1, -2), vv
    first = np.arange(t) - positions                # each row's sequence start
    if window is not None:
        first = np.maximum(first, np.arange(t) - window + 1)
    mask = np.tile(np.tri(t, dtype=bool) & (np.arange(t) >= first[:, None]), (g, 1))
    inv = 1.0 / math.sqrt(hs)
    z = (qx @ kx) * inv
    if cap is not None:
        z = kernels.softcap(z, cap)
    p = where_softmax(z, mask)

    def bw(gr):
        gx = gr.reshape(nkv, g * t, hs)
        dp = gx @ vx.swapaxes(-1, -2)
        dz = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        if cap is not None:
            dz *= 1.0 - np.square(z / cap)
        dz *= inv
        dk, dv = dz.swapaxes(-1, -2) @ qx, p.swapaxes(-1, -2) @ gx
        ad._accum(qk, np.concatenate([(dz @ kx.swapaxes(-1, -2)).reshape(nh, t, hs), dk]),
                  owned=True)
        ad._accum(v, dv, owned=True)
    return head_rows(ad.Var((p @ vx).reshape(nh, t, hs), (qk, v), bw))


def where_band_attention(qk, v, positions, window: int, cap) -> ad.Var:
    """`ad.attention` with a window, its [t, 1, window] band mask broadcast
    over all the logits by `where_softmax`, and the logits of
    `kernels.capped_logits` kept for the softcap's VJP."""
    qkv, vv = ad._v(qk), ad._v(v)
    nkv, t, hs = vv.shape
    nh = qkv.shape[0] - nkv
    g = nh // nkv
    positions = np.asarray(positions)

    def rows(x):
        return x.reshape(nkv, g, t, hs).transpose(0, 2, 1, 3)

    def heads(x):
        return x.transpose(0, 2, 1, 3).reshape(nh, t, hs)
    kx, vx = ad._band(qkv[nh:], window), ad._band(vv, window).swapaxes(-1, -2)
    mask = (np.arange(window) >= window - 1 - positions[:, None])[:, None, :]
    qx, inv = rows(qkv[:nh]), 1.0 / math.sqrt(hs)
    z = kernels.capped_logits(qx @ kx, inv, cap)
    p = where_softmax(z, mask, cap)

    def bw(gr):
        gx = rows(gr)
        dp = gx @ vx.swapaxes(-1, -2)
        dz = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        if cap is not None:
            dz *= 1.0 - np.square(z / cap)
        dz *= inv
        dk, dv = ad._unband(dz.swapaxes(-1, -2) @ qx), ad._unband(p.swapaxes(-1, -2) @ gx)
        ad._accum(qk, np.concatenate([heads(dz @ kx.swapaxes(-1, -2)), dk]), owned=True)
        ad._accum(v, dv, owned=True)
    return head_rows(ad.Var(heads(p @ vx), (qk, v), bw))


def where_causal_read(qk: np.ndarray, v: np.ndarray, positions, cap) -> np.ndarray:
    """`ad.attention` with no window, block by block as `autodiff._causal_blocks`
    reads it: each block's causal mask over all its keys, broadcast over the
    block's logits by `where_softmax`, the logits scaled and capped by
    `kernels.capped_logits`."""
    nkv, t, hs = v.shape
    nh = qk.shape[0] - nkv
    qg = qk[:nh].reshape(nkv, nh // nkv, t, hs)
    kt, vx = qk[nh:, None].swapaxes(-1, -2), v[:, None]
    out = np.empty_like(qg)
    starts = np.flatnonzero(np.asarray(positions) == 0)
    for s, e in zip(starts, np.append(starts[1:], t)):
        for a in range(s, e, ad.ATTENTION_BLOCK):
            b = min(a + ad.ATTENTION_BLOCK, e)
            z = kernels.capped_logits(qg[:, :, a:b] @ kt[..., s:b], 1.0 / math.sqrt(hs), cap)
            p = where_softmax(z, np.arange(s, b) <= np.arange(a, b)[:, None], cap)
            out[:, :, a:b] = p @ vx[:, :, s:b]
    return out.reshape(nh, t, hs).transpose(1, 0, 2).reshape(t, nh * hs)


def where_attend(q, k, v, cap, valid: np.ndarray) -> np.ndarray:
    """`kernels.attend` with `valid`, the [..., 1, 1, n] mask broadcast over
    all the logits by `where_softmax`, the logits scaled and capped by
    `kernels.capped_logits`."""
    *lead, n_heads, hs = q.shape
    n_kv = k.shape[-2]
    qg = q.reshape(*lead, n_kv, n_heads // n_kv, hs)
    logits = kernels.capped_logits(qg @ k.swapaxes(-3, -2).swapaxes(-2, -1),
                                   1.0 / math.sqrt(hs), cap)
    p = where_softmax(logits, valid[..., None, None, :], cap)
    return (p @ v.swapaxes(-3, -2)).reshape(*lead, n_heads * hs)


def stacked_byte_stack(P, name: str, cfg, rings: list, x: np.ndarray, pos: np.ndarray,
                       inject: np.ndarray | None = None) -> np.ndarray:
    """`infer._byte_stack` as it ran before the batch runner owned the rings:
    the sessions' rings (a list) stacked into a new array on every call, and
    each session's new slot copied back into its ring one by one."""
    s = getattr(cfg, name)
    kv = np.stack(rings)                            # [B, L, 2, W, n_kv, hs]
    rows, slot = np.arange(len(rings)), pos % s.window
    valid = None if pos.min() >= s.window - 1 else np.arange(s.window) <= pos[:, None]
    rot = model.rope_rows(s, pos[:, None], x.dtype)
    for i in range(s.n_layers):
        prefix = f"{name}.layers.{i}"
        if inject is not None:
            x = x + inject[:, i]
        qk, v = model.layer_qkv(P, prefix, s, cfg, x, rot)
        kv[rows, i, 0, slot] = qk[:, s.n_heads:]
        kv[rows, i, 1, slot] = v
        o = kernels.attend(qk[:, :s.n_heads], kv[:, i, 0], kv[:, i, 1], cfg.softcap, valid)
        x = model.layer_out(P, prefix, cfg, x, o)
    for b, ring in enumerate(rings):
        ring[:, :, slot[b]] = kv[b, :, :, slot[b]]
    return x


def half_split_rotate(x, cos, sin):
    """The rotation as `kernels.rotate` computed it before the full-width
    table: the pairs (x1, x2) of the two halves of the last axis, by cos and
    sin tables that broadcast against x[..., :d/2]."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def angle_rope(x, positions, base: float):
    """Rotary transform of x [..., t, d] with the angles of `positions` (one
    per row of axis -2) computed per call, as `ad.rope` ran before the
    table: its forward at `positions` and its VJP at `-positions`."""
    cos, sin = kernels.rope_angles(positions, x.shape[-1], base, x.dtype)
    return half_split_rotate(x, cos, sin)


def recomputing_rms_norm_vjp(x, g, eps: float, gain=None):
    """`ad.rms_norm`'s input gradient as it was before the VJP kept the
    forward's RMS: the RMS is computed again from x."""
    d = x.shape[-1]
    xhat = kernels.rms_norm(x, eps)
    dxhat = g if gain is None else g * gain
    rms = np.sqrt(np.add.reduce(np.square(x), axis=-1, keepdims=True) / d + eps)
    dot = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    return (dxhat - xhat * dot) / rms


def separate_layout(cfg, params) -> dict:
    """`params` in the layout before the fused tensors: each wqkv as wq, wk,
    wv and each w_gate_up as w_gate, w_up (views of the fused tensors)."""
    old = {}
    for name, arr in params.items():
        if name.endswith(".wqkv"):
            s = getattr(cfg, name.split(".", 1)[0])
            parts = np.split(arr, np.cumsum([s.n_heads, s.n_kv_heads]) * s.head_size, axis=1)
            old.update({name[:-3] + c: p for c, p in zip("qkv", parts)})
        elif name.endswith(".w_gate_up"):
            old.update({name[:-7] + c: p for c, p in zip(("gate", "up"), np.split(arr, 2, 1))})
        else:
            old[name] = arr
    return old


def write_hatckpt2(path, cfg, params) -> None:
    """Save `params` as a HATCKPT2 file, the format of `separate_layout`."""
    checkpoint.save(path, cfg, separate_layout(cfg, params))
    body = b"HATCKPT2" + path.read_bytes()[8:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


POOLS = [
    [chr(c) for c in range(0x20, 0x7F)],
    [chr(c) for c in range(0xA0, 0x100)],
    [chr(c) for c in range(0x4E00, 0x4E80)] + [chr(c) for c in range(0x3040, 0x3094)],
    ["\U0001F600", "\U0001F680", "\U0001F1E9\U0001F1EA", "❤️",
     "é", "क्ष", "ß", "א", "ا"],
    [" ", "\n", "\t", ".", ",", "!", "?", "+", "=", "≤", "0", "7"],
]


def random_utf8_strings(n: int, seed: int, max_len: int = 40) -> list[str]:
    """Deterministic mixed-script corpus: ASCII, Latin-1 supplement, CJK, emoji."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(0, max_len))
        pool_ids = rng.integers(0, len(POOLS), size=k)
        picks = [POOLS[p][int(rng.integers(0, len(POOLS[p])))] for p in pool_ids]
        out.append("".join(picks))
    return out


def word_index_of_bytes(data: bytes, max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> list[int]:
    """Per-byte chunk indices of the batch split: index[i] = j iff byte i
    lies in span j. Training and generation both read `stream`'s causal
    index; this is the reference it is checked against."""
    index = []
    for j, (a, e) in enumerate(split(data, max_word_bytes)):
        index.extend([j] * (e - a))
    return index


def boundary_divergence(data: bytes,
                        max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> tuple[int, list[int]]:
    """Count bytes whose causal chunk index (`stream`) differs from the batch
    split's. Returns (count, offending byte offsets); 0 for ASCII text."""
    full = word_index_of_bytes(data, max_word_bytes)
    inc = stream(data, max_word_bytes)[2]
    bad = [i for i, (a, b) in enumerate(zip(full, inc)) if a != b]
    return len(bad), bad


def full_decode_prompt_pass(params, cfg, prompts: list[tuple]) -> list:
    """`model.prompt_pass` as it ran before the decoder read only each
    prompt's tail: the decoder runs over every byte of the pack, at the
    same positions as the encoder."""
    ids, spans, rows, n_words = [], [], [], []
    t = r = 0
    for committed, closed, inc_index, sentinel in prompts:
        b = np.frombuffer(bytes([model.BYTE_BOS] * sentinel) + committed, dtype=np.uint8)
        row = np.asarray([0] * sentinel + list(inc_index), dtype=np.int64)
        spans += [(a + t + sentinel, e + t + sentinel) for a, e in closed]
        ids.append(b)
        rows.append(row + r)
        n_words.append(len(closed))
        t, r = t + len(row), r + len(closed) + 1
    lens, blocks = np.array([len(b) for b in ids]), np.array(n_words) + 1
    pos = np.concatenate([np.arange(n) for n in lens])
    enc, bb, dec = [], [], []
    byte_states = model.encode_bytes_var(params, cfg, np.concatenate(ids), pos, enc)
    enc = model._cache_rows(enc, lens, cfg.encoder.window)
    word_embs = model.pool_words_var(params, cfg, byte_states, spans)
    bb_all = model.backbone_forward_var(params, cfg, word_embs,
                                        np.concatenate([np.arange(n) for n in blocks]), bb)
    context = model.word_context(params, cfg, bb_all)
    logits = model.decode_bytes_var(params, cfg, byte_states, context, np.concatenate(rows),
                                    pos, dec, last_only=True)
    bb = model._cache_rows(bb, blocks, None)
    dec = model._cache_rows(dec, lens, cfg.decoder.window)
    tb = np.cumsum([0, *lens])
    inject = np.stack([c[bb[1][1:] - 1] for c in context], axis=1)
    return [model.PromptPass(byte_states[tb[j]:tb[j + 1]], inject[j], logits[j],
                             *(c[:, :, b[j]:b[j + 1]] for c, b in (enc, bb, dec)))
            for j in range(len(prompts))]


def forward_stages(params, cfg, data: bytes) -> SimpleNamespace:
    """`model.forward` rebuilt from the stage functions, with what it holds
    on the way: the byte states, the embeddings of the words `stream`
    closes (`spans`), every backbone row (BOS and one per close), each
    byte's row (`byte_row`, the stream's index) and the logits."""
    _, spans, index = stream(data, cfg.max_word_bytes)
    pos, byte_row = np.arange(len(data)), np.asarray(index)
    byte_states = model.encode_bytes_var(params, cfg, np.frombuffer(data, np.uint8), pos)
    word_embs = model.pool_words_var(params, cfg, byte_states, spans)
    rows = model.backbone_forward_var(params, cfg, word_embs, np.arange(len(spans) + 1))
    logits = model.decode_bytes_var(params, cfg, byte_states,
                                    model.word_context(params, cfg, rows), byte_row, pos)
    return SimpleNamespace(byte_states=byte_states, spans=spans,
                           word_embeddings=word_embs, backbone_rows=rows,
                           byte_row=byte_row, logits=logits)
