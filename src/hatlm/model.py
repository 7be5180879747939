"""Model construction and its one forward (`_pack_pass`), which gives the
teacher-forced logits of training and evaluation and the prompt pass of
generation (caches and oracle) with one word assignment, `splitter.stream`'s.

The network has three transformer stacks (byte encoder, word backbone, byte
decoder) bridged by two connectors: learned-query cross-attention pooling
(bytes -> word embedding; each word reads only its own bytes, computed as a
softmax and a weighted sum within each span, linear in the bytes) and
per-block word-context cross-attention inside the decoder. Parameters live
in a flat name -> ndarray dict whose shapes are derived from HatConfig
alone.

Parameter accounting notes (validated by tests against published totals):
  * the backbone counts layers only -- it has no final norm; backbone
    outputs are normalized by each decoder block's kv-norm instead;
  * the encoder's pooling connector has no norms and no residual;
  * the word-level begin-of-sequence vector is a real parameter but is
    reported separately (aux) and excluded from the per-component counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import HatConfig, StackConfig
from .kernels import rope_table
from .splitter import BYTE_BOS, stream
from .splitter import split  # noqa: F401  perfbench's tracer wraps model.split

# ---------------------------------------------------------------------------
# parameter shapes and counts


def _layer_shapes(prefix: str, s: StackConfig) -> dict[str, tuple]:
    """One layer; the q|k|v and the gate|up weights are one tensor (product) each."""
    h, inner = s.hidden, s.n_heads * s.head_size
    return {
        f"{prefix}.attn_norm.gain": (h,),
        f"{prefix}.attn.wqkv": (h, inner + 2 * s.n_kv_heads * s.head_size),
        f"{prefix}.attn.wo": (inner, h),
        f"{prefix}.mlp_norm.gain": (h,),
        f"{prefix}.mlp.w_gate_up": (h, 2 * s.intermediate),
        f"{prefix}.mlp.w_down": (s.intermediate, h),
    }


def param_shapes(cfg: HatConfig) -> dict[str, tuple]:
    """Every learnable tensor's shape, derived from the config alone."""
    enc, bb, dec, c = cfg.encoder, cfg.backbone, cfg.decoder, cfg.cross_hidden
    shapes: dict[str, tuple] = {"encoder.byte_embedding": (cfg.byte_vocab, enc.hidden)}
    for i in range(enc.n_layers):
        shapes.update(_layer_shapes(f"encoder.layers.{i}", enc))
    shapes.update({
        "connector.query": (c,),
        "connector.wk": (enc.hidden, c),
        "connector.wv": (enc.hidden, c),
        "connector.wq": (c, c),
        "connector.wo": (c, c),
    })
    shapes["backbone.bos"] = (bb.hidden,)
    for i in range(bb.n_layers):
        shapes.update(_layer_shapes(f"backbone.layers.{i}", bb))
    for i in range(dec.n_layers):
        p = f"decoder.layers.{i}.cross"
        shapes.update({
            f"{p}.pre_norm.gain": (dec.hidden,),
            f"{p}.kv_norm.gain": (bb.hidden,),
            f"{p}.post_norm.gain": (dec.hidden,),
            f"{p}.wq": (dec.hidden, dec.hidden),
            f"{p}.wk": (bb.hidden, dec.hidden),
            f"{p}.wv": (bb.hidden, dec.hidden),
            f"{p}.wo": (dec.hidden, dec.hidden),
        })
        shapes.update(_layer_shapes(f"decoder.layers.{i}", dec))
    shapes["decoder.final_norm.gain"] = (dec.hidden,)
    shapes["decoder.lm_head"] = (dec.hidden, cfg.byte_vocab)
    return shapes


def count_params(cfg: HatConfig) -> dict[str, int]:
    """Exact per-component parameter counts: the sizes of `param_shapes`
    summed by name prefix (shapes only, so production-size configs cost
    nothing). The encoder includes the pooling connector. `aux` holds the
    BOS word vector, which is excluded from the component totals.
    """
    sizes = {name: math.prod(shape) for name, shape in param_shapes(cfg).items()}

    def under(*prefixes: str) -> int:
        return sum(n for name, n in sizes.items() if name.startswith(prefixes))

    parts = {"encoder": under("encoder.", "connector."),
             "backbone": under("backbone.layers."),
             "decoder": under("decoder.")}
    return {**parts, "total": sum(parts.values()),
            "backbone_per_layer": under("backbone.layers.0."), "aux": under("backbone.bos")}


# ---------------------------------------------------------------------------
# initialization

def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * std).astype(dtype)


def init_params(cfg: HatConfig, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Seeded random parameters: truncated normal (std 0.02, cut at 2 sigma),
    output projections scaled by 1/sqrt(2 n_layers), norm gains at one. A
    fused tensor is drawn as its column blocks (wq, wk, wv; w_gate, w_up),
    each in the sorted order of all block names, and then concatenated."""
    rng = np.random.default_rng(seed)
    blocks, drawn = {}, {}          # tensor name -> {block name: shape}
    for name, shape in param_shapes(cfg).items():
        blocks[name] = {name: shape}
        if name.endswith(".wqkv"):
            s = getattr(cfg, name.split(".", 1)[0])
            q, kv = s.n_heads * s.head_size, s.n_kv_heads * s.head_size
            blocks[name] = {name[:-3] + c: (shape[0], w) for c, w in zip("qkv", (q, kv, kv))}
        elif name.endswith(".w_gate_up"):
            blocks[name] = {name[:-7] + c: (shape[0], shape[1] // 2) for c in ("gate", "up")}
    for name, shape in sorted(b for parts in blocks.values() for b in parts.items()):
        std = 0.02
        if name.endswith((".attn.wo", ".mlp.w_down", ".cross.wo")):
            std /= math.sqrt(2.0 * getattr(cfg, name.split(".", 1)[0]).n_layers)
        drawn[name] = np.ones(shape, dtype=dtype) if name.endswith("norm.gain") \
            else _trunc_normal(rng, shape, std, dtype)
    return {name: drawn.pop(name) if name in drawn
            else np.concatenate([drawn.pop(b) for b in parts], axis=1)
            for name, parts in sorted(blocks.items())}


def group_of(name: str) -> str:
    """Training parameter group of a tensor (encoder / connector / backbone /
    decoder / head). BOS and the decoder cross blocks count as connector:
    they bridge levels and are trained from scratch alongside it."""
    if name.startswith("encoder."):
        return "encoder"
    if name.startswith("connector.") or name == "backbone.bos":
        return "connector"
    if name.startswith("backbone."):
        return "backbone"
    if ".cross." in name:
        return "connector"
    if name in ("decoder.final_norm.gain", "decoder.lm_head"):
        return "head"
    if name.startswith("decoder."):
        return "decoder"
    raise KeyError(name)


PARAM_GROUPS = ("encoder", "connector", "backbone", "decoder", "head")


# ---------------------------------------------------------------------------
# forward pass

def rope_rows(s: StackConfig, positions, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Stack s's `kernels.rope_table` rows C and S at `positions` (an index array)."""
    return tuple(t[positions] for t in rope_table(s.head_size, s.rope_base,
                                                  s.max_positions, dtype))


def layer_qkv(P, prefix: str, s: StackConfig, cfg: HatConfig, x, rot):
    """A layer's projection half, row-major: rows x [t, hidden] give qk
    [t, n_heads + n_kv_heads, hs], qk-normed and rotated by the C and S rows
    `rot` ([t, 1, hs] each, `rope_rows`), and v [t, n_kv_heads, hs]: the
    keys and values in a cache's layout. One q|k|v product."""
    nh, nkv, hs = s.n_heads, s.n_kv_heads, s.head_size
    h = ad.rms_norm(x, cfg.norm_eps, P[f"{prefix}.attn_norm.gain"])
    qkv = ad.reshape(ad.matmul(h, P[f"{prefix}.attn.wqkv"]), (x.shape[0], nh + 2 * nkv, hs))
    qk, v = ad.narrow(qkv, 1, 0, nh + nkv), ad.narrow(qkv, 1, nh + nkv, nkv)
    if cfg.qk_norm:
        qk = ad.rms_norm(qk, cfg.norm_eps)
    return ad.rope(qk, *rot), v


def layer_out(P, prefix: str, cfg: HatConfig, x, o):
    """A layer's output half, for the attention read o [t, n_heads * hs]:
    x + o·wo, then + the SwiGLU MLP of its norm."""
    x = ad.add(x, ad.matmul(o, P[f"{prefix}.attn.wo"]))
    del o                       # a caller that hands x and o over frees both here
    h = ad.rms_norm(x, cfg.norm_eps, P[f"{prefix}.mlp_norm.gain"])
    return ad.add(x, ad.swiglu(h, P[f"{prefix}.mlp.w_gate_up"], P[f"{prefix}.mlp.w_down"]))


def head(P, cfg: HatConfig, x):
    """Byte logits of decoder rows: the final norm, then lm_head."""
    return ad.matmul(ad.rms_norm(x, cfg.norm_eps, P["decoder.final_norm.gain"]),
                     P["decoder.lm_head"])


def _stack(P, name: str, x, s: StackConfig, cfg: HatConfig, positions: np.ndarray,
           kv: list | None = None, rotation: np.ndarray | None = None, inject=None):
    """Stack s over a pack: each layer adds `inject[i]` (when given), then runs
    its two halves around the read of `ad.attention` at `positions`, with
    queries and keys rotated at `rotation` (default `positions`). `kv`, in a
    no-grad pass, collects each layer's keys and values ([t, n_kv, hs])."""
    rot = rope_rows(s, (positions if rotation is None else rotation)[:, None], x.dtype)
    for i in range(s.n_layers):
        prefix = f"{name}.layers.{i}"
        if inject is not None:
            x = ad.add(x, inject[i])
        qk, v = layer_qkv(P, prefix, s, cfg, x, rot)
        if kv is not None:          # copies: views would keep all of q|k|v alive
            kv.append((qk[:, s.n_heads:].copy(), v.copy()))
        o = ad.attention(ad.transpose(qk, (1, 0, 2)), ad.transpose(v, (1, 0, 2)), positions,
                         s.window, cfg.softcap)
        del qk, v                   # a no-grad pass frees q|k|v here, before the MLP
        xo, x, o = [x, o], None, None   # and the layer input and the read in `layer_out`
        x = layer_out(P, prefix, cfg, xo.pop(0), xo.pop())
    return x


def byte_limit(cfg: HatConfig) -> int:
    """Byte positions the encoder and the decoder both have."""
    return min(cfg.encoder.max_positions, cfg.decoder.max_positions)


def encode_bytes_var(P, cfg: HatConfig, byte_ids: np.ndarray, positions: np.ndarray,
                     kv: list | None = None):
    """Encoder states; byte i sits at `positions[i]` of its sequence (`ad.attention`)."""
    if len(byte_ids) == 0:
        raise ValueError("empty byte sequence")
    if positions.max() >= byte_limit(cfg):
        raise ValueError(f"input of {positions.max() + 1} bytes exceeds the byte positions")
    return _stack(P, "encoder", ad.gather(P["encoder.byte_embedding"], byte_ids), cfg.encoder,
                  cfg, positions, kv)


def pool_words_var(P, cfg: HatConfig, byte_states, spans: list[tuple[int, int]]):
    """One word embedding per span via learned-query cross-attention.

    No rotary transform, no residual, no norms: the connector is a bare
    attention read of the span's byte states. The query is one learned
    vector, so a byte's logit does not depend on the span that reads it:
    each covered byte gets one logit per head, the softmax runs within each
    span (`ad.segment_softmax`) and so does the weighted sum of the values
    (`ad.segment_sum`). Time and memory are linear in the covered bytes.
    Spans may skip bytes or overlap; a byte in two spans is read by both.
    The query is folded into the key projection: the logits are gemm rows,
    whose bits a `q @ kᵀ` gemv would let depend on the slice's width. So a
    span's embedding has the same bits in any group of spans, and the word
    step (`infer._consume_closes`) pools through this function too.
    """
    nh, hs, c = cfg.n_enc_cross_heads, cfg.encoder.head_size, cfg.cross_hidden
    n, t = len(spans), byte_states.shape[0]
    if n == 0:
        return np.zeros((0, c), dtype=byte_states.dtype)
    a, b = np.asarray(spans, dtype=np.int64).reshape(n, 2).T
    bad = ~((0 <= a) & (a < b) & (b <= t))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"bad span [{a[j]}, {b[j]})")
    lens = b - a
    starts = np.concatenate([[0], np.cumsum(lens[:-1])])
    cover = int(lens.sum())
    if a[0] == 0 and np.array_equal(a[1:], b[:-1]):    # the spans tile the first bytes
        x = byte_states if cover == t else ad.narrow(byte_states, 0, 0, cover)
    else:
        x = ad.gather(byte_states, np.arange(cover) + np.repeat(a - starts, lens))
    q = ad.reshape(ad.matmul(ad.reshape(P["connector.query"], (1, c)), P["connector.wq"]),
                   (nh, hs))
    wkq = ad.sum_(ad.mul(ad.reshape(P["connector.wk"], (-1, nh, hs)), q), axis=2)
    logits = ad.scale(ad.transpose(ad.matmul(x, wkq), (1, 0)), 1.0 / math.sqrt(hs))
    v = ad.reshape(ad.matmul(x, P["connector.wv"]), (cover, nh, hs))
    del x                       # a no-grad pass frees it here
    if cfg.softcap is not None:
        logits = ad.softcap(logits, cfg.softcap)
    p = ad.segment_softmax(logits, starts)
    weighted = ad.mul(ad.reshape(p, (nh, cover, 1)), ad.transpose(v, (1, 0, 2)))
    o = ad.segment_sum(weighted, starts, axis=1)   # [nh, n, hs]
    o = ad.reshape(ad.transpose(o, (1, 0, 2)), (n, nh * hs))
    return ad.matmul(o, P["connector.wo"])


def backbone_forward_var(P, cfg: HatConfig, word_embs, positions: np.ndarray,
                         kv: list | None = None):
    """Causal transformer over one [BOS; words] block per sequence: row r sits
    at `positions[r]` of its block, 0 is the BOS and the other rows take the
    word embeddings in order. Row k of a block predicts its word k."""
    if positions.max() + 1 > cfg.backbone.max_positions:
        raise ValueError(f"{positions.max()} words exceed backbone max positions")
    word = positions > 0
    bos = ad.reshape(P["backbone.bos"], (1, cfg.backbone.hidden))
    return _stack(P, "backbone", ad.gather(ad.concat([bos, word_embs]), np.cumsum(word) * word),
                  cfg.backbone, cfg, positions, kv)


def word_context(P, cfg: HatConfig, rows) -> list:
    """Each decoder block's word-context injection, [n, h_dec], for backbone
    rows [n, h_bb]. Each byte reads exactly one backbone row (its word's
    predictor), so the softmax over that single key is identically 1 and the
    block reduces to a value read: kv-norm, wv, wo, post-norm. The cross
    wq/wk projections and the pre-norm still exist as parameters (the
    checkpoint and count layouts include them) but cannot influence a
    one-key softmax. A byte gathers its row's injection from the result."""
    out = []
    for i in range(cfg.decoder.n_layers):
        cp = f"decoder.layers.{i}.cross"
        kvn = ad.rms_norm(rows, cfg.norm_eps, P[f"{cp}.kv_norm.gain"])
        o = ad.matmul(ad.matmul(kvn, P[f"{cp}.wv"]), P[f"{cp}.wo"])
        out.append(ad.rms_norm(o, cfg.norm_eps, P[f"{cp}.post_norm.gain"]))
    return out


def decode_bytes_var(P, cfg: HatConfig, byte_states, context: list,
                     byte_row: np.ndarray, positions: np.ndarray, kv: list | None = None,
                     last_only: bool = False, rotation: np.ndarray | None = None):
    """Decoder blocks: word-context injection, then a local transformer layer.

    Byte i adds row `byte_row[i]` of each block's `word_context`, and sits
    at `positions[i]` of its own sequence (see `ad.attention`); its query and
    key are rotated at `rotation[i]` (default `positions[i]`). With
    `last_only`, the final norm and the head read the last byte of each
    sequence alone, one logits row each.
    """
    if len(byte_row) != byte_states.shape[0]:
        raise ValueError("word index length must match byte count")
    if len(byte_row) and (byte_row.min() < 0 or byte_row.max() >= context[0].shape[0]):
        raise ValueError("word index out of backbone output range")
    x = _stack(P, "decoder", byte_states, cfg.decoder, cfg, positions, kv, rotation,
               [ad.gather(c, byte_row) for c in context])
    if last_only:
        x = ad.gather(x, np.flatnonzero(np.append(positions[1:] == 0, True)))
    return head(P, cfg, x)


@dataclass
class PromptPass:
    """One prompt's share of a no-grad forward over a pack, with what a
    session caches: per stack, every layer's rotated keys and values as a
    cache holds them, [n_layers, 2, rows, n_kv_heads, hs], for the last
    `window` bytes (all without a window), or for BOS and the words. Every
    byte is encoded; the decoder ran over the prompt's tail alone (see
    `_pack_pass`), and its cache rows and the logits have the bits that a
    decode of the whole prompt gives."""
    byte_states: np.ndarray       # [n_bytes, h_enc]
    inject: np.ndarray            # [n_dec_layers, h_dec], the last backbone row's context
    logits: np.ndarray            # [256], the last byte's
    encoder_kv: np.ndarray
    backbone_kv: np.ndarray
    decoder_kv: np.ndarray


def _cache_rows(layers: list, lens: np.ndarray, window: int | None):
    """Empty `layers`, a pack's per-layer (K, V), into one array as caches
    hold it, with the last `window` rows of each prompt, and their starts."""
    w = window or int(lens.sum())
    keep = np.arange(lens.sum()) >= np.repeat(np.cumsum(lens) - w, lens)
    kv = np.stack([np.stack([k[keep], v[keep]]) for k, v in layers])
    layers.clear()
    return kv, np.cumsum([0, *np.minimum(lens, w)])


def _pack_pass(params, cfg: HatConfig, prompts: list[tuple], kv: list | None = None):
    """The one forward of `forward` and `prompt_pass`, over a pack of
    prompts, each `(text, closed_spans, index, sentinel_prefix)`: it pools
    the [start, end) `closed_spans` of the text bytes and lets byte i read
    backbone row `index[i]` (0 = BOS), after the 0xFE sentinel (row 0) if
    `sentinel_prefix`. Each prompt is its own sequence: its positions
    restart at 0, so no read crosses into another prompt. Returns the byte
    states, each decoder block's word context, the logits and the prompts'
    byte counts. Without `kv`, every byte reaches the head.

    With `kv`, a list, only each prompt's last byte does, and `kv` gets the
    encoder's, the backbone's and the decoder's cache rows with their starts
    (`_cache_rows`). The encoder, pooling and backbone run over every byte
    and word. The decoder runs over each prompt's tail alone, which starts
    n_layers*(w-1) rows before its last byte, for a window w: the last
    min(len, n_layers*(w-1) + 1) bytes, the 0xFE sentinel counted. Without
    a window the tail is the whole prompt. This is exact. A decoder layer's
    output at row r reads its input rows r-w+1 .. r, so for a tail that
    starts at row `first`:
      * layer l's (from 1) keys and values at row r are exact once
        r >= first + (l-1)(w-1), which holds for the last w rows, which the
        cache keeps;
      * the last byte's logits are exact once r >= first + n_layers*(w-1).
    Every product is gemm rows and every attention read is per row, so the
    kept rows have the bits of a decode of the whole prompt. Rows near the
    tail's start see cut windows; none of them leaves this function. The
    tail attends as a sequence that starts at its first byte, and its
    queries and keys are rotated at their positions in the prompt, so the
    cached keys keep their bits.
    """
    ids, spans, rows, n_words = [], [], [], []
    t = r = 0
    for text, closed, index, sentinel in prompts:
        b = np.frombuffer(bytes([BYTE_BOS] * sentinel) + text, dtype=np.uint8)
        row = np.asarray([0] * sentinel + list(index), dtype=np.int64)
        if not len(b) or len(row) != len(b) or row.min() < 0 or row.max() > len(closed):
            raise ValueError("a prompt needs bytes and an in-range word index per byte")
        spans += [(a + t + sentinel, e + t + sentinel) for a, e in closed]
        ids.append(b)
        rows.append(row + r)
        n_words.append(len(closed))
        t, r = t + len(row), r + len(closed) + 1
    lens, blocks = np.array([len(b) for b in ids]), np.array(n_words) + 1
    pos = np.concatenate([np.arange(n) for n in lens])
    enc, bb, dec = (None,) * 3 if kv is None else ([], [], [])
    byte_states = encode_bytes_var(params, cfg, np.concatenate(ids).astype(np.int64), pos, enc)
    if kv is not None:
        kv.append(_cache_rows(enc, lens, cfg.encoder.window))
    word_embs = pool_words_var(params, cfg, byte_states, spans)
    bb_all = backbone_forward_var(params, cfg, word_embs,
                                  np.concatenate([np.arange(n) for n in blocks]), bb)
    context = word_context(params, cfg, bb_all)
    ends, d = np.cumsum(lens), cfg.decoder
    first = ends - lens
    if kv is not None and d.window is not None:     # from n_layers*(w-1) before the last byte
        first = np.maximum(first, ends - 1 - d.n_layers * (d.window - 1))
    tail_lens = ends - first
    tail = np.concatenate([np.arange(a, e) for a, e in zip(first, ends)])
    x = byte_states if len(tail) == t else ad.gather(byte_states, tail)   # no identity gather
    logits = decode_bytes_var(params, cfg, x, context, np.concatenate(rows)[tail],
                              np.concatenate([np.arange(n) for n in tail_lens]), dec,
                              last_only=kv is not None, rotation=pos[tail])
    if kv is not None:
        kv += [_cache_rows(bb, blocks, None), _cache_rows(dec, tail_lens, d.window)]
    return byte_states, context, logits, lens


def prompt_pass(params, cfg: HatConfig, prompts: list[tuple]) -> list[PromptPass]:
    """One no-grad `_pack_pass` with caches over a pack of prompts, each
    `(committed, closed_spans, inc_index, sentinel_prefix)`. Every product
    is gemm rows and a one-row input is padded (`kernels.matmul`), so a
    prompt gets the same bits in any pack as alone, a pack of one one-byte
    prompt included."""
    kv = []
    byte_states, context, logits, lens = _pack_pass(params, cfg, prompts, kv)
    (enc, bb, dec), tb = kv, np.cumsum([0, *lens])
    inject = np.stack([c[bb[1][1:] - 1] for c in context], axis=1)
    return [PromptPass(byte_states[tb[j]:tb[j + 1]], inject[j], logits[j],
                       *(c[:, :, b[j]:b[j + 1]] for c, b in (enc, bb, dec)))
            for j in range(len(prompts))]


def forward(params, cfg: HatConfig, data: bytes, words: tuple | None = None):
    """Teacher-forced logits over text bytes, [n_bytes, 256]: row i predicts
    byte i+1. This is the prompt pass's forward (`_pack_pass`) over one
    document with no sentinel and no caches, in which every byte reaches
    the head: byte i reads the backbone row after the words that
    `splitter.stream` has closed once byte i is pushed, as in generation.

    `words` is `stream(data, cfg.max_word_bytes)`, computed here if not
    given. `params` maps names to arrays or to `ad.Var` leaves: the result
    is a tape node when one of them is a Var, else a plain array."""
    _, closes, index = stream(data, cfg.max_word_bytes) if words is None else words
    return _pack_pass(params, cfg, [(data, closes, index, False)])[2]


def next_byte_logits(params, cfg: HatConfig, committed: bytes,
                     closed_spans: list[tuple[int, int]],
                     inc_index: np.ndarray,
                     sentinel_prefix: bool) -> np.ndarray:
    """Batch recomputation of the generation path's last-row logits: the
    oracle the cached incremental engine is checked against."""
    return prompt_pass(params, cfg, [(committed, closed_spans, inc_index,
                                      sentinel_prefix)])[0].logits
