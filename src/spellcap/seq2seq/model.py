"""Pre-norm transformer encoder-decoder in plain numpy, float64 throughout.

Forward passes cache every intermediate; backward passes are hand-derived and
return gradients for every parameter tensor, addressable by the same string
paths ``init_parameters`` creates ("encoder.0.attn.wq", "output.bias", ...).
Sources and targets share one embedding table; the output projection maps to
the 29-way character alphabet (EOS + a-z + apostrophe + hyphen).

Shapes use B for batch, S/T for source/target length, D for d_model, H for
heads, F for d_ff, C for output classes.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigError
from ..tokenizer import BOS_ID, EOS_ID, PAD_ID, target_alphabet

N_CLASSES = len(target_alphabet())


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 64
    d_ff: int = 256
    dropout: float = 0.1
    max_src_len: int = 160
    max_tgt_len: int = 48

    def __post_init__(self):
        for field in ("vocab_size", "n_layers", "n_heads", "d_model", "d_ff",
                      "max_src_len", "max_tgt_len"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.vocab_size < 33:
            raise ConfigError("vocab_size smaller than the base vocabulary")


# A layer of each stack is this list of pre-norm residual sublayers
# x + dropout(body(layer_norm(x))), as (kind, layer-norm name, body name);
# kind is "self" (self-attention), "cross" (attention over the encoder
# memory) or "ffn".
LAYERS = {
    "encoder": (("self", "ln1", "attn"), ("ffn", "ln2", "ffn")),
    "decoder": (("self", "ln1", "self_attn"), ("cross", "ln2", "cross_attn"),
                ("ffn", "ln3", "ffn")),
}


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter path with its shape, in canonical (checkpoint) order."""
    d, f = cfg.d_model, cfg.d_ff
    shapes: dict[str, tuple[int, ...]] = {"embedding": (cfg.vocab_size, d)}
    for stack, layer in LAYERS.items():
        for i in range(cfg.n_layers):
            for kind, ln, body in layer:
                shapes[f"{stack}.{i}.{ln}.gain"] = shapes[f"{stack}.{i}.{ln}.bias"] = (d,)
                prefix = f"{stack}.{i}.{body}"
                if kind == "ffn":
                    shapes.update({f"{prefix}.w1": (d, f), f"{prefix}.b1": (f,),
                                   f"{prefix}.w2": (f, d), f"{prefix}.b2": (d,)})
                else:
                    shapes.update({f"{prefix}.{w}": (d, d)
                                   for w in ("wq", "wk", "wv", "wo")})
        shapes[f"{stack}.norm.gain"] = shapes[f"{stack}.norm.bias"] = (d,)
    shapes["output.weight"] = (d, N_CLASSES)
    shapes["output.bias"] = (N_CLASSES,)
    return shapes


def init_parameters(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Xavier-uniform weights, zero biases, unit layer-norm gains.

    Identical (cfg, seed) pairs produce bit-identical tensors: draws happen
    in canonical path order from one seeded generator.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for path, shape in param_shapes(cfg).items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf in ("bias", "b1", "b2"):
            params[path] = np.zeros(shape)
        elif leaf == "gain":
            params[path] = np.ones(shape)
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            params[path] = rng.uniform(-limit, limit, size=shape)
    return params


@lru_cache(maxsize=32)
def _positional_table(max_len: int, d_model: int):
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    div = np.exp(idx * (-math.log(10000.0) / d_model))
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(pos * div)
    table[:, 1::2] = np.cos(pos * div[: table[:, 1::2].shape[1]])
    table.setflags(write=False)
    return table


def positional_encoding(length: int, d_model: int) -> np.ndarray:
    # cache per power-of-two ceiling so batches of varying length share tables
    size = 1 << max(length - 1, 0).bit_length()
    return _positional_table(max(size, 1), d_model)[:length]


# ---------------------------------------------------------------- primitives


def _dropout_f(x, rate, rng):
    if rng is None or rate <= 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def _dropout_b(dy, mask):
    return dy if mask is None else dy * mask


def _weight_grad(x, dy):
    """Gradient of a weight applied as ``x @ w``: the sum over every leading
    (batch, position) axis of the outer products x[..., i] dy[..., j], as one
    2-D gemm."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


_LN_EPS = 1e-5


def _layer_norm_f(x, p, prefix):
    """Layer norm with the parameters ``{prefix}.gain`` and ``{prefix}.bias``."""
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    gain = p[f"{prefix}.gain"]
    return xhat * gain + p[f"{prefix}.bias"], (prefix, xhat, inv, gain)


def _layer_norm_b(dy, cache, grads):
    """Adds the gain and bias gradients to ``grads``; returns dx."""
    prefix, xhat, inv, gain = cache
    grads[f"{prefix}.gain"] += (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    grads[f"{prefix}.bias"] += dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    return inv * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


# ``weights`` holds the softmax rows [B, H, query, key]
AttentionCache = namedtuple("AttentionCache", "xq xkv q k v weights ctx scale")


def _attend(q, k, v, mask):
    """Softmax attention of head-split queries over keys and values; ``mask``
    is a broadcastable boolean with True at attendable (query, key) pairs, or
    None when every pair is. Returns (weights, merged context, scale)."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    scores -= scores.max(-1, keepdims=True)
    expd = np.exp(scores)
    weights = expd / expd.sum(-1, keepdims=True)
    return weights, _merge_heads(weights @ v), scale


def _attention_f(xq, xkv, p, prefix, n_heads, mask):
    """Multi-head attention of ``xq`` over ``xkv`` (see ``_attend`` for ``mask``)."""
    wq, wk, wv, wo = (p[f"{prefix}.{w}"] for w in ("wq", "wk", "wv", "wo"))
    q = _split_heads(xq @ wq, n_heads)
    k = _split_heads(xkv @ wk, n_heads)
    v = _split_heads(xkv @ wv, n_heads)
    weights, ctx, scale = _attend(q, k, v, mask)
    y = ctx @ wo
    return y, AttentionCache(xq, xkv, q, k, v, weights, ctx, scale)


def _attention_b(dy, cache, p, prefix, grads):
    xq, xkv, q, k, v, weights, ctx, scale = cache
    wq, wk, wv, wo = (p[f"{prefix}.{w}"] for w in ("wq", "wk", "wv", "wo"))
    n_heads = q.shape[1]

    grads[f"{prefix}.wo"] += _weight_grad(ctx, dy)
    dctx = _split_heads(dy @ wo.T, n_heads)
    dw = dctx @ v.swapaxes(-1, -2)
    dv = weights.swapaxes(-1, -2) @ dctx
    # softmax rows: masked entries carry weight exactly 0, so ds vanishes there
    ds = weights * (dw - (dw * weights).sum(-1, keepdims=True))
    ds *= scale
    dq = ds @ k
    dk = ds.swapaxes(-1, -2) @ q

    dq_m, dk_m, dv_m = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    grads[f"{prefix}.wq"] += _weight_grad(xq, dq_m)
    grads[f"{prefix}.wk"] += _weight_grad(xkv, dk_m)
    grads[f"{prefix}.wv"] += _weight_grad(xkv, dv_m)
    dxq = dq_m @ wq.T
    dxkv = dk_m @ wk.T + dv_m @ wv.T
    return dxq, dxkv


def _ffn_f(x, p, prefix):
    z = x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]
    h = np.maximum(z, 0.0)
    y = h @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]
    return y, (x, z, h)


def _ffn_b(dy, cache, p, prefix, grads):
    x, z, h = cache
    grads[f"{prefix}.w2"] += _weight_grad(h, dy)
    grads[f"{prefix}.b2"] += dy.sum((0, 1))
    dh = dy @ p[f"{prefix}.w2"].T
    dz = dh * (z > 0.0)
    grads[f"{prefix}.w1"] += _weight_grad(x, dz)
    grads[f"{prefix}.b1"] += dz.sum((0, 1))
    return dz @ p[f"{prefix}.w1"].T


def _embed_f(p, cfg, ids, rng, start=0):
    """Scaled embeddings plus the positional encoding of positions
    ``start .. start + ids.shape[1] - 1``."""
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id outside [0, vocab_size)")
    scale = math.sqrt(cfg.d_model)
    x = p["embedding"][ids] * scale
    x = x + positional_encoding(start + ids.shape[1], cfg.d_model)[None, start:]
    x, mask = _dropout_f(x, cfg.dropout, rng)
    return x, (ids, scale, mask)


def _embed_b(dx, cache, grads):
    ids, scale, mask = cache
    dx = _dropout_b(dx, mask)
    np.add.at(grads["embedding"], ids, dx * scale)


# ---------------------------------------------------------- encoder, decoder


# One sublayer's caches: ``ln`` its layer norm's, ``f`` its body's (an
# AttentionCache or the FFN's), ``drop`` its dropout mask; ``prefix`` names
# the body's parameters.
Sublayer = namedtuple("Sublayer", "kind prefix ln f drop")


def _stack_f(x, p, cfg, stack, rng, self_mask, memory=None, memory_mask=None):
    """Every layer of ``stack`` over ``x`` (see ``LAYERS``), then the stack's
    final layer norm; "cross" sublayers attend over ``memory``. Returns
    (output, sublayer caches in order, final-norm cache)."""
    caches = []
    for i in range(cfg.n_layers):
        for kind, ln, body in LAYERS[stack]:
            a, c_ln = _layer_norm_f(x, p, f"{stack}.{i}.{ln}")
            prefix = f"{stack}.{i}.{body}"
            if kind == "ffn":
                y, c_f = _ffn_f(a, p, prefix)
            elif kind == "self":
                y, c_f = _attention_f(a, a, p, prefix, cfg.n_heads, self_mask)
            else:
                y, c_f = _attention_f(a, memory, p, prefix, cfg.n_heads, memory_mask)
            y, drop = _dropout_f(y, cfg.dropout, rng)
            x = x + y
            caches.append(Sublayer(kind, prefix, c_ln, c_f, drop))
    out, c_norm = _layer_norm_f(x, p, f"{stack}.norm")
    return out, caches, c_norm


def _stack_b(dout, caches, c_norm, p, grads):
    """Backward of ``_stack_f``: returns (dx, dmemory), dmemory None when no
    sublayer attends over memory."""
    dx = _layer_norm_b(dout, c_norm, grads)
    dmem = None
    for s in reversed(caches):
        dy = _dropout_b(dx, s.drop)
        if s.kind == "ffn":
            da = _ffn_b(dy, s.f, p, s.prefix, grads)
        else:
            da, dkv = _attention_b(dy, s.f, p, s.prefix, grads)
            if s.kind == "self":
                da = da + dkv
            else:
                dmem = dkv if dmem is None else dmem + dkv
        dx = dx + _layer_norm_b(da, s.ln, grads)
    return dx, dmem


def _encode_f(p, cfg, src, src_valid, rng):
    x, c_emb = _embed_f(p, cfg, src, rng)
    src_mask = src_valid[:, None, None, :]
    memory, caches, c_norm = _stack_f(x, p, cfg, "encoder", rng, src_mask)
    return memory, (c_emb, caches, c_norm)


def _encode_b(dmem, enc_caches, p, grads):
    c_emb, caches, c_norm = enc_caches
    _embed_b(_stack_b(dmem, caches, c_norm, p, grads)[0], c_emb, grads)


def _decode_f(p, cfg, memory, src_valid, tgt_in, rng):
    y, c_emb = _embed_f(p, cfg, tgt_in, rng)
    t = tgt_in.shape[1]
    causal = np.tril(np.ones((t, t), dtype=bool))[None, None]
    yn, caches, c_norm = _stack_f(y, p, cfg, "decoder", rng, causal,
                                  memory, src_valid[:, None, None, :])
    logits = yn @ p["output.weight"] + p["output.bias"]
    return logits, (c_emb, caches, c_norm, yn)


def _decode_b(dlogits, dec_caches, p, grads):
    """Returns the gradient of the encoder memory."""
    c_emb, caches, c_norm, yn = dec_caches
    grads["output.weight"] += _weight_grad(yn, dlogits)
    grads["output.bias"] += dlogits.sum((0, 1))
    dy, dmem = _stack_b(dlogits @ p["output.weight"].T, caches, c_norm, p, grads)
    _embed_b(dy, c_emb, grads)
    return dmem


# ------------------------------------------------------------- batch packing

_CLASS_OF_ID = np.full(64, -1, dtype=np.int64)
for _cls, _tid in enumerate(target_alphabet()):
    _CLASS_OF_ID[_tid] = _cls
_ID_OF_CLASS = np.array(target_alphabet(), dtype=np.int64)


def class_of_id(token_id: int) -> int:
    cls = int(_CLASS_OF_ID[token_id]) if 0 <= token_id < len(_CLASS_OF_ID) else -1
    if cls < 0:
        raise ValueError(f"token id {token_id} is not a decoder output symbol")
    return cls


def id_of_class(cls: int) -> int:
    return int(_ID_OF_CLASS[cls])


def pack_batch(batch):
    """Pad a list of (src_ids, tgt_ids) into arrays.

    tgt sequences are BOS ... EOS; teacher forcing shifts them by one. Label
    positions use class indices with -1 at padding.
    """
    if not batch:
        raise ValueError("empty batch")
    for src, tgt in batch:
        if len(src) == 0:
            raise ValueError("empty source sequence")
        if len(tgt) < 2 or tgt[0] != BOS_ID or tgt[-1] != EOS_ID:
            raise ValueError("target must be BOS ... EOS")
    b = len(batch)
    s = max(len(src) for src, _ in batch)
    t = max(len(tgt) for _, tgt in batch) - 1
    src_arr = np.full((b, s), PAD_ID, dtype=np.int64)
    src_valid = np.zeros((b, s), dtype=bool)
    tgt_in = np.full((b, t), PAD_ID, dtype=np.int64)
    labels = np.full((b, t), -1, dtype=np.int64)
    for i, (src, tgt) in enumerate(batch):
        src_arr[i, : len(src)] = src
        src_valid[i, : len(src)] = True
        tgt_in[i, : len(tgt) - 1] = tgt[:-1]
        labels[i, : len(tgt) - 1] = [class_of_id(x) for x in tgt[1:]]
    return src_arr, src_valid, tgt_in, labels


def _log_softmax(logits):
    shifted = logits - logits.max(-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))


def _forward(p, cfg, src_arr, src_valid, tgt_in, rng=None):
    if src_arr.shape[1] > cfg.max_src_len:
        raise ValueError(f"source longer than max_src_len={cfg.max_src_len}")
    if tgt_in.shape[1] > cfg.max_tgt_len:
        raise ValueError(f"target longer than max_tgt_len={cfg.max_tgt_len}")
    memory, enc_caches = _encode_f(p, cfg, src_arr, src_valid, rng)
    logits, dec_caches = _decode_f(p, cfg, memory, src_valid, tgt_in, rng)
    return logits, (enc_caches, dec_caches)


def _nll(logp, labels):
    """Mean negative log-probability of the labels over supervised positions."""
    valid = labels >= 0
    n = int(valid.sum())
    if n == 0:
        raise ValueError("batch has no supervised positions")
    picked = logp[valid, labels[valid]]
    return -picked.sum() / n


def loss_from_logits(logits, labels):
    return _nll(_log_softmax(logits), labels)


def loss_and_gradients(p, cfg: ModelConfig, batch, dropout_rng=None):
    """One forward-backward pass; returns (loss, grads keyed like params)."""
    src_arr, src_valid, tgt_in, labels = pack_batch(batch)
    logits, (enc_caches, dec_caches) = _forward(
        p, cfg, src_arr, src_valid, tgt_in, dropout_rng
    )
    logp = _log_softmax(logits)
    value = float(_nll(logp, labels))

    valid = labels >= 0
    n = int(valid.sum())
    dlogits = np.exp(logp)
    b_idx, t_idx = np.nonzero(valid)
    dlogits[b_idx, t_idx, labels[valid]] -= 1.0
    dlogits[~valid] = 0.0
    dlogits /= n

    grads = {path: np.zeros_like(arr) for path, arr in p.items()}
    _encode_b(_decode_b(dlogits, dec_caches, p, grads), enc_caches, p, grads)
    return value, grads


# --------------------------------------------------------- inference surface


def encode(p, cfg: ModelConfig, src_ids) -> np.ndarray:
    """Contextual memory [len(src), d_model] for one source sequence."""
    if len(src_ids) == 0:
        raise ValueError("empty source sequence")
    if len(src_ids) > cfg.max_src_len:
        raise ValueError(f"source longer than max_src_len={cfg.max_src_len}")
    arr = np.asarray([src_ids], dtype=np.int64)
    valid = np.ones_like(arr, dtype=bool)
    memory, _ = _encode_f(p, cfg, arr, valid, None)
    return memory[0]


# One decoder layer's keys and values, split into heads [rows, H, len, dh].
# Rows are hypotheses of one utterance. The self-attention entries cover the
# target positions decoded so far; the cross-attention entries cover the
# encoder memory and have a single row that every hypothesis shares.
LayerKV = namedtuple("LayerKV", "self_k self_v cross_k cross_v")


def decoder_cache(p, cfg: ModelConfig, memory) -> list[LayerKV]:
    """A one-row cache holding no target position yet, for ``memory``
    [len(src), d_model]; the cross-attention K/V are projected here, once."""
    mem = np.asarray(memory, dtype=np.float64)[None]
    empty = np.zeros((1, cfg.n_heads, 0, cfg.d_model // cfg.n_heads))
    cache = []
    for i in range(cfg.n_layers):
        prefix = f"decoder.{i}.cross_attn"
        cache.append(LayerKV(
            empty, empty,
            _split_heads(mem @ p[f"{prefix}.wk"], cfg.n_heads),
            _split_heads(mem @ p[f"{prefix}.wv"], cfg.n_heads),
        ))
    return cache


def reindex_cache(cache: list[LayerKV], rows) -> None:
    """Keep, in place, the self-attention rows ``rows`` (in that order; a row
    may repeat), e.g. the parent of every hypothesis that survived a search
    step."""
    cache[:] = [kv._replace(self_k=kv.self_k[rows], self_v=kv.self_v[rows])
                for kv in cache]


def decoder_forward(p, cfg: ModelConfig, cache, tokens) -> np.ndarray:
    """Next-character logits [rows, n_classes] for ``tokens``, the next token
    of every row of ``cache`` (from ``decoder_cache``). Computes only that one
    new position and appends its self-attention K/V to ``cache`` in place."""
    ids = np.asarray(tokens, dtype=np.int64)[:, None]
    y, _ = _embed_f(p, cfg, ids, None, cache[0].self_k.shape[2])
    for i, kv in enumerate(cache):
        prefix = f"decoder.{i}"
        a, _ = _layer_norm_f(y, p, f"{prefix}.ln1")
        sa = f"{prefix}.self_attn"
        q = _split_heads(a @ p[f"{sa}.wq"], cfg.n_heads)
        k = np.concatenate([kv.self_k, _split_heads(a @ p[f"{sa}.wk"], cfg.n_heads)], 2)
        v = np.concatenate([kv.self_v, _split_heads(a @ p[f"{sa}.wv"], cfg.n_heads)], 2)
        cache[i] = kv._replace(self_k=k, self_v=v)
        y = y + _attend(q, k, v, None)[1] @ p[f"{sa}.wo"]
        c, _ = _layer_norm_f(y, p, f"{prefix}.ln2")
        ca = f"{prefix}.cross_attn"
        q = _split_heads(c @ p[f"{ca}.wq"], cfg.n_heads)
        y = y + _attend(q, kv.cross_k, kv.cross_v, None)[1] @ p[f"{ca}.wo"]
        f, _ = _layer_norm_f(y, p, f"{prefix}.ln3")
        y = y + _ffn_f(f, p, f"{prefix}.ffn")[0]
    yn, _ = _layer_norm_f(y, p, "decoder.norm")
    return (yn @ p["output.weight"] + p["output.bias"])[:, 0]


def forward_details(p, cfg: ModelConfig, src_ids, tgt_ids):
    """Attention maps and logits for one pair, from the teacher-forced
    training forward pass, for inspection and tests."""
    src_arr, src_valid, tgt_in, labels = pack_batch([(src_ids, tgt_ids)])
    memory, (_, enc, _) = _encode_f(p, cfg, src_arr, src_valid, None)
    logits, (_, dec, _, _) = _decode_f(p, cfg, memory, src_valid, tgt_in, None)

    def weights(caches, kind):
        return [s.f.weights[0] for s in caches if s.kind == kind]

    return {
        "memory": memory[0],
        "logits": logits[0],
        "labels": labels[0],
        "enc_attn": weights(enc, "self"),
        "dec_self_attn": weights(dec, "self"),
        "dec_cross_attn": weights(dec, "cross"),
    }
