"""Pre-norm transformer encoder-decoder in plain numpy, float64 throughout.

Forward passes cache every intermediate; backward passes are hand-derived and
return gradients for every parameter tensor, addressable by the same string
paths ``init_parameters`` creates ("encoder.0.attn.wq", "output.bias", ...).
Sources and targets share one embedding table; the output projection maps to
the 29-way character alphabet (EOS + a-z + apostrophe + hyphen).

Shapes use B for batch, S/T for source/target length, D for d_model, H for
heads, F for d_ff, C for output classes, N for valid positions.

Training and evaluation run padding-free. A batch arrives padded to [B, S]
and [B, T] (``pack_batch``), but every position-wise operation (embedding,
layer norm, FFN, dropout, the q/k/v/o projections, the output layer and
their weight gradients) runs on the valid positions alone, stacked as rows
[N, D] in row-major (example, position) order; a ``Layout`` says which
positions those are. Only attention needs a padded layout, and it runs in
groups of up to ``GROUP_SIZE`` (8) examples of similar source length, each
padded to its own longest member: the q/k/v projections run once over every
row, then each group's queries, keys and values are gathered and scattered to
[b, H, L, D/H] with zero rows at padding, which the key mask keeps out of
every valid row's softmax, and each group's context is packed back into the
rows before ``wo``. A batch of at most 8 examples, and every inference call,
is one group. When every position is valid (one utterance at inference),
packing is a reshape and nothing is scattered.
Dropout masks are drawn over the padded shape and then packed, so the random
stream does not depend on the padding.

One function, ``_stack_f``, runs a whole stack (embedding, every layer of
``LAYERS``, final layer norm) and keeps its caches as a named ``Stack``;
``_stack_b`` is its backward. Training, evaluation and ``forward_details``
run one pass, ``_forward``, whose caches are a ``Pass``; ``encode`` calls
``_stack_f``. The decode step ``decoder_forward`` has its own layer loop, on one
new position per hypothesis, over the weights and key/value cache that
``decoder_cache`` resolves once per search. The hypotheses of several
utterances share one step, in equal runs of rows (slots) per utterance that
attend over its one row of cross K/V, padded to the chunk's longest source.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigError, check_fields, rule
from ..tokenizer import BOS_ID, EOS_ID, PAD_ID, target_alphabet

N_CLASSES = len(target_alphabet())


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = rule("positive")
    n_layers: int = rule("positive", 2)
    n_heads: int = rule("positive", 2)
    d_model: int = rule("positive", 64)
    d_ff: int = rule("positive", 256)
    dropout: float = rule("in [0, 1)", 0.1)
    max_src_len: int = rule("positive", 160)
    max_tgt_len: int = rule("positive", 48)

    def __post_init__(self):
        check_fields(self)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
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


@lru_cache(maxsize=None)
def _names(stack, n_layers):
    """``stack``'s parameter names, formatted once: per sublayer in order (layer,
    kind, layer-norm (gain, bias), body prefix), then the final norm's (gain, bias)."""
    def norm(prefix):
        return f"{prefix}.gain", f"{prefix}.bias"
    return (tuple((i, kind, norm(f"{stack}.{i}.{ln}"), f"{stack}.{i}.{body}")
                  for i in range(n_layers) for kind, ln, body in LAYERS[stack]),
            norm(f"{stack}.norm"))


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter path with its shape, in canonical (checkpoint) order."""
    d, f = cfg.d_model, cfg.d_ff
    shapes: dict[str, tuple[int, ...]] = {"embedding": (cfg.vocab_size, d)}
    for stack in LAYERS:
        sublayers, norm = _names(stack, cfg.n_layers)
        for _, kind, ln, prefix in sublayers:
            shapes.update(dict.fromkeys(ln, (d,)))
            if kind == "ffn":
                shapes.update({f"{prefix}.w1": (d, f), f"{prefix}.b1": (f,),
                               f"{prefix}.w2": (f, d), f"{prefix}.b2": (d,)})
            else:
                shapes.update({f"{prefix}.{w}": (d, d)
                               for w in ("wq", "wk", "wv", "wo")})
        shapes.update(dict.fromkeys(norm, (d,)))
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
    """The read-only sinusoidal encodings [max_len, d_model] of positions 0 .. max_len - 1."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    div = np.exp(idx * (-math.log(10000.0) / d_model))
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(pos * div)
    table[:, 1::2] = np.cos(pos * div[: table[:, 1::2].shape[1]])
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------- primitives


# The valid positions of a padded [B, L] batch: ``index`` holds their flat
# indices into B * L in row-major order, or is None when every position is
# valid; ``shape`` is (B, L). Attention runs per ``Group`` of examples, each
# padded to its longest member: ``rows`` selects the group's positions among
# the batch's valid rows (None for a group of the whole batch, in order),
# ``index`` and ``shape`` lay them out as a [b, L] batch of their own, and
# ``keys`` is the mask (see ``_attend``) of an attention whose keys are they.
Group = namedtuple("Group", "rows index shape keys")
Layout = namedtuple("Layout", "index shape groups")

# examples per attention group of a training or evaluation batch
GROUP_SIZE = 8


def _index(valid):
    return None if valid.all() else np.flatnonzero(valid)


def _layout(valid, keys, members=None):
    """The Layout of the valid positions ``valid`` [B, L], a prefix of each
    example, whose groups hold the example index arrays ``members`` (None: one
    group of the whole batch); ``keys(v)`` is the key mask of a group whose
    valid positions are ``v``."""
    if members is None:
        return _whole(valid.shape, keys(valid), _index(valid))
    number = np.cumsum(valid).reshape(valid.shape) - 1  # row of each position
    groups = []
    for m in members:
        v = valid[m, : valid[m].sum(1).max()]
        groups.append(Group(number[m, : v.shape[1]][v], _index(v), v.shape, keys(v)))
    return Layout(_index(valid), valid.shape, tuple(groups))


def _whole(shape, keys=None, index=None):
    """The Layout whose one group is the whole batch, in order."""
    return Layout(index, shape, (Group(None, index, shape, keys),))


def _pack(x, rows):
    """[B, L, ...] -> the valid rows [N, ...] of the layout ``rows``."""
    flat = x.reshape(-1, *x.shape[2:])
    return flat if rows.index is None else flat[rows.index]


def _dropout_f(x, rate, rng, rows):
    """Dropout of the rows ``x``, with the mask drawn over the padded layout."""
    if rng is None or rate <= 0.0:
        return x, None
    mask = (_pack(rng.random((*rows.shape, x.shape[-1])), rows) >= rate) / (1.0 - rate)
    return x * mask, mask


def _dropout_b(dy, mask):
    return dy if mask is None else dy * mask


def _weight_grad(x, dy):
    """Gradient of a weight applied as ``x @ w``: the sum over every leading
    (row) axis of the outer products x[..., i] dy[..., j], as one 2-D gemm."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


_LN_EPS = 1e-5


@lru_cache(maxsize=8)
def _mean_column(d):
    """The read-only [d, 1] column of 1/d: rows [N, d] times it are their means."""
    col = np.full((d, 1), 1.0 / d)
    col.setflags(write=False)
    return col


def _normalize(x):
    """(xhat, 1 / std [N, 1], mean column) of the rows ``x`` [N, D], for layer norm."""
    col = _mean_column(x.shape[-1])
    xc = x - x @ col
    inv = 1.0 / np.sqrt((xc * xc) @ col + _LN_EPS)
    return xc * inv, inv, col


def _layer_norm_f(x, p, names):
    """Layer norm of the rows ``x`` [N, D]; ``names`` are its (gain, bias)."""
    xhat, inv, col = _normalize(x)
    gain = p[names[0]]
    return xhat * gain + p[names[1]], (names, xhat, inv, gain, col)


def _layer_norm_b(dy, cache, grads):
    """Backward over rows [N, D]: adds the gain and bias gradients to
    ``grads``; returns dx."""
    names, xhat, inv, gain, col = cache
    grads[names[0]] += (dy * xhat).sum(0)
    grads[names[1]] += dy.sum(0)
    dxhat = dy * gain
    return inv * (dxhat - dxhat @ col - xhat * ((dxhat * xhat) @ col))


def _heads(x, group, n_heads):
    """The rows of ``group`` among the rows ``x`` [N, D], padded with zero rows
    to [b, L, D] and split into heads [b, H, L, D/H]."""
    if group.rows is not None:
        x = x[group.rows]
    if group.index is not None:
        full = np.zeros((math.prod(group.shape), x.shape[1]))
        full[group.index] = x
        x = full
    return x.reshape(*group.shape, n_heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _ungroup(parts, rows):
    """The rows of each group of the layout ``rows``, one array per group,
    back in the layout's row order."""
    if len(parts) == 1:
        return parts[0]
    out = np.empty((sum(map(len, parts)), *parts[0].shape[1:]))
    for part, group in zip(parts, rows.groups):
        out[group.rows] = part
    return out


# ``xq``, ``xkv`` and ``ctx`` are rows laid out by ``q_rows``/``kv_rows``;
# ``q``, ``k``, ``v`` and ``weights`` are lists with one entry per group: its
# padded, head-split queries, keys and values and its softmax rows
# [b, H, query, key]
AttentionCache = namedtuple("AttentionCache",
                            "xq xkv q k v weights ctx scale q_rows kv_rows")


def _attend(q, k, v, mask):
    """Softmax attention of head-split queries over keys and values; ``mask``
    is a broadcastable boolean with True at attendable (query, key) pairs, or
    None when every pair is. Returns (weights, head-split context, scale)."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    scores -= np.maximum.reduce(scores, -1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= np.add.reduce(weights, -1, keepdims=True)
    return weights, weights @ v, scale


def _attention_f(xq, xkv, p, prefix, n_heads, q_rows, kv_rows):
    """Multi-head attention of the rows ``xq`` (laid out by ``q_rows``) over
    the rows ``xkv`` (laid out by ``kv_rows``, whose group ``keys`` masks
    apply), group k of the queries over group k of the keys."""
    q, k, v = xq @ p[prefix + ".wq"], xkv @ p[prefix + ".wk"], xkv @ p[prefix + ".wv"]
    qs, ks, vs, ws, ctx = [], [], [], [], []  # one entry per group
    for gq, gkv in zip(q_rows.groups, kv_rows.groups):
        kg, vg = _heads(k, gkv, n_heads), _heads(v, gkv, n_heads)
        qg = _heads(q, gq, n_heads)
        weights, c, scale = _attend(qg, kg, vg, gkv.keys)
        qs.append(qg)
        ks.append(kg)
        vs.append(vg)
        ws.append(weights)
        ctx.append(_pack(_merge_heads(c), gq))
    ctx = _ungroup(ctx, q_rows)
    return ctx @ p[prefix + ".wo"], AttentionCache(xq, xkv, qs, ks, vs, ws, ctx, scale, q_rows, kv_rows)


def _attention_b(dy, cache, p, prefix, grads):
    xq, xkv, qs, ks, vs, ws, ctx, scale, q_rows, kv_rows = cache
    wq, wk, wv, wo = (p[f"{prefix}.{w}"] for w in ("wq", "wk", "wv", "wo"))
    n_heads = qs[0].shape[1]

    grads[f"{prefix}.wo"] += _weight_grad(ctx, dy)
    dctx = dy @ wo.T
    dq, dk, dv = [], [], []
    for q, k, v, weights, gq, gkv in zip(qs, ks, vs, ws, q_rows.groups, kv_rows.groups):
        dc = _heads(dctx, gq, n_heads)
        dw = dc @ v.swapaxes(-1, -2)
        # softmax rows: masked entries carry weight exactly 0, so ds vanishes there
        ds = weights * (dw - (dw * weights).sum(-1, keepdims=True))
        ds *= scale
        dq.append(_pack(_merge_heads(ds @ k), gq))
        dk.append(_pack(_merge_heads(ds.swapaxes(-1, -2) @ q), gkv))
        dv.append(_pack(_merge_heads(weights.swapaxes(-1, -2) @ dc), gkv))

    dq_m = _ungroup(dq, q_rows)
    dk_m, dv_m = _ungroup(dk, kv_rows), _ungroup(dv, kv_rows)
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
    grads[f"{prefix}.b2"] += dy.sum(0)
    dh = dy @ p[f"{prefix}.w2"].T
    dz = dh * (z > 0.0)
    grads[f"{prefix}.w1"] += _weight_grad(x, dz)
    grads[f"{prefix}.b1"] += dz.sum(0)
    return dz @ p[f"{prefix}.w1"].T


def _embed_f(p, cfg, ids, rows, rng):
    """Rows of scaled embeddings plus the positional encoding for the valid
    ``ids`` [B, L] (checked by ``_check_ids``) at positions 0 .. L - 1."""
    scale = math.sqrt(cfg.d_model)
    length = ids.shape[1]
    tokens = _pack(ids, rows)
    pos = (np.arange(ids.size) if rows.index is None else rows.index) % length
    x = p["embedding"][tokens] * scale
    x = x + _positional_table(max(cfg.max_src_len, cfg.max_tgt_len), cfg.d_model)[pos]
    x, mask = _dropout_f(x, cfg.dropout, rng, rows)
    return x, (tokens, scale, mask)


def _check_ids(cfg, low, high):
    """Refuse ids from ``low`` to ``high`` outside [0, vocab_size); -1 would read row -1."""
    if low < 0 or high >= cfg.vocab_size:
        raise ValueError("token id outside [0, vocab_size)")


def _embed_b(dx, cache, grads):
    tokens, scale, mask = cache
    dx = _dropout_b(dx, mask)
    np.add.at(grads["embedding"], tokens, dx * scale)


# ---------------------------------------------------------- encoder, decoder


# One sublayer's caches: ``ln`` its layer norm's, ``f`` its body's (an
# AttentionCache or the FFN's), ``drop`` its dropout mask; ``prefix`` names
# the body's parameters.
Sublayer = namedtuple("Sublayer", "kind prefix ln f drop")

# One stack's caches: its embedding's, its Sublayers in order, its final norm's.
Stack = namedtuple("Stack", "emb sublayers norm")


def _stack_f(ids, p, cfg, stack, rng, rows, memory=None, memory_rows=None):
    """The embedding of the valid ``ids`` [B, L] (laid out by ``rows``), every
    layer of ``stack`` (see ``LAYERS``) and its final layer norm; "cross"
    sublayers attend over the rows ``memory`` laid out by ``memory_rows``.
    Returns (output rows, Stack)."""
    x, c_emb = _embed_f(p, cfg, ids, rows, rng)
    names, norm = _names(stack, cfg.n_layers)
    sublayers = []
    for _, kind, ln, prefix in names:
        a, c_ln = _layer_norm_f(x, p, ln)
        if kind == "ffn":
            y, c_f = _ffn_f(a, p, prefix)
        else:
            xkv, kv_rows = (a, rows) if kind == "self" else (memory, memory_rows)
            y, c_f = _attention_f(a, xkv, p, prefix, cfg.n_heads, rows, kv_rows)
        y, drop = _dropout_f(y, cfg.dropout, rng, rows)
        x = x + y
        sublayers.append(Sublayer(kind, prefix, c_ln, c_f, drop))
    out, c_norm = _layer_norm_f(x, p, norm)
    return out, Stack(c_emb, sublayers, c_norm)


def _stack_b(dout, stack, p, grads):
    """Backward of ``_stack_f``, embedding included: returns dmemory, None
    when no sublayer attends over memory."""
    dx = _layer_norm_b(dout, stack.norm, grads)
    dmem = None
    for s in reversed(stack.sublayers):
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
    _embed_b(dx, stack.emb, grads)
    return dmem


# ------------------------------------------------------------- batch packing

# the token id of each output class, and the class of each of those ids
_CLASS_IDS = target_alphabet()
_CLASS_OF = {tid: cls for cls, tid in enumerate(_CLASS_IDS)}


def class_of_id(token_id: int) -> int:
    if token_id not in _CLASS_OF:
        raise ValueError(f"token id {token_id} is not a decoder output symbol")
    return _CLASS_OF[token_id]


def id_of_class(cls: int) -> int:
    return _CLASS_IDS[cls]


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
    shifted = logits - np.maximum.reduce(logits, -1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), -1, keepdims=True))


def _source_keys(valid):
    """The key mask of the source positions ``valid`` [B, S]: padding is
    masked, and there is no mask when every position is valid."""
    return None if valid.all() else valid[:, None, None, :]


def _causal_keys(valid):
    t = valid.shape[1]
    return np.tril(np.ones((t, t), dtype=bool))[None, None]


def _layouts(src_valid, labels):
    """The source layout and the target layout of the supervised positions,
    whose keys are masked causally; target padding only ever follows them.
    Both group the examples alike: sorted by source length (a stable sort)
    and split into ceil(B / GROUP_SIZE) groups, or one group of the whole
    batch in order when that is one."""
    n_groups = -(-len(src_valid) // GROUP_SIZE)
    members = None
    if n_groups > 1:
        members = np.array_split(np.argsort(src_valid.sum(1), kind="stable"), n_groups)
    return (_layout(src_valid, _source_keys, members),
            _layout(labels >= 0, _causal_keys, members))


# The teacher-forced pass: the encoder memory rows, the Stack of each side and
# the decoder output rows that the output layer reads.
Pass = namedtuple("Pass", "memory enc dec yn")


def _forward(p, cfg, src_arr, src_valid, tgt_in, labels, rng=None):
    """The teacher-forced pass over a ``pack_batch`` batch. Returns (logits
    [N, C] and labels [N] of the supervised positions in row-major order,
    Pass)."""
    if src_arr.shape[1] > cfg.max_src_len:
        raise ValueError(f"source longer than max_src_len={cfg.max_src_len}")
    if tgt_in.shape[1] > cfg.max_tgt_len:
        raise ValueError(f"target longer than max_tgt_len={cfg.max_tgt_len}")
    _check_ids(cfg, min(src_arr.min(), tgt_in.min()), max(src_arr.max(), tgt_in.max()))
    src_rows, tgt_rows = _layouts(src_valid, labels)
    memory, enc = _stack_f(src_arr, p, cfg, "encoder", rng, src_rows)
    yn, dec = _stack_f(tgt_in, p, cfg, "decoder", rng, tgt_rows, memory, src_rows)
    logits = yn @ p["output.weight"] + p["output.bias"]
    return logits, _pack(labels, tgt_rows), Pass(memory, enc, dec, yn)


def _nll(logp, labels):
    """Mean negative log-probability of ``labels`` [N], one per row of ``logp``."""
    return -logp[np.arange(len(labels)), labels].sum() / len(labels)


def loss_from_logits(logits, labels):
    return _nll(_log_softmax(logits), labels)


def loss_and_gradients(p, cfg: ModelConfig, batch, dropout_rng=None):
    """One forward-backward pass; returns (loss, grads keyed like params)."""
    src_arr, src_valid, tgt_in, labels = pack_batch(batch)
    logits, target, run = _forward(p, cfg, src_arr, src_valid, tgt_in, labels, dropout_rng)
    logp = _log_softmax(logits)
    value = float(_nll(logp, target))

    n = len(target)
    dlogits = np.exp(logp)
    dlogits[np.arange(n), target] -= 1.0
    dlogits /= n

    grads = {path: np.zeros_like(arr) for path, arr in p.items()}
    grads["output.weight"] += _weight_grad(run.yn, dlogits)
    grads["output.bias"] += dlogits.sum(0)
    dmem = _stack_b(dlogits @ p["output.weight"].T, run.dec, p, grads)
    _stack_b(dmem, run.enc, p, grads)
    return value, grads


# --------------------------------------------------------- inference surface


def check_source(cfg: ModelConfig, src_ids) -> None:
    """Raise ValueError unless the model can encode ``src_ids``."""
    if len(src_ids) == 0:
        raise ValueError("empty source sequence")
    if len(src_ids) > cfg.max_src_len:
        raise ValueError(f"source longer than max_src_len={cfg.max_src_len}")


def encode(p, cfg: ModelConfig, src_ids) -> np.ndarray:
    """Contextual memory [len(src), d_model] for one source sequence."""
    check_source(cfg, src_ids)
    _check_ids(cfg, min(src_ids), max(src_ids))
    arr = np.asarray([src_ids], dtype=np.int64)
    return _stack_f(arr, p, cfg, "encoder", None, _whole(arr.shape))[0]


@dataclass(slots=True)
class DecoderLayer:
    """A decoder layer's weights, resolved once per search: ``norms`` (3 x (gain,
    bias)), ``self_attn`` ([wq | wk | wv] [D, 3D], wo), ``cross_attn`` (wq, wo),
    ``ffn`` (w1, b1, w2, b2); its head-split (keys, values), ``self_kv`` over each
    row's prefix [rows, H, len, D/H] and ``cross_kv`` over each memory [U, H, S, D/H]."""

    norms: tuple
    self_attn: tuple
    cross_attn: tuple
    ffn: tuple
    self_kv: tuple
    cross_kv: tuple


@dataclass
class DecoderCache:
    """The decoder state of the U utterances of a chunk still searching, in
    rows [U, slots] (utterance u's are u * slots ... u * slots + slots - 1): a
    ``DecoderLayer`` per layer, whose cross K/V are padded to the longest source
    and masked by ``keys`` [U, 1, 1, S] (None: every key is attendable), and the
    ``embedding``, final ``norm`` and ``output`` (weight, bias) every step reads."""

    layers: list[DecoderLayer]
    keys: np.ndarray | None
    embedding: np.ndarray
    norm: tuple
    output: tuple


def decoder_cache(p, cfg: ModelConfig, memories) -> DecoderCache:
    """The cache of a chunk, one slot per utterance, from the memory
    [len(src), d_model] of each; the cross K/V are projected here once."""
    lengths = np.array([len(m) for m in memories])
    valid = np.arange(lengths.max()) < lengths[:, None]
    # no key mask when every key is attendable, as for one utterance
    group = _layout(valid, _source_keys).groups[0]
    memory = np.concatenate(memories)
    empty = np.zeros((len(memories), cfg.n_heads, 0, cfg.d_model // cfg.n_heads))
    layers = []
    for i in range(cfg.n_layers):
        n = f"decoder.{i}."
        s, c, f = n + "self_attn.", n + "cross_attn.", n + "ffn."
        layers.append(DecoderLayer(
            tuple((p[f"{n}ln{j}.gain"], p[f"{n}ln{j}.bias"]) for j in (1, 2, 3)),
            (np.concatenate([p[s + "wq"], p[s + "wk"], p[s + "wv"]], 1), p[s + "wo"]),
            (p[c + "wq"], p[c + "wo"]), (p[f + "w1"], p[f + "b1"], p[f + "w2"], p[f + "b2"]),
            (empty, empty), (_heads(memory @ p[c + "wk"], group, cfg.n_heads),
                             _heads(memory @ p[c + "wv"], group, cfg.n_heads))))
    return DecoderCache(layers, group.keys, p["embedding"], (p["decoder.norm.gain"],
                        p["decoder.norm.bias"]), (p["output.weight"], p["output.bias"]))


def reindex_cache(cache: DecoderCache, rows) -> None:
    """Keep, in place, the rows ``rows`` (in that order; a row may repeat),
    e.g. the parent of every slot after a search step, each utterance's in
    equal slots from its own (``row // slots``). Identity rows change nothing;
    an utterance's cross K/V and key-mask row go only when all its slots go."""
    n, utts = len(cache.layers[0].self_kv[0]), len(cache.layers[0].cross_kv[0])
    if list(rows) == list(range(n)):
        return
    index = np.asarray(rows)
    for layer in cache.layers:
        layer.self_kv = tuple(kv[index] for kv in layer.self_kv)
    kept = list(dict.fromkeys(r // (n // utts) for r in rows))
    if kept == list(range(utts)):
        return
    for layer in cache.layers:
        layer.cross_kv = tuple(kv[kept] for kv in layer.cross_kv)
    if cache.keys is not None:
        cache.keys = cache.keys[kept]


def decoder_forward(p, cfg: ModelConfig, cache, tokens) -> np.ndarray:
    """Next-character logits [rows, n_classes] for ``tokens``, the next token of
    every row of ``cache`` (from ``decoder_cache``, which holds the weights; ``p``
    is not read): every decoder layer on that one new position per row, with the
    teacher-forced pass's arithmetic at dropout 0. Appends the self K/V in place."""
    _check_ids(cfg, min(tokens), max(tokens))
    rows, heads, d = len(tokens), cfg.n_heads, cfg.d_model
    t, utts = cache.layers[0].self_kv[0].shape[2], len(cache.layers[0].cross_kv[0])
    x = (cache.embedding[tokens] * math.sqrt(d)
         + _positional_table(max(cfg.max_src_len, cfg.max_tgt_len), d)[t])
    for layer in cache.layers:
        (g1, b1), (g2, b2), (g3, b3) = layer.norms
        (wqkv, wo), (wq, cross_wo), (w1, f1, w2, f2) = layer.self_attn, layer.cross_attn, layer.ffn
        # q, k and v of each row's one position, head-split [rows, H, 1, D/H]
        qkv = ((_normalize(x)[0] * g1 + b1) @ wqkv).reshape(rows, 3, heads, 1, -1)
        k, v = layer.self_kv = tuple(np.concatenate([kv, qkv[:, j]], 2)
                                     for j, kv in zip((1, 2), layer.self_kv))
        x = x + _attend(qkv[:, 0], k, v, None)[1].reshape(rows, d) @ wo
        # each utterance's slots are the queries over its one row of cross K/V
        q = ((_normalize(x)[0] * g2 + b2) @ wq).reshape(utts, -1, heads, d // heads)
        c = _attend(q.swapaxes(1, 2), *layer.cross_kv, cache.keys)[1]
        x = x + c.swapaxes(1, 2).reshape(rows, d) @ cross_wo
        x = x + (np.maximum((_normalize(x)[0] * g3 + b3) @ w1 + f1, 0.0) @ w2 + f2)
    return (_normalize(x)[0] * cache.norm[0] + cache.norm[1]) @ cache.output[0] + cache.output[1]


def forward_details(p, cfg: ModelConfig, src_ids, tgt_ids):
    """Attention maps and logits for one pair, from the teacher-forced
    training forward pass, for inspection and tests."""
    src_arr, src_valid, tgt_in, labels = pack_batch([(src_ids, tgt_ids)])
    logits, _, run = _forward(p, cfg, src_arr, src_valid, tgt_in, labels)

    def weights(stack, kind):  # one group of one valid example: rows are positions
        return [s.f.weights[0][0] for s in stack.sublayers if s.kind == kind]

    return {
        "memory": run.memory,
        "logits": logits,
        "labels": labels[0],
        "enc_attn": weights(run.enc, "self"),
        "dec_self_attn": weights(run.dec, "self"),
        "dec_cross_attn": weights(run.dec, "cross"),
    }
