from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellcap.errors import ConfigError
from spellcap.seq2seq import model as M

from oracles import fd_gradient


TINY = M.ModelConfig(
    vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
    dropout=0.0, max_src_len=32, max_tgt_len=16,
)


@pytest.fixture(scope="module")
def params():
    return M.init_parameters(TINY, seed=7)


def pairs(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        src = list(rng.integers(4, 36, size=int(rng.integers(3, 8))))
        mid = list(rng.integers(4, 30, size=int(rng.integers(1, 6))))
        out.append((src, [1] + mid + [2]))
    return out


def test_config_validation():
    with pytest.raises(ConfigError, match="divisible"):
        M.ModelConfig(vocab_size=40, d_model=10, n_heads=3)
    with pytest.raises(ConfigError):
        M.ModelConfig(vocab_size=40, dropout=1.0)
    with pytest.raises(ConfigError):
        M.ModelConfig(vocab_size=40, n_layers=0)
    with pytest.raises(ConfigError, match="n_heads must be positive"):
        M.ModelConfig(vocab_size=40, n_heads=0)
    cfg = M.ModelConfig(vocab_size=64)
    assert M.ModelConfig(**asdict(cfg)) == cfg  # the checkpoint manifest's form


def test_init_deterministic_and_shaped():
    a = M.init_parameters(TINY, seed=3)
    b = M.init_parameters(TINY, seed=3)
    c = M.init_parameters(TINY, seed=4)
    shapes = M.param_shapes(TINY)
    assert set(a) == set(shapes)
    for k in a:
        assert a[k].shape == shapes[k]
        assert np.array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)
    # zero biases, unit gains
    assert not a["output.bias"].any()
    assert (a["encoder.0.ln1.gain"] == 1.0).all()


def test_positional_encoding_values():
    pe = M.positional_encoding(10, 8)
    assert pe.shape == (10, 8)
    assert pe[0, 0] == 0.0 and pe[0, 1] == 1.0
    assert pe[3, 0] == pytest.approx(np.sin(3.0))
    assert pe[3, 1] == pytest.approx(np.cos(3.0))
    # dimension pair 2 uses wavelength 10000^(2/8)
    assert pe[5, 2] == pytest.approx(np.sin(5.0 / 10000 ** (2 / 8)))


def test_untrained_loss_near_uniform(params):
    batch = pairs(seed=3, n=6)
    value = M.loss_and_gradients(params, TINY, batch)[0]
    assert abs(value - np.log(M.N_CLASSES)) / np.log(M.N_CLASSES) < 0.15


def test_causality_future_tokens_do_not_leak(params):
    src = [5, 9, 12, 20]
    tgt_a = [1, 4, 5, 6, 7, 2]
    tgt_b = [1, 4, 5, 28, 29, 2]  # differs from position 3 on
    la = M.forward_details(params, TINY, src, tgt_a)["logits"]
    lb = M.forward_details(params, TINY, src, tgt_b)["logits"]
    assert np.max(np.abs(la[:3] - lb[:3])) <= 1e-9
    assert np.max(np.abs(la[3:] - lb[3:])) > 1e-6


@given(n_layers=st.integers(1, 3), n_heads=st.integers(1, 4),
       head_dim=st.integers(2, 4), max_tgt_len=st.integers(1, 12),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_cached_steps_match_full_prefix(n_layers, n_heads, head_dim, max_tgt_len, seed):
    cfg = M.ModelConfig(vocab_size=40, n_layers=n_layers, n_heads=n_heads,
                        d_model=n_heads * head_dim, d_ff=12, dropout=0.0,
                        max_src_len=16, max_tgt_len=max_tgt_len)
    params = M.init_parameters(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    src = list(rng.integers(4, 36, size=int(rng.integers(1, 9))))
    memory = M.encode(params, cfg, src)

    def continuation(n):
        return [M.id_of_class(int(c)) for c in rng.integers(1, M.N_CLASSES, size=n)]

    prefixes = [[1] + continuation(max_tgt_len - 1)]
    cache = M.decoder_cache(params, cfg, memory)
    for t in range(max_tgt_len):
        step = M.decoder_forward(params, cfg, cache, [pre[t] for pre in prefixes])
        assert step.shape == (len(prefixes), M.N_CLASSES)
        for row, pre in zip(step, prefixes):
            # the teacher-forced training forward pass over the same prefix
            teacher = M.forward_details(params, cfg, src, pre[: t + 1] + [2])["logits"]
            assert np.max(np.abs(row - teacher[-1])) <= 1e-12
        # keep, repeat, reorder and drop rows as a beam's pruning would; every
        # surviving row carries on from its parent's history
        parents = [int(r) for r in rng.integers(0, len(prefixes), size=int(rng.integers(1, 5)))]
        M.reindex_cache(cache, parents)
        prefixes = [prefixes[r][: t + 1] + continuation(max_tgt_len - t - 1) for r in parents]


def test_attention_rows_are_distributions(params):
    src = [5, 9, 12, 20, 33]
    tgt = [1, 4, 5, 6, 2]
    det = M.forward_details(params, TINY, src, tgt)
    for group in ("enc_attn", "dec_self_attn", "dec_cross_attn"):
        for w in det[group]:
            sums = w.sum(-1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-6
            assert w.min() >= 0.0
    # causal structure visible in decoder self-attention
    w0 = det["dec_self_attn"][0]
    assert np.allclose(np.triu(w0[0], k=1), 0.0)


def test_duplicating_batch_keeps_mean_loss(params):
    batch = pairs(seed=9, n=4)
    a = M.loss_and_gradients(params, TINY, batch)[0]
    b = M.loss_and_gradients(params, TINY, batch + batch)[0]
    assert abs(a - b) <= 1e-9


def test_padding_does_not_leak_between_examples(params):
    short = pairs(seed=1, n=1)[0]
    long_src = (list(range(4, 20)), [1, 4, 5, 6, 7, 8, 9, 2])
    solo = M.forward_details(params, TINY, *short)["logits"]
    src_arr, src_valid, tgt_in, _ = M.pack_batch([short, long_src])
    logits, _ = M._forward(params, TINY, src_arr, src_valid, tgt_in)
    t = len(short[1]) - 1
    assert np.max(np.abs(logits[0, :t] - solo)) <= 1e-9


def test_unused_output_rows_still_get_gradient(params):
    # target uses only classes for a/b; the z column must still move
    batch = [([5, 9], [1, 4, 5, 2])]
    grads = M.loss_and_gradients(params, TINY, batch)[1]
    z_cls = M.class_of_id(29)
    assert np.abs(grads["output.weight"][:, z_cls]).max() > 0.0
    assert abs(grads["output.bias"][z_cls]) > 0.0


def test_minimal_target_still_trains(params):
    batch = [([5, 9, 12], [1, 2])]  # predict EOS immediately
    value, grads = M.loss_and_gradients(params, TINY, batch)
    assert np.isfinite(value)
    for g in grads.values():
        assert np.all(np.isfinite(g))


def test_gradients_match_finite_differences(params):
    batch = pairs(seed=5, n=3)
    grads = M.loss_and_gradients(params, TINY, batch)[1]
    rng = np.random.default_rng(0)
    checked = 0
    for path in ("embedding", "encoder.0.attn.wq", "decoder.1.cross_attn.wv",
                 "decoder.0.ffn.b1", "encoder.norm.gain", "output.weight"):
        flat = grads[path].reshape(-1)
        coords = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        fd = fd_gradient(lambda p: M.loss_and_gradients(p, TINY, batch)[0], params, path,
                         coords)
        for c, num in zip(coords, fd):
            rel = abs(flat[c] - num) / max(abs(flat[c]), abs(num), 1e-8)
            assert rel <= 1e-4, (path, c, flat[c], num)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("layout", ["contiguous", "merged_heads", "transposed"])
def test_weight_grad_equals_einsum(layout):
    rng = np.random.default_rng(5)
    if layout == "merged_heads":
        x = M._merge_heads(rng.standard_normal((6, 2, 9, 4)))
        dy = M._merge_heads(rng.standard_normal((6, 3, 9, 5)))
    elif layout == "transposed":
        x = rng.standard_normal((9, 6, 8)).swapaxes(0, 1)
        dy = rng.standard_normal((15, 9, 6)).transpose(2, 1, 0)
        assert not x.flags.c_contiguous and not dy.flags.c_contiguous
    else:
        x, dy = rng.standard_normal((6, 9, 8)), rng.standard_normal((6, 9, 15))
    want = np.einsum("btd,bte->de", x, dy)
    got = M._weight_grad(x, dy)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_training_loss_equals_evaluation_loss(params):
    batch = pairs(4, 6)
    value, _ = M.loss_and_gradients(params, TINY, batch)
    src_arr, src_valid, tgt_in, labels = M.pack_batch(batch)
    logits, _ = M._forward(params, TINY, src_arr, src_valid, tgt_in)
    assert value == float(M.loss_from_logits(logits, labels))


def test_dropout_train_eval_mismatch(params):
    cfg = M.ModelConfig(vocab_size=40, n_layers=1, n_heads=2, d_model=8, d_ff=16,
                        dropout=0.5, max_src_len=32, max_tgt_len=16)
    p = M.init_parameters(cfg, seed=0)
    batch = pairs(seed=2, n=2)
    quiet = M.loss_and_gradients(p, cfg, batch)[0]
    noisy, _ = M.loss_and_gradients(p, cfg, batch, dropout_rng=np.random.default_rng(1))
    assert quiet != noisy  # dropout active only when an rng is supplied
    again = M.loss_and_gradients(p, cfg, batch)[0]
    assert quiet == again


def test_batch_contract_errors(params):
    with pytest.raises(ValueError, match="empty batch"):
        M.pack_batch([])
    with pytest.raises(ValueError, match="empty source"):
        M.pack_batch([([], [1, 4, 2])])
    with pytest.raises(ValueError, match="BOS"):
        M.pack_batch([([4], [4, 2])])
    with pytest.raises(ValueError, match="max_src_len"):
        M.loss_and_gradients(params, TINY, [(list(range(4, 38)) * 2, [1, 4, 2])])
    with pytest.raises(ValueError, match="not a decoder output symbol"):
        M.pack_batch([([4], [1, 33, 2])])
    with pytest.raises(ValueError, match="empty source"):
        M.encode(params, TINY, [])
