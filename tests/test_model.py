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
    pe = M._positional_table(10, 8)
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
       head_dim=st.integers(2, 4), max_tgt_len=st.integers(1, 24),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_cached_steps_match_full_prefix(n_layers, n_heads, head_dim, max_tgt_len, seed):
    cfg = M.ModelConfig(vocab_size=40, n_layers=n_layers, n_heads=n_heads,
                        d_model=n_heads * head_dim, d_ff=12, dropout=0.0,
                        max_src_len=16, max_tgt_len=max_tgt_len)
    params = M.init_parameters(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    src = list(rng.integers(4, 36, size=int(rng.integers(1, 9))))
    w = M.inference_weights(params, cfg)
    memory = M.encode(w, cfg, src)

    def continuation(n):
        return [M.id_of_class(int(c)) for c in rng.integers(1, M.N_CLASSES, size=n)]

    prefixes = [[1] + continuation(max_tgt_len - 1)]
    cache = M.decoder_cache(w, cfg, [memory])
    for t in range(max_tgt_len):
        step = M.decoder_forward(w, cfg, cache, [pre[t] for pre in prefixes])
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


def test_encode_is_the_training_pass_memory(params):
    # the inference encoder folds each layer norm into the product after it,
    # so it rounds differently from the teacher-forced pass, at every length
    rng, w = np.random.default_rng(11), M.inference_weights(params, TINY)
    for n in (1, 2, 5, 17, TINY.max_src_len):
        src = [int(i) for i in rng.integers(4, TINY.vocab_size, size=n)]
        memory = M.forward_details(params, TINY, src, [1, 4, 2])["memory"]
        assert memory.shape == (n, TINY.d_model)
        assert np.max(np.abs(M.encode(w, TINY, src) - memory)) <= 1e-12


def test_duplicating_batch_keeps_mean_loss(params):
    batch = pairs(seed=9, n=4)
    a = M.loss_and_gradients(params, TINY, batch)[0]
    b = M.loss_and_gradients(params, TINY, batch + batch)[0]
    assert abs(a - b) <= 1e-9


def test_padding_does_not_leak_between_examples(params):
    short = pairs(seed=1, n=1)[0]
    long_src = (list(range(4, 20)), [1, 4, 5, 6, 7, 8, 9, 2])
    solo = M.forward_details(params, TINY, *short)["logits"]
    logits, _, _ = M._forward(params, TINY, *M.pack_batch([short, long_src]))
    t = len(short[1]) - 1  # the short example's rows come first
    assert np.max(np.abs(logits[:t] - solo)) <= 1e-9


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
    logits, target, _ = M._forward(params, TINY, *M.pack_batch(batch))
    assert value == float(M.loss_from_logits(logits, target))


@given(lengths=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 9)),
                        min_size=2, max_size=5),
       seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_batch_step_is_the_length_weighted_sum_of_single_steps(params, lengths, seed):
    # padding-invariance: an example's rows see no other example and no
    # padding, so the batch step is the mean over every supervised position
    rng = np.random.default_rng(seed)
    batch = [([int(x) for x in rng.integers(4, 36, size=s)],
              [1] + [M.id_of_class(int(c)) for c in rng.integers(1, M.N_CLASSES, size=t)]
              + [2])
             for s, t in lengths]
    value, grads = M.loss_and_gradients(params, TINY, batch)
    weights = np.array([len(tgt) - 1 for _, tgt in batch]) / sum(len(tgt) - 1 for _, tgt in batch)
    singles = [M.loss_and_gradients(params, TINY, [pair]) for pair in batch]
    assert abs(value - sum(w * v for w, (v, _) in zip(weights, singles))) <= 1e-12 * value
    for path, g in grads.items():
        want = sum(w * gs[path] for w, (_, gs) in zip(weights, singles))
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), path


def mixed_batch(rng, lengths):
    """(source, target) pairs of the given (source, target class) lengths."""
    return [([int(x) for x in rng.integers(4, 36, size=s)],
             [1] + [M.id_of_class(int(c)) for c in rng.integers(1, M.N_CLASSES, size=t)] + [2])
            for s, t in lengths]


@given(lengths=st.lists(st.tuples(st.integers(1, 40), st.integers(0, 11)),
                        min_size=9, max_size=40),
       seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_grouped_step_equals_the_one_group_step(lengths, seed):
    # batches of more than GROUP_SIZE examples attend in groups; with the
    # group size covering the batch they attend as one padded group
    cfg = M.ModelConfig(vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
                        dropout=0.25, max_src_len=40, max_tgt_len=16)
    p = M.init_parameters(cfg, seed=seed)
    batch = mixed_batch(np.random.default_rng(seed), lengths)
    _, src_valid, _, labels = M.pack_batch(batch)
    layouts = M._layouts(src_valid, labels)
    assert len(layouts[0].groups) == -(-len(batch) // M.GROUP_SIZE) >= 2
    members = []
    for layout, valid in zip(layouts, (src_valid, labels >= 0)):
        # each group row is one example: its own positions, in order, then padding
        example, position = np.divmod(layout.index, valid.shape[1])
        order, start = [], 0
        for g in layout.groups:
            # the groups' rows are consecutive slices that cover every row once
            assert g.rows.start == start and g.rows.step is None
            start = g.rows.stop
            ids = (M._heads(np.stack([example, position], 1) + 1, g, 1)[:, 0] - 1).astype(int)
            assert g.rows.stop - g.rows.start == valid[ids[:, 0, 0]].sum()
            for b in range(g.shape[0]):
                n = valid[ids[b, 0, 0]].sum()
                assert (ids[b, :n, 0] == ids[b, 0, 0]).all()
                assert (ids[b, :n, 1] == np.arange(n)).all() and (ids[b, n:] == -1).all()
            # padded to the group's longest member
            assert g.shape[1] == valid[ids[:, 0, 0]].sum(1).max()
            order.append(ids[:, 0, 0])
        assert start == len(layout.index) == valid.sum()
        members.append(order)
    # source and target groups hold the same examples, every example once
    assert all((a == b).all() for a, b in zip(*members))
    assert sorted(np.concatenate(members[0])) == list(range(len(batch)))

    value, grads = M.loss_and_gradients(p, cfg, batch, dropout_rng=np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "GROUP_SIZE", len(batch))
        assert len(M._layouts(src_valid, labels)[0].groups) == 1
        want, want_grads = M.loss_and_gradients(p, cfg, batch,
                                                dropout_rng=np.random.default_rng(seed))
    assert abs(value - want) <= 1e-12 * want
    for path, g in grads.items():
        assert np.max(np.abs(g - want_grads[path])) <= 1e-12 * np.max(np.abs(want_grads[path])), path


def test_gradients_match_finite_differences_through_groups(params):
    rng = np.random.default_rng(3)
    lengths = [(int(s), int(t)) for s, t in zip(rng.integers(1, 31, size=17),
                                                rng.integers(0, 10, size=17))]
    batch = mixed_batch(rng, lengths)
    assert len(M._layouts(*M.pack_batch(batch)[1::2])[0].groups) == 3
    grads = M.loss_and_gradients(params, TINY, batch)[1]
    used = sorted({tok for src, tgt in batch for tok in src + tgt[:-1]})
    for path in ("encoder.0.attn.wk", "decoder.0.cross_attn.wq", "decoder.1.self_attn.wv",
                 "embedding"):
        flat = grads[path].reshape(-1)
        if path == "embedding":  # rows of tokens in the batch; the rest have no gradient
            coords = [tok * TINY.d_model + int(rng.integers(TINY.d_model))
                      for tok in rng.choice(used, size=4, replace=False)]
        else:
            coords = rng.choice(flat.size, size=4, replace=False)
        fd = fd_gradient(lambda p: M.loss_and_gradients(p, TINY, batch)[0], params, path,
                         coords)
        for c, num in zip(coords, fd):
            rel = abs(flat[c] - num) / max(abs(flat[c]), abs(num), 1e-8)
            assert rel <= 1e-4, (path, c, flat[c], num)


# loss and per-tensor (sum, sum of |g|) of one mixed-length step with dropout,
# recorded from the padded implementation the packed one replaced
PINNED_LOSS = 3.5025742517395453
PINNED_GRADS = {
    "embedding": (-0.22449813529543258, 3.3933955885572975),
    "encoder.0.ln1.gain": (-0.027848168132591968, 0.10321897962244606),
    "encoder.0.ln1.bias": (0.00632351877133043, 0.12335411777549779),
    "encoder.0.attn.wq": (-8.443224418230866e-18, 0.32414380305013063),
    "encoder.0.attn.wk": (1.0787811616230769e-17, 0.26400775726446185),
    "encoder.0.attn.wv": (1.7780915628762273e-17, 0.5963765664129121),
    "encoder.0.attn.wo": (-0.0018562467198382504, 0.5997808382304682),
    "encoder.0.ln2.gain": (0.006908867553647422, 0.0352555721693188),
    "encoder.0.ln2.bias": (-0.01696886792874728, 0.025284783213719082),
    "encoder.0.ffn.w1": (-1.6263032587282567e-17, 0.6982337372684023),
    "encoder.0.ffn.b1": (-0.007076175774825395, 0.06548457434597552),
    "encoder.0.ffn.w2": (-0.11826637276797403, 0.8880758402382204),
    "encoder.0.ffn.b2": (-0.02110922327256002, 0.123788100964252),
    "encoder.1.ln1.gain": (0.022193757169575903, 0.05177063376385582),
    "encoder.1.ln1.bias": (-0.00467852624105607, 0.06491569750316303),
    "encoder.1.attn.wq": (2.981555974335137e-19, 0.07492328637867442),
    "encoder.1.attn.wk": (2.168404344971009e-19, 0.2063665009539192),
    "encoder.1.attn.wv": (1.2305694657710475e-17, 0.3447393059311279),
    "encoder.1.attn.wo": (-0.022481982396438255, 0.3292103321983205),
    "encoder.1.ln2.gain": (-0.006344087552285162, 0.035242810502104024),
    "encoder.1.ln2.bias": (0.025701723043561435, 0.055355756216297486),
    "encoder.1.ffn.w1": (6.179952383167375e-18, 0.614758319130903),
    "encoder.1.ffn.b1": (-0.004670955032557345, 0.11428414640510554),
    "encoder.1.ffn.w2": (0.08767191171713276, 0.6007516376682233),
    "encoder.1.ffn.b2": (0.014807969673501536, 0.08971301102512827),
    "encoder.norm.gain": (-0.00680208392992751, 0.1790641790565567),
    "encoder.norm.bias": (0.10141349357467995, 0.191135611334941),
    "decoder.0.ln1.gain": (0.03679092083753786, 0.23909103497455214),
    "decoder.0.ln1.bias": (-0.16906396102587423, 0.21399516388784018),
    "decoder.0.self_attn.wq": (2.314771638256552e-17, 0.38167839937882597),
    "decoder.0.self_attn.wk": (1.4216600986716177e-17, 0.352398951214443),
    "decoder.0.self_attn.wv": (-1.5612511283791264e-17, 1.1268706354371916),
    "decoder.0.self_attn.wo": (-0.026911864452308962, 1.2407483106528285),
    "decoder.0.ln2.gain": (-0.017124843270856626, 0.04635682813405674),
    "decoder.0.ln2.bias": (-0.013610635126645136, 0.05131041514593597),
    "decoder.0.cross_attn.wq": (0.0, 0.38976938979068476),
    "decoder.0.cross_attn.wk": (5.204170427930421e-18, 0.319607510784343),
    "decoder.0.cross_attn.wv": (-4.336808689942018e-19, 0.8740253661094802),
    "decoder.0.cross_attn.wo": (0.043301154197005705, 1.289418187722584),
    "decoder.0.ln3.gain": (0.03727552429107753, 0.10944049589690172),
    "decoder.0.ln3.bias": (-0.06400726056942681, 0.09352465027126657),
    "decoder.0.ffn.w1": (-1.7780915628762273e-17, 1.2275494708967913),
    "decoder.0.ffn.b1": (0.025757156111109666, 0.13737860772415333),
    "decoder.0.ffn.w2": (0.039405435179228177, 1.170918981007012),
    "decoder.0.ffn.b2": (0.014674125279276688, 0.16209331576339953),
    "decoder.1.ln1.gain": (-0.046092954666410314, 0.15862870127589992),
    "decoder.1.ln1.bias": (-0.17534756792837752, 0.22741043078600873),
    "decoder.1.self_attn.wq": (-2.7376104855258987e-18, 0.18632045716438778),
    "decoder.1.self_attn.wk": (1.0842021724855044e-18, 0.22066160751458214),
    "decoder.1.self_attn.wv": (-8.673617379884035e-19, 1.0165248576895303),
    "decoder.1.self_attn.wo": (-0.008008405367998468, 0.7371914518371151),
    "decoder.1.ln2.gain": (0.0037416208633994697, 0.01674843807765227),
    "decoder.1.ln2.bias": (0.0008269746593652094, 0.03026563208223834),
    "decoder.1.cross_attn.wq": (-4.87890977618477e-19, 0.16037723665723233),
    "decoder.1.cross_attn.wk": (-8.836247705756861e-18, 0.14078328589799718),
    "decoder.1.cross_attn.wv": (1.1872013788716274e-17, 0.7246534605260203),
    "decoder.1.cross_attn.wo": (0.015434183797421917, 0.6555431595000204),
    "decoder.1.ln3.gain": (-0.04731137520778474, 0.10983265416642873),
    "decoder.1.ln3.bias": (0.0002946238636442125, 0.08207667289403772),
    "decoder.1.ffn.w1": (2.8406096919120216e-17, 1.2760241054865817),
    "decoder.1.ffn.b1": (-0.0533566133635719, 0.17454379226587124),
    "decoder.1.ffn.w2": (-0.0569350431509536, 1.763172110868177),
    "decoder.1.ffn.b2": (0.005215697058377799, 0.20199380034190542),
    "decoder.norm.gain": (0.29368014601499587, 0.45987427116929414),
    "decoder.norm.bias": (0.15242882094465882, 0.37133731995805186),
    "output.weight": (1.3877787807814457e-16, 6.8242026010446075),
    "output.bias": (-1.3877787807814457e-17, 1.057015834050387),
}


def test_mixed_length_dropout_step_is_pinned():
    cfg = M.ModelConfig(vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
                        dropout=0.25, max_src_len=32, max_tgt_len=16)
    p = M.init_parameters(cfg, seed=11)
    rng = np.random.default_rng(23)
    batch = []
    for s_len, t_len in [(3, 1), (11, 6), (1, 3), (7, 9), (5, 2)]:
        src = [int(x) for x in rng.integers(4, 36, size=s_len)]
        mid = [M.id_of_class(int(c)) for c in rng.integers(1, M.N_CLASSES, size=t_len)]
        batch.append((src, [1] + mid + [2]))
    value, grads = M.loss_and_gradients(p, cfg, batch, dropout_rng=np.random.default_rng(29))
    assert abs(value - PINNED_LOSS) <= 1e-12 * PINNED_LOSS
    assert grads.keys() == PINNED_GRADS.keys()
    for path, (total, size) in PINNED_GRADS.items():
        assert abs(np.abs(grads[path]).sum() - size) <= 1e-12 * size, path
        assert abs(grads[path].sum() - total) <= 1e-12 * size, path


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
        M.encode(M.inference_weights(params, TINY), TINY, [])


def test_out_of_range_token_ids_are_refused(params):
    # a negative id would silently read the embedding table from its end
    from spellcap.seq2seq.train import evaluate

    tgt, w = [1, 4, 5, 2], M.inference_weights(params, TINY)
    for bad in (-1, TINY.vocab_size):
        src = [5, bad, 9]
        with pytest.raises(ValueError, match="token id outside"):
            M.encode(w, TINY, src)
        with pytest.raises(ValueError, match="token id outside"):
            M.loss_and_gradients(params, TINY, [(src, tgt)])
        with pytest.raises(ValueError, match="token id outside"):
            evaluate(params, TINY, [(src, tgt)])
        with pytest.raises(ValueError, match="token id outside"):
            M.forward_details(params, TINY, src, tgt)
        src_arr, src_valid, tgt_in, labels = M.pack_batch([([5, 9], tgt)])
        tgt_in[0, 1] = bad
        with pytest.raises(ValueError, match="token id outside"):
            M._forward(params, TINY, src_arr, src_valid, tgt_in, labels)
        cache = M.decoder_cache(w, TINY, [M.encode(w, TINY, [5, 9])])
        with pytest.raises(ValueError, match="token id outside"):
            M.decoder_forward(w, TINY, cache, [bad])


@pytest.mark.parametrize("n_rows", [1, 56, 700])
def test_layer_norm_matches_its_definition(n_rows):
    rng = np.random.default_rng(n_rows)
    d = 64
    x = rng.standard_normal((n_rows, d))
    x[::2] += 1e3  # an offset that a naive variance would cancel away
    p = {"ln.gain": rng.standard_normal(d), "ln.bias": rng.standard_normal(d)}
    got = M._layer_norm_f(x, p, ("ln.gain", "ln.bias"))[0]
    want = ((x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
            * p["ln.gain"] + p["ln.bias"])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_layer_norm_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    names = ("ln.gain", "ln.bias")
    p = {"x": rng.standard_normal((5, 8)), "ln.gain": rng.standard_normal(8),
         "ln.bias": rng.standard_normal(8)}
    dy = rng.standard_normal((5, 8))

    def loss(q):
        return float((M._layer_norm_f(q["x"], q, names)[0] * dy).sum())

    grads = {name: np.zeros(8) for name in names}
    analytic = {"x": M._layer_norm_b(dy, M._layer_norm_f(p["x"], p, names)[1], grads), **grads}
    for path, g in analytic.items():
        fd = fd_gradient(loss, p, path, range(g.size), h=1e-6)
        assert np.max(np.abs(g.reshape(-1) - fd)) <= 1e-7 * np.max(np.abs(g)), path


def test_identity_reindex_keeps_the_cache_and_others_gather(params):
    # two utterances of different lengths, so the cross key mask matters. The
    # rows are [utterance, slot] in equal slots: the reindexes below keep,
    # repeat and reorder rows inside each utterance's own, then drop one
    sources = [[5, 9, 12, 20, 33], [7, 8]]
    w = M.inference_weights(params, TINY)
    cache = M.decoder_cache(w, TINY, [M.encode(w, TINY, s) for s in sources])
    utts, owner, prefixes = [0, 1], [0, 1], [[1], [1]]
    steps = [[0, 1], [0, 0, 1, 1], [1, 0, 3, 2], [0, 1, 2, 3], [2, 3], [1, 1], [0]]
    for t, rows in enumerate(steps):
        step = M.decoder_forward(w, TINY, cache, [pre[-1] for pre in prefixes])
        for row, u, pre in zip(step, owner, prefixes):
            teacher = M.forward_details(params, TINY, sources[u], pre + [2])["logits"]
            assert np.max(np.abs(row - teacher[-1])) <= 1e-12
        before = list(zip(cache.self_kv, cache.cross_kv, strict=True))
        keys = cache.keys
        M.reindex_cache(cache, rows)
        after = list(zip(cache.self_kv, cache.cross_kv, strict=True))
        kept = [i for i, u in enumerate(utts) if u in {owner[r] for r in rows}]
        for (self_a, cross_a), (self_b, cross_b) in zip(after, before):
            if rows == list(range(len(owner))):
                assert all(a is b for a, b in zip(self_a, self_b))
            else:
                assert all(np.array_equal(a, b[rows]) for a, b in zip(self_a, self_b))
            if len(kept) == len(utts):
                assert all(a is b for a, b in zip(cross_a, cross_b))
            else:  # the utterance that left takes its cross row with it
                assert all(len(a) == len(kept) and np.array_equal(a, b[kept])
                           for a, b in zip(cross_a, cross_b))
        if len(kept) == len(utts):
            assert cache.keys is keys
        else:
            assert np.array_equal(cache.keys, keys[kept])
        utts = [utts[i] for i in kept]
        owner = [owner[r] for r in rows]
        prefixes = [prefixes[r] + [M.id_of_class(3 + t + r)] for r in rows]
