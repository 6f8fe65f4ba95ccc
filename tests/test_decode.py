from dataclasses import replace

import numpy as np
import pytest

from spellcap import tokenizer as tk
from spellcap.seq2seq import decode
from spellcap.seq2seq.decode import predict_name, predict_names
from spellcap.seq2seq.model import (
    ModelConfig,
    _log_softmax,
    decoder_cache,
    decoder_forward,
    encode,
    forward_details,
    id_of_class,
    inference_weights,
    init_parameters,
)
from spellcap.tokenizer import BOS_ID, EOS_ID, char_decode

from oracles import beam_search, full_recompute_scorer, greedy_search, search


CFG = ModelConfig(
    vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
    dropout=0.0, max_src_len=32, max_tgt_len=10,
)


def random_sources(seed, n):
    rng = np.random.default_rng(seed)
    return [
        list(rng.integers(4, 36, size=int(rng.integers(2, 9)))) for _ in range(n)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_beam_width_one_equals_greedy(seed):
    # the width-1 search against greedy decoding that rescores every prefix
    # with the teacher-forced forward pass
    params = init_parameters(CFG, seed=seed)
    for src in random_sources(seed + 10, 12):
        classes, logprob, reached_eos = greedy_search(
            full_recompute_scorer(params, CFG, src), CFG.max_tgt_len)
        b = search(params, CFG, [src], 1)[0]
        assert len(b) == 1
        assert b[0].name == char_decode([BOS_ID] + [id_of_class(c) for c in classes])
        assert b[0].reached_eos == reached_eos
        assert abs(b[0].logprob - logprob) <= 1e-9


def exhaustive_best(params, cfg, src, max_len):
    """Score every target sequence up to max_len steps; return the optimum."""

    def step(prefix):
        logits = forward_details(params, cfg, src, prefix + [EOS_ID])["logits"]
        return _log_softmax(logits[-1])

    best = (-np.inf, None)
    stack = [([BOS_ID], 0.0)]
    while stack:
        prefix, score = stack.pop()
        logp = step(prefix)
        for cls in range(logp.shape[0]):
            total = score + float(logp[cls])
            seq = prefix + [id_of_class(cls)]
            if cls == 0:
                best = max(best, (total, char_decode(seq)))
            elif len(seq) - 1 == max_len:
                best = max(best, (total, char_decode(seq)))
            else:
                stack.append((seq, total))
    return best


@pytest.mark.parametrize("seed", [3, 4])
def test_wide_beam_matches_exhaustive_search(seed):
    # a beam wide enough to hold every candidate must find the true optimum;
    # pool size at step 2 is 28 live prefixes * 29 classes = 812
    params = init_parameters(CFG, seed=seed)
    for src in random_sources(seed + 20, 4):
        want_score, want_name = exhaustive_best(params, CFG, src, max_len=2)
        top = search(params, replace(CFG, max_tgt_len=2), [src], 900)[0][0]
        assert abs(top.logprob - want_score) < 1e-9
        assert top.name == want_name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("eos_bias", [0.0, 3.0])
@pytest.mark.parametrize("max_len", [None, 3])
def test_search_matches_full_recompute_reference(seed, eos_bias, max_len):
    # an EOS bias makes hypotheses finish early, so retiring to the completed
    # pool and the early stop run too
    params = init_parameters(CFG, seed=seed)
    params["output.bias"][0] += eos_bias
    cfg = CFG if max_len is None else replace(CFG, max_tgt_len=max_len)
    limit = cfg.max_tgt_len
    for src in random_sources(seed + 30, 4):
        ref = full_recompute_scorer(params, CFG, src)
        want = [greedy_search(ref, limit)]
        got = [search(params, cfg, [src], 1)[0][0]]
        for width in range(1, 6):
            want += beam_search(ref, width, limit)
            got += search(params, cfg, [src], width)[0]
        assert len(got) == len(want)
        for g, (classes, logprob, reached_eos) in zip(got, want):
            assert g.name == char_decode([BOS_ID] + [id_of_class(c) for c in classes])
            assert g.reached_eos == reached_eos
            assert abs(g.logprob - logprob) <= 1e-9


def mixed_chunk_setup(seed):
    """A random model whose EOS bias makes some of 64 sources of 2-30 tokens
    end with EOS within 4 steps while the rest are cut at ``max_tgt_len``."""
    params = init_parameters(CFG, seed=seed)
    params["output.bias"][0] += 1.0
    rng = np.random.default_rng(seed + 40)
    sources = [list(rng.integers(4, 36, size=int(rng.integers(2, 31)))) for _ in range(64)]
    return params, replace(CFG, max_tgt_len=4), sources


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunked_search_matches_one_at_a_time(seed, width, chunk):
    params, cfg, sources = mixed_chunk_setup(seed)
    alone = [search(params, cfg, [src], width)[0] for src in sources]
    ended = {r[0].reached_eos for r in alone}
    # some searches end with EOS and leave the chunk while others run on
    assert ended == {True, False}
    got = []
    for i in range(0, len(sources), chunk):
        got += search(params, cfg, sources[i:i + chunk], width)
    assert len(got) == len(sources)
    for want, results in zip(alone, got):
        assert [r.name for r in results] == [r.name for r in want]
        assert [r.reached_eos for r in results] == [r.reached_eos for r in want]
        for r, w in zip(results, want):
            assert abs(r.logprob - w.logprob) <= 1e-9


def test_decoding_never_applies_dropout():
    # the decode step runs no dropout, so a model configured with it decodes
    # as at rate 0: equal step logits, names and logprobs
    params, cfg, sources = mixed_chunk_setup(2)
    chunk = sorted(sources, key=len)[::31]  # 3 sources, shortest to longest
    noisy = replace(cfg, dropout=0.5)
    configs = (cfg, noisy)
    weights = [inference_weights(params, c) for c in configs]
    caches = [decoder_cache(w, c, [encode(w, c, s) for s in chunk])
              for w, c in zip(weights, configs)]
    for t in range(cfg.max_tgt_len):
        tokens = [BOS_ID if t == 0 else id_of_class(1 + t + k) for k in range(len(chunk))]
        want, got = (decoder_forward(w, c, cache, tokens)
                     for w, c, cache in zip(weights, configs, caches))
        assert np.array_equal(got, want)
    for width in (1, 4):
        assert (predict_names(params, noisy, chunk, width, False)
                == predict_names(params, cfg, chunk, width, False))


def test_beam_keeps_one_cross_row_per_utterance(monkeypatch):
    # every step's rows are equal slots per utterance still searching, and the
    # cross K/V hold one row per such utterance, not one per hypothesis; these
    # 7 sources of 2-30 tokens stop after 3 to 10 steps
    params, cfg, sources = init_parameters(CFG, seed=0), CFG, mixed_chunk_setup(0)[2][:7]
    steps = []

    def traced(w, cfg, cache, tokens):
        steps.append((len(tokens), [len(kv) for pair in cache.cross_kv for kv in pair]))
        return decoder_forward(w, cfg, cache, tokens)

    monkeypatch.setattr(decode, "decoder_forward", traced)
    alone = []
    for src in sources:
        search(params, cfg, [src], 4)
        alone.append(len(steps))
        steps.clear()
    search(params, cfg, sources, 4)
    # the utterances still searching at each step, as when each searches alone
    searching = [sum(n > t for n in alone) for t in range(max(alone))]
    assert len(set(searching)) > 1
    assert [len(set(cross)) for _, cross in steps] == [1] * len(steps)
    assert [cross[0] for _, cross in steps] == searching
    assert all(rows % n == 0 and rows >= n for rows, (n, *_) in steps)
    assert max(rows // n for rows, (n, *_) in steps) == 4


def test_chunk_wider_than_every_candidate_pool():
    # 900 exceeds the 812 candidates of step 2: each utterance of the chunk
    # keeps all of its own, and none of another's
    params, cfg, sources = mixed_chunk_setup(3)
    cfg = replace(cfg, max_tgt_len=2)
    got = search(params, cfg, sources[:5], 900)
    for src, results in zip(sources[:5], got):
        want = search(params, cfg, [src], 900)[0]
        assert [r.name for r in results] == [r.name for r in want]
        assert max(abs(r.logprob - w.logprob) for r, w in zip(results, want)) <= 1e-9


def test_beam_results_ranked_descending():
    params = init_parameters(CFG, seed=9)
    for src in random_sources(42, 8):
        results = search(params, CFG, [src], 4)[0]
        scores = [r.logprob for r in results]
        assert scores == sorted(scores, reverse=True)
        assert 1 <= len(results) <= 4


def test_logprobs_nonpositive_and_sane():
    params = init_parameters(CFG, seed=5)
    src = random_sources(7, 1)[0]
    g = search(params, CFG, [src], 1)[0][0]
    assert g.logprob <= 0.0
    if g.reached_eos:
        # roughly uniform model: total close to (len+1) * log(1/29)
        steps = len(g.name) + 1
        assert g.logprob == pytest.approx(-steps * np.log(29), rel=0.5)


def test_truncation_at_max_len():
    params = init_parameters(CFG, seed=11)
    src = random_sources(13, 1)[0]
    short = replace(CFG, max_tgt_len=2)
    g = search(params, short, [src], 1)[0][0]
    assert len(g.name) <= 2
    results = search(params, short, [src], 3)[0]
    assert all(len(r.name) <= 2 for r in results)
    # a truncated result is flagged
    if not g.reached_eos:
        assert len(g.name) == 2


def test_beam_width_validation():
    params = init_parameters(CFG, seed=0)
    with pytest.raises(ValueError):
        search(params, CFG, [[4, 5]], 0)


def test_a_dict_changed_in_place_decodes_as_a_fresh_copy():
    # a writable parameter dict gets its inference weights built once per
    # predict_names call, so no call decodes with the weights of an earlier one
    params = init_parameters(CFG, seed=4)
    sources = random_sources(8, 5)
    rng = np.random.default_rng(8)
    for width in (1, 4):
        before = predict_names(params, CFG, sources, width, False)
        for path in ("embedding", "encoder.1.ln2.gain", "decoder.0.self_attn.wq",
                     "decoder.1.ffn.b1", "decoder.norm.bias"):
            params[path] += rng.standard_normal(params[path].shape)
        params["output.bias"] = rng.standard_normal(params["output.bias"].shape)
        after = predict_names(params, CFG, sources, width, False)
        fresh = {path: arr.copy() for path, arr in params.items()}
        assert after == predict_names(fresh, CFG, sources, width, False)
        assert after != before


def test_predict_name_pipeline():
    bpe = tk.learn_bpe(["vera v e r a", "jon j o n"], 4)
    cfg = ModelConfig(
        vocab_size=max(bpe.vocab.values()) + 1, n_layers=1, n_heads=2,
        d_model=8, d_ff=16, dropout=0.0, max_src_len=32, max_tgt_len=8,
    )
    params = init_parameters(cfg, seed=2)
    pred = predict_name(params, cfg, bpe, "vera v e r a")
    assert pred.source == "seq2seq"
    assert pred.confidence <= 0.0
    norm = predict_name(params, cfg, bpe, "vera v e r a", length_normalize=True)
    assert norm.confidence >= pred.confidence  # dividing by steps shrinks magnitude
    with pytest.raises(ValueError, match="empty source"):
        predict_name(params, cfg, bpe, "")
