"""Acceptance gate: one test per shipped guarantee.

Each test prints one PASS line on success (visible with -v as the test
outcome, or with -s as an explicit marker). The two training-based checks
run real gradient descent and take a few minutes combined; everything else
is seconds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from spellcap.baseline import (
    AsrHypothesis,
    AsrToken,
    baseline_predict,
)
from spellcap.datagen import (
    NoiseConfig,
    default_lexicon_path,
    generate_dataset,
    load_lexicon,
    train_dev_split,
)
from spellcap.evalharness import (
    ScoredResult,
    emit_plot,
    er_curve,
    exact_match_error,
    word_error_rate,
)
from spellcap.kernels import levenshtein_ids
from spellcap.seq2seq import (
    ModelConfig,
    TrainConfig,
    forward_details,
    init_parameters,
    load_checkpoint,
    pairs_from_samples,
    predict_name,
    save_checkpoint,
    train,
)
from spellcap.seq2seq.decode import _search
from spellcap.seq2seq.model import id_of_class, loss_and_gradients
from spellcap.tokenizer import BOS_ID, char_decode, char_encode, learn_bpe

from oracles import (
    er_sweep,
    fd_gradient,
    full_recompute_scorer,
    greedy_search,
    hypothesis_from_text,
    lev_recursive,
    wer_recursive,
)


def _mark(line):
    print(f"ACCEPTANCE PASS: {line}")


def _hyp(text, conf=1.0):
    return hypothesis_from_text(text, confidence=conf)


# -------------------------------------------------- golden extractor traces


def test_rule_based_extractor_golden_traces():
    tokens = [AsrToken("john", 0.01), AsrToken("j", 0.7), AsrToken("o", 0.6),
              AsrToken("n", 0.5), AsrToken("e", 0.8)]
    pred = baseline_predict([AsrHypothesis(tokens)])
    assert pred.name == "jone"
    assert abs(pred.confidence - 0.65) < 1e-9

    pred = baseline_predict([_hyp("tim t as in tango i as in i m as in man")])
    assert pred.name == "tiim"

    pred = baseline_predict([_hyp("b as in boy o w d as in dog i c as in cat h")])
    assert pred.name == "bowdich"

    pred = baseline_predict([_hyp("r o s l i n d rislin r a n k i n franks")])
    assert pred.name == "roslindrankin"
    _mark("golden rule-based extractions (jone 0.65, tiim, bowdich, "
          "roslindrankin)")


# -------------------------------------------------- trained-system fixtures


def _decode_results(system, samples):
    return [
        ScoredResult(
            predict_name(system["params"], system["cfg"], system["bpe"],
                         s.nbest[0].text()),
            s.gold,
        )
        for s in samples
    ]


def _generate(lex, n, cfg, seed):
    return [s for s, _ in generate_dataset(lex, n, cfg, seed=seed)]


def _baseline_results(samples):
    return [ScoredResult(baseline_predict(list(s.nbest)), s.gold)
            for s in samples]


def _build_noisy_system(seed_base):
    lex = load_lexicon(default_lexicon_path())
    noise = NoiseConfig(letter_sub_prob=0.15, nato_prob=0.3, fullname_prob=0.2)
    nato_noise = NoiseConfig(letter_sub_prob=0.15, nato_prob=1.0,
                             fullname_prob=0.2,
                             pattern_weights=(0.0, 0.0, 0.0, 1.0, 1.0))
    train_samples = _generate(lex, 5000, noise, seed=seed_base)
    test_samples = _generate(lex, 500, noise, seed=seed_base + 1)
    slice_samples = _generate(lex, 500, nato_noise, seed=seed_base + 2)

    bpe = learn_bpe([s.nbest[0].text() for s in train_samples], 200)
    cfg = ModelConfig(vocab_size=len(bpe.vocab), dropout=0.0)
    params = init_parameters(cfg, seed=0)
    tc = TrainConfig(batch_size=32, learning_rate=1e-3, epochs=10, seed=0)
    train(params, cfg, pairs_from_samples(train_samples, bpe), [], tc)

    system = {"bpe": bpe, "cfg": cfg, "params": params}
    system["test_model"] = _decode_results(system, test_samples)
    system["test_baseline"] = _baseline_results(test_samples)
    system["slice_model"] = _decode_results(system, slice_samples)
    system["slice_baseline"] = _baseline_results(slice_samples)
    return system


@pytest.fixture(scope="module")
def noisy_system():
    return _build_noisy_system(101)


def test_transducer_beats_baseline_on_nato_heavy_slice(noisy_system):
    systems = [noisy_system]
    margins = []
    for attempt in range(2):
        sys_ = systems[-1]
        base_err = exact_match_error(sys_["slice_baseline"])
        model_err = exact_match_error(sys_["slice_model"])
        margins.append(base_err - model_err)
        if margins[-1] >= 0.05:
            break
        systems.append(_build_noisy_system(401))  # one fresh draw allowed
    assert margins[-1] >= 0.05, f"margins across seeds: {margins}"
    _mark(f"NATO-heavy slice: transducer error beats rule baseline by "
          f"{margins[-1] * 100:.1f} points (threshold 5.0)")


def test_clean_channel_baseline_perfect_and_transducer_low_error():
    lex = load_lexicon(default_lexicon_path())
    clean = NoiseConfig(pattern_weights=(1.0, 1.0, 0.0, 0.0, 0.0))
    samples = _generate(lex, 2200, clean, seed=201)
    assert exact_match_error(_baseline_results(samples)) == 0.0

    train_s, dev_s = train_dev_split(samples, dev_fraction=0.1, seed=0)
    bpe = learn_bpe([s.nbest[0].text() for s in train_s], 200)
    cfg = ModelConfig(vocab_size=len(bpe.vocab), dropout=0.0)
    params = init_parameters(cfg, seed=0)
    tc = TrainConfig(batch_size=32, learning_rate=1e-3, epochs=10, seed=0)
    train(params, cfg, pairs_from_samples(train_s, bpe), [], tc)
    system = {"bpe": bpe, "cfg": cfg, "params": params}
    err = exact_match_error(_decode_results(system, dev_s))
    assert err <= 0.05, f"held-out error {err}"
    _mark(f"clean channel: baseline 0% error, transducer {err * 100:.1f}% "
          "held-out error after 10 epochs (threshold 5%)")


# -------------------------------------------------- gradients


def test_analytic_gradients_match_finite_differences():
    started = time.time()
    cfg = ModelConfig(vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
                      dropout=0.0, max_src_len=32, max_tgt_len=16)
    params = init_parameters(cfg, seed=7)
    rng = np.random.default_rng(11)
    batch = [
        (list(rng.integers(4, 40, size=n_src)), char_encode(word))
        for n_src, word in ((6, "vera"), (9, "o'brien"), (4, "kim-lee"))
    ]
    _, grads = loss_and_gradients(params, cfg, batch)
    worst = 0.0
    for path in sorted(params):
        flat = grads[path].reshape(-1)
        coords = rng.choice(flat.size, size=min(20, flat.size), replace=False)
        fd = fd_gradient(lambda p: loss_and_gradients(p, cfg, batch)[0], params, path,
                         coords)
        for c, num in zip(coords, fd):
            rel = abs(flat[c] - num) / max(abs(flat[c]), abs(num), 1e-8)
            assert rel <= 1e-4, (path, int(c), flat[c], num)
            worst = max(worst, rel)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _mark(f"gradient check: {len(params)} tensors x 20 coords, worst relative "
          f"error {worst:.2e} (threshold 1e-4), {elapsed:.0f}s")


# -------------------------------------------------- architectural invariants


def test_structural_invariants_hold():
    cfg = ModelConfig(vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
                      dropout=0.0, max_src_len=32, max_tgt_len=16)
    params = init_parameters(cfg, seed=3)
    rng = np.random.default_rng(5)
    src = list(rng.integers(4, 40, size=10))

    # future-prefix perturbation cannot move logits at earlier positions
    tgt = char_encode("vera")
    full = forward_details(params, cfg, src, tgt)["logits"]
    for i in range(len(tgt) - 1):
        mutated = list(tgt)
        for j in range(i + 1, len(tgt) - 1):
            mutated[j] = 4 + (mutated[j] - 3) % 26
        moved = forward_details(params, cfg, src, mutated)["logits"]
        assert np.max(np.abs(moved[i] - full[i])) <= 1e-9

    # every attention row is a probability distribution
    details = forward_details(params, cfg, src, char_encode("roslind"))
    for group in ("enc_attn", "dec_self_attn", "dec_cross_attn"):
        for layer in details[group]:
            sums = layer.sum(-1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-6

    # width-1 beam and greedy are the same decoder: the width-1 search against
    # greedy decoding that rescores every prefix with the training forward pass
    short = replace(cfg, max_tgt_len=8)
    for seed in range(4):
        s = list(np.random.default_rng(seed).integers(4, 40, size=8))
        classes, logprob, reached_eos = greedy_search(full_recompute_scorer(params, cfg, s), 8)
        b = _search(params, short, [s], 1)[0][0]
        assert b.name == char_decode([BOS_ID] + [id_of_class(c) for c in classes])
        assert b.reached_eos == reached_eos
        assert abs(b.logprob - logprob) <= 1e-9

    _mark("causality to 1e-9, attention rows normalized to 1e-6, "
          "beam width 1 equals greedy")


def test_checkpoint_roundtrip_predictions_bit_identical(tmp_path):
    cfg = ModelConfig(vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
                      dropout=0.0, max_src_len=32, max_tgt_len=16)
    params = init_parameters(cfg, seed=9)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    bpe = learn_bpe(["vera v e r a"], 3)
    save_checkpoint(str(first), params, cfg, bpe)
    ck1 = load_checkpoint(str(first))
    save_checkpoint(str(second), ck1.params, ck1.config, ck1.bpe)
    ck2 = load_checkpoint(str(second))

    srcs = [list(np.random.default_rng(s).integers(4, 40, size=9))
            for s in range(6)]
    for src in srcs:
        r1 = _search(ck1.params, replace(ck1.config, max_tgt_len=8), [src], 1)[0][0]
        r2 = _search(ck2.params, replace(ck2.config, max_tgt_len=8), [src], 1)[0][0]
        assert r1.name == r2.name
        assert r1.logprob == r2.logprob  # bit-identical, no tolerance
    _mark("checkpoint save, load, predict is bit-identical across cycles")


# -------------------------------------------------- rejection methodology


def test_rejection_curve_methodology(noisy_system, tmp_path):
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        results = [
            ScoredResult(_named_prediction(ok, float(conf)), "gold")
            for ok, conf in zip(rng.random(n) < 0.7, rng.random(n))
        ]
        curve = er_curve(results, n_points=int(rng.integers(2, 12)))
        counts = [round(p.rejection_rate * n) for p in curve]
        want = er_sweep(
            [(r.prediction.confidence, r.correct) for r in results], counts
        )
        for point, (rr, er) in zip(curve, want):
            assert abs(point.rejection_rate - rr) < 1e-12
            assert abs(point.error_rate - er) < 1e-12

    model_results = noisy_system["test_model"]
    curve = er_curve(model_results, n_points=101)
    assert curve[0].rejection_rate == 0.0
    assert abs(curve[0].error_rate - exact_match_error(model_results)) < 1e-12

    for transform in (np.exp, lambda c: 2.0 * c + 1.0):
        moved = [
            ScoredResult(
                _named_prediction(r.correct, float(transform(
                    r.prediction.confidence))),
                "gold",
            )
            for r in model_results
        ]
        for a, b in zip(er_curve(model_results, 101), er_curve(moved, 101)):
            assert a.rejection_rate == b.rejection_rate
            assert a.error_rate == b.error_rate

    at_20 = min(curve, key=lambda p: abs(p.rejection_rate - 0.20))
    assert at_20.error_rate <= curve[0].error_rate + 1e-12

    plot = tmp_path / "curves.svg"
    emit_plot(
        [("seq2seq", curve), ("baseline", er_curve(noisy_system["test_baseline"], 101))],
        str(plot),
    )
    svg = plot.read_text()
    assert svg.count("<polyline") == 2
    assert ">seq2seq<" in svg and ">baseline<" in svg
    _mark(f"rejection curve matches brute-force sweep on 200 instances; "
          f"error at 20% rejection {at_20.error_rate * 100:.1f}% <= "
          f"{curve[0].error_rate * 100:.1f}% at 0%; two-curve SVG emitted")


def _named_prediction(correct, conf):
    from spellcap.baseline import Prediction

    source = "baseline" if 0.0 <= conf <= 1.0 else "seq2seq"
    return Prediction("gold" if correct else "wrong", conf, source)


# -------------------------------------------------- metric oracles


def test_distance_metrics_match_recursive_oracle():
    rng = np.random.default_rng(23)
    letters = "abcd"
    words = ["red", "blue", "green", "red'", "b"]

    for _ in range(300):
        a = "".join(rng.choice(list(letters), size=rng.integers(0, 7)))
        b = "".join(rng.choice(list(letters), size=rng.integers(0, 7)))
        assert levenshtein_ids(a, b) == lev_recursive(a, b)

    for _ in range(300):
        hyp = [words[i] for i in rng.integers(0, len(words), rng.integers(0, 7))]
        ref = [words[i] for i in rng.integers(0, len(words), rng.integers(1, 7))]
        got = word_error_rate(hyp, ref)
        assert abs(got - wer_recursive(hyp, ref)) < 1e-12

    for _ in range(1000):
        a, b, c = (
            "".join(rng.choice(list(letters), size=rng.integers(0, 7)))
            for _ in range(3)
        )
        dab = levenshtein_ids(a, b)
        assert dab >= 0
        assert (dab == 0) == (a == b)
        assert dab == levenshtein_ids(b, a)
        assert dab <= levenshtein_ids(a, c) + levenshtein_ids(c, b)
    _mark("edit distance and WER agree with recursive alignment; metric "
          "axioms hold on 1000 random triples")


# -------------------------------------------------- determinism


def test_pipelines_are_byte_reproducible(tmp_path):
    from spellcap.cli import main

    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        noise = d / "noise.txt"
        noise.write_text("letter_sub_prob=0.1\npattern_weights=1,1,0,0,0\n")
        mc = d / "model.txt"
        mc.write_text("n_layers=1\nn_heads=2\nd_model=16\nd_ff=32\nn_merges=30\n")
        assert main(["generate", "--n", "80", "--seed", "5",
                     "--noise", str(noise), "--out", str(d / "data.txt")]) == 0
        assert main(["train", "--train", str(d / "data.txt"),
                     "--out", str(d / "m.ckpt"), "--model-config", str(mc),
                     "--epochs", "2", "--learning-rate", "0.001",
                     "--seed", "5"]) == 0
        assert main(["predict", "--checkpoint", str(d / "m.ckpt"),
                     "--input", str(d / "data.txt"),
                     "--out", str(d / "pred.tsv")]) == 0
        outputs.append({
            name: (d / name).read_bytes()
            for name in ("data.txt", "m.ckpt", "m.ckpt.resume",
                         "m.ckpt.history.csv", "pred.tsv")
        })
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs"
    _mark("generate, train, predict byte-identical across two seeded runs")
