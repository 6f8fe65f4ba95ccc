"""The traced benchmark run wraps spellcap functions by module attribute and
reads some of their arguments by position; a refactor that moves or
re-signatures one of them would break the traced run or silently corrupt
its per-layer metrics. These checks read the benchmark's hook table as is."""

import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
from spans import INFO, NAME, Tracer  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in layers.WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _, _ in layers.WRAPPED])
def test_wrapped_attribute_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_decoder_forward_tokens_is_argument_3():
    # the decoder_forward hook counts decoded positions as len(args[3])
    from spellcap.seq2seq.decode import decoder_forward

    assert list(inspect.signature(decoder_forward).parameters)[3] == "tokens"


@pytest.mark.parametrize("module", ["spellcap.seq2seq.model", "spellcap.seq2seq.train"])
def test_pack_batch_hook_sees_the_padded_batch(module):
    # the traced run reads src_pad_fraction and tgt_pad_fraction from the
    # padded 4-tuple pack_batch returns to the training step (which looks it
    # up in model) and to evaluate (in train); a step that packed the batch
    # some other way would read 0 padding while still padding nothing
    from spellcap.seq2seq.model import ModelConfig, init_parameters, loss_and_gradients
    from spellcap.seq2seq.train import evaluate

    cfg = ModelConfig(vocab_size=40, n_layers=1, n_heads=2, d_model=8, d_ff=16,
                      dropout=0.0, max_src_len=16, max_tgt_len=16)
    params = init_parameters(cfg, seed=0)
    batch = [([5, 6, 7, 8, 9], [1, 4, 5, 6, 2]), ([5], [1, 4, 2])]
    entry = next(e for e in layers.WRAPPED if e[0] == module and e[1] == "pack_batch")
    tracer = Tracer()
    tracer.install(*entry)
    try:
        loss_and_gradients(params, cfg, batch)
        evaluate(params, cfg, batch)
    finally:
        tracer.uninstall()
    # src positions, src padding, tgt positions, tgt padding
    assert [s[INFO] for s in tracer.named(entry[2])] == [(10, 4, 8, 2)]


@pytest.mark.parametrize("beam_width, label", [(1, "greedy"), (4, "beam4")])
def test_chunked_predict_traces_every_utterance(tmp_path, beam_width, label):
    # predict decodes in chunks, but still tokenizes, encodes and decodes
    # each utterance through the decode module's globals, and runs every
    # decoder step inside one utterance's greedy or beam call, so the
    # per-utterance metrics keep their meaning
    # the benchmark imports the model package before it installs the
    # wrappers; one first imported under them binds a wrapped bpe_encode
    import spellcap.seq2seq  # noqa: F401
    from spellcap.cli import main

    text = tmp_path / "in.txt"
    text.write_text("v e r a\nj o n e s\n" * 10)
    ckpt = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "model.ckpt"
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert main(["predict", "--checkpoint", str(ckpt), "--input", str(text),
                     "--out", str(tmp_path / "out.tsv"),
                     "--beam-width", str(beam_width)]) == 0
    finally:
        tracer.uninstall()
    assert len(tracer.named("seq2seq.model.encode")) == 20
    assert len(tracer.named("tokenizer.bpe_encode")) == 20
    decoder = layers.DECODERS[beam_width > 1]
    assert len(tracer.named(decoder)) == 20
    steps = tracer.named("seq2seq.model.decoder_forward")
    assert steps and all(tracer.ancestor(s, layers.DECODERS)[NAME] == decoder for s in steps)
    values = layers.metrics(SimpleNamespace(tracer=tracer, import_s=0.0), 0.0)
    calls = values[f"seq2seq.model.decoder_forward_calls_per_utt.{label}"][0]
    assert calls == pytest.approx(len(steps) / 20)
    assert values["seq2seq.decode.eos_fraction"][0] == pytest.approx(
        sum(s[INFO] for s in tracer.named(decoder)) / 20)
