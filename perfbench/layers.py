"""Which spellcap functions the traced run wraps, and the per-layer metrics.

Each entry wraps a public function at the module attribute its caller reads
when it calls it: ``spellcap.cli`` imported the datagen, tokenizer, baseline
and evalharness functions by name; ``cmd_train`` and ``cmd_predict`` import
from the ``spellcap.seq2seq`` package at call time; the training loop and
the decoders call the model through their own module globals.

Every traced run reports every metric below; a layer the workload does not
run reads 0. The arrows give the end-to-end metric, and in brackets the
workload's detail figure, each layer should move:

- cli.import_s -> setup_s (all)
- datagen.* -> items_per_s (offline) [generate_samples_per_s], setup_s (all)
- tokenizer.learn_bpe_s, seq2seq.train.*, seq2seq.model.*_pad_fraction,
  seq2seq.checkpoint.save_s -> items_per_s (train); [dev_loss] guards
- tokenizer.bpe_encode_us_per_utt -> items_per_s (interactive, offline)
  [greedy_p50_ms, predict_utt_per_s]
- seq2seq.model.encode_ms_per_utt -> items_per_s (offline) [predict_utt_per_s]
- seq2seq.model.decoder_*, seq2seq.decode.* -> items_per_s (interactive,
  offline) [greedy_*, beam4_*, predict_utt_per_s]
- seq2seq.checkpoint.load_s -> setup_s (interactive), items_per_s (offline)
- baseline.*, kernels.* -> items_per_s (offline) [baseline_utt_per_s]
- evalharness.* -> items_per_s (offline); expected negligible

Times are per call unless the name says otherwise; ``*_per_utt`` divides by
decoded or extracted utterances, ``seq2seq.train.*`` and ``save_s`` by
``spellcap train`` commands, and ``kernels.levenshtein_calls`` counts calls
per baseline utterance.
"""

from spans import INFO, NAME, duration

DECODERS = ("seq2seq.decode.greedy", "seq2seq.decode.beam")


def _pad_counts(args, kwargs, result):
    src_arr, src_valid, tgt_in, labels = result
    return (src_valid.size, int((~src_valid).sum()), labels.size, int((labels < 0).sum()))


def _reached_eos(args, kwargs, result):
    best = result if hasattr(result, "reached_eos") else result[0]
    return bool(best.reached_eos)


# (module, attribute, span name, hook)
WRAPPED = [
    ("spellcap.cli", "generate_dataset", "datagen.generate", None),
    ("spellcap.cli", "load_dataset", "datagen.load_dataset", None),
    ("spellcap.cli", "learn_bpe", "tokenizer.learn_bpe", None),
    # pairs_from_samples imports bpe_encode from the tokenizer at call time
    ("spellcap.tokenizer", "bpe_encode", "tokenizer.bpe_encode", None),
    ("spellcap.seq2seq.decode", "bpe_encode", "tokenizer.bpe_encode", None),
    ("spellcap.seq2seq", "pairs_from_samples", "seq2seq.train.pairs", None),
    ("spellcap.seq2seq", "train", "seq2seq.train.loop", None),
    ("spellcap.seq2seq.train", "loss_and_gradients", "seq2seq.train.step", None),
    ("spellcap.seq2seq.train", "adam_step", "seq2seq.train.adam", None),
    ("spellcap.seq2seq.train", "evaluate", "seq2seq.train.evaluate",
     lambda args, kwargs, result: len(args[2])),
    ("spellcap.seq2seq.model", "pack_batch", "seq2seq.model.pack_batch", _pad_counts),
    ("spellcap.seq2seq.train", "pack_batch", "seq2seq.model.pack_batch", _pad_counts),
    ("spellcap.seq2seq", "save_checkpoint", "seq2seq.checkpoint.save", None),
    ("spellcap.seq2seq", "save_train_state", "seq2seq.checkpoint.save", None),
    ("spellcap.seq2seq", "load_checkpoint", "seq2seq.checkpoint.load", None),
    ("spellcap.seq2seq.decode", "encode", "seq2seq.model.encode", None),
    ("spellcap.seq2seq.decode", "decoder_forward", "seq2seq.model.decoder_forward",
     lambda args, kwargs, result: len(args[3])),
    ("spellcap.seq2seq.decode", "greedy_decode", "seq2seq.decode.greedy", _reached_eos),
    ("spellcap.seq2seq.decode", "beam_decode", "seq2seq.decode.beam", _reached_eos),
    ("spellcap.cli", "baseline_predict", "baseline.predict", None),
    ("spellcap.cli", "edit_distance_confidence", "baseline.editdist", None),
    ("spellcap.kernels", "levenshtein_ids", "kernels.levenshtein", None),
    ("spellcap.cli", "save_results", "evalharness.save_results", None),
    ("spellcap.cli", "load_results", "evalharness.load_results", None),
    ("spellcap.cli", "er_curve", "evalharness.er_curve", None),
    ("spellcap.cli", "emit_plot", "evalharness.emit_plot", None),
]

# name -> (unit, better), in report order
METRICS = {
    "cli.import_s": ("s", "lower"),
    "datagen.generate_s": ("s", "lower"),
    "datagen.load_dataset_s": ("s", "lower"),
    "tokenizer.learn_bpe_s": ("s", "lower"),
    "tokenizer.bpe_encode_us_per_utt": ("us", "lower"),
    "seq2seq.train.pairs_s": ("s", "lower"),
    "seq2seq.train.steps": ("count", "lower"),
    "seq2seq.train.step_ms": ("ms", "lower"),
    "seq2seq.train.adam_ms_per_step": ("ms", "lower"),
    "seq2seq.train.evaluate_ms_per_sample": ("ms", "lower"),
    "seq2seq.train.loop_self_s": ("s", "lower"),
    "seq2seq.model.src_pad_fraction": ("fraction", "lower"),
    "seq2seq.model.tgt_pad_fraction": ("fraction", "lower"),
    "seq2seq.model.encode_ms_per_utt": ("ms", "lower"),
    "seq2seq.model.decoder_forward_calls_per_utt.greedy": ("count", "lower"),
    "seq2seq.model.decoder_forward_calls_per_utt.beam4": ("count", "lower"),
    "seq2seq.model.decoder_positions_per_utt.greedy": ("count", "lower"),
    "seq2seq.model.decoder_positions_per_utt.beam4": ("count", "lower"),
    "seq2seq.model.decoder_forward_us_per_call.greedy": ("us", "lower"),
    "seq2seq.model.decoder_forward_us_per_call.beam4": ("us", "lower"),
    "seq2seq.decode.search_self_ms_per_utt": ("ms", "lower"),
    "seq2seq.decode.eos_fraction": ("fraction", "higher"),
    "seq2seq.checkpoint.save_s": ("s", "lower"),
    "seq2seq.checkpoint.load_s": ("s", "lower"),
    "baseline.predict_us_per_utt": ("us", "lower"),
    "baseline.editdist_us_per_utt": ("us", "lower"),
    "kernels.levenshtein_calls": ("count", "lower"),
    "kernels.levenshtein_us_per_call": ("us", "lower"),
    "evalharness.save_results_s": ("s", "lower"),
    "evalharness.load_results_s": ("s", "lower"),
    "evalharness.er_curve_s": ("s", "lower"),
    "evalharness.emit_plot_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
}


def install(tracer):
    for module, attr, span_name, hook in WRAPPED:
        tracer.install(module, attr, span_name, hook)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(ctx, overhead_pct) -> dict:
    """Per-layer metrics from the traced run's spans, as name -> (value, unit)."""
    tr = ctx.tracer
    count = lambda name: len(tr.named(name))
    commands = count("seq2seq.train.loop")
    self_times = tr.self_times()
    values = {
        "cli.import_s": ctx.import_s,
        "datagen.generate_s": tr.mean("datagen.generate"),
        "datagen.load_dataset_s": tr.mean("datagen.load_dataset"),
        "tokenizer.learn_bpe_s": tr.mean("tokenizer.learn_bpe"),
        "tokenizer.bpe_encode_us_per_utt": tr.mean("tokenizer.bpe_encode") * 1e6,
        "seq2seq.train.pairs_s": _ratio(tr.total("seq2seq.train.pairs"), commands),
        "seq2seq.train.steps": _ratio(count("seq2seq.train.step"), commands),
        "seq2seq.train.step_ms": tr.mean("seq2seq.train.step") * 1e3,
        "seq2seq.train.adam_ms_per_step": tr.mean("seq2seq.train.adam") * 1e3,
        "seq2seq.train.evaluate_ms_per_sample": _ratio(
            tr.total("seq2seq.train.evaluate") * 1e3,
            sum(s[INFO] for s in tr.named("seq2seq.train.evaluate"))),
        "seq2seq.train.loop_self_s": _ratio(
            sum(t for s, t in zip(tr.spans, self_times) if s[NAME] == "seq2seq.train.loop"),
            commands),
        "seq2seq.model.encode_ms_per_utt": tr.mean("seq2seq.model.encode") * 1e3,
        "seq2seq.checkpoint.save_s": _ratio(tr.total("seq2seq.checkpoint.save"), commands),
        "seq2seq.checkpoint.load_s": tr.mean("seq2seq.checkpoint.load"),
        "baseline.predict_us_per_utt": tr.mean("baseline.predict") * 1e6,
        "baseline.editdist_us_per_utt": tr.mean("baseline.editdist") * 1e6,
        "kernels.levenshtein_us_per_call": tr.mean("kernels.levenshtein") * 1e6,
        "evalharness.save_results_s": tr.mean("evalharness.save_results"),
        "evalharness.load_results_s": tr.mean("evalharness.load_results"),
        "evalharness.er_curve_s": tr.mean("evalharness.er_curve"),
        "evalharness.emit_plot_s": tr.mean("evalharness.emit_plot"),
        "kernels.levenshtein_calls": _ratio(count("kernels.levenshtein"),
                                            count("baseline.predict")),
        "trace.spans": len(tr.spans),
    }

    pads = [s[INFO] for s in tr.named("seq2seq.model.pack_batch")]
    values["seq2seq.model.src_pad_fraction"] = _ratio(sum(p[1] for p in pads),
                                                      sum(p[0] for p in pads))
    values["seq2seq.model.tgt_pad_fraction"] = _ratio(sum(p[3] for p in pads),
                                                      sum(p[2] for p in pads))

    for name, label in zip(DECODERS, ("greedy", "beam4")):
        calls = [s for s in tr.named("seq2seq.model.decoder_forward")
                 if tr.ancestor(s, DECODERS)[NAME] == name]
        n = count(name)
        values[f"seq2seq.model.decoder_forward_calls_per_utt.{label}"] = _ratio(len(calls), n)
        values[f"seq2seq.model.decoder_positions_per_utt.{label}"] = _ratio(
            sum(s[INFO] for s in calls), n)
        values[f"seq2seq.model.decoder_forward_us_per_call.{label}"] = _ratio(
            sum(duration(s) for s in calls) * 1e6, len(calls))
    all_searches = [i for i, s in enumerate(tr.spans) if s[NAME] in DECODERS]
    values["seq2seq.decode.search_self_ms_per_utt"] = _ratio(
        sum(self_times[i] for i in all_searches) * 1e3, len(all_searches))
    values["seq2seq.decode.eos_fraction"] = _ratio(
        sum(tr.spans[i][INFO] for i in all_searches), len(all_searches))
    values["trace.overhead_pct"] = overhead_pct
    return {name: (float(values[name]), unit) for name, (unit, _) in METRICS.items()}


def overhead_pct(traced: dict, untraced: dict) -> float:
    """Slowdown, in percent, of a traced run's ``items_per_s`` against an
    untraced run of the same workload and seed."""
    return 100.0 * (untraced["items_per_s"][0] / traced["items_per_s"][0] - 1.0)
