"""Single command-line entry point for the say-and-spell toolkit.

Subcommands: generate (synthetic datasets), train (BPE + transformer),
predict (checkpoint inference), baseline (rule-based extractor), and eval
(error metrics, error-vs-rejection CSV/SVG). Option precedence per value is
built-in default < SPELLCAP_SEED (seeds only) < config file < command flag.

Exit codes: 0 success, 2 configuration or contract error, 3 I/O or data
format error, 4 numeric failure during training.
"""

import argparse
import os
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

from .baseline import Prediction, baseline_predict, edit_distance_confidence
from .datagen import (
    PATTERNS,
    NoiseConfig,
    default_lexicon_path,
    generate_dataset,
    load_dataset,
    load_lexicon,
    parse_dataset_lines,
    save_dataset,
    train_dev_split,
)
from .errors import ConfigError, DataFormatError, NumericError
from .evalharness import (
    ScoredResult,
    emit_csv,
    emit_plot,
    er_curve,
    exact_match_error,
    load_results,
    save_results,
)
from .tokenizer import learn_bpe


def _parse(kind, key, value):
    if get_origin(kind) is UnionType:  # int | None reads as int
        kind = get_args(kind)[0]
    if kind is tuple or get_origin(kind) is tuple:
        item = (get_args(kind) or (str,))[0]
        return tuple(_parse(item, key, x) for x in value.split(","))
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None


def read_config(path, cls, skip=(), **extra) -> dict:
    """Keyword arguments for config dataclass ``cls`` from a key=value file.

    The keys and their types are the fields of ``cls`` less ``skip``, plus
    ``extra`` (name=type). Blank lines and #-comments are skipped; tuple
    values are comma-separated; a key set twice is an error. No path reads as
    an empty file.
    """
    if not path:
        return {}
    types = {f.name: f.type for f in fields(cls) if f.name not in skip} | extra
    kwargs, key_lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ConfigError(f"{path} line {line_no}: expected key=value, "
                                  f"got {line!r}")
            if key not in types:
                raise ConfigError(f"{path} line {line_no}: unknown "
                                  f"{cls.__name__} key {key!r}")
            if key in key_lines:
                raise ConfigError(f"{path} line {line_no}: key {key!r} already set "
                                  f"on line {key_lines[key]}")
            key_lines[key] = line_no
            kwargs[key] = _parse(types[key], key, value)
    return kwargs


def _resolve_seed(flag, file_value=None) -> int:
    """flag > config file > SPELLCAP_SEED > 0; a seed is a non-negative integer."""
    for where, value in (("--seed", flag), ("--train-config seed", file_value),
                         ("SPELLCAP_SEED", os.environ.get("SPELLCAP_SEED", "0"))):
        if value is None:
            continue
        try:
            seed = int(value)
        except ValueError:
            raise ConfigError(f"{where} must be an integer, got {value!r}") from None
        if seed < 0:
            raise ConfigError(f"{where} must be non-negative, got {seed}")
        return seed


# ----------------------------------------------------------- subcommands


def cmd_generate(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.dev_out and not 0.0 < args.dev_fraction < 1.0:
        raise ConfigError(f"--dev-fraction must be in (0, 1), got {args.dev_fraction}")
    lex = load_lexicon(args.lexicon or default_lexicon_path())
    cfg = NoiseConfig(**read_config(args.noise, NoiseConfig))
    seed = _resolve_seed(args.seed)
    tagged = generate_dataset(lex, args.n, cfg, seed)
    samples = [s for s, _ in tagged]
    mix = Counter(p for _, p in tagged)
    if args.dev_out:
        train, dev = train_dev_split(samples, args.dev_fraction, seed)
        if not train or not dev:
            raise ConfigError(f"--dev-fraction {args.dev_fraction} of --n {args.n} "
                              f"leaves {len(train)} train and {len(dev)} dev "
                              "samples; both splits need at least one")
        save_dataset(train, args.out)
        save_dataset(dev, args.dev_out)
        print(f"wrote {len(train)} samples to {args.out}, "
              f"{len(dev)} to {args.dev_out}")
    else:
        save_dataset(samples, args.out)
        print(f"wrote {len(samples)} samples to {args.out}")
    print("pattern mix: " + " ".join(f"{p}={mix.get(p, 0)}" for p in PATTERNS))
    return 0


def cmd_train(args) -> int:
    from .seq2seq import (
        ModelConfig,
        TrainConfig,
        check_source,
        init_parameters,
        load_train_state,
        pairs_from_samples,
        save_checkpoint,
        save_train_state,
        train,
    )

    samples = load_dataset(args.train)
    dev_samples = load_dataset(args.dev) if args.dev else []
    train_kwargs = read_config(args.train_config, TrainConfig)
    train_kwargs["seed"] = _resolve_seed(args.seed, train_kwargs.get("seed"))
    for key in ("epochs", "batch_size", "learning_rate"):
        if getattr(args, key) is not None:
            train_kwargs[key] = getattr(args, key)
    train_cfg = TrainConfig(**train_kwargs)

    if args.resume:
        if args.model_config:
            raise ConfigError("--model-config cannot be combined with --resume")
        params, model_cfg, state, bpe = load_train_state(args.resume)
    else:
        model_kwargs = read_config(args.model_config, ModelConfig,
                                   skip=("vocab_size",), n_merges=int)
        texts = [s.nbest[0].text() for s in samples]
        bpe = learn_bpe(texts, model_kwargs.pop("n_merges", 1000))
        model_cfg = ModelConfig(vocab_size=len(bpe.vocab), **model_kwargs)
        params = init_parameters(model_cfg, seed=train_cfg.seed)
        state = None

    train_pairs = pairs_from_samples(samples, bpe)
    dev_pairs = pairs_from_samples(dev_samples, bpe)
    # a sample the model cannot take would stop training at the batch that
    # draws it, so every pair is checked before the first step
    for path, pairs in ((args.train, train_pairs), (args.dev, dev_pairs)):
        for i, (src, tgt) in enumerate(pairs, start=1):
            try:
                check_source(model_cfg, src)
            except ValueError as e:
                raise DataFormatError(f"file {path} sample {i}: {e}") from None
            if len(tgt) - 1 > model_cfg.max_tgt_len:
                raise DataFormatError(f"file {path} sample {i}: gold name longer "
                                      f"than {model_cfg.max_tgt_len - 1} characters "
                                      f"(max_tgt_len - 1)")
    result = train(params, model_cfg, train_pairs, dev_pairs, train_cfg, state=state)

    save_checkpoint(args.out, result.params, model_cfg, bpe=bpe)
    save_train_state(args.out + ".resume", params, model_cfg, result.state, bpe=bpe)
    history_path = args.history or args.out + ".history.csv"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,dev_loss\n")
        for h in result.history:
            fh.write(f"{h.epoch},{h.train_loss:.6f},{h.dev_loss:.6f}\n")
    best = "final" if result.best_epoch is None else f"epoch {result.best_epoch}"
    print(f"trained {len(result.history)} epochs ({best} parameters kept)"
          + (", stopped early" if result.stopped_early else ""))
    print(f"wrote {args.out}, {args.out}.resume, {history_path}")
    return 0


def _read_input_lines(spec_path) -> list:
    if spec_path == "-":
        return sys.stdin.read().splitlines()
    with open(spec_path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def cmd_predict(args) -> int:
    from .seq2seq import load_checkpoint, predict_names, source_ids

    if args.beam_width < 1:
        raise ConfigError(f"--beam-width must be >= 1, got {args.beam_width}")
    ck = load_checkpoint(args.checkpoint)
    lines = _read_input_lines(args.input)
    numbered = [(no, l.strip()) for no, l in enumerate(lines, start=1) if l.strip()]
    if numbered and "|" in numbered[0][1]:
        items = [(no, s.nbest[0].text(), s.gold)
                 for no, s in parse_dataset_lines(lines, where=args.input)]
    else:
        # raw text: the BPE vocabulary and the model are lowercase only
        items = [(no, l.lower(), "-") for no, l in numbered]
    if not items:
        raise DataFormatError(f"input {args.input}: no utterances to predict")
    t0 = time.perf_counter()
    sources = []
    for line_no, text, _ in items:  # every line is checked before any is decoded
        try:
            sources.append(source_ids(ck.config, ck.bpe, text))
        except ValueError as e:  # e.g. a source longer than max_src_len
            raise DataFormatError(f"input {args.input}: {e}", line_no=line_no) from None
    preds, unfinished = predict_names(ck.params, ck.config, sources, args.beam_width,
                                      args.length_normalize)
    seconds = time.perf_counter() - t0
    save_results([ScoredResult(pred, gold) for pred, (_, _, gold) in zip(preds, items)],
                 args.out)
    print(f"wrote {len(preds)} predictions to {args.out}")
    print(f"predict: {len(preds)} utterances, {len(preds) / seconds:.1f} utterances/s, "
          f"{unfinished} never reached EOS", file=sys.stderr)
    return 0


def cmd_baseline(args) -> int:
    samples = load_dataset(args.input)
    results = []
    for s in samples:
        pred = baseline_predict(list(s.nbest))
        if args.confidence == "editdist":
            conf = edit_distance_confidence(pred, s.nbest[0])
            pred = Prediction(pred.name, conf, "baseline")
        results.append(ScoredResult(pred, s.gold))
    save_results(results, args.out)
    print(f"wrote {len(results)} baseline predictions to {args.out}")
    return 0


def _curve_paths(base: str, labels) -> list:
    if len(labels) == 1:
        return [base]
    p = Path(base)
    return [str(p.with_name(f"{p.stem}.{label}{p.suffix}")) for label in labels]


def cmd_eval(args) -> int:
    flag = "--er-curve" if args.er_curve else "--plot"
    if (args.er_curve or args.plot) and args.n_points < 2:
        raise ConfigError(f"--n-points must be >= 2 for {flag}, got {args.n_points}")
    loaded = []
    labels = []
    seen = Counter()
    for path in args.results:
        try:
            results = load_results(path)
        except DataFormatError as e:
            if e.line_no is None:  # an empty file: a usage problem, not bad data
                raise ConfigError(str(e)) from None
            raise
        label = Path(path).stem
        seen[label] += 1
        if seen[label] > 1:
            label = f"{label}.{seen[label]}"
        loaded.append(results)
        labels.append(label)
        print(f"{path} error_rate {exact_match_error(results):.4f} "
              f"({len(results)} results)")
    if args.er_curve or args.plot:
        curves = []
        for path, results in zip(args.results, loaded):
            try:
                curves.append(er_curve(results, n_points=args.n_points))
            except ValueError as e:
                raise ConfigError(f"{path}: {e} for {flag}") from None
        if args.er_curve:
            for curve, out in zip(curves, _curve_paths(args.er_curve, labels)):
                emit_csv(curve, out)
                print(f"wrote {out}")
        if args.plot:
            emit_plot(list(zip(labels, curves)), args.plot)
            print(f"wrote {args.plot}")
    return 0


# ----------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spellcap",
        description="Capture spelled names from noisy transcripts: generate "
                    "data, train and run the transducer, run the rule-based "
                    "extractor, and evaluate error-vs-rejection tradeoffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic labeled dataset")
    g.add_argument("--lexicon", help="name list file (default: bundled 200 names)")
    g.add_argument("--n", type=int, default=1000, help="sample count")
    g.add_argument("--noise", help="key=value file of NoiseConfig fields")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True, help="dataset file to write")
    g.add_argument("--dev-out", help="also write a held-out split here")
    g.add_argument("--dev-fraction", type=float, default=0.1,
                   help="fraction for --dev-out (default 0.1); both splits "
                        "must be non-empty")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="learn BPE and train the transducer")
    t.add_argument("--train", required=True, help="training dataset file")
    t.add_argument("--dev", help="validation dataset file (best-epoch tracking)")
    t.add_argument("--out", required=True, help="checkpoint file to write")
    t.add_argument("--model-config", help="key=value file of ModelConfig fields "
                                          "(vocab_size excepted) and n_merges")
    t.add_argument("--train-config", help="key=value file of TrainConfig fields")
    t.add_argument("--resume", help="resume container from a previous run "
                                    "(the OUT.resume file)")
    t.add_argument("--history", help="per-epoch loss CSV (default OUT.history.csv)")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--learning-rate", type=float, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode names with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="dataset file, or - for stdin (dataset lines or raw text)")
    p.add_argument("--out", required=True, help="results file to write")
    p.add_argument("--beam-width", type=int, default=1)
    p.add_argument("--length-normalize", action="store_true",
                   help="divide log-probability confidence by emitted length")
    p.set_defaults(func=cmd_predict)

    b = sub.add_parser("baseline", help="run the rule-based extractor")
    b.add_argument("--input", required=True, help="dataset file")
    b.add_argument("--out", required=True, help="results file to write")
    b.add_argument("--confidence", choices=("avg", "editdist"), default="avg",
                   help="letter-average or edit-distance confidence")
    b.set_defaults(func=cmd_baseline)

    e = sub.add_parser("eval", help="score results files, emit ER curve artifacts")
    e.add_argument("results", nargs="+", help="results files from predict/baseline")
    e.add_argument("--er-curve", help="CSV output (suffixed per file when many)")
    e.add_argument("--plot", help="SVG output overlaying all curves")
    e.add_argument("--n-points", type=int, default=101)
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as e:
        print(f"error: input is not valid UTF-8: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
