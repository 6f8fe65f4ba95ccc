"""The three benchmark workloads: set-up, timed work, output checks.

Every workload drives spellcap from outside, through ``spellcap.cli.main`` and
the public ``spellcap.*`` functions, from one process and one client. Each
returns a ``Run``: the end-to-end metrics every workload shares (``setup_s``,
``peak_rss_mb``, ``items_per_s``), workload-specific details, operation
counts, the problems its checks found, and the outputs that
``make_reference.py outputs`` records. What an item is depends on the workload:

- ``train``: ``spellcap train`` with a dev split on a quick-start-noise corpus;
  an item is one training sample in one epoch. Forward/backward, Adam, BPE
  learning and checkpoint writes run here only.
- ``interactive``: a closed loop, one client, no think time: ``predict_name``
  per utterance, greedy then beam width 4, on the fixed reference checkpoint;
  an item is one utterance decoded both ways. Per-step decoder cost
  dominates; no training code runs.
- ``offline``: the quick-start batch pipeline (generate, predict, baseline
  with edit-distance confidence, eval with curves and plot) on the NATO-heavy
  slice, whose sources are about twice as long; an item is one utterance
  through all four commands. The only workload that runs datagen in its timed
  part, the rule baseline, Levenshtein and evalharness.
"""

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import common
import layers

SIZES = {
    "full": {"train_n": 700, "epochs": 2, "train_commands": 3, "interactive_n": 800,
             "chunk": 25, "offline_n": 200, "offline_shards": 8, "setup_rounds": 5},
    # For the smoke test: every stage runs, on a few samples.
    "tiny": {"train_n": 60, "epochs": 1, "train_commands": 1, "interactive_n": 8,
             "chunk": 4, "offline_n": 8, "offline_shards": 2, "setup_rounds": 2},
}

# Per-epoch losses may drift this far from the reference (absolute nats):
# the history CSV keeps 6 decimals, and a reordered float64 gemm moved
# losses by less than 1e-6 over an epoch.
LOSS_TOLERANCE = 1e-4
# Decoded confidences against the reference and against a teacher-forced
# re-scoring of the same output.
CONF_TOLERANCE = 1e-9
# A model no better than uniform over the 29 output classes has not trained.
UNIFORM_LOSS = math.log(29)


@dataclass
class Run:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    details: dict = field(default_factory=dict)   # workload-specific figures
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    recorded: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok


class Context:
    """One workload run: seed, size, budget, references and scratch files."""

    def __init__(self, workload, seed, seconds, size, references):
        self.seed = seed
        self.seconds = seconds
        self.size = SIZES[size]
        refs = references or {}
        by_size = refs.get("workloads", {}).get(workload, {}).get(size)
        self.reference = by_size if refs.get("seed") == seed else None
        self.tracer = None
        self.run = Run()
        self.work = common.WORK_DIR / f"{workload}-{seed}-{size}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def path(self, name):
        return str(self.work / name)

    def cli(self, argv):
        """``spellcap.cli.main``; returns its exit code and what it printed,
        which is echoed to stderr so stdout keeps only the benchmark's lines."""
        from spellcap import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        sys.stderr.write(buf.getvalue())
        return rc, buf.getvalue()

    def traced(self, fn):
        """Run ``fn`` with the layer wrappers installed (traced runs only)."""
        if self.tracer is None:
            return fn()
        layers.install(self.tracer)
        try:
            return fn()
        finally:
            self.tracer.uninstall()


# ------------------------------------------------------------------ helpers


def time_import() -> float:
    """Wall time of a fresh interpreter importing the CLI and the model."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import spellcap.cli, spellcap.seq2seq"],
                   check=True, cwd=common.ROOT)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s, rss, items_per_s) -> dict:
    """The metrics every workload reports, as name -> (value, unit)."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "items_per_s": (items_per_s, "1/s"),
    }


def percentile(values, q):
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100)[q - 1]


def repeat_units(seconds, unit, min_units=1):
    """Call ``unit()`` at least ``min_units`` times, then again while another
    call is expected to finish inside ``seconds``; returns the results."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(unit())
        elapsed = time.perf_counter() - t0
        if len(results) >= min_units and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def setup_rounds(ctx, round_fn):
    """Median over rounds of (fresh-interpreter import + ``round_fn``)."""
    totals, imports = [], []
    for _ in range(ctx.size["setup_rounds"]):
        imp = time_import()
        t0 = time.perf_counter()
        ctx.traced(round_fn)
        totals.append(imp + time.perf_counter() - t0)
        imports.append(imp)
    ctx.import_s = statistics.median(imports)
    return statistics.median(totals)


def checkpoint_matches_recipe(ctx):
    """The reference checkpoint must be the file its recipe record describes."""
    with open(common.CHECKPOINT_RECIPE, encoding="utf-8") as fh:
        want = json.load(fh)["sha256"]
    ctx.run.check(common.sha256_file(common.CHECKPOINT) == want,
                  f"{common.CHECKPOINT} does not match the sha256 in its recipe")


def same_files(ctx, paths, copies, what):
    """Setup rounds regenerate inputs; every round must write the same bytes."""
    first = [common.sha256_file(p) for p in paths]
    for copy in copies:
        ctx.run.check([common.sha256_file(p) for p in copy] == first,
                      f"{what}: generate is not byte-reproducible")
    return first


def generate(ctx, n, noise, seed_offset, out, dev_out=None):
    noise_path = common.write_kv(ctx.path(f"noise-{seed_offset}.cfg"), noise)
    argv = ["generate", "--n", str(n), "--seed",
            str(common.data_seed(ctx.seed, seed_offset)),
            "--noise", noise_path, "--out", out]
    if dev_out:
        argv += ["--dev-out", dev_out, "--dev-fraction", "0.1"]
    rc, _ = ctx.cli(argv)
    ctx.run.attempted += 1
    if not ctx.run.check(rc == 0, f"generate exited {rc}"):
        ctx.run.failed += 1
    return rc


def log_softmax(x):
    shifted = x - x.max(-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))


def rescore(ck, text, name, conf, greedy):
    """Teacher-forced check of one decoded name; returns a problem or None.

    The full-sequence forward pass re-scores BOS + name + EOS: its summed
    log-probability must equal the decoder's confidence, and for greedy
    decoding every emitted character must be the argmax at its step.
    """
    from spellcap import seq2seq, tokenizer

    if len(name) >= ck.config.max_tgt_len:
        return None  # stopped at max length without EOS: nothing to re-score
    src = tokenizer.bpe_encode(ck.bpe, text)
    tgt = [tokenizer.BOS_ID] + [tokenizer.CHAR_IDS[c] for c in name] + [tokenizer.EOS_ID]
    det = seq2seq.forward_details(ck.params, ck.config, src, tgt)
    logp = log_softmax(det["logits"])
    steps = np.arange(len(det["labels"]))
    picked = logp[steps, det["labels"]]
    total = float(picked.sum())
    if abs(total - conf) > CONF_TOLERANCE * max(1.0, abs(conf)):
        return f"{name!r}: confidence {conf!r} but re-scored {total!r}"
    if greedy and np.any(picked < logp.max(-1) - 1e-12):
        return f"{name!r}: greedy output is not the argmax path"
    return None


def compare_names(run, what, got, want):
    """Names must match the reference exactly, confidences to CONF_TOLERANCE."""
    if not run.check(len(got) == len(want), f"{what}: {len(got)} outputs, "
                     f"reference has {len(want)}"):
        return
    bad = [i for i, ((gn, gc), (wn, wc)) in enumerate(zip(got, want))
           if gn != wn or abs(gc - wc) > CONF_TOLERANCE]
    for i in bad[:5]:
        run.problems.append(f"{what} #{i}: got {got[i]}, reference {want[i]}")
    run.failed += len(bad)


# ------------------------------------------------------------------ train


def train(ctx):
    from spellcap import seq2seq

    run, size = ctx.run, ctx.size
    corpus, dev = ctx.path("train.txt"), ctx.path("dev.txt")
    copies = []

    def setup_round():
        k = len(copies)
        out, out_dev = ctx.path(f"train.{k}.txt"), ctx.path(f"dev.{k}.txt")
        generate(ctx, size["train_n"], common.QUICKSTART_NOISE, 1, out, out_dev)
        copies.append((out, out_dev))

    setup_s = setup_rounds(ctx, setup_round)
    shutil.copy(copies[0][0], corpus)
    shutil.copy(copies[0][1], dev)
    shas = same_files(ctx, [corpus, dev], copies[1:], "train corpus")
    n_train = sum(1 for s in _samples(corpus))
    steps = math.ceil(n_train / 32) * size["epochs"]

    ckpt = ctx.path("model.ckpt")
    argv = ["train", "--train", corpus, "--dev", dev, "--out", ckpt,
            "--epochs", str(size["epochs"]), "--learning-rate", "0.001",
            "--batch-size", "32", "--seed", str(ctx.seed)]

    def unit():
        t0 = time.perf_counter()
        rc, _ = ctx.cli(argv)
        wall = time.perf_counter() - t0
        run.attempted += 1 + steps
        if not run.check(rc == 0, f"train exited {rc}"):
            run.failed += 1 + steps
        return wall, _history(ckpt + ".history.csv") if rc == 0 else None

    # The same command, at least ``train_commands`` times: the median wall
    # time drops a stretch when a shared machine ran the process slowly.
    units = ctx.traced(lambda: repeat_units(ctx.seconds, unit, size["train_commands"]))
    rss = peak_rss_mb()
    walls = [w for w, _ in units]
    histories = [h for _, h in units]
    history = histories[0] or []

    run.check(all(h == history for h in histories), "train is not deterministic")
    run.check(len(history) == size["epochs"], f"history has {len(history)} epochs")
    run.check(all(math.isfinite(x) for row in history for x in row[1:]),
              "non-finite loss in history")
    if history:
        run.check(history[-1][2] < UNIFORM_LOSS,
                  f"dev loss {history[-1][2]} no better than uniform")
    try:
        ck = seq2seq.load_checkpoint(ckpt)
        run.check(ck.bpe is not None and ck.config.vocab_size == len(ck.bpe.vocab),
                  "written checkpoint has no matching tokenizer")
        _, _, state, _ = seq2seq.load_train_state(ckpt + ".resume")
        resumed = [(h.epoch, round(h.train_loss, 6), round(h.dev_loss, 6))
                   for h in state.history]
        run.check(resumed == [(e, round(t, 6), round(d, 6)) for e, t, d in history],
                  "resume state history differs from the history CSV")
    except (OSError, ValueError) as e:
        run.check(False, f"written checkpoint does not load: {e}")

    run.recorded = {"corpus_sha256": shas[0], "dev_sha256": shas[1],
                    "history": history}
    if ctx.reference:
        ref = ctx.reference
        run.check(shas == [ref["corpus_sha256"], ref["dev_sha256"]],
                  "generated train/dev files differ from the reference")
        ok = len(history) == len(ref["history"]) and all(
            abs(a - b) <= LOSS_TOLERANCE
            for row, ref_row in zip(history, ref["history"])
            for a, b in zip(row[1:], ref_row[1:]))
        run.check(ok, f"losses {history} differ from reference {ref['history']} "
                      f"by more than {LOSS_TOLERANCE}")

    run.metrics = end_to_end(setup_s, rss, n_train * size["epochs"] / statistics.median(walls))
    run.details = {"train_s": statistics.median(walls),
                   "dev_loss": history[-1][2] if history else math.nan}


def _samples(path):
    from spellcap import datagen

    return datagen.load_dataset(path)


def _history(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [(int(e), float(t), float(d))
                for e, t, d in (line.strip().split(",") for line in fh)]


# ------------------------------------------------------------------ interactive


def interactive(ctx):
    from spellcap import seq2seq

    run, size = ctx.run, ctx.size
    inputs = ctx.path("interactive.txt")
    copies = []
    state = {}

    def setup_round():
        out = ctx.path(f"interactive.{len(copies)}.txt")
        generate(ctx, size["interactive_n"], common.QUICKSTART_NOISE, 2, out)
        copies.append([out])
        checkpoint_matches_recipe(ctx)
        state["ck"] = seq2seq.load_checkpoint(str(common.CHECKPOINT))

    setup_s = setup_rounds(ctx, setup_round)
    shutil.copy(copies[0][0], inputs)
    shas = same_files(ctx, [inputs], copies[1:], "interactive inputs")
    ck = state["ck"]
    samples = _samples(inputs)
    texts = [s.nbest[0].text() for s in samples]
    n = len(texts)

    def decode(k):
        """Utterance ``k``: greedy, then beam width 4; returns the two latencies
        in ms and the two (name, confidence) outputs, or None if it failed."""
        run.attempted += 1
        text = texts[k]
        try:
            a = time.perf_counter()
            g = seq2seq.predict_name(ck.params, ck.config, ck.bpe, text, beam_width=1)
            b = time.perf_counter()
            bm = seq2seq.predict_name(ck.params, ck.config, ck.bpe, text, beam_width=4)
            c = time.perf_counter()
        except ValueError as e:
            run.failed += 1
            run.check(False, f"utterance {k}: {e}")
            return None
        return (b - a) * 1e3, (c - b) * 1e3, ((g.name, g.confidence), (bm.name, bm.confidence))

    def closed_loop():
        """Every utterance once, in order, then around again while the time
        budget lasts."""
        done = []
        t0 = time.perf_counter()
        while len(done) < n or time.perf_counter() - t0 < ctx.seconds:
            done.append(decode(len(done) % n))
        return done

    done = ctx.traced(closed_loop)
    rss = peak_rss_mb()
    if any(d is None for d in done):
        return
    greedy_ms = [d[0] for d in done]
    beam_ms = [d[1] for d in done]
    # Throughput per chunk of consecutive utterances, median over chunks: a
    # moment when a shared machine stalled the process moves one chunk.
    chunk = size["chunk"]
    rates = [chunk * 1e3 / sum(greedy_ms[i:i + chunk] + beam_ms[i:i + chunk])
             for i in range(0, len(done) - chunk + 1, chunk)]

    first = [d[2] for d in done[:n]]
    run.check(all(d[2] == first[k % n] for k, d in enumerate(done)),
              "repeated utterances decoded differently")
    greedy = [o[0] for o in first]
    beam = [o[1] for o in first]
    for outputs, is_greedy, what in ((greedy, True, "greedy"), (beam, False, "beam4")):
        for text, (name, conf) in zip(texts, outputs):
            problem = rescore(ck, text, name, conf, is_greedy)
            if problem:
                run.failed += 1
                run.problems.append(f"{what} {problem}")
    run.recorded = {"input_sha256": shas[0], "greedy": greedy, "beam4": beam}
    if ctx.reference:
        run.check(shas[0] == ctx.reference["input_sha256"],
                  "generated utterances differ from the reference")
        compare_names(run, "greedy", greedy, [tuple(x) for x in ctx.reference["greedy"]])
        compare_names(run, "beam4", beam, [tuple(x) for x in ctx.reference["beam4"]])

    run.metrics = end_to_end(setup_s, rss, statistics.median(rates))
    run.details = {
        "greedy_p50_ms": percentile(greedy_ms, 50),
        "greedy_p99_ms": percentile(greedy_ms, 99),
        "beam4_p50_ms": percentile(beam_ms, 50),
        "beam4_p99_ms": percentile(beam_ms, 99),
    }


# ------------------------------------------------------------------ offline


def offline(ctx):
    """The batch pipeline over ``offline_shards`` files of NATO-heavy utterances.

    Each shard is one generate / predict / baseline / eval sequence on its own
    file; rates are medians over shards, so a slow moment on a shared machine
    moves one sample. Shards repeat, in order, while the time budget allows;
    errors cover each distinct shard once.
    """
    from spellcap import evalharness, seq2seq

    run, size = ctx.run, ctx.size
    n, n_shards = size["offline_n"], size["offline_shards"]
    ckpt = str(common.CHECKPOINT)

    def setup_round():
        # The pipeline loads its own inputs; set-up is the interpreter, the
        # imports and the reference checkpoint's integrity check.
        checkpoint_matches_recipe(ctx)

    setup_s = setup_rounds(ctx, setup_round)
    done = []

    def unit():
        shard = len(done) % n_shards
        data, model_out = ctx.path(f"nato.{shard}.txt"), ctx.path(f"seq2seq.{shard}.tsv")
        base_out = ctx.path(f"baseline.{shard}.tsv")
        commands = [
            ("predict", ["predict", "--checkpoint", ckpt, "--input", data,
                         "--out", model_out]),
            ("baseline", ["baseline", "--input", data, "--out", base_out,
                          "--confidence", "editdist"]),
            ("eval", ["eval", model_out, base_out, "--er-curve", ctx.path(f"er.{shard}.csv"),
                      "--plot", ctx.path(f"er.{shard}.svg")]),
        ]
        t0 = time.perf_counter()
        rc = generate(ctx, n, common.NATO_NOISE, 10 + shard, data)
        walls = {"generate": time.perf_counter() - t0}
        printed = ""
        for name, argv in commands:
            if rc != 0:
                break
            t0 = time.perf_counter()
            rc, out = ctx.cli(argv)
            walls[name] = time.perf_counter() - t0
            printed += out
            run.attempted += 1
            if not run.check(rc == 0, f"{name} exited {rc}"):
                run.failed += 1
        files = (data, model_out, base_out)
        done.append((walls, [common.sha256_file(f) for f in files] if rc == 0 else None))
        return shard, files, printed

    shards = ctx.traced(lambda: repeat_units(ctx.seconds, unit, min_units=n_shards))
    rss = peak_rss_mb()
    run.check(all(d[1] == done[i % n_shards][1] for i, d in enumerate(done)),
              "a repeated shard wrote different files")
    if run.problems:
        return

    ck = seq2seq.load_checkpoint(ckpt)
    all_model, all_base, recorded = [], [], []
    for shard, (data, model_out, base_out), printed in shards[:n_shards]:
        model_results, base_results = check_shard(ctx, ck, data, model_out, base_out,
                                                  ctx.path(f"er.{shard}"), printed)
        all_model += model_results
        all_base += base_results
        recorded.append({"input_sha256": done[shard][1][0],
                         "baseline_sha256": done[shard][1][2],
                         "seq2seq": [(r.prediction.name, r.prediction.confidence)
                                     for r in model_results]})
    run.recorded = {"shards": recorded}
    if ctx.reference:
        ref = ctx.reference["shards"]
        run.check(len(ref) == len(recorded), "reference has another shard count")
        for k, (got, want) in enumerate(zip(recorded, ref)):
            run.check(got["input_sha256"] == want["input_sha256"],
                      f"shard {k}: generated NATO-heavy dataset differs from the reference")
            run.check(got["baseline_sha256"] == want["baseline_sha256"],
                      f"shard {k}: baseline results file differs from the reference")
            compare_names(run, f"shard {k} predict", got["seq2seq"],
                          [tuple(x) for x in want["seq2seq"]])

    def rate(names):
        return statistics.median(n / sum(walls[k] for k in names) for walls, _ in done)

    run.metrics = end_to_end(setup_s, rss, rate(("generate", "predict", "baseline", "eval")))
    run.details = {
        "generate_samples_per_s": rate(("generate",)),
        "predict_utt_per_s": rate(("predict",)),
        "baseline_utt_per_s": rate(("baseline",)),
        "seq2seq_error": evalharness.exact_match_error(all_model),
        "baseline_error": evalharness.exact_match_error(all_base),
    }


def check_shard(ctx, ck, data, model_out, base_out, curve_stem, printed):
    """Check one shard's results files, curves and plot against its dataset."""
    from spellcap import evalharness

    run = ctx.run
    samples = _samples(data)
    model_results = evalharness.load_results(model_out)
    base_results = evalharness.load_results(base_out)
    golds = [s.gold for s in samples]
    run.attempted += 2 * len(samples)
    for what, results in (("seq2seq", model_results), ("baseline", base_results)):
        if not run.check([r.gold for r in results] == golds,
                         f"{what} results do not follow the samples of {data}"):
            run.failed += len(samples)
            return model_results, base_results
    for s, r in zip(samples, model_results):
        problem = rescore(ck, s.nbest[0].text(), r.prediction.name,
                          r.prediction.confidence, greedy=True)
        if problem:
            run.failed += 1
            run.problems.append(f"predict {problem}")
    for s, r in zip(samples, base_results):
        words = [t.word for t in s.nbest[0].tokens if len(t.word) > 1]
        name = r.prediction.name
        if words and name:
            want = 1.0 - levenshtein(name, words[0]) / max(len(name), len(words[0]))
            if r.prediction.confidence != want:
                run.failed += 1
                run.problems.append(f"baseline {name!r} vs {words[0]!r}: confidence "
                                    f"{r.prediction.confidence!r}, expected {want!r}")
    for label, path, results in (("seq2seq", model_out, model_results),
                                 ("baseline", base_out, base_results)):
        err = evalharness.exact_match_error(results)
        run.check(f"{path} error_rate {err:.4f} ({len(results)} results)" in printed,
                  f"eval did not report {label} error {err:.4f} for {path}")
        stem = os.path.basename(path).rsplit(".", 1)[0]
        points = evalharness.parse_csv(f"{curve_stem}.{stem}.csv")
        run.check(points[0].rejection_rate == 0.0 and abs(points[0].error_rate - err) < 1e-6,
                  f"{label} ER curve of {path} does not start at its error rate")
    with open(f"{curve_stem}.svg", encoding="utf-8") as fh:
        run.check(fh.read(4) == "<svg", "eval --plot wrote no SVG")
    return model_results, base_results


def levenshtein(a: str, b: str) -> int:
    """Plain two-row dynamic programme, the reference for the kernel."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


WORKLOADS = {"train": train, "interactive": interactive, "offline": offline}


def run_workload(name, seed, seconds, size="full", references=None, untraced=None):
    """Run one workload. Given the end-to-end metrics of an ``untraced`` run of
    the same workload and seed, this run is traced and fills ``Run.layers``."""
    ctx = Context(name, seed, seconds, size, references)
    if untraced is not None:
        from spans import Tracer

        ctx.tracer = Tracer()
    WORKLOADS[name](ctx)
    if untraced is not None and not ctx.run.problems:
        ctx.run.layers = layers.metrics(
            ctx, layers.overhead_pct(ctx.run.metrics, untraced))
    if not ctx.run.problems:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return ctx.run
