"""End-to-end tests for the spellcap command line.

Everything runs in-process through cli.main(argv) so exit codes and stdout
are asserted directly; no subprocesses.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from spellcap.cli import main, read_config
from spellcap.datagen import NoiseConfig, load_dataset
from spellcap.evalharness import load_results, parse_csv
from spellcap.seq2seq import ModelConfig, TrainConfig, load_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def zero_noise(tmp_path):
    noise = tmp_path / "noise.txt"
    noise.write_text(
        "letter_sub_prob=0\nfiller_prob=0\nnato_prob=0\nfullname_prob=0\n"
        "name_drop_prob=0\njitter=0\npattern_weights=1,1,0,0,0\n"
    )
    return str(noise)


@pytest.fixture()
def tiny_model(tmp_path):
    mc = tmp_path / "model.txt"
    mc.write_text("n_layers=1\nn_heads=2\nd_model=16\nd_ff=32\nn_merges=30\n")
    return str(mc)


# ----------------------------------------------------------- generate


def test_generate_writes_dataset_and_pattern_mix(tmp_path, capsys, zero_noise):
    out = tmp_path / "d.txt"
    code, stdout, _ = run(capsys, "generate", "--n", "40", "--seed", "3",
                          "--noise", zero_noise, "--out", str(out))
    assert code == 0
    assert f"wrote 40 samples to {out}" in stdout
    assert "SPELL_ONLY=" in stdout and "NATO_SPELL=0" in stdout
    assert len(load_dataset(out)) == 40


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "generate", "--n", "25", "--seed", "9", "--out", str(a))
    run(capsys, "generate", "--n", "25", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_dev_split_partitions(tmp_path, capsys):
    out, dev = tmp_path / "t.txt", tmp_path / "d.txt"
    code, stdout, _ = run(capsys, "generate", "--n", "50", "--seed", "1",
                          "--out", str(out), "--dev-out", str(dev),
                          "--dev-fraction", "0.2")
    assert code == 0
    assert "wrote 40 samples" in stdout and "10 to" in stdout
    assert len(load_dataset(out)) == 40
    assert len(load_dataset(dev)) == 10


def test_generate_rejects_bad_counts(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--n", "0", "--out", str(tmp_path / "x"))
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "generate", "--n", "5", "--out", str(tmp_path / "x"),
                       "--dev-out", str(tmp_path / "y"), "--dev-fraction", "1.5")
    assert code == 2 and "dev-fraction" in err
    # a split that would leave either file empty: 0 train, then 0 dev samples
    for n, fraction, counts in (("2", "0.9", "0 train and 2 dev"),
                                ("5", "0.05", "5 train and 0 dev")):
        code, _, err = run(capsys, "generate", "--n", n, "--out", str(tmp_path / "x"),
                           "--dev-out", str(tmp_path / "y"), "--dev-fraction", fraction)
        assert code == 2 and "--dev-fraction" in err and counts in err
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_generate_unknown_noise_key_is_config_error(tmp_path, capsys):
    noise = tmp_path / "n.txt"
    noise.write_text("warp_factor=9\n")
    code, _, err = run(capsys, "generate", "--n", "5", "--noise", str(noise),
                       "--out", str(tmp_path / "x"))
    assert code == 2 and "warp_factor" in err


def test_generate_malformed_noise_line_is_config_error(tmp_path, capsys):
    noise = tmp_path / "n.txt"
    for text, named in (("# comment\nletter_sub_prob 0.2\n", "line 2"),
                        ("nato_prob=0.3\n\nnato_prob=0.5\n",
                         "line 3: key 'nato_prob' already set on line 1")):
        noise.write_text(text)
        code, _, err = run(capsys, "generate", "--n", "5", "--noise", str(noise),
                           "--out", str(tmp_path / "x"))
        assert code == 2 and named in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, key", [
    ("nbest_size=two", "nbest_size"),
    ("pattern_weights=1,x,1,1,1", "pattern_weights"),
    ("pattern_weights=nan,1,1,1,1", "pattern_weights"),
])
def test_generate_ill_typed_noise_value_names_key(tmp_path, capsys, line, key):
    noise = tmp_path / "n.txt"
    noise.write_text(line + "\n")
    code, _, err = run(capsys, "generate", "--n", "5", "--noise", str(noise),
                       "--out", str(tmp_path / "x"))
    assert code == 2 and key in err


# Every accepted key of each config file, each set away from its default.
CONFIG_FILES = {
    "noise": (NoiseConfig, (), {}, (
        "letter_sub_prob=0.1\nconfusion_sets=bdp,mn\nfiller_prob=0.2\n"
        "nato_prob=0.3\nnato_variant_prob=0.4\nfullname_prob=0.5\n"
        "name_drop_prob=0.6\nconf_clean=0.8\nconf_noisy=0.4\njitter=0.1\n"
        "label_error_prob=0.05\nnbest_size=3\npattern_weights=1,2,0,0,1\n"
    ), NoiseConfig(
        letter_sub_prob=0.1, confusion_sets=(("b", "d", "p"), ("m", "n")),
        filler_prob=0.2, nato_prob=0.3, nato_variant_prob=0.4, fullname_prob=0.5,
        name_drop_prob=0.6, conf_clean=0.8, conf_noisy=0.4, jitter=0.1,
        label_error_prob=0.05, nbest_size=3, pattern_weights=(1.0, 2.0, 0.0, 0.0, 1.0),
    )),
    # the model file sets no vocab_size (BPE decides it) and adds n_merges
    "model": (ModelConfig, ("vocab_size",), {"n_merges": int}, (
        "n_layers=3\nn_heads=4\nd_model=32\nd_ff=48\ndropout=0.2\n"
        "max_src_len=120\nmax_tgt_len=40\nn_merges=77\n"
    ), ModelConfig(vocab_size=100, n_layers=3, n_heads=4, d_model=32, d_ff=48,
                   dropout=0.2, max_src_len=120, max_tgt_len=40)),
    "train": (TrainConfig, (), {}, (
        "# optimizer\n\nbatch_size = 8\nlearning_rate=0.002\nbeta1=0.8\n"
        "beta2=0.99\neps=1e-7\nepochs=3\nseed=12\npatience=2\n"
    ), TrainConfig(batch_size=8, learning_rate=0.002, beta1=0.8, beta2=0.99,
                   eps=1e-7, epochs=3, seed=12, patience=2)),
}


@pytest.mark.parametrize("name", CONFIG_FILES)
def test_config_file_sets_every_field(tmp_path, name):
    cls, skip, extra, text, direct = CONFIG_FILES[name]
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    kwargs = read_config(path, cls, skip, **extra)
    assert set(kwargs) == {f.name for f in fields(cls) if f.name not in skip} | set(extra)
    if name == "model":
        assert kwargs.pop("n_merges") == 77
        kwargs["vocab_size"] = 100
    loaded = cls(**kwargs)
    assert loaded == direct
    assert all(getattr(loaded, f.name) != f.default for f in fields(cls))


def test_generate_missing_lexicon_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--n", "5", "--out", str(tmp_path / "x"),
                       "--lexicon", str(tmp_path / "missing.txt"))
    assert code == 3 and "missing.txt" in err


def test_seed_env_var_used_when_no_flag(tmp_path, capsys, monkeypatch):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    monkeypatch.setenv("SPELLCAP_SEED", "42")
    run(capsys, "generate", "--n", "20", "--out", str(a))
    monkeypatch.delenv("SPELLCAP_SEED")
    run(capsys, "generate", "--n", "20", "--seed", "42", "--out", str(b))
    run(capsys, "generate", "--n", "20", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_seed_flag_beats_env_var(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    monkeypatch.setenv("SPELLCAP_SEED", "42")
    run(capsys, "generate", "--n", "20", "--seed", "7", "--out", str(a))
    monkeypatch.delenv("SPELLCAP_SEED")
    run(capsys, "generate", "--n", "20", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bad_seed_env_var_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPELLCAP_SEED", "not-a-number")
    code, _, err = run(capsys, "generate", "--n", "5", "--out", str(tmp_path / "x"))
    assert code == 2 and "SPELLCAP_SEED" in err
    # a negative seed is refused up front, naming where it came from
    monkeypatch.delenv("SPELLCAP_SEED")
    data, train_cfg = tmp_path / "d.txt", tmp_path / "t.cfg"
    assert run(capsys, "generate", "--n", "5", "--out", str(data))[0] == 0
    train_cfg.write_text("seed=-2\n")
    train = ("train", "--train", str(data), "--out", str(tmp_path / "m.ckpt"))
    for env, argv, named in (
        ("-1", ("generate", "--n", "5", "--out", str(tmp_path / "x")), "SPELLCAP_SEED"),
        ("-1", train, "SPELLCAP_SEED"),
        (None, ("generate", "--n", "5", "--seed", "-3", "--out", str(tmp_path / "x")),
         "--seed"),
        (None, train + ("--train-config", str(train_cfg)), "--train-config seed"),
    ):
        if env is not None:
            monkeypatch.setenv("SPELLCAP_SEED", env)
        code, _, err = run(capsys, *argv)
        monkeypatch.delenv("SPELLCAP_SEED", raising=False)
        assert code == 2 and f"{named} must be non-negative" in err
    assert not (tmp_path / "x").exists() and not (tmp_path / "m.ckpt").exists()


# ----------------------------------------------------------- train + predict

# One shared pipeline run keeps the slow training cost to a single fixture.


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    noise = root / "noise.txt"
    noise.write_text(
        "letter_sub_prob=0\nfiller_prob=0\nnato_prob=0\nfullname_prob=0\n"
        "name_drop_prob=0\njitter=0\npattern_weights=1,1,0,0,0\n"
    )
    mc = root / "model.txt"
    mc.write_text("n_layers=1\nn_heads=2\nd_model=16\nd_ff=32\nn_merges=30\n")
    tc = root / "train.txt.cfg"
    tc.write_text("epochs=2\nbatch_size=16\nlearning_rate=0.001\nseed=5\n")
    train, dev = root / "train.txt", root / "dev.txt"
    ckpt = root / "model.ckpt"
    assert main(["generate", "--n", "60", "--seed", "11", "--noise", str(noise),
                 "--out", str(train), "--dev-out", str(dev)]) == 0
    assert main(["train", "--train", str(train), "--dev", str(dev),
                 "--out", str(ckpt), "--model-config", str(mc),
                 "--train-config", str(tc)]) == 0
    return {"root": root, "train": train, "dev": dev, "ckpt": ckpt,
            "mc": mc, "tc": tc}


def test_train_writes_checkpoint_resume_and_history(pipeline):
    ckpt = pipeline["ckpt"]
    assert ckpt.exists()
    assert (ckpt.parent / (ckpt.name + ".resume")).exists()
    history = ckpt.parent / (ckpt.name + ".history.csv")
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,dev_loss"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) > 0


def test_checkpoint_carries_tokenizer(pipeline):
    ck = load_checkpoint(pipeline["ckpt"])
    assert ck.bpe is not None
    assert json.loads(pipeline["ckpt"].read_bytes().partition(b"\n")[0])["dtype"] == "float32"


def test_resume_matches_straight_training(pipeline, capsys):
    root = pipeline["root"]
    resumed, straight = root / "resumed.ckpt", root / "straight.ckpt"
    code, _, _ = run(capsys, "train", "--train", str(pipeline["train"]),
                     "--dev", str(pipeline["dev"]), "--out", str(resumed),
                     "--resume", str(pipeline["ckpt"]) + ".resume",
                     "--train-config", str(pipeline["tc"]), "--epochs", "4")
    assert code == 0
    code, _, _ = run(capsys, "train", "--train", str(pipeline["train"]),
                     "--dev", str(pipeline["dev"]), "--out", str(straight),
                     "--model-config", str(pipeline["mc"]),
                     "--train-config", str(pipeline["tc"]), "--epochs", "4")
    assert code == 0
    a, b = load_checkpoint(resumed), load_checkpoint(straight)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])


def test_resume_rejects_model_config(pipeline, capsys):
    code, _, err = run(capsys, "train", "--train", str(pipeline["train"]),
                       "--out", str(pipeline["root"] / "x.ckpt"),
                       "--resume", str(pipeline["ckpt"]) + ".resume",
                       "--model-config", str(pipeline["mc"]))
    assert code == 2 and "--model-config" in err


def test_train_unknown_config_key_is_config_error(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("momentum=0.9\n")
    code, _, err = run(capsys, "train", "--train", str(pipeline["train"]),
                       "--out", str(tmp_path / "x.ckpt"),
                       "--train-config", str(bad))
    assert code == 2 and "momentum" in err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_train_non_finite_learning_rate_is_config_error(pipeline, tmp_path, capsys, rate):
    code, _, err = run(capsys, "train", "--train", str(pipeline["train"]),
                       "--out", str(tmp_path / "x.ckpt"), "--learning-rate", rate)
    assert code == 2 and "learning_rate" in err
    assert not (tmp_path / "x.ckpt").exists()


def test_model_config_rejects_vocab_size(pipeline, tmp_path, capsys):
    bad = tmp_path / "model.txt"
    bad.write_text("d_model=16\nvocab_size=40\n")
    code, _, err = run(capsys, "train", "--train", str(pipeline["train"]),
                       "--out", str(tmp_path / "x.ckpt"),
                       "--model-config", str(bad))
    assert code == 2 and "line 2" in err and "'vocab_size'" in err


def test_negative_n_merges_exits_2(pipeline, tmp_path, capsys):
    bad = tmp_path / "model.txt"
    bad.write_text("n_merges=-1\n")
    code, _, err = run(capsys, "train", "--train", str(pipeline["train"]),
                       "--out", str(tmp_path / "x.ckpt"), "--model-config", str(bad))
    assert code == 2 and "n_merges must be non-negative, got -1" in err


LONG_SOURCE = "1|" + "a/0.9 " * 240 + "|ann"


@pytest.mark.parametrize("bad_file, bad_line, model_lines, resume, limit", [
    ("dev", LONG_SOURCE, "", False, "max_src_len"),
    ("train", LONG_SOURCE, "", False, "max_src_len"),
    ("train", "1|j/0.9 e/0.9 n/0.9 n/0.9 i/0.9 f/0.9 e/0.9 r/0.9|jennifer",
     "max_tgt_len=6\n", False, "max_tgt_len"),
    ("dev", LONG_SOURCE, None, True, "max_src_len"),
], ids=["dev_source", "train_source", "gold_name", "dev_source_on_resume"])
def test_train_checks_every_sample_before_the_first_step(pipeline, tmp_path, capsys,
                                                         bad_file, bad_line, model_lines,
                                                         resume, limit):
    # the bad sample is the second of its file, which training would reach
    # only after the first epoch (dev) or at the batch that draws it (train)
    files = {"train": tmp_path / "train.txt", "dev": tmp_path / "dev.txt"}
    for name, path in files.items():
        lines = ["1|v/0.9 e/0.9 r/0.9 a/0.9|vera", "1|j/0.9 o/0.9 n/0.9|jon"]
        if name == bad_file:
            lines[1] = bad_line
        path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.ckpt"
    argv = ["train", "--train", str(files["train"]), "--dev", str(files["dev"]),
            "--out", str(out), "--epochs", "3"]
    if resume:
        argv += ["--resume", str(pipeline["ckpt"]) + ".resume"]
    else:
        mc = tmp_path / "model.txt"
        mc.write_text(pipeline["mc"].read_text() + model_lines)
        argv += ["--model-config", str(mc)]
    code, _, err = run(capsys, *argv)
    assert code == 3 and f"file {files[bad_file]} sample 2: " in err and limit in err
    assert not out.exists() and not (tmp_path / "x.ckpt.resume").exists()


def test_predict_on_dataset_file(pipeline, capsys):
    out = pipeline["root"] / "pred.tsv"
    code, stdout, _ = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                          "--input", str(pipeline["dev"]), "--out", str(out))
    assert code == 0 and "wrote 6 predictions" in stdout
    results = load_results(out)
    samples = load_dataset(pipeline["dev"])
    assert [r.gold for r in results] == [s.gold for s in samples]
    assert all(r.prediction.source == "seq2seq" for r in results)


def test_predict_raw_text_stdin(pipeline, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("v e r a\n\nj o n e s\n"))
    out = pipeline["root"] / "stdin.tsv"
    code, stdout, _ = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                          "--input", "-", "--out", str(out))
    assert code == 0 and "wrote 2 predictions" in stdout
    results = load_results(out)
    assert [r.gold for r in results] == ["-", "-"]


def test_predict_raw_text_is_lowercased(pipeline, capsys, monkeypatch):
    import io
    outs = []
    for text in ("TOM T O M\nVera V E R A\n", "tom t o m\nvera v e r a\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out = pipeline["root"] / f"case{len(outs)}.tsv"
        code, _, _ = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                         "--input", "-", "--out", str(out))
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["predict", "--checkpoint", "{ckpt}", "--input", "{bad}", "--out", "{out}"],
    ["baseline", "--input", "{bad}", "--out", "{out}"],
    ["eval", "{bad}"],
    ["train", "--train", "{bad}", "--out", "{out}"],
    ["generate", "--lexicon", "{bad}", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_invalid_utf8_exits_3(pipeline, tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"v e r a\n\xff\xfe j o n\n")
    paths = {"ckpt": pipeline["ckpt"], "bad": bad, "out": tmp_path / "x.out"}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3 and "error: input is not valid UTF-8" in err
    assert not (tmp_path / "x.out").exists()


def predict_with_manifest(pipeline, tmp_path, capsys, corrupt):
    """Run predict on a copy of the pipeline checkpoint whose manifest
    ``corrupt`` edited in place; returns (exit code, stderr)."""
    blob = pipeline["ckpt"].read_bytes()
    nl = blob.find(b"\n")
    manifest = json.loads(blob[:nl])
    corrupt(manifest)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(manifest).encode() + blob[nl:])
    text = tmp_path / "in.txt"
    text.write_text("v e r a\n")
    code, _, err = run(capsys, "predict", "--checkpoint", str(bad),
                       "--input", str(text), "--out", str(tmp_path / "x.tsv"))
    return code, err


def test_predict_malformed_checkpoint_manifest_exits_3(pipeline, tmp_path, capsys):
    code, err = predict_with_manifest(pipeline, tmp_path, capsys,
                                      lambda m: m.pop("tensors"))
    assert code == 3 and "manifest tensors" in err


def test_predict_malformed_bpe_block_exits_3(pipeline, tmp_path, capsys):
    code, err = predict_with_manifest(pipeline, tmp_path, capsys,
                                      lambda m: m["bpe"].pop("merges"))
    assert code == 3 and "bpe merges" in err


def test_predict_checkpoint_without_bpe_exits_3(pipeline, tmp_path, capsys):
    code, err = predict_with_manifest(pipeline, tmp_path, capsys,
                                      lambda m: m.pop("bpe"))
    assert code == 3 and "manifest bpe" in err


def test_predict_fractional_layer_count_exits_3(pipeline, tmp_path, capsys):
    code, err = predict_with_manifest(pipeline, tmp_path, capsys,
                                      lambda m: m["config"].update(n_layers=1.5))
    assert code == 3 and "config.n_layers must be int, got 1.5" in err


@pytest.mark.parametrize("lines, line_no", [
    (["v e r a", "a " * 200], 2),
    (["1|v/0.9 e/0.9|vera", "2|v/0.5|vera", "1|" + "a/0.9 " * 200 + "|ann"], 3),
])
def test_predict_overlong_utterance_exits_3_with_line(pipeline, tmp_path, capsys,
                                                      lines, line_no):
    text = tmp_path / "long.txt"
    text.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                       "--input", str(text), "--out", str(tmp_path / "x.tsv"))
    assert code == 3 and f"line {line_no}:" in err and "max_src_len" in err


def test_predict_checks_every_line_before_decoding(pipeline, tmp_path, capsys):
    # line 11 sits in the second chunk of 8; the first chunk is never written
    lines = ["v e r a"] * 12
    lines[10] = "a " * 200
    text = tmp_path / "long.txt"
    text.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.tsv"
    code, _, err = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                       "--input", str(text), "--out", str(out))
    assert code == 3 and "line 11:" in err and "max_src_len" in err
    assert not out.exists()


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("normalize", [False, True])
def test_chunked_predict_matches_per_line_predict_name(pipeline, tmp_path, capsys,
                                                       width, normalize):
    from spellcap.seq2seq.decode import CHUNK, predict_name

    out = tmp_path / "p.tsv"
    argv = ["predict", "--checkpoint", str(pipeline["ckpt"]), "--input",
            str(pipeline["train"]), "--out", str(out), "--beam-width", str(width)]
    code, _, _ = run(capsys, *argv + ["--length-normalize"] * normalize)
    assert code == 0
    ck = load_checkpoint(pipeline["ckpt"])
    samples = load_dataset(pipeline["train"])
    assert len(samples) > 2 * CHUNK
    results = load_results(out)
    assert [r.gold for r in results] == [s.gold for s in samples]
    for s, r in zip(samples, results):
        want = predict_name(ck.params, ck.config, ck.bpe, s.nbest[0].text(),
                            beam_width=width, length_normalize=normalize)
        assert r.prediction.name == want.name
        assert abs(r.prediction.confidence - want.confidence) <= 1e-9


def test_predict_summary_on_stderr(pipeline, tmp_path, capsys):
    import re

    from spellcap.seq2seq.decode import _search, source_ids

    # a checkpoint that emits at most 2 characters, so some names are cut
    blob = pipeline["ckpt"].read_bytes()
    nl = blob.find(b"\n")
    manifest = json.loads(blob[:nl])
    manifest["config"]["max_tgt_len"] = 2
    short = tmp_path / "short.ckpt"
    short.write_bytes(json.dumps(manifest).encode() + blob[nl:])
    out = tmp_path / "p.tsv"
    code, stdout, err = run(capsys, "predict", "--checkpoint", str(short),
                            "--input", str(pipeline["dev"]), "--out", str(out))
    assert code == 0 and stdout == f"wrote 6 predictions to {out}\n"
    ck = load_checkpoint(short)
    unfinished = sum(
        not _search(ck.params, ck.config,
                    [source_ids(ck.config, ck.bpe, s.nbest[0].text())], 1)[0][0].reached_eos
        for s in load_dataset(pipeline["dev"]))
    assert unfinished > 0
    summary = err.splitlines()[-1]
    assert re.fullmatch(r"predict: 6 utterances, \d+\.\d utterances/s, "
                        rf"{unfinished} never reached EOS", summary), summary


def test_predict_dataset_stdin_is_sniffed(pipeline, capsys, monkeypatch):
    import io
    text = pipeline["dev"].read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = pipeline["root"] / "sniffed.tsv"
    code, _, _ = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                     "--input", "-", "--out", str(out))
    assert code == 0
    assert [r.gold for r in load_results(out)] != ["-"] * 6


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank_lines"])
def test_predict_empty_input_exits_3(pipeline, tmp_path, capsys, text):
    # eval refuses an empty results file, so predict writes none
    empty = tmp_path / "empty.txt"
    empty.write_text(text)
    out = tmp_path / "out.tsv"
    code, _, err = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                       "--input", str(empty), "--out", str(out))
    assert code == 3 and str(empty) in err
    assert not out.exists()


def test_predict_beam_width_validation(pipeline, tmp_path, capsys):
    code, _, err = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]),
                       "--input", str(pipeline["dev"]),
                       "--out", str(tmp_path / "x.tsv"), "--beam-width", "0")
    assert code == 2 and "beam-width" in err


def test_predict_beam_width_is_checked_before_the_checkpoint(tmp_path, capsys):
    code, _, err = run(capsys, "predict", "--checkpoint", str(tmp_path / "missing.ckpt"),
                       "--input", str(tmp_path / "missing.txt"),
                       "--out", str(tmp_path / "x.tsv"), "--beam-width", "0")
    assert code == 2 and "--beam-width must be >= 1, got 0" in err


def test_predict_shape_mismatch_exits_2(pipeline, tmp_path, capsys):
    import json
    raw = pipeline["ckpt"].read_bytes()
    head, _, rest = raw.partition(b"\n")
    manifest = json.loads(head)
    manifest["config"]["d_model"] = 64
    doctored = tmp_path / "doctored.ckpt"
    doctored.write_bytes(json.dumps(manifest, sort_keys=True,
                                    separators=(",", ":")).encode() + b"\n" + rest)
    code, _, err = run(capsys, "predict", "--checkpoint", str(doctored),
                       "--input", str(pipeline["dev"]),
                       "--out", str(tmp_path / "x.tsv"))
    assert code == 2 and "shape" in err


def test_predict_refuses_a_resume_file(pipeline, tmp_path, capsys):
    code, _, err = run(capsys, "predict", "--checkpoint", str(pipeline["ckpt"]) + ".resume",
                       "--input", str(pipeline["dev"]),
                       "--out", str(tmp_path / "x.tsv"))
    assert code == 3 and "a training resume file, not a model checkpoint" in err


def test_predict_corrupt_checkpoint_exits_3(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all\n")
    code, _, err = run(capsys, "predict", "--checkpoint", str(bad),
                       "--input", str(pipeline["dev"]),
                       "--out", str(tmp_path / "x.tsv"))
    assert code == 3


# ----------------------------------------------------------- baseline


def test_baseline_zero_noise_is_perfect(tmp_path, capsys, zero_noise):
    data = tmp_path / "d.txt"
    out = tmp_path / "b.tsv"
    run(capsys, "generate", "--n", "50", "--seed", "2", "--noise", zero_noise,
        "--out", str(data))
    code, stdout, _ = run(capsys, "baseline", "--input", str(data),
                          "--out", str(out))
    assert code == 0 and "wrote 50" in stdout
    results = load_results(out)
    assert all(r.correct for r in results)
    assert all(r.prediction.source == "baseline" for r in results)


def test_baseline_letter_average_confidence(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("1|j/0.9000 o/0.8000 n/0.6000 e/0.3000 s/0.2000|jones\n")
    out = tmp_path / "b.tsv"
    assert main(["baseline", "--input", str(data), "--out", str(out)]) == 0
    capsys.readouterr()
    (r,) = load_results(out)
    assert r.prediction.name == "jones"
    assert abs(r.prediction.confidence - 0.56) < 1e-12


def test_baseline_editdist_confidence(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("1|jennifer/0.9000 j/0.9000 e/0.9000 n/0.9000 n/0.9000 "
                    "i/0.9000 s/0.9000 e/0.9000 r/0.9000|jennifer\n")
    out = tmp_path / "b.tsv"
    assert main(["baseline", "--input", str(data), "--out", str(out),
                 "--confidence", "editdist"]) == 0
    capsys.readouterr()
    (r,) = load_results(out)
    assert r.prediction.name == "jenniser"
    assert abs(r.prediction.confidence - 0.875) < 1e-12


def test_baseline_malformed_dataset_exits_3(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("not a dataset line\n")
    code, _, err = run(capsys, "baseline", "--input", str(data),
                       "--out", str(tmp_path / "x.tsv"))
    assert code == 3 and "line 1" in err


def test_baseline_four_hypothesis_group_exits_3(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("1|v/0.9|vera\n" + "".join(f"{r}|j/0.9|jo\n" for r in range(1, 5)))
    code, _, err = run(capsys, "baseline", "--input", str(data),
                       "--out", str(tmp_path / "x.tsv"))
    assert code == 3 and "line 2:" in err and "1..3" in err


# ----------------------------------------------------------- eval


def _write_results(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for gold, name, conf in rows:
            fh.write(f"{gold}\t{name}\t{conf!r}\tbaseline\n")


def test_eval_prints_error_rate(tmp_path, capsys):
    res = tmp_path / "r.tsv"
    _write_results(res, [("vera", "vera", 0.9), ("sara", "sarah", 0.4),
                         ("tom", "tom", 0.8), ("ann", "ann", 0.7)])
    code, stdout, _ = run(capsys, "eval", str(res))
    assert code == 0
    assert f"{res} error_rate 0.2500 (4 results)" in stdout


def test_eval_er_curve_endpoints(tmp_path, capsys):
    res = tmp_path / "r.tsv"
    _write_results(res, [("a", "a", 0.9), ("b", "x", 0.1),
                         ("c", "c", 0.8), ("d", "d", 0.7)])
    csv_path = tmp_path / "er.csv"
    code, _, _ = run(capsys, "eval", str(res), "--er-curve", str(csv_path),
                     "--n-points", "5")
    assert code == 0
    points = parse_csv(csv_path)
    # 4 samples only admit 4 distinct rejection counts; duplicates collapse
    assert len(points) == 4
    assert points[0].rejection_rate == 0.0
    assert abs(points[0].error_rate - 0.25) < 1e-12
    # the one wrong answer has the lowest confidence, so any rejection clears it
    assert points[1].error_rate == 0.0


def test_eval_multiple_files_suffixes_curves(tmp_path, capsys):
    r1, r2 = tmp_path / "pred.tsv", tmp_path / "base.tsv"
    _write_results(r1, [("a", "a", 0.9), ("b", "x", 0.1)])
    _write_results(r2, [("a", "a", 0.8), ("b", "b", 0.6)])
    csv_path = tmp_path / "er.csv"
    svg_path = tmp_path / "er.svg"
    code, stdout, _ = run(capsys, "eval", str(r1), str(r2),
                          "--er-curve", str(csv_path), "--plot", str(svg_path),
                          "--n-points", "3")
    assert code == 0
    assert (tmp_path / "er.pred.csv").exists()
    assert (tmp_path / "er.base.csv").exists()
    assert not csv_path.exists()
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2
    assert ">pred<" in svg and ">base<" in svg
    assert "error_rate 0.5000" in stdout and "error_rate 0.0000" in stdout


def test_eval_duplicate_stems_stay_distinct(tmp_path, capsys):
    d1 = tmp_path / "x"
    d2 = tmp_path / "y"
    d1.mkdir(), d2.mkdir()
    r1, r2 = d1 / "run.tsv", d2 / "run.tsv"
    _write_results(r1, [("a", "a", 0.9), ("b", "b", 0.2)])
    _write_results(r2, [("a", "a", 0.7), ("b", "x", 0.4)])
    svg_path = tmp_path / "er.svg"
    code, _, _ = run(capsys, "eval", str(r1), str(r2), "--plot", str(svg_path),
                     "--n-points", "3")
    assert code == 0
    svg = svg_path.read_text()
    assert ">run<" in svg and ">run.2<" in svg


def test_eval_empty_results_exits_2(tmp_path, capsys):
    res = tmp_path / "empty.tsv"
    res.write_text("")
    code, _, err = run(capsys, "eval", str(res))
    assert code == 2 and "no results" in err


@pytest.mark.parametrize("flag", ["--er-curve", "--plot"])
def test_eval_curve_of_one_result_exits_2_naming_file_and_flag(tmp_path, capsys, flag):
    good, one = tmp_path / "good.tsv", tmp_path / "one.tsv"
    _write_results(good, [("a", "a", 0.9), ("b", "x", 0.1)])
    _write_results(one, [("vera", "vera", 0.9)])
    out = tmp_path / "curve.out"
    code, _, err = run(capsys, "eval", str(good), str(one), flag, str(out))
    assert code == 2
    assert str(one) in err and flag in err
    assert sorted(tmp_path.iterdir()) == sorted([good, one])  # no curve written


@pytest.mark.parametrize("flag", ["--er-curve", "--plot"])
def test_eval_n_points_is_checked_before_any_file(tmp_path, capsys, flag):
    res = tmp_path / "r.tsv"
    _write_results(res, [("a", "a", 0.9), ("b", "x", 0.1)])
    code, out, err = run(capsys, "eval", str(res), flag, str(tmp_path / "curve.out"),
                         "--n-points", "1")
    assert code == 2 and out == ""
    assert f"--n-points must be >= 2 for {flag}, got 1" in err and str(res) not in err
    assert sorted(tmp_path.iterdir()) == [res]


def test_eval_malformed_results_exits_3(tmp_path, capsys):
    res = tmp_path / "bad.tsv"
    res.write_text("only\ttwo\n")
    code, _, _ = run(capsys, "eval", str(res))
    assert code == 3


@pytest.mark.parametrize("row, message", [
    ("vera\tvera\t-0.5\tno results", "unknown prediction source 'no results'"),
    ("vera\tvera\tno results\tseq2seq", "bad confidence 'no results'"),
])
def test_eval_malformed_row_naming_no_results_exits_3(tmp_path, capsys, row, message):
    # only an empty results file is a usage error (exit 2); a bad row is bad
    # data whatever its text says
    res = tmp_path / "r.tsv"
    res.write_text(row + "\n")
    code, _, err = run(capsys, "eval", str(res))
    assert code == 3 and "line 1:" in err and message in err


@pytest.mark.parametrize("conf", ["nan", "inf", "-inf"])
def test_eval_non_finite_confidence_exits_3(tmp_path, capsys, conf):
    res = tmp_path / "r.tsv"
    res.write_text(f"vera\tvera\t-0.5\tseq2seq\nann\tann\t{conf}\tseq2seq\n")
    code, _, err = run(capsys, "eval", str(res))
    assert code == 3 and "line 2:" in err and repr(conf) in err


def test_predict_and_baseline_outputs_feed_eval(pipeline, tmp_path, capsys):
    pred = pipeline["root"] / "pred.tsv"
    base = tmp_path / "base.tsv"
    if not pred.exists():
        assert main(["predict", "--checkpoint", str(pipeline["ckpt"]),
                     "--input", str(pipeline["dev"]), "--out", str(pred)]) == 0
    assert main(["baseline", "--input", str(pipeline["dev"]),
                 "--out", str(base)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(capsys, "eval", str(pred), str(base))
    assert code == 0
    assert stdout.count("error_rate") == 2
