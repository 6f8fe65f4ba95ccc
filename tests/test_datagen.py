import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spellcap.baseline import Prediction, baseline_predict
from spellcap.datagen import (
    NATO_SPELL,
    NAME_NATO_MIX,
    NAME_THEN_SPELL,
    NATO_TABLE,
    PATTERNS,
    SPELL_ONLY,
    SPELL_THEN_NAME,
    LabeledSample,
    Lexicon,
    NoiseConfig,
    corrupt,
    default_lexicon_path,
    generate_dataset,
    load_dataset,
    load_lexicon,
    render_utterance,
    save_dataset,
    train_dev_split,
)
from spellcap.errors import ConfigError, DataFormatError
from spellcap.evalharness import ScoredResult, load_results, save_results


ZERO = NoiseConfig()
LEX = Lexicon(("vera", "sara", "daren", "jennifer", "tim", "weber"))


def rng(seed=0):
    return np.random.default_rng(seed)


def generate(lex, n, cfg, seed):
    """The samples of ``generate_dataset``, without their pattern names."""
    return [s for s, _ in generate_dataset(lex, n, cfg, seed=seed)]


# ---------------------------------------------------------------- lexicon


def test_load_lexicon_lowercases_and_keeps_order(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("Vera\nSara\n")
    lex = load_lexicon(str(p))
    assert lex.names == ("vera", "sara")
    assert lex.weights is None


def test_load_lexicon_collapses_duplicates(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("vera\nVERA\nsara\n")
    assert load_lexicon(str(p)).names == ("vera", "sara")


def test_load_lexicon_bad_weight_names_line(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("daren\tnotanumber\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_lexicon(str(p))
    for weight in ("nan", "inf", "-inf", "0"):
        p.write_text(f"vera\t2\ndaren\t{weight}\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_lexicon(str(p))


def test_load_lexicon_weights(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("vera\t3\nsara\n")
    lex = load_lexicon(str(p))
    assert lex.weights == (3.0, 1.0)


def test_load_lexicon_empty_rejected(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("\n\n")
    with pytest.raises(DataFormatError, match="no names"):
        load_lexicon(str(p))


def test_bundled_lexicon_loads():
    lex = load_lexicon(default_lexicon_path())
    assert len(lex.names) == 200
    assert len(set(lex.names)) == 200


# ---------------------------------------------------------------- rendering


def test_render_name_then_spell():
    toks = render_utterance("jennifer", NAME_THEN_SPELL, rng(), ZERO)
    assert toks == ["jennifer", "j", "e", "n", "n", "i", "f", "e", "r"]


def test_render_spell_then_name():
    toks = render_utterance("daren", SPELL_THEN_NAME, rng(), ZERO)
    assert toks == ["d", "a", "r", "e", "n", "daren"]


def test_render_nato_all_letters_canonical():
    cfg = NoiseConfig(nato_prob=1.0, nato_variant_prob=0.0)
    toks = render_utterance("tim", NATO_SPELL, rng(), cfg)
    assert toks == ["t", "as", "in", "tango",
                    "i", "as", "in", "india",
                    "m", "as", "in", "mike"]


def test_render_nato_variants_come_from_table():
    cfg = NoiseConfig(nato_prob=1.0, nato_variant_prob=1.0)
    for seed in range(10):
        toks = render_utterance("maria", NATO_SPELL, rng(seed), cfg)
        i = 0
        for c in "maria":
            assert toks[i] == c
            assert toks[i + 1 : i + 3] == ["as", "in"]
            assert toks[i + 3] in NATO_TABLE[c]
            i += 4


def test_render_apostrophe_is_silent():
    toks = render_utterance("o'brien", NAME_THEN_SPELL, rng(), ZERO)
    assert toks == ["o'brien", "o", "b", "r", "i", "e", "n"]


def test_render_unknown_pattern():
    with pytest.raises(ValueError, match="unknown pattern"):
        render_utterance("vera", "SHOUT", rng(), ZERO)


# ---------------------------------------------------------------- corruption


def test_zero_noise_is_identity_channel():
    clean = render_utterance("vera", NAME_THEN_SPELL, rng(), ZERO)
    s = corrupt(clean, "vera", ZERO, rng())
    assert len(s.nbest) == 1
    hyp = s.nbest[0]
    assert [t.word for t in hyp.tokens] == clean
    assert all(t.confidence == ZERO.conf_clean for t in hyp.tokens)
    assert s.gold == "vera"


def test_letter_substitution_in_confusion_set():
    cfg = NoiseConfig(letter_sub_prob=1.0, confusion_sets=(("f", "s"),))
    clean = render_utterance("jennifer", NAME_THEN_SPELL, rng(), cfg)
    s = corrupt(clean, "jennifer", cfg, rng(5))
    letters = [t.word for t in s.nbest[0].tokens if len(t.word) == 1]
    assert letters == ["j", "e", "n", "n", "i", "s", "e", "r"]
    assert s.gold == "jennifer"


def test_substituted_letters_get_noisy_confidence():
    cfg = NoiseConfig(letter_sub_prob=1.0, confusion_sets=(("f", "s"),),
                      conf_clean=0.9, conf_noisy=0.4)
    clean = ["j", "e", "n", "n", "i", "f", "e", "r"]
    s = corrupt(clean, "jennifer", cfg, rng(5))
    by_text = {(i, t.word): t.confidence for i, t in enumerate(s.nbest[0].tokens)}
    assert by_text[(5, "s")] == 0.4
    assert by_text[(0, "j")] == 0.9


def test_distractor_block_appended_gold_unchanged():
    cfg = NoiseConfig(fullname_prob=1.0, letter_sub_prob=1.0,
                      confusion_sets=(("v", "b"),))
    clean = render_utterance("sara", NAME_THEN_SPELL, rng(), cfg)
    s = corrupt(clean, "sara", cfg, rng(2), distractors=["weber"])
    texts = [t.word for t in s.nbest[0].tokens]
    j = texts.index("last")
    assert texts[j : j + 3] == ["last", "name", "weber"]
    assert texts[j + 3 :] == ["w", "e", "v", "e", "r"]
    assert s.gold == "sara"


def test_name_drop_removes_name_token():
    cfg = NoiseConfig(name_drop_prob=1.0)
    clean = render_utterance("vera", NAME_THEN_SPELL, rng(), cfg)
    s = corrupt(clean, "vera", cfg, rng())
    assert [t.word for t in s.nbest[0].tokens] == ["v", "e", "r", "a"]


def test_fillers_prepend():
    cfg = NoiseConfig(filler_prob=1.0)
    clean = ["v", "e", "r", "a"]
    s = corrupt(clean, "vera", cfg, rng(1))
    texts = [t.word for t in s.nbest[0].tokens]
    k = len(texts) - 4
    assert 1 <= k <= 2
    assert all(t in ("um", "uh") for t in texts[:k])
    assert texts[k:] == clean


def test_confidences_clamped_under_heavy_jitter():
    cfg = NoiseConfig(letter_sub_prob=0.5, conf_clean=0.95, conf_noisy=0.05,
                      jitter=0.5)
    r = rng(7)
    for _ in range(50):
        clean = render_utterance("jennifer", NAME_THEN_SPELL, r, cfg)
        s = corrupt(clean, "jennifer", cfg, r)
        for t in s.nbest[0].tokens:
            assert 0.01 <= t.confidence <= 1.0


def test_nbest_ranks_and_independence():
    cfg = NoiseConfig(letter_sub_prob=0.5, nbest_size=3)
    clean = render_utterance("jennifer", NAME_THEN_SPELL, rng(), cfg)
    s = corrupt(clean, "jennifer", cfg, rng(3))
    assert [h.rank for h in s.nbest] == [1, 2, 3]
    texts = {tuple(t.word for t in h.tokens) for h in s.nbest}
    assert len(texts) > 1  # independent corruption passes rarely coincide


def test_gold_never_altered_by_corruption():
    cfg = NoiseConfig(letter_sub_prob=1.0, filler_prob=1.0, fullname_prob=1.0,
                      name_drop_prob=0.5, jitter=0.3, nbest_size=2)
    r = rng(11)
    for name in LEX.names:
        clean = render_utterance(name, NAME_THEN_SPELL, r, cfg)
        s = corrupt(clean, name, cfg, r, distractors=LEX.names)
        assert s.gold == name


# ---------------------------------------------------------------- generation


def test_generate_deterministic_bytes(tmp_path):
    cfg = NoiseConfig(letter_sub_prob=0.2, filler_prob=0.3, nato_prob=0.5,
                      fullname_prob=0.2, jitter=0.1, nbest_size=2)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(generate(LEX, 40, cfg, seed=9), str(a))
    save_dataset(generate(LEX, 40, cfg, seed=9), str(b))
    assert a.read_bytes() == b.read_bytes()
    save_dataset(generate(LEX, 40, cfg, seed=10), str(b))
    assert a.read_bytes() != b.read_bytes()


def test_zero_noise_baseline_recovers_gold():
    cfg = NoiseConfig(pattern_weights=(1.0, 1.0, 0.0, 0.0, 0.0))
    for s in generate(LEX, 100, cfg, seed=4):
        assert baseline_predict(s.nbest).name == s.gold


def test_nato_only_defeats_letter_extraction_sometimes():
    cfg = NoiseConfig(nato_prob=1.0, pattern_weights=(0.0, 0.0, 0.0, 1.0, 0.0))
    samples = generate(LEX, 200, cfg, seed=4)
    hits = sum(baseline_predict(s.nbest).name == s.gold for s in samples)
    assert 0 < hits < len(samples)


def test_every_pattern_occurs():
    cfg = NoiseConfig(nato_prob=1.0, nato_variant_prob=0.0)
    samples = generate(LEX, 10 * len(PATTERNS), cfg, seed=0)
    seen = set()
    for s in samples:
        texts = [t.word for t in s.nbest[0].tokens]
        has_nato = "as" in texts
        name_first = len(texts[0]) > 1
        name_last = len(texts[-1]) > 1
        if has_nato:
            seen.add(NAME_NATO_MIX if name_first else NATO_SPELL)
        elif name_first:
            seen.add(NAME_THEN_SPELL)
        elif name_last:
            seen.add(SPELL_THEN_NAME)
        else:
            seen.add(SPELL_ONLY)
    assert seen == set(PATTERNS)


def test_label_error_detaches_gold_from_utterance():
    cfg = NoiseConfig(label_error_prob=1.0,
                      pattern_weights=(1.0, 0.0, 0.0, 0.0, 0.0))
    samples = generate(LEX, 30, cfg, seed=2)
    hits = sum(baseline_predict(s.nbest).name == s.gold for s in samples)
    assert hits == 0
    assert all(s.gold in LEX.names for s in samples)


def test_lexicon_weights_bias_sampling():
    lex = Lexicon(("vera", "sara"), weights=(99.0, 1.0))
    samples = generate(lex, 200, NoiseConfig(), seed=1)
    veras = sum(s.gold == "vera" for s in samples)
    assert veras > 150


def test_generate_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be >= 1"):
        generate_dataset(LEX, 0, ZERO, seed=0)


# ---------------------------------------------------------------- split


def test_train_dev_split_partition():
    samples = generate(LEX, 50, ZERO, seed=3)
    train, dev = train_dev_split(samples, dev_fraction=0.1, seed=8)
    assert len(dev) == 5 and len(train) == 45
    key = lambda s: tuple((h.rank, tuple(t.word for t in h.tokens)) for h in s.nbest)
    merged = sorted(map(key, train + dev))
    assert merged == sorted(map(key, samples))
    train2, dev2 = train_dev_split(samples, dev_fraction=0.1, seed=8)
    assert train2 == train and dev2 == dev
    _, dev3 = train_dev_split(samples, dev_fraction=0.1, seed=9)
    assert dev3 != dev


# ---------------------------------------------------------------- file format


def test_save_load_roundtrip_structure(tmp_path):
    cfg = NoiseConfig(letter_sub_prob=0.3, jitter=0.2, nbest_size=3,
                      fullname_prob=0.4, filler_prob=0.4)
    samples = generate(LEX, 25, cfg, seed=6)
    p = tmp_path / "d.txt"
    save_dataset(samples, str(p))
    loaded = load_dataset(str(p))
    assert len(loaded) == len(samples)
    for got, want in zip(loaded, samples):
        assert got.gold == want.gold
        assert [h.rank for h in got.nbest] == [h.rank for h in want.nbest]
        for gh, wh in zip(got.nbest, want.nbest):
            assert [t.word for t in gh.tokens] == [t.word for t in wh.tokens]
            for gt, wt in zip(gh.tokens, wh.tokens):
                assert abs(gt.confidence - wt.confidence) <= 5e-5
    # a second save of the parsed data reproduces the file byte for byte
    q = tmp_path / "e.txt"
    save_dataset(loaded, str(q))
    assert p.read_bytes() == q.read_bytes()


def test_line_format_example(tmp_path):
    s = corrupt(["vera", "v", "e", "r", "a"], "vera", ZERO, rng())
    p = tmp_path / "d.txt"
    save_dataset([s], str(p))
    assert p.read_text() == (
        "1|vera/0.9000 v/0.9000 e/0.9000 r/0.9000 a/0.9000|vera\n"
    )


@pytest.mark.parametrize("text,match", [
    ("2|a/0.5|vera\n", "rank 2 before any rank-1"),
    ("1|a/0.5|vera\n3|a/0.5|vera\n", "does not follow"),
    ("1|a/0.5|vera\n2|a/0.5|sara\n", "differs"),
    ("1|a/0.5|Vera\n", "gold"),
    ("1|a/x|vera\n", "confidence"),
    ("1|a/1.5|vera\n", "confidence"),
    ("1||vera\n", "no tokens"),
    ("1|a/0.5\n", "expected rank"),
    ("x|a/0.5|vera\n", "bad rank"),
    ("1|a/0.5|vera\n2|b/0.5|vera\n3|c/0.5|vera\n4|d/0.5|vera\n", "1..3"),
])
def test_load_dataset_rejects_malformed(tmp_path, text, match):
    p = tmp_path / "d.txt"
    p.write_text(text)
    with pytest.raises(DataFormatError, match=match):
        load_dataset(str(p))


def test_load_dataset_empty_rejected(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("\n")
    with pytest.raises(DataFormatError, match="no samples"):
        load_dataset(str(p))


def test_load_dataset_reports_line_numbers(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1|a/0.5|vera\n1|a/0.5|sara\n1|a/bad|tim\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_dataset(str(p))


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A 3-best dataset file and a results file, each as (path to fuzz,
    original lines, loader)."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = NoiseConfig(letter_sub_prob=0.3, nato_prob=0.5, jitter=0.1, nbest_size=3)
    save_dataset(generate(LEX, 3, cfg, seed=5), str(root / "d.txt"))
    save_results([ScoredResult(Prediction("vera", -0.25, "seq2seq"), "vera"),
                  ScoredResult(Prediction("sara", 0.75, "baseline"), "sera")],
                 str(root / "r.tsv"))
    out = {}
    for name, load in (("d.txt", load_dataset), ("r.tsv", load_results)):
        out[name] = (root / ("fuzzed." + name), (root / name).read_text().splitlines(), load)
    return out


_FIELD_SEP = re.compile(r"([|\t /])")
_EDITS = st.one_of(
    st.tuples(st.sampled_from(["delete", "duplicate"]), st.integers(0, 99)),
    st.tuples(st.just("renumber"), st.integers(0, 99), st.integers(-1, 5)),
    st.tuples(st.sampled_from(["replace", "extend"]), st.integers(0, 99), st.integers(0, 99),
              st.sampled_from(["nan", "inf", "-1", "1.5", "", "|", "\t", "A"])),
)


def _edit_lines(lines, edits):
    """Delete or duplicate a line, set its first field to a number, or replace
    or extend one of its fields (split on |, tab, space and /) with an atom."""
    lines = list(lines)
    for kind, i, *args in edits:
        if not lines:
            break
        i %= len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            parts = _FIELD_SEP.split(lines[i])  # fields at the even positions
            if kind == "renumber":
                parts[0] = str(args[0])
            else:
                j = 2 * (args[0] % (len(parts) // 2 + 1))
                parts[j] = args[1] if kind == "replace" else parts[j] + args[1]
            lines[i] = "".join(parts)
    return lines


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["d.txt", "r.tsv"]), edits=st.lists(_EDITS, min_size=1, max_size=3))
@example(name="d.txt", edits=[("duplicate", 2), ("renumber", 3, 4)])  # a 4-best group
def test_mutated_dataset_and_results_end_in_typed_error(saved_files, name, edits):
    """Loading an edited dataset or results file returns or raises only
    DataFormatError or ConfigError, never a raw exception."""
    path, lines, load = saved_files[name]
    path.write_text("".join(line + "\n" for line in _edit_lines(lines, edits)))
    try:
        load(str(path))
    except (DataFormatError, ConfigError):
        pass


# ---------------------------------------------------------------- config


def test_noise_config_validation():
    with pytest.raises(ConfigError, match="letter_sub_prob"):
        NoiseConfig(letter_sub_prob=1.5)
    with pytest.raises(ConfigError, match="conf_clean"):
        NoiseConfig(conf_clean=0.0)
    with pytest.raises(ConfigError, match="nbest_size"):
        NoiseConfig(nbest_size=4)
    for weights in ((1.0, 1.0), (float("nan"), 1, 1, 1, 1), (float("inf"), 1, 1, 1, 1)):
        with pytest.raises(ConfigError, match="pattern_weights"):
            NoiseConfig(pattern_weights=weights)
    with pytest.raises(ConfigError, match="confusion set"):
        NoiseConfig(confusion_sets=(("q",),))
    with pytest.raises(ConfigError, match="jitter"):
        NoiseConfig(jitter=0.6)


def test_labeled_sample_validation():
    hyp = corrupt(["v"], "v", ZERO, rng()).nbest[0]
    with pytest.raises(ValueError, match="gold"):
        LabeledSample((hyp,), "Vera")
    with pytest.raises(ValueError, match="1..3"):
        LabeledSample((), "vera")


def test_lexicon_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Lexicon(("vera", "vera"))
    with pytest.raises(ValueError, match="empty"):
        Lexicon(())
    with pytest.raises(ValueError, match="weights length"):
        Lexicon(("vera",), weights=(1.0, 2.0))
