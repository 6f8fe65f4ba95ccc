import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellcap.baseline import (
    AsrHypothesis,
    AsrToken,
    Prediction,
    baseline_predict,
    edit_distance_confidence,
    extract_spelled_letters,
)
from spellcap.kernels import levenshtein_ids

from oracles import hypothesis_from_text, lev_recursive


def hyp(pairs, rank=1):
    return AsrHypothesis(tuple(AsrToken(w, c) for w, c in pairs), rank=rank)


def test_letters_only_single_char_alpha():
    h = hyp([("john", 0.9), ("j", 0.7), ("as", 0.9), ("-", 0.9), ("o", 0.6)])
    assert [t.word for t in extract_spelled_letters(h)] == ["j", "o"]


def test_golden_jone():
    h = hyp([("john", 0.01), ("j", 0.7), ("o", 0.6), ("n", 0.5), ("e", 0.8)])
    pred = baseline_predict([h])
    assert pred.name == "jone"
    assert pred.confidence == pytest.approx(0.65, abs=1e-9)
    assert pred.source == "baseline"


def test_golden_tiim_nato_words_invisible():
    h = hypothesis_from_text("tim t as in tango i as in i m as in man")
    assert baseline_predict([h]).name == "tiim"


def test_golden_bowdich():
    h = hypothesis_from_text("b as in boy o w d as in dog i c as in cat h")
    assert baseline_predict([h]).name == "bowdich"


def test_golden_first_and_last_name_concatenated():
    h = hypothesis_from_text("r o s l i n d rislin r a n k i n franks")
    assert baseline_predict([h]).name == "roslindrankin"


def test_match_boosts_confidence_to_one():
    h = hyp(
        [("vera", 0.42), ("v", 0.5), ("e", 0.5), ("r", 0.5), ("a", 0.5)]
    )
    assert baseline_predict([h]) == Prediction("vera", 1.0, "baseline")


def test_match_from_rank_two():
    r1 = hyp([("j", 0.9), ("o", 0.9), ("n", 0.9)], rank=1)
    r2 = hyp([("jon", 0.3), ("j", 0.8), ("o", 0.8), ("n", 0.8)], rank=2)
    assert baseline_predict([r1, r2]) == Prediction("jon", 1.0, "baseline")


def test_non_match_ranks_cannot_displace_rank_one():
    r1 = hyp([("d", 0.6), ("a", 0.6), ("n", 0.6)], rank=1)
    r2 = hyp([("dane", 0.9), ("d", 0.9), ("a", 0.9), ("n", 0.9), ("a", 0.9)], rank=2)
    pred = baseline_predict([r1, r2])
    assert pred.name == "dan"
    assert pred.confidence == pytest.approx(0.6)


def test_ranks_beyond_three_never_consulted():
    r = [hyp([("x", 0.5), ("y", 0.5)], rank=k) for k in (1, 2, 3)]
    r4 = hyp([("xy", 0.9), ("x", 0.9), ("y", 0.9)], rank=4)
    # rank 4 would match with confidence 1.0; rank 1's letter average wins
    pred = baseline_predict(r + [r4])
    assert pred.name == "xy"
    assert pred.confidence == pytest.approx(0.5)


def test_zero_letter_fallback_longest_word():
    h = hyp([("my", 0.9), ("name", 0.8), ("is", 0.9), ("jennifer", 0.35)])
    pred = baseline_predict([h])
    assert pred == Prediction("jennifer", 0.35, "baseline")


def test_all_hypotheses_empty():
    assert baseline_predict([AsrHypothesis((), rank=1)]) == Prediction("", 0.0, "baseline")


def test_empty_nbest_rejected():
    with pytest.raises(ValueError):
        baseline_predict([])


def test_token_confidence_range_enforced():
    with pytest.raises(ValueError):
        AsrToken("a", 1.5)
    with pytest.raises(ValueError):
        AsrHypothesis((AsrToken("a", 0.5),), rank=0)


def test_edit_distance_golden():
    assert levenshtein_ids("jenniser", "jennifer") == 1
    assert levenshtein_ids("sedoz", "sdov") == 2
    assert levenshtein_ids("", "abc") == 3
    assert levenshtein_ids("abc", "abc") == 0


@given(
    st.text(alphabet="abcdef", max_size=9), st.text(alphabet="abcdef", max_size=9)
)
@settings(max_examples=200, deadline=None)
def test_edit_distance_matches_recursive_oracle(a, b):
    assert levenshtein_ids(a, b) == lev_recursive(a, b)


def test_edit_distance_confidence_golden():
    h = hypothesis_from_text("jennifer j e n n i s e r")
    pred = baseline_predict([h])
    assert pred.name == "jenniser"
    assert edit_distance_confidence(pred, h) == pytest.approx(0.875, abs=1e-9)

    h2 = hypothesis_from_text("sdov s e d o z")
    pred2 = baseline_predict([h2])
    assert pred2.name == "sedoz"
    assert edit_distance_confidence(pred2, h2) == pytest.approx(0.6, abs=1e-9)


def test_edit_distance_confidence_no_word_to_compare():
    h = hyp([("a", 0.4), ("b", 0.4)])
    pred = baseline_predict([h])
    assert edit_distance_confidence(pred, h) == pred.confidence


letters = st.sampled_from("abcdefghijklmnopqrstuvwxyz")
confs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(st.lists(st.tuples(letters, confs), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_letters_concatenated_in_order(pairs):
    h = hyp([("word", 0.9)] + list(pairs))
    pred = baseline_predict([h])
    expected = "".join(w for w, _ in pairs)
    if expected != "word":  # an exact match would legitimately boost instead
        assert pred.name == expected


@given(st.lists(letters, min_size=1, max_size=10), confs)
@settings(max_examples=100, deadline=None)
def test_uniform_confidence_passes_through(ws, c):
    h = hyp([(w, c) for w in ws])
    pred = baseline_predict([h])
    assert pred.confidence == pytest.approx(c)
