import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spellcap import tokenizer as tk
from spellcap.seq2seq.checkpoint import _typed

from oracles import bpe_decode, learn_bpe_recount, pair_counts


@pytest.fixture(scope="module")
def small_model():
    corpus = [
        "jennifer j e n n i f e r",
        "vera v as in victor e r a",
        "daren d a r e n darren",
    ]
    return tk.learn_bpe(corpus, 10)


def test_base_vocab_layout():
    assert tk.PAD_ID == 0 and tk.BOS_ID == 1 and tk.EOS_ID == 2
    assert tk.BASE_TOKENS.index(tk.UNK_TOKEN) == 3
    assert tk.CHAR_IDS["a"] == 4
    assert tk.CHAR_IDS["z"] == 29
    assert tk.CHAR_IDS["'"] == 30
    assert tk.CHAR_IDS["-"] == 31
    assert tk.EOW_ID == 32
    assert len(tk.BASE_TOKENS) == 33


def test_first_merge_highest_frequency_pair():
    corpus = ["aa", "aa", "aa", "ab"]
    model = tk.learn_bpe(corpus, 1)
    assert model.merges == [("a", "a")]
    # independent recount agrees that (a, a) is the unique argmax
    counts = pair_counts(corpus)
    assert counts[("a", "a")] == 3
    assert max(counts.values()) == 3
    assert [p for p, c in counts.items() if c == 3] == [("a", "a")]


def test_tie_broken_lexicographically():
    corpus = ["ab", "ab", "ba"]
    counts = pair_counts(corpus)
    assert counts == {("a", "b"): 2, ("b", "a"): 1}
    model = tk.learn_bpe(corpus, 1)
    assert model.merges == [("a", "b")]
    # exact tie: both pairs occur twice, smaller pair must win
    tie = tk.learn_bpe(["ab", "ba", "ab", "ba"], 1)
    assert tie.merges[0] == ("a", "b")


def test_encode_no_merges():
    model = tk.learn_bpe(["ab"], 0)
    assert model.merges == []
    assert tk.bpe_encode(model, "ab") == [4, 5]


def test_encode_applies_merge():
    model = tk.learn_bpe(["aa", "aa", "aa", "ab"], 1)
    aa = model.vocab["aa"]
    assert aa == 33
    assert tk.bpe_encode(model, "aab") == [aa, 5]
    assert bpe_decode(model, [aa, 5]) == "aab"


def test_word_boundary_kept_between_words(small_model):
    ids = tk.bpe_encode(small_model, "a b")
    assert tk.EOW_ID in ids
    assert ids[-1] != tk.EOW_ID
    assert bpe_decode(small_model, ids) == "a b"


def test_merges_never_cross_words(small_model):
    # "nn" merges inside jennifer, so adjacent single-letter words must not fuse
    joined = tk.bpe_encode(small_model, "n n")
    assert bpe_decode(small_model, joined) == "n n"


def test_empty_text(small_model):
    assert tk.bpe_encode(small_model, "") == []
    assert bpe_decode(small_model, []) == ""


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        tk.learn_bpe([], 5)
    with pytest.raises(ValueError, match="empty corpus"):
        tk.learn_bpe(["   ", ""], 5)


def test_unknown_characters_become_unk(small_model):
    ids = tk.bpe_encode(small_model, "a3b")
    assert small_model.vocab[tk.UNK_TOKEN] == 3 and 3 in ids


def test_decode_rejects_unknown_id(small_model):
    bad = max(small_model.vocab.values()) + 1
    with pytest.raises(ValueError, match="invalid token id"):
        bpe_decode(small_model, [bad])


def test_compression_monotone_in_merge_count():
    corpus = [
        "jennifer j e n n i f e r",
        "jennifer jennifer spelled",
        "roslind r o s l i n d",
    ]
    last = None
    for k in range(0, 16, 3):
        model = tk.learn_bpe(corpus, k)
        total = sum(len(tk.bpe_encode(model, line)) for line in corpus)
        if last is not None:
            assert total <= last
        last = total


def test_merge_count_capped_and_exhausted():
    model = tk.learn_bpe(["ab"], 50)
    # a+b then no pairs remain
    assert model.merges == [("a", "b")]
    assert len(tk.learn_bpe(["abcd abcd"], 2).merges) == 2


# A few letters make ties and self-overlapping pairs ("aa" in "aaaa") common.
few_letter_lines = st.sampled_from(["abc-", "abcd-"]).flatmap(
    lambda alphabet: st.lists(
        st.lists(st.text(alphabet=alphabet, min_size=1, max_size=9), min_size=1,
                 max_size=5).map(" ".join),
        min_size=1, max_size=8))


@given(few_letter_lines, st.integers(0, 80))
@example(["aaaa aaa", "aa-aa aaaaa"], 6)
@settings(max_examples=300, deadline=None)
def test_learn_bpe_matches_full_recount(corpus, n_merges):
    got = tk.learn_bpe(corpus, n_merges)
    want = learn_bpe_recount(corpus, n_merges)
    assert got.merges == want.merges
    assert got.vocab == want.vocab


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz'-", min_size=1, max_size=8)


@given(st.lists(words, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(ws):
    text = " ".join(ws)
    model = tk.learn_bpe(
        ["jennifer j e n n i f e r", "daren d a r e n", "a'b-c a'b-c"], 12
    )
    assert bpe_decode(model, tk.bpe_encode(model, text)) == text


def test_char_encode_frozen_ids():
    assert tk.char_encode("jone") == [1, 13, 18, 17, 8, 2]


def test_char_decode_example():
    assert tk.char_decode([1, 13, 18, 17, 8, 2]) == "jone"


def test_char_decode_truncated_sequence():
    # greedy decoding may hit max_len before EOS
    assert tk.char_decode([1, 13, 18]) == "jo"


def test_char_roundtrip_and_errors():
    for name in ("vera", "o'neil", "mary-jane"):
        assert tk.char_decode(tk.char_encode(name)) == name
    with pytest.raises(ValueError, match="empty name"):
        tk.char_encode("")
    with pytest.raises(ValueError, match="unencodable"):
        tk.char_encode("a b")
    with pytest.raises(ValueError, match="BOS"):
        tk.char_decode([4, 5, 2])
    with pytest.raises(ValueError, match="invalid token id"):
        tk.char_decode([1, 33, 2])


def test_target_alphabet_layout():
    alpha = tk.target_alphabet()
    assert alpha[0] == tk.EOS_ID
    assert len(alpha) == 29
    assert alpha[1] == tk.CHAR_IDS["a"]
    assert alpha[-1] == tk.CHAR_IDS["-"]


def test_manifest_roundtrip(small_model):
    block = json.loads(json.dumps({"vocab": small_model.vocab, "merges": small_model.merges}))
    again = _typed(tk.BpeModel, block, "bpe")
    assert again.vocab == small_model.vocab
    assert again.merges == small_model.merges
    assert tk.bpe_encode(again, "jennifer") == tk.bpe_encode(small_model, "jennifer")
