from spellcap.kernels import levenshtein_ids


def test_levenshtein_empty_and_known():
    assert levenshtein_ids("", "") == 0
    assert levenshtein_ids("", "kitten") == 6
    assert levenshtein_ids("kitten", "") == 6
    assert levenshtein_ids("kitten", "sitting") == 3
    # word lists: one substitution and one deletion
    assert levenshtein_ids([], ["the", "cat"]) == 2
    assert levenshtein_ids(["the", "cat", "sat"], ["the", "bat"]) == 2
    assert levenshtein_ids(["a", "b"], ["b", "a"]) == 2
