import math
import random
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import er_sweep, hypothesis_from_text, wer_recursive
from spellcap.baseline import Prediction, baseline_predict
from spellcap.errors import DataFormatError
from spellcap.evalharness import (
    ErPoint,
    ScoredResult,
    emit_csv,
    emit_plot,
    er_curve,
    exact_match_error,
    load_results,
    parse_csv,
    save_results,
    word_error_rate,
)


def scored(conf: float, correct: bool) -> ScoredResult:
    name = "vera" if correct else "wrong"
    return ScoredResult(Prediction(name, -abs(conf), "seq2seq"), "vera")


def as_points(results):
    return [(c.prediction.confidence, c.correct) for c in results]


# ------------------------------------------------------------ exact match


def test_exact_match_error_counts():
    rs = [scored(-1, True), scored(-2, True), scored(-3, True), scored(-4, False)]
    assert exact_match_error(rs) == 0.25
    assert exact_match_error(rs[:3]) == 0.0


def test_exact_match_is_case_and_space_insensitive():
    r = ScoredResult(Prediction("vera", 1.0, "baseline"), "  VERA ")
    assert r.correct


def test_exact_match_error_empty_rejected():
    with pytest.raises(ValueError, match="no results"):
        exact_match_error([])


def test_letter_extraction_error_on_published_sample_rows():
    rows = [
        ("b as in boy o w d as in dog i c as in cat h", "bowdich"),
        ("jennifer j e n n i s e r", "jennifer"),
        ("r o s l i n d rislin r a n k i n franks", "roslind"),
        ("r i rippe r i p p e e", "rippee"),
        ("sdov s e d o z", "sedoz"),
        ("um um baskal b a s c a l", "baskal"),
    ]
    results = []
    for text, gold in rows:
        pred = baseline_predict([hypothesis_from_text(text)])
        results.append(ScoredResult(pred, gold))
    names = [r.prediction.name for r in results]
    assert names == ["bowdich", "jenniser", "roslindrankin",
                     "ririppee", "sedoz", "bascal"]
    assert exact_match_error(results) == pytest.approx(4 / 6)


# ------------------------------------------------------------ WER


def test_wer_identity():
    assert word_error_rate(["a", "b"], ["a", "b"]) == 0.0


def test_wer_all_deletions():
    assert word_error_rate([], ["w", "x", "y", "z"]) == 1.0


def test_wer_mixed_errors():
    assert word_error_rate("a b c".split(), "a x c d".split()) == 0.5


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError, match="empty reference"):
        word_error_rate(["a"], [])


def test_wer_matches_recursive_oracle():
    rnd = random.Random(13)
    vocab = ["a", "b", "c", "d"]
    for _ in range(300):
        hyp = [rnd.choice(vocab) for _ in range(rnd.randint(0, 6))]
        ref = [rnd.choice(vocab) for _ in range(rnd.randint(1, 6))]
        assert word_error_rate(hyp, ref) == wer_recursive(hyp, ref)


def test_wer_can_exceed_one():
    assert word_error_rate("a b c d".split(), ["x"]) == 4.0


# ------------------------------------------------------------ ER curve


def test_er_curve_zero_rejection_endpoint():
    rs = [scored(-i, i % 3 != 0) for i in range(1, 21)]
    pts = er_curve(rs, n_points=5)
    assert pts[0].rejection_rate == 0.0
    assert pts[0].error_rate == exact_match_error(rs)
    assert pts[0].threshold == float("-inf")


def test_er_curve_perfectly_calibrated():
    # 4 wrong answers score below 6 right ones; error hits 0 at 40% rejection
    rs = [scored(-10 - i, False) for i in range(4)]
    rs += [scored(-1 - i * 0.1, True) for i in range(6)]
    pts = er_curve(rs, n_points=10)
    for p in pts:
        if p.rejection_rate >= 0.4:
            assert p.error_rate == 0.0
        else:
            assert p.error_rate > 0.0


def test_er_curve_matches_bruteforce_oracle():
    rnd = random.Random(99)
    for trial in range(200):
        n = rnd.randint(2, 50)
        rs = [scored(rnd.uniform(-20, 0), rnd.random() < 0.6) for _ in range(n)]
        n_points = rnd.choice([2, 5, 101])
        pts = er_curve(rs, n_points=n_points)
        counts = sorted({int(round(c)) for c in np.linspace(0, n - 1, n_points)})
        want = er_sweep(as_points(rs), counts)
        assert [(p.rejection_rate, p.error_rate) for p in pts] == want


def test_er_curve_points_beyond_the_results_change_nothing():
    # a huge n_points neither changes the curve nor allocates its size
    rnd = random.Random(5)
    rs = [scored(rnd.uniform(-9, 0), rnd.random() < 0.5) for _ in range(50)]
    t0 = time.perf_counter()
    assert er_curve(rs, n_points=10**9) == er_curve(rs, n_points=50)
    assert time.perf_counter() - t0 < 1.0
    # the offline benchmark's 101 points over 200 results keep their counts
    rs = [scored(rnd.uniform(-9, 0), rnd.random() < 0.5) for _ in range(200)]
    counts = sorted({int(round(c)) for c in np.linspace(0, 199, 101)})
    assert len(counts) == 101
    pts = er_curve(rs, n_points=101)
    assert [(p.rejection_rate, p.error_rate) for p in pts] == er_sweep(as_points(rs), counts)


def test_er_curve_stable_on_confidence_ties():
    rs = [scored(-5, k % 2 == 0) for k in range(10)]
    pts = er_curve(rs, n_points=10)
    want = er_sweep(as_points(rs), [int(round(c)) for c in np.linspace(0, 9, 10)])
    assert [(p.rejection_rate, p.error_rate) for p in pts] == want


def test_er_curve_invariant_under_monotone_transforms():
    rnd = random.Random(3)
    rs = [scored(rnd.uniform(-30, 0), rnd.random() < 0.5) for _ in range(40)]
    base = [(p.rejection_rate, p.error_rate) for p in er_curve(rs)]
    for f in (math.exp, lambda c: 2 * c + 1, lambda c: -1 / (c - 1)):
        moved = []
        for r in rs:
            c = f(r.prediction.confidence)
            moved.append(
                ScoredResult(Prediction(r.prediction.name, min(c, 0.0) if c <= 0
                                        else c, "seq2seq" if c <= 0 else "baseline"),
                             r.gold))
        got = [(p.rejection_rate, p.error_rate) for p in er_curve(moved)]
        assert got == base


def test_er_curve_thresholds_reject_exactly_below():
    rnd = random.Random(7)
    rs = [scored(rnd.uniform(-9, 0), rnd.random() < 0.5) for _ in range(25)]
    conf = sorted(r.prediction.confidence for r in rs)
    for p in er_curve(rs, n_points=25):
        r = round(p.rejection_rate * len(rs))
        if r > 0:
            assert p.threshold == conf[r - 1]


def test_er_curve_validation():
    with pytest.raises(ValueError, match="at least 2"):
        er_curve([scored(-1, True)])
    bad = [scored(-1, True), scored(-2, False)]
    object.__setattr__(bad[0].prediction, "confidence", float("nan"))
    with pytest.raises(ValueError, match="finite"):
        er_curve(bad)
    with pytest.raises(ValueError, match="n_points"):
        er_curve([scored(-1, True), scored(-2, False)], n_points=1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=-50, max_value=0),
                          st.booleans()), min_size=2, max_size=50))
def test_er_curve_rates_within_bounds(data):
    rs = [scored(c, ok) for c, ok in data]
    pts = er_curve(rs, n_points=11)
    assert pts[0].rejection_rate == 0.0
    last = -1.0
    for p in pts:
        assert 0.0 <= p.rejection_rate < 1.0
        assert 0.0 <= p.error_rate <= 1.0
        assert p.rejection_rate > last
        last = p.rejection_rate


# ------------------------------------------------------------ CSV


def test_csv_roundtrip(tmp_path):
    pts = [ErPoint(0.0, 0.25, float("-inf")), ErPoint(0.5, 0.1, -3.217891)]
    p = tmp_path / "c.csv"
    emit_csv(pts, str(p))
    back = parse_csv(str(p))
    assert len(back) == 2
    for a, b in zip(back, pts):
        assert a.rejection_rate == pytest.approx(b.rejection_rate, abs=1e-6)
        assert a.error_rate == pytest.approx(b.error_rate, abs=1e-6)
    assert back[0].threshold == float("-inf")
    assert back[1].threshold == pytest.approx(-3.217891, abs=1e-6)


def test_csv_single_point_single_row(tmp_path):
    p = tmp_path / "c.csv"
    emit_csv([ErPoint(0.0, 0.25, -3.2)], str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "rejection_rate,error_rate,threshold"
    assert len(lines) == 2
    assert lines[1] == "0.000000,0.250000,-3.200000"


def test_csv_parse_errors(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(DataFormatError, match="header"):
        parse_csv(str(p))
    p.write_text("rejection_rate,error_rate,threshold\n0.1,0.2\n")
    with pytest.raises(DataFormatError, match="3 columns"):
        parse_csv(str(p))
    p.write_text("rejection_rate,error_rate,threshold\n0.1,zz,0.3\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_csv(str(p))
    p.write_text("rejection_rate,error_rate,threshold\n")
    with pytest.raises(DataFormatError, match="no data"):
        parse_csv(str(p))


def test_emit_csv_empty_rejected(tmp_path):
    with pytest.raises(ValueError, match="no points"):
        emit_csv([], str(tmp_path / "c.csv"))


# ------------------------------------------------------------ SVG


def test_plot_two_sets_two_polylines(tmp_path):
    a = [ErPoint(0.0, 0.4, -1.0), ErPoint(0.5, 0.2, -0.5)]
    b = [ErPoint(0.0, 0.3, 0.1), ErPoint(0.5, 0.05, 0.9)]
    p = tmp_path / "plot.svg"
    emit_plot([("baseline", a), ("seq2seq", b)], str(p))
    svg = p.read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert ">baseline</text>" in svg
    assert ">seq2seq</text>" in svg
    assert "rejection rate" in svg and "error rate" in svg
    assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_plot_escapes_labels(tmp_path):
    # labels come from results-file stems, which may hold XML specials
    pts = [ErPoint(0.0, 0.4, -1.0), ErPoint(0.5, 0.2, -0.5)]
    p = tmp_path / "plot.svg"
    emit_plot([("a&b", pts), ("<c>", pts)], str(p))
    svg_text = "{http://www.w3.org/2000/svg}text"
    texts = [t.text for t in ET.parse(p).getroot().iter(svg_text)]
    assert "a&b" in texts and "<c>" in texts


def test_plot_rejects_empty_sets(tmp_path):
    with pytest.raises(ValueError, match="no point sets"):
        emit_plot([], str(tmp_path / "p.svg"))
    with pytest.raises(ValueError, match="empty"):
        emit_plot([("a", [])], str(tmp_path / "p.svg"))


# ------------------------------------------------------------ results file


def test_results_file_roundtrip(tmp_path):
    rs = [
        ScoredResult(Prediction("vera", 1.0, "baseline"), "vera"),
        ScoredResult(Prediction("jon", -2.3456789012345, "seq2seq"), "jone"),
        ScoredResult(Prediction("", 0.0, "baseline"), "sara"),
    ]
    p = tmp_path / "r.tsv"
    save_results(rs, str(p))
    back = load_results(str(p))
    assert len(back) == 3
    for a, b in zip(back, rs):
        assert a.prediction == b.prediction
        assert a.gold == b.gold
        assert a.correct == b.correct


def test_results_file_format(tmp_path):
    p = tmp_path / "r.tsv"
    save_results([ScoredResult(Prediction("vera", 0.5, "baseline"), "vera")], str(p))
    assert p.read_text() == "vera\tvera\t0.5\tbaseline\n"


def test_load_results_errors(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("vera\tvera\t0.5\n")
    with pytest.raises(DataFormatError, match="4 tab-separated"):
        load_results(str(p))
    p.write_text("vera\tvera\tzz\tbaseline\n")
    with pytest.raises(DataFormatError, match="confidence"):
        load_results(str(p))
    p.write_text("vera\tvera\t0.5\tmystery\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_results(str(p))
    p.write_text("")
    with pytest.raises(DataFormatError, match="no results"):
        load_results(str(p))
