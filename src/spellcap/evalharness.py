"""Exact-match error, word error rate, and error-vs-rejection curves.

The rejection sweep follows the sort-then-drop procedure: order results by
confidence ascending (stable, so equal scores keep input order), reject the
r lowest-scoring samples, and report the error rate over what remains. Only
the ordering of confidences matters, so raw log-probabilities and [0, 1]
scores plot on the same axes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import Prediction
from .errors import DataFormatError
from .kernels import levenshtein_ids


def _norm(s: str) -> str:
    return s.strip().lower()


@dataclass(frozen=True)
class ScoredResult:
    prediction: Prediction
    gold: str
    correct: bool = field(init=False)

    def __post_init__(self):
        if not self.gold.strip():
            raise ValueError("gold is empty")
        object.__setattr__(
            self, "correct", _norm(self.prediction.name) == _norm(self.gold)
        )


@dataclass(frozen=True)
class ErPoint:
    rejection_rate: float
    error_rate: float
    threshold: float


def exact_match_error(results) -> float:
    if not results:
        raise ValueError("no results")
    return sum(1 for r in results if not r.correct) / len(results)


def word_error_rate(hyp_words, ref_words) -> float:
    """(substitutions + insertions + deletions) / reference length."""
    if not ref_words:
        raise ValueError("empty reference")
    return levenshtein_ids(hyp_words, ref_words) / len(ref_words)


def er_curve(results, n_points: int = 101) -> list:
    """Error over accepted samples at evenly spaced rejection counts.

    Each point's threshold is the confidence of the highest rejected sample
    (-inf when nothing is rejected); the sweep stops one short of rejecting
    everything.
    """
    n = len(results)
    if n < 2:
        raise ValueError("need at least 2 results")
    conf = np.array([r.prediction.confidence for r in results], dtype=np.float64)
    if not np.all(np.isfinite(conf)):
        raise ValueError("confidences must be finite")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    order = np.argsort(conf, kind="stable")
    wrong = np.array([0 if results[i].correct else 1 for i in order], dtype=np.int64)
    wrong_prefix = np.concatenate([[0], np.cumsum(wrong)])
    total_wrong = int(wrong_prefix[-1])
    # past n points every rejection count 0 .. n - 1 is on the curve already
    counts = np.unique(np.linspace(0, n - 1, min(n_points, n)).round().astype(int))
    points = []
    for r in counts:
        r = int(r)
        accepted = n - r
        wrong_accepted = total_wrong - int(wrong_prefix[r])
        threshold = float(conf[order[r - 1]]) if r > 0 else float("-inf")
        points.append(ErPoint(r / n, wrong_accepted / accepted, threshold))
    return points


def emit_csv(points, path) -> None:
    if not points:
        raise ValueError("no points")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rejection_rate,error_rate,threshold\n")
        for p in points:
            fh.write(f"{p.rejection_rate:.6f},{p.error_rate:.6f},{p.threshold:.6f}\n")


def parse_csv(path) -> list:
    points = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "rejection_rate,error_rate,threshold":
            raise DataFormatError(f"unexpected header {header!r}", line_no=1)
        for line_no, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataFormatError(f"expected 3 columns, got {len(parts)}",
                                      line_no=line_no)
            try:
                points.append(ErPoint(*(float(x) for x in parts)))
            except ValueError:
                raise DataFormatError(f"bad number in {line!r}",
                                      line_no=line_no) from None
    if not points:
        raise DataFormatError(f"no data rows in {path}")
    return points


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 30, 30, 55


def _sx(x: float) -> float:
    return _ML + x * (_W - _ML - _MR)


def _sy(y: float, y_max: float) -> float:
    return _H - _MB - (y / y_max) * (_H - _MT - _MB)


def emit_plot(labeled_points, path) -> None:
    """Write a self-contained SVG: one polyline per (label, points) pair."""
    if not labeled_points:
        raise ValueError("no point sets")
    for label, pts in labeled_points:
        if not pts:
            raise ValueError(f"point set {label!r} is empty")
    y_max = max(p.error_rate for _, pts in labeled_points for p in pts)
    y_max = max(y_max, 1e-6) * 1.05
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # axes with ticks every 0.2 horizontally and 5 even divisions vertically
    ax_bottom, ax_left = _H - _MB, _ML
    out.append(f'<line x1="{ax_left}" y1="{ax_bottom}" x2="{_W - _MR}" '
               f'y2="{ax_bottom}" stroke="black"/>')
    out.append(f'<line x1="{ax_left}" y1="{_MT}" x2="{ax_left}" '
               f'y2="{ax_bottom}" stroke="black"/>')
    for i in range(6):
        fx = i / 5
        x = _sx(fx)
        out.append(f'<line x1="{x:.1f}" y1="{ax_bottom}" x2="{x:.1f}" '
                   f'y2="{ax_bottom + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{ax_bottom + 20}" '
                   f'text-anchor="middle">{fx:.1f}</text>')
        yv = y_max * fx
        y = _sy(yv, y_max)
        out.append(f'<line x1="{ax_left - 5}" y1="{y:.1f}" x2="{ax_left}" '
                   f'y2="{y:.1f}" stroke="black"/>')
        out.append(f'<text x="{ax_left - 9}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{yv:.2f}</text>')
    out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
               f'text-anchor="middle">rejection rate</text>')
    out.append(f'<text x="16" y="{(_MT + ax_bottom) / 2}" text-anchor="middle" '
               f'transform="rotate(-90 16 {(_MT + ax_bottom) / 2})">error rate</text>')
    for k, (label, pts) in enumerate(labeled_points):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(
            f"{_sx(p.rejection_rate):.2f},{_sy(p.error_rate, y_max):.2f}" for p in pts
        )
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
        ly = _MT + 18 + 20 * k
        lx = _W - _MR - 170
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        # labels are results-file stems; escaped as xml.sax.saxutils.escape
        # would, without its import cost on every CLI start
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{lx + 32}" y="{ly}">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def save_results(results, path) -> None:
    """One line per result: gold, predicted, confidence, source, tab-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            p = r.prediction
            fh.write(f"{r.gold}\t{p.name}\t{p.confidence!r}\t{p.source}\n")


def load_results(path) -> list:
    results = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataFormatError(f"expected 4 tab-separated fields, got "
                                      f"{len(parts)}", line_no=line_no)
            gold, name, conf_text, source = parts
            try:
                conf = float(conf_text)
            except ValueError:
                conf = math.nan  # reported with the non-finite values below
            if not math.isfinite(conf):
                raise DataFormatError(f"bad confidence {conf_text!r}", line_no=line_no)
            try:
                results.append(ScoredResult(Prediction(name, conf, source), gold))
            except ValueError as e:
                raise DataFormatError(str(e), line_no=line_no) from None
    if not results:
        raise DataFormatError(f"no results in {path}")
    return results
