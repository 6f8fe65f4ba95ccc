"""Rule-based name extraction from N-best ASR hypotheses.

The extractor concatenates single-character [a-z] tokens in utterance order
and averages their word confidences. If the concatenation exactly equals a
multi-character word in the same hypothesis, the word recognizer already got
the name and confidence is boosted to 1.0; only such a match may be returned
from ranks 2-3. An edit-distance confidence variant rescales against the
first multi-character word instead.
"""

from dataclasses import dataclass

from . import kernels


@dataclass(frozen=True)
class AsrToken:
    word: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"token confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class AsrHypothesis:
    tokens: tuple[AsrToken, ...]
    rank: int = 1

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.rank < 1:
            raise ValueError(f"rank {self.rank} must be >= 1")

    def text(self) -> str:
        return " ".join(t.word for t in self.tokens)


@dataclass(frozen=True)
class Prediction:
    name: str
    confidence: float
    source: str

    def __post_init__(self):
        if self.source not in ("baseline", "seq2seq"):
            raise ValueError(f"unknown prediction source {self.source!r}")
        if self.source == "baseline" and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"baseline confidence {self.confidence} outside [0, 1]")
        if self.source == "seq2seq" and self.confidence > 0.0:
            raise ValueError(f"seq2seq log-probability {self.confidence} above 0")


def extract_spelled_letters(hyp: AsrHypothesis) -> list[AsrToken]:
    """Single-character [a-z] tokens in utterance order.

    The article "a" is deliberately captured; disambiguating it is the
    learned model's job, not this rule's.
    """
    return [t for t in hyp.tokens if len(t.word) == 1 and "a" <= t.word <= "z"]


def _multichar_words(hyp: AsrHypothesis) -> list[AsrToken]:
    return [t for t in hyp.tokens if len(t.word) > 1]


def baseline_predict(nbest) -> Prediction:
    """Extract a name from rank-sorted hypotheses (at most ranks 1-3)."""
    if not nbest:
        raise ValueError("nbest must contain at least one hypothesis")
    rank1_candidate = None
    for idx, hyp in enumerate(nbest[:3]):
        letters = extract_spelled_letters(hyp)
        if not letters:
            continue
        cand = "".join(t.word for t in letters)
        conf = sum(t.confidence for t in letters) / len(letters)
        if any(cand == w.word for w in _multichar_words(hyp)):
            return Prediction(cand, 1.0, "baseline")
        if idx == 0:
            rank1_candidate = (cand, conf)
    if rank1_candidate is not None:
        return Prediction(*rank1_candidate, "baseline")
    words = _multichar_words(nbest[0])
    if words:
        # no spelled letters anywhere useful: fall back to the longest word
        best = max(words, key=lambda t: len(t.word))
        return Prediction(best.word, best.confidence, "baseline")
    return Prediction("", 0.0, "baseline")


def edit_distance_confidence(pred: Prediction, hyp: AsrHypothesis) -> float:
    """1 - d/max(lengths) against the first multi-character word of ``hyp``.

    Falls back to the prediction's own confidence when there is no word to
    compare against (or the prediction is empty).
    """
    words = _multichar_words(hyp)
    if not words or not pred.name:
        return pred.confidence
    ref = words[0].word
    d = kernels.levenshtein_ids(pred.name, ref)
    return 1.0 - d / max(len(pred.name), len(ref))
