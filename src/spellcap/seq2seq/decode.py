"""Greedy and beam decoding over the character alphabet.

Confidence is the total (length-unnormalized) log-probability of the emitted
sequence including EOS; a length-normalized variant sits behind a flag. Both
decoders run one search: the live hypotheses are stacked as rows of one
incremental decoder call per step, and EOS is ranked against the other
symbols inside the top-k selection, so greedy decoding is the width-1 beam,
ties and all.
"""

from dataclasses import dataclass

import numpy as np

from ..baseline import Prediction
from ..tokenizer import BOS_ID, bpe_encode, char_decode
from .model import (
    ModelConfig,
    _log_softmax,
    decoder_cache,
    decoder_forward,
    encode,
    id_of_class,
    reindex_cache,
)


@dataclass(frozen=True)
class DecodeResult:
    name: str
    logprob: float
    reached_eos: bool


def _search(p, cfg, src_ids, width):
    """Length-unnormalized beam search; returns results sorted by logprob.

    Each step expands every live prefix by all classes and keeps the global
    top ``width`` candidates, ranked by a stable sort over the row-major
    (prefix, class) scores so ties go to the earlier prefix, then the lower
    class; candidates ending in EOS retire to the completed pool. Search
    stops once the best live score cannot beat the best completed one
    (scores only decrease along a path).
    """
    cache = decoder_cache(p, cfg, encode(p, cfg, src_ids))
    live = [[BOS_ID]]
    scores = np.zeros(1)
    completed: list[DecodeResult] = []
    for _ in range(cfg.max_tgt_len):
        logp = _log_softmax(decoder_forward(p, cfg, cache, [s[-1] for s in live]))
        n_classes = logp.shape[1]
        pool = (scores[:, None] + logp).ravel()
        keep, next_live = [], []
        for idx in np.argsort(-pool, kind="stable")[:width].tolist():
            row, cls = divmod(idx, n_classes)
            seq = live[row] + [id_of_class(cls)]
            if cls == 0:  # EOS is class 0
                completed.append(DecodeResult(char_decode(seq), float(pool[idx]), True))
            else:
                keep.append(idx)
                next_live.append(seq)
        live, scores = next_live, pool[keep]
        if not live:
            break
        if completed and max(c.logprob for c in completed) >= scores[0]:
            break
        reindex_cache(cache, [idx // n_classes for idx in keep])
    for seq, score in zip(live, scores.tolist()):
        completed.append(DecodeResult(char_decode(seq), score, False))
    completed.sort(key=lambda r: -r.logprob)
    return completed[:width]


def greedy_decode(p, cfg: ModelConfig, src_ids) -> DecodeResult:
    """Argmax characters until EOS or ``cfg.max_tgt_len`` emitted symbols."""
    return _search(p, cfg, src_ids, 1)[0]


def beam_decode(p, cfg: ModelConfig, src_ids, beam_width: int) -> list[DecodeResult]:
    """Beam search of width ``beam_width``; returns results sorted by logprob."""
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    return _search(p, cfg, src_ids, beam_width)


def predict_name(p, cfg: ModelConfig, bpe, text: str, beam_width: int = 1,
                 length_normalize: bool = False) -> Prediction:
    """Run the full pipeline on one lowercase hypothesis text."""
    src_ids = bpe_encode(bpe, text)
    if not src_ids:
        raise ValueError("empty source sequence")
    if beam_width == 1:
        best = greedy_decode(p, cfg, src_ids)
    else:
        best = beam_decode(p, cfg, src_ids, beam_width)[0]
    conf = best.logprob
    if length_normalize:
        steps = len(best.name) + (1 if best.reached_eos else 0)
        conf = conf / max(steps, 1)
    return Prediction(best.name, conf, "seq2seq")
