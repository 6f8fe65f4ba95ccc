"""Greedy and beam decoding over the character alphabet.

Confidence is the total (length-unnormalized) log-probability of the emitted
sequence including EOS; a length-normalized variant sits behind a flag. Every
decode runs one search over a chunk of utterances: the live hypotheses of
every live utterance are stacked as rows of one incremental decoder call per
step, each row attending over its own utterance's memory, and EOS is ranked
against the other symbols inside each utterance's own top-k selection, so
greedy decoding is the width-1 beam, ties and all. ``predict_names`` decodes
``CHUNK`` utterances per search and hands each utterance's ``greedy_decode``
or ``beam_decode`` call its chunk's search and its index in the chunk;
``predict_name`` is ``predict_names`` of one utterance. A chunk's padding
changes the shapes of the decoder's products, so a logprob can differ from
decoding the utterance alone in the last digits (about 1e-14); the fixed
chunk size keeps every run on the same input bit-identical.
"""

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from ..baseline import Prediction
from ..tokenizer import BOS_ID, bpe_encode, char_decode
from .model import (
    ModelConfig,
    _log_softmax,
    check_source,
    decoder_cache,
    decoder_forward,
    encode,
    id_of_class,
    reindex_cache,
)

# Utterances per search in ``predict_names``. Decoder state grows with the
# chunk times its longest source; beyond 8 the step no longer gets cheaper
# per utterance.
CHUNK = 8


@dataclass(frozen=True)
class DecodeResult:
    name: str
    logprob: float
    reached_eos: bool


def _search(p, cfg, sources, width):
    """Length-unnormalized beam search of each source of a chunk; returns, per
    source, its results sorted by logprob.

    Each step expands every live prefix of an utterance by all classes and
    keeps that utterance's top ``width`` candidates, ranked by a stable sort
    over its row-major (prefix, class) scores so ties go to the earlier
    prefix, then the lower class; candidates ending in EOS retire to the
    utterance's completed pool. An utterance's search stops once its best
    live score cannot beat its best completed one (scores only decrease
    along a path), and its rows then leave the cache.
    """
    if width < 1:
        raise ValueError("beam_width must be >= 1")
    cache = decoder_cache(p, cfg, [encode(p, cfg, src) for src in sources])
    live = [[[BOS_ID]] for _ in sources]
    scores = [np.zeros(1) for _ in sources]
    completed: list[list[DecodeResult]] = [[] for _ in sources]
    active = list(range(len(sources)))
    for _ in range(cfg.max_tgt_len):
        tokens = [seq[-1] for u in active for seq in live[u]]
        logp = _log_softmax(decoder_forward(p, cfg, cache, tokens))
        n_classes = logp.shape[1]
        start, rows, still = 0, [], []
        for u in active:
            n = len(live[u])
            pool = (scores[u][:, None] + logp[start:start + n]).ravel()
            keep, next_live = [], []
            for idx in np.argsort(-pool, kind="stable")[:width].tolist():
                row, cls = divmod(idx, n_classes)
                seq = live[u][row] + [id_of_class(cls)]
                if cls == 0:  # EOS is class 0
                    completed[u].append(DecodeResult(char_decode(seq), float(pool[idx]), True))
                else:
                    keep.append(idx)
                    next_live.append(seq)
            live[u], scores[u] = next_live, pool[keep]
            if next_live and not (completed[u] and
                                  max(c.logprob for c in completed[u]) >= scores[u][0]):
                rows += [start + idx // n_classes for idx in keep]
                still.append(u)
            start += n
        active = still
        if not active:
            break
        reindex_cache(cache, rows)
    out = []
    for done, seqs, final in zip(completed, live, scores):
        done += [DecodeResult(char_decode(seq), score, False)
                 for seq, score in zip(seqs, final.tolist())]
        done.sort(key=lambda r: -r.logprob)
        out.append(done[:width])
    return out


def greedy_decode(search, k: int) -> DecodeResult:
    """The best result of utterance ``k`` of a width-1 chunk ``search``."""
    return search()[k][0]


def beam_decode(search, k: int) -> list[DecodeResult]:
    """The results of utterance ``k`` of a chunk ``search``, sorted by logprob."""
    return search()[k]


def source_ids(cfg: ModelConfig, bpe, text: str) -> list[int]:
    """The BPE ids of one lowercase hypothesis text, which the model must be
    able to decode."""
    src_ids = bpe_encode(bpe, text)
    check_source(cfg, src_ids)
    return src_ids


def _prediction(best: DecodeResult, length_normalize: bool) -> Prediction:
    conf = best.logprob
    if length_normalize:
        steps = len(best.name) + (1 if best.reached_eos else 0)
        conf = conf / max(steps, 1)
    return Prediction(best.name, conf, "seq2seq")


def predict_name(p, cfg: ModelConfig, bpe, text: str, beam_width: int = 1,
                 length_normalize: bool = False) -> Prediction:
    """Run the full pipeline on one lowercase hypothesis text."""
    return predict_names(p, cfg, [source_ids(cfg, bpe, text)], beam_width,
                         length_normalize)[0][0]


def predict_names(p, cfg: ModelConfig, sources, beam_width: int,
                  length_normalize: bool) -> tuple[list[Prediction], int]:
    """The best name of each of ``sources`` (``source_ids`` lists), decoded
    ``CHUNK`` utterances per search; returns (predictions, how many of them
    never reached EOS)."""
    best = []
    for i in range(0, len(sources), CHUNK):
        # the chunk's one search runs inside the decode call of its first
        # utterance and the others read their results from it, so a profile
        # of the decode calls holds each decoder step once
        chunk = sources[i:i + CHUNK]
        search = cache(partial(_search, p, cfg, chunk, beam_width))
        best += [greedy_decode(search, k) if beam_width == 1 else beam_decode(search, k)[0]
                 for k in range(len(chunk))]
    return ([_prediction(b, length_normalize) for b in best],
            sum(not b.reached_eos for b in best))
