"""Byte-pair-encoding tokenizer over lowercase ASR text, plus the character
vocabulary used on the decoder side.

One id space serves both directions. Ids 0-3 are the specials (PAD, BOS, EOS,
UNK), ids 4-31 the characters a-z, apostrophe, hyphen, id 32 the word-boundary
marker, and merged tokens follow in learned order. Merges are learned from
greedy highest-frequency adjacent pairs, ties broken by the lexicographically
smallest (left, right) pair. The boundary marker terminates every word, which
keeps merges from crossing word boundaries; the marker itself never merges.

Encoding appends the marker token after each word and then drops a single
standalone trailing marker, so ``bpe_encode(m, "ab")`` is ``[id(a), id(b)]``.
"""

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import DataFormatError

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
EOW_TOKEN = "</w>"

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

TARGET_CHARS = "abcdefghijklmnopqrstuvwxyz'-"

BASE_TOKENS = (
    [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN]
    + list(TARGET_CHARS)
    + [EOW_TOKEN]
)

CHAR_IDS = {c: BASE_TOKENS.index(c) for c in TARGET_CHARS}
EOW_ID = BASE_TOKENS.index(EOW_TOKEN)


@dataclass
class BpeModel:
    """Learned merge list plus the full token -> id map.

    Construction checks what a checkpoint's bpe block must hold: the base
    tokens at their fixed ids, distinct ids, and merges of known tokens whose
    result is in the vocab; a violation is a DataFormatError.
    """

    vocab: dict[str, int]
    merges: list[tuple[str, str]]
    _merge_rank: dict[tuple[str, str], int] = field(init=False, repr=False)

    def __post_init__(self):
        for want, tok in enumerate(BASE_TOKENS):
            if self.vocab.get(tok) != want:
                raise DataFormatError(f"base token {tok!r} missing or misnumbered")
        if len(set(self.vocab.values())) != len(self.vocab):
            raise DataFormatError("duplicate ids in vocab")
        for left, right in self.merges:
            if left not in self.vocab or right not in self.vocab:
                raise DataFormatError(f"merge ({left!r}, {right!r}) references unknown token")
            if left + right not in self.vocab:
                raise DataFormatError(f"merged token {left + right!r} missing from vocab")
        self._merge_rank = {pair: k for k, pair in enumerate(self.merges)}


def _word_symbols(word: str) -> list[str]:
    return [c if c in CHAR_IDS else UNK_TOKEN for c in word]


def _merge_word(syms: list[str], left: str, right: str, merged: str) -> list[str]:
    out = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def learn_bpe(corpus: list[str], n_merges: int) -> BpeModel:
    """Learn up to ``n_merges`` merges from lowercase text lines.

    Stops early once no adjacent pair is left to merge. Raises ValueError on a
    corpus with no words.
    """
    if n_merges < 0:
        raise ValueError("n_merges must be >= 0")
    word_freq = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("empty corpus")

    vocab = {tok: i for i, tok in enumerate(BASE_TOKENS)}
    seqs = {w: _word_symbols(w) for w in word_freq}
    merges: list[tuple[str, str]] = []

    # Pair counts are built once and then updated from the words that held
    # each merged pair (Sennrich et al., 2016). ``where`` may still list a
    # word that lost a pair; such a word merges to itself and is skipped.
    # The heap pops the highest count, ties to the smallest pair; an entry
    # whose count has since changed is stale and dropped when popped.
    counts = Counter()
    where = defaultdict(set)
    for w, s in seqs.items():
        for pair in zip(s, s[1:]):
            counts[pair] += word_freq[w]
            where[pair].add(w)
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)

    while len(merges) < n_merges and heap:
        neg_count, best = heapq.heappop(heap)
        if counts.get(best) != -neg_count:
            continue
        left, right = best
        merged = left + right
        merges.append(best)
        if merged not in vocab:
            vocab[merged] = len(vocab)
        touched = set()
        for w in where.pop(best):
            old = seqs[w]
            new = _merge_word(old, left, right, merged)
            if len(new) == len(old):
                continue
            f = word_freq[w]
            for pair in zip(old, old[1:]):
                counts[pair] -= f
                touched.add(pair)
            for pair in zip(new, new[1:]):
                counts[pair] += f
                touched.add(pair)
                where[pair].add(w)
            seqs[w] = new
        for pair in touched:
            if counts[pair]:
                heapq.heappush(heap, (-counts[pair], pair))
            else:
                del counts[pair]
    return BpeModel(vocab=vocab, merges=merges)


def _apply_merges(syms: list[str], model: BpeModel) -> list[str]:
    # Walk ranks upward; a pair revealed with a rank at or below one already
    # passed stays unmerged, mirroring a single in-order sweep of the list.
    ranks = model._merge_rank
    done = -1
    while True:
        best = None
        for pair in zip(syms, syms[1:]):
            r = ranks.get(pair)
            if r is not None and r > done and (best is None or r < best):
                best = r
        if best is None:
            return syms
        left, right = model.merges[best]
        syms = _merge_word(syms, left, right, left + right)
        done = best


def bpe_encode(model: BpeModel, text: str) -> list[int]:
    """Encode whitespace-separated lowercase text into token ids.

    Characters outside a-z, apostrophe and hyphen map to UNK. The boundary
    marker appears between words but a lone trailing one is dropped.
    """
    ids: list[int] = []
    for word in text.split():
        for tok in _apply_merges(_word_symbols(word), model):
            ids.append(model.vocab[tok])
        ids.append(EOW_ID)
    if ids and ids[-1] == EOW_ID:
        ids.pop()
    return ids


def char_encode(name: str) -> list[int]:
    """Wrap a name's characters in BOS/EOS using the shared id space."""
    if not name:
        raise ValueError("empty name")
    ids = [BOS_ID]
    for c in name:
        if c not in CHAR_IDS:
            raise ValueError(f"unencodable name: {c!r} not in character vocabulary")
        ids.append(CHAR_IDS[c])
    ids.append(EOS_ID)
    return ids


def char_decode(ids: list[int]) -> str:
    """Strip BOS, read characters up to EOS (or the end for truncated input)."""
    if not ids or ids[0] != BOS_ID:
        raise ValueError("character sequence must start with BOS")
    chars = []
    for i in ids[1:]:
        if i == EOS_ID:
            break
        tok = BASE_TOKENS[i] if 0 <= i < len(BASE_TOKENS) else None
        if tok is None or tok not in CHAR_IDS:
            raise ValueError(f"invalid token id {i} in character sequence")
        chars.append(tok)
    return "".join(chars)


def target_alphabet() -> list[int]:
    """Decoder output classes as shared ids: EOS first, then the characters."""
    return [EOS_ID] + [CHAR_IDS[c] for c in TARGET_CHARS]

