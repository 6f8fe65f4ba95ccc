"""Slow reference implementations the tests compare against.

Everything here is written the dumbest defensible way (plain recursion, full
recomputation per point) so it shares no code path with the package. The
builders ``learn_bpe_recount`` and ``hypothesis_from_text`` only wrap their
results in package types.
"""

from collections import Counter
from functools import lru_cache

from spellcap.baseline import AsrHypothesis, AsrToken
from spellcap.tokenizer import BASE_TOKENS, CHAR_IDS, EOW_TOKEN, UNK_TOKEN, BpeModel


def pair_counts(corpus):
    """Frequency of adjacent character pairs within words, whole corpus."""
    counts = {}
    for line in corpus:
        for word in line.split():
            for left, right in zip(word, word[1:]):
                counts[(left, right)] = counts.get((left, right), 0) + 1
    return counts


def lev_recursive(a, b):
    """Unit-cost Levenshtein by memoized recursion. Works on any sequences."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = d(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1)
        return min(sub, d(i - 1, j) + 1, d(i, j - 1) + 1)

    return d(len(a), len(b))


def wer_recursive(hyp_words, ref_words):
    if len(ref_words) == 0:
        raise ValueError("empty reference")
    return lev_recursive(hyp_words, ref_words) / len(ref_words)


def er_sweep(results, rejection_counts):
    """(rejection_rate, error_rate) per count, recomputed from scratch.

    results: list of (confidence, correct) tuples. Ties are broken by input
    order (stable), matching the contract under test.
    """
    n = len(results)
    order = sorted(range(n), key=lambda i: results[i][0])
    points = []
    for r in rejection_counts:
        kept = [results[i] for i in sorted(order[r:])]
        errors = sum(1 for _, ok in kept if not ok)
        points.append((r / n, errors / len(kept)))
    return points


def fd_gradient(loss_fn, params, path, coords, h=1e-4):
    """Central finite differences of ``loss_fn(params)`` at chosen coordinates.

    Mutates and restores params[path] in place; returns list of d loss / d coord.
    """
    tensor = params[path]
    out = []
    flat = tensor.reshape(-1)
    for c in coords:
        keep = flat[c]
        flat[c] = keep + h
        up = loss_fn(params)
        flat[c] = keep - h
        down = loss_fn(params)
        flat[c] = keep
        out.append((up - down) / (2.0 * h))
    return out


def greedy_search(next_logprobs, max_len):
    """Argmax decoding that rescores the whole prefix at every step.

    ``next_logprobs(classes)`` returns the log-probabilities of the class that
    follows the emitted ``classes``; class 0 is EOS. Returns
    ``(classes, logprob, reached_eos)`` with EOS left out of ``classes``.
    """
    classes, total = [], 0.0
    for _ in range(max_len):
        logp = next_logprobs(classes)
        cls = max(range(len(logp)), key=lambda c: logp[c])  # first maximum
        total += float(logp[cls])
        if cls == 0:
            return classes, total, True
        classes.append(cls)
    return classes, total, False


def beam_search(next_logprobs, beam_width, max_len):
    """Beam search that rescores every live prefix from scratch at each step.

    Candidates are ranked by a stable sort, so the earlier prefix and then the
    lower class win ties; EOS candidates retire to the completed pool, and the
    search stops once no live score can beat the best completed one. Returns
    up to ``beam_width`` ``(classes, logprob, reached_eos)``, best first.
    """
    live = [([], 0.0)]
    completed = []
    for _ in range(max_len):
        pool = []
        for classes, score in live:
            logp = next_logprobs(classes)
            for cls in range(len(logp)):
                pool.append((classes, score + float(logp[cls]), cls))
        pool.sort(key=lambda c: -c[1])
        live = []
        for classes, score, cls in pool[:beam_width]:
            if cls == 0:
                completed.append((classes, score, True))
            else:
                live.append((classes + [cls], score))
        if not live:
            break
        if completed and max(c[1] for c in completed) >= live[0][1]:
            break
    completed += [(classes, score, False) for classes, score in live]
    completed.sort(key=lambda c: -c[1])
    return completed[:beam_width]


def learn_bpe_recount(corpus, n_merges):
    """``learn_bpe`` that recounts every pair of every word before each merge
    and picks the pair with the highest count, ties to the smallest pair."""
    word_freq = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("empty corpus")
    vocab = {tok: i for i, tok in enumerate(BASE_TOKENS)}
    seqs = {w: [c if c in CHAR_IDS else UNK_TOKEN for c in w] for w in word_freq}
    merges = []
    for _ in range(n_merges):
        counts = Counter()
        for w, f in word_freq.items():
            s = seqs[w]
            for pair in zip(s, s[1:]):
                counts[pair] += f
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        merged = best[0] + best[1]
        merges.append(best)
        if merged not in vocab:
            vocab[merged] = len(vocab)
        for w, s in seqs.items():
            out, i = [], 0
            while i < len(s):  # leftmost occurrences first, never overlapping
                if s[i:i + 2] == list(best):
                    out.append(merged)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            seqs[w] = out
    return BpeModel(vocab=vocab, merges=merges)


def bpe_decode(model, ids):
    """Invert ``bpe_encode``: join the tokens, boundary markers become spaces."""
    id_to_token = {i: t for t, i in model.vocab.items()}
    parts = []
    for i in ids:
        if i not in id_to_token:
            raise ValueError(f"invalid token id {i}")
        parts.append(id_to_token[i])
    return "".join(parts).replace(EOW_TOKEN, " ").rstrip(" ")


def hypothesis_from_text(text, rank=1, confidence=1.0):
    """A hypothesis from plain text with one confidence for every word."""
    return AsrHypothesis(tuple(AsrToken(w, confidence) for w in text.split()), rank=rank)

