"""Synthetic say-and-spell corpus generator.

Produces labeled N-best samples that mimic callers spelling a name over the
phone: plain letter runs, military-alphabet expansions ("v as in victor"),
leading fillers, a trailing second name, and a substitution channel that
garbles letters and the whole-name token while assigning lower confidences
to the words it touched. The gold label is always the intended name, never
the garbled transcript.
"""

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .baseline import AsrHypothesis, AsrToken
from .errors import ConfigError, DataFormatError, check_fields, rule

SPELL_ONLY = "SPELL_ONLY"
NAME_THEN_SPELL = "NAME_THEN_SPELL"
SPELL_THEN_NAME = "SPELL_THEN_NAME"
NATO_SPELL = "NATO_SPELL"
NAME_NATO_MIX = "NAME_NATO_MIX"
PATTERNS = (SPELL_ONLY, NAME_THEN_SPELL, SPELL_THEN_NAME, NATO_SPELL, NAME_NATO_MIX)

FILLERS = ("um", "uh")

# canonical word first, spoken substitutes after; the bare-letter entries for
# i and a reproduce the "as in i" utterances that defeat letter extraction
NATO_TABLE = {
    "a": ("alpha", "a", "apple"),
    "b": ("bravo", "boy"),
    "c": ("charlie", "cat"),
    "d": ("delta", "dog"),
    "e": ("echo", "edward"),
    "f": ("foxtrot", "frank"),
    "g": ("golf", "george"),
    "h": ("hotel", "henry"),
    "i": ("india", "i"),
    "j": ("juliett", "john"),
    "k": ("kilo", "king"),
    "l": ("lima", "larry"),
    "m": ("mike", "man"),
    "n": ("november", "nancy"),
    "o": ("oscar", "ocean"),
    "p": ("papa", "peter"),
    "q": ("quebec", "queen"),
    "r": ("romeo", "robert"),
    "s": ("sierra", "sam"),
    "t": ("tango", "tom"),
    "u": ("uniform", "uncle"),
    "v": ("victor",),
    "w": ("whiskey", "william"),
    "x": ("xray",),
    "y": ("yankee", "young"),
    "z": ("zulu", "zebra"),
}

DEFAULT_CONFUSION_SETS = (
    ("s", "f"), ("v", "b"), ("m", "n"), ("e", "i"),
    ("d", "t"), ("p", "b"), ("a", "e"),
)

_NAME_RE = re.compile(r"^[a-z'-]+$")


@dataclass(frozen=True)
class NoiseConfig:
    """Channel knobs; the all-defaults config is the identity channel."""

    letter_sub_prob: float = rule("in [0, 1]", 0.0)
    confusion_sets: tuple = DEFAULT_CONFUSION_SETS
    filler_prob: float = rule("in [0, 1]", 0.0)
    nato_prob: float = rule("in [0, 1]", 0.0)
    nato_variant_prob: float = rule("in [0, 1]", 0.25)
    fullname_prob: float = rule("in [0, 1]", 0.0)
    name_drop_prob: float = rule("in [0, 1]", 0.0)
    conf_clean: float = rule("in (0, 1]", 0.9)
    conf_noisy: float = rule("in (0, 1]", 0.5)
    jitter: float = rule("in [0, 0.5]", 0.0)
    label_error_prob: float = rule("in [0, 1]", 0.0)
    nbest_size: int = rule("1..3", 1)
    pattern_weights: tuple[float, ...] = rule("finite and non-negative",
                                              (1.0, 1.0, 1.0, 1.0, 1.0))

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "confusion_sets",
                           tuple(tuple(s) for s in self.confusion_sets))
        for s in self.confusion_sets:
            if len(s) < 2:
                raise ConfigError(f"confusion set needs >= 2 letters, got {s!r}")
            for c in s:
                if not ("a" <= c <= "z" and len(c) == 1):
                    raise ConfigError(f"confusion sets hold single letters, got {c!r}")
        w = tuple(float(x) for x in self.pattern_weights)
        if len(w) != len(PATTERNS) or sum(w) <= 0:
            raise ConfigError(f"pattern_weights needs {len(PATTERNS)} entries with a "
                              f"positive sum, got {w}")
        object.__setattr__(self, "pattern_weights", w)


@dataclass(frozen=True)
class LabeledSample:
    nbest: tuple
    gold: str

    def __post_init__(self):
        object.__setattr__(self, "nbest", tuple(self.nbest))
        if not 1 <= len(self.nbest) <= 3:
            raise ValueError(f"nbest holds 1..3 hypotheses, got {len(self.nbest)}")
        if not _NAME_RE.match(self.gold):
            raise ValueError(f"gold must match [a-z'-]+, got {self.gold!r}")


@dataclass(frozen=True)
class Lexicon:
    names: tuple
    weights: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("lexicon is empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("lexicon contains duplicate names")
        for n in self.names:
            if not _NAME_RE.match(n):
                raise ValueError(f"lexicon name must match [a-z'-]+, got {n!r}")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) != len(self.names):
                raise ValueError("weights length differs from names length")
            if not all(0 < x < math.inf for x in w):
                raise ValueError("weights must be finite and positive")
            object.__setattr__(self, "weights", w)


def default_lexicon_path() -> str:
    """Path of the bundled 200-name lexicon."""
    from importlib import resources

    return str(resources.files("spellcap.data") / "names.txt")


def load_lexicon(path) -> Lexicon:
    """One lowercase name per line, optional tab-separated frequency weight."""
    weights: dict = {}  # name -> weight, first-seen names in order
    any_weight = False
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            name, _, wtext = line.partition("\t")
            name = name.strip().lower()
            if not _NAME_RE.match(name):
                raise DataFormatError(f"name must match [a-z'-]+, got {name!r}",
                                      line_no=line_no)
            w = 1.0
            if wtext.strip():
                any_weight = True
                try:
                    w = float(wtext)
                except ValueError:
                    raise DataFormatError(f"bad weight {wtext.strip()!r}",
                                          line_no=line_no) from None
                if not 0 < w < math.inf:
                    raise DataFormatError("weight must be finite and positive, "
                                          f"got {w}", line_no=line_no)
            weights.setdefault(name, w)
    if not weights:
        raise DataFormatError(f"lexicon file {path} has no names")
    return Lexicon(tuple(weights), tuple(weights.values()) if any_weight else None)


def _spellable(name: str) -> list:
    # apostrophes and hyphens are written, not spoken
    return [c for c in name if "a" <= c <= "z"]


def render_utterance(name: str, pattern: str, rng, cfg: NoiseConfig) -> list:
    """Reference token sequence before any corruption."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern: {pattern!r}")
    letters = _spellable(name)
    spell = []
    if pattern in (NATO_SPELL, NAME_NATO_MIX):
        for c in letters:
            if rng.random() < cfg.nato_prob:
                words = NATO_TABLE[c]
                word = words[0]
                if len(words) > 1 and rng.random() < cfg.nato_variant_prob:
                    word = words[1 + int(rng.integers(len(words) - 1))]
                spell += [c, "as", "in", word]
            else:
                spell.append(c)
    else:
        spell = letters
    if pattern in (NAME_THEN_SPELL, NAME_NATO_MIX):
        return [name] + spell
    if pattern == SPELL_THEN_NAME:
        return spell + [name]
    return spell


def _confusables(letter: str, sets) -> list:
    out = []
    for s in sets:
        if letter in s:
            out += [c for c in s if c != letter]
    return out


def _garble_name(name: str, cfg: NoiseConfig, rng) -> str:
    """Swap two adjacent inner letters or substitute one, keeping length."""
    chars = list(name)
    inner = [i for i in range(1, len(chars) - 1) if "a" <= chars[i] <= "z"]
    if not inner:
        return name
    i = inner[int(rng.integers(len(inner)))]
    if rng.random() < 0.5 and i + 1 < len(chars) and chars[i] != chars[i + 1]:
        chars[i], chars[i + 1] = chars[i + 1], chars[i]
        return "".join(chars)
    alts = _confusables(chars[i], cfg.confusion_sets)
    if not alts:
        alts = [c for c in "abcdefghijklmnopqrstuvwxyz" if c != chars[i]]
    chars[i] = alts[int(rng.integers(len(alts)))]
    return "".join(chars)


def _corrupt_once(clean, gold, cfg: NoiseConfig, rng, distractors, rank) -> AsrHypothesis:
    toks = [[w, False] for w in clean]
    if rng.random() < cfg.filler_prob:
        for _ in range(1 + int(rng.integers(2))):
            toks.insert(0, [FILLERS[int(rng.integers(len(FILLERS)))], False])
    if distractors and rng.random() < cfg.fullname_prob:
        pool = [d for d in distractors if d != gold]
        if pool:
            d = pool[int(rng.integers(len(pool)))]
            toks.append(["last", False])
            toks.append(["name", False])
            toks.append([d, False])
            toks += [[c, False] for c in _spellable(d)]
    if rng.random() < cfg.name_drop_prob:
        for i, t in enumerate(toks):
            if t[0] == gold:
                del toks[i]
                break
    for t in toks:
        w = t[0]
        if len(w) == 1 and "a" <= w <= "z" and rng.random() < cfg.letter_sub_prob:
            alts = _confusables(w, cfg.confusion_sets)
            if alts:
                t[0] = alts[int(rng.integers(len(alts)))]
                t[1] = True
    if rng.random() < cfg.letter_sub_prob:
        for t in toks:
            if t[0] == gold and len(gold) >= 3:
                t[0] = _garble_name(gold, cfg, rng)
                t[1] = t[0] != gold
                break
    parts = []
    for text, noisy in toks:
        base = cfg.conf_noisy if noisy else cfg.conf_clean
        conf = base + float(rng.uniform(-cfg.jitter, cfg.jitter))
        parts.append(AsrToken(text, min(1.0, max(0.01, conf))))
    return AsrHypothesis(tokens=tuple(parts), rank=rank)


def corrupt(clean, gold: str, cfg: NoiseConfig, rng, distractors=None) -> LabeledSample:
    """Push one clean utterance through the noise channel.

    Each of the ``cfg.nbest_size`` hypotheses is an independent corruption of
    the same clean token sequence; the gold label is never altered.
    """
    nbest = tuple(_corrupt_once(clean, gold, cfg, rng, distractors, rank)
                  for rank in range(1, cfg.nbest_size + 1))
    return LabeledSample(nbest, gold)


def generate_dataset(lex: Lexicon, n: int, cfg: NoiseConfig, seed: int) -> list:
    """Deterministic (sample, pattern name) stream for (lexicon, n, config, seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    pw = np.asarray(cfg.pattern_weights, dtype=np.float64)
    pw = pw / pw.sum()
    nw = None
    if lex.weights is not None:
        nw = np.asarray(lex.weights, dtype=np.float64)
        nw = nw / nw.sum()
    samples = []
    for _ in range(n):
        pattern = PATTERNS[int(rng.choice(len(PATTERNS), p=pw))]
        name = lex.names[int(rng.choice(len(lex.names), p=nw))]
        clean = render_utterance(name, pattern, rng, cfg)
        sample = corrupt(clean, name, cfg, rng, distractors=lex.names)
        if cfg.label_error_prob > 0 and len(lex.names) > 1:
            if rng.random() < cfg.label_error_prob:
                others = [m for m in lex.names if m != name]
                sample = replace(sample, gold=others[int(rng.integers(len(others)))])
        samples.append((sample, pattern))
    return samples


def train_dev_split(samples, dev_fraction: float = 0.1, seed: int = 0):
    """Seeded split; both halves keep the original sample order."""
    if not 0.0 <= dev_fraction < 1.0:
        raise ValueError(f"dev_fraction must be in [0, 1), got {dev_fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(samples))
    n_dev = int(round(len(samples) * dev_fraction))
    dev_idx = set(int(i) for i in perm[:n_dev])
    train = [s for i, s in enumerate(samples) if i not in dev_idx]
    dev = [s for i, s in enumerate(samples) if i in dev_idx]
    return train, dev


def save_dataset(samples, path) -> None:
    """One hypothesis per line, ``rank|word/conf …|gold``; rank 1 starts a sample."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            for h in s.nbest:
                body = " ".join(f"{t.word}/{t.confidence:.4f}" for t in h.tokens)
                fh.write(f"{h.rank}|{body}|{s.gold}\n")


def _parse_line(line: str, line_no: int):
    fields = line.split("|")
    if len(fields) != 3:
        raise DataFormatError(f"expected rank|tokens|gold, got {line!r}", line_no=line_no)
    rank_text, body, gold = fields
    try:
        rank = int(rank_text)
    except ValueError:
        raise DataFormatError(f"bad rank {rank_text!r}", line_no=line_no) from None
    if rank < 1:
        raise DataFormatError(f"rank must be >= 1, got {rank}", line_no=line_no)
    if not _NAME_RE.match(gold):
        raise DataFormatError(f"gold must match [a-z'-]+, got {gold!r}", line_no=line_no)
    tokens = []
    for part in body.split():
        text, sep, conf_text = part.rpartition("/")
        if not sep or not text:
            raise DataFormatError(f"expected word/conf, got {part!r}", line_no=line_no)
        try:
            conf = float(conf_text)
        except ValueError:
            raise DataFormatError(f"bad confidence {conf_text!r}", line_no=line_no) from None
        if not 0.0 <= conf <= 1.0:
            raise DataFormatError(f"confidence out of [0, 1]: {conf}", line_no=line_no)
        tokens.append(AsrToken(text, conf))
    if not tokens:
        raise DataFormatError("hypothesis has no tokens", line_no=line_no)
    return rank, AsrHypothesis(tokens=tuple(tokens), rank=rank), gold


def parse_dataset_lines(lines, where: str = "input") -> list:
    """Parse the line format written by save_dataset, grouping on rank resets;
    returns (line number of its rank-1 line, sample) per sample."""
    samples: list = []
    group: list = []
    group_gold = group_line = None

    def flush():
        nonlocal group, group_gold
        if group:
            try:
                sample = LabeledSample(tuple(group), group_gold)
            except ValueError as e:  # e.g. more than 3 hypotheses
                raise DataFormatError(str(e), line_no=group_line) from None
            samples.append((group_line, sample))
        group, group_gold = [], None

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        rank, hyp, gold = _parse_line(line, line_no)
        if rank == 1:
            flush()
            group, group_gold, group_line = [hyp], gold, line_no
        else:
            if not group:
                raise DataFormatError(f"rank {rank} before any rank-1 line",
                                      line_no=line_no)
            if rank != group[-1].rank + 1:
                raise DataFormatError(
                    f"rank {rank} does not follow rank {group[-1].rank}",
                    line_no=line_no)
            if gold != group_gold:
                raise DataFormatError(
                    f"gold {gold!r} differs from {group_gold!r} within one sample",
                    line_no=line_no)
            group.append(hyp)
    flush()
    if not samples:
        raise DataFormatError(f"dataset {where} has no samples")
    return samples


def load_dataset(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [s for _, s in parse_dataset_lines(fh, where=f"file {path}")]
