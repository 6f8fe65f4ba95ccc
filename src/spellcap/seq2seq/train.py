"""Adam training loop with seeded shuffling, early stopping and resume.

Epoch e draws its shuffle and dropout noise from ``default_rng([seed, e])``,
so resuming from a saved state replays the exact remaining epochs: one epoch
plus one resumed epoch equals two straight epochs bit for bit (the resume
container stores float64), and a resumed run that had already stopped early
trains no further epoch. The epoch history is the one record of progress.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, check_fields, rule
from ..tokenizer import char_encode
from .model import ModelConfig, loss_and_gradients, loss_from_logits, pack_batch, _forward


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = rule("positive", 32)
    learning_rate: float = rule("finite and positive", 1e-5)
    beta1: float = rule("in [0, 1)", 0.9)
    beta2: float = rule("in [0, 1)", 0.999)
    eps: float = rule("finite and positive", 1e-8)
    epochs: int = rule("non-negative", 10)
    seed: int = rule("non-negative", 0)
    patience: int | None = rule("positive", None)

    def __post_init__(self):
        check_fields(self)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float


@dataclass
class TrainState:
    """Everything needed to continue training; ``history`` holds epochs 0, 1, 2, ..."""

    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int = 0
    best_params: dict[str, np.ndarray] | None = None
    history: list[EpochStats] = field(default_factory=list)

    @classmethod
    def fresh(cls, params) -> "TrainState":
        return cls(
            adam_m={k: np.zeros_like(v) for k, v in params.items()},
            adam_v={k: np.zeros_like(v) for k, v in params.items()},
        )


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[EpochStats]
    state: TrainState
    best_epoch: int | None
    stopped_early: bool


def best_epoch(history) -> int | None:
    """The first epoch with the lowest finite dev loss, if any; a NaN dev loss
    marks an epoch run without a dev set."""
    return min(((h.dev_loss, h.epoch) for h in history if math.isfinite(h.dev_loss)),
               default=(None, None))[1]


def epochs_since_best(history) -> int:
    """The number of epochs with a dev loss after the best epoch."""
    best = best_epoch(history)
    return 0 if best is None else sum(math.isfinite(h.dev_loss) for h in history[best + 1:])


def adam_step(params, grads, state: TrainState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update, in place, one shared step counter."""
    state.adam_t += 1
    bc1 = 1.0 - cfg.beta1 ** state.adam_t
    bc2 = 1.0 - cfg.beta2 ** state.adam_t
    for path, p in params.items():
        g = grads[path]
        m = state.adam_m[path]
        v = state.adam_v[path]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def evaluate(params, model_cfg: ModelConfig, pairs, batch_size: int = 32) -> float:
    """Dataset-level mean NLL per supervised position (batch-split invariant)."""
    total = 0.0
    count = 0
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        logits, target, _ = _forward(params, model_cfg, *pack_batch(chunk))
        total += float(loss_from_logits(logits, target)) * len(target)
        count += len(target)
    if count == 0:
        raise ValueError("no supervised positions in evaluation set")
    return total / count


def pairs_from_samples(samples, bpe) -> list[tuple[list[int], list[int]]]:
    """(BPE of the rank-1 hypothesis text, character-encoded gold) per sample."""
    from ..tokenizer import bpe_encode

    pairs = []
    for s in samples:
        src = bpe_encode(bpe, s.nbest[0].text())
        pairs.append((src, char_encode(s.gold)))
    return pairs


def train(params, model_cfg: ModelConfig, train_pairs, dev_pairs, cfg: TrainConfig,
          state: TrainState | None = None) -> TrainResult:
    """Run (or continue) training; mutates ``params`` in place.

    With a non-empty dev set the result carries the best-dev parameters and
    early stopping kicks in after ``cfg.patience`` epochs without improvement.
    An empty dev set means final-epoch parameters win and dev_loss is NaN.
    """
    if not train_pairs:
        raise ValueError("empty training set")
    if state is None:
        state = TrainState.fresh(params)
    n = len(train_pairs)

    def patience_spent():
        return (bool(dev_pairs) and cfg.patience is not None
                and epochs_since_best(state.history) >= cfg.patience)

    for epoch in range(len(state.history), cfg.epochs):
        if patience_spent():
            break
        rng = np.random.default_rng([cfg.seed, epoch])
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = [train_pairs[i] for i in perm[start : start + cfg.batch_size]]
            value, grads = loss_and_gradients(
                params, model_cfg, batch, dropout_rng=rng
            )
            if not math.isfinite(value):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            adam_step(params, grads, state, cfg)
            batch_losses.append(value)
        train_loss = float(np.mean(batch_losses))
        if dev_pairs:
            dev_loss = evaluate(params, model_cfg, dev_pairs, cfg.batch_size)
            if not math.isfinite(dev_loss):
                raise NumericError(f"non-finite dev loss at epoch {epoch}")
        else:
            dev_loss = math.nan
        state.history.append(EpochStats(epoch, train_loss, dev_loss))
        if best_epoch(state.history) == epoch:
            state.best_params = {k: v.copy() for k, v in params.items()}

    best = best_epoch(state.history) if dev_pairs else None
    return TrainResult(params if best is None else state.best_params, list(state.history),
                       state, best, patience_spent())
