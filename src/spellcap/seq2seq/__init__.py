"""Numpy transformer seq2seq: model math, training, decoding, checkpoints."""

from .checkpoint import (
    Checkpoint,
    load_checkpoint,
    load_train_state,
    save_checkpoint,
    save_train_state,
)
from .decode import DecodeResult, beam_decode, greedy_decode, predict_name
from .model import (
    N_CLASSES,
    ModelConfig,
    class_of_id,
    decoder_forward,
    encode,
    forward_details,
    id_of_class,
    init_parameters,
    loss_and_gradients,
    pack_batch,
    param_shapes,
)
from .train import (
    EpochStats,
    TrainConfig,
    TrainResult,
    TrainState,
    adam_step,
    evaluate,
    pairs_from_samples,
    train,
)

__all__ = [
    "Checkpoint",
    "DecodeResult",
    "EpochStats",
    "ModelConfig",
    "N_CLASSES",
    "TrainConfig",
    "TrainResult",
    "TrainState",
    "adam_step",
    "beam_decode",
    "class_of_id",
    "decoder_forward",
    "encode",
    "evaluate",
    "forward_details",
    "greedy_decode",
    "id_of_class",
    "init_parameters",
    "load_checkpoint",
    "load_train_state",
    "loss_and_gradients",
    "pack_batch",
    "pairs_from_samples",
    "param_shapes",
    "predict_name",
    "save_checkpoint",
    "save_train_state",
    "train",
]
