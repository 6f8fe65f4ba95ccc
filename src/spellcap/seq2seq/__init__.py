"""Numpy transformer seq2seq: model math, training, decoding, checkpoints.

The package exposes what the CLI and the benchmark reach through it; the rest
lives in the submodules ``model``, ``train``, ``decode`` and ``checkpoint``.
"""

from .checkpoint import load_checkpoint, load_train_state, save_checkpoint, save_train_state
from .decode import predict_name, predict_names, source_ids
from .model import ModelConfig, check_source, forward_details, init_parameters
from .train import TrainConfig, pairs_from_samples, train
