"""Checkpoint container: one JSON manifest line, then raw array bytes.

The manifest holds exactly ``format``, ``dtype``, ``config`` (the
``ModelConfig`` fields), ``bpe`` (the ``vocab`` and ``merges`` of the
tokenizer the model was trained with) and ``tensors`` (path/shape/byte-offset/
nbytes entries in write order): a model is its config, tokenizer and
parameters, read-only once loaded. A float64 training resume file, which
``load_checkpoint`` refuses, adds ``extras.train_state`` (the Adam step count
and the epoch history) beside ``adam.*`` tensors, and ``best.*`` ones once the
history holds a finite dev loss, so a resumed run continues bit-exactly. A failed write leaves any
earlier file as it was. A reader consumes exactly its file: an unknown
top-level key, a duplicate tensor path, bytes after the last tensor and a
tensor that is neither a parameter nor claimed by a group of a resume file
are each a DataFormatError.
Each block is read by ``_typed`` against its dataclass fields: a missing block
or key, an unknown key or a value of the wrong JSON type is a DataFormatError
(exit 3) naming its path, such as ``manifest bpe`` or ``config.n_layers``, as
are tokenizer ids outside the model vocabulary; a config value breaking a
``ModelConfig`` rule or a tensor shape disagreeing with it is a ConfigError
(exit 2).
"""

import json
import math
import os
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin

import numpy as np

from ..errors import ConfigError, DataFormatError
from ..tokenizer import BpeModel
from .model import FrozenParams, ModelConfig, param_shapes
from .train import EpochStats, TrainState, best_epoch

_MAGIC = "spellcap-checkpoint"
_KEYS = {"format", "dtype", "config", "bpe", "tensors", "extras"}  # extras: resume files
_DTYPES = {"float32": "<f4", "float64": "<f8"}


@cache
def _parts(tp):
    """(origin, args) of an annotation, resolved once; a dataclass has origin
    ``dataclass`` and maps its init fields to their types in place of args."""
    if is_dataclass(tp):
        return dataclass, {f.name: f.type for f in fields(tp) if f.init}
    return get_origin(tp), get_args(tp)


def _value(tp, obj, where):
    """``obj`` checked against the annotation ``tp``; lists become tuples where
    ``tp`` is a tuple, and a float takes an int too. ``where`` is a name or a
    (parent, key) pair, spelled out only in an error."""
    if type(obj) is tp:  # an exact match: a scalar, or a free-form dict
        return obj
    origin, args = _parts(tp)
    if origin is dataclass:
        return _typed(tp, obj, where)
    if origin is dict:
        _expect(type(obj) is dict, obj, where, "an object")
        return {k: _value(args[1], v, (where, k)) for k, v in obj.items()}
    if origin in (list, tuple):
        fixed = origin is tuple and Ellipsis not in args
        _expect(type(obj) is list and (not fixed or len(obj) == len(args)), obj, where,
                f"a list of {len(args)}" if fixed else "a list")
        return origin([_value(args[i] if fixed else args[0], v, (where, i))
                       for i, v in enumerate(obj)])
    _expect(type(obj) is tp or (tp is float and type(obj) is int), obj, where,
            "an object" if tp is dict else tp.__name__)
    return obj


def _path(where) -> str:
    if isinstance(where, str):
        return where
    parent, key = where
    return _path(parent) + (f"[{key}]" if type(key) is int else f".{key}")


def _expect(ok: bool, obj, where, kind: str):
    if not ok:
        raise DataFormatError(f"{_path(where)} must be {kind}, got {obj!r:.60}")


def _typed(cls, obj, where):
    """Build dataclass ``cls`` from the JSON object ``obj`` holding exactly its
    init fields; anything else is a DataFormatError naming the path."""
    types = _parts(cls)[1]
    if type(obj) is not dict:
        raise DataFormatError(f"{_path(where)} block must be an object, got {obj!r:.60}")
    if obj.keys() != types.keys():
        if unknown := sorted(obj.keys() - types.keys()):
            raise DataFormatError(f"{_path(where)} has unknown key {unknown[0]!r}")
        raise DataFormatError(f"{_path(where)} {min(types.keys() - obj.keys())} missing")
    return cls(**{k: _value(tp, obj[k], (where, k)) for k, tp in types.items()})


@dataclass(frozen=True)
class TensorEntry:
    """Where one tensor's bytes sit after the manifest line."""

    path: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int

    def __post_init__(self):
        if min(self.shape + (self.offset, self.nbytes)) < 0:
            raise DataFormatError(f"tensor {self.path}: negative shape, offset or nbytes")


@dataclass(frozen=True)
class ResumeMeta:
    """The ``extras.train_state`` block; history rows are (epoch, train, dev loss)."""

    adam_t: int
    history: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if self.adam_t < 0 or [h[0] for h in self.history] != list(range(len(self.history))):
            raise DataFormatError("train_state needs adam_t >= 0 and history epochs "
                                  "0, 1, 2, ...")


def _write(path, manifest: dict, tensors: dict[str, np.ndarray], dtype_name: str):
    dt = np.dtype(_DTYPES[dtype_name])
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        raw = np.ascontiguousarray(arr, dtype=np.float64).astype(dt).tobytes()
        entries.append(asdict(TensorEntry(name, arr.shape, offset, len(raw))))
        blobs.append(raw)
        offset += len(raw)
    manifest = {**manifest, "format": _MAGIC, "dtype": dtype_name, "tensors": entries}
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    tmp = f"{path}.tmp"  # moved over ``path`` only once complete
    try:
        with open(tmp, "wb") as f:
            f.writelines([header.encode("utf-8"), b"\n", *blobs])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read(path):
    with open(path, "rb") as f:
        blob = f.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise DataFormatError("missing manifest line")
    try:
        manifest = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"unreadable manifest: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != _MAGIC:
        raise DataFormatError("not a spellcap checkpoint")
    if unknown := sorted(manifest.keys() - _KEYS):
        raise DataFormatError(f"manifest has unknown key {unknown[0]!r}")
    dtype_name = manifest.get("dtype")
    if not isinstance(dtype_name, str) or dtype_name not in _DTYPES:
        raise DataFormatError(f"unsupported dtype {dtype_name!r}")
    entries = _value(tuple[TensorEntry, ...], manifest.get("tensors"), "manifest tensors")
    dt = np.dtype(_DTYPES[dtype_name])
    data = blob[nl + 1 :]
    tensors = {}
    end = 0
    for entry in entries:
        if entry.path in tensors:
            raise DataFormatError(f"tensor {entry.path}: duplicate path")
        want = math.prod(entry.shape) * dt.itemsize
        if entry.nbytes != want:
            raise DataFormatError(f"tensor {entry.path}: nbytes/shape mismatch")
        raw = data[entry.offset : entry.offset + entry.nbytes]
        if len(raw) != want:
            raise DataFormatError(f"tensor {entry.path}: file truncated")
        tensors[entry.path] = np.frombuffer(raw, dt).reshape(entry.shape).astype(np.float64)
        end = max(end, entry.offset + entry.nbytes)
    if len(data) > end:
        raise DataFormatError(f"{len(data) - end} bytes after the last tensor")
    return manifest, tensors


def _model(params, model_cfg: ModelConfig, bpe: BpeModel):
    """The manifest blocks and the parameters, in canonical order, of a model."""
    if missing := [p for p in param_shapes(model_cfg) if p not in params]:
        raise ValueError(f"missing parameter {missing[0]}")
    manifest = {"config": asdict(model_cfg),
                "bpe": {"vocab": bpe.vocab, "merges": bpe.merges}}
    return manifest, {p: params[p] for p in param_shapes(model_cfg)}


def _parse(path):
    """A checkpoint or resume file as (manifest, params, config, bpe, the other
    tensors), every parameter checked against its config shape."""
    manifest, tensors = _read(path)
    config = _typed(ModelConfig, manifest.get("config"), "manifest config")
    params = {}
    for p, shape in param_shapes(config).items():
        if p not in tensors:
            raise DataFormatError(f"missing parameter {p}")
        if tensors[p].shape != shape:  # config/tensor disagreement, not corruption
            raise ConfigError(f"parameter {p}: shape {tensors[p].shape} does not match {shape}")
        params[p] = tensors.pop(p)
    bpe = _typed(BpeModel, manifest.get("bpe"), "manifest bpe")
    for tok, i in bpe.vocab.items():
        if not 0 <= i < config.vocab_size:
            raise DataFormatError(f"bpe token {tok!r} has id {i} outside "
                                  f"[0, vocab_size {config.vocab_size})")
    return manifest, params, config, bpe, tensors


def save_checkpoint(path, params, model_cfg: ModelConfig, bpe: BpeModel) -> None:
    """Write the model, in float32: its config, tokenizer and parameters."""
    _write(path, *_model(params, model_cfg, bpe), "float32")


@dataclass(frozen=True)
class Checkpoint:
    params: FrozenParams
    config: ModelConfig
    bpe: BpeModel


def load_checkpoint(path) -> Checkpoint:
    """Read a model checkpoint written by ``save_checkpoint``. Its tensors are
    read-only and its ``params`` refuse item assignment (``FrozenParams``), so
    the inference weights that its first decode builds serve every later one;
    decode a changed model from a writable copy, e.g. ``dict(ck.params)`` with
    the changed tensors replaced."""
    manifest, params, config, bpe, tensors = _parse(path)
    if "extras" in manifest:
        raise DataFormatError("manifest extras: a training resume file, not a model checkpoint")
    if tensors:
        raise DataFormatError(f"tensor {next(iter(tensors))} is not a parameter")
    for arr in params.values():
        arr.setflags(write=False)
    return Checkpoint(FrozenParams(params), config, bpe)


def save_train_state(path, params, model_cfg: ModelConfig, state: TrainState,
                     bpe: BpeModel) -> None:
    """Resume container: float64 params + Adam moments + best-dev snapshot."""
    manifest, tensors = _model(params, model_cfg, bpe)
    groups = {"adam.m": state.adam_m, "adam.v": state.adam_v, "best": state.best_params or {}}
    tensors.update({f"{g}.{k}": v for g, group in groups.items() for k, v in group.items()})
    meta = ResumeMeta(state.adam_t, tuple((h.epoch, h.train_loss, h.dev_loss)
                                          for h in state.history))
    _write(path, {**manifest, "extras": {"train_state": asdict(meta)}}, tensors, "float64")


def load_train_state(path):
    """Returns (params, model_cfg, state, bpe); inverse of save_train_state."""
    manifest, params, config, bpe, tensors = _parse(path)
    if "extras" not in manifest or manifest["dtype"] != "float64":
        raise DataFormatError("not a training resume checkpoint")
    extras = _value(dict[str, dict], manifest["extras"], "manifest extras")
    if extras.keys() != {"train_state"}:
        raise DataFormatError(f"manifest extras must hold train_state alone, got {sorted(extras)}")
    meta = _typed(ResumeMeta, extras["train_state"], "manifest extras.train_state")
    shapes = param_shapes(config)

    def collect(prefix):
        out = {}
        for p, shape in shapes.items():
            arr = tensors.get(f"{prefix}.{p}")
            if arr is None or arr.shape != shape:
                raise DataFormatError(f"missing or misshapen tensor {prefix}.{p}")
            out[p] = arr
        return out

    history = [EpochStats(*row) for row in meta.history]
    groups = ("adam.m", "adam.v") + (() if best_epoch(history) is None else ("best",))
    claimed = {f"{g}.{p}" for g in groups for p in shapes}
    if stray := [t for t in tensors if t not in claimed]:
        raise DataFormatError(f"tensor {stray[0]} is not part of the resume state")
    best_params = collect("best") if "best" in groups else None
    state = TrainState(collect("adam.m"), collect("adam.v"), meta.adam_t, best_params, history)
    return params, config, state, bpe
