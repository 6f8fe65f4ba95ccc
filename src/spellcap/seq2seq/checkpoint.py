"""Checkpoint container: one JSON manifest line, then raw array bytes.

The manifest records the model config, optional tokenizer, optional extras,
the storage dtype, and per-tensor path/shape/byte-offset entries in write
order. Model checkpoints default to float32 storage; training resume state
uses the same container at float64 plus ``adam.*``/``best.*`` tensors, so a
resumed run continues bit-exactly. Loading rejects a malformed manifest
(missing or unknown config keys; ill-typed tensor entries, tokenizer block,
extras or resume state; tokenizer ids outside the model vocabulary) with
DataFormatError and config/shape mismatches with ConfigError.
"""

import json
import math
from dataclasses import asdict

import numpy as np

from ..errors import ConfigError, DataFormatError
from ..tokenizer import BpeModel
from .model import ModelConfig, param_shapes
from .train import EpochStats, TrainState

_MAGIC = "spellcap-checkpoint"
_DTYPES = {"float32": "<f4", "float64": "<f8"}


def _write(path, manifest: dict, tensors: dict[str, np.ndarray], dtype_name: str):
    dt = np.dtype(_DTYPES[dtype_name])
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        raw = np.ascontiguousarray(arr, dtype=np.float64).astype(dt).tobytes()
        entries.append(
            {"path": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    manifest = dict(manifest)
    manifest["format"] = _MAGIC
    manifest["dtype"] = dtype_name
    manifest["tensors"] = entries
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as f:
        f.write(header.encode("utf-8"))
        f.write(b"\n")
        for raw in blobs:
            f.write(raw)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("path"), str)
            and isinstance(entry.get("shape"), list)
            and all(map(_is_count, entry["shape"]))
            and _is_count(entry.get("offset")) and _is_count(entry.get("nbytes")))


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
    dtype_name = manifest.get("dtype")
    if dtype_name not in _DTYPES:
        raise DataFormatError(f"unsupported dtype {dtype_name!r}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list) or not all(map(_is_entry, entries)):
        raise DataFormatError("manifest tensors must be a list of path/shape/"
                              "offset/nbytes entries with non-negative integers")
    dt = np.dtype(_DTYPES[dtype_name])
    data = blob[nl + 1 :]
    tensors = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        want = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        if entry["nbytes"] != want:
            raise DataFormatError(f"tensor {entry['path']}: nbytes/shape mismatch")
        raw = data[entry["offset"] : entry["offset"] + entry["nbytes"]]
        if len(raw) != want:
            raise DataFormatError(f"tensor {entry['path']}: file truncated")
        tensors[entry["path"]] = (
            np.frombuffer(raw, dtype=dt).reshape(shape).astype(np.float64)
        )
    return manifest, tensors


def save_checkpoint(path, params, model_cfg: ModelConfig, bpe: BpeModel | None = None,
                    dtype: str = "float32", extras: dict | None = None,
                    extra_tensors: dict[str, np.ndarray] | None = None) -> None:
    """Write parameters (canonical order first, extras after the core set)."""
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
    ordered: dict[str, np.ndarray] = {}
    for p in param_shapes(model_cfg):
        if p not in params:
            raise ValueError(f"missing parameter {p}")
        ordered[p] = params[p]
    for name, arr in (extra_tensors or {}).items():
        ordered[name] = arr
    manifest = {"config": asdict(model_cfg)}
    if bpe is not None:
        manifest["bpe"] = bpe.to_manifest()
    if extras:
        manifest["extras"] = extras
    _write(path, manifest, ordered, dtype)


class Checkpoint:
    def __init__(self, params, config, bpe, extras, extra_tensors, dtype):
        self.params = params
        self.config = config
        self.bpe = bpe
        self.extras = extras
        self.extra_tensors = extra_tensors
        self.dtype = dtype


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, checking every core tensor against its config shape."""
    manifest, tensors = _read(path)
    try:
        config = ModelConfig(**manifest["config"])
    except (KeyError, TypeError) as e:  # missing, non-object, unknown or ill-typed keys
        raise DataFormatError(f"bad model config in manifest: {e!r}") from None
    params = {}
    for p, shape in param_shapes(config).items():
        if p not in tensors:
            raise DataFormatError(f"missing parameter {p}")
        if tensors[p].shape != shape:
            # config/tensor disagreement, not file corruption
            raise ConfigError(
                f"parameter {p}: shape {tensors[p].shape} does not match {shape}"
            )
        params[p] = tensors.pop(p)
    bpe = BpeModel.from_manifest(manifest["bpe"]) if "bpe" in manifest else None
    for tok, i in (bpe.vocab.items() if bpe else ()):
        if not 0 <= i < config.vocab_size:
            raise DataFormatError(f"bpe token {tok!r} has id {i} outside "
                                  f"[0, vocab_size {config.vocab_size})")
    extras = manifest.get("extras", {})
    if not isinstance(extras, dict):
        raise DataFormatError("manifest extras must be an object")
    return Checkpoint(
        params=params,
        config=config,
        bpe=bpe,
        extras=extras,
        extra_tensors=tensors,
        dtype=manifest["dtype"],
    )


def save_train_state(path, params, model_cfg: ModelConfig, state: TrainState,
                     bpe: BpeModel | None = None) -> None:
    """Resume container: float64 params + Adam moments + best-dev snapshot."""
    extra = {}
    for k, v in state.adam_m.items():
        extra[f"adam.m.{k}"] = v
    for k, v in state.adam_v.items():
        extra[f"adam.v.{k}"] = v
    if state.best_params is not None:
        for k, v in state.best_params.items():
            extra[f"best.{k}"] = v
    extras = {
        "train_state": {
            "adam_t": state.adam_t,
            "next_epoch": state.next_epoch,
            "best_dev": None if math.isinf(state.best_dev) else state.best_dev,
            "epochs_since_improve": state.epochs_since_improve,
            "has_best": state.best_params is not None,
            "history": [[h.epoch, h.train_loss, h.dev_loss] for h in state.history],
        }
    }
    save_checkpoint(path, params, model_cfg, bpe=bpe, dtype="float64",
                    extras=extras, extra_tensors=extra)


# train_state field -> its check; history rows are [epoch, train_loss, dev_loss]
_TRAIN_STATE_FIELDS = {
    "adam_t": _is_count,
    "next_epoch": _is_count,
    "best_dev": lambda x: x is None or _is_number(x),
    "epochs_since_improve": _is_count,
    "has_best": lambda x: isinstance(x, bool),
    "history": lambda rows: isinstance(rows, list) and all(
        isinstance(r, list) and len(r) == 3 and _is_count(r[0])
        and all(map(_is_number, r[1:])) for r in rows),
}


def load_train_state(path):
    """Returns (params, model_cfg, state, bpe); inverse of save_train_state."""
    ck = load_checkpoint(path)
    meta = ck.extras.get("train_state")
    if meta is None or ck.dtype != "float64":
        raise DataFormatError("not a training resume checkpoint")
    if not isinstance(meta, dict):
        raise DataFormatError("train_state must be an object")
    for key, ok in _TRAIN_STATE_FIELDS.items():
        if key not in meta or not ok(meta[key]):
            raise DataFormatError(f"train_state.{key} missing or ill-typed")
    shapes = param_shapes(ck.config)

    def collect(prefix):
        out = {}
        for p, shape in shapes.items():
            arr = ck.extra_tensors.get(f"{prefix}.{p}")
            if arr is None or arr.shape != shape:
                raise DataFormatError(f"missing or misshapen tensor {prefix}.{p}")
            out[p] = arr
        return out

    state = TrainState(
        adam_m=collect("adam.m"),
        adam_v=collect("adam.v"),
        adam_t=meta["adam_t"],
        next_epoch=meta["next_epoch"],
        best_dev=math.inf if meta["best_dev"] is None else meta["best_dev"],
        epochs_since_improve=meta["epochs_since_improve"],
        best_params=collect("best") if meta["has_best"] else None,
        history=[EpochStats(e, t, d) for e, t, d in meta["history"]],
    )
    return ck.params, ck.config, state, ck.bpe
