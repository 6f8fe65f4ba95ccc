import copy
import errno
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellcap import tokenizer as tk
from spellcap.errors import ConfigError, DataFormatError
from spellcap.seq2seq import (
    ModelConfig,
    checkpoint,
    init_parameters,
    load_checkpoint,
    load_train_state,
    save_checkpoint,
    save_train_state,
)
from spellcap.seq2seq.decode import greedy_decode
from spellcap.seq2seq.train import EpochStats, TrainState


CFG = ModelConfig(
    vocab_size=40, n_layers=1, n_heads=2, d_model=8, d_ff=16,
    dropout=0.0, max_src_len=32, max_tgt_len=8,
)
BPE = tk.learn_bpe(["vera v e r a"], 3)


@pytest.fixture()
def params():
    return init_parameters(CFG, seed=3)


def test_roundtrip_float32_default(tmp_path, params):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, CFG, BPE)
    ck = load_checkpoint(path)
    assert json.loads((tmp_path / "m.ckpt").read_bytes().partition(b"\n")[0])["dtype"] == "float32"
    assert ck.config == CFG
    for k, v in params.items():
        assert ck.params[k].dtype == np.float64
        np.testing.assert_array_equal(ck.params[k], v.astype(np.float32).astype(np.float64))


def test_quantization_idempotent_bytes(tmp_path, params):
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    save_checkpoint(p1, params, CFG, BPE)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.params, CFG, BPE)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_predictions_identical_after_two_load_cycles(tmp_path, params):
    src = [5, 9, 12]
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    save_checkpoint(p1, params, CFG, BPE)
    ck1 = load_checkpoint(p1)
    save_checkpoint(p2, ck1.params, CFG, BPE)
    ck2 = load_checkpoint(p2)
    g1 = greedy_decode(ck1.params, CFG, src)
    g2 = greedy_decode(ck2.params, CFG, src)
    assert g1 == g2
    # and the name survives the original quantization
    g0 = greedy_decode(params, CFG, src)
    assert g0.name == g1.name


def test_float64_roundtrip_exact(tmp_path, params):
    path = str(tmp_path / "m.ckpt.resume")
    save_train_state(path, params, CFG, TrainState.fresh(params), BPE)
    loaded = load_train_state(path)[0]
    for k, v in params.items():
        np.testing.assert_array_equal(loaded[k], v)


def test_bpe_model_travels_in_manifest(tmp_path, params):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, CFG, BPE)
    ck = load_checkpoint(path)
    assert ck.bpe is not None
    assert ck.bpe.vocab == BPE.vocab
    assert ck.bpe.merges == BPE.merges


def test_shape_mismatch_rejected(tmp_path, params):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, CFG, BPE)
    blob = (tmp_path / "m.ckpt").read_bytes()
    nl = blob.find(b"\n")
    manifest = json.loads(blob[:nl])
    other = ModelConfig(
        vocab_size=40, n_layers=1, n_heads=2, d_model=16, d_ff=32,
        dropout=0.0, max_src_len=32, max_tgt_len=8,
    )
    manifest["config"] = asdict(other)
    (tmp_path / "bad.ckpt").write_bytes(
        json.dumps(manifest).encode() + b"\n" + blob[nl + 1 :]
    )
    with pytest.raises(ConfigError, match="shape|nbytes"):
        load_checkpoint(str(tmp_path / "bad.ckpt"))


def test_truncated_file_rejected(tmp_path, params):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, params, CFG, BPE)
    blob = (tmp_path / "m.ckpt").read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[:-40])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(str(tmp_path / "cut.ckpt"))


def test_not_a_checkpoint_rejected(tmp_path):
    for junk in (b'{"format": "other"}\n', b'["spellcap-checkpoint"]\n'):
        (tmp_path / "junk.ckpt").write_bytes(junk)
        with pytest.raises(DataFormatError, match="not a spellcap checkpoint"):
            load_checkpoint(str(tmp_path / "junk.ckpt"))
    (tmp_path / "empty.ckpt").write_bytes(b"")
    with pytest.raises(DataFormatError):
        load_checkpoint(str(tmp_path / "empty.ckpt"))


def _drop_tensors(m):
    del m["tensors"]


def _drop_config(m):
    del m["config"]


def _unknown_config_key(m):
    m["config"]["attention"] = "sparse"


def _string_shape(m):
    m["tensors"][0]["shape"] = ["8", "40"]


def _bpe_without_merges(m):
    m["bpe"] = {"vocab": {tok: i for i, tok in enumerate(tk.BASE_TOKENS)}}


def _drop_bpe(m):
    del m["bpe"]


def _bpe_not_object(m):
    m["bpe"] = "x"


def _bpe_id_beyond_vocab(m):
    m["bpe"]["vocab"]["zz"] = 9999
    m["bpe"]["merges"].append(["z", "z"])


def _set_config(key, value):
    def corrupt(m):
        m["config"][key] = value
    return corrupt


def _negative_shape(m):
    m["tensors"][0]["shape"] = [-1, 0]


def _overflowing_shape(m):
    m["tensors"][0].update(shape=[2**32, 2**32], nbytes=0)  # 2**64 elements


def _unknown_top_level_key(m):
    m["foo"] = {}


def _extras_in_checkpoint(m):
    m["extras"] = {"anything": {}}


def _rewrite_manifest(path, corrupt):
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    manifest = json.loads(blob[:nl])
    corrupt(manifest)
    path.write_bytes(json.dumps(manifest).encode() + blob[nl:])


@pytest.mark.parametrize("corrupt, match", [
    (_drop_tensors, "manifest tensors"),
    (_drop_config, "config"),
    (_unknown_config_key, "attention"),
    (_string_shape, "manifest tensors"),
    (_bpe_without_merges, "bpe merges"),
    (_drop_bpe, "manifest bpe"),
    (_bpe_not_object, "bpe block"),
    (_bpe_id_beyond_vocab, "'zz' has id 9999"),
    (_set_config("n_layers", 1.5), r"config\.n_layers must be int, got 1\.5"),
    (_set_config("d_model", 8.0), r"config\.d_model must be int"),
    (_set_config("n_heads", True), r"config\.n_heads must be int, got True"),
    (_set_config("vocab_size", 40.0), r"config\.vocab_size must be int"),
    (_negative_shape, "negative shape"),
    (_overflowing_shape, "nbytes/shape mismatch"),
    (_unknown_top_level_key, "manifest has unknown key 'foo'"),
    (_extras_in_checkpoint, "a training resume file, not a model checkpoint"),
], ids=["no_tensors", "no_config", "unknown_config_key", "string_shape",
        "bpe_without_merges", "no_bpe", "bpe_not_object", "bpe_id_beyond_vocab",
        "fractional_n_layers", "float_d_model", "bool_n_heads", "float_vocab_size",
        "negative_shape", "overflowing_shape", "unknown_top_level_key",
        "extras_in_checkpoint"])
def test_malformed_manifest_rejected(tmp_path, params, corrupt, match):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, CFG, BPE)
    _rewrite_manifest(path, corrupt)
    with pytest.raises(DataFormatError, match=match):
        load_checkpoint(str(path))


def _drop_history(m):
    del m["extras"]["train_state"]["history"]


def _state_as_list(m):
    m["extras"]["train_state"] = [m["extras"]["train_state"]]


def _extras_as_string(m):
    m["extras"] = "x"


def _short_history_row(m):
    m["extras"]["train_state"]["history"][0] = [0, 1.5]


def _stored_next_epoch(m):
    m["extras"]["train_state"]["next_epoch"] = 5


def _renumbered_history(m):
    m["extras"]["train_state"]["history"][1][0] = 2


def _second_extras_block(m):
    m["extras"]["anything"] = {}


def _drop_best_snapshot(m):
    m["tensors"] = [e for e in m["tensors"] if not e["path"].startswith("best.")]


@pytest.mark.parametrize("corrupt, match", [
    (_drop_history, "train_state.history"),
    (_state_as_list, "train_state must be an object"),
    (_extras_as_string, "extras"),
    (_short_history_row, "train_state.history"),
    (_stored_next_epoch, "unknown key 'next_epoch'"),
    (_renumbered_history, "history epochs 0, 1, 2"),
    (_drop_best_snapshot, "tensor best."),
    (_second_extras_block, r"extras must hold train_state alone, got \['anything'"),
    (_unknown_top_level_key, "manifest has unknown key 'foo'"),
], ids=["no_history", "state_as_list", "extras_as_string", "short_history_row",
        "stored_next_epoch", "renumbered_history", "no_best_snapshot",
        "second_extras_block", "unknown_top_level_key"])
def test_malformed_resume_state_rejected(tmp_path, params, corrupt, match):
    state = TrainState.fresh(params)
    state.history += [EpochStats(0, 1.5, 2.5), EpochStats(1, 1.4, 2.6)]
    state.best_params = params  # the snapshot train keeps once a dev loss is recorded
    path = tmp_path / "m.ckpt.resume"
    save_train_state(str(path), params, CFG, state, BPE)
    load_train_state(str(path))  # intact before the edit
    _rewrite_manifest(path, corrupt)
    if corrupt is _drop_best_snapshot:  # the snapshot's bytes, which end the file, go too
        head, _, rest = path.read_bytes().partition(b"\n")
        end = max(e["offset"] + e["nbytes"] for e in json.loads(head)["tensors"])
        path.write_bytes(head + b"\n" + rest[:end])
    with pytest.raises(DataFormatError, match=match):
        load_train_state(str(path))


class _FullDisk:
    """A binary file that takes the first 64 bytes of each write and then
    fails, as a write to a full disk does."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:64])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


@pytest.mark.parametrize("resume", [False, True], ids=["checkpoint", "resume_file"])
def test_failed_write_leaves_earlier_file_intact(tmp_path, params, monkeypatch, resume):
    path = tmp_path / "m.ckpt"

    def save(p):
        if resume:
            save_train_state(str(path), p, CFG, TrainState.fresh(p), BPE)
        else:
            save_checkpoint(str(path), p, CFG, BPE)

    save(params)
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space"):
        save({k: v + 1.0 for k, v in params.items()})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_missing_parameter_rejected(tmp_path, params):
    incomplete = dict(params)
    incomplete.pop("output.bias")
    with pytest.raises(ValueError, match="missing parameter"):
        save_checkpoint(str(tmp_path / "m.ckpt"), incomplete, CFG, BPE)


_DELETE = object()


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A model checkpoint with a BPE block and its resume file, each as
    (path, manifest, tensor bytes, loader)."""
    root = tmp_path_factory.mktemp("fuzz")
    params = init_parameters(CFG, seed=3)
    state = TrainState.fresh(params)
    state.history.append(EpochStats(0, 1.5, 2.5))
    state.best_params = params
    save_checkpoint(str(root / "m.ckpt"), params, CFG, BPE)
    save_train_state(str(root / "m.ckpt.resume"), params, CFG, state, BPE)
    out = {}
    for name, load in (("m.ckpt", load_checkpoint), ("m.ckpt.resume", load_train_state)):
        head, _, rest = (root / name).read_bytes().partition(b"\n")
        out[name] = (root / ("fuzzed." + name), json.loads(head), rest, load)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_manifest_ends_in_typed_error(saved_files, data):
    """Delete any key or list item of the manifest, or replace its value with a
    value of another JSON type: loading returns or raises only
    DataFormatError or ConfigError, never a raw exception."""
    path, manifest, rest, load = saved_files[data.draw(st.sampled_from(sorted(saved_files)))]
    edited = copy.deepcopy(manifest)
    parent, key, node = None, None, edited
    while isinstance(node, (dict, list)) and node and (key is None or data.draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    value = data.draw(st.sampled_from([_DELETE, None, True, 1.5, -1, "x", [], {}]))
    if value is _DELETE:
        del parent[key]
    else:
        parent[key] = value
    path.write_bytes(json.dumps(edited).encode() + b"\n" + rest)
    try:
        load(str(path))
    except (DataFormatError, ConfigError):
        pass


def _duplicate_entry(m):
    m["tensors"].append(dict(m["tensors"][0]))


def _stray_entry(path):
    def corrupt(m):
        last = m["tensors"][-1]
        m["tensors"].append({**last, "path": path})  # reuses the last tensor's bytes
    return corrupt


@pytest.mark.parametrize("resume", [False, True], ids=["checkpoint", "resume_file"])
@pytest.mark.parametrize("corrupt, match", [
    (_duplicate_entry, "tensor embedding: duplicate path"),
    (None, "8 bytes after the last tensor"),
], ids=["duplicate_path", "trailing_bytes"])
def test_reader_consumes_exactly_its_file(tmp_path, params, resume, corrupt, match):
    path = tmp_path / "m.ckpt"
    if resume:
        save_train_state(str(path), params, CFG, TrainState.fresh(params), BPE)
    else:
        save_checkpoint(str(path), params, CFG, BPE)
    if corrupt is None:
        path.write_bytes(path.read_bytes() + bytes(8))
    else:
        _rewrite_manifest(path, corrupt)
    with pytest.raises(DataFormatError, match=match):
        (load_train_state if resume else load_checkpoint)(str(path))


def test_checkpoint_without_extras_holds_only_parameters(tmp_path, params):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params, CFG, BPE)
    _rewrite_manifest(path, _stray_entry("encoder.0.attn.wz"))
    with pytest.raises(DataFormatError, match="tensor encoder.0.attn.wz is not a parameter"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("stray, dev_loss", [
    (None, float("nan")),  # best.* saved beside a history without a dev loss
    ("adam.x.embedding", 2.5),
    ("best.output.extra", 2.5),
], ids=["best_without_dev_loss", "misspelled_group", "unknown_best_path"])
def test_resume_reader_refuses_unclaimed_tensors(tmp_path, params, stray, dev_loss):
    state = TrainState.fresh(params)
    state.history.append(EpochStats(0, 1.5, dev_loss))
    state.best_params = params
    path = tmp_path / "m.ckpt.resume"
    save_train_state(str(path), params, CFG, state, BPE)
    if stray is not None:
        load_train_state(str(path))  # intact before the edit
        _rewrite_manifest(path, _stray_entry(stray))
    with pytest.raises(DataFormatError,
                       match=rf"tensor {stray or 'best.embedding'} is not part of the resume"):
        load_train_state(str(path))
