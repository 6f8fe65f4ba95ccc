import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spellcap.errors import ConfigError, NumericError
from spellcap.seq2seq import (
    ModelConfig,
    TrainConfig,
    init_parameters,
    load_train_state,
    save_train_state,
    train,
)
from spellcap.seq2seq.train import (
    EpochStats,
    TrainState,
    adam_step,
    best_epoch,
    epochs_since_best,
    evaluate,
)
from spellcap.tokenizer import learn_bpe

from oracles import early_stopping_replay, search


CFG = ModelConfig(
    vocab_size=40, n_layers=2, n_heads=2, d_model=8, d_ff=16,
    dropout=0.1, max_src_len=32, max_tgt_len=16,
)
BPE = learn_bpe(["vera v e r a"], 3)


def pairs(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        src = list(rng.integers(4, 36, size=int(rng.integers(3, 8))))
        mid = list(rng.integers(4, 30, size=int(rng.integers(1, 6))))
        out.append((src, [1] + mid + [2]))
    return out


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    for key, value in (("learning_rate", math.nan), ("learning_rate", math.inf),
                       ("eps", -1.0), ("eps", 0.0), ("eps", math.nan)):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})


def test_adam_step_moves_every_tensor():
    params = init_parameters(CFG, seed=0)
    before = {k: v.copy() for k, v in params.items()}
    grads = {k: np.ones_like(v) for k, v in params.items()}
    state = TrainState.fresh(params)
    adam_step(params, grads, state, TrainConfig(learning_rate=1e-2))
    assert state.adam_t == 1
    for k in params:
        assert not np.array_equal(params[k], before[k]), k


def test_adam_first_step_closed_form():
    # after one step from zero moments the update is lr * g / (|g| + eps)
    params = {"w": np.array([1.0, -2.0])}
    g = np.array([0.5, -0.25])
    state = TrainState.fresh(params)
    adam_step(params, {"w": g}, state, TrainConfig(learning_rate=0.1))
    expect = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params["w"], expect, rtol=1e-12)
    np.testing.assert_allclose(state.adam_m["w"], 0.1 * g, rtol=1e-12)
    np.testing.assert_allclose(state.adam_v["w"], 0.001 * g * g, rtol=1e-12)


def test_overfit_single_pair_logprob_approaches_zero():
    params = init_parameters(CFG, seed=7)
    pair = ([4, 32, 4], [1, 4, 2])
    cfg = TrainConfig(batch_size=1, learning_rate=1e-2, epochs=60, seed=0)
    res = train(params, CFG, [pair], [], cfg)
    early = res.history[4].train_loss
    late = res.history[-1].train_loss
    assert late < early
    out = search(res.params, CFG, [[4, 32, 4]], 1)[0][0]
    assert out.name == "a"
    assert out.reached_eos
    assert -0.5 < out.logprob < 0.0


def test_dev_loss_decreases_at_smoke_rate():
    params = init_parameters(CFG, seed=1)
    tr = pairs(seed=2, n=48)
    dev = pairs(seed=3, n=12)
    cfg = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=5, seed=4)
    res = train(params, CFG, tr, dev, cfg)
    devs = [h.dev_loss for h in res.history]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_empty_dev_uses_final_params_and_nan_rows():
    params = init_parameters(CFG, seed=1)
    res = train(params, CFG, pairs(5, 8), [], TrainConfig(batch_size=4, epochs=2, seed=0))
    assert res.params is params
    assert res.best_epoch is None
    assert all(math.isnan(h.dev_loss) for h in res.history)


def test_early_stopping_with_patience():
    params = init_parameters(CFG, seed=2)
    tr = pairs(seed=6, n=24)
    dev = pairs(seed=7, n=8)
    # lr high enough to oscillate on dev quickly
    cfg = TrainConfig(batch_size=8, learning_rate=5e-2, epochs=60, seed=1, patience=2)
    res = train(params, CFG, tr, dev, cfg)
    if res.stopped_early:
        assert len(res.history) < 60
        assert res.best_epoch is not None
        best = min(h.dev_loss for h in res.history)
        assert res.history[res.best_epoch].dev_loss == best


def test_nan_loss_raises_numeric_error():
    params = init_parameters(CFG, seed=3)
    params["output.weight"][:] = np.inf
    with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="invalid value"):
        train(params, CFG, pairs(8, 4), [], TrainConfig(batch_size=2, epochs=1))


def test_resume_equals_straight_run(tmp_path):
    tr = pairs(seed=10, n=20)
    dev = pairs(seed=11, n=6)
    two = TrainConfig(batch_size=4, learning_rate=1e-3, epochs=2, seed=5)
    one = TrainConfig(batch_size=4, learning_rate=1e-3, epochs=1, seed=5)

    pa = init_parameters(CFG, seed=7)
    res_a = train(pa, CFG, tr, dev, two)

    pb = init_parameters(CFG, seed=7)
    res_b1 = train(pb, CFG, tr, dev, one)
    path = str(tmp_path / "state.ckpt")
    save_train_state(path, pb, CFG, res_b1.state, BPE)
    p2, cfg2, state2, _ = load_train_state(path)
    res_b2 = train(p2, cfg2, tr, dev, two, state=state2)

    for k in pa:
        assert np.array_equal(pa[k], p2[k]), k
    ha = [(h.epoch, h.train_loss, h.dev_loss) for h in res_a.history]
    hb = [(h.epoch, h.train_loss, h.dev_loss) for h in res_b2.history]
    assert len(ha) == len(hb)
    for (ea, ta, da), (eb, tb, db) in zip(ha, hb):
        assert ea == eb
        assert abs(ta - tb) <= 1e-9
        assert abs(da - db) <= 1e-9


def test_resume_after_early_stop_trains_no_further_epoch(tmp_path):
    tr = pairs(seed=6, n=24)
    dev = pairs(seed=7, n=8)
    cfg = TrainConfig(batch_size=8, learning_rate=2e-2, epochs=12, seed=0, patience=1)
    pa = init_parameters(CFG, seed=2)
    res_a = train(pa, CFG, tr, dev, cfg)
    assert res_a.stopped_early and len(res_a.history) < cfg.epochs

    path = str(tmp_path / "state.ckpt")
    save_train_state(path, pa, CFG, res_a.state, BPE)
    p2, cfg2, state2, _ = load_train_state(path)
    res_b = train(p2, cfg2, tr, dev, cfg, state=state2)

    assert res_b.stopped_early
    assert res_b.history == res_a.history
    for k in pa:
        assert np.array_equal(pa[k], p2[k]), k
        assert np.array_equal(res_a.params[k], res_b.params[k]), k


@given(devs=st.lists(st.sampled_from([0.5, 1.0, 1.5, math.nan]), max_size=12),
       patience=st.integers(1, 4))
def test_history_counters_match_incremental_rule(devs, patience):
    # few distinct losses, so ties are common; NaN epochs ran without a dev set
    history = [EpochStats(e, 1.0, d) for e, d in enumerate(devs)]
    assert (best_epoch(history), epochs_since_best(history)) == early_stopping_replay(devs)[:2]
    # train stops before the first epoch whose history so far has spent the patience
    stop = next((k for k in range(len(devs))
                 if epochs_since_best(history[:k]) >= patience), len(devs))
    assert stop == early_stopping_replay(devs, patience)[2]


def test_resume_of_a_run_without_dev_set_then_with_one(tmp_path):
    tr, dev = pairs(seed=10, n=20), pairs(seed=11, n=6)
    p = init_parameters(CFG, seed=7)
    first = train(p, CFG, tr, [], TrainConfig(batch_size=4, learning_rate=1e-3, epochs=1))
    path = str(tmp_path / "state.ckpt")
    save_train_state(path, p, CFG, first.state, BPE)
    p2, _, state, _ = load_train_state(path)
    assert state.best_params is None and len(state.history) == 1
    res = train(p2, CFG, tr, dev, TrainConfig(batch_size=4, learning_rate=1e-3, epochs=3),
                state=state)
    devs = [h.dev_loss for h in res.history]
    assert math.isnan(devs[0]) and res.best_epoch == devs.index(min(devs[1:]))
    assert res.params is res.state.best_params


def test_same_seed_same_run():
    tr = pairs(seed=20, n=16)
    cfg = TrainConfig(batch_size=4, learning_rate=1e-3, epochs=2, seed=9)
    res1 = train(init_parameters(CFG, seed=1), CFG, tr, [], cfg)
    res2 = train(init_parameters(CFG, seed=1), CFG, tr, [], cfg)
    for k in res1.params:
        assert np.array_equal(res1.params[k], res2.params[k])
    assert [h.train_loss for h in res1.history] == [h.train_loss for h in res2.history]


def test_three_epoch_losses_pinned():
    # Train and dev losses of a dropout-0.1 run, recorded before the weight
    # gradients became one gemm each; a change of summation order may move
    # them by rounding only.
    res = train(init_parameters(CFG, seed=1), CFG, pairs(2, 48), pairs(3, 12),
                TrainConfig(batch_size=8, learning_rate=1e-3, epochs=3, seed=4))
    want = [(3.5749309533620326, 3.400398379684423),
            (3.4833685965447176, 3.35768573964461),
            (3.4254214888364527, 3.33838990913206)]
    got = [(h.train_loss, h.dev_loss) for h in res.history]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_three_epoch_losses_pinned_in_groups():
    # The same run at batch_size 20: the 48 samples make batches of 3, 3 and
    # 1 attention groups, each with its own dropout masks. Recorded with the
    # batch rows in example order; packing them group after group may move
    # the losses by rounding only.
    res = train(init_parameters(CFG, seed=1), CFG, pairs(2, 48), pairs(3, 12),
                TrainConfig(batch_size=20, learning_rate=1e-3, epochs=3, seed=4))
    want = [(3.6013952220614165, 3.4435057921052263),
            (3.5452358881920776, 3.3998605413113565),
            (3.4618348124226705, 3.372004812178178)]
    got = [(h.train_loss, h.dev_loss) for h in res.history]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_evaluate_batch_split_invariant():
    params = init_parameters(CFG, seed=4)
    data = pairs(seed=12, n=10)
    a = evaluate(params, CFG, data, batch_size=3)
    b = evaluate(params, CFG, data, batch_size=10)
    assert a == pytest.approx(b, abs=1e-12)


def test_empty_training_set_rejected():
    with pytest.raises(ValueError, match="empty training set"):
        train(init_parameters(CFG, seed=0), CFG, [], [], TrainConfig())
