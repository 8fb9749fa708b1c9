"""Optimizer math, schedules, accumulation equivalence, resume."""

import json

import numpy as np
import pytest

from promptmoe import data as dt
from promptmoe import methods as mt
from promptmoe import trainer as tr
from promptmoe.errors import ConfigError, NumericalError
from promptmoe.linalg import RngStream
from promptmoe.model import LMConfig, ToyLM


@pytest.fixture(scope="module")
def lm():
    cfg = LMConfig(vocab_size=258, hidden=32, layers=1, heads=2, max_seq=64)
    model = ToyLM.create(cfg, RngStream(11).child("lm"), init_std=0.05)
    model.freeze()
    return model


def small_dataset(n=24, seed=5):
    return dt.gen_synthetic("copy_span", n, seed)


def make_provider(lm, seed=17, **kw):
    kw.setdefault("kind", "PT_MOE")
    kw.setdefault("prompt_length", 8)
    kw.setdefault("num_experts", 2)
    kw.setdefault("rank", 4)
    kw.setdefault("init_text", "a b\n")
    cfg = mt.MethodConfig(**kw)
    return mt.build(cfg, lm, RngStream(seed).child("method"))


# ---- learning-rate schedule -------------------------------------------------

def test_lr_warmup_midpoint():
    cfg = tr.TrainConfig(steps=1000, warmup_steps=500, lr=2e-5)
    assert tr.lr_at(250, cfg) == pytest.approx(1e-5, rel=0, abs=0)


def test_lr_constant_after_warmup():
    cfg = tr.TrainConfig(steps=1000, warmup_steps=500, lr=2e-5)
    for step in (500, 501, 750, 10_000):
        assert tr.lr_at(step, cfg) == 2e-5


def test_lr_zero_warmup_is_full_rate_from_step_one():
    cfg = tr.TrainConfig(steps=10, warmup_steps=0, lr=3e-4)
    assert tr.lr_at(1, cfg) == 3e-4


def test_lr_rejects_step_zero():
    cfg = tr.TrainConfig(steps=10)
    with pytest.raises(ConfigError):
        tr.lr_at(0, cfg)


# ---- AdamW update rule ------------------------------------------------------

def test_zero_grads_no_decay_params_bitwise_unchanged():
    p = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    before = p.copy()
    params = {"p": p}
    state = tr.AdamWState(params)
    assert tr.WEIGHT_DECAY == 0.0
    assert tr.adamw_step(params, {"p": np.zeros_like(p)}, state, 0.01)
    assert (p == before).all()


def test_zero_grads_decay_only_closed_form(monkeypatch):
    p = np.array([2.0, -3.0, 0.5])
    params = {"p": p}
    state = tr.AdamWState(params)
    monkeypatch.setattr(tr, "WEIGHT_DECAY", 0.1)  # the step reads the constant per call
    tr.adamw_step(params, {"p": np.zeros_like(p)}, state, 0.01)
    # theta <- theta - lr*wd*theta = 0.999*theta
    np.testing.assert_allclose(p, 0.999 * np.array([2.0, -3.0, 0.5]), rtol=0, atol=1e-15)


def test_three_step_recursion_matches_hand_iteration():
    p = np.array([0.7])
    params = {"p": p}
    state = tr.AdamWState(params)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    assert (tr.BETA1, tr.BETA2, tr.EPS, tr.WEIGHT_DECAY) == (b1, b2, eps, 0.0)

    theta, m, v = 0.7, 0.0, 0.0
    for t in range(1, 4):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        tr.adamw_step(params, {"p": np.ones(1)}, state, lr)
        assert abs(p[0] - theta) < 1e-12


def test_nonfinite_grad_skips_whole_step():
    p = np.array([1.0, 2.0])
    q = np.array([3.0])
    params = {"p": p, "q": q}
    state = tr.AdamWState(params)
    grads = {"p": np.array([0.1, np.nan]), "q": np.array([0.2])}
    ok = tr.adamw_step(params, grads, state, 0.01)
    assert not ok
    assert state.skipped == 1
    assert state.step == 0  # bias correction must not advance on a skip
    assert (p == [1.0, 2.0]).all() and (q == [3.0]).all()


# ---- config validation ------------------------------------------------------

def test_train_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        tr.TrainConfig(steps=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(steps=1, grad_accum=0)


def test_no_trainable_params_is_config_error(lm):
    class Hollow:
        def param_arrays(self):
            return {}

    cfg = tr.TrainConfig(steps=1)
    with pytest.raises(ConfigError, match="trainable"):
        tr.train(Hollow(), lm, cfg, lambda s, m: None)


# ---- full loop ---------------------------------------------------------------

def test_metrics_records_and_file(lm, tmp_path):
    provider = make_provider(lm)
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    cfg = tr.TrainConfig(steps=4, warmup_steps=2, lr=1e-3, grad_accum=2, seed=9)
    path = tmp_path / "metrics.jsonl"
    result = tr.train(provider, lm, cfg, batch_fn, metrics_path=str(path))
    assert result.steps_done == 4
    assert len(result.metrics) == 4
    for rec in result.metrics:
        assert set(rec) == {"step", "lr", "loss", "grad_norm", "expert_counts", "skipped"}
        assert np.isfinite(rec["loss"]) and np.isfinite(rec["grad_norm"])
    assert result.metrics[0]["lr"] == pytest.approx(0.5e-3)
    assert result.metrics[2]["lr"] == 1e-3
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["step"] for l in lines] == [1, 2, 3, 4]
    # selection counts cover every routed example: grad_accum * batch per step
    assert sum(result.metrics[0]["expert_counts"]) == 8


def test_grad_accum_equivalence(lm):
    # sigma=0 removes routing noise so the duplicated micro-batch is the
    # only data difference; trajectories must then agree to 1e-10
    ds = small_dataset()
    batch = dt.build_batch(ds[:4], max_seq=48)

    def run(accum):
        provider = make_provider(lm, sigma=0.0)
        cfg = tr.TrainConfig(steps=5, warmup_steps=1, lr=1e-3, grad_accum=accum, seed=2)
        tr.train(provider, lm, cfg, lambda step, micro: batch)
        return provider.param_arrays()

    one = run(1)
    two = run(2)
    for name in one:
        np.testing.assert_allclose(one[name], two[name], rtol=0, atol=1e-10)


def test_fixed_seed_bitwise_repeat(lm):
    ds = small_dataset()

    def run():
        provider = make_provider(lm)
        batch_fn = dt.make_batch_fn(ds, batch_size=4, seed=3, max_seq=48)
        cfg = tr.TrainConfig(steps=4, warmup_steps=1, lr=1e-3, seed=6)
        result = tr.train(provider, lm, cfg, batch_fn)
        return provider.param_arrays(), [r["loss"] for r in result.metrics]

    a_params, a_losses = run()
    b_params, b_losses = run()
    assert a_losses == b_losses
    for name in a_params:
        assert (a_params[name] == b_params[name]).all()


def test_resume_is_bitwise(lm, tmp_path):
    ds = small_dataset()
    batch_fn = dt.make_batch_fn(ds, batch_size=4, seed=3, max_seq=48)
    cfg = tr.TrainConfig(steps=6, warmup_steps=1, lr=1e-3, seed=8)

    straight = make_provider(lm)
    tr.train(straight, lm, cfg, batch_fn)

    resumed = make_provider(lm)
    half = tr.TrainConfig(steps=3, warmup_steps=1, lr=1e-3, seed=8)
    result = tr.train(resumed, lm, half, batch_fn)
    ckpt = tmp_path / "mid.npz"
    tr.save_checkpoint(ckpt, resumed, result.state, 3, half)

    fresh = make_provider(lm, seed=99)  # deliberately different init
    state, step, seed = tr.load_checkpoint(ckpt, fresh)
    assert (step, seed) == (3, 8)
    tr.train(fresh, lm, cfg, batch_fn, start_step=step, state=state)

    left = straight.param_arrays()
    right = fresh.param_arrays()
    for name in left:
        assert (left[name] == right[name]).all(), name


def test_frozen_base_unchanged_by_training(lm):
    before = lm.param_hash()
    provider = make_provider(lm)
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    tr.train(provider, lm, tr.TrainConfig(steps=2, seed=1), batch_fn)
    assert lm.param_hash() == before


def test_base_mutation_detected(lm):
    provider = make_provider(lm)
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    key = next(iter(lm.params))
    original = lm.params[key].copy()

    def vandal(step, micro):
        lm.params[key][...] += 1.0
        return batch_fn(step, micro)

    try:
        with pytest.raises(NumericalError, match="frozen"):
            tr.train(provider, lm, tr.TrainConfig(steps=2, seed=1), vandal)
    finally:
        lm.params[key][...] = original


def test_nonfinite_loss_reports_batch_ids(lm):
    provider = make_provider(lm)
    provider.stack[...] = np.nan
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    with pytest.raises(NumericalError, match="step 1"):
        tr.train(provider, lm, tr.TrainConfig(steps=1, seed=1), batch_fn)
