"""Optimizer math, schedules, accumulation equivalence, resume."""

import contextlib
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from promptmoe import autodiff as ad
from promptmoe import data as dt
from promptmoe import methods as mt
from promptmoe import trainer as tr
from promptmoe.errors import ConfigError, NumericalError
from promptmoe.linalg import RngStream
from promptmoe.model import LMConfig, ToyLM
from test_autodiff import traced_peak


@pytest.fixture(scope="module")
def lm():
    cfg = LMConfig(hidden=32, layers=1, heads=2, max_seq=64)
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
    kw.setdefault("router_w_std", 1.0)
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


# ---- Adam update rule -------------------------------------------------------

def test_zero_grads_no_decay_params_bitwise_unchanged():
    p = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    before = p.copy()
    params = {"p": p}
    state = tr.AdamWState(params)
    assert tr.adamw_step(params, {"p": np.zeros_like(p)}, state, 0.01)
    assert (p == before).all()


def test_three_step_recursion_matches_hand_iteration():
    p = np.array([0.7])
    params = {"p": p}
    state = tr.AdamWState(params)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    assert (tr.BETA1, tr.BETA2, tr.EPS) == (b1, b2, eps)

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


def test_write_npz_leaves_the_old_file_on_a_failed_write(tmp_path, monkeypatch):
    path = tmp_path / "state.npz"
    tr.write_npz(path, {"x": np.arange(3)})

    def fail_midway(f, **arrays):
        f.write(b"PK partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(tr.np, "savez", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        tr.write_npz(path, {"x": np.arange(5)})
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind
    assert np.array_equal(tr.read_npz(path, "state")["x"], np.arange(3))


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
    assert len(result.metrics) == 4
    for rec in result.metrics:
        assert set(rec) == {
            "step", "lr", "loss", "grad_norm", "expert_counts", "expert_load", "skipped"
        }
        assert np.isfinite(rec["loss"]) and np.isfinite(rec["grad_norm"])
    assert result.metrics[0]["lr"] == pytest.approx(0.5e-3)
    assert result.metrics[2]["lr"] == 1e-3
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["step"] for l in lines] == [1, 2, 3, 4]
    # selection counts cover every routed example: grad_accum * batch per step
    assert sum(result.metrics[0]["expert_counts"]) == 8


def test_a_fresh_run_starts_the_metrics_file_empty(lm, tmp_path):
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    path = tmp_path / "metrics.jsonl"
    provider = make_provider(lm)
    for _ in range(2):  # two fresh runs into one path: the second replaces the first
        result = tr.train(provider, lm, tr.TrainConfig(steps=2, seed=1), batch_fn, str(path))

    def steps():
        return [json.loads(line)["step"] for line in path.read_text().splitlines()]

    assert steps() == [1, 2]
    longer = tr.TrainConfig(steps=3, seed=1)
    tr.train(provider, lm, longer, batch_fn, str(path), start_step=2, state=result.state)
    assert steps() == [1, 2, 3]  # a resumed run appends


@pytest.mark.parametrize("probationary", [True, False])
def test_expert_load_shows_what_non_selective_counts_cannot(lm, probationary):
    # every expert is kept, so the counts are [8, 8] whatever the router does;
    # the load is the routing weight each expert carried
    provider = make_provider(lm, selective=False, probationary=probationary, sigma=0.0)
    provider.router_w[...] = 0.0
    provider.router_b[...] = [0.0, 3.0]
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    cfg = tr.TrainConfig(steps=1, warmup_steps=1, lr=1e-3, grad_accum=2, seed=9)
    (rec,) = tr.train(provider, lm, cfg, batch_fn).metrics
    assert rec["expert_counts"] == [8, 8]
    load = rec["expert_load"]
    assert sum(load) == pytest.approx(8.0)
    assert load[1] > 10 * load[0] > 0


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


def test_micro_batch_graph_is_freed_before_the_next_forward(lm):
    # the same micro-batch twice: once the first graph is gone before the
    # second forward, the step peaks where one forward and backward do
    # (keeping it alive put the step 38% above)
    batch = dt.build_batch(small_dataset()[:8], max_seq=48)
    provider = make_provider(lm)

    def one_micro_batch():
        loss, count, _ = mt.loss_on_batch(
            provider, lm, batch, training=True, noise=provider.training_noise(RngStream(1), batch.size)
        )
        ad.backward(ad.scale(loss, 1.0 / count))

    cfg = tr.TrainConfig(steps=1, warmup_steps=1, grad_accum=2, seed=2)
    one_micro_batch()  # warm-up: first-call caches are not the graph's
    one = traced_peak(one_micro_batch)
    fresh = make_provider(lm)
    step = traced_peak(lambda: tr.train(fresh, lm, cfg, lambda step, micro: batch))
    assert step <= 1.05 * one, (step, one)


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
    first_part = batch_fn(1, 0).ids[:2]  # the caller's part raises first
    with pytest.raises(NumericalError, match=re.escape(f"at step 1 on batch ids {first_part}")):
        tr.train(provider, lm, tr.TrainConfig(steps=1, seed=1), batch_fn)


# ---- micro-batch row parts ---------------------------------------------------

class StopHere(Exception):
    pass


def assert_no_child_left():
    """The test process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_train_worker_ends_with_the_call(lm):
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    cfg = tr.TrainConfig(steps=2, warmup_steps=1, seed=1)
    tr.train(make_provider(lm), lm, cfg, batch_fn)
    assert_no_child_left()

    def stop_at_step_two(step, micro):
        if step == 2:
            raise StopHere
        return batch_fn(step, micro)

    with pytest.raises(StopHere):
        tr.train(make_provider(lm), lm, cfg, stop_at_step_two)
    assert_no_child_left()


def test_worker_part_error_reraises_in_the_caller(lm, monkeypatch):
    caller = os.getpid()
    loss_on_batch = mt.loss_on_batch

    def fail_off_caller(*args, **kwargs):
        if os.getpid() != caller:
            raise NumericalError("worker part failed")
        return loss_on_batch(*args, **kwargs)

    monkeypatch.setattr(mt, "loss_on_batch", fail_off_caller)
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    with pytest.raises(NumericalError, match="^worker part failed$"):
        tr.train(make_provider(lm), lm, tr.TrainConfig(steps=1, seed=1), batch_fn)
    assert_no_child_left()


class Hung(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    """Raise Hung in the block once ``seconds`` (whole) have passed."""

    def hung(signum, frame):
        raise Hung

    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


def test_a_killed_worker_makes_the_call_raise(lm, monkeypatch):
    caller = os.getpid()
    loss_on_batch = mt.loss_on_batch

    def die_off_caller(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return loss_on_batch(*args, **kwargs)

    monkeypatch.setattr(mt, "loss_on_batch", die_off_caller)
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    start = time.monotonic()
    with deadline(30), pytest.raises(ChildProcessError, match="died at step 1"):
        tr.train(make_provider(lm), lm, tr.TrainConfig(steps=2, seed=1), batch_fn)
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_ctrl_c_reaps_the_worker(lm, monkeypatch):
    loss_on_batch = mt.loss_on_batch

    def interrupt(provider, lm, batch, **kwargs):
        # Ctrl-C signals the whole process group: the caller and the worker
        os.kill(os.getpid(), signal.SIGINT)
        return loss_on_batch(provider, lm, batch, **kwargs)

    monkeypatch.setattr(mt, "loss_on_batch", interrupt)
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=4, seed=3, max_seq=48)
    with deadline(30), pytest.raises(KeyboardInterrupt):
        tr.train(make_provider(lm), lm, tr.TrainConfig(steps=2, seed=1), batch_fn)
    assert_no_child_left()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def python_stdout(script):
    """What ``script`` prints to stdout (a pipe) in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_buffered_stdout_is_written_once_around_the_worker():
    out = python_stdout(
        "from promptmoe import pretrain as pt\n"
        "print('written before the fork', end='')\n"
        "pt.pretrain_base(pt.PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64,\n"
        "                                   docs=60, steps=1, batch_size=4, warmup_steps=1))\n"
    )
    assert out == "written before the fork"


def test_eval_and_set_up_leave_multiprocessing_unimported():
    # only forking the part worker imports it, for about 1 MB of RSS
    out = python_stdout(
        "import sys\n"
        "import promptmoe.cli\n"
        "from promptmoe import data as dt, evaluate as ev, methods as mt\n"
        "from promptmoe.linalg import RngStream\n"
        "from promptmoe.model import LMConfig, ToyLM\n"
        "lm = ToyLM.create(LMConfig(hidden=16, layers=1, heads=2, max_seq=64), RngStream(1))\n"
        "lm.freeze()\n"
        "cfg = mt.MethodConfig(kind='PT_MOE', prompt_length=4, num_experts=2, rank=2,\n"
        "                      init_text='a b\\n')\n"
        "provider = mt.build(cfg, lm, RngStream(2))\n"
        "ev.eval_dataset(provider, lm, dt.gen_synthetic('copy_span', 4, 21), batch_size=4)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    assert out == "False\n"


def spy_on_parts(monkeypatch, tmp_path):
    """Record (ran in the caller, part batch ids, routing) of every ``loss_on_batch`` call.

    The forked worker inherits the spy, so each call, in either process,
    appends its record to a file in one write; the returned function reads
    them all.
    """
    caller = os.getpid()
    path = tmp_path / "parts.pickle"
    loss_on_batch = mt.loss_on_batch

    def spy(provider, lm, batch, **kwargs):
        out = loss_on_batch(provider, lm, batch, **kwargs)
        record = pickle.dumps((os.getpid() == caller, batch.ids, out[2]))
        with open(path, "ab") as f:
            f.write(record)
        return out

    monkeypatch.setattr(mt, "loss_on_batch", spy)

    def calls():
        records = []
        with open(path, "rb") as f:
            while f.peek(1):
                records.append(pickle.load(f))
        return records

    return calls


def test_parts_route_as_one_whole_batch(lm, monkeypatch, tmp_path):
    batch = dt.build_batch(small_dataset()[:7], max_seq=48)  # parts of 3 and 4 rows
    cfg = tr.TrainConfig(steps=1, warmup_steps=1, grad_accum=1, seed=4)
    spied = spy_on_parts(monkeypatch, tmp_path)
    tr.train(make_provider(lm), lm, cfg, lambda step, micro: batch)
    calls = sorted(spied(), key=lambda call: not call[0])  # the caller's part first
    assert [(in_caller, ids) for in_caller, ids, _ in calls] == [
        (True, batch.ids[:3]), (False, batch.ids[3:])
    ]
    monkeypatch.undo()
    provider = make_provider(lm)
    _, _, whole = mt.loss_on_batch(
        provider, lm, batch, training=True,
        noise=provider.training_noise(RngStream(4).child("noise", 1, 0), batch.size),
    )
    for field in ("noisy_logits", "mask"):
        got = np.concatenate([getattr(routing, field) for _, _, routing in calls])
        assert np.array_equal(got, getattr(whole, field)), field


def test_split_micro_batch_matches_one_whole_batch_backward(lm, monkeypatch):
    batch = dt.build_batch(small_dataset()[:7], max_seq=48)
    provider = make_provider(lm)
    loss, count, _ = mt.loss_on_batch(
        provider, lm, batch, training=True,
        noise=provider.training_noise(RngStream(4).child("noise", 1, 0), batch.size),
    )
    want = ad.backward(ad.scale(loss, 1.0 / count))
    seen = {}
    monkeypatch.setattr(tr, "adamw_step", lambda params, grads, state, lr: seen.update(grads))
    cfg = tr.TrainConfig(steps=1, warmup_steps=1, grad_accum=1, seed=4)
    (rec,) = tr.train(provider, lm, cfg, lambda step, micro: batch).metrics
    assert rec["loss"] == pytest.approx(float(loss.value) / count, rel=1e-12)
    assert sorted(seen) == sorted(want)
    for name, g in want.items():
        np.testing.assert_allclose(seen[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max())


def test_split_tuning_repeats_bitwise_and_matches_a_serial_run(lm, monkeypatch, tmp_path):
    batch_fn = dt.make_batch_fn(small_dataset(), batch_size=5, seed=3, max_seq=48)
    cfg = tr.TrainConfig(steps=3, warmup_steps=1, lr=1e-3, seed=6)

    def run():
        provider = make_provider(lm)
        metrics = tr.train(provider, lm, cfg, batch_fn).metrics
        return provider.param_arrays(), metrics

    runs = [run() for _ in range(2)]
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")  # every part runs in the caller
        spied = spy_on_parts(patch, tmp_path)
        runs.append(run())
    calls = spied()
    assert len(calls) == 2 * cfg.steps * cfg.grad_accum
    assert all(in_caller for in_caller, _, _ in calls)  # the serial run forked no worker
    (params, metrics), *others = runs
    for other_params, other_metrics in others:
        assert other_metrics == metrics
        for name in params:
            assert (other_params[name] == params[name]).all(), name


def test_one_row_micro_batch_runs_whole(lm, monkeypatch, tmp_path):
    assert tr.row_parts(1) == [slice(0, 1)]
    batch = dt.build_batch(small_dataset()[:1], max_seq=48)
    spied = spy_on_parts(monkeypatch, tmp_path)
    cfg = tr.TrainConfig(steps=1, warmup_steps=1, grad_accum=1, seed=4)
    (rec,) = tr.train(make_provider(lm), lm, cfg, lambda step, micro: batch).metrics
    assert [(in_caller, len(ids)) for in_caller, ids, _ in spied()] == [(True, 1)]
    assert np.isfinite(rec["loss"]) and sum(rec["expert_counts"]) == 1
