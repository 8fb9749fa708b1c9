"""Pipeline wiring: datasets, artifacts, determinism, budget gate."""

import dataclasses
import json

import numpy as np

from promptmoe import config as cf
from promptmoe import runner
from promptmoe.pretrain import PretrainConfig


def tiny_rc(**method_kw):
    rc = cf.default_run_config()
    fields = dict(prompt_length=8, num_experts=2, rank=2, budget=0,
                  init_text="a b\n", router_w_std=1.0)
    fields.update(method_kw)
    return dataclasses.replace(
        rc,
        method=dataclasses.replace(rc.method, **fields),
        base=PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64,
                            docs=60, steps=3, batch_size=4, warmup_steps=1),
        train=dataclasses.replace(rc.train, steps=3, batch_size=2, warmup_steps=1),
        data=dataclasses.replace(rc.data, train_count=8, test_count=4, ood_count=2),
    )


def test_build_datasets_counts():
    rc = tiny_rc()
    train, test_id, test_ood = runner.build_datasets(rc.data)
    assert len(train) == 8 * len(rc.data.id_tasks)
    assert len(test_id) == 4 * len(rc.data.id_tasks)
    assert len(test_ood) == 2 * len(rc.data.ood_tasks)
    assert {ex.task for ex in train} == set(rc.data.id_tasks)
    assert {ex.task for ex in test_ood} == set(rc.data.ood_tasks)


def test_run_training_output_shape(tmp_path):
    out, provider, lm = runner.run_training(
        tiny_rc(), cache_dir=str(tmp_path / "cache"), out_dir=str(tmp_path / "run")
    )
    assert out["method"] == "PT_MOE"
    assert out["steps"] == 3
    assert out["param_count"] == provider.param_count()
    assert len(out["losses"]) == 3
    assert np.isfinite(out["final_loss"])
    assert {"in_domain", "out_of_domain"} <= set(out["report"])
    for name in ("checkpoint.npz", "report.json", "metrics.jsonl"):
        assert (tmp_path / "run" / name).exists(), name
    on_disk = json.loads((tmp_path / "run" / "report.json").read_text())
    assert on_disk["seed"] == out["seed"]


def test_seed_argument_overrides_config(tmp_path):
    out, _, _ = runner.run_training(tiny_rc(), seed=123, cache_dir=str(tmp_path / "c"))
    assert out["seed"] == 123


def test_same_seed_same_numbers(tmp_path):
    cache = str(tmp_path / "cache")
    a, _, _ = runner.run_training(tiny_rc(), seed=5, cache_dir=cache)
    b, _, _ = runner.run_training(tiny_rc(), seed=5, cache_dir=cache)
    a.pop("train_seconds"), b.pop("train_seconds")
    assert a == b


def test_checkpoint_reload_matches_trained_provider(tmp_path):
    rc = tiny_rc()
    cache = str(tmp_path / "cache")
    out, provider, _ = runner.run_training(rc, cache_dir=cache, out_dir=str(tmp_path / "run"))
    loaded, _, state, step, seed = runner.load_provider(
        rc, str(tmp_path / "run" / "checkpoint.npz"), cache_dir=cache
    )
    assert (step, seed) == (out["steps"], out["seed"])
    fresh = loaded.param_arrays()
    trained = provider.param_arrays()
    for name in trained:
        assert (fresh[name] == trained[name]).all(), name

