"""Sweep validation, axis application, partial-result flushing."""

import dataclasses
import json

import pytest

from promptmoe import config as cf
from promptmoe import sweep as sw
from promptmoe.errors import ConfigError, NumericalError
from promptmoe.pretrain import PretrainConfig


def tiny_rc(**method_kw):
    rc = cf.default_run_config()
    fields = dict(prompt_length=8, num_experts=2, rank=2, budget=0,
                  init_text="a b\n", router_w_std=1.0)
    fields.update(method_kw)
    method = dataclasses.replace(rc.method, **fields)
    return dataclasses.replace(
        rc,
        method=method,
        base=PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64,
                            docs=60, steps=3, batch_size=4, warmup_steps=1),
        train=dataclasses.replace(rc.train, steps=2, batch_size=2, warmup_steps=1),
        data=dataclasses.replace(rc.data, train_count=8, test_count=4, ood_count=2),
    )


# ---- spec validation ---------------------------------------------------------

def test_routing_mode_defaults_to_all_four():
    spec = sw.SweepSpec("routing_mode")
    assert spec.values == ["S+P", "NS+P", "S+NP", "NS+NP"]


def test_routing_mode_must_be_exactly_the_four():
    sw.SweepSpec("routing_mode", ["NS+NP", "S+P", "NS+P", "S+NP"])  # any order
    with pytest.raises(ConfigError, match="enumerate exactly"):
        sw.SweepSpec("routing_mode", ["S+P"])
    with pytest.raises(ConfigError, match="enumerate exactly"):
        sw.SweepSpec("routing_mode", ["S+P", "NS+P", "S+NP", "NS+NP", "S+P"])


def test_unknown_axis_rejected():
    with pytest.raises(ConfigError, match="unknown axis"):
        sw.SweepSpec("noise_scale", [1])


def test_ranges_enforced():
    with pytest.raises(ConfigError, match="out of range"):
        sw.SweepSpec("prompt_length", [10])
    with pytest.raises(ConfigError, match="out of range"):
        sw.SweepSpec("num_experts", [9])
    with pytest.raises(ConfigError, match="needs explicit values"):
        sw.SweepSpec("prompt_length", [])
    assert sw.SweepSpec("prompt_length", ["20", 80]).values == [20, 80]


def test_parse_routing_mode():
    assert sw.parse_routing_mode("S+P") == (True, True)
    assert sw.parse_routing_mode("NS+NP") == (False, False)
    with pytest.raises(ConfigError):
        sw.parse_routing_mode("selective")


# ---- axis application ----------------------------------------------------------

def test_apply_axis_prompt_length():
    rc = tiny_rc()
    out = sw.apply_axis(rc, "prompt_length", 24)
    assert out.method.prompt_length == 24
    assert rc.method.prompt_length == 8  # original untouched


def test_apply_axis_budget_forces_auto_rank():
    rc = tiny_rc()
    out = sw.apply_axis(rc, "params_budget", 900)
    assert out.method.rank == "auto"
    assert out.method.budget == 900


def test_apply_axis_routing_mode():
    out = sw.apply_axis(tiny_rc(), "routing_mode", "NS+NP")
    assert out.method.selective is False
    assert out.method.probationary is False


def test_apply_axis_base_size_checks_heads():
    with pytest.raises(ConfigError, match="divisible"):
        sw.apply_axis(tiny_rc(), "base_model_size", 17)
    out = sw.apply_axis(tiny_rc(), "base_model_size", 32)
    assert out.base.hidden == 32


def test_apply_axis_base_size_rescales_auto_budget():
    # budget 0 resolves at each width, so a base_model_size leg stays
    # budget-matched to the kind's scaled reference budget
    from promptmoe import methods as mt

    for kind in ("DPT", "PT_MOE"):
        rc = tiny_rc(kind=kind, rank="auto", budget=0)
        for h in (16, 32, 64, 96):
            out = sw.apply_axis(rc, "base_model_size", h)
            assert out.base.hidden == h
            want = dataclasses.replace(out.method, budget=mt.scaled_budget(kind, h))
            assert out.method.resolve_rank(h) == want.resolve_rank(h), (kind, h)


# ---- execution -----------------------------------------------------------------

def test_run_sweep_flushes_each_leg(tmp_path):
    rc = tiny_rc()
    spec = sw.SweepSpec("num_experts", [1, 2])
    payload = sw.run_sweep(spec, rc, seed=5, cache_dir=str(tmp_path / "cache"),
                           out_dir=str(tmp_path / "out"))
    assert payload["status"] == "complete"
    assert [leg["value"] for leg in payload["legs"]] == [1, 2]
    on_disk = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert on_disk["legs"][0]["value"] == 1
    table = (tmp_path / "out" / "sweep.txt").read_text()
    assert "num_experts" in table and "ID macro" in table


def test_failed_leg_keeps_partial_results(tmp_path, monkeypatch):
    rc = tiny_rc()
    # second leg: a valid config whose run fails while training
    real, calls = sw.run_training, []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalError("second leg diverged")
        return real(*args, **kwargs)

    monkeypatch.setattr(sw, "run_training", fail_second)
    spec = sw.SweepSpec("params_budget", [162, 200])
    with pytest.raises(NumericalError, match="second leg"):
        sw.run_sweep(spec, rc, seed=5, cache_dir=str(tmp_path / "cache"),
                     out_dir=str(tmp_path / "out"))
    on_disk = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert on_disk["status"] == "failed at params_budget=200"
    assert len(on_disk["legs"]) == 1
    assert on_disk["legs"][0]["value"] == 162


def test_invalid_leg_config_fails_before_any_leg_runs(tmp_path):
    for kind, axis, values, message in (
        # second leg: 8 slots cannot split over 5 experts
        ("SMOP", "num_experts", [2, 5], "divisible"),
        # second leg: a budget that fits no rank-1 bank
        ("PT_MOE", "params_budget", [162, 1], "too small for rank 1"),
    ):
        spec = sw.SweepSpec(axis, values)
        with pytest.raises(ConfigError, match=message):
            sw.run_sweep(spec, tiny_rc(kind=kind), seed=5, cache_dir=str(tmp_path / "cache"),
                         out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "cache").exists() and not (tmp_path / "out").exists()


def test_format_table_lines_up():
    rows = [{
        "value": "S+P", "param_count": 818,
        "in_domain": {"macro": 0.5, "micro": 0.25},
        "out_of_domain": {"macro": 0.0, "micro": 0.0},
        "final_loss": 1.25,
    }]
    text = sw.format_table("routing_mode", rows)
    assert "S+P" in text and "818" in text and "1.2500" in text
