"""Evaluation report shapes, budget skipping, aggregates, determinism."""

import json

import numpy as np
import pytest

from promptmoe import config as cf
from promptmoe import data as dt
from promptmoe import evaluate as ev
from promptmoe import methods as mt
from promptmoe import pretrain as pt
from promptmoe.linalg import RngStream
from promptmoe.model import LMConfig, ToyLM


@pytest.fixture(scope="module")
def lm():
    cfg = LMConfig(vocab_size=258, hidden=32, layers=1, heads=2, max_seq=48)
    model = ToyLM.create(cfg, RngStream(11).child("lm"), init_std=0.05)
    model.freeze()
    return model


@pytest.fixture(scope="module")
def provider(lm):
    cfg = mt.MethodConfig(
        kind="PT_MOE", prompt_length=8, num_experts=2, rank=4, init_text="a b\n"
    )
    return mt.build(cfg, lm, RngStream(4).child("method"))


def test_score_example_span_vs_math():
    span = ev.score_example("a b c", "a b c", "copy_span")
    assert span["em"] == 1.0 and span["primary"] == 1.0
    assert "math_accuracy" not in span and span["format_failure"] is False

    math = ev.score_example("The answer is: 7", "The answer is: 7", "mod_add")
    assert math["math_accuracy"] == 1.0 and math["primary"] == 1.0
    garbled = ev.score_example("no digits here", "The answer is: 7", "mod_add")
    assert garbled["math_accuracy"] == 0.0
    assert garbled["format_failure"] is True


def test_primary_metric_name():
    # math tasks rank by extraction accuracy, span tasks by exact match
    for task in ("mod_add", "mod_mul"):
        rec = ev.score_example("so The answer is: 7", "The answer is: 7", task)
        assert rec["em"] == 0.0 and rec["primary"] == rec["math_accuracy"] == 1.0
    rec = ev.score_example("a b", "a b c", "copy_span")
    assert rec["f1"] > 0.0 and rec["primary"] == rec["em"] == 0.0


def test_report_shape_and_counts(lm, provider):
    examples = dt.gen_synthetic("copy_span", 6, 21) + dt.gen_synthetic("mod_add", 5, 22)
    rep = ev.eval_dataset(provider, lm, examples, batch_size=4)
    assert rep["count"] + rep["skipped"] == 11
    for task, slot in rep["per_task"].items():
        assert slot["count"] >= 1
        for key in ("em", "f1", "primary"):
            assert 0.0 <= slot[key] <= 1.0
        assert slot["primary_sum"] == pytest.approx(slot["primary"] * slot["count"])
    assert len(rep["expert_counts"]) == 2
    # every scored example routes through some expert
    assert sum(rep["expert_counts"]) >= rep["count"]
    assert set(rep["expert_task_counts"]) == set(rep["per_task"])


@pytest.mark.parametrize("probationary", [True, False])
def test_primary_expert_is_top_weighted_under_non_selective_routing(lm, probationary):
    # every expert is kept, and expert 1 carries 95% of the weight
    cfg = mt.MethodConfig(
        kind="PT_MOE", prompt_length=8, num_experts=2, rank=4, init_text="a b\n",
        selective=False, probationary=probationary,
    )
    provider = mt.build(cfg, lm, RngStream(4).child("method"))
    provider.router.w[...] = 0.0
    provider.router.b[...] = [0.0, 3.0]
    rep = ev.eval_dataset(provider, lm, dt.gen_synthetic("copy_span", 6, 21), batch_size=4)
    assert rep["count"] == 6
    assert rep["expert_task_counts"] == {"copy_span": [0, 6]}
    assert rep["expert_counts"] == [6, 6]


def test_eval_is_deterministic(lm, provider):
    examples = dt.gen_synthetic("copy_span", 8, 31)
    a = ev.eval_dataset(provider, lm, examples, batch_size=3)
    b = ev.eval_dataset(provider, lm, examples, batch_size=3)
    assert a == b


def test_batch_size_does_not_change_scores(lm, provider):
    examples = dt.gen_synthetic("copy_span", 7, 33)
    whole = ev.eval_dataset(provider, lm, examples, batch_size=64)
    trickle = ev.eval_dataset(provider, lm, examples, batch_size=1)
    assert whole["per_task"] == trickle["per_task"]


def test_overlong_examples_are_skipped_not_dropped(lm, provider):
    fits = dt.gen_synthetic("copy_span", 3, 41)
    # 40 words of input cannot fit max_seq=48 with an 8-slot prompt
    giant = dt.Example("copy: " + " ".join(["x"] * 40), "x", "copy_span", "giant-0")
    rep = ev.eval_dataset(provider, lm, fits + [giant])
    assert rep["skipped"] == 1
    assert rep["count"] == 3


def test_empty_dataset_report(lm, provider):
    rep = ev.eval_dataset(provider, lm, [])
    assert rep["count"] == 0 and rep["skipped"] == 0 and rep["per_task"] == {}
    agg = ev.aggregate(rep, ["copy_span"])
    assert agg == {"tasks": ["copy_span"], "count": 0, "macro": 0.0, "micro": 0.0}


def test_aggregate_macro_vs_micro():
    report = {
        "per_task": {
            "a": {"count": 1, "primary": 1.0, "primary_sum": 1.0},
            "b": {"count": 3, "primary": 0.0, "primary_sum": 0.0},
        }
    }
    agg = ev.aggregate(report, ["a", "b"])
    assert agg["macro"] == pytest.approx(0.5)
    assert agg["micro"] == pytest.approx(0.25)
    assert agg["count"] == 4


def test_routing_log_lines(lm, provider, tmp_path):
    examples = dt.gen_synthetic("copy_span", 5, 51)
    log = tmp_path / "routing.jsonl"
    ev.eval_dataset(provider, lm, examples, routing_log=str(log))
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(lines) == 5
    for row in lines:
        assert set(row) == {"id", "task", "selected", "weights", "soft"}
        assert row["task"] == "copy_span"
        assert len(row["soft"]) == 2
        assert np.isclose(sum(row["soft"]), 1.0)


def test_split_report_structure(lm, provider):
    ids = dt.gen_synthetic("copy_span", 4, 61)
    oods = dt.gen_synthetic("reverse", 3, 62)
    rep = ev.split_report(provider, lm, ids, oods, batch_size=4)
    assert set(rep) == {"in_domain", "out_of_domain"}
    assert rep["in_domain"]["aggregate"]["tasks"] == ["copy_span"]
    assert rep["out_of_domain"]["aggregate"]["tasks"] == ["reverse"]
    assert rep["in_domain"]["count"] == 4
    assert rep["out_of_domain"]["count"] == 3


def test_keep_records_exposes_predictions(lm, provider):
    examples = dt.gen_synthetic("mod_add", 3, 71)
    rep = ev.eval_dataset(provider, lm, examples, keep_records=True)
    assert len(rep["records"]) == 3
    for rec in rep["records"]:
        assert {"id", "task", "pred", "em", "f1", "primary"} <= set(rec)


def test_pt_provider_reports_no_expert_stats(lm):
    cfg = mt.MethodConfig(kind="PT", prompt_length=8, init_text="a b\n")
    pt = mt.build(cfg, lm, RngStream(5).child("method"))
    rep = ev.eval_dataset(pt, lm, dt.gen_synthetic("copy_span", 3, 81))
    assert rep["expert_counts"] is None
    assert rep["expert_task_counts"] is None


def test_batch_that_would_overflow_max_seq_is_split():
    # each example fits on its own; padded together they would need 40 + 197 + 33 > 256
    rc = cf.default_run_config()
    lm, _ = pt.ensure_base(rc.base, cache_dir=".cache")
    provider = mt.build(rc.method, lm, RngStream(1).child("method"))
    long_input = dt.Example("copy: " + "x" * 190, "y", "copy_span", "long-input")
    long_target = dt.Example("copy: ab", "z" * 30, "copy_span", "long-target")
    pair = ev.eval_dataset(provider, lm, [long_input, long_target], keep_records=True)
    assert pair["count"] == 2 and pair["skipped"] == 0
    for ex, rec in zip([long_input, long_target], pair["records"]):
        alone = ev.eval_dataset(provider, lm, [ex], keep_records=True)
        assert alone["skipped"] == 0
        assert rec["pred"] == alone["records"][0]["pred"]
