"""Smoke test of the benchmark: every workload, both modes, a few operations each.

    python3 -m pytest perfbench/test_smoke.py -q

Each run asserts that the result line carries exactly the metrics
BENCHMARK.json declares for its mode, each with its declared unit, and that
every output check passed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name


def test_per_layer_table_matches_benchmark_json():
    assert [(name, unit, better) for name, unit, better, *_ in layers.SPECS] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]


def test_missing_reports_every_listed_layer_of_an_idle_run():
    idle = tracer.Tracer()
    missing = " ".join(layers.missing(idle, "tune"))
    for name in ("model.forward.calls", "autodiff.matmul.vjp_ms", "trainer.phase.backward_ms"):
        assert name in missing
    assert "model.generate" not in missing  # listed for decode only


def test_install_wraps_names_where_callers_look_them_up():
    import promptmoe
    from promptmoe import evaluate, model, pretrain, trainer

    originals = (pretrain.adamw_step, evaluate.decode, model.ToyLM.forward)
    tr = tracer.Tracer()
    tr.install(promptmoe, tracer.HOOKS)
    try:
        assert pretrain.adamw_step is trainer.adamw_step
        assert pretrain.adamw_step.__wrapped__ is originals[0]
        assert evaluate.decode.__wrapped__ is originals[1]
        assert model.ToyLM.forward.__wrapped__ is originals[2]
        model.decode([104, 105])
        assert tr.stat("setup", "model.decode")[0] == 1
    finally:
        tr.uninstall()
    assert (pretrain.adamw_step, evaluate.decode, model.ToyLM.forward) == originals


@pytest.mark.parametrize("with_src", [False, True])
def test_fails_loudly_without_package_or_base_cache(tmp_path, with_src):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=skip)
    proc = _run(tmp_path, "tune", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert ("no cached base model" if with_src else "no promptmoe package") in proc.stderr
