"""CLI surface: subcommands, exit codes, output routing."""

import dataclasses
import json

import numpy as np
import pytest

from promptmoe import cli
from promptmoe import config as cf
from promptmoe import data as dt
from promptmoe.pretrain import PretrainConfig


@pytest.fixture()
def tiny_config(tmp_path):
    rc = cf.default_run_config()
    rc = dataclasses.replace(
        rc,
        method=dataclasses.replace(
            rc.method, prompt_length=8, num_experts=2, rank=2, budget=0,
            init_text="a b\n", router_w_std=1.0,
        ),
        base=PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64,
                            docs=60, steps=3, batch_size=4, warmup_steps=1),
        train=dataclasses.replace(rc.train, steps=2, batch_size=2, warmup_steps=1),
        data=dataclasses.replace(rc.data, train_count=8, test_count=4, ood_count=2),
    )
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cf.to_dict(rc)))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2
    capsys.readouterr()


def test_train_requires_seed(tiny_config, capsys):
    with pytest.raises(SystemExit):
        run_cli("train", "--config", tiny_config)
    capsys.readouterr()


def test_param_table_prints_reference_labels(capsys):
    assert run_cli("param-table") == 0
    out = capsys.readouterr().out
    for label in ("81k", "86k", "80k"):
        assert label in out
    assert "hidden=2048" in out


def test_param_table_scale_to(capsys):
    assert run_cli("param-table", "--scale-to", "64") == 0
    out = capsys.readouterr().out
    assert "hidden=64" in out


def test_missing_config_file_is_exit_2(capsys):
    assert run_cli("train", "--seed", "1", "--config", "/nonexistent.json") == 2
    assert "config error" in capsys.readouterr().err


def test_bad_checkpoint_path_is_exit_2(tiny_config, tmp_path, capsys):
    # a missing file, a directory and a file that is no .npz archive
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"not an archive")
    for path in (tmp_path / "none.npz", tmp_path, garbage):
        for command in ("eval", "inspect-routing"):
            assert run_cli(command, "--config", tiny_config, "--checkpoint", str(path),
                           "--cache-dir", str(tmp_path / "c")) == 2
            err = capsys.readouterr().err
            assert "config error" in err and str(path) in err


def test_train_then_eval_and_inspect(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    out_dir = str(tmp_path / "run")
    assert run_cli("train", "--config", tiny_config, "--seed", "3",
                   "--out", out_dir, "--cache-dir", cache, "--quiet") == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out)
    assert result["seed"] == 3
    assert "losses" not in result  # stdout stays skimmable

    ckpt = str(tmp_path / "run" / "checkpoint.npz")
    assert run_cli("eval", "--config", tiny_config, "--checkpoint", ckpt,
                   "--cache-dir", cache, "--quiet") == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"in_domain", "out_of_domain"}

    assert run_cli("inspect-routing", "--config", tiny_config, "--checkpoint", ckpt,
                   "--cache-dir", cache, "--limit", "3") == 0
    text = capsys.readouterr().out
    assert "per-task primary-expert counts" in text
    assert "selected=" in text


@pytest.mark.parametrize("probationary", [True, False])
def test_primary_expert_is_top_weighted_under_non_selective_routing(
    tiny_config, tmp_path, capsys, probationary
):
    # every expert is kept, and expert 1 carries 95% of the weight
    raw = json.loads(open(tiny_config).read())
    raw["method"].update(selective=False, probationary=probationary)
    cfg_path = tmp_path / "ns.json"
    cfg_path.write_text(json.dumps(raw))
    cache = str(tmp_path / "cache")
    assert run_cli("train", "--config", str(cfg_path), "--seed", "3",
                   "--out", str(tmp_path / "run"), "--cache-dir", cache, "--quiet") == 0
    capsys.readouterr()
    ckpt = tmp_path / "run" / "checkpoint.npz"
    with np.load(ckpt) as stored:
        arrays = dict(stored)
    arrays["router.W"][...] = 0.0
    arrays["router.b"][...] = [0.0, 3.0]
    np.savez(ckpt, **arrays)
    data = tmp_path / "copy.jsonl"
    dt.save_jsonl(data, dt.gen_synthetic("copy_span", 6, 21))
    common = ("--config", str(cfg_path), "--checkpoint", str(ckpt), "--data", str(data),
              "--cache-dir", cache)
    assert run_cli("inspect-routing", *common) == 0
    assert "copy_span: [0, 6]" in capsys.readouterr().out
    assert run_cli("eval", *common, "--quiet") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["count"] == 6
    assert rep["expert_task_counts"] == {"copy_span": [0, 6]}
    assert rep["expert_counts"] == [6, 6]


def test_eval_checkpoint_under_mismatched_config_is_exit_2(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_cli("train", "--config", tiny_config, "--seed", "3",
                   "--out", str(tmp_path / "run"), "--cache-dir", cache, "--quiet") == 0
    capsys.readouterr()
    raw = json.loads(open(tiny_config).read())
    cases = (
        ({"prompt_length": 6}, "array 'bank.A' has shape (2, 8, 2), the config expects (2, 6, 2)"),
        ({"kind": "PT"}, "missing arrays ['opt.m.pt.P', 'opt.v.pt.P', 'pt.P']"),
    )
    for override, message in cases:
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**raw, "method": {**raw["method"], **override}}))
        code = run_cli("eval", "--config", str(other), "--cache-dir", cache, "--quiet",
                       "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err


def test_old_bank_checkpoint_layout_is_exit_2(tiny_config, tmp_path, capsys):
    # the layout that stored a bank as per-expert A.i, a shared B and a header
    n, t, r, h = 2, 8, 2, 16
    arrays = {f"A.{i}": np.zeros((t, r)) for i in range(n)}
    arrays.update({"B": np.zeros((r, h)), "header": np.array([n, t, r, h])})
    arrays.update({"router.W": np.zeros((n, h)), "router.b": np.zeros(n)})
    for name, shape in (("bank.A", (n, t, r)), ("bank.B", (r, h)),
                        ("router.W", (n, h)), ("router.b", (n,))):
        arrays[f"opt.m.{name}"] = arrays[f"opt.v.{name}"] = np.zeros(shape)
    arrays.update({"opt.counters": np.array([2, 0]), "train.meta": np.array([2, 3])})
    path = tmp_path / "old.npz"
    np.savez(path, **arrays)
    assert run_cli("eval", "--config", tiny_config, "--checkpoint", str(path),
                   "--cache-dir", str(tmp_path / "cache"), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "missing arrays ['bank.A', 'bank.B']" in err


def test_eval_on_explicit_jsonl(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    out_dir = str(tmp_path / "run")
    run_cli("train", "--config", tiny_config, "--seed", "3",
            "--out", out_dir, "--cache-dir", cache, "--quiet")
    capsys.readouterr()

    data = tmp_path / "probe.jsonl"
    rows = [
        {"input": "copy: a b\n", "target": "a b", "task": "copy_span", "id": "p-0"},
        {"input": "copy: c d\n", "target": "c d", "task": "copy_span", "id": "p-1"},
    ]
    data.write_text("\n".join(json.dumps(r) for r in rows))
    log = tmp_path / "routing.jsonl"
    assert run_cli("eval", "--config", tiny_config,
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                   "--cache-dir", cache, "--data", str(data),
                   "--routing-log", str(log), "--quiet") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["count"] == 2
    assert rep["aggregate"]["tasks"] == ["copy_span"]
    assert len(log.read_text().splitlines()) == 2


def test_bad_jsonl_is_exit_3(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    run_cli("train", "--config", tiny_config, "--seed", "3",
            "--out", str(tmp_path / "run"), "--cache-dir", cache, "--quiet")
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"input": "x"}')
    code = run_cli("eval", "--config", tiny_config,
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                   "--cache-dir", cache, "--data", str(bad), "--quiet")
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_pretrain_base_prints_cache_path(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_cli("pretrain-base", "--config", tiny_config,
                   "--cache-dir", cache, "--quiet") == 0
    path = capsys.readouterr().out.strip()
    assert path.endswith(".npz") and cache in path


def test_sweep_rejects_bad_axis(tiny_config, capsys):
    with pytest.raises(SystemExit):
        run_cli("sweep", "--config", tiny_config, "--seed", "1", "--axis", "nonsense")
    capsys.readouterr()


def test_sweep_num_experts_prints_table(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_cli("sweep", "--config", tiny_config, "--seed", "2",
                   "--axis", "num_experts", "--values", "1,2",
                   "--out", str(tmp_path / "sweep"), "--cache-dir", cache,
                   "--quiet") == 0
    out = capsys.readouterr().out
    assert "num_experts" in out and "ID macro" in out
    assert (tmp_path / "sweep" / "sweep.json").exists()


def test_inspect_routing_on_routerless_method_is_exit_2(tmp_path, capsys):
    rc = cf.default_run_config()
    rc = dataclasses.replace(
        rc,
        method=dataclasses.replace(rc.method, kind="PT", prompt_length=8,
                                   rank=0, budget=0, init_text="a b\n"),
        base=PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64,
                            docs=60, steps=3, batch_size=4, warmup_steps=1),
        train=dataclasses.replace(rc.train, steps=2, batch_size=2, warmup_steps=1),
        data=dataclasses.replace(rc.data, train_count=8, test_count=4, ood_count=2),
    )
    cfg_path = tmp_path / "pt.json"
    cfg_path.write_text(json.dumps(cf.to_dict(rc)))
    cache = str(tmp_path / "cache")
    run_cli("train", "--config", str(cfg_path), "--seed", "3",
            "--out", str(tmp_path / "run"), "--cache-dir", cache, "--quiet")
    capsys.readouterr()
    code = run_cli("inspect-routing", "--config", str(cfg_path),
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                   "--cache-dir", cache)
    assert code == 2
    assert "no router" in capsys.readouterr().err
