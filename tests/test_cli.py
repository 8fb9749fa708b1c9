"""CLI surface: subcommands, exit codes, output routing."""

import dataclasses
import json

import numpy as np
import pytest

from promptmoe import cli
from promptmoe import config as cf
from promptmoe import data as dt
from promptmoe import runner as rn
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


@pytest.mark.parametrize("flag,width", [("--hidden", "0"), ("--hidden", "-64"), ("--scale-to", "0")])
def test_param_table_rejects_widths_below_1(flag, width, capsys):
    assert run_cli("param-table", flag, width) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing printed before the check
    assert f"config error: {flag} must be >= 1, got {width}" in err


@pytest.mark.parametrize("key,value", [("batch_size", 0), ("docs", 0), ("pack_len", 0), ("steps", 0)])
def test_pretrain_base_rejects_bad_base_settings_before_training(key, value, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"base": {key: value}}))
    cache = tmp_path / "cache"
    assert run_cli("pretrain-base", "--config", str(path), "--cache-dir", str(cache),
                   "--force", "--quiet") == 2
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert not cache.exists()  # no untrained base is cached


@pytest.mark.parametrize(
    "base, message",
    [
        ({"heads": 0}, "non-positive model dimension"),
        ({"hidden": 18, "heads": 2}, "even head dim, got 9"),
        ({"rotary": False}, "unknown key(s) ['rotary']"),
        ({"vocab_size": 300}, "unknown key(s) ['vocab_size']"),
    ],
    ids=["zero-heads", "odd-head-dim", "rotary", "vocab_size"],
)
def test_bad_base_shape_or_removed_key_is_exit_2_at_load(base, message, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"base": base}))
    cache = tmp_path / "cache"
    assert run_cli("pretrain-base", "--config", str(path), "--cache-dir", str(cache), "--quiet") == 2
    assert message in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"method": {"kind": "PT", "rank": "big", "budget": 5, "k": 7, "sigma": -1.0,
                     "num_experts": 9}},
         "method: PT ignores key(s) ['budget', 'k', 'num_experts', 'rank', 'sigma']"),
        ({"method": {"kind": "PT", "num_experts": 1}},
         "method: PT ignores key(s) ['num_experts']"),
        ({"method": {"kind": "DPT", "selective": False, "rank": 4}},
         "method: DPT ignores key(s) ['selective']"),
        ({"method": {"kind": "SMOP", "budget": 900}}, "method: SMOP ignores key(s) ['budget']"),
        ({"eval": {"raw_match": True}}, "eval: unknown key(s) ['raw_match']"),
    ],
    ids=["pt-router-and-rank", "pt-num-experts", "dpt-router", "smop-budget", "raw-match"],
)
def test_key_the_run_would_not_read_is_exit_2_at_load(raw, message, tmp_path, capsys):
    # a tiny base, so that a config that loads pretrains in a moment and exits 0
    base = {"hidden": 16, "layers": 1, "heads": 2, "max_seq": 64, "docs": 60, "steps": 3,
            "batch_size": 4, "warmup_steps": 1}
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**raw, "base": base}))
    cache = tmp_path / "cache"
    assert run_cli("pretrain-base", "--config", str(path), "--cache-dir", str(cache),
                   "--quiet") == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not cache.exists()


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
    log = tmp_path / "routing.jsonl"
    assert run_cli("eval", "--config", tiny_config, "--checkpoint", ckpt,
                   "--cache-dir", cache, "--routing-log", str(log), "--quiet") == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"in_domain", "out_of_domain"}
    # the routing log covers both splits: one line per ID and OOD example
    _, test_id, test_ood = rn.build_datasets(cf.load(tiny_config).data)
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [row["id"] for row in rows] == [ex.id for ex in test_id + test_ood]

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
    assert sum(rep["expert_load"]) == pytest.approx(6.0)
    assert rep["expert_load"][1] > 10 * rep["expert_load"][0] > 0


def test_eval_checkpoint_under_mismatched_config_is_exit_2(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_cli("train", "--config", tiny_config, "--seed", "3",
                   "--out", str(tmp_path / "run"), "--cache-dir", cache, "--quiet") == 0
    capsys.readouterr()
    rc = cf.load(tiny_config)
    cases = (
        ({"prompt_length": 6}, "array 'bank.A' has shape (2, 8, 2), the config expects (2, 6, 2)"),
        ({"kind": "PT"}, "missing arrays ['opt.m.pt.P', 'opt.v.pt.P', 'pt.P']"),
    )
    for override, message in cases:
        other = tmp_path / "other.json"
        method = dataclasses.replace(rc.method, **override)
        other.write_text(json.dumps(cf.to_dict(dataclasses.replace(rc, method=method))))
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
    good = json.dumps({"input": "copy: a", "target": "a", "task": "copy_span", "id": "g"})
    bad = tmp_path / "bad.jsonl"
    for text, message in (
        ('{"input": "x"}', "bad.jsonl:1: missing keys"),
        ("[1, 2]", "bad.jsonl:1: not a JSON object"),
        ('{"input": 5, "target": "a", "task": "copy_span", "id": "p"}',
         "bad.jsonl:1: ['input'] must be strings"),
        (good + '\n{"input": "x", "target": "a", "task": 3, "id": 7}',
         "bad.jsonl:2: ['task', 'id'] must be strings"),
    ):
        bad.write_text(text)
        code = run_cli("eval", "--config", tiny_config,
                       "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                       "--cache-dir", cache, "--data", str(bad), "--quiet")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and message in err


def test_unreadable_data_file_is_exit_3(tiny_config, tmp_path, capsys):
    # a missing file, a directory and a file that is not UTF-8 text
    cache = str(tmp_path / "cache")
    run_cli("train", "--config", tiny_config, "--seed", "3",
            "--out", str(tmp_path / "run"), "--cache-dir", cache, "--quiet")
    capsys.readouterr()
    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b"\xff\xfe{}\n")
    for path in (tmp_path / "missing.jsonl", tmp_path, binary):
        for command in ("eval", "inspect-routing"):
            code = run_cli(command, "--config", tiny_config,
                           "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                           "--cache-dir", cache, "--data", str(path))
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith("data error") and str(path) in err


def test_pretrain_base_prints_cache_path(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_cli("pretrain-base", "--config", tiny_config,
                   "--cache-dir", cache, "--quiet") == 0
    path = capsys.readouterr().out.strip()
    assert path.endswith(".npz") and cache in path


def test_unreadable_base_cache_is_exit_2(tiny_config, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_cli("pretrain-base", "--config", tiny_config, "--cache-dir", cache, "--quiet") == 0
    path = capsys.readouterr().out.strip()
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(blob[: len(blob) // 2])  # a truncated copy, as an interrupted write leaves
    assert run_cli("pretrain-base", "--config", tiny_config, "--cache-dir", cache, "--quiet") == 2
    err = capsys.readouterr().err
    assert path in err and "pretrain-base --force" in err
    assert run_cli("train", "--config", tiny_config, "--cache-dir", cache, "--seed", "1",
                   "--quiet") == 2
    capsys.readouterr()
    assert run_cli("pretrain-base", "--config", tiny_config, "--cache-dir", cache,
                   "--force", "--quiet") == 0
    assert run_cli("pretrain-base", "--config", tiny_config, "--cache-dir", cache, "--quiet") == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "method, message",
    [
        ({"rank": 9}, "rank 9 out of range 1..8"),  # above the prompt length
        ({"rank": "big"}, "rank must be"),
        ({"rank": 0}, "rank 0 out of range"),
        ({"prompt_length": 20, "rank": 17}, "exceeds the base width 16"),
    ],
    ids=["above-prompt-length", "not-an-int", "zero", "above-base-width"],
)
def test_bad_rank_is_exit_2(tiny_config, tmp_path, capsys, method, message):
    rc = json.loads(open(tiny_config).read())
    rc["method"].update(method)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rc))
    assert run_cli("train", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "run"),
                   "--cache-dir", str(tmp_path / "cache"), "--quiet") == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


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


def test_sweep_with_a_bad_base_leg_exits_2_before_any_leg_trains(tiny_config, tmp_path, capsys):
    cache, out = tmp_path / "cache", tmp_path / "sweep"
    # the tiny base has 2 heads: width 16 is valid, 18 gives an odd head dim
    assert run_cli("sweep", "--config", tiny_config, "--seed", "2",
                   "--axis", "base_model_size", "--values", "16,18",
                   "--out", str(out), "--cache-dir", str(cache), "--quiet") == 2
    assert "even head dim, got 9" in capsys.readouterr().err
    assert not cache.exists() and not out.exists()  # the 16 leg never pretrained or trained


@pytest.mark.parametrize(
    "kind, axis, values",
    [
        ("PT", "routing_mode", None),
        ("PT", "num_experts", "1,2"),
        ("PT", "params_budget", "500,900"),
        ("DPT", "routing_mode", None),
        ("DPT", "num_experts", "1,2"),
        ("SMOP", "params_budget", "500,900"),
    ],
)
def test_sweep_over_an_axis_the_method_ignores_is_exit_2(kind, axis, values, tiny_config,
                                                          tmp_path, capsys):
    rc = cf.load(tiny_config)
    rc = dataclasses.replace(rc, method=dataclasses.replace(rc.method, kind=kind))
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(cf.to_dict(rc)))
    cache, out = tmp_path / "cache", tmp_path / "sweep"
    argv = ["sweep", "--config", str(path), "--seed", "2", "--axis", axis,
            "--out", str(out), "--cache-dir", str(cache), "--quiet"]
    if values:
        argv += ["--values", values]
    assert run_cli(*argv) == 2
    assert f"{kind} ignores the {axis} axis" in capsys.readouterr().err
    assert not cache.exists() and not out.exists()


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
