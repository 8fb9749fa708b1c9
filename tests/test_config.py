"""Config parsing: strict keys, section validation, JSON roundtrip."""

import ast
import dataclasses
import json
import pathlib

import pytest

from promptmoe import config as cf
from promptmoe import methods as mt
from promptmoe.errors import ConfigError
from promptmoe.model import LMConfig


def test_defaults_build():
    rc = cf.default_run_config()
    assert rc.method.kind == "PT_MOE"
    assert rc.data.id_tasks == ["copy_span", "mod_add"]
    assert rc.train.steps == 500


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        cf.from_dict({"methods": {}})


def test_unknown_key_names_valid_ones():
    with pytest.raises(ConfigError, match="warmup_step"):
        cf.from_dict({"train": {"warmup_step": 10}})


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("train", "checkpoint_dir", "ckpt"),
        ("train", "loss_reduction", "mean"),
        ("train", "eval_every", 1),
        ("train", "weight_decay", 0.1),
        ("train", "beta1", 0.8),
        ("train", "beta2", 0.99),
        ("train", "eps", 1e-6),
        ("method", "router_mean_includes_pad", False),
    ],
)
def test_removed_knobs_rejected_by_name(section, key, value):
    with pytest.raises(ConfigError, match=key):
        cf.from_dict({section: {key: value}})


def test_non_object_section_rejected():
    with pytest.raises(ConfigError, match="must be an object"):
        cf.from_dict({"train": [1, 2]})


def test_top_level_must_be_object():
    with pytest.raises(ConfigError, match="JSON object"):
        cf.from_dict([1])


def test_section_validation_still_fires():
    with pytest.raises(ConfigError, match="steps"):
        cf.from_dict({"train": {"steps": 0}})
    with pytest.raises(ConfigError, match="unknown task"):
        cf.from_dict({"data": {"id_tasks": ["copy_spam"]}})
    with pytest.raises(ConfigError, match="split hygiene"):
        cf.from_dict({"data": {"train_seed": 5, "test_seed": 5}})


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cf.load(str(tmp_path / "nope.json"))


def test_load_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cf.load(str(p))


def test_roundtrip_through_file(tmp_path):
    rc = cf.default_run_config()
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cf.to_dict(rc)))
    back = cf.load(str(p))
    assert cf.to_dict(back) == cf.to_dict(rc)


# every value a run config or a model shape can set: a change that adds or
# removes a knob changes this pin in its own diff
RUN_SETTINGS = {
    "method": {"kind", "prompt_length", "num_experts", "rank", "budget", "sigma", "k",
               "selective", "probationary", "init_text", "router_w_std"},
    "train": {"steps", "batch_size", "warmup_steps", "lr", "grad_accum", "seed"},
    "base": {"hidden", "layers", "heads", "max_seq", "docs", "steps", "batch_size", "pack_len",
             "lr", "warmup_steps", "seed", "init_std", "corpus_version"},
    "data": {"id_tasks", "ood_tasks", "train_count", "test_count", "ood_count", "train_seed",
             "test_seed", "ood_seed"},
    "eval": {"batch_size", "max_new"},
}


def test_config_surface_is_pinned():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {f.name: names(f.type) for f in dataclasses.fields(cf.RunConfig)} == RUN_SETTINGS
    assert names(LMConfig) == {"hidden", "layers", "heads", "max_seq"}


def test_to_dict_loads_back_for_every_kind(tmp_path):
    # to_dict leaves out what the kind ignores, so load accepts what it writes
    rc = cf.default_run_config()
    for kind in mt.KINDS:
        want = dataclasses.replace(rc, method=dataclasses.replace(rc.method, kind=kind, rank=8))
        p = tmp_path / f"{kind}.json"
        p.write_text(json.dumps(cf.to_dict(want)))
        back = cf.load(str(p))
        assert cf.to_dict(back) == cf.to_dict(want)
        assert set(cf.to_dict(back)["method"]) == RUN_SETTINGS["method"] - mt.unread_fields(kind)
        assert back.method.resolve_rank(64) == want.method.resolve_rank(64)


def test_partial_override_keeps_other_defaults():
    rc = cf.from_dict({"train": {"steps": 7}})
    assert rc.train.steps == 7
    assert rc.train.grad_accum == 2
    assert rc.method.kind == "PT_MOE"
    # a partial config layers over exactly the shipped defaults
    shipped = cf.default_run_config()
    assert cf.from_dict({}) == shipped
    assert rc == dataclasses.replace(shipped, train=dataclasses.replace(shipped.train, steps=7))


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("train", "batch_size", 0),
        ("train", "warmup_steps", -1),
        ("train", "lr", 0.0),
        ("eval", "max_new", -1),
        ("base", "docs", 0),
        ("base", "steps", 0),
        ("base", "batch_size", 0),
        ("base", "pack_len", 0),
        ("base", "pack_len", 1),
        ("base", "warmup_steps", -1),
        ("base", "lr", 0.0),
        ("base", "init_std", 0.0),
        ("method", "rank", 41),  # above the shipped prompt length of 40
        ("method", "rank", "big"),
        ("method", "rank", True),
    ],
)
def test_out_of_range_settings_fail_at_load(section, key, value):
    with pytest.raises(ConfigError, match=key):
        cf.from_dict({section: {key: value}})


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_package_reads_no_environment_variables():
    # results depend on the config, the seed and the BLAS thread count, never
    # on a hidden switch in the environment
    reads = []
    for path in sorted(pathlib.Path(cf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ENV_READS:
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [
                    f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in ENV_READS
                ]
    assert not reads, reads
