"""Config parsing: strict keys, section validation, JSON roundtrip."""

import ast
import json
import pathlib

import pytest

from promptmoe import config as cf
from promptmoe.errors import ConfigError


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


def test_partial_override_keeps_other_defaults():
    rc = cf.from_dict({"train": {"steps": 7}})
    assert rc.train.steps == 7
    assert rc.train.grad_accum == 2
    assert rc.method.kind == "PT_MOE"


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
