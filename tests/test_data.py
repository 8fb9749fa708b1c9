"""Synthetic task generators, JSONL round-trips, batch assembly."""

import json

import numpy as np
import pytest

from promptmoe import data as dt
from promptmoe.errors import ConfigError, DataError
from promptmoe.model import EOS_ID, PAD_ID, encode


def test_generation_deterministic():
    a = dt.gen_synthetic("copy_span", 20, seed=7)
    b = dt.gen_synthetic("copy_span", 20, seed=7)
    assert a == b


def test_rand_span_draws_length_then_letters():
    # gen_synthetic's spans and pretrain.make_doc's spans share these draws
    for i in range(200):
        got = dt.rand_span(np.random.default_rng(i))
        rng = np.random.default_rng(i)
        n = int(rng.integers(3, 6))
        assert got == " ".join(dt.LETTERS[j] for j in rng.integers(0, 26, n))


def test_copy_span_shape():
    exs = dt.gen_synthetic("copy_span", 50, seed=3)
    for ex in exs:
        assert ex.input == f"copy: {ex.target}"
        assert 3 <= len(ex.target.split()) <= 5
        assert ex.task == "copy_span"


def test_reverse_is_reversal():
    for ex in dt.gen_synthetic("reverse", 50, seed=3):
        span = ex.input.removeprefix("reverse: ")
        assert ex.target.split() == list(reversed(span.split()))


def test_mod_add_example():
    exs = dt.gen_synthetic("mod_add", 200, seed=1)
    for ex in exs:
        left = ex.input.removesuffix(" (mod 10)")
        x, y = (int(v) for v in left.split("+"))
        assert ex.target == f"The answer is: {(x + y) % 10}"
    # the documented fixture shape
    ex = next(e for e in exs if e.input.startswith("3+4"))
    assert ex.target == "The answer is: 7"


def test_mod_mul_values():
    for ex in dt.gen_synthetic("mod_mul", 100, seed=2):
        x, y = (int(v) for v in ex.input.removesuffix(" (mod 10)").split("*"))
        assert ex.target == f"The answer is: {(x * y) % 10}"


def test_bad_task_and_count():
    with pytest.raises(ConfigError):
        dt.gen_synthetic("sorting", 5, seed=0)
    with pytest.raises(ConfigError):
        dt.gen_synthetic("copy_span", 0, seed=0)


def test_disjoint_seeds_disjoint_ids():
    a = {e.id for e in dt.gen_synthetic("mod_add", 300, seed=101)}
    b = {e.id for e in dt.gen_synthetic("mod_add", 300, seed=202)}
    assert not a & b
    assert len(a) == 300


def test_jsonl_roundtrip(tmp_path):
    exs = dt.gen_synthetic("reverse", 25, seed=9)
    path = tmp_path / "d.jsonl"
    dt.save_jsonl(path, exs)
    assert dt.load_jsonl(path) == exs


def test_jsonl_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    ok = {"input": "i", "target": "t", "task": "copy_span", "id": "x-1"}

    path.write_text("not json\n")
    with pytest.raises(DataError, match="bad.jsonl:1"):
        dt.load_jsonl(path)

    path.write_text(json.dumps({k: v for k, v in ok.items() if k != "task"}) + "\n")
    with pytest.raises(DataError, match="missing keys.*task"):
        dt.load_jsonl(path)

    path.write_text(json.dumps({**ok, "target": ""}) + "\n")
    with pytest.raises(DataError, match="empty target"):
        dt.load_jsonl(path)

    path.write_text(json.dumps(ok) + "\n" + json.dumps(ok) + "\n")
    with pytest.raises(DataError, match="duplicate id"):
        dt.load_jsonl(path)


def test_jsonl_skips_blank_lines(tmp_path):
    exs = dt.gen_synthetic("mod_mul", 3, seed=4)
    path = tmp_path / "gap.jsonl"
    lines = [json.dumps({"input": e.input, "target": e.target, "task": e.task, "id": e.id})
             for e in exs]
    path.write_text(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n")
    assert dt.load_jsonl(path) == exs


def test_encode_example_layout():
    ex = dt.Example("copy: a b", "a b", "copy_span", "t-0")
    inp, tgt = dt.encode_example(ex)
    assert inp == encode("copy: a b\n")
    assert tgt == encode("a b") + [EOS_ID]


def test_build_batch_masks():
    exs = [
        dt.Example("copy: a b", "a b", "copy_span", "t-0"),
        dt.Example("9+9 (mod 10)", "The answer is: 8", "mod_add", "t-1"),
    ]
    batch = dt.build_batch(exs)
    for e, ex in enumerate(exs):
        inp, tgt = dt.encode_example(ex)
        row = batch.token_ids[e]
        assert row[: len(inp)].tolist() == inp
        assert row[len(inp) : len(inp) + len(tgt)].tolist() == tgt
        assert (row[len(inp) + len(tgt) :] == PAD_ID).all()
        assert batch.attn_mask[e].sum() == len(inp) + len(tgt)
        # loss only on answer tokens and the EOS that ends them
        want = np.zeros(batch.token_ids.shape[1])
        want[len(inp) : len(inp) + len(tgt)] = 1.0
        assert (batch.loss_mask[e] == want).all()
    assert batch.tasks == ["copy_span", "mod_add"]
    assert batch.ids == ["t-0", "t-1"]


def test_build_batch_overflow():
    ex = dt.Example("copy: " + "a " * 50, "a", "copy_span", "t-0")
    with pytest.raises(DataError, match="over the 32 limit"):
        dt.build_batch([ex], max_seq=32)


def test_input_batch_has_no_loss():
    exs = dt.gen_synthetic("copy_span", 4, seed=11)
    batch = dt.build_input_batch(exs)
    assert batch.loss_mask.sum() == 0
    sep = encode(dt.SEPARATOR)[0]
    for e, ex in enumerate(exs):
        n = int(batch.attn_mask[e].sum())
        assert batch.token_ids[e, n - 1] == sep


def test_batch_fn_is_stateless():
    ds = dt.gen_synthetic("mod_add", 40, seed=5)
    f = dt.make_batch_fn(ds, batch_size=6, seed=123)
    g = dt.make_batch_fn(ds, batch_size=6, seed=123)
    a, b = f(17, 1), g(17, 1)
    assert (a.token_ids == b.token_ids).all()
    # different (step, micro) keys draw different examples
    c = f(17, 0)
    assert a.ids != c.ids


def test_batch_fn_empty_dataset():
    with pytest.raises(DataError, match="empty"):
        dt.make_batch_fn([], 4, seed=0)
