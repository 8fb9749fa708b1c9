"""Corpus hygiene and base-model caching.

The corpus contract: generic capability documents (junk-marker spans,
fact chains, word salad, byte noise) plus downstream input shapes with
every answer value withheld. Nothing here may pair a task input with its
answer.
"""

import dataclasses
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from promptmoe import autodiff as ad
from promptmoe import pretrain as pt
from promptmoe import trainer as tr
from promptmoe.data import EOS_ID, PAD_ID
from promptmoe.errors import ConfigError, NumericalError
from promptmoe.linalg import RngStream
from promptmoe.model import ToyLM
from promptmoe.trainer import write_npz
from test_autodiff import traced_peak
from test_trainer import assert_no_child_left

DOCS = pt.gen_docs(2000, seed=0)


def test_gen_docs_deterministic():
    again = pt.gen_docs(50, seed=0)
    assert again == DOCS[:50]
    assert pt.gen_docs(50, seed=1) != again


def test_no_answer_scaffold_is_ever_completed():
    for text, _ in DOCS:
        assert not re.search(r"The answer is: \S", text)


def test_math_format_docs_end_at_the_scaffold():
    seen = 0
    for text, eos in DOCS:
        if "(mod 10)" in text:
            seen += 1
            assert re.fullmatch(r"\d[+*]\d \(mod 10\)\nThe answer is: ", text)
            assert not eos  # format docs never learn to stop
    assert seen > 20


def test_span_format_docs_are_input_only():
    seen = 0
    for text, eos in DOCS:
        if text.startswith(("copy: ", "reverse: ")):
            seen += 1
            assert text.count("\n") == 1 and text.endswith("\n")
            assert not eos
    assert seen > 20


def test_junk_markers_avoid_task_words():
    # format docs legitimately start with the task word; marker docs (the
    # ones with a continuation line) must never collide with it
    for text, _ in DOCS:
        m = re.match(r"^([a-z]+)(?:: |~ ).*\n.", text, flags=re.S)
        if m:
            assert m.group(1) not in pt.TASK_MARKERS, text


def test_fact_chains_carry_correct_mod10_values():
    checked = 0
    for text, _ in DOCS:
        for x, op, y, r in re.findall(r"(\d)([+*])(\d)(?:=|: )(\d);", text):
            want = (int(x) + int(y)) % 10 if op == "+" else (int(x) * int(y)) % 10
            assert int(r) == want
            checked += 1
    assert checked > 300


def test_repeat_and_reverse_docs_are_faithful():
    echoes = reverses = 0
    for text, _ in DOCS:
        m = re.fullmatch(r"[a-z]+(?:: |~ )([a-z ]+)\n([a-z ]+)", text)
        if not m:
            continue
        first, second = m.group(1).split(), m.group(2).split()
        if first == second:
            echoes += 1
        elif first == second[::-1]:
            reverses += 1
        else:
            raise AssertionError(f"marker doc is neither echo nor reversal: {text!r}")
    assert echoes > 100 and reverses > 50


def test_eos_fraction_on_generic_docs():
    flags = [eos for text, eos in DOCS if "(mod 10)" not in text and not text.startswith(("copy: ", "reverse: "))]
    frac = sum(flags) / len(flags)
    assert 0.25 < frac < 0.45


def test_default_corpus_is_pinned():
    # the base cache key hashes the config, not the generator code, so any
    # change to these bytes must come with a corpus_version bump
    corpus = pt.gen_corpus(pt.PretrainConfig().docs, pt.PretrainConfig().seed)
    digest = hashlib.sha256(json.dumps(corpus).encode()).hexdigest()
    assert digest == "040cb200d5c2433a7f0b0e664e58045ccadce8a86741c12e1cb6c61d0e317378"


def test_gen_corpus_appends_eos_only_when_flagged():
    docs = pt.gen_docs(100, seed=0)
    corpus = pt.gen_corpus(100, seed=0)
    for (text, eos), ids in zip(docs, corpus):
        assert (ids[-1] == EOS_ID) == eos
        assert len(ids) == len(text.encode()) + int(eos)


def test_doc_batch_padding():
    # rows whose docs run out before pack_len are right-padded to the longest
    batch = pt._doc_batch([[1, 2, 3], [4, 5]], [[0], [1]], pack_len=8)
    assert batch.token_ids.shape == (2, 3)
    assert batch.token_ids[1, 2] == PAD_ID
    assert batch.attn_mask[1].tolist() == [1.0, 1.0, 0.0]
    assert (batch.loss_mask == batch.attn_mask).all()


def test_doc_batch_packs_rows():
    docs = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
    batch = pt._doc_batch(docs, [[0, 1, 2], [2, 2, 2]], pack_len=7)
    # whole docs concatenated, the overflowing one cropped at pack_len
    assert batch.token_ids[0].tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert batch.token_ids[1].tolist() == [6, 7, 8, 9, 6, 7, 8]
    assert batch.attn_mask.all() and batch.loss_mask.all()


def test_doc_batch_pack_stops_once_full():
    # the second doc already reaches pack_len; the third is never read
    batch = pt._doc_batch([[1], [2, 3]], [[0, 1, 0]], pack_len=3)
    assert batch.token_ids[0].tolist() == [1, 2, 3]


def test_pretrain_lr_shape():
    pcfg = pt.PretrainConfig(steps=1000, warmup_steps=100, lr=1e-3)
    assert pt.pretrain_lr(50, pcfg) == pytest.approx(0.5e-3)
    assert pt.pretrain_lr(100, pcfg) == pytest.approx(1e-3)
    assert pt.pretrain_lr(1000, pcfg) == pytest.approx(1e-4)
    mid = pt.pretrain_lr(550, pcfg)
    assert 1e-4 < mid < 1e-3


def test_cache_key_tracks_config():
    a = pt.PretrainConfig()
    b = pt.PretrainConfig()
    assert a.cache_key() == b.cache_key()
    assert pt.PretrainConfig(seed=1).cache_key() != a.cache_key()
    assert pt.PretrainConfig(corpus_version=99).cache_key() != a.cache_key()


def test_base_save_load_roundtrip(tmp_path):
    pcfg = pt.PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64,
                             docs=60, steps=3, batch_size=4, warmup_steps=1)
    lm, last = pt.pretrain_base(pcfg)
    assert np.isfinite(last)
    assert lm.frozen
    path = tmp_path / "base.npz"
    pt.save_base(str(path), pcfg, lm)
    back, cfg2 = pt.load_base(str(path))
    assert cfg2 == pcfg
    assert back.frozen
    assert back.param_hash() == lm.param_hash()


def test_ensure_base_caches(tmp_path):
    pcfg = pt.PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64,
                             docs=60, steps=3, batch_size=4, warmup_steps=1)
    first, path1 = pt.ensure_base(pcfg, cache_dir=str(tmp_path))
    second, path2 = pt.ensure_base(pcfg, cache_dir=str(tmp_path))
    assert path1 == path2
    assert first.param_hash() == second.param_hash()


REPO_CACHE = Path(__file__).resolve().parents[1] / ".cache"


def test_committed_cache_holds_the_default_base():
    pcfg = pt.PretrainConfig()
    lm, cached = pt.load_base(pt.base_path(pcfg, str(REPO_CACHE)))
    assert cached == pcfg
    assert lm.param_hash().startswith("e051cce8")


def write_base(path, config_json=None, **arrays):
    if config_json is not None:
        arrays["config_json"] = np.frombuffer(config_json.encode(), dtype=np.uint8)
    write_npz(str(path), {"lm.emb": np.zeros((2, 2)), **arrays})


@pytest.mark.parametrize(
    "config_json",
    [None, "{not json", json.dumps({**dataclasses.asdict(pt.PretrainConfig()), "rotary": True})],
    ids=["no-config", "not-json", "removed-key"],
)
def test_unreadable_base_config_is_a_config_error(config_json, tmp_path):
    path = tmp_path / "base.npz"
    write_base(path, config_json)
    with pytest.raises(ConfigError, match=r"pretrain-base --force") as err:
        pt.load_base(str(path))
    assert str(path) in str(err.value)


def test_ensure_base_rejects_a_cache_built_from_another_config(tmp_path):
    pcfg = dataclasses.replace(TINY, steps=1)
    other = dataclasses.replace(pcfg, seed=1)
    path = pt.base_path(pcfg, str(tmp_path))
    pt.save_base(path, other, ToyLM.create(other.lm_config(), RngStream(0)))
    with pytest.raises(ConfigError, match="another config") as err:
        pt.ensure_base(pcfg, cache_dir=str(tmp_path))
    assert path in str(err.value)


def test_step_graph_is_freed_before_the_next_forward():
    # two steps peak where one does once the first step's graph and
    # gradients are gone before the second forward (keeping them put two
    # steps 60% above)
    pcfg = pt.PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64, docs=60, steps=1, batch_size=4)
    pt.pretrain_base(pcfg)  # warm-up: first-call caches are not the graph's
    one = traced_peak(lambda: pt.pretrain_base(pcfg))
    two = traced_peak(lambda: pt.pretrain_base(dataclasses.replace(pcfg, steps=2)))
    assert two <= 1.05 * one, (two, one)


TINY = pt.PretrainConfig(hidden=16, layers=1, heads=2, max_seq=64, docs=60, steps=4,
                         batch_size=5, pack_len=24, warmup_steps=1)


def test_split_step_matches_one_whole_batch_backward():
    lm = ToyLM.create(TINY.lm_config(), RngStream(0).child("lm_init"))
    docs = pt.gen_corpus(TINY.docs, 0)
    # one doc per row: ragged rows, so both halves hold padding; 5 rows split 2 + 3
    batch = pt._doc_batch(docs, [[i] for i in range(5)], TINY.pack_len)
    assert (batch.attn_mask == 0).any()
    loss, count = lm.loss_on_tokens(batch)
    want = ad.backward(ad.scale(loss, 1.0 / count))

    def forward(part, extra):
        loss, _ = lm.loss_on_tokens(part)
        return loss, os.getpid()

    seen = {}
    with tr.part_worker(forward, {f"lm.{name}": p for name, p in lm.params.items()}) as worker:
        got, got_count, pids = tr.part_step(worker, forward, batch, 0, None, seen, 1)
    assert pids[0] == os.getpid() != pids[1]  # the second half ran in the worker
    assert got_count == count
    assert got == pytest.approx(float(loss.value), rel=1e-12)
    assert sorted(seen) == sorted(want)
    for name, g in want.items():
        np.testing.assert_allclose(seen[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max())
    assert_no_child_left()


def test_split_pretraining_repeats_bitwise_and_matches_a_serial_run(monkeypatch):
    runs = [pt.pretrain_base(TINY) for _ in range(2)]
    pids = set()
    loss_on_tokens = ToyLM.loss_on_tokens

    def spy(self, batch):
        pids.add(os.getpid())
        return loss_on_tokens(self, batch)

    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")  # every part runs in the caller
        patch.setattr(ToyLM, "loss_on_tokens", spy)
        runs.append(pt.pretrain_base(TINY))
    assert pids == {os.getpid()}  # the serial run forked no worker
    (lm, loss), *others = runs
    assert np.isfinite(loss)
    for other, other_loss in others:
        assert other.param_hash() == lm.param_hash()
        assert other_loss == loss


def test_nonfinite_pretraining_loss_names_the_step(monkeypatch):
    # a NaN rate makes every weight NaN in step 1's update, so step 2's loss is NaN
    monkeypatch.setattr(pt, "pretrain_lr", lambda step, pcfg: float("nan"))
    with pytest.raises(NumericalError, match=r"non-finite loss at step 2$"):
        pt.pretrain_base(TINY)


def test_one_row_batch_pretrains():
    lm, loss = pt.pretrain_base(dataclasses.replace(TINY, batch_size=1, steps=2))
    assert np.isfinite(loss)
    init = ToyLM.create(TINY.lm_config(), RngStream(TINY.seed).child("lm_init"), TINY.init_std)
    assert lm.param_hash() != init.param_hash()


class StopHere(Exception):
    pass


def test_pretraining_worker_ends_with_the_call(monkeypatch):
    pt.pretrain_base(TINY)
    assert_no_child_left()

    def stop(line):
        raise StopHere(line)

    with pytest.raises(StopHere):
        pt.pretrain_base(TINY, log_every=1, log_fn=stop)
    assert_no_child_left()

    # a worker's error re-raises in the caller
    caller = os.getpid()
    loss_on_tokens = ToyLM.loss_on_tokens

    def fail_off_caller(self, batch):
        if os.getpid() != caller:
            raise NumericalError("worker part failed")
        return loss_on_tokens(self, batch)

    monkeypatch.setattr(ToyLM, "loss_on_tokens", fail_off_caller)
    with pytest.raises(NumericalError, match="^worker part failed$"):
        pt.pretrain_base(TINY)
    assert_no_child_left()
