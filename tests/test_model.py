import sys
import threading

import numpy as np
import pytest

from promptmoe import autodiff as ad
from promptmoe import methods as mt
from promptmoe import model as m
from promptmoe.errors import ConfigError, DataError, ShapeError
from promptmoe.linalg import RngStream
from test_autodiff import assert_adjoints_unwritten, graph_records, snapshot_adjoints, traced_peak


def make_lm(hidden=16, layers=2, heads=2, max_seq=64, seed=0, frozen=True, random_params=False):
    """A ToyLM at ``create``'s init, or with ``random_params`` every array moved at random.

    ``create`` zeroes every bias and sets every layernorm gain to one, so only
    the random variant reads those arrays with a visible effect.
    """
    cfg = m.LMConfig(hidden=hidden, layers=layers, heads=heads, max_seq=max_seq)
    lm = m.ToyLM.create(cfg, RngStream(seed).child("lm"))
    if random_params:
        rng = np.random.default_rng(seed)
        for name, a in lm.params.items():
            lm.params[name] = a + rng.normal(scale=0.1, size=a.shape)
    if frozen:
        lm.freeze()
    return lm


def simple_batch(ids, attn=None, loss=None):
    ids = np.asarray(ids)
    attn = np.ones_like(ids, dtype=float) if attn is None else np.asarray(attn, dtype=float)
    loss = attn.copy() if loss is None else np.asarray(loss, dtype=float)
    loss = loss * attn
    return m.Batch(token_ids=ids, attn_mask=attn, loss_mask=loss)


def test_tokenizer_roundtrip():
    text = "copy: a b c (mod 10) é"
    assert m.decode(m.encode(text)) == text
    assert all(0 <= t < 256 for t in m.encode(text))


def test_tokenizer_decode_skips_specials():
    ids = m.encode("ab") + [m.EOS_ID, m.PAD_ID]
    assert m.decode(ids) == "ab"


def test_lm_config_validation():
    with pytest.raises(ConfigError):
        m.LMConfig(hidden=10, heads=3)
    with pytest.raises(ConfigError):
        m.LMConfig(layers=0)


def test_embed_lookup_and_range_check():
    lm = make_lm()
    e = lm.embed(np.array([[0, 0, 5]]))
    assert np.array_equal(e[0, 0], e[0, 1])
    with pytest.raises(DataError, match=r"\(0, 1\)"):
        lm.embed(np.array([[0, 258], [1, 2]]))
    with pytest.raises(DataError):
        lm.embed(np.array([[-1]]))


def test_batch_rejects_loss_on_padding():
    with pytest.raises(DataError):
        m.Batch(
            token_ids=np.zeros((1, 3), dtype=int),
            attn_mask=np.array([[1.0, 1.0, 0.0]]),
            loss_mask=np.array([[0.0, 1.0, 1.0]]),
        )


def test_forward_token_path_matches_embed_path():
    lm = make_lm()
    ids = np.array([[3, 7, 11], [200, 0, 4]])
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    a = lm.forward(None, lm.embed(ids), mask).value
    b = lm.forward_tokens(ids, mask).value
    assert np.allclose(a, b, atol=1e-14)


def test_forward_output_distributions_normalized():
    lm = make_lm()
    ids = np.array([[1, 2, 3, 4]])
    logits = lm.forward(None, lm.embed(ids), np.ones((1, 4))).value
    probs = np.exp(logits - logits.max(-1, keepdims=True))
    probs /= probs.sum(-1, keepdims=True)
    assert np.allclose(probs.sum(-1), 1.0, atol=1e-12)


def test_causality_future_tokens_do_not_leak():
    lm = make_lm()
    ids = np.array([[5, 6, 7, 8, 9]])
    mask = np.ones((1, 5))
    base = lm.forward(None, lm.embed(ids), mask).value
    changed = ids.copy()
    changed[0, 4] = 77
    after = lm.forward(None, lm.embed(changed), mask).value
    assert np.allclose(base[0, :4], after[0, :4], atol=1e-14)
    assert not np.allclose(base[0, 4], after[0, 4], atol=1e-6)


def test_padding_keys_are_invisible():
    lm = make_lm()
    ids = np.array([[5, 6, 7, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0]])
    base = lm.forward(None, lm.embed(ids), mask).value
    noisy = ids.copy()
    noisy[0, 3] = 133
    after = lm.forward(None, lm.embed(noisy), mask).value
    assert np.allclose(base[0, :3], after[0, :3], atol=1e-14)


def test_prompt_positions_shift_inputs():
    lm = make_lm()
    ids = np.array([[10, 20, 30]])
    mask = np.ones((1, 3))
    plain = lm.forward(None, lm.embed(ids), mask).value
    k = 2
    zero_prompt = np.zeros((1, k, lm.cfg.hidden))
    prompted = lm.forward(zero_prompt, lm.embed(ids), mask).value
    # a zero prompt still occupies positions, so logits must differ in general
    assert prompted.shape == (1, k + 3, m.VOCAB_WITH_SPECIALS)
    assert not np.allclose(prompted[0, k:], plain[0], atol=1e-6)


def test_prompt_attends_causally():
    lm = make_lm()
    ids = np.array([[10, 20]])
    mask = np.ones((1, 2))
    rng = np.random.default_rng(0)
    prompt = rng.normal(size=(1, 3, lm.cfg.hidden))
    base = lm.forward(prompt, lm.embed(ids), mask).value
    changed = prompt.copy()
    # a uniform shift would sit in layernorm's null space; use a random one
    changed[0, 2] += rng.normal(size=lm.cfg.hidden)
    after = lm.forward(changed, lm.embed(ids), mask).value
    assert np.allclose(base[0, :2], after[0, :2], atol=1e-14)
    assert not np.allclose(base[0, 2:], after[0, 2:], atol=1e-6)


def test_batch_permutation_permutes_outputs():
    lm = make_lm()
    ids = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    mask = np.ones((3, 3))
    out = lm.forward(None, lm.embed(ids), mask).value
    perm = [2, 0, 1]
    out_p = lm.forward(None, lm.embed(ids[perm]), mask).value
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_sequence_overflow_raises():
    lm = make_lm(max_seq=8)
    ids = np.zeros((1, 6), dtype=int)
    prompt = np.zeros((1, 4, lm.cfg.hidden))
    with pytest.raises(ShapeError):
        lm.forward(prompt, lm.embed(ids), np.ones((1, 6)))


def test_loss_uniform_logits_is_log_vocab():
    # zero hidden state + tied head on a zeroed table gives exactly uniform
    lm = make_lm()
    for name in lm.params:
        lm.params[name] = np.zeros_like(lm.params[name])
    batch = simple_batch(
        [[1, 2, 3]], attn=[[1.0, 1.0, 1.0]], loss=[[0.0, 0.0, 1.0]]
    )
    loss, count = lm.loss_on_batch(None, batch)
    assert count == 1
    assert loss.value == pytest.approx(np.log(258.0), abs=1e-6)


def test_loss_near_certain_prediction_is_tiny():
    lm = make_lm()
    for name in lm.params:
        lm.params[name] = np.zeros_like(lm.params[name])
    lm.params["lnf.b"] = np.ones(lm.cfg.hidden)
    target = 7
    lm.params["emb"][target] = 40.0 * np.ones(lm.cfg.hidden) / lm.cfg.hidden
    batch = simple_batch([[1, target]], loss=[[0.0, 1.0]])
    loss, _ = lm.loss_on_batch(None, batch)
    assert loss.value <= 1e-12


def test_loss_all_zero_mask_is_zero_with_count():
    lm = make_lm()
    batch = simple_batch([[1, 2, 3]], loss=[[0.0, 0.0, 0.0]])
    loss, count = lm.loss_on_batch(None, batch)
    assert loss.value == 0.0
    assert count == 0


def test_loss_additive_over_examples():
    lm = make_lm()
    ids = np.array([[1, 2, 3, 256], [4, 5, 256, 256]])
    attn = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    loss_mask = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    whole, count = lm.loss_on_batch(None, m.Batch(ids, attn, loss_mask))
    parts = 0.0
    for e in range(2):
        part, _ = lm.loss_on_batch(None, m.Batch(ids[e : e + 1], attn[e : e + 1], loss_mask[e : e + 1]))
        parts += part.value
    assert count == 3
    assert whole.value == pytest.approx(parts, abs=1e-10)


def test_loss_shift_alignment_first_token_never_predicted():
    lm = make_lm()
    batch = simple_batch([[9, 9]], loss=[[1.0, 1.0]])
    _, count = lm.loss_on_batch(None, batch)
    # position 0 cannot be predicted without a prompt; only token 1 counts
    assert count == 1
    prompt = np.zeros((1, 2, lm.cfg.hidden))
    _, count_prompted = lm.loss_on_batch(prompt, batch)
    # with a prompt ahead, token 0 becomes predictable
    assert count_prompted == 2


def test_rotary_logits_shift_with_invisible_left_padding():
    """Rotary attention sees relative offsets only.

    Content pushed deeper by masked-out padding must score identically:
    padded keys are invisible and rotation cancels in q.k for equal
    relative distances. This is why prompted runs, whose prompt pushes the
    input deeper than pretraining did, need rotary attention.
    """
    lm = make_lm(hidden=16, layers=2, heads=2)
    ids = np.array([[7, 3, 9, 12, 4]])
    base = lm.forward_tokens(ids, np.ones((1, 5))).value[0]

    pad = 11
    shifted_ids = np.concatenate([np.zeros((1, pad), dtype=int), ids], axis=1)
    attn = np.concatenate([np.zeros((1, pad)), np.ones((1, 5))], axis=1)
    shifted = lm.forward_tokens(shifted_ids, attn).value[0, pad:]
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-10)


def test_no_position_table_and_odd_head_dim_rejected():
    assert "pos" not in make_lm().params
    with pytest.raises(ConfigError, match="even head dim"):
        m.LMConfig(hidden=6, heads=2)
    with pytest.raises(ConfigError, match="non-positive"):
        m.LMConfig(heads=0)  # checked before hidden % heads


def test_end_to_end_prompt_gradcheck():
    lm = make_lm(hidden=16, layers=1)
    ids = np.array([[3, 9, 12], [30, 2, 5]])
    attn = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    loss_mask = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
    batch = m.Batch(ids, attn, loss_mask)

    def f(v):
        loss, count = lm.loss_on_batch(ad.leaf(v["prompt"], "prompt"), batch)
        return ad.scale(loss, 1.0 / max(count, 1))

    rng = np.random.default_rng(1)
    p0 = rng.normal(size=(2, 3, 16)) * 0.1
    assert ad.finite_diff_check(f, {"prompt": p0}, eps=1e-6) <= 1e-5


def test_pretraining_path_gradcheck_on_lm_params():
    # the embedding (looked up and tied to the head) and the rotated q and k
    lm = make_lm(hidden=8, layers=1, heads=2, frozen=False, random_params=True)
    batch = simple_batch([[1, 2, 3, 4], [5, 6, 7, 0]], attn=[[1, 1, 1, 1], [1, 1, 1, 0]])
    checked = ("emb", "l0.wq", "l0.wk")

    def f(v):
        params = {**lm.params, **{name.removeprefix("lm."): a for name, a in v.items()}}
        loss, count, _ = m.ToyLM(lm.cfg, params, frozen=False).loss_on_tokens(batch)
        return ad.scale(loss, 1.0 / count)

    assert ad.finite_diff_check(f, {f"lm.{name}": lm.params[name] for name in checked}) <= 1e-5


def full_prefix_generate(lm, prompt, token_ids, attn_mask, max_new, eos_id=m.EOS_ID):
    """Greedy decode that re-runs the whole [prompt | input | generated] prefix per token.

    The reference for ToyLM.generate's KV cache. Returns the token lists and,
    per step, {example: logits at its last position} for the examples still
    running.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    attn = np.asarray(attn_mask, dtype=np.float64)
    b, s = ids.shape
    k = 0 if prompt is None else prompt.shape[1]
    lengths = attn.sum(axis=1).astype(int)
    buf = np.full((b, s + max_new), m.PAD_ID, dtype=np.int64)
    buf[:, :s] = ids
    mask = np.zeros((b, s + max_new))
    mask[:, :s] = attn
    done = np.zeros(b, dtype=bool)
    out = [[] for _ in range(b)]
    steps = []
    for _ in range(max_new):
        width = int(lengths.max())
        logits = lm.forward(prompt, lm.embed(buf[:, :width]), mask[:, :width]).value
        last = logits[np.arange(b), k + lengths - 1]
        steps.append({e: last[e] for e in range(b) if not done[e]})
        nxt = np.argmax(last, axis=-1)
        for e in range(b):
            if done[e]:
                continue
            if nxt[e] == eos_id:
                done[e] = True
                continue
            out[e].append(int(nxt[e]))
            buf[e, lengths[e]] = nxt[e]
            mask[e, lengths[e]] = 1.0
            lengths[e] += 1
        if done.all():
            break
    return out, steps


def traced_generate(lm, prompt, ids, attn, max_new, eos_id=m.EOS_ID, method="_head"):
    """lm.generate plus the result of every call it made to ``lm.<method>``.

    The default records the logits of every LM-head application.
    """
    calls = []
    inner = getattr(lm, method)

    def spy(*args, **kwargs):
        node = inner(*args, **kwargs)
        calls.append(node)
        return node

    setattr(lm, method, spy)
    try:
        out = lm.generate(prompt, ids, attn, max_new, eos_id=eos_id)
    finally:
        delattr(lm, method)
    return out, calls


RAGGED_IDS = np.array(
    [[65, 66, 67, 68, 69], [70, 71, 256, 256, 256], [80, 81, 82, 256, 256], [90, 256, 256, 256, 256]]
)


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("max_new", [1, 7])
@pytest.mark.parametrize("first_eos", [False, True])
def test_cached_generate_matches_full_prefix_oracle(k, max_new, first_eos):
    lm = make_lm(hidden=32, heads=4, seed=5)
    ids = RAGGED_IDS
    attn = (ids != m.PAD_ID).astype(float)
    lengths = attn.sum(axis=1).astype(int)
    prompt = np.random.default_rng(2).normal(size=(len(ids), k, lm.cfg.hidden)) if k else None
    eos = m.EOS_ID
    if first_eos:
        # make example 0's first greedy token the stop token while the others run on
        first = [seq[0] for seq in full_prefix_generate(lm, prompt, ids, attn, 1, eos_id=-1)[0]]
        eos = first[0]
        assert eos not in first[1:]
    want, steps = full_prefix_generate(lm, prompt, ids, attn, max_new, eos_id=eos)
    got, calls = traced_generate(lm, prompt, ids, attn, max_new, eos_id=eos)
    assert got == want
    if first_eos:
        assert got[0] == [] and all(got[1:])
    # one LM-head row per example: the prefill's last real position, then each step
    assert len(calls) == len(steps)
    assert all(c.shape == (len(ids), 1, m.VOCAB_WITH_SPECIALS) for c in calls)
    # a cached prefill matches an uncached forward at every real position
    full = lm.forward(prompt, lm.embed(ids), attn).value
    cache = m.KVCache(lm.cfg, len(ids), k + ids.shape[1])
    prefill = lm.forward(prompt, lm.embed(ids), attn, cache=cache).value
    for e, n in enumerate(lengths):
        np.testing.assert_allclose(prefill[e, : k + n], full[e, : k + n], rtol=0, atol=1e-12)
    for j, running in enumerate(steps):
        for e, expect in running.items():
            np.testing.assert_allclose(calls[j].value[e, 0], expect, rtol=0, atol=1e-12)


def test_cached_generate_slots_hold_full_forward_keys_and_values(monkeypatch):
    lm = make_lm(hidden=32, heads=4, seed=4, random_params=True)
    k, max_new = 3, 5
    attn = (RAGGED_IDS != m.PAD_ID).astype(float)
    prompt = np.random.default_rng(4).normal(size=(len(RAGGED_IDS), k, lm.cfg.hidden))
    out, _, cache = generate_with_prefill_chunk(
        lm, monkeypatch, m.PREFILL_POSITIONS, prompt, RAGGED_IDS, attn, max_new
    )
    # every token but the last generated one was fed back, at its own slot
    seqs = [[*ids[ids != m.PAD_ID], *toks[:-1]] for ids, toks in zip(RAGGED_IDS, out)]
    lengths = np.array([k + len(seq) for seq in seqs])
    ids = np.full((len(seqs), max(map(len, seqs))), m.PAD_ID)
    for e, seq in enumerate(seqs):
        ids[e, : len(seq)] = seq
    # an uncached forward's rotated keys and its values, as attention reads them
    operands = []

    def spy(a, b):
        if a.value.ndim == 4:  # q @ k^T, then probs @ v
            operands.append(b.value)
        return matmul(a, b)

    matmul = ad.matmul
    with monkeypatch.context() as patch:
        patch.setattr(ad, "matmul", spy)
        lm.forward(prompt, lm.embed(ids), (ids != m.PAD_ID).astype(float))
    assert cache.valid.shape[1] == k + RAGGED_IDS.shape[1] + max_new - 1 == lengths.max()
    assert np.array_equal(cache.valid, np.arange(cache.valid.shape[1]) < lengths[:, None])
    assert np.array_equal(cache.next_pos, lengths)
    for layer in range(lm.cfg.layers):
        keys = operands[2 * layer].swapaxes(-1, -2)
        values = operands[2 * layer + 1]
        for e, n in enumerate(lengths):
            np.testing.assert_allclose(cache.keys[layer][e, :, :n], keys[e, :, :n], rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache.values[layer][e, :, :n], values[e, :, :n], rtol=0, atol=1e-12)


def test_inference_records_no_graph():
    lm = make_lm(hidden=32, heads=4, seed=5)
    attn = (RAGGED_IDS != m.PAD_ID).astype(float)
    prompt = np.random.default_rng(2).normal(size=(len(RAGGED_IDS), 3, lm.cfg.hidden))
    for p in (None, prompt):
        assert lm.forward(p, lm.embed(RAGGED_IDS), attn).parents == ()
    assert lm.forward_tokens(RAGGED_IDS, attn).parents == ()
    # the pruned prefill, then one forward per further token
    _, steps = traced_generate(lm, prompt, RAGGED_IDS, attn, 6, eos_id=-1, method="forward")
    assert len(steps) == 6 and all(node.parents == () for node in steps)


def test_frozen_prompt_gradient_equals_unfrozen():
    frozen = make_lm(hidden=16, layers=2)
    unfrozen = m.ToyLM(frozen.cfg, frozen.params, frozen=False)
    batch = simple_batch([[3, 9, 12, 7], [30, 2, 5, 1]], attn=[[1, 1, 1, 1], [1, 1, 1, 0]])
    p0 = np.random.default_rng(1).normal(size=(2, 3, 16)) * 0.1

    def grads(lm):
        loss, count = lm.loss_on_batch(ad.leaf(p0, "prompt"), batch)
        return ad.backward(ad.scale(loss, 1.0 / count))

    g_frozen, g_unfrozen = grads(frozen), grads(unfrozen)
    assert set(g_frozen) == {"prompt"} and "lm.l0.wq" in g_unfrozen
    assert np.array_equal(g_frozen["prompt"], g_unfrozen["prompt"])


def generate_with_prefill_chunk(lm, monkeypatch, positions, prompt, ids, attn, max_new):
    """``generate`` with ``PREFILL_POSITIONS`` set to ``positions`` and no EOS.

    Returns (tokens, every LM-head application, the KV cache it filled).
    """
    caches = []

    class Recorded(m.KVCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(m, "PREFILL_POSITIONS", positions)
        patch.setattr(m, "KVCache", Recorded)
        out, calls = traced_generate(lm, prompt, ids, attn, max_new, eos_id=-1)
    (cache,) = caches
    return out, calls, cache


@pytest.mark.parametrize("random_params", [True, False])
@pytest.mark.parametrize("k", [0, 3])
def test_pruned_prefill_matches_unpruned_rows_and_cache(random_params, k, monkeypatch):
    lm = make_lm(hidden=32, heads=4, seed=6, random_params=random_params)
    ids = RAGGED_IDS
    attn = (ids != m.PAD_ID).astype(float)
    prompt = np.random.default_rng(3).normal(size=(len(ids), k, 32)) if k else None
    rows = (k + attn.sum(axis=1).astype(int) - 1)[:, None]
    picked = np.arange(len(ids))[:, None], rows

    def trunk(cache, **kw):
        x, mask, _ = lm._inputs(prompt, lm.embed(ids), attn)
        return lm._trunk(x, mask, k, lm._weights(), cache, **kw).value

    # uncached, at one row and at three unsorted rows per example (padding included)
    full = trunk(None)
    np.testing.assert_allclose(trunk(None, rows=rows), full[picked], rtol=0, atol=1e-12)
    total = k + ids.shape[1]
    many = np.stack([np.random.default_rng(e).permutation(total)[:3] for e in range(len(ids))])
    pruned = trunk(None, rows=many)
    assert pruned.shape == (len(ids), 3, 32)
    np.testing.assert_allclose(pruned, full[np.arange(len(ids))[:, None], many], rtol=0, atol=1e-12)
    # a prefill into a cache followed by one cached step
    caches = [m.KVCache(lm.cfg, len(ids), total + 1) for _ in range(2)]
    full = trunk(caches[0])
    pruned = trunk(caches[1], rows=rows)
    assert pruned.shape == (len(ids), 1, 32)
    np.testing.assert_allclose(pruned, full[picked], rtol=0, atol=1e-12)
    full_cache, pruned_cache = caches
    for layer in range(lm.cfg.layers):
        assert np.array_equal(pruned_cache.keys[layer], full_cache.keys[layer])
        assert np.array_equal(pruned_cache.values[layer], full_cache.values[layer])
    assert np.array_equal(pruned_cache.valid, full_cache.valid)
    assert np.array_equal(pruned_cache.next_pos, full_cache.next_pos)
    # so the next cached step reads the same slots
    steps = [
        lm.forward(None, lm.embed(np.full((len(ids), 1), 70)), np.ones((len(ids), 1)), cache=c)
        for c in caches
    ]
    assert np.array_equal(steps[0].value, steps[1].value)
    # generate's prefill in chunks of whole examples fills the cache one
    # whole-batch prefill fills: 3 examples and a remainder of 1, or 1 each
    whole, whole_calls, whole_cache = generate_with_prefill_chunk(
        lm, monkeypatch, len(ids) * total, prompt, ids, attn, 4
    )
    assert [c.value.shape[0] for c in whole_calls] == [len(ids)] * 4
    for positions, chunks in ((3 * total, [3, 1]), (1, [1] * len(ids))):
        out, calls, cache = generate_with_prefill_chunk(lm, monkeypatch, positions, prompt, ids, attn, 4)
        assert out == whole
        assert [c.value.shape[0] for c in calls] == chunks + [len(ids)] * 3
        first = np.concatenate([c.value for c in calls[: len(chunks)]])
        np.testing.assert_allclose(first, whole_calls[0].value, rtol=0, atol=1e-12)
        for layer in range(lm.cfg.layers):
            assert np.array_equal(cache.keys[layer], whole_cache.keys[layer])
            assert np.array_equal(cache.values[layer], whole_cache.values[layer])
        assert np.array_equal(cache.valid, whole_cache.valid)
        assert np.array_equal(cache.next_pos, whole_cache.next_pos)


def test_generate_memory_is_the_cache_plus_one_prefill_chunk():
    # the decode shape: 64 examples, a 40-row prompt, inputs of up to 19
    # tokens and 19 new ones, on a 2-layer model of width 64
    lm = make_lm(hidden=64, layers=2, heads=2, max_seq=256, seed=1)
    b, k, s, max_new, h = 64, 40, 19, 19, lm.cfg.hidden
    rng = np.random.default_rng(0)
    attn = (np.arange(s) < rng.integers(5, s + 1, b)[:, None]).astype(float)
    ids = np.where(attn > 0, rng.integers(0, 256, (b, s)), m.PAD_ID)
    prompt = rng.normal(size=(b, k, h))
    cache = 2 * lm.cfg.layers * b * (k + s + max_new - 1) * h * 8
    mlp = m.PREFILL_POSITIONS * 4 * h * 8  # one MLP activation of a full prefill chunk
    peak = traced_peak(lambda: lm.generate(prompt, ids, attn, max_new, eos_id=-1))
    # a whole-batch prefill peaked at 62.6 MB here, the cache (10.1 MB)
    # plus about 50 such activations
    assert peak < cache + 10 * mlp, peak


# (loss mask, largest loss-row count m): ragged with one empty example, and m == 1
LOSS_MASKS = [
    (np.array([[0, 0, 1, 1, 1], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]), 3),
    (np.array([[0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]]), 1),
]


def assert_rel_close(got, want, what):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), what


@pytest.mark.parametrize("kind", mt.KINDS)
@pytest.mark.parametrize("random_params", [True, False])
@pytest.mark.parametrize("frozen", [True, False])
def test_pruned_loss_matches_full_row_oracle(kind, random_params, frozen):
    lm = make_lm(hidden=16, heads=2, seed=8, random_params=random_params, frozen=frozen)
    cfg = mt.MethodConfig(
        kind=kind, prompt_length=4, num_experts=2, rank=3, init_text="a b 1\n", router_w_std=1.0
    )
    provider = mt.build(cfg, lm, RngStream(9).child("method"))
    ids = RAGGED_IDS
    attn = (ids != m.PAD_ID).astype(float)
    for loss_mask, rows in LOSS_MASKS:
        batch = m.Batch(token_ids=ids, attn_mask=attn, loss_mask=loss_mask * attn)

        def run(pruned):
            prompt, _ = provider.prompt_node(lm, batch)
            if pruned:
                loss, count = lm.loss_on_batch(prompt, batch)
                logits_shape = loss.parents[0].shape  # the NLL's record of its logits
            else:
                logits = lm.forward(prompt, lm.embed(ids), attn)
                loss, count = lm._shifted_nll(logits, batch)
                logits_shape = logits.shape
            return loss, count, logits_shape, ad.backward(loss)

        loss, count, logits_shape, grads = run(pruned=True)
        want_loss, want_count, want_logits_shape, want_grads = run(pruned=False)
        assert logits_shape == (len(ids), rows, m.VOCAB_WITH_SPECIALS)
        width = provider.prompt_length + ids.shape[1]
        assert want_logits_shape == (len(ids), width, m.VOCAB_WITH_SPECIALS)
        assert count == want_count == int(loss_mask.sum())
        assert_rel_close(loss.value, want_loss.value, "loss")
        assert set(grads) == set(want_grads)
        assert any(name.startswith("lm.") for name in grads) == (not frozen)
        for name, g in want_grads.items():
            assert_rel_close(grads[name], g, name)


@pytest.mark.parametrize("frozen", [True, False])
def test_model_backward_writes_no_received_adjoint_and_keeps_leaf_grads_only(frozen):
    lm = make_lm(hidden=16, heads=2, seed=8, frozen=frozen)
    cfg = mt.MethodConfig(
        kind="PT_MOE", prompt_length=4, num_experts=2, rank=3, init_text="a b 1\n",
        router_w_std=1.0,
    )
    provider = mt.build(cfg, lm, RngStream(9).child("method"))
    loss_mask, _ = LOSS_MASKS[0]
    attn = (RAGGED_IDS != m.PAD_ID).astype(float)
    batch = m.Batch(token_ids=RAGGED_IDS, attn_mask=attn, loss_mask=loss_mask * attn)
    loss, _, _ = mt.loss_on_batch(
        provider, lm, batch, training=True, noise=provider.training_noise(RngStream(3), batch.size)
    )
    received = snapshot_adjoints(loss)
    grads = ad.backward(loss)
    assert_adjoints_unwritten(received, loss)
    assert any(name.startswith("lm.") for name in grads) == (not frozen)
    for rec in graph_records(loss):
        assert rec.grad is (None if rec.name is None else grads[rec.name])


def test_kv_cache_rejects_left_padding_and_overflow():
    lm = make_lm()
    ids = np.array([[256, 65, 66]])
    cache = m.KVCache(lm.cfg, 1, 4)
    with pytest.raises(DataError, match="right-padded"):
        lm.forward(None, lm.embed(ids), np.array([[0.0, 1.0, 1.0]]), cache=cache)
    lm.forward(None, lm.embed(ids), np.ones((1, 3)), cache=cache)
    lm.forward(None, lm.embed(ids[:, :1]), np.ones((1, 1)), cache=cache)
    with pytest.raises(ShapeError, match="capacity"):
        lm.forward(None, lm.embed(ids[:, :1]), np.ones((1, 1)), cache=cache)
    with pytest.raises(ShapeError, match="max_seq"):
        m.KVCache(lm.cfg, 1, lm.cfg.max_seq + 1)


def test_generate_deterministic_and_bounded():
    lm = make_lm()
    ids = np.array([[65, 66, 67], [70, 71, 256]])
    attn = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    outs = [lm.generate(None, ids, attn, max_new=5) for _ in range(10)]
    assert all(o == outs[0] for o in outs)
    assert all(len(seq) <= 5 for seq in outs[0])


def test_generate_eos_first_returns_empty():
    lm = make_lm()
    for name in lm.params:
        lm.params[name] = np.zeros_like(lm.params[name])
    lm.params["lnf.b"] = np.ones(lm.cfg.hidden)
    lm.params["emb"][m.EOS_ID] = np.ones(lm.cfg.hidden)
    out = lm.generate(None, np.array([[1, 2]]), np.ones((1, 2)), max_new=4)
    assert out == [[]]


def test_generate_context_overflow_raises():
    lm = make_lm(max_seq=10)
    with pytest.raises(ShapeError):
        lm.generate(np.zeros((1, 4, lm.cfg.hidden)), np.zeros((1, 4), dtype=int), np.ones((1, 4)), max_new=8)


def test_generate_respects_prompt():
    lm = make_lm()
    ids = np.array([[65, 66]])
    attn = np.ones((1, 2))
    rng = np.random.default_rng(3)
    p1 = rng.normal(size=(1, 4, lm.cfg.hidden))
    base = lm.generate(None, ids, attn, max_new=3)
    prompted = lm.generate(p1, ids, attn, max_new=3)
    # not a strict guarantee in general, but on a random model a strong
    # prompt perturbs the argmax path; guard against silent prompt-dropping
    assert prompted != base or not np.allclose(p1, 0)


def test_param_hash_tracks_content():
    lm = make_lm()
    h1 = lm.param_hash()
    assert h1 == lm.param_hash()
    lm.params["emb"] = lm.params["emb"].copy()
    lm.params["emb"][0, 0] += 1e-12
    assert lm.param_hash() != h1


def test_concurrent_forwards_on_one_unfrozen_model_match_serial_ones():
    # each forward looks its weights up as its own leaves, so threads running
    # forward_tokens + backward on one model build separate graphs; more
    # threads than cores and a short switch interval interleave them finely
    lm = make_lm(hidden=16, heads=2, seed=4, frozen=False)
    rng = np.random.default_rng(5)
    batches = [simple_batch(rng.integers(0, 256, (2, 12))) for _ in range(4)]

    def grads(batch):
        loss, count, _ = lm.loss_on_tokens(batch)
        return ad.backward(ad.scale(loss, 1.0 / count))

    serial = [grads(b) for b in batches]
    out = [None] * len(batches)

    def worker(i):
        for _ in range(5):
            out[i] = grads(batches[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, out):
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name
