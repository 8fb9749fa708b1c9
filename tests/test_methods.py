"""Provider behaviors: budgets, input (in)dependence, routing composition."""

import dataclasses

import numpy as np
import pytest

from promptmoe import autodiff as ad
from promptmoe import data as dt
from promptmoe import methods as mt
from promptmoe import trainer as tr
from promptmoe.errors import ConfigError
from promptmoe.linalg import RngStream, truncated_svd
from promptmoe.model import LMConfig, ToyLM
from test_prompt_bank import compose

H_REF = 2048


@pytest.fixture(scope="module")
def lm():
    cfg = LMConfig(vocab_size=258, hidden=64, layers=2, heads=4, max_seq=128)
    model = ToyLM.create(cfg, RngStream(3).child("lm"), init_std=0.05)
    model.freeze()
    return model


def tiny_batch(texts):
    exs = [dt.Example(t, "x", "copy_span", f"p-{i}") for i, t in enumerate(texts)]
    return dt.build_input_batch(exs)


def make_provider(lm, kind, seed=0, **kw):
    kw.setdefault("init_text", "a b c 1 2 3\n")
    cfg = mt.MethodConfig(kind=kind, **kw)
    return mt.build(cfg, lm, RngStream(seed).child("method"))


# ---- parameter budgets ------------------------------------------------------

def test_reference_param_counts():
    assert mt.expected_param_count("PT", 40, 1, 0, H_REF) == 81920
    assert mt.expected_param_count("DPT", 40, 1, 39, H_REF) == 81432
    assert mt.expected_param_count("SMOP", 40, 2, 0, H_REF) == 86018
    assert mt.expected_param_count("PT_MOE", 40, 2, 36, H_REF) == 80706


def test_budget_table_reproduces_reference():
    rows = {kind: count for kind, count, *_ in mt.budget_table(H_REF)}
    assert rows == {"PT": 81920, "DPT": 81432, "SMOP": 86018, "PT_MOE": 80706}


def test_budget_table_labels():
    labels = {kind: label for kind, _, label, *_ in mt.budget_table(H_REF)}
    assert labels == {"PT": "81k", "DPT": "81k", "SMOP": "86k", "PT_MOE": "80k"}


def test_scaled_budgets_within_8_percent():
    for h in (64, 96, 128):
        for kind, count, _, target, rel in mt.budget_table(h):
            assert abs(rel) <= 0.08, (h, kind, count, target)


def test_provider_counts_match_formula(lm):
    h = lm.cfg.hidden
    for kind in mt.KINDS:
        p = make_provider(lm, kind, rank=4)
        cfg = p.cfg
        r = cfg.resolve_rank(h) or 0
        want = mt.expected_param_count(kind, cfg.prompt_length, cfg.num_experts, r, h)
        assert p.param_count() == want
        assert sum(a.size for a in p.param_arrays().values()) == want


# ---- provide() behaviors ----------------------------------------------------

def test_pt_prompt_is_input_independent(lm):
    p = make_provider(lm, "PT")
    a, _ = p.prompt_node(lm, tiny_batch(["copy: a b\n"]))
    b, _ = p.prompt_node(lm, tiny_batch(["9+9 (mod 10)\n"]))
    assert np.array_equal(a.value[0], b.value[0])


def test_dpt_prompt_is_input_independent(lm):
    p = make_provider(lm, "DPT", rank=4)
    a, _ = p.prompt_node(lm, tiny_batch(["x y\n"]))
    b, _ = p.prompt_node(lm, tiny_batch(["1*2 (mod 10)\n"]))
    assert np.array_equal(a.value[0], b.value[0])
    assert a.value.shape == (1, 40, lm.cfg.hidden)


def test_routed_prompts_depend_only_on_router(lm):
    # same mean embedding -> same prompt, different mean -> different prompt
    p = make_provider(lm, "PT_MOE", rank=4)
    a, da = p.prompt_node(lm, tiny_batch(["ab\n"]))
    b, db = p.prompt_node(lm, tiny_batch(["ba\n"]))  # same bytes, same mean
    c, dc = p.prompt_node(lm, tiny_batch(["99\n"]))
    assert np.allclose(a.value, b.value, atol=1e-14)
    assert np.array_equal(da.mask, db.mask)
    assert not np.allclose(a.value, c.value)


def test_ptmoe_prompt_matches_compose_oracle(lm):
    # each example's prompt is sum_i w_i * (A_i @ B) under its own decision
    batch = tiny_batch(["copy: q r\n", "3+3 (mod 10)\n", "zz\n"])
    for selective in (True, False):
        for probationary in (True, False):
            p = make_provider(lm, "PT_MOE", num_experts=3, rank=4, k=2, router_w_std=4.0,
                              selective=selective, probationary=probationary)
            p.stack[...] += np.random.default_rng(1).normal(size=p.stack.shape)
            for training in (False, True):
                node, routing = p.prompt_node(
                    lm, batch, rng=RngStream(2).child("noise"), training=training
                )
                for e, weights in enumerate(routing.weights):
                    want = compose(weights, p.stack, p.proj)
                    assert np.allclose(node.value[e], want, atol=1e-12)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("kind", mt.KINDS)
def test_prompt_node_matches_closed_form(lm, kind, training):
    # P tiled (PT), A_0 @ B (DPT), w_sel * P_sel (SMOP), sum_i w_i A_i @ B (PT_MOE)
    p = make_provider(lm, kind, num_experts=2, rank=4, router_w_std=4.0)
    p.stack[...] += np.random.default_rng(1).normal(size=p.stack.shape)  # distinct experts
    batch = tiny_batch(["copy: q r\n", "3+3 (mod 10)\n", "zz\n"])
    node, routing = p.prompt_node(lm, batch, rng=RngStream(2).child("noise"), training=training)
    assert node.value.shape == (3, p.prompt_length, lm.cfg.hidden)
    assert (routing is None) == (kind in ("PT", "DPT"))
    for e in range(batch.size):
        if kind == "PT":
            want = p.stack[0]
        elif kind == "DPT":
            want = p.stack[0] @ p.proj
        elif kind == "SMOP":
            (sel,) = np.flatnonzero(routing.mask[e])
            want = routing.weights[e, sel] * p.stack[sel]
        else:
            want = compose(routing.weights[e], p.stack, p.proj)
        assert np.allclose(node.value[e], want, atol=1e-12)


def test_ptmoe_n1_matches_dpt(lm):
    # degenerate MoE: same bank maths, router contributes the scalar 1
    moe = make_provider(lm, "PT_MOE", num_experts=1, rank=5)
    dpt = make_provider(lm, "DPT", rank=5)
    batch = tiny_batch(["copy: q\n", "3+3 (mod 10)\n"])
    a, dec = moe.prompt_node(lm, batch)
    b, _ = dpt.prompt_node(lm, batch)
    assert np.allclose(a.value, b.value, atol=1e-12)
    assert np.array_equal(dec.mask, np.ones((2, 1)))
    assert np.array_equal(dec.weights, np.ones((2, 1)))


def test_forced_one_hot_reproduces_single_expert(lm):
    p = make_provider(lm, "PT_MOE", num_experts=3, rank=4)
    batch = tiny_batch(["z z z\n"])
    _, base = p.prompt_node(lm, batch)
    want_idx = 2
    # hand-edit the record: keep only expert 2, renormalized by its own softmax
    forced = dataclasses.replace(
        base, mask=np.eye(3)[[want_idx]], renorm=base.soft[:, [want_idx]]
    )
    node, replayed = p.prompt_node(lm, batch, forced=forced)
    assert replayed.mask is forced.mask and replayed.renorm is forced.renorm
    want = p.stack[want_idx] @ p.proj
    # forced mask/renorm turn the straight-through weight into exactly 1
    assert np.allclose(node.value[0], want, atol=1e-12)


def test_smop_selects_one_short_prompt(lm):
    p = make_provider(lm, "SMOP", prompt_length=40, num_experts=2)
    batch = tiny_batch(["m m m\n"])
    node, dec = p.prompt_node(lm, batch)
    assert node.value.shape == (1, 20, lm.cfg.hidden)
    (sel,) = np.flatnonzero(dec.mask[0])
    want = p.stack[sel] * dec.weights[0, sel]
    assert np.allclose(node.value[0], want, atol=1e-12)


def test_smop_divisibility_error():
    with pytest.raises(ConfigError, match="divisible"):
        mt.MethodConfig(kind="SMOP", prompt_length=41, num_experts=2)


def test_pt_function_class_reproduction(lm):
    # factor a random PT prompt through the bank at full rank; logits match
    h, t = lm.cfg.hidden, 8
    rng = np.random.default_rng(11)
    target_prompt = rng.normal(size=(t, h))
    u, s, vt = truncated_svd(target_prompt, min(t, h))
    moe = make_provider(lm, "PT_MOE", prompt_length=t, num_experts=1, rank=min(t, h))
    moe.stack[0] = u * s[None, :]
    moe.proj[...] = vt
    batch = tiny_batch(["w w w\n"])
    node, _ = moe.prompt_node(lm, batch)
    assert np.allclose(node.value[0], target_prompt, atol=1e-8)

    logits_moe = lm.forward(node.value, lm.embed(batch.token_ids), batch.attn_mask).value
    logits_pt = lm.forward(
        target_prompt[None], lm.embed(batch.token_ids), batch.attn_mask
    ).value
    assert np.allclose(logits_moe, logits_pt, atol=1e-8)


def test_init_text_cycles_to_length(lm):
    p = make_provider(lm, "PT", prompt_length=7, init_text="ab")
    emb = lm.embed(np.array([[ord("a"), ord("b")]], dtype=np.int64))[0]
    want = np.stack([emb[0], emb[1], emb[0], emb[1], emb[0], emb[1], emb[0]])
    assert np.allclose(p.stack[0], want)


def test_init_text_must_tokenize(lm):
    with pytest.raises(ConfigError, match="tokenization"):
        make_provider(lm, "PT", init_text="")


def test_auto_rank_needs_budget():
    with pytest.raises(ConfigError, match="budget"):
        mt.MethodConfig(kind="PT_MOE", rank="auto")


def test_checkpoint_roundtrip_all_kinds(lm, tmp_path):
    for kind in mt.KINDS:
        p = make_provider(lm, kind, rank=4, seed=5)
        p.stack[...] += 0.5
        path = tmp_path / f"{kind}.npz"
        tr.save_checkpoint(path, p, tr.AdamWState(p.param_arrays()), 3, tr.TrainConfig(seed=5))
        q = make_provider(lm, kind, rank=4, seed=6)  # different init
        _, step, seed = tr.load_checkpoint(path, q)
        assert (step, seed) == (3, 5)
        for name, arr in p.param_arrays().items():
            assert np.array_equal(q.param_arrays()[name], arr), (kind, name)
        batch = tiny_batch(["t u v\n"])
        a, _ = p.prompt_node(lm, batch)
        b, _ = q.prompt_node(lm, batch)
        assert np.array_equal(a.value, b.value), kind


def test_backward_leaves_no_adjoint_on_constants(lm):
    provider = make_provider(lm, "PT_MOE", prompt_length=4, num_experts=2, rank=2)
    batch = dt.build_batch(
        [dt.Example("a b", "b", "copy_span", "g-0"), dt.Example("c d e f", "d e", "copy_span", "g-1")]
    )
    loss, count, _ = mt.loss_on_batch(
        provider, lm, batch, rng=RngStream(5).child("noise"), training=True
    )
    grads = ad.backward(ad.scale(loss, 1.0 / count))
    assert set(grads) == set(provider.param_arrays())
    seen, todo, consts = set(), [loss], []
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.parents)
            if not node.parents and node.name is None:
                consts.append(node)
    assert consts  # the frozen weights, masks and routing constants
    assert all(node.grad is None for node in consts)


# ---- gradient check across routing modes (the toy config) -------------------

@pytest.mark.parametrize("selective,probationary", [(True, True), (False, True),
                                                    (True, False), (False, False)])
def test_full_model_gradcheck_all_modes(selective, probationary):
    cfg = LMConfig(vocab_size=256, hidden=64, layers=2, heads=2, max_seq=64)
    lm = ToyLM.create(cfg, RngStream(21).child("lm"), init_std=0.05)
    lm.freeze()
    mcfg = mt.MethodConfig(
        kind="PT_MOE", prompt_length=8, num_experts=2, rank=4,
        selective=selective, probationary=probationary, init_text="a 1 b 2\n",
    )
    provider = mt.build(mcfg, lm, RngStream(22).child("method"))
    # break the shared-SVD init symmetry: with identical expert factors the
    # prompt is independent of the logits whenever the weights sum to one,
    # so the router columns would be checked at an exactly-zero point
    jit = np.random.default_rng(5)
    provider.stack += jit.normal(0.0, 0.05, provider.stack.shape)
    provider.router.w += jit.normal(0.0, 0.05, provider.router.w.shape)
    # hand-built batch: the toy vocab has no specials, so no EOS plumbing
    from promptmoe.model import Batch

    ids = np.array([[97, 98, 10, 99, 100], [49, 50, 10, 51, 52]], dtype=np.int64)
    attn = np.ones((2, 5))
    loss_mask = np.array([[0, 0, 0, 1, 1], [0, 0, 0, 1, 1.0]])
    batch = Batch(token_ids=ids, attn_mask=attn, loss_mask=loss_mask)

    _, _, routing = mt.loss_on_batch(provider, lm, batch, training=False)

    def f(arrs):
        # a frozen selection keeps the finite differences on the smooth part
        for name, p in provider.param_arrays().items():
            p[...] = arrs[name]
        loss, count, _ = mt.loss_on_batch(
            provider, lm, batch, training=False, forced=routing
        )
        return ad.scale(loss, 1.0 / count)

    params = {name: p.copy() for name, p in provider.param_arrays().items()}
    max_rel = ad.finite_diff_check(f, params, eps=1e-5, min_coords=120, seed=9)
    assert max_rel <= 1e-5
