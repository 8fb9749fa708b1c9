import dataclasses

import numpy as np
import pytest

from promptmoe import autodiff as ad
from promptmoe import config as cf
from promptmoe import router
from promptmoe.errors import ConfigError
from promptmoe.linalg import RngStream


def router_cfg(n, **settings):
    """A PT_MOE ``MethodConfig`` of n experts carrying the given router settings."""
    return cf.from_dict({"method": {"num_experts": n, **settings}}).method


def params_for(logit_bias, sigma=0.0, k=1, selective=True, probationary=True):
    """(w, b, cfg): a zero-weight router whose logits are ``logit_bias``."""
    n = len(logit_bias)
    cfg = router_cfg(n, sigma=sigma, k=k, selective=selective, probationary=probationary)
    return np.zeros((n, 4)), np.array(logit_bias, dtype=float), cfg


def route_one(mu, w, b, cfg, rng=None, training=False):
    """``route_batch`` on a single example (B=1); returns its ``Routing``."""
    _, routing = router.route_batch(
        np.asarray(mu, dtype=float)[None],
        ad.const(w),
        ad.const(b),
        cfg,
        training=training,
        noise=None if rng is None else router.draw_noise(rng, 1, cfg),
    )
    return routing


def selected(routing, e=0):
    """Kept expert indices of example e, ascending."""
    return tuple(np.flatnonzero(routing.mask[e]).tolist())


def select_oracle(soft, cfg):
    """Per-example top-k mask and renorm constant: the selection as a loop."""
    n = soft.shape[0]
    if cfg.selective:
        order = np.argsort(-soft, kind="stable")  # stable = lowest index wins ties
        keep = np.sort(order[: cfg.k])
    else:
        keep = np.arange(n)
    mask = np.zeros(n)
    mask[keep] = 1.0
    renorm = 1.0 if cfg.probationary else float((soft * mask).sum())
    return mask, renorm


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def test_route_frozen_example_probationary():
    # zero weights + bias [1, 0]: softmax = [0.73106, 0.26894], keep top-1
    d = route_one(np.zeros(4), *params_for([1.0, 0.0]))
    assert d.weights[0] == pytest.approx([0.73106, 0.0], abs=1e-5)
    assert selected(d) == (0,)


def test_route_frozen_example_renormalized():
    d = route_one(np.zeros(4), *params_for([1.0, 0.0], probationary=False))
    assert d.weights[0] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_route_tie_breaks_to_lowest_index():
    d = route_one(np.zeros(4), *params_for([0.5, 0.5]))
    assert selected(d) == (0,)
    assert d.primary.tolist() == [0]
    for _ in range(5):
        again = route_one(np.zeros(4), *params_for([0.5, 0.5]))
        assert selected(again) == (0,)
    # a whole batch of tied rows, k=2 of 3 tied experts: the two lowest win
    w, b, cfg = params_for([0.5, 0.5, 0.5], k=2)
    _, batch = router.route_batch(np.zeros((4, 4)), ad.const(w), ad.const(b), cfg)
    assert np.array_equal(batch.mask, np.tile([1.0, 1.0, 0.0], (4, 1)))
    assert batch.primary.tolist() == [0, 0, 0, 0]


def test_route_inference_is_bitwise_deterministic():
    rng = np.random.default_rng(0)
    w, b, cfg = rng.normal(size=(3, 6)), rng.normal(size=3), router_cfg(3, k=2)
    mu = rng.normal(size=6)
    first = route_one(mu, w, b, cfg)
    second = route_one(mu, w, b, cfg)
    assert np.array_equal(first.weights, second.weights)
    assert np.array_equal(first.mask, second.mask)


def test_argmax_invariant_under_logit_shift():
    rng = np.random.default_rng(1)
    w, b, cfg = rng.normal(size=(4, 5)), rng.normal(size=4), router_cfg(4, k=2)
    mu = rng.normal(size=5)
    base = selected(route_one(mu, w, b, cfg))
    assert selected(route_one(mu, w, b + 7.5, cfg)) == base


def test_single_expert_all_modes_degenerate():
    for selective in (True, False):
        for probationary in (True, False):
            d = route_one(
                np.zeros(4),
                *params_for([0.3], selective=selective, probationary=probationary),
            )
            assert d.weights[0] == pytest.approx([1.0], abs=0)
            assert selected(d) == (0,)


def test_selective_full_k_equals_non_selective_probationary():
    rng = np.random.default_rng(2)
    w, b = rng.normal(size=(4, 5)), rng.normal(size=4)
    mu = rng.normal(size=5)
    sel = route_one(mu, w, b, router_cfg(4, k=4)).weights
    non = route_one(mu, w, b, router_cfg(4, selective=False)).weights
    assert np.all(np.abs(sel - non) <= 1e-15)


def test_weights_zero_outside_selected_and_counts():
    rng = np.random.default_rng(3)
    w, b = rng.normal(size=(5, 6)), rng.normal(size=5)
    d = route_one(rng.normal(size=6), w, b, router_cfg(5, k=2))
    assert len(selected(d)) == 2
    off = [i for i in range(5) if i not in selected(d)]
    assert np.all(d.weights[0, off] == 0.0)


def test_non_probationary_weights_sum_to_one():
    rng = np.random.default_rng(4)
    w, b = rng.normal(size=(5, 6)), rng.normal(size=5)
    d = route_one(rng.normal(size=6), w, b, router_cfg(5, k=3, probationary=False))
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_training_noise_requires_rng_and_is_neutral_in_mean():
    p = params_for([2.0, -1.0], sigma=0.01)
    with pytest.raises(ConfigError):
        route_one(np.zeros(4), *p, training=True)
    stream = RngStream(77)
    draws = np.array(
        [
            route_one(np.zeros(4), *p, rng=stream.child("noise", i), training=True).noisy_logits[0]
            for i in range(10_000)
        ]
    )
    mean = draws.mean(axis=0)
    b = p[1]
    bound = 3 * 0.01 * np.abs(b) / np.sqrt(10_000)
    assert np.all(np.abs(mean - b) <= bound)


def test_training_noise_std_matches_sigma():
    p = params_for([2.0, -1.0], sigma=0.01)
    stream = RngStream(123)
    eps = []
    for i in range(10_000):
        d = route_one(np.zeros(4), *p, rng=stream.child("noise", i), training=True)
        eps.extend(d.noisy_logits[0] / d.logits[0] - 1.0)
    sd = np.std(eps)
    assert 0.0098 <= sd <= 0.0102


def test_inference_ignores_noise():
    p = params_for([1.0, 0.0], sigma=5.0)
    d = route_one(np.zeros(4), *p, rng=RngStream(0).child("x"), training=False)
    assert np.array_equal(d.noisy_logits, d.logits)


def test_router_params_validation():
    # router settings are checked where the config loads, for both routed kinds
    for kind in ("SMOP", "PT_MOE"):
        for bad, match in (({"k": 3}, "top-k 3"), ({"k": 0}, "top-k 0"), ({"sigma": -0.1}, "sigma")):
            with pytest.raises(ConfigError, match=match):
                cf.from_dict({"method": {"kind": kind, "num_experts": 2, **bad}})
        router_cfg(2, k=2, sigma=0.0)  # the edges are valid


def test_straight_through_forward_matches_decision():
    # the differentiable weight node carries the record's weights
    rng = np.random.default_rng(8)
    mu = rng.normal(size=(3, 6))
    for selective in (True, False):
        for probationary in (True, False):
            w, b = rng.normal(size=(4, 6)), rng.normal(size=4)
            cfg = router_cfg(4, k=2, selective=selective, probationary=probationary)
            wn, routing = router.route_batch(mu, ad.leaf(w, "w"), ad.leaf(b, "b"), cfg)
            assert np.allclose(wn.value, routing.weights, rtol=0, atol=1e-15)


def test_straight_through_unselected_logit_gets_zero_grad():
    # selective k=1: the weight path must not carry gradient to expert 1
    w, b0, cfg = params_for([1.0, 0.0])
    b = ad.leaf(b0.copy(), "b")
    wn, _ = router.route_batch(np.zeros((1, 4)), ad.const(w), b, cfg)
    target = np.array([[1.0, 0.0]])
    loss = ad.sum_all(ad.mul(wn, ad.const(target)))
    grads = ad.backward(loss)
    # d loss / d b = dsoft_0/db; through the mask, entry 1 contributes only
    # via softmax coupling, which is the retained-entry path
    s = softmax(b0)
    expected = np.array([s[0] * (1 - s[0]), -s[0] * s[1]])
    assert np.allclose(grads["b"], expected, atol=1e-12)
    unsel = np.array([[0.0, 1.0]])
    loss2 = ad.sum_all(ad.mul(router.route_batch(np.zeros((1, 4)), ad.const(w), b, cfg)[0], ad.const(unsel)))
    grads2 = ad.backward(loss2)
    assert np.allclose(grads2["b"], 0.0, atol=1e-15)


def test_route_batch_matches_route_per_example():
    # a batch of B rows routes each row as a batch of one would
    rng = np.random.default_rng(5)
    w, b, cfg = rng.normal(size=(3, 6)), rng.normal(size=3), router_cfg(3, k=2)
    mu = rng.normal(size=(4, 6))
    wn, routing = router.route_batch(mu, ad.const(w), ad.const(b), cfg)
    for e in range(4):
        single = route_one(mu[e], w, b, cfg)
        assert np.allclose(wn.value[e], single.weights[0], rtol=0, atol=1e-15)
        assert np.allclose(routing.soft[e], single.soft[0], rtol=0, atol=1e-15)
        assert selected(routing, e) == selected(single)


def test_route_batch_selection_matches_per_example_oracle():
    # random batches with exact ties, all four modes, every k, both phases
    rng = np.random.default_rng(9)
    for trial in range(60):
        n = int(rng.integers(1, 6))
        w = rng.normal(size=(n, 4))
        b = rng.normal(size=n)
        tied = rng.integers(0, n, n)  # copy some experts' rows: exact logit ties
        w, b = w[tied], b[tied]
        b[rng.random(n) < 0.3] = 0.0
        mu = rng.normal(size=(6, 4))
        mu[rng.random(6) < 0.4] = 0.0  # logits == b; zero logits tie under noise too
        training = bool(trial % 2)
        for selective in (True, False):
            for probationary in (True, False):
                for k in range(1, n + 1):
                    cfg = router_cfg(
                        n, sigma=0.5, k=k, selective=selective, probationary=probationary
                    )
                    wn, got = router.route_batch(
                        mu, ad.const(w), ad.const(b), cfg,
                        training=training,
                        noise=router.draw_noise(RngStream(trial).child("noise", k), 6, cfg),
                    )
                    for e in range(mu.shape[0]):
                        mask, renorm = select_oracle(got.soft[e], cfg)
                        assert np.array_equal(got.mask[e], mask)
                        assert np.array_equal(got.renorm[e], [renorm])
                        assert np.array_equal(got.weights[e], got.soft[e] * mask / renorm)
                        assert np.array_equal(wn.value[e], got.soft[e] * (mask / renorm))
                    # a replay reuses the record's selection whatever the mode
                    other = dataclasses.replace(cfg, k=1, selective=not selective)
                    _, again = router.route_batch(
                        mu, ad.const(w), ad.const(b), other,
                        training=training,
                        noise=router.draw_noise(RngStream(trial).child("noise", k), 6, other),
                        forced=got,
                    )
                    assert again.mask is got.mask and again.renorm is got.renorm
                    assert np.array_equal(again.weights, got.weights)


def test_primary_is_top_weighted_expert():
    # expert 1 carries most weight; primary follows weight, not kept index order
    for selective in (True, False):
        for probationary in (True, False):
            p = params_for([0.0, 3.0, 1.0], k=2, selective=selective, probationary=probationary)
            d = route_one(np.zeros(4), *p)
            assert d.primary.tolist() == [1]


def test_route_batch_gradcheck_all_modes():
    rng = np.random.default_rng(6)
    mu = rng.normal(size=(3, 5))
    w0 = rng.normal(size=(4, 5))
    b0 = rng.normal(size=4)
    proj = rng.normal(size=(3, 4))
    for selective in (True, False):
        for probationary in (True, False):
            cfg = router_cfg(4, k=2, selective=selective, probationary=probationary)
            _, frozen = router.route_batch(mu, ad.const(w0), ad.const(b0), cfg)

            def f(v):
                wn, _ = router.route_batch(
                    mu, ad.leaf(v["w"], "w"), ad.leaf(v["b"], "b"), cfg, forced=frozen
                )
                return ad.sum_all(ad.mul(wn, ad.const(proj)))

            err = ad.finite_diff_check(f, {"w": w0, "b": b0}, eps=1e-6)
            assert err <= 1e-5, (selective, probationary, err)


def test_non_selective_probationary_grad_is_plain_softmax_jacobian():
    rng = np.random.default_rng(7)
    mu = rng.normal(size=(1, 5))
    w0 = rng.normal(size=(3, 5))
    b0 = rng.normal(size=3)
    cfg = router_cfg(3, selective=False, probationary=True)
    g_out = rng.normal(size=(1, 3))
    wn, _ = router.route_batch(mu, ad.const(w0), ad.leaf(b0, "b"), cfg)
    grads = ad.backward(ad.sum_all(ad.mul(wn, ad.const(g_out))))
    s = softmax(w0 @ mu[0] + b0)
    jac = np.diag(s) - np.outer(s, s)
    assert np.allclose(grads["b"], jac @ g_out[0], atol=1e-10)


def test_init_router_shapes_and_determinism():
    w1, b1 = router.init_router(3, 8, RngStream(5).child("router"), w_std=0.5)
    w2, b2 = router.init_router(3, 8, RngStream(5).child("router"), w_std=0.5)
    assert w1.shape == (3, 8) and b1.shape == (3,)
    assert np.array_equal(w1, w2)
    assert np.all(b1 == 0.0)
