import numpy as np
import pytest

from promptmoe import autodiff as ad
from promptmoe import router
from promptmoe.errors import ConfigError
from promptmoe.linalg import RngStream


def params_for(logit_bias, sigma=0.0, k=1, selective=True, probationary=True):
    n = len(logit_bias)
    return router.RouterParams(
        w=np.zeros((n, 4)),
        b=np.array(logit_bias, dtype=float),
        sigma=sigma,
        k=k,
        selective=selective,
        probationary=probationary,
    )


def route_one(mu, params, rng=None, training=False):
    """``route_batch`` on a single example (B=1); returns its decision."""
    _, decisions = router.route_batch(
        np.asarray(mu, dtype=float)[None],
        ad.const(params.w),
        ad.const(params.b),
        params,
        rng=rng,
        training=training,
    )
    return decisions[0]


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def test_route_frozen_example_probationary():
    # zero weights + bias [1, 0]: softmax = [0.73106, 0.26894], keep top-1
    d = route_one(np.zeros(4), params_for([1.0, 0.0]))
    assert d.weights == pytest.approx([0.73106, 0.0], abs=1e-5)
    assert d.selected == (0,)


def test_route_frozen_example_renormalized():
    d = route_one(np.zeros(4), params_for([1.0, 0.0], probationary=False))
    assert d.weights == pytest.approx([1.0, 0.0], abs=1e-12)


def test_route_tie_breaks_to_lowest_index():
    d = route_one(np.zeros(4), params_for([0.5, 0.5]))
    assert d.selected == (0,)
    for _ in range(5):
        again = route_one(np.zeros(4), params_for([0.5, 0.5]))
        assert again.selected == (0,)


def test_route_inference_is_bitwise_deterministic():
    rng = np.random.default_rng(0)
    p = router.RouterParams(w=rng.normal(size=(3, 6)), b=rng.normal(size=3), k=2)
    mu = rng.normal(size=6)
    first = route_one(mu, p)
    second = route_one(mu, p)
    assert np.array_equal(first.weights, second.weights)
    assert first.selected == second.selected


def test_argmax_invariant_under_logit_shift():
    rng = np.random.default_rng(1)
    p = router.RouterParams(w=rng.normal(size=(4, 5)), b=rng.normal(size=4), k=2)
    mu = rng.normal(size=5)
    base = route_one(mu, p).selected
    shifted = router.RouterParams(w=p.w, b=p.b + 7.5, k=2)
    assert route_one(mu, shifted).selected == base


def test_single_expert_all_modes_degenerate():
    for selective in (True, False):
        for probationary in (True, False):
            d = route_one(
                np.zeros(4),
                params_for([0.3], selective=selective, probationary=probationary),
            )
            assert d.weights == pytest.approx([1.0], abs=0)
            assert d.selected == (0,)


def test_selective_full_k_equals_non_selective_probationary():
    rng = np.random.default_rng(2)
    p_sel = router.RouterParams(w=rng.normal(size=(4, 5)), b=rng.normal(size=4), k=4)
    p_non = router.RouterParams(w=p_sel.w, b=p_sel.b, selective=False)
    mu = rng.normal(size=5)
    a = route_one(mu, p_sel).weights
    b = route_one(mu, p_non).weights
    assert np.all(np.abs(a - b) <= 1e-15)


def test_weights_zero_outside_selected_and_counts():
    rng = np.random.default_rng(3)
    p = router.RouterParams(w=rng.normal(size=(5, 6)), b=rng.normal(size=5), k=2)
    d = route_one(rng.normal(size=6), p)
    assert len(d.selected) == 2
    off = [i for i in range(5) if i not in d.selected]
    assert np.all(d.weights[off] == 0.0)


def test_non_probationary_weights_sum_to_one():
    rng = np.random.default_rng(4)
    p = router.RouterParams(
        w=rng.normal(size=(5, 6)), b=rng.normal(size=5), k=3, probationary=False
    )
    d = route_one(rng.normal(size=6), p)
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_training_noise_requires_rng_and_is_neutral_in_mean():
    p = params_for([2.0, -1.0], sigma=0.01)
    with pytest.raises(ConfigError):
        route_one(np.zeros(4), p, training=True)
    stream = RngStream(77)
    draws = np.array(
        [
            route_one(np.zeros(4), p, rng=stream.child("noise", i), training=True).noisy_logits
            for i in range(10_000)
        ]
    )
    mean = draws.mean(axis=0)
    bound = 3 * 0.01 * np.abs(p.b) / np.sqrt(10_000)
    assert np.all(np.abs(mean - p.b) <= bound)


def test_training_noise_std_matches_sigma():
    p = params_for([2.0, -1.0], sigma=0.01)
    stream = RngStream(123)
    eps = []
    for i in range(10_000):
        d = route_one(np.zeros(4), p, rng=stream.child("noise", i), training=True)
        eps.extend(d.noisy_logits / d.logits - 1.0)
    sd = np.std(eps)
    assert 0.0098 <= sd <= 0.0102


def test_inference_ignores_noise():
    p = params_for([1.0, 0.0], sigma=5.0)
    d = route_one(np.zeros(4), p, rng=RngStream(0).child("x"), training=False)
    assert np.array_equal(d.noisy_logits, d.logits)


def test_router_params_validation():
    with pytest.raises(ConfigError):
        router.RouterParams(w=np.zeros((2, 4)), b=np.zeros(2), k=3)
    with pytest.raises(ConfigError):
        router.RouterParams(w=np.zeros((2, 4)), b=np.zeros(2), sigma=-0.1)
    with pytest.raises(ConfigError):
        router.RouterParams(w=np.zeros((2, 4)), b=np.zeros(3))


def test_straight_through_forward_matches_decision():
    # the differentiable weight node carries exactly the decisions' weights
    rng = np.random.default_rng(8)
    mu = rng.normal(size=(3, 6))
    for selective in (True, False):
        for probationary in (True, False):
            p = router.RouterParams(
                w=rng.normal(size=(4, 6)), b=rng.normal(size=4), k=2,
                selective=selective, probationary=probationary,
            )
            wn, decisions = router.route_batch(mu, ad.leaf(p.w, "w"), ad.leaf(p.b, "b"), p)
            for e, d in enumerate(decisions):
                assert np.allclose(wn.value[e], d.weights, rtol=0, atol=1e-15)


def test_straight_through_unselected_logit_gets_zero_grad():
    # selective k=1: the weight path must not carry gradient to expert 1
    p = params_for([1.0, 0.0])
    b = ad.leaf(p.b.copy(), "b")
    wn, decisions = router.route_batch(np.zeros((1, 4)), ad.const(p.w), b, p)
    target = np.array([[1.0, 0.0]])
    loss = ad.sum_all(ad.mul(wn, ad.const(target)))
    grads = ad.backward(loss)
    # d loss / d b = dsoft_0/db; through the mask, entry 1 contributes only
    # via softmax coupling, which is the retained-entry path
    s = softmax(p.b)
    expected = np.array([s[0] * (1 - s[0]), -s[0] * s[1]])
    assert np.allclose(grads["b"], expected, atol=1e-12)
    unsel = np.array([[0.0, 1.0]])
    loss2 = ad.sum_all(ad.mul(router.route_batch(np.zeros((1, 4)), ad.const(p.w), b, p)[0], ad.const(unsel)))
    grads2 = ad.backward(loss2)
    assert np.allclose(grads2["b"], 0.0, atol=1e-15)


def test_route_batch_matches_route_per_example():
    # a batch of B rows routes each row as a batch of one would
    rng = np.random.default_rng(5)
    p = router.RouterParams(w=rng.normal(size=(3, 6)), b=rng.normal(size=3), k=2)
    mu = rng.normal(size=(4, 6))
    wn, decisions = router.route_batch(mu, ad.const(p.w), ad.const(p.b), p)
    for e in range(4):
        single = route_one(mu[e], p)
        assert np.allclose(wn.value[e], single.weights, rtol=0, atol=1e-15)
        assert np.allclose(decisions[e].soft, single.soft, rtol=0, atol=1e-15)
        assert decisions[e].selected == single.selected


def test_route_batch_gradcheck_all_modes():
    rng = np.random.default_rng(6)
    mu = rng.normal(size=(3, 5))
    w0 = rng.normal(size=(4, 5))
    b0 = rng.normal(size=4)
    proj = rng.normal(size=(3, 4))
    for selective in (True, False):
        for probationary in (True, False):
            p = router.RouterParams(
                w=w0, b=b0, k=2, selective=selective, probationary=probationary
            )
            _, frozen = router.route_batch(mu, ad.const(w0), ad.const(b0), p)

            def f(v):
                wn, _ = router.route_batch(
                    mu, ad.leaf(v["w"], "w"), ad.leaf(v["b"], "b"), p, forced=frozen
                )
                return ad.sum_all(ad.mul(wn, ad.const(proj)))

            err = ad.finite_diff_check(f, {"w": w0, "b": b0}, eps=1e-6)
            assert err <= 1e-5, (selective, probationary, err)


def test_non_selective_probationary_grad_is_plain_softmax_jacobian():
    rng = np.random.default_rng(7)
    mu = rng.normal(size=(1, 5))
    w0 = rng.normal(size=(3, 5))
    b0 = rng.normal(size=3)
    p = router.RouterParams(w=w0, b=b0, selective=False, probationary=True)
    g_out = rng.normal(size=(1, 3))
    wn, _ = router.route_batch(mu, ad.const(w0), ad.leaf(b0, "b"), p)
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
