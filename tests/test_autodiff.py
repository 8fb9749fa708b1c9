import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmoe import autodiff as ad
from promptmoe.errors import GraphError, ShapeError

TOL = 1e-5


def fd(f, params, **kw):
    return ad.finite_diff_check(f, params, **kw)


def proj(node, seed=0):
    # fixed random projection to a scalar so FD probes every output entry
    rng = np.random.default_rng(seed)
    w = rng.normal(size=node.value.shape)
    return ad.sum_all(ad.mul(node, ad.const(w)))


def test_matmul_2d_gradcheck():
    rng = np.random.default_rng(0)
    p = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3, 5))}
    assert fd(lambda v: proj(ad.matmul(ad.leaf(v["a"], "a"), ad.leaf(v["b"], "b"))), p) <= TOL


def test_matmul_batched_times_2d_gradcheck():
    rng = np.random.default_rng(1)
    p = {"a": rng.normal(size=(2, 4, 3)), "b": rng.normal(size=(3, 5))}
    assert fd(lambda v: proj(ad.matmul(ad.leaf(v["a"], "a"), ad.leaf(v["b"], "b"))), p) <= TOL


def test_matmul_4d_gradcheck():
    rng = np.random.default_rng(2)
    p = {"a": rng.normal(size=(2, 2, 3, 4)), "b": rng.normal(size=(2, 2, 4, 3))}
    assert fd(lambda v: proj(ad.matmul(ad.leaf(v["a"], "a"), ad.leaf(v["b"], "b"))), p) <= TOL


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(ad.const(np.zeros((2, 3))), ad.const(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(ad.const(np.zeros(3)), ad.const(np.zeros((3, 2))))


def test_row_matmul_gradcheck():
    rng = np.random.default_rng(3)
    p = {"a": rng.normal(size=(5, 4)), "b": rng.normal(size=(4, 3))}
    assert fd(lambda v: proj(ad.row_matmul(ad.leaf(v["a"], "a"), ad.leaf(v["b"], "b"))), p) <= TOL
    with pytest.raises(ShapeError):
        ad.row_matmul(ad.const(np.zeros((2, 3))), ad.const(np.zeros((4, 2))))


def test_row_matmul_rows_do_not_depend_on_the_row_count():
    # every row slice's product is bit for bit the same rows of the whole product
    rng = np.random.default_rng(4)
    for h, n in ((16, 2), (64, 2), (64, 8), (256, 3)):
        a, b = rng.normal(size=(16, h)), rng.normal(size=(h, n))
        whole = ad.row_matmul(a, b).value
        np.testing.assert_allclose(whole, a @ b, rtol=1e-12, atol=1e-12)
        for lo in range(16):
            for hi in range(lo + 1, 17):
                assert np.array_equal(ad.row_matmul(a[lo:hi], b).value, whole[lo:hi]), (h, n, lo, hi)


def test_add_mul_broadcast_gradcheck():
    rng = np.random.default_rng(3)
    p = {"x": rng.normal(size=(2, 4, 5)), "b": rng.normal(size=(5,)), "s": rng.normal(size=(4, 1))}

    def f(v):
        y = ad.add(ad.leaf(v["x"], "x"), ad.leaf(v["b"], "b"))
        return proj(ad.mul(y, ad.leaf(v["s"], "s")))

    assert fd(f, p) <= TOL


def test_softmax_gradcheck():
    rng = np.random.default_rng(4)
    p = {"x": rng.normal(size=(3, 7)) * 2}
    assert fd(lambda v: proj(ad.softmax(ad.leaf(v["x"], "x"))), p) <= TOL


def test_softmax_frozen_pair():
    out = ad.softmax(np.array([1.0, 0.0])).value
    assert out == pytest.approx([0.7310585786300049, 0.2689414213699951], abs=1e-15)


def test_softmax_handles_large_values():
    out = ad.softmax(np.array([1000.0, 999.0])).value
    assert np.isfinite(out).all()
    assert out.sum() == pytest.approx(1.0)


def test_masked_softmax_gradcheck():
    rng = np.random.default_rng(5)
    valid = (rng.random((3, 7)) > 0.3).astype(float)
    valid[:, 0] = 1.0
    p = {"x": rng.normal(size=(3, 7))}
    assert fd(lambda v: proj(ad.masked_softmax(ad.leaf(v["x"], "x"), valid)), p) <= TOL


def test_layernorm_gradcheck():
    rng = np.random.default_rng(6)
    p = {
        "x": rng.normal(size=(2, 3, 8)),
        "g": 1.0 + 0.1 * rng.normal(size=(8,)),
        "b": 0.1 * rng.normal(size=(8,)),
    }

    def f(v):
        return proj(ad.layernorm(ad.leaf(v["x"], "x"), ad.leaf(v["g"], "g"), ad.leaf(v["b"], "b")))

    assert fd(f, p) <= TOL


def test_gelu_gradcheck():
    rng = np.random.default_rng(7)
    p = {"x": rng.normal(size=(4, 6)) * 2}
    assert fd(lambda v: proj(ad.gelu(ad.leaf(v["x"], "x"))), p) <= TOL


def test_rotate_half_matches_rotation_matrix():
    # the rotary q/k rotation as the (dh, dh) matmul it replaced
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 5, 8))
    x[0, 0, 0] = 0.0
    d2 = x.shape[-1] // 2
    rot = np.zeros((2 * d2, 2 * d2))
    rot[np.arange(d2) + d2, np.arange(d2)] = -1.0
    rot[np.arange(d2), np.arange(d2) + d2] = 1.0
    assert np.array_equal(ad.rotate_half(x).value, x @ rot)
    with pytest.raises(ShapeError):
        ad.rotate_half(np.zeros((2, 3)))


def test_rotate_half_gradcheck():
    rng = np.random.default_rng(13)
    p = {"x": rng.normal(size=(2, 3, 6))}
    assert fd(lambda v: proj(ad.rotate_half(ad.leaf(v["x"], "x"))), p) <= TOL


def test_concat_gradcheck():
    rng = np.random.default_rng(9)
    p = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 2, 4))}

    def f(v):
        return proj(ad.concat([ad.leaf(v["a"], "a"), ad.leaf(v["b"], "b")], axis=1))

    assert fd(f, p) <= TOL


def test_embedding_gradcheck():
    rng = np.random.default_rng(10)
    ids = rng.integers(0, 6, size=(2, 5))
    p = {"table": rng.normal(size=(6, 4))}
    assert fd(lambda v: proj(ad.embedding(ad.leaf(v["table"], "table"), ids)), p) <= TOL


def test_embedding_repeated_ids_accumulate():
    table = ad.leaf(np.zeros((3, 2)), "t")
    out = ad.embedding(table, np.array([1, 1, 1]))
    grads = ad.backward(ad.sum_all(out))
    assert np.array_equal(grads["t"], [[0, 0], [3, 3], [0, 0]])


@pytest.mark.parametrize("trailing", [(4, 3), (2, 3, 2)])
def test_take_rows_gradcheck(trailing):
    rng = np.random.default_rng(12)
    idx = np.array([[4, 0, 2], [1, 3, 5]])  # unsorted rows, unique per example
    p = {"x": rng.normal(size=(2, 6) + trailing)}
    assert fd(lambda v: proj(ad.take_rows(ad.leaf(v["x"], "x"), idx)), p) <= TOL


def test_take_rows_gathers_and_scatters_per_example():
    x = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    idx = np.array([[3, 1], [0, 2]])
    node = ad.take_rows(ad.leaf(x, "x"), idx)
    assert np.array_equal(node.value, np.stack([x[0, [3, 1]], x[1, [0, 2]]]))
    g = np.arange(1.0, 13.0).reshape(2, 2, 3)
    (dx,) = node.vjp(g)
    want = np.zeros_like(x)
    want[0, [3, 1]] = g[0]
    want[1, [0, 2]] = g[1]
    assert np.array_equal(dx, want)


def test_take_rows_rejects_bad_indices():
    x = ad.const(np.zeros((2, 4, 3)))
    for bad in ([[0, 4], [1, 2]], [[0, 1]], [[1, 1], [0, 2]], [0, 1]):
        with pytest.raises(ShapeError):
            ad.take_rows(x, np.array(bad))


def test_expert_mix_gradcheck():
    rng = np.random.default_rng(11)
    p = {"w": rng.normal(size=(3, 4)), "a": rng.normal(size=(4, 2, 5))}
    assert fd(lambda v: proj(ad.expert_mix(ad.leaf(v["w"], "w"), ad.leaf(v["a"], "a"))), p) <= TOL


def test_expert_mix_one_hot_selects_single_expert():
    stack = np.arange(24, dtype=float).reshape(3, 2, 4)
    w = np.array([[0.0, 1.0, 0.0]])
    out = ad.expert_mix(ad.const(w), ad.const(stack))
    assert np.array_equal(out.value[0], stack[1])


def test_masked_nll_gradcheck():
    rng = np.random.default_rng(12)
    targets = rng.integers(0, 9, size=(2, 4))
    mask = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0]])
    p = {"lg": rng.normal(size=(2, 4, 9))}

    def f(v):
        loss, _ = ad.masked_nll(ad.leaf(v["lg"], "lg"), targets, mask)
        return loss

    assert fd(f, p) <= TOL


def test_masked_nll_count_and_empty_mask():
    logits = ad.const(np.zeros((1, 3, 5)))
    loss, count = ad.masked_nll(logits, np.zeros((1, 3), dtype=int), np.zeros((1, 3)))
    assert loss.value == 0.0
    assert count == 0


def test_masked_nll_rule_lets_go_of_dlogits_once_run():
    logits = ad.leaf(np.zeros((1, 2, 4)), "lg")
    loss, _ = ad.masked_nll(logits, np.array([[0, 3]]), np.ones((1, 2)))
    want = np.array([[[-0.75, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, -0.75]]])
    assert np.array_equal(ad.backward(loss)["lg"], want)
    with pytest.raises(GraphError, match="runs backward once"):
        ad.backward(loss)


def test_masked_nll_rejects_out_of_range_targets():
    with pytest.raises(ShapeError):
        ad.masked_nll(ad.const(np.zeros((1, 2, 4))), np.array([[0, 4]]), np.ones((1, 2)))


def test_const_blocks_gradient_exactly():
    x = ad.leaf(np.array([1.0, 2.0]), "x")
    y = ad.mul(ad.const(x.value), x)  # d/dx should see only the second factor
    grads = ad.backward(ad.sum_all(y))
    assert np.array_equal(grads["x"], [1.0, 2.0])


def test_ops_on_constants_record_no_graph():
    a, b = ad.const(np.ones((2, 3))), ad.const(np.ones((3, 2)))
    out = ad.gelu(ad.add(ad.matmul(a, b), 1.0))
    assert not out.active and out.parents == () and out.vjp is None
    assert out.record is a.record is ad.CONST  # every constant shares one record
    rows = ad.take_rows(out, np.array([[1], [0]]))
    assert not rows.active and rows.parents == () and rows.vjp is None
    x = ad.leaf(np.ones((2, 3)), "x")
    mixed = ad.matmul(x, b)
    assert mixed.active and mixed.parents == (x.record, ad.CONST)
    grads = ad.backward(ad.sum_all(mixed))
    assert np.array_equal(grads["x"], np.full((2, 3), 2.0)) and x.grad is grads["x"]
    assert b.grad is None and ad.CONST.grad is None  # the constant operand gets no adjoint


def traced_peak(fn):
    """The peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def graph_records(loss):
    """``loss`` and every record reachable from it through ``.parents``, constants included."""
    seen, todo, out = set(), [loss], []
    while todo:
        rec = todo.pop()
        if id(rec) not in seen:
            seen.add(id(rec))
            out.append(rec)
            todo.extend(rec.parents)
    return out


def snapshot_adjoints(loss):
    """Wrap every backward rule under ``loss`` to keep the adjoint it receives.

    Returns {record: (adjoint, copy taken on receipt)}; after ``backward``
    each adjoint must still equal its copy, i.e. nothing wrote into it.
    """
    received = {}
    for rec in graph_records(loss):
        if rec.vjp is not None:
            def snap(g, rec=rec, rule=rec.vjp):
                received[rec] = (g, g.copy())
                return rule(g)

            rec.vjp = snap
    return received


def assert_adjoints_unwritten(received, loss):
    assert len(received) == sum(bool(rec.parents) for rec in graph_records(loss))  # every rule ran
    for g, seen in received.values():
        assert np.array_equal(g, seen)


def test_fanout_into_view_adjoint_accumulates_out_of_place():
    # reverse topological order reaches x through reshape first, so x's first
    # adjoint is a view of the adjoint reshape received; the mul contributions
    # must not write into it
    x0 = np.arange(6.0).reshape(2, 3)
    w = np.arange(6.0).reshape(3, 2) + 1.0
    x = ad.leaf(x0, "x")
    r = ad.reshape(x, (3, 2))
    loss = ad.add(ad.sum_all(ad.mul(r, ad.const(w))), ad.sum_all(ad.mul(x, x)))
    received = snapshot_adjoints(loss)
    grads = ad.backward(loss)
    assert np.array_equal(grads["x"], w.reshape(2, 3) + 2.0 * x0)
    assert np.array_equal(received[r.record][0], w)
    assert_adjoints_unwritten(received, loss)
    assert r.grad is None and x.grad is grads["x"]


def test_three_way_fanout_into_view_accumulates_in_place_only_into_its_own_sum():
    # x's first adjoint is a view of the adjoint reshape received; the second
    # allocates a sum and the third is added into that sum, so no adjoint
    # handed to a rule is ever written
    x0 = np.arange(6.0).reshape(2, 3)
    w = np.arange(6.0).reshape(3, 2) + 1.0
    x = ad.leaf(x0, "x")
    r = ad.reshape(x, (3, 2))
    sq = ad.mul(x, x)
    lin = ad.scale(x, 3.0)
    loss = ad.add(
        ad.add(ad.sum_all(ad.mul(r, ad.const(w))), ad.sum_all(sq)), ad.sum_all(lin)
    )
    received = snapshot_adjoints(loss)
    grads = ad.backward(loss)
    assert np.array_equal(grads["x"], w.reshape(2, 3) + 2.0 * x0 + 3.0)
    assert np.array_equal(received[r.record][0], w)
    assert np.array_equal(received[sq.record][0], np.ones((2, 3)))
    assert np.array_equal(received[lin.record][0], np.ones((2, 3)))
    assert_adjoints_unwritten(received, loss)
    assert not any(np.shares_memory(grads["x"], g) for g, _ in received.values())


def test_model_shaped_graph_writes_into_no_received_adjoint():
    # fan-out through views (transpose, reshape, concat, add) in one graph
    rng = np.random.default_rng(40)
    x = ad.leaf(rng.normal(size=(2, 3, 4)), "x")
    w = ad.leaf(rng.normal(size=(4, 4)), "w")
    h = ad.matmul(x, w)
    t = ad.transpose(h, (0, 2, 1))
    both = ad.concat([ad.reshape(t, (2, 3, 4)), h], axis=1)
    y = ad.add(ad.layernorm(both, np.ones(4), np.zeros(4)), ad.gelu(both))
    loss = ad.add(proj(y), proj(ad.add(x, h), seed=1))
    received = snapshot_adjoints(loss)
    grads = ad.backward(loss)
    assert set(grads) == {"x", "w"}
    assert_adjoints_unwritten(received, loss)
    assert len(received) >= 12


# ---- what the graph keeps ----------------------------------------------------


def active_input(shape, seed):
    """A leaf and an active intermediate whose array only its Node holds."""
    rng = np.random.default_rng(seed)
    p = ad.leaf(rng.normal(size=shape), "p")
    return p, ad.mul(p, ad.const(rng.normal(size=shape)))


@pytest.mark.parametrize(
    "op",
    [
        lambda x: ad.matmul(x, ad.const(np.ones((4, 5)))),  # a frozen weight
        lambda x: ad.add(x, ad.const(np.ones(4))),  # a frozen bias
        lambda x: ad.scale(x, 0.5),
    ],
    ids=["matmul", "add", "scale"],
)
def test_rule_that_does_not_read_an_input_frees_it(op):
    p, x = active_input((3, 4), seed=41)
    ref = weakref.ref(x.value)
    y = op(x)
    del x
    gc.collect()
    assert ref() is None
    grads = ad.backward(ad.sum_all(y))  # the graph still runs without it
    assert grads["p"].shape == (3, 4)


def test_matmul_with_an_active_weight_keeps_its_input():
    p, x = active_input((3, 4), seed=42)
    ref = weakref.ref(x.value)
    w = ad.leaf(np.ones((4, 5)), "w")
    y = ad.matmul(x, w)
    want_dw = np.ones((3, 5)).T @ x.value
    del x
    gc.collect()
    assert ref() is not None  # dW = x^T g reads it
    grads = ad.backward(ad.sum_all(y))
    assert np.array_equal(grads["w"], want_dw.T)


def test_backward_keeps_adjoints_on_named_leaves_only():
    rng = np.random.default_rng(43)
    x = ad.leaf(rng.normal(size=(2, 3, 4)), "x")
    w = ad.leaf(rng.normal(size=(4, 4)), "w")
    h = ad.gelu(ad.matmul(x, w))
    loss = proj(ad.add(ad.layernorm(h, np.ones(4), np.zeros(4)), x))
    grads = ad.backward(loss)
    records = graph_records(loss)
    assert sum(rec.name is None and rec.active for rec in records) >= 5
    for rec in records:
        if rec.name is None:
            assert rec.grad is None, rec
        else:
            assert rec.grad is grads[rec.name]


def test_backward_drops_every_rule_it_ran():
    rng = np.random.default_rng(44)
    x = ad.leaf(rng.normal(size=(2, 3, 4)), "x")
    w = ad.leaf(rng.normal(size=(4, 5)), "w")
    h = ad.gelu(ad.matmul(ad.layernorm(x, np.ones(4), np.zeros(4)), w))
    loss, _ = ad.masked_nll(h, rng.integers(0, 5, (2, 3)), np.ones((2, 3)))
    records = graph_records(loss)
    assert sum(rec.vjp is not None for rec in records) >= 4
    ad.backward(loss)
    assert all(rec.vjp is None for rec in records)  # and with them their saved arrays
    with pytest.raises(GraphError, match="its backward already ran"):
        ad.backward(loss)


def test_constant_loss_writes_nothing_into_the_shared_record():
    loss = ad.sum_all(ad.mul(ad.const(np.ones(3)), 2.0))
    assert loss.record is ad.CONST
    assert ad.backward(loss) == {}
    assert ad.CONST.grad is None and ad.CONST.vjp is None and ad.CONST.parents == ()


def test_tracer_interface_reassigned_rule_and_parent_walk():
    # a profiler wraps each op's rule after the op returns and walks .parents
    # from the loss; backward must call the rule that was assigned last
    rng = np.random.default_rng(44)
    w = ad.leaf(rng.normal(size=(4, 3)), "w")
    b = ad.leaf(rng.normal(size=3), "b")
    h = ad.add(ad.matmul(ad.const(rng.normal(size=(2, 4))), w), b)
    rule, calls = h.vjp, []

    def traced(g):
        calls.append(g.shape)
        return rule(g)

    h.vjp = traced
    assert h.vjp is traced
    frozen = ad.gelu(ad.const(np.ones(3)))
    frozen.vjp = traced  # a constant has no rule; the shared record is untouched
    assert frozen.vjp is None and ad.CONST.vjp is None
    loss = proj(ad.gelu(h))
    grads = ad.backward(loss)
    assert calls == [(2, 3)]
    names, seen, todo = set(), set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.name is not None:
                names.add(node.name)
                assert node.grad is grads[node.name]
            todo.extend(node.parents)
    assert names == set(grads) == {"w", "b"}


def test_quadratic_gradient_is_identity():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    x = ad.leaf(a, "a")
    loss = ad.scale(ad.sum_all(ad.mul(x, x)), 0.5)
    grads = ad.backward(loss)
    assert np.allclose(grads["a"], a, atol=1e-15)


def test_disconnected_parameter_gets_no_gradient():
    x = ad.leaf(np.ones(3), "x")
    z = ad.leaf(np.ones(3), "z")
    grads = ad.backward(ad.sum_all(ad.mul(x, x)))
    assert "z" not in grads
    assert z.grad is None


def test_backward_rejects_non_scalar_loss():
    x = ad.leaf(np.ones((2, 2)), "x")
    with pytest.raises(ShapeError):
        ad.backward(ad.mul(x, x))


def test_backward_rejects_detached_graph():
    x = ad.leaf(np.ones(2), "x")
    y = ad.sum_all(x)
    y.vjp = None
    with pytest.raises(GraphError):
        ad.backward(y)


def test_fanout_accumulates_adjoints():
    x = ad.leaf(np.array(3.0), "x")
    y = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2, dy/dx = 4x
    grads = ad.backward(y)
    assert grads["x"] == pytest.approx(12.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 10**6))
def test_gradient_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(3, 3))
    w1 = rng.normal(size=(3, 3))
    w2 = rng.normal(size=(3, 3))

    def grad_of(alpha, beta):
        x = ad.leaf(x0, "x")
        f = ad.sum_all(ad.gelu(ad.matmul(x, ad.const(w1))))
        g = ad.sum_all(ad.softmax(ad.matmul(x, ad.const(w2))))
        return ad.backward(ad.add(ad.scale(f, alpha), ad.scale(g, beta)))["x"]

    combined = grad_of(a, b)
    separate = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    assert np.allclose(combined, separate, atol=1e-10)


def test_finite_diff_check_simple_square():
    # f(x) = x^2 at x=3: both gradient routes give 6
    def f(v):
        x = ad.leaf(v["x"], "x")
        return ad.sum_all(ad.mul(x, x))

    err = ad.finite_diff_check(f, {"x": np.array([3.0])}, eps=1e-6)
    assert err <= 1e-7


def test_finite_diff_check_constant_function():
    def f(v):
        x = ad.leaf(v["x"], "x")
        return ad.sum_all(ad.mul(x, ad.const(np.zeros(4))))

    assert ad.finite_diff_check(f, {"x": np.ones(4)}) <= 1e-12


# ---------------------------------------------------------------- oracles
#
# The formulas gelu, layernorm and masked_softmax had before they became
# copy-free and in place. The rewrite keeps every floating-point operation
# and its order, so forward values and adjoints must be bitwise equal.

_C = np.sqrt(2.0 / np.pi)


def oracle_gelu(v, g):
    inner = _C * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    out = 0.5 * v * (1.0 + t)
    dinner = _C * (1.0 + 3 * 0.044715 * (v * v))
    dv = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * dinner
    return out, g * dv


def oracle_layernorm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    gdot = g * gain
    dx = inv * (
        gdot
        - gdot.mean(axis=-1, keepdims=True)
        - xhat * (gdot * xhat).mean(axis=-1, keepdims=True)
    )
    dgain, dbias = g * xhat, g
    while dgain.ndim > 1:  # _unbroadcast's order: sum out leading axes one at a time
        dgain, dbias = dgain.sum(axis=0), dbias.sum(axis=0)
    return out, dx, dgain, dbias


def oracle_masked_softmax_vjp(s, g):
    dot = (g * s).sum(axis=-1, keepdims=True)
    return s * (g - dot)


def _softmax_last(x):
    """The unmasked softmax ``ad.softmax`` had before it became ``masked_softmax(a, True)``."""
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def op_inputs(seed):
    """Random inputs with outliers, and a non-contiguous view of them."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5, 8)) * 3
    x[0, 0, :2] = [40.0, -40.0]  # tanh saturates, variance is large
    return [x, x.transpose(1, 0, 2)]


def test_gelu_matches_pre_change_oracle():
    # a dense sweep too: a reordered product changes the last bit only now and then
    sweep = np.random.default_rng(30).uniform(-8.0, 8.0, size=(100, 200))
    for x in op_inputs(31) + [sweep]:
        g = np.random.default_rng(32).normal(size=x.shape)
        node = ad.gelu(ad.leaf(x, "x"))
        want_out, want_dx = oracle_gelu(x, g)
        assert np.array_equal(node.value, want_out)
        assert np.array_equal(node.vjp(g)[0], want_dx)


def test_layernorm_matches_pre_change_oracle():
    rng = np.random.default_rng(33)
    gain, bias = 1.0 + 0.1 * rng.normal(size=8), 0.1 * rng.normal(size=8)
    for x in op_inputs(34) + [np.full((2, 8), 7.0)]:  # constant rows: var = 0
        g = rng.normal(size=x.shape)
        node = ad.layernorm(ad.leaf(x, "x"), ad.leaf(gain, "g"), ad.leaf(bias, "b"))
        want_out, want_dx, want_dg, want_db = oracle_layernorm(x, gain, bias, g)
        dx, dg, db = node.vjp(g)
        assert np.array_equal(node.value, want_out)
        assert np.array_equal(dx, want_dx)
        assert np.array_equal(dg, want_dg)
        assert np.array_equal(db, want_db)


def test_masked_softmax_vjp_matches_pre_change_oracle():
    rng = np.random.default_rng(35)
    scores = rng.normal(size=(3, 2, 5, 7)) * 4
    allow = np.tri(5, 7, 2, dtype=bool) & (rng.random((3, 1, 1, 7)) > 0.3)
    allow[1, 0, 2] = False  # an all-masked row
    for x in (scores, scores.transpose(0, 1, 3, 2)[..., :5]):
        valid = allow if x is scores else np.tri(7, 5, dtype=bool)
        node = ad.masked_softmax(ad.leaf(x, "x"), valid)
        g = rng.normal(size=x.shape)
        assert np.array_equal(node.vjp(g)[0], oracle_masked_softmax_vjp(node.value, g))


def test_softmax_matches_pre_change_oracle():
    # its VJP was the formula of oracle_masked_softmax_vjp
    rng = np.random.default_rng(37)
    for scale in (1e-3, 1.0, 8.0, 50.0):
        for _ in range(50):
            shape = (int(rng.integers(1, 65)), int(rng.integers(1, 9)))
            x = rng.normal(size=shape) * scale
            g = rng.normal(size=shape)
            node = ad.softmax(ad.leaf(x, "x"))
            assert np.array_equal(node.value, _softmax_last(x))
            assert np.array_equal(node.vjp(g)[0], oracle_masked_softmax_vjp(_softmax_last(x), g))


def test_ops_write_into_no_input_and_no_adjoint():
    rng = np.random.default_rng(36)
    x = rng.normal(size=(4, 3, 8)) * 2
    gain, bias = 1.0 + 0.1 * rng.normal(size=8), 0.1 * rng.normal(size=8)
    w = rng.normal(size=(8, 5))
    valid = np.tri(3, 8, 5, dtype=bool)[None]
    targets = rng.integers(0, 8, size=(4, 3))
    mask = (rng.random((4, 3)) > 0.3).astype(np.float64)
    cases = {
        "gelu": lambda a: ad.gelu(a[0]),
        "layernorm": lambda a: ad.layernorm(a[0], a[1], a[2]),
        "masked_softmax": lambda a: ad.masked_softmax(a[0], valid),
        "masked_nll": lambda a: ad.masked_nll(a[0], targets, mask)[0],
        "rotate_half": lambda a: ad.rotate_half(a[0]),
        "matmul": lambda a: ad.matmul(a[4], a[3]),  # the one-gemm (b, 1, h) path
        "take_rows": lambda a: ad.take_rows(a[0], np.array([[2, 0], [1, 2], [0, 1], [2, 1]])),
    }
    values = (x, gain, bias, w, x[:, :1].copy())
    for name, op in cases.items():
        leaves = [ad.leaf(v.copy(), f"p{i}") for i, v in enumerate(values)]
        out = op(leaves)
        g = rng.normal(size=out.value.shape)
        g_before = g.copy()
        parts = out.vjp(g)
        assert any(p is not None for p in parts), name
        for leaf, v in zip(leaves, values):
            assert np.array_equal(leaf.value, v), name
        assert np.array_equal(g, g_before), name
