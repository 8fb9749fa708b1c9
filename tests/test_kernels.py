import numpy as np
import pytest

from promptmoe import kernels


# One implementation; the "numpy" id keeps the test ids the two-backend
# suite used.
@pytest.fixture(params=[kernels], ids=["numpy"])
def impl(request):
    return request.param


def test_backend_dispatch_is_consistent():
    assert kernels.active_backend() == "numpy"


def test_masked_softmax_rows_sum_to_one(impl):
    rng = np.random.default_rng(7)
    scores = rng.normal(size=(6, 9))
    valid = (rng.random((6, 9)) > 0.4).astype(np.float64)
    valid[0] = 1.0
    valid[5] = 0.0
    p = impl.masked_softmax(scores, valid)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1)[:5], 1.0, atol=1e-12)
    # fully masked row degrades to zeros, not NaN
    assert np.all(p[5] == 0.0)
    # invalid positions carry no mass
    assert np.all(p[valid == 0.0] == 0.0)


def test_masked_softmax_ignores_masked_outliers(impl):
    # a masked score far above the valid max must not overflow into NaN
    with np.errstate(all="raise"):
        p = impl.masked_softmax(np.array([[0.0, 1000.0]]), np.array([[1.0, 0.0]]))
    assert p.tolist() == [[1.0, 0.0]]


def test_masked_softmax_matches_plain_softmax_when_all_valid(impl):
    scores = np.array([[1.0, 0.0]])
    p = impl.masked_softmax(scores, np.ones_like(scores))
    assert np.allclose(p, [[0.7310585786300049, 0.2689414213699951]], atol=1e-15)


def test_masked_softmax_invariant_to_row_shift(impl):
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(4, 7))
    valid = np.ones_like(scores)
    p1 = impl.masked_softmax(scores, valid)
    p2 = impl.masked_softmax(scores + 123.0, valid)
    assert np.allclose(p1, p2, atol=1e-12)


def test_nll_forward_matches_manual_logsumexp(impl):
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(5, 13)) * 3
    targets = rng.integers(0, 13, size=5).astype(np.int64)
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    loss, dlogits = impl.nll_fwd_bwd(logits, targets, mask)
    ref = 0.0
    for i in range(5):
        row = logits[i]
        lz = np.log(np.exp(row - row.max()).sum()) + row.max()
        ref += mask[i] * (lz - row[targets[i]])
    assert loss == pytest.approx(ref, abs=1e-12)
    assert np.all(dlogits[mask == 0.0] == 0.0)
    # gradient rows of a shift-invariant loss sum to zero
    assert np.allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


def test_nll_backward_matches_finite_differences(impl):
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(3, 8))
    targets = np.array([2, 0, 7], dtype=np.int64)
    mask = np.array([1.0, 1.0, 0.0])
    _, dlogits = impl.nll_fwd_bwd(logits, targets, mask)
    eps = 1e-6
    for i in range(3):
        for j in range(8):
            up = logits.copy()
            up[i, j] += eps
            dn = logits.copy()
            dn[i, j] -= eps
            fu, _ = impl.nll_fwd_bwd(up, targets, mask)
            fd, _ = impl.nll_fwd_bwd(dn, targets, mask)
            assert dlogits[i, j] == pytest.approx((fu - fd) / (2 * eps), abs=1e-8)


# values frozen from the textbook Adam recursion evaluated step by step:
# p0=1, grads (0.5, -0.3, 0.2), lr=0.1, betas (0.9, 0.999), eps=1e-8
ADAMW_TRACE = [0.900000002, 0.8808501989417752, 0.846107430790882]


def test_adamw_three_step_trace(impl):
    p = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    for step, (g, want) in enumerate(zip([0.5, -0.3, 0.2], ADAMW_TRACE), start=1):
        impl.adamw_update(p, np.array([g]), m, v, step, 0.1, 0.9, 0.999, 1e-8)
        assert p[0] == pytest.approx(want, abs=1e-12)


def test_jacobi_diagonalizes_random_symmetric(impl):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(10, 10))
    g = (x + x.T) / 2
    a = g.copy()
    v = np.eye(10)
    off, sweeps = impl.jacobi_sweeps(a, v, 60, 1e-13 * np.linalg.norm(g))
    assert off <= 1e-13 * np.linalg.norm(g)
    assert sweeps < 60
    # V diag(A) V^T reconstructs G and V is orthogonal
    assert np.allclose(v @ np.diag(np.diag(a)) @ v.T, g, atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(10), atol=1e-12)


# ---------------------------------------------------------------- oracles
#
# The formulas the kernels had before they became copy-free and in place.
# The rewrite keeps every floating-point operation and its order, so the
# results must be bitwise equal, not merely close.


def oracle_masked_softmax(scores, valid):
    flat = scores.reshape(-1, scores.shape[-1])
    vflat = np.broadcast_to(np.asarray(valid, dtype=np.float64), scores.shape).reshape(flat.shape)
    neg = np.where(vflat, flat, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(neg - m)
    z = e.sum(axis=-1, keepdims=True)
    z = np.where(z > 0.0, z, 1.0)
    return (e / z).reshape(scores.shape)


def oracle_nll_fwd_bwd(logits, targets, mask):
    n, _ = logits.shape
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=1, keepdims=True)
    logz = (m + np.log(z))[:, 0]
    rows = np.arange(n)
    per_row = (logz - logits[rows, targets]) * mask
    dlogits = e / z
    dlogits[rows, targets] -= 1.0
    dlogits *= mask[:, None]
    return float(per_row.sum()), dlogits


def softmax_cases():
    """(scores, boolean mask) pairs: N-d, broadcast masks, outliers, all-masked rows."""
    rng = np.random.default_rng(21)
    scores = rng.normal(size=(3, 2, 5, 7)) * 4
    causal = np.tri(5, 7, 2, dtype=bool)
    key_ok = rng.random((3, 1, 1, 7)) > 0.3
    allow = causal & key_ok  # (3, 1, 5, 7), broadcast over the head axis
    allow[1, 0, 2] = False  # an all-masked row in both heads
    outliers = np.where(allow, scores, 1000.0)  # masked entries far above the valid max
    yield scores, allow
    yield outliers, allow
    yield scores, key_ok  # a mask broadcast over heads and rows
    yield scores[0, 0], causal  # 2-D
    yield scores, rng.random(scores.shape) > 0.5  # full shape, scattered
    yield scores.transpose(0, 1, 3, 2)[..., :5], np.tri(7, 5, dtype=bool)  # non-contiguous


def test_masked_softmax_matches_pre_change_oracle():
    for scores, valid in softmax_cases():
        before = scores.copy()
        got = kernels.masked_softmax(scores, valid)
        assert np.array_equal(got, oracle_masked_softmax(scores, valid))
        assert np.array_equal(scores, before)
        # all-masked rows come back as zeros
        dead = ~np.broadcast_to(valid, scores.shape).any(axis=-1)
        assert np.all(got[dead] == 0.0)


def test_nll_fwd_bwd_matches_pre_change_oracle():
    rng = np.random.default_rng(22)
    for n, v in ((1, 3), (9, 13), (40, 258)):
        logits = rng.normal(size=(n, v)) * 5
        logits[0, 0] = 700.0  # a large logit must not overflow
        targets = rng.integers(0, v, size=n)
        mask = (rng.random(n) > 0.3).astype(np.float64)
        before = logits.copy()
        loss, dlogits = kernels.nll_fwd_bwd(logits, targets, mask)
        want_loss, want_d = oracle_nll_fwd_bwd(logits, targets, mask)
        assert loss == want_loss
        assert np.array_equal(dlogits, want_d)
        assert np.array_equal(logits, before)
