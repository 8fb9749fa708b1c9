import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmoe import linalg
from promptmoe.errors import ShapeError


def test_mean_rows_hand_case():
    x = np.array([[1.0, 1.0], [3.0, 3.0], [9.0, 9.0]])
    mask = np.array([1.0, 1.0, 0.0])
    assert linalg.mean_rows(x, mask).tolist() == [2.0, 2.0]


def test_mean_rows_all_masked_is_zero():
    out = linalg.mean_rows(np.ones((4, 3)), np.zeros(4))
    assert np.all(out == 0.0)


def test_mean_rows_batched():
    x = np.stack([np.ones((3, 2)), 2 * np.ones((3, 2))])
    mask = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    out = linalg.mean_rows(x, mask)
    assert out.tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_svd_rank_one_exact():
    e = np.outer([3.0, 4.0], [0.6, 0.8])
    u, s, vt = linalg.truncated_svd(e, 1)
    assert s[0] == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(np.abs(u[:, 0]), [0.6, 0.8], atol=1e-12)
    assert np.allclose(np.abs(vt[0]), [0.6, 0.8], atol=1e-12)


def test_svd_diagonal_matrix():
    u, s, vt = linalg.truncated_svd(np.diag([2.0, 1.0]), 2)
    assert np.allclose(s, [2.0, 1.0], atol=1e-14)
    assert np.allclose(np.abs(u @ vt), np.eye(2), atol=1e-12)


def test_svd_matches_reference_values():
    rng = np.random.default_rng(42)
    for t, h in [(10, 25), (25, 10), (8, 8)]:
        e = rng.normal(size=(t, h))
        r = min(t, h)
        u, s, vt = linalg.truncated_svd(e, r)
        ref = np.linalg.svd(e, compute_uv=False)
        assert np.allclose(s, ref[:r], atol=1e-10)
        assert np.allclose(u.T @ u, np.eye(r), atol=1e-10)
        assert np.allclose(vt @ vt.T, np.eye(r), atol=1e-10)
        assert np.allclose(u @ np.diag(s) @ vt, e, atol=1e-9)


def test_svd_deficient_rank_pads_with_exact_zeros():
    rng = np.random.default_rng(6)
    e = np.outer(rng.normal(size=7), rng.normal(size=11))
    u, s, vt = linalg.truncated_svd(e, 4)
    assert s[0] > 0
    assert np.all(s[1:] == 0.0)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-8)
    assert np.allclose(vt @ vt.T, np.eye(4), atol=1e-8)
    assert np.allclose(u @ np.diag(s) @ vt, e, atol=1e-10)


def test_svd_zero_matrix():
    u, s, vt = linalg.truncated_svd(np.zeros((5, 3)), 3)
    assert np.all(s == 0.0)
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)
    assert np.allclose(vt @ vt.T, np.eye(3), atol=1e-12)


def test_svd_rejects_bad_rank():
    with pytest.raises(ShapeError):
        linalg.truncated_svd(np.ones((3, 4)), 0)
    with pytest.raises(ShapeError):
        linalg.truncated_svd(np.ones((3, 4)), 4)


@settings(max_examples=40, deadline=None)
@given(
    t=st.integers(2, 12),
    h=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_svd_truncation_error_is_tail_energy(t, h, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(t, h))
    r = max(1, min(t, h) // 2)
    u, s, vt = linalg.truncated_svd(e, r)
    ref = np.linalg.svd(e, compute_uv=False)
    tail = np.sqrt(np.sum(ref[r:] ** 2))
    err = np.linalg.norm(e - u @ np.diag(s) @ vt)
    assert err <= tail + 1e-9
    assert np.all(np.diff(s) <= 1e-12)
    assert np.all(s >= 0)


def test_rng_children_are_order_independent():
    root = linalg.RngStream(123)
    a1 = root.child("noise", 5).normal((4,))
    _ = root.child("batch", 0).normal((100,))
    a2 = root.child("noise", 5).normal((4,))
    assert np.array_equal(a1, a2)


def test_rng_children_differ_by_key_and_seed():
    root = linalg.RngStream(123)
    a = root.child("noise", 5).normal((8,))
    b = root.child("noise", 6).normal((8,))
    c = root.child("init", 5).normal((8,))
    d = linalg.RngStream(124).child("noise", 5).normal((8,))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_nested_children_compose():
    root = linalg.RngStream(9)
    direct = root.child("a", 1, "b", 2).normal((3,))
    nested = root.child("a", 1).child("b", 2).normal((3,))
    assert np.array_equal(direct, nested)


def test_sample_gaussian_std():
    x = linalg.RngStream(0).child("w").normal((200_000,), std=0.01)
    assert abs(x.std() - 0.01) < 2e-4
    assert abs(x.mean()) < 1e-4
