import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptmoe import autodiff as ad
from promptmoe import methods as mt
from promptmoe.errors import ConfigError, ShapeError


def compose(weights, a, b):
    """Oracle prompt for one weight vector: sum_i w_i * (a_i @ b)."""
    return sum(w * (a_i @ b) for w, a_i in zip(weights, a))


def mix_then_project(weights, bank):
    """The prompt ``methods.Provider.prompt_node`` builds: weighted factor sum, then b."""
    a, b = bank
    mixed = ad.expert_mix(ad.const(np.asarray(weights, dtype=np.float64)[None]), a)
    return ad.matmul(mixed, b).value[0]


def random_bank(seed=0, n=3, t=6, r=2, h=10):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, t, r)), rng.normal(size=(r, h))


def test_init_experts_identical_bitwise():
    rng = np.random.default_rng(0)
    a, _ = mt.init_from_embeddings(rng.normal(size=(8, 12)), n=3, r=4)
    assert a.shape == (3, 8, 4)
    assert np.array_equal(a[0], a[1])
    assert np.array_equal(a[1], a[2])


def test_init_rank_one_matrix_is_exact():
    e = np.outer(np.arange(1.0, 7.0), np.arange(1.0, 5.0))
    a, b = mt.init_from_embeddings(e, n=1, r=1)
    recon = a[0] @ b
    assert np.linalg.norm(recon - e) <= 1e-10 * np.linalg.norm(e)


def test_init_full_rank_reconstructs():
    rng = np.random.default_rng(1)
    e = rng.normal(size=(6, 9))
    a, b = mt.init_from_embeddings(e, n=2, r=6)
    recon = a[0] @ b
    assert np.linalg.norm(recon - e) <= 1e-10 * np.linalg.norm(e)


def test_init_truncation_error_monotone_in_rank():
    rng = np.random.default_rng(2)
    e = rng.normal(size=(7, 11))
    errs = []
    for r in range(1, 8):
        a, b = mt.init_from_embeddings(e, n=1, r=r)
        errs.append(np.linalg.norm(a[0] @ b - e))
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))


def test_init_rejects_bad_rank():
    with pytest.raises(ShapeError):
        mt.init_from_embeddings(np.ones((4, 6)), n=2, r=5)
    with pytest.raises(ConfigError):
        mt.init_from_embeddings(np.ones((4, 6)), n=0, r=2)


def test_compose_one_hot_picks_single_expert():
    a, b = bank = random_bank()
    out = mix_then_project(np.array([1.0, 0.0, 0.0]), bank)
    assert np.allclose(out, a[0] @ b, atol=1e-15)


def test_compose_zero_weights_zero_prompt():
    bank = random_bank()
    assert np.all(mix_then_project(np.zeros(3), bank) == 0.0)


def test_compose_matches_naive_order():
    # weighted-sum-then-project vs project-each-then-sum
    bank = random_bank(seed=5)
    w = np.array([0.3, 0.7, -0.2])
    assert np.allclose(mix_then_project(w, bank), compose(w, *bank), atol=1e-12)


def test_compose_rejects_weight_mismatch():
    with pytest.raises(ShapeError):
        mix_then_project(np.ones(2), random_bank())


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-2, 2),
    beta=st.floats(-2, 2),
    seed=st.integers(0, 10**6),
)
def test_compose_linear_in_weights(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    bank = random_bank(seed=seed)
    u = rng.normal(size=3)
    v = rng.normal(size=3)
    lhs = mix_then_project(alpha * u + beta * v, bank)
    rhs = alpha * mix_then_project(u, bank) + beta * mix_then_project(v, bank)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_param_count_reference_configs():
    assert mt.expected_param_count("PT_MOE", 40, 2, 36, 2048) == 80_706
    assert mt.expected_param_count("DPT", 40, 1, 39, 2048) == 81_432
    assert mt.expected_param_count("DPT", 1, 1, 1, 1) == 2


def test_param_count_beats_undecomposed_default():
    # n*t*h for the full-size default would be 2*40*2048
    assert mt.expected_param_count("PT_MOE", 40, 2, 36, 2048) < 2 * 40 * 2048


def test_bank_param_count_matches_array_sizes():
    n, t, r, h = 2, 5, 3, 7
    a, b = mt.init_from_embeddings(np.random.default_rng(4).normal(size=(t, h)), n=n, r=r)
    router = n * h + n
    assert a.size + b.size + router == mt.expected_param_count("PT_MOE", t, n, r, h)
    assert a[:1].size + b.size == mt.expected_param_count("DPT", t, 1, r, h)


def auto_rank(kind, budget, n, t, h):
    """The rank ``MethodConfig.resolve_rank`` picks for ``rank: auto`` at width h."""
    cfg = mt.MethodConfig(kind=kind, prompt_length=t, num_experts=n, rank="auto", budget=budget)
    return cfg.resolve_rank(h)


def test_auto_rank_inverts_reference_budget():
    assert auto_rank("PT_MOE", 80_706, n=2, t=40, h=2048) == 36
    assert auto_rank("DPT", 81_432, n=1, t=40, h=2048) == 39


def test_auto_rank_exact_rank_one_boundary():
    t, h = 4, 8
    for kind, n, router in (("PT_MOE", 2, 2 * 8 + 2), ("DPT", 1, 0)):
        budget = router + (n * t + h)
        assert auto_rank(kind, budget, n, t, h) == 1
        with pytest.raises(ConfigError, match="rank 1"):
            auto_rank(kind, budget - 1, n, t, h)


def test_auto_rank_rejects_router_only_budget():
    with pytest.raises(ConfigError):
        auto_rank("PT_MOE", 2 * 8 + 2, n=2, t=4, h=8)


def test_auto_rank_is_the_budget_closed_form_capped_at_the_init_rank():
    # (budget - router) // (n*t + h), the bank's cost per rank, capped at
    # min(t, h): an SVD of the t x h init text has no higher rank
    for kind in ("DPT", "PT_MOE"):
        for t in (1, 4, 20, 40):
            for n in ((1,) if kind == "DPT" else (1, 2, 3)):
                for h in (8, 16, 64):
                    router = n * h + n if kind == "PT_MOE" else 0
                    for budget in (router + n * t + h, 500, 2522, 10_000, 100_000):
                        closed = (budget - router) // (n * t + h)
                        if closed < 1:
                            with pytest.raises(ConfigError, match="too small for rank 1"):
                                auto_rank(kind, budget, n, t, h)
                            continue
                        want = min(closed, t, h)
                        assert auto_rank(kind, budget, n, t, h) == want, (kind, t, n, h, budget)

