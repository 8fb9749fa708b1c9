"""Shipped-guarantee gate: every promise the package makes, one verdict line each.

These tests restate the package contract end to end: exact parameter
budgets at the reference width, gradient correctness in every routing
mode, the factorized-init contract, routing invariants, optimizer
contracts, the desk-scale training run with its quality bars, the metric
fixture suite, and sweep/run consistency. Heavy fixtures (full training
runs) are module-scoped and shared.
"""

import dataclasses
import time

import numpy as np
import pytest

import test_metrics as fixtures
from promptmoe import autodiff as ad
from promptmoe import config as cf
from promptmoe import data as dt
from promptmoe import methods as mt
from promptmoe import metrics as mx
from promptmoe import pretrain as pt
from promptmoe import router as rt
from promptmoe import runner
from promptmoe import sweep as sw
from promptmoe import trainer as tr
from promptmoe.linalg import RngStream, truncated_svd
from promptmoe.model import Batch, LMConfig, ToyLM

CACHE = ".cache"


def verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---- shared heavy fixtures -----------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    """The shipped desk-scale PT-MoE run, used by several checks below."""
    rc = cf.default_run_config()
    out, provider, lm = runner.run_training(rc, cache_dir=CACHE)
    return rc, out, provider, lm


@pytest.fixture(scope="module")
def desk_pt(desk):
    """PT at the width-matched budget, same data, same seed."""
    rc = desk[0]
    method = dataclasses.replace(
        rc.method, kind="PT", num_experts=1, rank=0, budget=0,
        prompt_length=rc.method.prompt_length,
    )
    out, _, _ = runner.run_training(
        dataclasses.replace(rc, method=method), cache_dir=CACHE
    )
    return out


@pytest.fixture(scope="module")
def routing_sweep(desk):
    rc = desk[0]
    spec = sw.SweepSpec("routing_mode")
    return sw.run_sweep(spec, rc, seed=rc.train.seed, cache_dir=CACHE)


# ---- trainable-parameter budgets ------------------------------------------------

def test_reference_parameter_table(capsys):
    t0 = time.time()
    rows = {kind: (count, label) for kind, count, label, _, _ in mt.budget_table(2048)}
    want = {
        "PT": (81_920, "81k"),
        "DPT": (81_432, "81k"),
        "SMOP": (86_018, "86k"),
        "PT_MOE": (80_706, "80k"),
    }
    ok = rows == want
    verdict(
        capsys, ok, "parameter budgets at H=2048",
        f"{ {k: v[0] for k, v in rows.items()} } in {time.time() - t0:.2f}s",
    )


# ---- gradient correctness --------------------------------------------------------

def test_gradients_all_routing_modes(capsys):
    t0 = time.time()
    cfg = LMConfig(vocab_size=256, hidden=64, layers=2, heads=2, max_seq=64)
    lm = ToyLM.create(cfg, RngStream(21).child("lm"), init_std=0.05)
    lm.freeze()
    worst = {}
    for selective, probationary in ((True, True), (False, True), (True, False), (False, False)):
        mcfg = mt.MethodConfig(
            kind="PT_MOE", prompt_length=8, num_experts=2, rank=4,
            selective=selective, probationary=probationary, init_text="a 1 b 2\n",
        )
        provider = mt.build(mcfg, lm, RngStream(22).child("method"))
        jit = np.random.default_rng(5)
        provider.stack += jit.normal(0.0, 0.05, provider.stack.shape)
        provider.router.w += jit.normal(0.0, 0.05, provider.router.w.shape)
        ids = np.array([[97, 98, 10, 99, 100], [49, 50, 10, 51, 52]], dtype=np.int64)
        batch = Batch(
            token_ids=ids,
            attn_mask=np.ones((2, 5)),
            loss_mask=np.array([[0, 0, 0, 1, 1], [0, 0, 0, 1, 1.0]]),
        )
        _, _, routing = mt.loss_on_batch(provider, lm, batch, training=False)

        def f(arrs):
            for name, p in provider.param_arrays().items():
                p[...] = arrs[name]
            loss, count, _ = mt.loss_on_batch(
                provider, lm, batch, training=False, forced=routing
            )
            return ad.scale(loss, 1.0 / count)

        params = {name: p.copy() for name, p in provider.param_arrays().items()}
        mode = f"{'S' if selective else 'NS'}+{'P' if probationary else 'NP'}"
        worst[mode] = ad.finite_diff_check(f, params, eps=1e-5, min_coords=120, seed=9)
    elapsed = time.time() - t0
    ok = all(v <= 1e-5 for v in worst.values()) and elapsed < 60
    detail = ", ".join(f"{m}={v:.2e}" for m, v in worst.items()) + f" in {elapsed:.1f}s"
    verdict(capsys, ok, "gradcheck, four routing modes, rel err <= 1e-5", detail)


# ---- factorized initialization ---------------------------------------------------

def test_factorized_init_contract(capsys):
    rng = np.random.default_rng(7)
    e = rng.normal(size=(12, 24))
    full = min(e.shape)

    def factors(r):
        u, s, vt = truncated_svd(e, r)
        root = np.sqrt(s)
        return u * root, root[:, None] * vt

    a, b = factors(full)
    recon_rel = np.linalg.norm(a @ b - e) / np.linalg.norm(e)

    errs = []
    for r in range(1, full + 1):
        ar, br = factors(r)
        errs.append(np.linalg.norm(ar @ br - e))
    monotone = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    cfg = LMConfig(vocab_size=258, hidden=24, layers=1, heads=2, max_seq=32)
    lm = ToyLM.create(cfg, RngStream(1).child("lm"), init_std=0.05)
    lm.freeze()
    provider = mt.build(
        mt.MethodConfig(kind="PT_MOE", prompt_length=6, num_experts=3, rank=2,
                        init_text="a b c\n"),
        lm, RngStream(2).child("method"),
    )
    identical = all(
        (provider.stack[i] == provider.stack[0]).all()
        for i in range(provider.stack.shape[0])
    )

    ok = recon_rel <= 1e-10 and monotone and identical
    verdict(
        capsys, ok, "factorized init",
        f"full-rank recon rel {recon_rel:.1e}, truncation monotone {monotone}, "
        f"expert factors bitwise identical {identical}",
    )


# ---- routing invariants -----------------------------------------------------------

def test_routing_invariants(capsys):
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 16))
    b = rng.normal(size=4)
    mu = rng.normal(size=16)

    def route_one(params):
        return rt.route_batch(mu[None], params.w, params.b, params)[1]

    params = rt.RouterParams(w=w, b=b, k=2)
    d1 = route_one(params)
    d2 = route_one(params)
    deterministic = (d1.weights == d2.weights).all() and (d1.mask == d2.mask).all()

    shifted = rt.RouterParams(w=w, b=b + 5.0, k=2)
    shift_ok = (route_one(shifted).mask == d1.mask).all()

    single = []
    for sel in (True, False):
        for prob in (True, False):
            p1 = rt.RouterParams(w=w[:1], b=b[:1], k=1, selective=sel, probationary=prob)
            single.append(route_one(p1).weights[0])
    degenerate = all(np.allclose(s, [1.0], atol=0, rtol=0) for s in single)

    kn = rt.RouterParams(w=w, b=b, k=4, selective=True, probationary=True)
    ns = rt.RouterParams(w=w, b=b, k=1, selective=False, probationary=True)
    full_equiv = np.abs(route_one(kn).weights - route_one(ns).weights).max() <= 1e-15

    # 10^4 noise draws through the training path, in one batch
    n = 2
    draws = 10_000 // n
    w0 = ad.leaf(np.zeros((n, 16)), "w")
    b0 = ad.leaf(np.ones(n), "b")
    noise_params = rt.RouterParams(w=np.zeros((n, 16)), b=np.ones(n), sigma=0.01, k=1)
    noisy_node, routing = rt.route_batch(
        np.ones((draws, 16)), w0, b0, noise_params,
        rng=RngStream(0).child("noise"), training=True,
    )
    eps = routing.noisy_logits - 1.0  # logits are exactly 1
    std = float(eps.std())
    std_ok = 0.0098 <= std <= 0.0102

    ok = deterministic and shift_ok and degenerate and full_equiv and std_ok
    verdict(
        capsys, ok, "routing invariants",
        f"inference bitwise {deterministic}, shift-invariant {shift_ok}, "
        f"N=1 degenerate {degenerate}, k=N==non-selective {full_equiv}, "
        f"noise std {std:.5f} in [0.0098, 0.0102] {std_ok}",
    )


# ---- optimizer + frozen-base contracts ----------------------------------------------

def test_frozen_base_and_optimizer_contracts(capsys, desk):
    rc, out, provider, lm = desk
    pristine, _ = pt.load_base(pt.base_path(rc.base, CACHE))
    hash_ok = lm.param_hash() == pristine.param_hash() and out["steps"] == 500

    cfg = tr.TrainConfig(steps=1000, warmup_steps=500, lr=2e-5)
    lr_ok = (
        tr.lr_at(250, cfg) == 1e-5
        and tr.lr_at(500, cfg) == 2e-5
        and tr.lr_at(900, cfg) == 2e-5
    )

    small_cfg = LMConfig(vocab_size=258, hidden=32, layers=1, heads=2, max_seq=64)
    small = ToyLM.create(small_cfg, RngStream(11).child("lm"), init_std=0.05)
    small.freeze()
    batch = dt.build_batch(dt.gen_synthetic("copy_span", 4, 5), max_seq=48)

    def run(accum):
        p = mt.build(
            mt.MethodConfig(kind="PT_MOE", prompt_length=8, num_experts=2, rank=4,
                            sigma=0.0, init_text="a b\n"),
            small, RngStream(17).child("method"),
        )
        c = tr.TrainConfig(steps=5, warmup_steps=1, lr=1e-3, grad_accum=accum, seed=2)
        tr.train(p, small, c, lambda step, micro: batch)
        return p.param_arrays()

    one, two = run(1), run(2)
    accum_gap = max(np.abs(one[k] - two[k]).max() for k in one)
    accum_ok = accum_gap <= 1e-10

    ok = hash_ok and lr_ok and accum_ok
    verdict(
        capsys, ok, "frozen base + optimizer contracts",
        f"base hash stable over 500 steps {hash_ok}, lr_at(250)=1e-5 and "
        f"lr_at(>=500)=2e-5 {lr_ok}, grad-accum gap {accum_gap:.1e} <= 1e-10",
    )


# ---- desk-scale end-to-end -----------------------------------------------------------

def test_desk_scale_end_to_end(capsys, desk, desk_pt):
    rc, out, provider, lm = desk
    under_time = out["train_seconds"] < 600
    reduction = out["loss_reduction"]
    reduction_ok = reduction >= 0.80

    per_task = out["report"]["in_domain"]["per_task"]
    ems = {t: per_task[t]["em"] for t in rc.data.id_tasks}
    em_ok = all(v >= 0.90 for v in ems.values())

    ours = out["report"]["in_domain"]["aggregate"]["macro"]
    pts = desk_pt["report"]["in_domain"]["aggregate"]["macro"]
    baseline_ok = ours >= pts - 0.02

    task_counts = out["report"]["in_domain"]["expert_task_counts"]
    n_experts = rc.method.num_experts
    spec_ok = True
    shares = {}
    for e in range(n_experts):
        best = max(
            (task_counts[t][e] / sum(task_counts[t]) for t in task_counts),
            default=0.0,
        )
        shares[f"expert{e}"] = round(best, 3)
        spec_ok = spec_ok and best >= 0.80

    ok = under_time and reduction_ok and em_ok and baseline_ok and spec_ok
    verdict(
        capsys, ok, "desk-scale end-to-end",
        f"train {out['train_seconds']:.0f}s<600 {under_time}, "
        f"loss -{reduction:.0%}>=80% {reduction_ok}, EM {ems} all>=0.90 {em_ok}, "
        f"mixture {ours:.3f} vs PT {pts:.3f}-0.02 {baseline_ok}, "
        f"specialization {shares} all>=0.80 {spec_ok}",
    )


# ---- metric fixtures -----------------------------------------------------------------

def test_metric_fixture_suite(capsys):
    cases = 0
    for pred, gold, want in fixtures.F1_CASES:
        assert mx.f1(pred, gold) == pytest.approx(want, abs=1e-9), (pred, gold)
        cases += 1
    for pred, gold, want in fixtures.EM_CASES:
        assert mx.exact_match(pred, gold) == want, (pred, gold)
        cases += 1
    for pred, gold, want in fixtures.MATH_CASES:
        assert mx.math_accuracy(pred, gold) == want, (pred, gold)
        cases += 1

    rng = np.random.default_rng(123)
    alphabet = list("abcde ")
    holds = True
    for _ in range(10_000):
        p = "".join(rng.choice(alphabet, rng.integers(0, 12)))
        g = "".join(rng.choice(alphabet, rng.integers(1, 12)))
        if mx.f1(p, g) < mx.exact_match(p, g):
            holds = False
            break
    ok = cases >= 20 and holds
    verdict(
        capsys, ok, "metric fixtures",
        f"{cases} hand-computed cases exact, f1>=em over 10^4 random pairs {holds}",
    )


# ---- sweep consistency ------------------------------------------------------------------

def test_routing_mode_sweep_matches_standalone_run(capsys, desk, routing_sweep):
    _, out, _, _ = desk
    modes = [leg["value"] for leg in routing_sweep["legs"]]
    modes_ok = modes == ["S+P", "NS+P", "S+NP", "NS+NP"]

    sp_leg = next(leg for leg in routing_sweep["legs"] if leg["value"] == "S+P")
    reference = {k: v for k, v in out.items() if k != "train_seconds"}
    bitwise = sp_leg["result"] == reference

    ok = modes_ok and bitwise
    verdict(
        capsys, ok, "routing-mode sweep",
        f"modes {modes} {modes_ok}, S+P leg bitwise-equal standalone run {bitwise}",
    )
