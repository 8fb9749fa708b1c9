"""End-to-end pipeline: cached base, provider build, training, evaluation.

One entry point (run_training) owns the whole train+eval path so the CLI,
the sweep harness, and the acceptance checks all execute literally the
same code. The output report is a pure function of (run config, seed) on
a given platform, which is what makes sweep legs comparable to standalone
runs bitwise.
"""

import dataclasses
import json
import os
import time

import numpy as np

from . import data as dt
from . import evaluate as ev
from . import methods as mt
from . import pretrain as pt
from . import trainer as tr
from .linalg import RngStream

FINAL_LOSS_WINDOW = 25  # steps averaged to report the end-of-run loss


def build_datasets(dc):
    train = []
    for task in dc.id_tasks:
        train.extend(dt.gen_synthetic(task, dc.train_count, dc.train_seed))
    test_id = []
    for task in dc.id_tasks:
        test_id.extend(dt.gen_synthetic(task, dc.test_count, dc.test_seed))
    test_ood = []
    for task in dc.ood_tasks:
        test_ood.extend(dt.gen_synthetic(task, dc.ood_count, dc.ood_seed))
    return train, test_id, test_ood


def run_training(rc, seed=None, cache_dir=".cache", out_dir=None, log_fn=None):
    """Train one method per the run config; return a JSON-able result."""
    say = log_fn or (lambda *_: None)
    cfg = rc.train if seed is None else dataclasses.replace(rc.train, seed=int(seed))
    if out_dir:
        tr.make_dir(out_dir, "output directory")  # before the work, not after

    lm, base_file = pt.ensure_base(rc.base, cache_dir, log_every=500, log_fn=say)
    say(f"base model ready ({base_file})")

    provider = mt.build(rc.method, lm, RngStream(cfg.seed).child("method"))
    train_ds, test_id, test_ood = build_datasets(rc.data)

    batch_fn = dt.make_batch_fn(
        train_ds, cfg.batch_size, cfg.seed, max_seq=lm.cfg.max_seq - provider.prompt_length
    )

    metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
    t0 = time.time()
    result = tr.train(provider, lm, cfg, batch_fn, metrics_path=metrics_path)
    train_seconds = time.time() - t0
    say(f"trained {cfg.steps} steps in {train_seconds:.1f}s")

    losses = [m["loss"] for m in result.metrics]
    initial = losses[0]
    final = float(np.mean(losses[-FINAL_LOSS_WINDOW:]))
    report = ev.split_report(
        provider,
        lm,
        test_id,
        test_ood,
        batch_size=rc.eval.batch_size,
        max_new=rc.eval.max_new or None,
    )

    out = {
        "method": rc.method.kind,
        "seed": cfg.seed,
        "steps": cfg.steps,
        "param_count": provider.param_count(),
        "initial_loss": initial,
        "final_loss": final,
        "loss_reduction": 1.0 - final / initial if initial else 0.0,
        "report": report,
        "losses": losses,
        # exact: the per-step counts are small integers
        "expert_totals": np.sum(
            [m["expert_counts"] for m in result.metrics], axis=0, dtype=np.float64
        ).tolist(),
    }
    if out_dir:
        tr.save_checkpoint(
            os.path.join(out_dir, "checkpoint.npz"), provider, result.state, cfg.steps, cfg,
        )
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
            json.dump({**out, "train_seconds": train_seconds}, f, indent=2)
    out["train_seconds"] = train_seconds  # excluded from bitwise comparisons
    return out, provider, lm


def load_provider(rc, checkpoint_path, cache_dir=".cache"):
    """Rebuild a provider from config and overwrite its arrays from disk."""
    lm, _ = pt.ensure_base(rc.base, cache_dir)
    provider = mt.build(rc.method, lm, RngStream(rc.train.seed).child("method"))
    state, step, seed = tr.load_checkpoint(checkpoint_path, provider)
    return provider, lm, state, step, seed
