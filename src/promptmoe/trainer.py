"""AdamW training loop for the prompt-side parameters.

The base model never updates; only the provider's arrays do, in place.
Reproducibility comes from stateless RNG streams keyed by (seed, purpose,
step, micro-step): a resumed run re-derives exactly the draws an
uninterrupted run would have made, so trajectories match bitwise.
"""

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from . import methods as mt
from .errors import ConfigError, NumericalError
from .linalg import RngStream

# AdamW hyperparameters; every run, tuning and pretraining alike, uses these
BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.0


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 8
    warmup_steps: int = 500
    lr: float = 2e-5
    grad_accum: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.grad_accum < 1:
            raise ConfigError(f"grad_accum must be >= 1, got {self.grad_accum}")


def lr_at(step, cfg):
    """Linear warmup to cfg.lr, constant afterwards."""
    if step < 1:
        raise ConfigError(f"step counts from 1, got {step}")
    return cfg.lr * min(1.0, step / max(1, cfg.warmup_steps))


class AdamWState:
    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.step = 0
        self.skipped = 0

    def to_arrays(self):
        out = {f"opt.m.{k}": v for k, v in self.m.items()}
        out.update({f"opt.v.{k}": v for k, v in self.v.items()})
        out["opt.counters"] = np.array([self.step, self.skipped], dtype=np.int64)
        return out

    def load_arrays(self, arrays):
        for k in self.m:
            self.m[k][...] = arrays[f"opt.m.{k}"]
            self.v[k][...] = arrays[f"opt.v.{k}"]
        self.step, self.skipped = (int(x) for x in arrays["opt.counters"])


def adamw_step(params, grads, state, lr):
    """One update over all named params, in place. Returns False on a skip.

    A single non-finite gradient aborts the whole step (no partial
    updates) and bumps the skip counter; the optimizer step count only
    advances on applied updates, keeping bias correction honest.
    """
    for g in grads.values():
        if not np.isfinite(g).all():
            state.skipped += 1
            return False
    state.step += 1
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        kernels.adamw_update(
            p.reshape(-1),
            np.ascontiguousarray(g, dtype=np.float64).reshape(-1),
            state.m[name].reshape(-1),
            state.v[name].reshape(-1),
            state.step,
            lr,
            BETA1,
            BETA2,
            EPS,
            WEIGHT_DECAY,
        )
    return True


@dataclass
class TrainResult:
    metrics: list
    state: AdamWState
    steps_done: int
    expert_totals: np.ndarray


def train(provider, lm, cfg, batch_fn, metrics_path=None, start_step=0, state=None):
    """Run optimizer steps start_step+1 .. cfg.steps.

    ``batch_fn(step, micro)`` must be a pure function of its arguments so
    resumed runs replay the identical data order.
    """
    params = provider.param_arrays()
    if sum(p.size for p in params.values()) == 0:
        raise ConfigError("no trainable parameters")
    if state is None:
        state = AdamWState(params)
    root = RngStream(cfg.seed)
    base_hash = lm.param_hash()
    n_experts = provider.stack.shape[0]
    expert_totals = np.zeros(n_experts)

    metrics = []
    sink = open(metrics_path, "a", encoding="utf-8") if metrics_path else None
    try:
        for step in range(start_step + 1, cfg.steps + 1):
            accum = {}
            loss_total = 0.0
            token_total = 0
            step_counts = np.zeros(n_experts)
            for micro in range(cfg.grad_accum):
                batch = batch_fn(step, micro)
                noise_rng = root.child("noise", step, micro)
                loss, count, routing = mt.loss_on_batch(
                    provider, lm, batch, rng=noise_rng, training=True
                )
                if not np.isfinite(loss.value):
                    raise NumericalError(
                        f"non-finite loss at step {step} on batch ids {batch.ids[:4]}"
                    )
                loss_total += float(loss.value)
                token_total += count
                grads = ad.backward(ad.scale(loss, 1.0 / max(count, 1)))
                for name, g in grads.items():
                    if name in accum:
                        accum[name] += g
                    else:
                        accum[name] = g.copy()
                if routing is not None:
                    step_counts += routing.mask.sum(axis=0)
            for name in accum:
                accum[name] /= cfg.grad_accum
            grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in accum.values())))
            lr = lr_at(step, cfg)
            adamw_step(params, accum, state, lr)
            expert_totals += step_counts
            record = {
                "step": step,
                "lr": lr,
                "loss": loss_total / max(token_total, 1),
                "grad_norm": grad_norm,
                "expert_counts": [int(c) for c in step_counts],
                "skipped": state.skipped,
            }
            metrics.append(record)
            if sink:
                sink.write(json.dumps(record) + "\n")
    finally:
        if sink:
            sink.close()
    if lm.param_hash() != base_hash:
        raise NumericalError("frozen base model changed during training")
    return TrainResult(metrics, state, cfg.steps, expert_totals)


def save_checkpoint(path, provider, state, step, cfg):
    arrays = {**provider.param_arrays(), **state.to_arrays()}
    arrays["train.meta"] = np.array([step, cfg.seed], dtype=np.int64)
    np.savez(path, **arrays)


def load_checkpoint(path, provider):
    """Restore provider arrays; returns (state, completed_step, seed).

    The stored arrays must carry exactly the names and shapes that this
    provider and its optimizer state save. A path that does not hold a
    readable .npz archive, or a checkpoint written under another method or
    other shapes, raises ConfigError before anything is copied.
    """
    try:
        with np.load(path) as arrays:
            data = {k: arrays[k] for k in arrays.files}
    except (OSError, ValueError, zipfile.BadZipFile) as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}") from e
    params = provider.param_arrays()
    state = AdamWState(params)
    expected = {**params, **state.to_arrays(), "train.meta": np.zeros(2)}
    missing, unexpected = sorted(set(expected) - set(data)), sorted(set(data) - set(expected))
    if missing or unexpected:
        raise ConfigError(
            f"checkpoint {path} does not fit the configured {provider.cfg.kind} provider: "
            f"missing arrays {missing}, unexpected arrays {unexpected}"
        )
    for name, want in expected.items():
        if data[name].shape != want.shape:
            raise ConfigError(
                f"checkpoint {path}: array {name!r} has shape {data[name].shape}, "
                f"the config expects {want.shape}"
            )
    for name, p in params.items():
        p[...] = data[name]
    state.load_arrays(data)
    step, seed = (int(x) for x in data["train.meta"])
    return state, step, seed
