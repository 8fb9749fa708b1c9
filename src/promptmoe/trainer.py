"""Adam (decoupled decay removed) training loop for the prompt-side parameters.

The base model never updates; only the provider's arrays do, in place.
Reproducibility comes from stateless RNG streams keyed by (seed, purpose,
step, micro-step): a resumed run re-derives exactly the draws an
uninterrupted run would have made, so trajectories match bitwise.

``part_step`` is the one batch step of tuning (once per micro-batch) and of
pretraining (once per batch): ``STEP_PARTS`` fixed row parts on as many
threads, every forward, a join, then every backward, with the part gradients
added in part order, so a run is the same on every machine and thread timing.
"""

import contextlib
import functools
import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import blas, kernels
from . import methods as mt
from .errors import ConfigError, NumericalError
from .linalg import RngStream
from .model import ToyLM

# Adam hyperparameters; every run, tuning and pretraining alike, uses these
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Prompt-tuning schedule; the defaults are the shipped desk run."""

    steps: int = 500
    batch_size: int = 8
    warmup_steps: int = 50
    lr: float = 0.05
    grad_accum: int = 2
    seed: int = 7

    def __post_init__(self):
        for name in ("steps", "batch_size", "grad_accum"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")


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
        )
    return True


# a tuning micro-batch or pretraining batch runs as this many fixed row parts,
# the first in the caller and the others on worker threads; a constant, never
# the core count, so a run is bitwise the same on every machine
STEP_PARTS = 2


def row_parts(size):
    """The ``STEP_PARTS`` fixed contiguous row slices of a ``size``-row batch.

    A part left empty is dropped, so a one-row batch runs whole.
    """
    bounds = [size * i // STEP_PARTS for i in range(STEP_PARTS + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


# numpy gives every broadcasting ufunc call a scratch buffer of up to this
# many elements per thread (numpy's default is 8192, 64 KB); the workers' are
# smaller, so parts running at once hold no more of it than one whole batch
WORKER_UFUNC_BUFSIZE = 2048


@contextlib.contextmanager
def part_pool(name):
    """The worker pool ``in_parts`` runs on, with OpenBLAS on one thread for the block.

    Each part's matmuls assume one BLAS thread (``blas.one_thread``). The
    workers run with ``WORKER_UFUNC_BUFSIZE``-element ufunc buffers, which
    change no value: the buffer only sets how an elementwise op is chunked.
    The workers are joined when the block returns or raises.
    """
    with blas.one_thread(), ThreadPoolExecutor(
        STEP_PARTS - 1,
        thread_name_prefix=name,
        initializer=np.setbufsize,
        initargs=(WORKER_UFUNC_BUFSIZE,),
    ) as pool:
        yield pool


def in_parts(pool, fn, items):
    """``[fn(item) for item in items]``, the first in the caller and the rest on ``pool``.

    Returns once every call has finished, so none outlives it; an exception
    re-raises in the caller, the caller's own first.
    """
    futures = [pool.submit(fn, item) for item in items[1:]]
    try:
        first = fn(items[0])
    finally:
        for future in futures:
            future.exception()  # waits
    return [first] + [future.result() for future in futures]


def part_step(pool, batch, k, forward, grads, step):
    """One batch's forward and backward as its ``row_parts`` on ``pool``.

    ``forward(part, rows)`` runs the forward of ``part``, the batch's rows
    ``rows``, and returns (summed loss node, result, *held). Every part runs
    its forward (``in_parts``); once all have finished, what they hold is
    dropped, and every part runs its backward with its loss scaled by one
    over the whole batch's scored token count behind a k-row prompt
    (``ToyLM.scored_count``). Holding to the join keeps the parts' memory at
    the same level when the first backward starts, whatever the thread
    timing. The part gradients are added into ``grads`` in part order: one
    whole-batch backward up to summation order, the same on every run. A
    part's graph lives only until its backward, so it is freed before the
    caller's next forward.

    Returns (summed loss, scored count, each part's result in part order);
    a non-finite loss raises NumericalError naming ``step``.
    """

    def run_forward(rows):
        part = batch.take(rows)
        loss, result, *held = forward(part, rows)
        if not np.isfinite(loss.value):
            where = f" on batch ids {part.ids[:4]}" if part.ids else ""
            raise NumericalError(f"non-finite loss at step {step}{where}")
        return loss, result, held

    forwards = in_parts(pool, run_forward, row_parts(batch.size))
    losses = [loss for loss, _, _ in forwards]
    results = [result for _, result, _ in forwards]
    del forwards  # what the parts held, now that every forward has finished
    total = sum(float(loss.value) for loss in losses)
    count = ToyLM.scored_count(batch, k)
    scale = 1.0 / max(count, 1)

    def backward(i):
        loss, losses[i] = losses[i], None  # the part's graph lives only in this call
        return ad.backward(ad.scale(loss, scale))

    for part in in_parts(pool, backward, range(len(losses))):
        for name, g in part.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g.copy()
    return total, count, results


@dataclass
class TrainResult:
    metrics: list
    state: AdamWState


def train(provider, lm, cfg, batch_fn, metrics_path=None, start_step=0, state=None):
    """Run optimizer steps start_step+1 .. cfg.steps.

    ``batch_fn(step, micro)`` must be a pure function of its arguments so
    resumed runs replay the identical data order; it is called in the
    calling thread, in step and micro-batch order. Each micro-batch runs
    as one ``part_step``; its router noise is drawn once for the whole
    micro-batch and each part routes with its own rows of it, so the
    routing is that of one whole-batch route. The part workers
    (``part_pool``) live only inside this call.
    """
    params = provider.param_arrays()
    if sum(p.size for p in params.values()) == 0:
        raise ConfigError("no trainable parameters")
    if state is None:
        state = AdamWState(params)
    root = RngStream(cfg.seed)
    base_hash = lm.param_hash()
    n_experts = provider.stack.shape[0]

    def forward(part, rows, noise):
        loss, _, routing = mt.loss_on_batch(
            provider, lm, part, training=True, noise=None if noise is None else noise[rows]
        )
        return loss, routing

    metrics = []
    log = open(metrics_path, "a", encoding="utf-8") if metrics_path else contextlib.nullcontext()
    with log as sink, part_pool("train-part") as pool:
        for step in range(start_step + 1, cfg.steps + 1):
            accum = {}
            loss_total = 0.0
            token_total = 0
            step_counts = np.zeros(n_experts)
            step_load = np.zeros(n_experts)
            for micro in range(cfg.grad_accum):
                batch = batch_fn(step, micro)
                noise = provider.training_noise(root.child("noise", step, micro), batch.size)
                loss, count, routings = part_step(
                    pool,
                    batch,
                    provider.prompt_length,
                    functools.partial(forward, noise=noise),
                    accum,
                    step,
                )
                loss_total += loss
                token_total += count
                for routing in routings:
                    if routing is not None:
                        step_counts += routing.mask.sum(axis=0)
                        step_load += routing.weights.sum(axis=0)
            for name in accum:
                accum[name] /= cfg.grad_accum
            grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in accum.values())))
            lr = lr_at(step, cfg)
            adamw_step(params, accum, state, lr)
            record = {
                "step": step,
                "lr": lr,
                "loss": loss_total / max(token_total, 1),
                "grad_norm": grad_norm,
                "expert_counts": [int(c) for c in step_counts],
                "expert_load": step_load.tolist(),
                "skipped": state.skipped,
            }
            metrics.append(record)
            if sink:
                sink.write(json.dumps(record) + "\n")
    if lm.param_hash() != base_hash:
        raise NumericalError("frozen base model changed during training")
    return TrainResult(metrics, state)


def write_npz(path, arrays):
    """Save arrays as an .npz at ``path`` atomically.

    The archive goes to a temporary file in the same directory, is flushed
    to disk, then renamed over ``path``, so an interrupted write never
    leaves a truncated file where a reader looks.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_npz(path, what, remedy=""):
    """Every array of the .npz at ``path``; ConfigError naming ``what`` if unreadable."""
    try:
        with np.load(path) as arrays:
            return {k: arrays[k] for k in arrays.files}
    except (OSError, ValueError, zipfile.BadZipFile) as e:
        raise ConfigError(f"cannot read {what} {path}: {e}{remedy}") from e


def save_checkpoint(path, provider, state, step, cfg):
    arrays = {**provider.param_arrays(), **state.to_arrays()}
    arrays["train.meta"] = np.array([step, cfg.seed], dtype=np.int64)
    write_npz(path, arrays)


def load_checkpoint(path, provider):
    """Restore provider arrays; returns (state, completed_step, seed).

    The stored arrays must carry exactly the names and shapes that this
    provider and its optimizer state save. A path that does not hold a
    readable .npz archive, or a checkpoint written under another method or
    other shapes, raises ConfigError before anything is copied.
    """
    data = read_npz(path, "checkpoint")
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
