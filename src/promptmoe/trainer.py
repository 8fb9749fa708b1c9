"""Adam (decoupled decay removed) training loop for the prompt-side parameters.

The base model never updates; only the provider's arrays do, in place.
Reproducibility comes from stateless RNG streams keyed by (seed, purpose,
step, micro-step): a resumed run re-derives exactly the draws an
uninterrupted run would have made, so trajectories match bitwise.

``part_step`` is the one batch step of tuning (once per micro-batch) and of
pretraining (once per batch): ``STEP_PARTS`` fixed row parts, the first in
the caller and the second in one worker process, each running its forward
and then its backward, with the part gradients added in part order, so a run
is the same on every machine. The worker (``part_worker``), one fork-context
``multiprocessing.Process`` on one ``Pipe``, is forked for the whole of
``train`` or ``pretrain.pretrain_base``, so a caller with other threads
should know that the package forks there; ``multiprocessing`` (about 1 MB of
RSS) is imported only then. The worker's memory comes on top of the
caller's: on a 2-core Xeon, 11 MB of private pages on the desk tune and
33 MB on the default pretrain. Without ``os.fork``, the caller runs every part.
"""

import contextlib
import json
import os
import signal
import zipfile
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
# the first in the caller and the others in one forked worker process; a
# constant, never the core count, so a run is bitwise the same on every machine
STEP_PARTS = 2


def row_parts(size):
    """The ``STEP_PARTS`` fixed contiguous row slices of a ``size``-row batch.

    A part left empty is dropped, so a one-row batch runs whole.
    """
    bounds = [size * i // STEP_PARTS for i in range(STEP_PARTS + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _run_part(forward, part, extra, scale, step):
    """(loss value, gradients, result) of one part: forward, then backward scaled by ``scale``."""
    loss, result = forward(part, extra)
    if not np.isfinite(loss.value):
        where = f" on batch ids {part.ids[:4]}" if part.ids else ""
        raise NumericalError(f"non-finite loss at step {step}{where}")
    return float(loss.value), ad.backward(ad.scale(loss, scale)), result


def _serve(conn, caller_end, forward, params):
    """The worker's loop: answer each request until the caller's end of the pipe closes.

    Each request's trainable values go into ``params``, the worker's copies
    from the fork, before its parts run, so it computes what the caller
    would. It ignores SIGINT: Ctrl-C is the caller's, and the caller kills it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    caller_end.close()  # so the caller's exit reaches ``conn`` as EOF
    with contextlib.suppress(EOFError):
        while True:
            values, parts, scale, step = conn.recv()
            for name, value in values.items():
                params[name][...] = value
            try:
                reply = [_run_part(forward, part, extra, scale, step) for part, extra in parts]
            except Exception as e:  # re-raised in the caller
                reply = e
            conn.send(reply)


@contextlib.contextmanager
def part_worker(forward, params):
    """The worker ``part_step`` sends its later parts to, for the block.

    ``forward`` and ``params`` (the trainable arrays by name, updated in
    place between steps) are those of the caller's loop. The worker is one
    fork-context ``multiprocessing.Process`` (spawn and forkserver would
    re-import the package and copy the model), forked under ``blas.one_thread``
    so both processes run OpenBLAS on one thread, as each part's matmuls
    assume, and after the std streams are flushed, so buffered output is
    written once. It is killed and reaped when the block returns or raises.
    Where ``os.fork`` does not exist this yields None and ``part_step`` runs
    every part in the caller, with the same bits.
    """
    with blas.one_thread():
        if not hasattr(os, "fork"):
            yield None
            return
        # imported here, not at the top: the import (socket, selectors, subprocess,
        # tempfile) costs about 10 ms and 1 MB of RSS that eval and set-up need not pay
        import multiprocessing

        context = multiprocessing.get_context("fork")
        conn, end = context.Pipe()
        process = context.Process(target=_serve, args=(end, conn, forward, params), daemon=True)
        with conn:
            with end:  # the caller's copy, closed so the worker's exit reads as EOF
                process.start()
            try:
                yield process, conn, params
            finally:
                process.kill()
                process.join()


def part_step(worker, forward, batch, k, extra, grads, step):
    """One batch's forward and backward as its ``row_parts``.

    ``forward(part, extra)`` runs the forward of ``part``, the batch's rows
    ``rows``, given ``extra[rows]`` of the per-row array ``extra`` (None
    stays None), and returns (summed loss node, result). The parts after the first
    go to ``worker`` (``part_worker``) while the caller runs the first; with
    no worker the caller runs them all, one after the other. Each part runs
    its forward, then its backward with its loss scaled by one over the
    whole batch's scored token count behind a k-row prompt
    (``ToyLM.scored_count``), so a part's graph is freed before the next
    part or step starts in its process. The part gradients are added into
    ``grads`` in part order: one whole-batch backward up to summation order,
    the same on every run.

    Returns (summed loss, scored count, each part's result in part order).
    A non-finite loss raises NumericalError naming ``step``. An exception
    in the worker re-raises here with its type and message, unless the
    caller's own part raised, which wins; a dead worker raises
    ChildProcessError.
    """
    parts = [
        (batch.take(rows), None if extra is None else extra[rows]) for rows in row_parts(batch.size)
    ]
    count = ToyLM.scored_count(batch, k)
    scale = 1.0 / max(count, 1)
    mine, theirs = (parts, []) if worker is None else (parts[:1], parts[1:])
    if theirs:
        process, conn, values = worker
        with contextlib.suppress(OSError):  # a dead worker raises at the recv below
            conn.send((values, theirs, scale, step))
    try:
        done = [_run_part(forward, part, x, scale, step) for part, x in mine]
    finally:
        try:  # waits, so the worker is idle again
            reply = conn.recv() if theirs else []
        except (EOFError, OSError):
            process.join(1)  # reaped, so its exit code is known
            reply = ChildProcessError(f"the part worker died at step {step}: {process}")
    if isinstance(reply, BaseException):
        raise reply
    done += reply
    for _, part_grads, _ in done:
        for name, g in part_grads.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g.copy()
    return sum(loss for loss, _, _ in done), count, [result for _, _, result in done]


@dataclass
class TrainResult:
    metrics: list
    state: AdamWState


def train(provider, lm, cfg, batch_fn, metrics_path=None, start_step=0, state=None):
    """Run optimizer steps start_step+1 .. cfg.steps.

    ``batch_fn(step, micro)`` must be a pure function of its arguments so
    resumed runs replay the identical data order; it is called in the
    calling process, in step and micro-batch order. Each micro-batch runs
    as one ``part_step``; its router noise is drawn once for the whole
    micro-batch and each part routes with its own rows of it, so the
    routing is that of one whole-batch route. The part worker
    (``part_worker``), a forked process, lives only inside this call.
    """
    params = provider.param_arrays()
    if sum(p.size for p in params.values()) == 0:
        raise ConfigError("no trainable parameters")
    if state is None:
        state = AdamWState(params)
    root = RngStream(cfg.seed)
    base_hash = lm.param_hash()
    n_experts = provider.stack.shape[0]

    def forward(part, noise):
        loss, _, routing = mt.loss_on_batch(provider, lm, part, training=True, noise=noise)
        return loss, routing

    metrics = []
    mode = "a" if start_step else "w"  # a fresh run starts the file empty; a resumed one appends
    log = open(metrics_path, mode, encoding="utf-8") if metrics_path else contextlib.nullcontext()
    with log as sink, part_worker(forward, params) as worker:
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
                    worker, forward, batch, provider.prompt_length, noise, accum, step
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


def make_dir(path, what):
    """Make the directory ``path`` and its parents; ConfigError naming ``what`` if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make {what} {path}: {e}") from e


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
