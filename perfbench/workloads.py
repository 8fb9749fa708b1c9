"""The three workloads: set-up, a timed closed loop, and output checks.

Each workload is one caller that sends its next operation only when the last
one returned. An operation is one optimizer step (tune, pretrain) or one
64-example eval batch (decode). The untimed loop hooks only operation
boundaries: the batch function handed to ``trainer.train``, the log callback
of ``pretrain.pretrain_base`` and the ``generate`` call of ``eval_dataset``.
All inputs come from the benchmark seed.

Step time drifts as training moves the weights (pretrain steps slow by
about 15% over their first 800 steps), so the training loops restart from
their initial state after a fixed number of steps. Every timed step then
comes from the same window of the trajectory, however fast the program
runs.
"""

import dataclasses
import math
import os
import statistics
from types import SimpleNamespace

import numpy as np

from promptmoe import config, data, evaluate, methods, pretrain, runner, trainer
from promptmoe.errors import DataError, GraphError, NumericalError, ShapeError
from promptmoe.linalg import RngStream
from promptmoe.model import EOS_ID, ToyLM

from tracer import CLOCK, generated_tokens

PROGRAM_ERRORS = (DataError, GraphError, NumericalError, ShapeError)
LOSS_WINDOW = 20  # final steps of the fixed window averaged into loss_end


class SetupError(Exception):
    """The checkout cannot run this workload."""


class StopRun(Exception):
    """Raised from a boundary callback to end a loop the program drives."""


class NoSamples(Exception):
    """A loop ended, on a program error, before it timed any operation."""


@dataclasses.dataclass
class Loop:
    """What one timed loop did. Samples exclude the warm-up operations."""

    ops: int = 0
    durations_ns: list = dataclasses.field(default_factory=list)
    tokens: list = dataclasses.field(default_factory=list)
    examples: list = dataclasses.field(default_factory=list)
    losses: list = dataclasses.field(default_factory=list)
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    skipped_updates: int = 0

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def sample(self, op, duration_ns, tokens, examples, warmup):
        if op > warmup:
            self.durations_ns.append(duration_ns)
            self.tokens.append(tokens)
            self.examples.append(examples)

    def require_samples(self):
        if not self.durations_ns:
            raise NoSamples("; ".join(self.errors) or "no operation was timed")
        return self

    def p50_ms(self):
        return statistics.median(self.durations_ns) / 1e6

    def loss_end(self, min_ops):
        """Mean loss of the last LOSS_WINDOW steps of the first min_ops."""
        window = self.losses[:min_ops][-LOSS_WINDOW:]
        return statistics.fmean(window) if window else 0.0


def load_cached_base(pcfg, cache_dir):
    """The committed frozen base; a missing cache is an error, never a pretrain."""
    path = pretrain.base_path(pcfg, cache_dir)
    if not os.path.exists(path):
        raise SetupError(
            f"no cached base model at {path}: the benchmark loads the committed "
            "base and does not pretrain one"
        )
    lm, _ = pretrain.ensure_base(pcfg, cache_dir)
    return lm


class Tune:
    """Shipped desk config (PT_MOE, N=2, 2 micro-batches of 8) through trainer.train.

    Runs repeat the desk's own cfg.steps-step training from the initial prompt.
    """

    name = "tune"
    min_ops = 60  # the loss window ends here, so every run trains these steps
    warmup = 5
    chunk = 10  # steps per trainer.train call; resumes are bitwise identical

    def __init__(self, seed, cache_dir):
        self.seed = seed
        self.cache_dir = cache_dir

    def setup(self):
        rc = config.default_run_config()
        lm = load_cached_base(rc.base, self.cache_dir)
        cfg = dataclasses.replace(rc.train, seed=self.seed)
        provider = methods.build(rc.method, lm, RngStream(cfg.seed).child("method"))
        train_ds, _, _ = runner.build_datasets(
            dataclasses.replace(rc.data, train_seed=1000 + self.seed)
        )
        batch_fn = data.make_batch_fn(
            train_ds, cfg.batch_size, cfg.seed, max_seq=lm.cfg.max_seq - rc.method.prompt_length
        )
        return SimpleNamespace(
            lm=lm, provider=provider, cfg=cfg, batch_fn=batch_fn, base_hash=lm.param_hash()
        )

    def run(self, ctx, deadline_ns, min_ops, tracer=None):
        loop = Loop()
        params = ctx.provider.param_arrays()
        initial = {name: p.copy() for name, p in params.items()}
        starts, tokens = {}, {}
        first_op = 0  # ops before the current desk run
        inner = ctx.batch_fn if tracer is None else tracer.wrap("data.batch_fn", ctx.batch_fn)

        def batch_fn(step, micro):
            if micro == 0:
                starts[step] = CLOCK()
                if tracer is not None:
                    tracer.trace_id = first_op + step
            batch = inner(step, micro)
            tokens[step] = tokens.get(step, 0.0) + float(batch.attn_mask.sum())
            return batch

        rows = ctx.cfg.batch_size * ctx.cfg.grad_accum
        done = ctx.cfg.steps
        while True:
            if done == ctx.cfg.steps:
                for name, p in params.items():
                    p[...] = initial[name]
                state = trainer.AdamWState(params)
                done, first_op = 0, loop.ops
            cfg = dataclasses.replace(ctx.cfg, steps=min(done + self.chunk, ctx.cfg.steps))
            starts.clear()
            tokens.clear()
            skipped = state.skipped
            try:
                result = trainer.train(
                    ctx.provider, ctx.lm, cfg, batch_fn, start_step=done, state=state
                )
            except PROGRAM_ERRORS as e:
                loop.ops += 1
                loop.fail(f"step {done + 1}: {type(e).__name__}: {e}")
                return loop
            end = CLOCK()
            for rec in result.metrics:
                step = rec["step"]
                loop.ops += 1
                loop.losses.append(rec["loss"])
                if not math.isfinite(rec["loss"]):
                    loop.fail(f"step {step}: non-finite loss {rec['loss']}")
                stop = starts[step + 1] if step < cfg.steps else end
                loop.sample(loop.ops, stop - starts[step], tokens[step], rows, self.warmup)
            loop.skipped_updates += state.skipped - skipped
            done = cfg.steps
            if loop.ops >= min_ops and end >= deadline_ns:
                return loop

    def check(self, ctx, loop):
        if loop.skipped_updates:
            loop.fail(f"{loop.skipped_updates} optimizer updates skipped")
        if ctx.lm.param_hash() != ctx.base_hash:
            loop.fail("frozen base model changed during tuning")


class Decode:
    """Greedy eval at batch 64 over a fixed ID+OOD set with an untrained PT_MOE provider."""

    name = "decode"
    min_ops = 2
    warmup = 1
    batch_size = 64
    per_task = 64  # 4 tasks -> 4 batches, each mixing span and math examples
    oracle_examples = 3

    def __init__(self, seed, cache_dir):
        self.seed = seed
        self.cache_dir = cache_dir

    def setup(self):
        rc = config.default_run_config()
        lm = load_cached_base(rc.base, self.cache_dir)
        provider = methods.build(rc.method, lm, RngStream(self.seed).child("method"))
        examples = []
        for tasks, offset in ((rc.data.id_tasks, 2000), (rc.data.ood_tasks, 3000)):
            for task in tasks:
                examples += data.gen_synthetic(task, self.per_task, offset + self.seed)
        # shuffled so every batch holds a math example and so the same
        # generation budget: untrained prompts decode to it in full
        order = RngStream(self.seed).child("decode_order").permutation(len(examples))
        examples = [examples[i] for i in order]
        batches = [
            examples[lo : lo + self.batch_size] for lo in range(0, len(examples), self.batch_size)
        ]
        return SimpleNamespace(lm=lm, provider=provider, batches=batches, base_hash=lm.param_hash())

    def run(self, ctx, deadline_ns, min_ops, tracer=None):
        loop = Loop()
        generated = []

        def generate(*args, **kwargs):
            # looked up on the class at call time, so a traced ToyLM.generate runs
            out = ToyLM.generate(ctx.lm, *args, **kwargs)
            max_new = args[3] if len(args) > 3 else kwargs["max_new"]
            generated.append(generated_tokens(out, max_new))
            return out

        ctx.lm.generate = generate
        try:
            while True:
                chunk = ctx.batches[loop.ops % len(ctx.batches)]
                loop.ops += 1
                if tracer is not None:
                    tracer.trace_id = loop.ops
                start = CLOCK()
                try:
                    report = evaluate.eval_dataset(
                        ctx.provider, ctx.lm, chunk, batch_size=self.batch_size
                    )
                except PROGRAM_ERRORS as e:
                    loop.fail(f"batch {loop.ops}: {type(e).__name__}: {e}")
                    return loop
                end = CLOCK()
                if report["count"] != len(chunk) or report["skipped"]:
                    loop.fail(f"batch {loop.ops}: scored {report['count']} of {len(chunk)}")
                loop.sample(loop.ops, end - start, generated[-1], len(chunk), self.warmup)
                if loop.ops >= min_ops and end >= deadline_ns:
                    return loop
        finally:
            del ctx.lm.generate

    def check(self, ctx, loop):
        """Each sampled greedy token must be the argmax of a fresh full-prefix forward."""
        if ctx.lm.param_hash() != ctx.base_hash:
            loop.fail("frozen base model changed during eval")
        lm, examples = ctx.lm, ctx.batches[0]
        batch = data.build_input_batch(examples)
        prompt = ctx.provider.prompt_node(lm, batch, training=False)[0].value
        budget = max(len(data.encode_example(ex)[1]) for ex in examples) + 2
        out = lm.generate(prompt, batch.token_ids, batch.attn_mask, budget)
        picks = RngStream(self.seed).child("oracle").permutation(len(examples))
        for e in picks[: self.oracle_examples]:
            ids = [int(t) for t in batch.token_ids[e, : int(batch.attn_mask[e].sum())]]
            want = out[e] + ([EOS_ID] if len(out[e]) < budget else [])
            for j, tok in enumerate(want):
                prefix = np.array([ids + out[e][:j]])
                logits = lm.forward(prompt[e : e + 1], lm.embed(prefix), np.ones(prefix.shape))
                last = logits.value[0, -1]
                if last[tok] < last.max() - 1e-9 * (1.0 + abs(last.max())):
                    loop.fail(
                        f"example {examples[e].id}: greedy token {j} is {tok}, "
                        f"full-prefix argmax is {int(last.argmax())}"
                    )
                    break


class Pretrain:
    """pretrain.pretrain_base with the default PretrainConfig, in segments of min_ops steps.

    Each segment pretrains from scratch and is stopped from the log callback;
    segments repeat until the deadline.
    """

    name = "pretrain"
    min_ops = 100
    warmup = 5
    steps = 2000  # schedule length; segments stop long before

    def __init__(self, seed, cache_dir):
        self.seed = seed

    def setup(self):
        # what pretrain_base does before its first step
        pcfg = pretrain.PretrainConfig(seed=self.seed, steps=self.steps)
        ToyLM.create(pcfg.lm_config(), RngStream(pcfg.seed).child("lm_init"), pcfg.init_std)
        pretrain.gen_corpus(pcfg.docs, pcfg.seed)
        return SimpleNamespace(pcfg=pcfg)

    def instrument(self, tracer):
        tracer.patch(pretrain, "_doc_batch", "pretrain._doc_batch")

    def run(self, ctx, deadline_ns, min_ops, tracer=None):
        loop = Loop()
        ends, tokens, rows = [], [], []  # of the current segment
        doc_batch = pretrain._doc_batch

        def counted_doc_batch(*args, **kwargs):
            batch = doc_batch(*args, **kwargs)
            tokens.append(float(batch.attn_mask.sum()))
            rows.append(batch.size)
            return batch

        def log_fn(line):
            ends.append(CLOCK())
            loop.ops += 1
            loop.losses.append(float(line.rsplit(" ", 1)[1]))
            if not math.isfinite(loop.losses[-1]):
                loop.fail(f"step {len(ends)}: non-finite loss")
            if len(ends) > 1:
                loop.sample(loop.ops, ends[-1] - ends[-2], tokens[-1], rows[-1], self.warmup)
            if tracer is not None:
                tracer.trace_id = loop.ops + 1
            if len(ends) == min_ops or (loop.ops >= min_ops and ends[-1] >= deadline_ns):
                raise StopRun

        pretrain._doc_batch = counted_doc_batch
        try:
            while loop.ops < min_ops or CLOCK() < deadline_ns:
                for segment_list in (ends, tokens, rows):
                    segment_list.clear()
                if tracer is not None:
                    tracer.trace_id = loop.ops + 1
                try:
                    pretrain.pretrain_base(ctx.pcfg, log_every=1, log_fn=log_fn)
                except StopRun:
                    pass
        except PROGRAM_ERRORS as e:
            loop.ops += 1
            loop.fail(f"step {len(ends) + 1}: {type(e).__name__}: {e}")
        finally:
            pretrain._doc_batch = doc_batch
        return loop

    def check(self, ctx, loop):
        head = loop.losses[:5]
        if not head or not statistics.fmean(head) > loop.loss_end(self.min_ops):
            loop.fail(f"loss did not fall: first steps {head[:3]}, end {loop.loss_end(self.min_ops)}")


WORKLOADS = {w.name: w for w in (Tune, Decode, Pretrain)}

