"""Per-layer metrics computed from a traced run.

Every metric is listed once in ``SPECS`` with its unit, which way is better,
how it is computed, and the workloads on which its layer must do work. On
those workloads ``missing`` reports any metric whose span received no calls,
so a renamed function cannot silently zero a layer.

Normalisation: ``calls``, ``*_ms`` and counters of the timed loop are per
operation, i.e. per optimizer step on tune/pretrain and per 64-example eval
batch on decode. ``*_ms`` is self time (span duration minus its child spans);
``*.incl_ms`` and ``trainer.phase.*`` are inclusive. Set-up layers
(``linalg.truncated_svd``, ``kernels.jacobi_sweeps``, ``pretrain.ensure_base``,
``pretrain.gen_corpus``) are ms per call during one traced set-up.
"""

ALL = ("tune", "decode", "pretrain")
TRAIN = ("tune", "pretrain")
ROUTED = ("tune", "decode")

# inclusive spans that split a training step, per workload
PHASES = {
    "tune": {
        "data_ms": "data.batch_fn",
        "forward_ms": "methods.loss_on_batch",
        "backward_ms": "autodiff.backward",
        "optimizer_ms": "trainer.adamw_step",
    },
    "pretrain": {
        "data_ms": "pretrain._doc_batch",
        "forward_ms": "model.loss_on_tokens",
        "backward_ms": "autodiff.backward",
        "optimizer_ms": "trainer.adamw_step",
    },
}

# autodiff ops the model calls, and the workloads that call them
OPS = {
    "matmul": ALL,
    "add": ALL,
    "mul": ALL,
    "gelu": ALL,
    "layernorm": ALL,
    "masked_softmax": ALL,
    "masked_nll": TRAIN,
    "transpose": ALL,
    "reshape": ALL,
    "concat": ROUTED,
    "embedding": ("pretrain",),
    "expert_mix": ROUTED,
    "softmax": ROUTED,
    "scale": ALL,
}


class Run:
    """What a metric function may read: the tracer plus run-level figures."""

    def __init__(self, tracer, workload, ops, base_p50_ms, traced_p50_ms, loss_end):
        self.tracer = tracer
        self.workload = workload
        self.ops = max(ops, 1)
        self.base_p50_ms = base_p50_ms
        self.traced_p50_ms = traced_p50_ms
        self.loss_end = loss_end

    def calls(self, name):
        return self.tracer.stat("loop", name)[0] / self.ops

    def self_ms(self, name):
        return self.tracer.stat("loop", name)[2] / self.ops

    def incl_ms(self, name):
        return self.tracer.stat("loop", name)[1] / self.ops

    def setup_ms(self, name, field):
        """Inclusive (field 1) or self (field 2) ms per call during set-up."""
        stat = self.tracer.stat("setup", name)
        return stat[field] / stat[0] if stat[0] else 0.0

    def count(self, counter):
        return self.tracer.count("loop", counter)

    def per_op(self, counter):
        return self.count(counter) / self.ops

    def per_backward(self, counter):
        calls = self.tracer.stat("loop", "autodiff.backward")[0]
        return self.count(counter) / calls if calls else 0.0

    def phase(self, key):
        span = PHASES.get(self.workload, {}).get(key)
        return self.incl_ms(span) if span else 0.0

    def overhead(self):
        return self.traced_p50_ms / self.base_p50_ms - 1.0

    def coverage(self):
        if self.workload not in PHASES:
            return 0.0
        total = sum(self.phase(key) for key in PHASES[self.workload])
        return total / (1.0 + self.overhead()) / self.base_p50_ms

    def pad_frac(self):
        positions = self.count("data.build_batch.positions")
        return 1.0 - self.count("data.build_batch.tokens") / positions if positions else 0.0

    def useful_position_frac(self):
        positions = self.count("model.generate.positions")
        return self.count("model.generate.tokens") / positions if positions else 0.0

    def gflops(self):
        ns = 1e6 * sum(
            self.tracer.stat("loop", name)[1] for name in ("autodiff.matmul", "autodiff.matmul.vjp")
        )
        return self.count("autodiff.matmul.flops") / ns if ns else 0.0


def _specs():
    """(name, unit, better, value fn, span that must be called, workloads)."""
    specs = [
        ("data.build_batch.calls", "count", "lower", lambda r: r.calls("data.build_batch"), "data.build_batch", ("tune",)),
        ("data.build_batch.self_ms", "ms", "lower", lambda r: r.self_ms("data.build_batch"), "data.build_batch", ("tune",)),
        ("data.build_input_batch.self_ms", "ms", "lower", lambda r: r.self_ms("data.build_input_batch"), "data.build_input_batch", ("decode",)),
        ("data.pad_frac", "ratio", "lower", Run.pad_frac, "data.build_batch", ("tune",)),
    ]
    for key in ("data_ms", "forward_ms", "backward_ms", "optimizer_ms"):
        specs.append((f"trainer.phase.{key}", "ms", "lower", lambda r, k=key: r.phase(k), None, TRAIN))
    specs += [
        ("trainer.phase.coverage", "ratio", "higher", Run.coverage, None, TRAIN),
        ("methods.prompt_node.calls", "count", "lower", lambda r: r.calls("methods.prompt_node"), "methods.prompt_node", ROUTED),
        ("methods.prompt_node.self_ms", "ms", "lower", lambda r: r.self_ms("methods.prompt_node"), "methods.prompt_node", ROUTED),
        ("router.route_batch.calls", "count", "lower", lambda r: r.calls("router.route_batch"), "router.route_batch", ROUTED),
        ("router.route_batch.self_ms", "ms", "lower", lambda r: r.self_ms("router.route_batch"), "router.route_batch", ROUTED),
    ]
    for span, wls in (
        ("linalg.truncated_svd", ROUTED),
        ("kernels.jacobi_sweeps", ROUTED),
        ("pretrain.ensure_base", ROUTED),
        ("pretrain.gen_corpus", ("pretrain",)),
    ):
        specs.append((f"{span}.self_ms", "ms", "lower", lambda r, s=span: r.setup_ms(s, 2), ("setup", span), wls))
    for span, wls in (("pretrain.ensure_base", ROUTED), ("pretrain.gen_corpus", ("pretrain",))):
        specs.append((f"{span}.incl_ms", "ms", "lower", lambda r, s=span: r.setup_ms(s, 1), ("setup", span), wls))
    specs += [
        ("model.forward.calls", "count", "lower", lambda r: r.calls("model.forward"), "model.forward", ROUTED),
        ("model.forward.self_ms", "ms", "lower", lambda r: r.self_ms("model.forward"), "model.forward", ROUTED),
        ("model.forward.positions", "count", "lower", lambda r: r.per_op("model.forward.positions"), "model.forward", ROUTED),
        ("model.forward_tokens.self_ms", "ms", "lower", lambda r: r.self_ms("model.forward_tokens"), "model.forward_tokens", ("pretrain",)),
        ("model.generate.self_ms", "ms", "lower", lambda r: r.self_ms("model.generate"), "model.generate", ("decode",)),
        ("model.generate.useful_position_frac", "ratio", "higher", Run.useful_position_frac, "model.generate", ("decode",)),
    ]
    for op, wls in OPS.items():
        span = f"autodiff.{op}"
        specs += [
            (f"{span}.calls", "count", "lower", lambda r, s=span: r.calls(s), span, wls),
            (f"{span}.fwd_ms", "ms", "lower", lambda r, s=span: r.self_ms(s), span, wls),
            (f"{span}.vjp_ms", "ms", "lower", lambda r, s=span: r.self_ms(s + ".vjp"), span + ".vjp",
             tuple(w for w in wls if w in TRAIN)),
        ]
    specs += [
        ("autodiff.matmul.gflops", "GFLOP/s", "higher", Run.gflops, "autodiff.matmul", ALL),
        ("autodiff.backward.calls", "count", "lower", lambda r: r.calls("autodiff.backward"), "autodiff.backward", TRAIN),
        ("autodiff.backward.self_ms", "ms", "lower", lambda r: r.self_ms("autodiff.backward"), "autodiff.backward", TRAIN),
        ("autodiff.tape_nodes", "count", "lower", lambda r: r.per_backward("autodiff.tape_nodes"), "autodiff.backward", TRAIN),
        ("autodiff.const_adjoints", "count", "lower", lambda r: r.per_backward("autodiff.const_adjoints"), "autodiff.backward", TRAIN),
        ("autodiff.const_adjoint_bytes", "B", "lower", lambda r: r.per_backward("autodiff.const_adjoint_bytes"), "autodiff.backward", TRAIN),
        ("kernels.masked_softmax.self_ms", "ms", "lower", lambda r: r.self_ms("kernels.masked_softmax"), "kernels.masked_softmax", ALL),
        ("kernels.nll_fwd_bwd.self_ms", "ms", "lower", lambda r: r.self_ms("kernels.nll_fwd_bwd"), "kernels.nll_fwd_bwd", TRAIN),
        ("kernels.adamw_update.self_ms", "ms", "lower", lambda r: r.self_ms("kernels.adamw_update"), "kernels.adamw_update", TRAIN),
        ("trainer.skipped_updates", "count", "lower", lambda r: r.count("trainer.skipped_updates"), None, ()),
        ("trainer.loss_end", "nats", "lower", lambda r: r.loss_end, None, ()),
        ("evaluate.score_example.self_ms", "ms", "lower", lambda r: r.self_ms("evaluate.score_example"), "evaluate.score_example", ("decode",)),
        ("evaluate.skipped_examples", "count", "lower", lambda r: r.count("evaluate.skipped_examples"), None, ()),
        ("trace.overhead_frac", "ratio", "lower", Run.overhead, None, ()),
    ]
    return specs


SPECS = _specs()
UNITS = {name: unit for name, unit, *_ in SPECS}


def compute(run):
    """{metric name: value} for every per-layer metric."""
    return {name: float(fn(run)) for name, _, _, fn, _, _ in SPECS}


def missing(tracer, workload):
    """Metrics listed for this workload whose span was never called."""
    out = []
    for name, _, _, _, span, wls in SPECS:
        if span is None or workload not in wls:
            continue
        section, span = span if isinstance(span, tuple) else ("loop", span)
        if tracer.stat(section, span)[0] == 0:
            out.append(f"{name} (span {span} in {section} received no calls)")
    for key, span in PHASES.get(workload, {}).items():
        if tracer.stat("loop", span)[0] == 0:
            out.append(f"trainer.phase.{key} (span {span} received no calls)")
    return out
