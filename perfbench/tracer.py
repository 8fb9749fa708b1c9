"""In-memory span tracer that wraps promptmoe's public functions from outside.

``Tracer.install`` replaces every public function and public method of each
module in the package with a timing wrapper, in the places callers look the
name up: the defining module's globals, every other module that imported the
function by name (``from .trainer import adamw_step``), and the class
dictionary for methods (``ToyLM.forward``). Autodiff ops additionally get
their node's ``vjp`` closure wrapped, so backward time is attributed to the
op that recorded the node. ``uninstall`` puts the originals back.

Each call is one span: (span id, parent span id, trace id, name id, start ns,
end ns). The trace id is the benchmark operation (optimizer step or eval
batch) the span belongs to. Spans stay in memory until ``dump``. Per-name
aggregates (calls, inclusive ns, self ns) are kept per section ("setup" or
"loop"); self time is the span's duration minus the time its child spans
cover. Post-call hooks add counters (positions forwarded, flops, tape size);
their own cost is charged to no span.
"""

import importlib
import inspect
import itertools
import json
import pkgutil
import time

import numpy as np

CLOCK = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self._nids = {}
        self.spans = []
        self.stats = {}  # section -> {name id: [calls, inclusive ns, self ns]}
        self.counts = {}  # section -> {counter name: value}
        self.trace_id = 0
        self._stack = []  # open frames: [span id, child ns, name id]
        self._new_span_id = itertools.count(1).__next__
        self._patched = []
        self.set_section("setup")

    # ------------------------------------------------------------------ spans

    def set_section(self, section):
        self._stats = self.stats.setdefault(section, {})
        self._counts = self.counts.setdefault(section, {})

    def nid(self, name):
        nid = self._nids.get(name)
        if nid is None:
            nid = self._nids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter, value):
        self._counts[counter] = self._counts.get(counter, 0) + value

    def active(self, name):
        nid = self._nids.get(name)
        return any(frame[2] == nid for frame in self._stack)

    def wrap(self, name, fn, post=None):
        """A callable that runs ``fn`` inside a span called ``name``."""
        nid = self.nid(name)
        stack = self._stack
        new_span_id = self._new_span_id
        spans = self.spans

        def traced(*args, **kwargs):
            sid = new_span_id()
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0, nid]
            stack.append(frame)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                stack.pop()
                dur = t1 - t0
                agg = self._stats.get(nid)
                if agg is None:
                    agg = self._stats[nid] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.trace_id, nid, t0, t1))
            if post is not None:
                h0 = CLOCK()
                post(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += CLOCK() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------------- patching

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name):
        """Wrap one attribute by hand (used for private step-boundary functions)."""
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self, package, hooks):
        """Wrap every public function and method of every module in ``package``.

        ``hooks`` maps span names to post-call hooks ``hook(tracer, args,
        kwargs, result)``.
        """
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, hooks.get(name))
                    self._patch(mod, attr, wrappers[obj])
                elif inspect.isclass(obj):
                    self._install_methods(obj, short, hooks)
        # names other modules imported with ``from .x import f`` still point
        # at the original function object
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def _install_methods(self, cls, short, hooks):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(name, obj, hooks.get(name)))
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapped = self.wrap(name, obj.__func__, hooks.get(name))
                self._patch(cls, attr, type(obj)(wrapped))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------------- results

    def stat(self, section, name):
        """(calls, inclusive ms, self ms) of one span name in one section."""
        nid = self._nids.get(name)
        calls, incl, own = self.stats.get(section, {}).get(nid, (0, 0, 0))
        return calls, incl / 1e6, own / 1e6

    def count(self, section, counter):
        return self.counts.get(section, {}).get(counter, 0)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["span_id", "parent_id", "trace_id", "name_id", "start_ns", "end_ns"],
                    "names": self.names,
                    "spans": self.spans,
                },
                f,
            )


# --------------------------------------------------------------------- hooks
#
# Post-call hooks keyed by span name. They count work where it happens and
# wrap each autodiff node's vjp closure as a span of its own.

AUTODIFF_OPS = (
    "add", "sub", "neg", "mul", "matmul", "transpose", "reshape", "concat",
    "embedding", "softmax", "masked_softmax", "layernorm", "gelu", "mean_rows",
    "sum_all", "scale", "masked_nll", "stop_gradient", "expert_mix",
)


def _wrap_vjp(op):
    def hook(tracer, args, kwargs, result):
        node = result[0] if isinstance(result, tuple) else result  # masked_nll: (node, count)
        if getattr(node, "vjp", None) is not None:
            node.vjp = tracer.wrap(f"autodiff.{op}.vjp", node.vjp)

    return hook


def _matmul(tracer, args, kwargs, result):
    a = args[0].value if hasattr(args[0], "value") else np.asarray(args[0])
    flops = 2.0 * result.value.size * a.shape[-1]
    tracer.add("autodiff.matmul.flops", flops)

    def vjp_flops(tracer, args, kwargs, out):
        tracer.add("autodiff.matmul.flops", 2.0 * flops)  # dA and dB

    result.vjp = tracer.wrap("autodiff.matmul.vjp", result.vjp, vjp_flops)


def generated_tokens(outputs, max_new):
    """Tokens ``ToyLM.generate`` produced, counting the EOS that stopped a row."""
    return sum(len(o) + (len(o) < max_new) for o in outputs)


def _generate(tracer, args, kwargs, result):
    max_new = args[4] if len(args) > 4 else kwargs["max_new"]
    tracer.add("model.generate.tokens", generated_tokens(result, max_new))


def _forward(tracer, args, kwargs, result):
    positions = result.value.shape[0] * result.value.shape[1]
    tracer.add("model.forward.positions", positions)
    if tracer.active("model.generate"):
        tracer.add("model.generate.positions", positions)


def _backward(tracer, args, kwargs, result):
    """Tape size and the adjoints spent on unnamed constant leaves."""
    seen = set()
    todo = [args[0]]
    nodes = consts = const_bytes = 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        if not node.parents and node.name is None and node.grad is not None:
            consts += 1
            const_bytes += node.grad.nbytes
        todo.extend(node.parents)
    tracer.add("autodiff.tape_nodes", nodes)
    tracer.add("autodiff.const_adjoints", consts)
    tracer.add("autodiff.const_adjoint_bytes", const_bytes)


def _build_batch(tracer, args, kwargs, result):
    tracer.add("data.build_batch.tokens", float(result.attn_mask.sum()))
    tracer.add("data.build_batch.positions", result.attn_mask.size)


def _adamw_step(tracer, args, kwargs, result):
    if result is False:
        tracer.add("trainer.skipped_updates", 1)


def _eval_dataset(tracer, args, kwargs, result):
    tracer.add("evaluate.skipped_examples", result["skipped"])


HOOKS = {f"autodiff.{op}": _wrap_vjp(op) for op in AUTODIFF_OPS}
HOOKS.update(
    {
        "autodiff.matmul": _matmul,
        "autodiff.backward": _backward,
        "model.forward": _forward,
        "model.generate": _generate,
        "data.build_batch": _build_batch,
        "trainer.adamw_step": _adamw_step,
        "evaluate.eval_dataset": _eval_dataset,
    }
)
