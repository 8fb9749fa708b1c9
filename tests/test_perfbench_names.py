"""The names the benchmark traces still exist in the package.

``perfbench/layers.py`` reads every per-layer figure from a span named
``module.function`` or ``module.method``. A rename or deletion in
``src/promptmoe`` would leave such a span uncalled, which only the slow
benchmark smoke runs notice; this check fails in well under a second.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
# wrapped by the benchmark itself, not a package function
NOT_PACKAGE = {"data.batch_fn"}
# called directly by the benchmark: patched by hand, or read for its environment record
CALLED = {"pretrain._doc_batch", "kernels.active_backend"}


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def span_names(layers):
    names = set(CALLED)
    for *_, span, _ in layers.SPECS:
        if span is not None:
            names.add(span[1] if isinstance(span, tuple) else span)
    for phases in layers.PHASES.values():
        names.update(phases.values())
    return {n for n in names if n not in NOT_PACKAGE and not n.endswith(".vjp")}


def defines(module, attr):
    """True if ``module`` defines a function ``attr`` or a class with method ``attr``."""
    obj = vars(module).get(attr)
    if inspect.isfunction(obj) and obj.__module__ == module.__name__:
        return True
    return any(
        inspect.isclass(cls)
        and cls.__module__ == module.__name__
        and inspect.isfunction(vars(cls).get(attr))
        for cls in vars(module).values()
    )


def test_every_traced_span_names_a_package_function():
    names = span_names(load_layers())
    assert {"model.forward", "autodiff.softmax", "pretrain._doc_batch"} <= names
    missing = []
    for name in sorted(names):
        short, attr = name.split(".", 1)
        module = importlib.import_module(f"promptmoe.{short}")
        if not defines(module, attr):
            missing.append(name)
    assert not missing, f"perfbench traces spans with no function behind them: {missing}"
