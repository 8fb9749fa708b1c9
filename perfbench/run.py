"""The promptmoe benchmark: one workload, one fresh process, one caller.

    python3 perfbench/run.py --workload {tune,decode,pretrain} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout. BLAS is pinned to one thread before numpy
is imported. The last line of stdout is the result, a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the environment manifest, also written under ``perfbench/out/``.

``--trace 0`` sets up several times, runs the closed loop for S seconds with
hooks only at operation boundaries, and reports the end-to-end metrics.
An operation is an optimizer step on tune/pretrain and a 64-example eval
batch on decode:

    setup_s         import + median set-up (base load or corpus, provider, data)
    step_ms.p50/p90 time per operation (sample count in the manifest)
    tokens_per_s    tune/pretrain: non-pad input tokens per second of step time;
                    decode: generated tokens (EOS included) per second
    examples_per_s  tune/pretrain: training rows per second; decode: eval examples/s
    peak_rss_mb     peak resident set size of the process

Operations that fail a check count in ``failed`` (failed_frac is
failed/attempted). ``--trace 1`` runs S/2 seconds untraced, then sets up
and runs S/2 seconds with every public function of ``src/promptmoe``
wrapped (see tracer.py), and reports the per-layer metrics of layers.py.
``--smoke`` runs each loop for a few operations only.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(ROOT, ".cache")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SMOKE_OPS = {"tune": 10, "decode": 1, "pretrain": 20}

END_TO_END = {
    "setup_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "tokens_per_s": "1/s",
    "examples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(loop, setup_s):
    ms = [d / 1e6 for d in loop.durations_ns]
    return {
        "setup_s": setup_s,
        "step_ms.p50": percentile(ms, 50),
        "step_ms.p90": percentile(ms, 90),
        "tokens_per_s": statistics.median(t / (d / 1e9) for t, d in zip(loop.tokens, loop.durations_ns)),
        "examples_per_s": statistics.median(e / (d / 1e9) for e, d in zip(loop.examples, loop.durations_ns)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def deadline(seconds):
    return time.perf_counter_ns() + int(seconds * 1e9)


def timed_run(workload, seconds, import_s, repeats):
    setups = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - t0)
    loop = workload.run(ctx, deadline(seconds), workload.min_ops).require_samples()
    workload.check(ctx, loop)
    setup_s = import_s + statistics.median(setups)
    info = {"setup_samples": len(setups), "op_samples": len(loop.durations_ns), "ops": loop.ops}
    return ctx, [loop], end_to_end(loop, setup_s), END_TO_END, info, []


def traced_run(workload, seconds, promptmoe, tracer_mod, layers):
    ctx = workload.setup()
    base = workload.run(ctx, deadline(seconds / 2), workload.min_ops).require_samples()
    workload.check(ctx, base)

    tr = tracer_mod.Tracer()
    tr.install(promptmoe, tracer_mod.HOOKS)
    if hasattr(workload, "instrument"):
        workload.instrument(tr)
    try:
        tr.set_section("setup")
        traced_ctx = workload.setup()
        tr.set_section("loop")
        traced = workload.run(traced_ctx, deadline(seconds / 2), workload.min_ops, tracer=tr)
    finally:
        tr.uninstall()
    traced.require_samples()
    workload.check(traced_ctx, traced)

    run = layers.Run(
        tr, workload.name, traced.ops, base.p50_ms(), traced.p50_ms(), base.loss_end(workload.min_ops)
    )
    metrics = layers.compute(run)
    problems = layers.missing(tr, workload.name)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload.name}.json")  # the last traced run
    tr.dump(spans)
    info = {
        "op_samples": len(base.durations_ns),
        "traced_op_samples": len(traced.durations_ns),
        "traced_ops": traced.ops,
        "spans": len(tr.spans),
        "spans_file": os.path.relpath(spans, ROOT),
    }
    return ctx, [base, traced], metrics, layers.UNITS, info, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("tune", "decode", "pretrain"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few operations per loop")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "promptmoe", "__init__.py")):
        print(f"perfbench: no promptmoe package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import promptmoe
    import promptmoe.cli  # noqa: F401  (imports every module a CLI run uses)

    import_s = time.perf_counter() - t0

    import environment
    import layers
    import tracer as tracer_mod
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, CACHE_DIR)
    seconds, repeats = args.seconds, SETUP_REPEATS
    if args.smoke:
        workload.min_ops, workload.warmup = SMOKE_OPS[args.workload], 0
        seconds, repeats = 0.0, 1
    manifest = environment.manifest(ROOT, SRC)
    try:
        if args.trace:
            ctx, loops, values, units, info, problems = traced_run(
                workload, seconds, promptmoe, tracer_mod, layers
            )
        else:
            ctx, loops, values, units, info, problems = timed_run(
                workload, seconds, import_s, repeats
            )
    except workloads.SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    except workloads.NoSamples as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1

    base_hash = getattr(ctx, "base_hash", None)
    manifest.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "base_param_hash": base_hash,
            "base_cache": "hit" if base_hash else "not used",
            "import_s": import_s,
            **info,
            "loadavg_end": environment.loadavg(),
        }
    )
    attempted = sum(loop.ops for loop in loops)
    failed = min(attempted, sum(loop.failed for loop in loops))
    for message in [e for loop in loops for e in loop.errors] + problems:
        print(f"perfbench: {message}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    name = f"manifest-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
    print(json.dumps({"manifest": manifest}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
