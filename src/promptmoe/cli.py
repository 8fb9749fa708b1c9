"""Command-line front end.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
Progress goes to stderr; machine-readable results go to stdout.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from . import config as cf
from . import data as dt
from . import evaluate as ev
from . import methods as mt
from . import pretrain as pt
from . import runner, sweep
from .errors import ConfigError, DataError, NumericalError


def _say(quiet):
    if quiet:
        return lambda *_: None
    return lambda *a: print(*a, file=sys.stderr)


def _load_config(path):
    return cf.load(path) if path else cf.default_run_config()


def _add_common(p):
    p.add_argument("--config", help="JSON run config (defaults to the shipped setup)")
    p.add_argument("--cache-dir", default=".cache", help="base-model cache directory")
    p.add_argument("--quiet", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(prog="promptmoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain-base", help="pretrain (or load) the frozen base model")
    _add_common(p)
    p.add_argument("--force", action="store_true", help="retrain even if cached")

    p = sub.add_parser("train", help="train one method and evaluate it")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="directory for checkpoint/metrics/report")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="JSONL dataset; defaults to the config test splits")
    p.add_argument("--routing-log", help="write per-example routing decisions here")

    p = sub.add_parser("sweep", help="vary one axis, train each value")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--axis", required=True, choices=sweep.AXES)
    p.add_argument("--values", help="comma-separated values (routing_mode enumerates itself)")
    p.add_argument("--out", help="directory for sweep.json / sweep.txt")

    p = sub.add_parser("inspect-routing", help="route a dataset, print expert usage")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="JSONL dataset; defaults to the config ID test split")
    p.add_argument("--limit", type=int, default=8, help="example rows to print")

    p = sub.add_parser("param-table", help="print the trainable-parameter budget table")
    p.add_argument("--hidden", type=int, default=2048, help="reference width")
    p.add_argument("--scale-to", type=int, help="also print the table scaled to this width")
    return parser


def cmd_pretrain_base(args):
    rc = _load_config(args.config)
    say = _say(args.quiet)
    path = pt.base_path(rc.base, args.cache_dir)
    if args.force:
        lm, final = pt.pretrain_base(rc.base, log_every=100, log_fn=say)
        pt.save_base(path, rc.base, lm)
        say(f"pretrained to loss {final:.4f}")
    else:
        lm, path = pt.ensure_base(rc.base, args.cache_dir, log_every=100, log_fn=say)
    print(path)
    return 0


def cmd_train(args):
    rc = _load_config(args.config)
    say = _say(args.quiet)
    out, _, _ = runner.run_training(
        rc, seed=args.seed, cache_dir=args.cache_dir, out_dir=args.out, log_fn=say
    )
    slim = {k: v for k, v in out.items() if k != "losses"}
    print(json.dumps(slim, indent=2))
    return 0


def cmd_eval(args):
    rc = _load_config(args.config)
    provider, lm, _, _, _ = runner.load_provider(rc, args.checkpoint, cache_dir=args.cache_dir)
    examples = dt.load_jsonl(args.data) if args.data else None
    log_file = open(args.routing_log, "w", encoding="utf-8") if args.routing_log else None
    with log_file or contextlib.nullcontext() as log:
        kw = dict(
            batch_size=rc.eval.batch_size,
            max_new=rc.eval.max_new or None,
            routing_log=log,
        )
        if examples is not None:
            rep = ev.eval_dataset(provider, lm, examples, **kw)
            rep["aggregate"] = ev.aggregate(rep, sorted({ex.task for ex in examples}))
        else:
            _, test_id, test_ood = runner.build_datasets(rc.data)
            rep = ev.split_report(provider, lm, test_id, test_ood, **kw)
    print(json.dumps(rep, indent=2))
    return 0


def cmd_sweep(args):
    rc = _load_config(args.config)
    values = [v.strip() for v in args.values.split(",")] if args.values else []
    spec = sweep.SweepSpec(axis=args.axis, values=values)
    payload = sweep.run_sweep(
        spec, rc, args.seed, cache_dir=args.cache_dir, out_dir=args.out,
        log_fn=_say(args.quiet),
    )
    print(sweep.format_table(payload["axis"], payload["legs"]))
    return 0


def cmd_inspect_routing(args):
    rc = _load_config(args.config)
    provider, lm, _, _, _ = runner.load_provider(rc, args.checkpoint, cache_dir=args.cache_dir)
    if provider.router_w is None:
        raise ConfigError(f"{provider.cfg.kind} has no router to inspect")
    if args.data:
        examples = dt.load_jsonl(args.data)
    else:
        _, examples, _ = runner.build_datasets(rc.data)
    # routing only, no generation: route every example and tally
    counts = {}
    rows = []
    for lo in range(0, len(examples), rc.eval.batch_size):
        chunk = examples[lo : lo + rc.eval.batch_size]
        batch = dt.build_input_batch(chunk)
        _, routing = provider.prompt_node(lm, batch, training=False)
        routing.tally_primary(batch.tasks, counts)
        for ex, mask, weights in zip(chunk, routing.mask, routing.weights):
            if len(rows) < args.limit:
                rows.append((ex.id, ex.task, np.flatnonzero(mask), np.round(weights, 4)))
    print("per-task primary-expert counts:")
    for task, row in sorted(counts.items()):
        print(f"  {task:>12}: {row.tolist()}")
    print(f"first {len(rows)} decisions:")
    for rid, task, sel, w in rows:
        print(f"  {rid:>24} {task:>12} selected={sel.tolist()} weights={w.tolist()}")
    return 0


def cmd_param_table(args):
    for flag, width in (("--hidden", args.hidden), ("--scale-to", args.scale_to)):
        if width is not None and width < 1:
            raise ConfigError(f"{flag} must be >= 1, got {width}")

    def emit(h):
        print(f"trainable parameters at hidden={h}:")
        for kind, count, label, target, rel in mt.budget_table(h):
            print(f"  {kind:>7}: {count:>7,} ({label})  target {target:>9,.1f}  {rel:+.1%}")

    emit(args.hidden)
    if args.scale_to is not None:
        emit(args.scale_to)
    return 0


HANDLERS = {
    "pretrain-base": cmd_pretrain_base,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "inspect-routing": cmd_inspect_routing,
    "param-table": cmd_param_table,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
