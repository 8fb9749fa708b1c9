"""Greedy-generation evaluation: per-task metrics, split aggregates, routing stats.

Scoring is deterministic: routing runs in inference mode (no noise), the
decode is greedy, and examples are visited in dataset order. Span tasks
score by exact match and F1; math tasks additionally by answer-extraction
accuracy. The "primary" metric per task (EM for spans, extraction accuracy
for math) feeds the aggregates. Macro averages tasks equally; micro weighs
examples equally; both are reported since they genuinely differ once task
counts do.
"""

import json

import numpy as np

from . import data as dt
from . import metrics as mx
from .model import decode


def score_example(pred, gold, task):
    em = mx.exact_match(pred, gold)
    f1 = mx.f1(pred, gold)
    rec = {"em": em, "f1": f1}
    if task in dt.MATH_TASKS:
        rec["math_accuracy"] = mx.math_accuracy(pred, gold)
        rec["format_failure"] = mx.extract_answer(pred) is None
        rec["primary"] = rec["math_accuracy"]
    else:
        rec["format_failure"] = False
        rec["primary"] = em
    return rec


def _batches(kept, batch_size, k, max_seq):
    """Consecutive chunks of (example, input length, budget) that ``generate`` can run.

    A chunk closes at batch_size examples, or before an example that would
    push k + its widest input + its largest budget past max_seq.
    """
    chunk, width, budget = [], 0, 0
    for item in kept:
        _, n_in, n_new = item
        if chunk and (
            len(chunk) == batch_size or k + max(width, n_in) + max(budget, n_new) > max_seq
        ):
            yield chunk
            chunk, width, budget = [], 0, 0
        chunk.append(item)
        width, budget = max(width, n_in), max(budget, n_new)
    if chunk:
        yield chunk


def eval_dataset(
    provider,
    lm,
    examples,
    batch_size=64,
    max_new=None,
    routing_log=None,
    keep_records=False,
):
    """Score a dataset with one routed greedy generation per example.

    Examples whose prompt+input+generation budget cannot fit max_seq are
    skipped and counted, never silently dropped. Batches hold batch_size
    consecutive examples, or fewer where the batch's widest input plus its
    largest budget would not fit max_seq. Returns a JSON-able report.

    Generation runs every example of a batch to the batch's largest budget,
    so an example that emits no EOS can predict differently depending on
    its batch; a fixed ``max_new`` makes predictions independent of
    batching. ``expert_counts`` counts the examples that kept each expert,
    ``expert_load`` sums each expert's routing weight over the examples, and
    ``expert_task_counts`` tallies ``Routing.primary`` per task. With a
    router, ``routing_log`` (an open text stream) gets one JSON line per
    scored example.
    """
    routed = provider.router_w is not None
    expert_counts = np.zeros(provider.stack.shape[0], dtype=np.int64) if routed else None
    expert_load = np.zeros(provider.stack.shape[0]) if routed else None
    expert_task = {} if routed else None

    k = provider.prompt_length
    kept, skipped = [], 0
    for ex in examples:
        inp, tgt = dt.encode_example(ex)
        n_new = len(tgt) + 2 if max_new is None else max_new  # target incl. EOS, plus slack
        if k + len(inp) + n_new > lm.cfg.max_seq:
            skipped += 1
        else:
            kept.append((ex, len(inp), n_new))

    per_task = {}
    records = []
    for items in _batches(kept, batch_size, k, lm.cfg.max_seq):
        chunk = [ex for ex, _, _ in items]
        batch = dt.build_input_batch(chunk)
        prompt_node, routing = provider.prompt_node(lm, batch, training=False)
        budget = max(n_new for _, _, n_new in items)
        preds = lm.generate(prompt_node.value, batch.token_ids, batch.attn_mask, budget)
        if routing is not None:
            expert_counts += routing.mask.sum(axis=0).astype(np.int64)
            expert_load += routing.weights.sum(axis=0)
            routing.tally_primary(batch.tasks, expert_task)
            if routing_log is not None:
                for ex, mask, weights, soft in zip(
                    chunk, routing.mask, routing.weights, routing.soft
                ):
                    routing_log.write(
                        json.dumps(
                            {
                                "id": ex.id,
                                "task": ex.task,
                                "selected": np.flatnonzero(mask).tolist(),
                                "weights": weights.tolist(),
                                "soft": soft.tolist(),
                            }
                        )
                        + "\n"
                    )
        for ex, pred_ids in zip(chunk, preds):
            pred = decode(pred_ids)
            rec = score_example(pred, ex.target, ex.task)
            slot = per_task.setdefault(
                ex.task,
                {"count": 0, "em": 0.0, "f1": 0.0, "math_accuracy": 0.0,
                 "format_failures": 0, "primary": 0.0},
            )
            slot["count"] += 1
            slot["em"] += rec["em"]
            slot["f1"] += rec["f1"]
            slot["math_accuracy"] += rec.get("math_accuracy", 0.0)
            slot["format_failures"] += int(rec["format_failure"])
            slot["primary"] += rec["primary"]
            if keep_records:
                records.append({"id": ex.id, "task": ex.task, "pred": pred, **rec})

    for task, slot in per_task.items():
        c = slot["count"]
        slot["primary_sum"] = slot["primary"]
        for key in ("em", "f1", "math_accuracy", "primary"):
            slot[key] = slot[key] / c if c else 0.0
        if task not in dt.MATH_TASKS:
            del slot["math_accuracy"]

    report = {
        "count": len(kept),
        "skipped": skipped,
        "per_task": per_task,
        "expert_counts": None if expert_counts is None else expert_counts.tolist(),
        "expert_load": None if expert_load is None else expert_load.tolist(),
        "expert_task_counts": None
        if expert_task is None
        else {t: v.tolist() for t, v in expert_task.items()},
    }
    if keep_records:
        report["records"] = records
    return report


def aggregate(report, tasks):
    """Macro and micro primary-metric averages over the named tasks."""
    present = [t for t in tasks if t in report["per_task"]]
    if not present:
        return {"tasks": list(tasks), "count": 0, "macro": 0.0, "micro": 0.0}
    slots = [report["per_task"][t] for t in present]
    total = sum(s["count"] for s in slots)
    return {
        "tasks": list(tasks),
        "count": total,
        "macro": float(np.mean([s["primary"] for s in slots])),
        "micro": float(sum(s["primary_sum"] for s in slots) / total) if total else 0.0,
    }


def split_report(provider, lm, id_examples, ood_examples, **kw):
    """Evaluate both splits and attach labeled aggregates."""
    id_tasks = sorted({ex.task for ex in id_examples})
    ood_tasks = sorted({ex.task for ex in ood_examples})
    rep_id = eval_dataset(provider, lm, id_examples, **kw)
    rep_ood = eval_dataset(provider, lm, ood_examples, **kw)
    return {
        "in_domain": {**rep_id, "aggregate": aggregate(rep_id, id_tasks)},
        "out_of_domain": {**rep_ood, "aggregate": aggregate(rep_ood, ood_tasks)},
    }
