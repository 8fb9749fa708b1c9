"""Synthetic task generators, JSONL datasets, and batch assembly.

Two task families stand in for span extraction (copy_span, reverse) and
math word problems (mod_add, mod_mul). Inputs and targets are plain text;
ids are unique within a generated set. The JSONL schema is one object per
line with exactly the keys input/target/task/id.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .linalg import RngStream
from .model import EOS_ID, PAD_ID, Batch, encode

TASKS = ("copy_span", "reverse", "mod_add", "mod_mul")
SEPARATOR = "\n"  # marks where the answer begins
ANSWER_PREFIX = "The answer is: "
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Example:
    input: str
    target: str
    task: str
    id: str


def _span(rng, n_words):
    return " ".join(LETTERS[i] for i in rng.integers(0, 26, n_words))


def gen_synthetic(task, count, seed):
    """Deterministic examples for one task; ids embed (task, seed, index)."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}, expected one of {TASKS}")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    out = []
    for i in range(count):
        rng = RngStream(seed).child("data", task, i).generator()
        if task in ("copy_span", "reverse"):
            span = _span(rng, int(rng.integers(3, 6)))
            if task == "copy_span":
                ex = Example(f"copy: {span}", span, task, f"{task}-{seed}-{i}")
            else:
                rev = " ".join(reversed(span.split()))
                ex = Example(f"reverse: {span}", rev, task, f"{task}-{seed}-{i}")
        else:
            x, y = (int(v) for v in rng.integers(0, 10, 2))
            op, val = ("+", (x + y) % 10) if task == "mod_add" else ("*", (x * y) % 10)
            ex = Example(
                f"{x}{op}{y} (mod 10)",
                f"{ANSWER_PREFIX}{val}",
                task,
                f"{task}-{seed}-{i}",
            )
        out.append(ex)
    return out


def save_jsonl(path, examples):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(
                json.dumps(
                    {"input": ex.input, "target": ex.target, "task": ex.task, "id": ex.id}
                )
                + "\n"
            )


def load_jsonl(path):
    examples = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: not valid JSON: {e}") from None
            missing = {"input", "target", "task", "id"} - rec.keys()
            if missing:
                raise DataError(f"{path}:{lineno}: missing keys {sorted(missing)}")
            if not rec["target"]:
                raise DataError(f"{path}:{lineno}: empty target")
            if rec["id"] in seen:
                raise DataError(f"{path}:{lineno}: duplicate id {rec['id']!r}")
            seen.add(rec["id"])
            examples.append(Example(rec["input"], rec["target"], rec["task"], rec["id"]))
    return examples


def encode_example(ex):
    """(input ids incl. separator, target ids incl. EOS)."""
    return encode(ex.input + SEPARATOR), encode(ex.target) + [EOS_ID]


def pad_right(seqs):
    """(ids, attn): token lists right-padded with PAD to the longest, and their 0/1 mask."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    attn = np.zeros((len(seqs), width))
    for e, s in enumerate(seqs):
        ids[e, : len(s)] = s
        attn[e, : len(s)] = 1.0
    return ids, attn


def build_batch(examples, max_seq=None):
    """Right-padded batch; the loss mask covers answer tokens and EOS only."""
    pairs = [encode_example(ex) for ex in examples]
    ids, attn = pad_right([inp + tgt for inp, tgt in pairs])
    if max_seq is not None and ids.shape[1] > max_seq:
        raise DataError(f"an example needs {ids.shape[1]} tokens, over the {max_seq} limit")
    loss = attn.copy()
    for e, (inp, _) in enumerate(pairs):
        loss[e, : len(inp)] = 0.0
    return Batch(
        token_ids=ids,
        attn_mask=attn,
        loss_mask=loss,
        tasks=[ex.task for ex in examples],
        ids=[ex.id for ex in examples],
    )


def build_input_batch(examples, max_seq=None):
    """Inputs only (with separator), for generation."""
    ids, attn = pad_right([encode(ex.input + SEPARATOR) for ex in examples])
    if max_seq is not None and ids.shape[1] > max_seq:
        raise DataError(f"an input needs {ids.shape[1]} tokens, over the {max_seq} limit")
    return Batch(
        token_ids=ids,
        attn_mask=attn,
        loss_mask=np.zeros_like(attn),
        tasks=[ex.task for ex in examples],
        ids=[ex.id for ex in examples],
    )


def make_batch_fn(dataset, batch_size, seed, max_seq=None):
    """Stateless micro-batch sampler: a pure function of (step, micro)."""
    if not dataset:
        raise DataError("empty training dataset")
    root = RngStream(seed)

    def batch_fn(step, micro):
        idx = root.child("batch", step, micro).integers(0, len(dataset), (batch_size,))
        return build_batch([dataset[i] for i in idx], max_seq=max_seq)

    return batch_fn
