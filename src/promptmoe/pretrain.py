"""Base-model pretraining on a synthetic byte corpus, with caching.

The corpus is task-free: it carries generic capabilities (repeating a
just-seen span behind arbitrary junk markers, reversing behind junk
markers, mod-10 arithmetic facts chained with varied separators at varied
offsets) plus the downstream input formats with nothing after them. The
actual input->answer pairings - "copy:"/"reverse:" followed by their
transforms, "(mod 10)" questions followed by results, and the literal
answer prefix - never occur here, so the prompts have to supply them.
Generic documents sometimes end with EOS (stopping is a generic skill);
format documents never do.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import ANSWER_PREFIX, LETTERS, SEPARATOR, pad_right, rand_span
from .errors import ConfigError
from .linalg import RngStream
from .model import EOS_ID, Batch, LMConfig, ToyLM, encode
from .trainer import AdamWState, adamw_step, make_dir, part_step, part_worker, read_npz, write_npz

TASK_MARKERS = ("copy", "reverse")  # reserved for answer-less format docs
DOC_MIX = (
    ("repeat", 0.24),
    ("reverse", 0.10),
    ("add_facts", 0.20),
    ("mul_facts", 0.20),
    ("task_format", 0.14),
    ("words", 0.06),
    ("noise", 0.04),
)
EOS_DOC_FRAC = 0.35  # generic docs ending in EOS; format docs never do


@dataclass
class PretrainConfig:
    hidden: int = 64
    layers: int = 2
    heads: int = 4
    max_seq: int = 256
    docs: int = 12000
    steps: int = 5000
    batch_size: int = 10
    # rows are packed with whole docs up to this many tokens, so every
    # position a prompted run can reach is trained, not just the first
    # doc-length of them
    pack_len: int = 96
    lr: float = 3e-3  # peak; decays linearly to a tenth after warmup
    warmup_steps: int = 200
    seed: int = 0
    init_std: float = 0.02
    # bump when the document generators change; the cache key hashes this
    # config, not the generator code
    corpus_version: int = 3

    def __post_init__(self):
        for name, least in (("docs", 1), ("steps", 1), ("batch_size", 1), ("pack_len", 2), ("warmup_steps", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("lr", "init_std"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        self.lm_config()  # the model's own shape checks

    def lm_config(self):
        return LMConfig(
            hidden=self.hidden,
            layers=self.layers,
            heads=self.heads,
            max_seq=self.max_seq,
        )

    def cache_key(self):
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _rand_word(rng, lo=2, hi=6, capital_frac=0.0):
    w = "".join(LETTERS[i] for i in rng.integers(0, 26, int(rng.integers(lo, hi))))
    while w in TASK_MARKERS:
        w = "".join(LETTERS[i] for i in rng.integers(0, 26, int(rng.integers(lo, hi))))
    if capital_frac and rng.random() < capital_frac:
        w = w.capitalize()
    return w


# ": " is weighted up because it is the separator the downstream answer
# scaffold uses; "=" stays as the redundant short form
_FACT_SEPS = ("=", ": ", ": ")


def make_doc(kind, rng):
    """(text, wants_eos) for one document."""
    if kind == "repeat":
        # junk marker, then a span that repeats after the newline; the
        # generic shape behind span-echo behavior. Marker separator varies
        # so ": " is not welded to letters-follow statistics.
        span = rand_span(rng)
        sep = ": " if rng.random() < 0.5 else "~ "
        return f"{_rand_word(rng)}{sep}{span}\n{span}", True
    if kind == "reverse":
        span = rand_span(rng)
        rev = " ".join(reversed(span.split()))
        sep = ": " if rng.random() < 0.5 else "~ "
        return f"{_rand_word(rng)}{sep}{span}\n{rev}", True
    if kind in ("add_facts", "mul_facts"):
        op = "+" if kind == "add_facts" else "*"
        sep = _FACT_SEPS[int(rng.integers(0, len(_FACT_SEPS)))]
        parts = []
        for _ in range(int(rng.integers(3, 8))):
            x, y = (int(v) for v in rng.integers(0, 10, 2))
            r = (x + y) % 10 if op == "+" else (x * y) % 10
            parts.append(f"{x}{op}{y}{sep}{r};")
        return "".join(parts), True
    if kind == "task_format":
        # downstream input shapes with the answer value withheld; the math
        # forms keep their constant response scaffold, truncated before the
        # answer, so no input->answer pairing ever appears
        roll = int(rng.integers(0, 4))
        if roll < 2:
            op = "+" if roll == 0 else "*"
            x, y = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            return f"{x}{op}{y} (mod 10){SEPARATOR}{ANSWER_PREFIX}", False
        return f"{TASK_MARKERS[roll - 2]}: {rand_span(rng)}{SEPARATOR}", False
    if kind == "words":
        n = int(rng.integers(3, 8))
        return " ".join(_rand_word(rng, capital_frac=0.3) for _ in range(n)), True
    if kind == "noise":
        n = int(rng.integers(10, 31))
        return "".join(chr(c) for c in rng.integers(32, 127, n)), True
    raise ValueError(f"unknown doc kind {kind!r}")


def gen_docs(count, seed):
    """(text, eos) pairs; eos marks generic docs drawn for termination."""
    kinds = [k for k, _ in DOC_MIX]
    weights = np.array([w for _, w in DOC_MIX])
    weights = weights / weights.sum()
    docs = []
    for i in range(count):
        rng = RngStream(seed).child("doc", i).generator()
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        text, eos_ok = make_doc(kind, rng)
        docs.append((text, eos_ok and rng.random() < EOS_DOC_FRAC))
    return docs


def gen_corpus(count, seed):
    """Token-id documents, EOS appended where gen_docs marked it."""
    out = []
    for text, eos in gen_docs(count, seed):
        ids = encode(text)
        if eos:
            ids = ids + [EOS_ID]
        out.append(ids)
    return out


def _doc_batch(docs, idx, pack_len):
    """One row per row of ``idx``, packing its docs in order up to ``pack_len`` tokens.

    Packing concatenates whole documents, cropping the last one at
    ``pack_len``; a row whose docs run out first is right-padded.
    Downstream runs place tuned prompts in front of the input, so answer
    tokens live at depths no single document reaches; without packing
    those positions are never trained and generation there degenerates.
    """
    seqs = []
    for row in idx:
        buf = []
        for i in row:
            if len(buf) >= pack_len:
                break
            buf.extend(docs[i])
        seqs.append(buf[:pack_len])
    ids, attn = pad_right(seqs)
    return Batch(token_ids=ids, attn_mask=attn, loss_mask=attn.copy())


def pretrain_lr(step, pcfg):
    """Linear warmup to the peak, then linear decay to a tenth of it.

    The downstream trainer keeps the constant-after-warmup contract; this
    schedule exists only here, where a hot constant rate was measurably
    unstable late in pretraining.
    """
    if step <= pcfg.warmup_steps:
        return pcfg.lr * step / max(1, pcfg.warmup_steps)
    span = max(1, pcfg.steps - pcfg.warmup_steps)
    frac = (step - pcfg.warmup_steps) / span
    return pcfg.lr * (1.0 - 0.9 * frac)


def pretrain_base(pcfg, log_every=0, log_fn=print):
    """Train a fresh model on the synthetic corpus and freeze it.

    Each step is one ``trainer.part_step`` on every weight, then one Adam
    step (decoupled decay removed). The step's worker, a fork-context
    ``multiprocessing`` process (``trainer.part_worker``), lives for the call
    and is reaped however it ends, a raise from ``log_fn`` included; each
    step sends it the current weights (about 0.9 MB on the default config).
    OpenBLAS runs on one thread for the call, in both processes.
    """
    lm = ToyLM.create(pcfg.lm_config(), RngStream(pcfg.seed).child("lm_init"), pcfg.init_std)
    docs = gen_corpus(pcfg.docs, pcfg.seed)
    # keyed as the model's graph leaves name their gradients
    params = {f"lm.{name}": p for name, p in lm.params.items()}
    state = AdamWState(params)
    root = RngStream(pcfg.seed)
    last = float("nan")
    pack = min(pcfg.pack_len, pcfg.max_seq)
    per_row = pack // 8 + 2  # enough docs to overfill any row

    def forward(part, extra):
        loss, _ = lm.loss_on_tokens(part)
        return loss, None

    with part_worker(forward, params) as worker:
        for step in range(1, pcfg.steps + 1):
            idx = root.child("batch", step).integers(
                0, len(docs), (pcfg.batch_size, per_row)
            )
            grads = {}
            batch = _doc_batch(docs, idx, pack)
            loss, count, _ = part_step(worker, forward, batch, 0, None, grads, step)
            adamw_step(params, grads, state, pretrain_lr(step, pcfg))
            last = loss / max(count, 1)
            if log_every and step % log_every == 0:
                log_fn(f"pretrain step {step}/{pcfg.steps} loss {last:.4f}")
    lm.freeze()
    return lm, last


def base_path(pcfg, cache_dir):
    return os.path.join(cache_dir, f"base-{pcfg.cache_key()}.npz")


def save_base(path, pcfg, lm):
    arrays = {f"lm.{k}": v for k, v in lm.params.items()}
    arrays["config_json"] = np.frombuffer(
        json.dumps(asdict(pcfg), sort_keys=True).encode(), dtype=np.uint8
    ).copy()
    write_npz(path, arrays)


_REBUILD = "; rebuild it with `promptmoe pretrain-base --force`"


def load_base(path):
    """The frozen model and its config from a cache file; ConfigError if unreadable.

    Unreadable covers an archive without ``config_json``, a ``config_json``
    that is not JSON, and one whose keys or values ``PretrainConfig`` rejects
    (a cache written before a config field was removed).
    """
    arrays = read_npz(path, "base model cache", _REBUILD)
    try:
        pcfg = PretrainConfig(**json.loads(bytes(arrays["config_json"]).decode()))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"base model cache {path} holds no valid config ({e!r}){_REBUILD}") from e
    params = {
        k.removeprefix("lm."): np.asarray(v, dtype=np.float64)  # read_npz's arrays are fresh: no copy
        for k, v in arrays.items()
        if k.startswith("lm.")
    }
    return ToyLM(pcfg.lm_config(), params, frozen=True), pcfg


def ensure_base(pcfg, cache_dir=".cache", log_every=0, log_fn=print):
    """Load the cached frozen base for this config, pretraining on a miss."""
    path = base_path(pcfg, cache_dir)
    if os.path.exists(path):
        lm, cached = load_base(path)
        if cached != pcfg:
            raise ConfigError(
                f"base model cache {path} was built from another config: {cached}{_REBUILD}"
            )
        return lm, path
    make_dir(cache_dir, "base model cache directory")  # before the pretraining, not after it
    lm, _ = pretrain_base(pcfg, log_every=log_every, log_fn=log_fn)
    save_base(path, pcfg, lm)
    return lm, path
