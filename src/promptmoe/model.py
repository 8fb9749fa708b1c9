"""A small decoder-only causal LM, frozen during prompt training.

Pre-LN transformer with rotary attention (RoFormer, Su et al.,
arXiv:2104.09864) and no position table; the LM head is tied to the
embedding table. Rotating queries and keys makes attention depend on
relative offsets only, so circuits learned at one depth work at every
depth, which prompted runs need: the prompt shifts the whole input deeper
than any pretraining document. The prompt is a per-example matrix of k soft
embedding rows occupying positions 0..k-1; input tokens follow at
positions k.. and attend to the prompt like ordinary context. When the
model is frozen its own tensors enter as autodiff constants, so a forward
records a graph only from the prompt on, and records none at all when the
prompt is a raw array or absent (eval, ``generate``): autodiff keeps a node's
inputs only if a named leaf lies behind them.

A forward may be pruned to the rows its caller reads (``forward``'s
``rows``): past the last layer's key/value projections, the query,
attention, output projection, MLP, final layernorm and LM head run only at
those rows. Earlier layers run every row, because each feeds the next
layer's keys and values. The prompted loss reads only the answer rows, and
its gradient flows through the pruning (``autodiff.take_rows``); the rows it
skips would have contributed exact zeros.

Greedy decoding runs through the same trunk with a ``KVCache``: one prefill
over the right-padded [prompt | input], run over a few examples at a time,
stores every layer's keys and values and reads one row per example, its last
real position; then each new token costs one single-position forward that
attends over the stored slots. Cached keys and values enter the graph as constants, so a cached forward is
for inference only.

Tokenization is byte-level UTF-8: ids 0..255 are raw bytes, 256 is PAD and
257 EOS, so every model has ``VOCAB_WITH_SPECIALS`` (258) embedding rows.
"""

import copy
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, ShapeError

PAD_ID = 256
EOS_ID = 257
VOCAB_WITH_SPECIALS = 258

# positions per chunk of generate's prefill: its transient activations scale
# with this, not with the eval batch
PREFILL_POSITIONS = 512


def encode(text):
    return list(text.encode("utf-8"))


def decode(ids):
    return bytes(i for i in ids if 0 <= i < 256).decode("utf-8", errors="replace")


@dataclass
class LMConfig:
    hidden: int = 64
    layers: int = 2
    heads: int = 2
    max_seq: int = 256

    def __post_init__(self):
        if min(self.hidden, self.layers, self.heads, self.max_seq) < 1:
            raise ConfigError(f"non-positive model dimension in {self}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if (self.hidden // self.heads) % 2 != 0:
            raise ConfigError(f"rotary needs an even head dim, got {self.hidden // self.heads}")


@dataclass
class Batch:
    token_ids: np.ndarray  # (b, s) int
    attn_mask: np.ndarray  # (b, s) 0/1, 0 on padding
    loss_mask: np.ndarray  # (b, s) 0/1, 1 only on answer positions
    tasks: list = field(default_factory=list)
    ids: list = field(default_factory=list)

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.attn_mask = np.asarray(self.attn_mask, dtype=np.float64)
        self.loss_mask = np.asarray(self.loss_mask, dtype=np.float64)
        if not (self.token_ids.shape == self.attn_mask.shape == self.loss_mask.shape):
            raise ShapeError(
                f"batch arrays disagree: ids {self.token_ids.shape}, attn "
                f"{self.attn_mask.shape}, loss {self.loss_mask.shape}"
            )
        if np.any(self.loss_mask > self.attn_mask):
            raise DataError("loss mask marks a padding position")

    @property
    def size(self):
        return self.token_ids.shape[0]

    def take(self, rows):
        """The batch of rows ``rows`` (a slice), at this batch's width."""
        return Batch(
            token_ids=self.token_ids[rows],
            attn_mask=self.attn_mask[rows],
            loss_mask=self.loss_mask[rows],
            tasks=self.tasks[rows],
            ids=self.ids[rows],
        )


class ToyLM:
    def __init__(self, cfg, params, frozen=True):
        self.cfg = cfg
        self.params = params
        self.frozen = frozen
        self._cos, self._sin = _rope_tables(cfg.max_seq, cfg.hidden // cfg.heads)

    def freeze(self):
        self.frozen = True
        return self

    @classmethod
    def create(cls, cfg, rng, init_std=0.02):
        h = cfg.hidden
        p = {
            "emb": np.asarray(rng.child("emb").normal((VOCAB_WITH_SPECIALS, h), std=init_std)),
            "lnf.g": np.ones(h),
            "lnf.b": np.zeros(h),
        }
        for i in range(cfg.layers):
            lr = rng.child("layer", i)
            p[f"l{i}.ln1.g"] = np.ones(h)
            p[f"l{i}.ln1.b"] = np.zeros(h)
            p[f"l{i}.ln2.g"] = np.ones(h)
            p[f"l{i}.ln2.b"] = np.zeros(h)
            for name, shape in [
                ("wq", (h, h)),
                ("wk", (h, h)),
                ("wv", (h, h)),
                ("wo", (h, h)),
                ("w1", (h, 4 * h)),
                ("w2", (4 * h, h)),
            ]:
                p[f"l{i}.{name}"] = np.asarray(lr.child(name).normal(shape, std=init_std))
            for name, size in [("bq", h), ("bk", h), ("bv", h), ("bo", h), ("b1", 4 * h), ("b2", h)]:
                p[f"l{i}.{name}"] = np.zeros(size)
        return cls(cfg, p, frozen=False)

    def param_hash(self):
        digest = hashlib.sha256()
        for name in sorted(self.params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.params[name]).tobytes())
        return digest.hexdigest()

    def _weights(self):
        """One forward's lookup from weight name to graph node.

        Frozen weights enter the graph as constants: no gradient entries.
        Unfrozen weights become named leaves, one per name per lookup, so a
        twice-used weight (the tied embedding table) is one node with one
        accumulated gradient. Every forward makes its own lookup, so
        concurrent forwards on one model build separate graphs.
        """
        if self.frozen:
            return lambda name: ad.const(self.params[name])
        nodes = {}

        def leaf(name):
            node = nodes.get(name)
            if node is None:
                node = nodes[name] = ad.leaf(self.params[name], f"lm.{name}")
            return node

        return leaf

    def embed(self, token_ids):
        """Raw embedding rows for ids; validates range and names the offender."""
        ids = np.asarray(token_ids, dtype=np.int64)
        bad = np.argwhere((ids < 0) | (ids >= VOCAB_WITH_SPECIALS))
        if bad.size:
            pos = tuple(int(x) for x in bad[0])
            raise DataError(
                f"token id {int(ids[pos])} out of range for vocab "
                f"{VOCAB_WITH_SPECIALS} at position {pos}"
            )
        return self.params["emb"][ids]

    def _rope(self, t, pos):
        """Rotate q or k by the angles of positions ``pos`` (broadcast against t's rows)."""
        cos, sin = ad.const(self._cos[pos]), ad.const(self._sin[pos])
        return ad.add(ad.mul(t, cos), ad.mul(ad.rotate_half(t), sin))

    def _attention_allow(self, attn_mask, k):
        """Boolean (b, 1, k+s, k+s) mask: causal, and no padded key."""
        b, s = attn_mask.shape
        key_ok = np.concatenate([np.ones((b, k), dtype=bool), attn_mask > 0], axis=1)
        return np.tri(k + s, dtype=bool)[None, None] & key_ok[:, None, None, :]

    def forward(self, prompt, input_embeds, attn_mask, cache=None, rows=None):
        """Logits over the concatenated [prompt | input] sequence.

        prompt: (b, k, h) Node or array, or None for k=0. input_embeds:
        raw (b, s, h). Returns a (b, k+s, vocab) Node, or (b, m, vocab) at
        the (b, m) concat positions ``rows`` (see ``_trunk``); a gradient
        flows through either.

        With a ``KVCache`` the new rows continue each example's sequence at
        its own next position: they attend to every valid slot the cache
        holds and are stored in it. attn_mask must then be right-padded.
        """
        x, attn_mask, k = self._inputs(prompt, input_embeds, attn_mask)
        w = self._weights()
        return self._head(self._trunk(x, attn_mask, k, w, cache, rows), w)

    def _inputs(self, prompt, input_embeds, attn_mask):
        """Validate ``forward``'s arguments; returns the [prompt | input] node, mask and k."""
        embeds = np.asarray(input_embeds, dtype=np.float64)
        b, s, h = embeds.shape
        if h != self.cfg.hidden:
            raise ShapeError(f"embedding width {h} != model hidden {self.cfg.hidden}")
        k = 0
        if prompt is not None:
            pv = prompt.value if isinstance(prompt, ad.Node) else np.asarray(prompt)
            if pv.ndim != 3 or pv.shape[0] != b or pv.shape[2] != h:
                raise ShapeError(f"prompt shape {pv.shape} does not fit batch ({b}, k, {h})")
            k = pv.shape[1]
        attn_mask = np.asarray(attn_mask, dtype=np.float64)
        if attn_mask.shape != (b, s):
            raise ShapeError(f"attention mask {attn_mask.shape} does not match ({b}, {s})")

        if k > 0:
            x = ad.concat([ad.as_node(prompt), ad.const(embeds)], axis=1)
        else:
            x = ad.const(embeds)
        return x, attn_mask, k

    def forward_tokens(self, token_ids, attn_mask):
        """Logits with a differentiable embedding lookup; the pretraining path."""
        ids = np.asarray(token_ids, dtype=np.int64)
        self.embed(ids)  # range validation only
        w = self._weights()
        x = ad.embedding(w("emb"), ids)
        return self._head(self._trunk(x, np.asarray(attn_mask, dtype=np.float64), 0, w), w)

    def _trunk(self, x, attn_mask, k, w, cache=None, rows=None):
        """Hidden states after the final layernorm, (b, k+s, hidden).

        ``w`` is the forward's weight lookup (``_weights``).

        ``rows`` (b, m), indices unique within each example, prunes the
        forward to m rows per example: the last layer still computes (and
        caches) keys and values at every row, but runs the query, attention,
        output projection, MLP and the final layernorm only at rows
        ``rows[e]`` of example e, and the result is (b, m, hidden). The
        rows are gathered with ``autodiff.take_rows``, so a gradient flows
        back through them into every earlier layer.
        """
        b, total = x.value.shape[0], x.value.shape[1]
        h = self.cfg.hidden
        if cache is None:
            if total > self.cfg.max_seq:
                raise ShapeError(f"sequence length {total} exceeds max_seq {self.cfg.max_seq}")
            pos = np.arange(total)
            allow = self._attention_allow(attn_mask, k)
        else:
            pos, allow = cache.claim(np.concatenate([np.ones((b, k)), attn_mask], axis=1))
        rope_pos = pos if cache is None else pos[:, None]  # broadcast over heads
        heads, dh = self.cfg.heads, self.cfg.hidden // self.cfg.heads

        def split_heads(t):
            n = t.value.shape[1]
            return ad.transpose(ad.reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

        n = total
        for i in range(self.cfg.layers):
            ln1 = ad.layernorm(x, w(f"l{i}.ln1.g"), w(f"l{i}.ln1.b"))
            key = split_heads(ad.add(ad.matmul(ln1, w(f"l{i}.wk")), w(f"l{i}.bk")))
            key = self._rope(key, rope_pos)
            val = split_heads(ad.add(ad.matmul(ln1, w(f"l{i}.wv")), w(f"l{i}.bv")))
            if cache is not None:
                key, val = (ad.const(a) for a in cache.write(i, pos, key.value, val.value))
            if rows is not None and i == self.cfg.layers - 1:
                x, ln1 = ad.take_rows(x, rows), ad.take_rows(ln1, rows)
                e = np.arange(b)[:, None]
                allow = allow[e, 0, rows][:, None]
                rope_pos = np.broadcast_to(pos, (b, total))[e, rows][:, None]
                n = rows.shape[1]
            q = split_heads(ad.add(ad.matmul(ln1, w(f"l{i}.wq")), w(f"l{i}.bq")))
            q = self._rope(q, rope_pos)
            scores = ad.scale(ad.matmul(q, ad.transpose(key, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
            probs = ad.masked_softmax(scores, allow)
            ctx = ad.reshape(ad.transpose(ad.matmul(probs, val), (0, 2, 1, 3)), (b, n, h))
            attn = ad.add(ad.matmul(ctx, w(f"l{i}.wo")), w(f"l{i}.bo"))
            x = ad.add(x, attn)
            ln2 = ad.layernorm(x, w(f"l{i}.ln2.g"), w(f"l{i}.ln2.b"))
            inner = ad.gelu(ad.add(ad.matmul(ln2, w(f"l{i}.w1")), w(f"l{i}.b1")))
            mlp = ad.add(ad.matmul(inner, w(f"l{i}.w2")), w(f"l{i}.b2"))
            x = ad.add(x, mlp)
        return ad.layernorm(x, w("lnf.g"), w("lnf.b"))

    def _head(self, x, w):
        """LM-head logits of hidden states x, tied to the embedding table."""
        return ad.matmul(x, ad.transpose(w("emb"), (1, 0)))

    def loss_on_batch(self, prompt, batch):
        """Summed masked NLL plus token count for the standard next-token setup.

        Logits at concat position k+i-1 predict input token i, so the loss
        mask is shifted left by one against the logits. Position 0 of the
        input is never predicted (it is conditioned on prompt/positions
        only), enforced by the mask shift.

        Only the rows the shifted mask marks are forwarded past the last
        layer's keys and values: each example's mask-1 rows, padded with
        mask-0 rows to the batch's largest count m (``forward``'s ``rows``).
        The logits are (b, m, vocab); loss, count and gradients equal those
        of the full-width forward up to summation order.
        """
        k = 0 if prompt is None else ad.as_node(prompt).value.shape[1]
        targets, mask = self._shifted_targets(batch, k)
        # stable sort: mask-1 rows first in order, then mask-0 rows in order
        order = np.argsort(-mask, axis=1, kind="stable")
        m = max(1, int(mask.sum(axis=1).max()))
        rows = np.sort(order[:, :m], axis=1)
        pick = (np.arange(batch.size)[:, None], rows)
        embeds = self.embed(batch.token_ids)
        logits = self.forward(prompt, embeds, batch.attn_mask, rows=rows)
        return ad.masked_nll(logits, targets[pick], mask[pick])

    def loss_on_tokens(self, batch):
        """(loss, count, logits) via the differentiable embedding path (no prompt).

        The logits node comes back too, so the caller decides when its value
        is freed.
        """
        logits = self.forward_tokens(batch.token_ids, batch.attn_mask)
        return (*self._shifted_nll(logits, batch), logits)

    @classmethod
    def scored_count(cls, batch, k):
        """How many positions ``loss_on_batch`` scores for ``batch`` behind a k-row prompt."""
        return int(cls._shifted_targets(batch, k)[1].sum())

    def _shifted_nll(self, logits, batch):
        k = logits.value.shape[1] - batch.token_ids.shape[1]
        return ad.masked_nll(logits, *self._shifted_targets(batch, k))

    @staticmethod
    def _shifted_targets(batch, k):
        """(targets, loss mask), each (b, k+s), aligned with the concat positions."""
        b, s = batch.token_ids.shape
        targets = np.zeros((b, k + s), dtype=np.int64)
        mask = np.zeros((b, k + s))
        # logits at concat position k+i-1 predict input token i; with no
        # prompt, token 0 has no predicting position
        start = 1 if k == 0 else 0
        targets[:, k + start - 1 : k + s - 1] = batch.token_ids[:, start:]
        mask[:, k + start - 1 : k + s - 1] = batch.loss_mask[:, start:]
        return targets, mask

    def generate(self, prompt, token_ids, attn_mask, max_new, eos_id=EOS_ID):
        """Greedy continuation per example; stops at eos_id or max_new.

        prompt is raw (b, k, h) or None and is kept fixed for the whole
        generation (routing happens once, upstream); token_ids and attn_mask
        are right-padded. One prefill over [prompt | input] fills a KV cache;
        past the last layer's keys and values it runs only row k + len_e - 1
        of each example, whose LM head gives the first token (``forward``'s
        ``rows``). The prefill runs in chunks of whole examples, at most
        ``PREFILL_POSITIONS`` positions each (one example if it is longer),
        each into its own rows of the one cache, so its activations are
        bounded by the chunk and not by the batch. Every further token is
        one single-position forward over the whole batch in which example e
        writes at its own next slot, k + len_e onwards, so ragged rows are
        never re-padded. Returns a list of id lists, EOS excluded.
        """
        if max_new < 1:
            raise ConfigError(f"max_new must be >= 1, got {max_new}")
        prompt = None if prompt is None else np.asarray(prompt)
        ids = np.asarray(token_ids, dtype=np.int64)
        attn = np.asarray(attn_mask, dtype=np.float64)
        b, s = ids.shape
        k = 0 if prompt is None else prompt.shape[1]
        if k + s + max_new > self.cfg.max_seq:
            raise ShapeError(
                f"generation would reach length {k + s + max_new}, over max_seq "
                f"{self.cfg.max_seq}"
            )
        lengths = attn.sum(axis=1).astype(int)
        # the last generated token is never fed back, so it needs no slot
        cache = KVCache(self.cfg, b, k + s + max_new - 1)
        rows = (k + lengths - 1)[:, None]
        embeds = self.embed(ids)
        nxt = np.empty(b, dtype=np.int64)
        chunk = max(1, PREFILL_POSITIONS // (k + s))
        for lo in range(0, b, chunk):
            part = slice(lo, lo + chunk)
            logits = self.forward(
                None if prompt is None else prompt[part],
                embeds[part],
                attn[part],
                cache=cache.rows(part),
                rows=rows[part],
            ).value
            nxt[part] = np.argmax(logits[:, 0], axis=-1)
        done = np.zeros(b, dtype=bool)
        out = [[] for _ in range(b)]
        for step in range(max_new):
            done |= nxt == eos_id
            for e in np.flatnonzero(~done):
                out[e].append(int(nxt[e]))
            if done.all() or step == max_new - 1:
                break
            # finished rows keep stepping on their last token; their output is final
            logits = self.forward(None, self.embed(nxt[:, None]), np.ones((b, 1)), cache=cache).value
            nxt = np.argmax(logits[:, 0], axis=-1)
        return out


class KVCache:
    """Keys and values of every position a cached ``ToyLM.forward`` has run.

    Per layer, ``keys`` and ``values`` are (b, heads, capacity, dh) arrays
    indexed by absolute position. The boolean ``valid`` (b, capacity) marks
    the slots attention may read (False on padding and on slots not yet
    written), and ``next_pos`` (b,) is the position each example's next new
    row takes.
    """

    def __init__(self, cfg, batch, capacity):
        if capacity > cfg.max_seq:
            raise ShapeError(f"cache capacity {capacity} exceeds max_seq {cfg.max_seq}")
        shape = (batch, cfg.heads, capacity, cfg.hidden // cfg.heads)
        self.keys = [np.zeros(shape) for _ in range(cfg.layers)]
        self.values = [np.zeros(shape) for _ in range(cfg.layers)]
        self.valid = np.zeros((batch, capacity), dtype=bool)
        self.next_pos = np.zeros(batch, dtype=np.int64)

    def rows(self, part):
        """The examples of slice ``part`` as a cache that shares this one's arrays."""
        view = copy.copy(self)
        view.keys = [a[part] for a in self.keys]
        view.values = [a[part] for a in self.values]
        view.valid, view.next_pos = self.valid[part], self.next_pos[part]
        return view

    def claim(self, key_ok):
        """Give n new rows per example their positions; returns (pos, allow).

        key_ok (b, n) is 1 on real rows and 0 on right padding. pos (b, n)
        holds absolute positions; the boolean allow (b, 1, n, width) lets
        each row see the valid slots at or before its own position.
        """
        b, n = key_ok.shape
        if b != self.valid.shape[0]:
            raise ShapeError(f"batch of {b} rows for a cache of {self.valid.shape[0]}")
        if np.any(np.diff(key_ok, axis=1) > 0):
            raise DataError("a cached forward needs right-padded attention masks")
        pos = self.next_pos[:, None] + np.arange(n)
        width = int(pos.max()) + 1
        if width > self.valid.shape[1]:
            raise ShapeError(f"position {width - 1} is past the cache capacity {self.valid.shape[1]}")
        self.valid[np.arange(b)[:, None], pos] = key_ok
        self.next_pos += key_ok.sum(axis=1).astype(np.int64)
        causal = np.arange(width) <= pos[:, :, None]
        return pos, (causal & self.valid[:, None, :width])[:, None]

    def write(self, layer, pos, key, val):
        """Store (b, heads, n, dh) keys and values at pos; returns the slots up to pos.max()."""
        rows = np.arange(pos.shape[0])[:, None]
        self.keys[layer][rows, :, pos] = key.transpose(0, 2, 1, 3)
        self.values[layer][rows, :, pos] = val.transpose(0, 2, 1, 3)
        width = int(pos.max()) + 1
        return self.keys[layer][:, :, :width], self.values[layer][:, :, :width]


def _rope_tables(max_seq, dh):
    """(cos, sin), each (max_seq, dh), for rotary attention over the halves of the head dim."""
    d2 = dh // 2
    inv_freq = 10000.0 ** (-np.arange(d2) / d2)
    ang = np.arange(max_seq)[:, None] * inv_freq[None, :]
    cos = np.concatenate([np.cos(ang), np.cos(ang)], axis=1)
    sin = np.concatenate([np.sin(ang), np.sin(ang)], axis=1)
    return cos, sin
