"""The four prompt-side methods behind a single provider interface.

* PT: one dense t x h prompt, input-independent.
* DPT: the decomposed prompt (a @ b) with a single expert and no router.
* SMOP: n full-rank prompts of length t/n each; a router picks one whole
  prompt per example.
* PT_MOE: n low-rank factors sharing one projection; the router mixes the
  factors, then the shared projection maps to model width.

A provider owns its trainable arrays (the trainer updates them in place),
knows its parameter count, and can compute the per-example prompt node for
a batch, recording routing decisions where a router exists.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as lm_mod
from . import prompt_bank as pb
from . import router as rt
from .errors import ConfigError, ShapeError
from .linalg import mean_rows

KINDS = ("PT", "DPT", "SMOP", "PT_MOE")


@dataclass
class MethodConfig:
    kind: str = "PT_MOE"
    prompt_length: int = 40
    num_experts: int = 2
    rank: object = 36  # int or "auto" (requires budget)
    budget: int = 0
    sigma: float = 0.01
    k: int = 1
    selective: bool = True
    probationary: bool = True
    init_text: str = ""
    router_w_std: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown method kind {self.kind!r}, expected one of {KINDS}")
        if self.prompt_length < 1:
            raise ConfigError(f"prompt_length must be >= 1, got {self.prompt_length}")
        if self.kind in ("PT", "DPT"):
            self.num_experts = 1
        if self.num_experts < 1:
            raise ConfigError(f"num_experts must be >= 1, got {self.num_experts}")
        if self.kind == "SMOP" and self.prompt_length % self.num_experts != 0:
            raise ConfigError(
                f"SMOP needs prompt_length divisible by num_experts, got "
                f"{self.prompt_length} and {self.num_experts}"
            )
        if self.rank == "auto" and self.kind in ("DPT", "PT_MOE") and self.budget < 1:
            raise ConfigError("rank 'auto' needs a positive budget")

    def resolve_rank(self, h):
        if self.kind in ("PT", "SMOP"):
            return None
        if self.rank == "auto":
            if self.kind == "PT_MOE":
                return pb.auto_rank(self.budget, self.num_experts, self.prompt_length, h)
            # DPT has no router cost: largest r with t*r + r*h <= budget
            r = self.budget // (self.prompt_length + h)
            if r < 1:
                raise ConfigError(f"budget {self.budget} below DPT rank-1 cost")
            return r
        return int(self.rank)


def init_text_embeddings(lm, text, t):
    """t x h embedding matrix of the initialization text.

    The byte sequence is truncated to t tokens, or cycled when shorter, so
    the prompt always starts from in-distribution rows.
    """
    ids = [tok for tok in lm_mod.encode(text) if tok < lm.cfg.vocab_size]
    if not ids:
        raise ConfigError("initialization text is empty after tokenization")
    cycled = [ids[i % len(ids)] for i in range(t)]
    return lm.embed(np.array([cycled]))[0]


class _RoutedMixin:
    """Routing plumbing shared by SMOP and PT_MOE providers."""

    def router_params(self):
        return rt.RouterParams(
            w=self.w,
            b=self.b,
            sigma=self.cfg.sigma,
            k=self.cfg.k,
            selective=self.cfg.selective,
            probationary=self.cfg.probationary,
        )

    def _mu(self, lm, batch):
        return mean_rows(lm.embed(batch.token_ids), batch.attn_mask)

    def _weights(self, lm, batch, rng, training, forced):
        w_node = ad.leaf(self.w, "router.W")
        b_node = ad.leaf(self.b, "router.b")
        return rt.route_batch(
            self._mu(lm, batch),
            w_node,
            b_node,
            self.router_params(),
            rng=rng,
            training=training,
            forced=forced,
        )


class PTProvider:
    kind = "PT"

    def __init__(self, cfg, prompt):
        self.cfg = cfg
        self.prompt = np.array(prompt, dtype=np.float64)

    def param_arrays(self):
        return {"pt.P": self.prompt}

    def param_count(self):
        return self.prompt.size

    def prompt_node(self, lm, batch, rng=None, training=False, forced=None):
        node = ad.leaf(self.prompt, "pt.P")
        ones = np.ones((batch.size, 1))
        tiled = ad.expert_mix(ad.const(ones), ad.reshape(node, (1,) + self.prompt.shape))
        return tiled, None

    def to_arrays(self):
        return {"pt.P": self.prompt}

    def load_arrays(self, arrays):
        self.prompt[...] = arrays["pt.P"]


class DPTProvider:
    kind = "DPT"

    def __init__(self, cfg, bank):
        if bank.n != 1:
            raise ConfigError(f"DPT is single-expert, got bank with n={bank.n}")
        self.cfg = cfg
        self.bank = bank

    def param_arrays(self):
        return {"bank.A": self.bank.a, "bank.B": self.bank.b_shared}

    def param_count(self):
        return self.bank.param_count(with_router=False)

    def prompt_node(self, lm, batch, rng=None, training=False, forced=None):
        a = ad.leaf(self.bank.a, "bank.A")
        b_sh = ad.leaf(self.bank.b_shared, "bank.B")
        ones = np.ones((batch.size, 1))
        mixed = ad.expert_mix(ad.const(ones), a)
        return ad.matmul(mixed, b_sh), None

    def to_arrays(self):
        return self.bank.to_arrays()

    def load_arrays(self, arrays):
        loaded = pb.PromptBank.from_arrays(arrays)
        self.bank.a[...] = loaded.a
        self.bank.b_shared[...] = loaded.b_shared


class SMoPProvider(_RoutedMixin):
    kind = "SMOP"

    def __init__(self, cfg, prompts, w, b):
        self.cfg = cfg
        self.prompts = np.array(prompts, dtype=np.float64)  # (n, t/n, h)
        self.w = np.array(w, dtype=np.float64)
        self.b = np.array(b, dtype=np.float64)
        if self.prompts.shape[0] != cfg.num_experts:
            raise ShapeError(
                f"SMOP prompt stack {self.prompts.shape} does not match "
                f"{cfg.num_experts} experts"
            )

    def param_arrays(self):
        return {"smop.P": self.prompts, "router.W": self.w, "router.b": self.b}

    def param_count(self):
        return self.prompts.size + self.w.size + self.b.size

    def prompt_node(self, lm, batch, rng=None, training=False, forced=None):
        weights, decisions = self._weights(lm, batch, rng, training, forced)
        stack = ad.leaf(self.prompts, "smop.P")
        return ad.expert_mix(weights, stack), decisions

    def to_arrays(self):
        return {
            "smop.P": self.prompts,
            "router.W": self.w,
            "router.b": self.b,
            "header": np.array(self.prompts.shape, dtype=np.int64),
        }

    def load_arrays(self, arrays):
        self.prompts[...] = arrays["smop.P"]
        self.w[...] = arrays["router.W"]
        self.b[...] = arrays["router.b"]


class PTMoEProvider(_RoutedMixin):
    kind = "PT_MOE"

    def __init__(self, cfg, bank, w, b):
        self.cfg = cfg
        self.bank = bank
        self.w = np.array(w, dtype=np.float64)
        self.b = np.array(b, dtype=np.float64)
        if self.w.shape != (bank.n, bank.h):
            raise ShapeError(
                f"router w {self.w.shape} does not match bank ({bank.n}, {bank.h})"
            )

    def param_arrays(self):
        return {
            "bank.A": self.bank.a,
            "bank.B": self.bank.b_shared,
            "router.W": self.w,
            "router.b": self.b,
        }

    def param_count(self):
        return self.bank.param_count(with_router=False) + self.w.size + self.b.size

    def prompt_node(self, lm, batch, rng=None, training=False, forced=None):
        weights, decisions = self._weights(lm, batch, rng, training, forced)
        a = ad.leaf(self.bank.a, "bank.A")
        b_sh = ad.leaf(self.bank.b_shared, "bank.B")
        mixed = ad.expert_mix(weights, a)  # weighted factor sum first
        return ad.matmul(mixed, b_sh), decisions  # then one shared projection

    def to_arrays(self):
        out = self.bank.to_arrays()
        out["router.W"] = self.w
        out["router.b"] = self.b
        return out

    def load_arrays(self, arrays):
        loaded = pb.PromptBank.from_arrays(arrays)
        self.bank.a[...] = loaded.a
        self.bank.b_shared[...] = loaded.b_shared
        self.w[...] = arrays["router.W"]
        self.b[...] = arrays["router.b"]


def build(cfg, lm, rng):
    """Instantiate a provider with its initialization text baked in."""
    t, h = cfg.prompt_length, lm.cfg.hidden
    e = init_text_embeddings(lm, cfg.init_text, t)
    if cfg.kind == "PT":
        return PTProvider(cfg, e)
    if cfg.kind == "DPT":
        bank = pb.init_from_embeddings(e, n=1, r=cfg.resolve_rank(h))
        return DPTProvider(cfg, bank)
    if cfg.kind == "SMOP":
        n = cfg.num_experts
        span = t // n
        prompts = np.stack([e[i * span : (i + 1) * span] for i in range(n)])
        w, b = rt.init_router(n, h, rng.child("router"), w_std=cfg.router_w_std)
        return SMoPProvider(cfg, prompts, w, b)
    bank = pb.init_from_embeddings(e, n=cfg.num_experts, r=cfg.resolve_rank(h))
    w, b = rt.init_router(cfg.num_experts, h, rng.child("router"), w_std=cfg.router_w_std)
    return PTMoEProvider(cfg, bank, w, b)


def loss_on_batch(provider, lm, batch, rng=None, training=False, forced=None):
    """(summed loss node, token count, routing decisions) for one batch."""
    prompt, decisions = provider.prompt_node(lm, batch, rng=rng, training=training, forced=forced)
    loss, count = lm.loss_on_batch(prompt, batch)
    return loss, count, decisions


def expected_param_count(kind, t, n, r, h):
    """Closed-form budget per method; the basis of the printed budget table."""
    if kind == "PT":
        return t * h
    if kind == "DPT":
        return t * r + r * h
    if kind == "SMOP":
        return n * (t // n) * h + n * h + n
    if kind == "PT_MOE":
        return n * t * r + r * h + n * h + n
    raise ConfigError(f"unknown method kind {kind!r}")


REFERENCE_H = 2048
# trainable-parameter targets at the reference width: PT 40x2048; DPT rank 39;
# SMoP 2 experts of length 20 plus router; PT-MoE T=40 N=2 R=36 plus router
REFERENCE_BUDGETS = {"PT": 81920, "DPT": 81432, "SMOP": 86018, "PT_MOE": 80706}


def scaled_budget(kind, h):
    return int(round(REFERENCE_BUDGETS[kind] * h / REFERENCE_H))


def scaled_method_config(kind, h, **overrides):
    """A MethodConfig hitting the reference budget scaled to width h.

    PT and SMoP have no rank knob, so their budgets land wherever T=40
    puts them; DPT and PT_MOE solve for the largest rank under the scaled
    budget. All four stay within a few percent of the common target.
    """
    base = {"kind": kind}
    if kind in ("DPT", "PT_MOE"):
        base["rank"] = "auto"
        base["budget"] = scaled_budget(kind, h)
    base.update(overrides)
    return MethodConfig(**base)


def budget_table(h):
    """Rows of (kind, params, label, scaled target, relative error)."""
    target = 82000 * h / REFERENCE_H  # common "82k-equivalent" yardstick
    rows = []
    for kind in KINDS:
        cfg = scaled_method_config(kind, h)
        r = cfg.resolve_rank(h)
        count = expected_param_count(kind, cfg.prompt_length, cfg.num_experts, r or 0, h)
        rows.append((kind, count, pb.format_k(count), target, (count - target) / target))
    return rows
