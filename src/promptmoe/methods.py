"""The four prompt-side methods as one provider.

PT-MoE adds two parts to prompt tuning: a decomposition (n expert factors
sharing one projection) and a router that mixes the factors per example.
Each other method is PT-MoE with parts switched off:

* PT: one dense t x h prompt; no decomposition, no router.
* DPT: one t x r factor and the shared r x h projection; no router.
* SMOP: n full-width prompts of length t/n; a router picks one per example.
* PT_MOE: n t x r factors mixed by the router, then the shared projection.

A provider owns its trainable arrays (the trainer updates them in place),
and computes the per-example prompt node for a batch, recording routing
decisions where a router exists.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as lm_mod
from . import prompt_bank as pb
from . import router as rt
from .errors import ConfigError
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


class Provider:
    """One prompt provider for all four methods.

    ``stack`` is an (n, t', w) expert stack; ``proj`` an optional shared
    (r, h) projection (DPT, PT_MOE, where w = r); ``router`` optional
    RouterParams (SMOP, PT_MOE). Without a router every example weights
    its single expert by 1.
    """

    def __init__(self, cfg, stack, proj=None, router=None):
        self.cfg = cfg
        self.stack = stack
        self.proj = proj
        self.router = router
        self.stack_name = {"PT": "pt.P", "SMOP": "smop.P"}.get(cfg.kind, "bank.A")

    @property
    def prompt_length(self):
        return self.stack.shape[1]

    def param_arrays(self):
        out = {self.stack_name: self.stack}
        if self.proj is not None:
            out["bank.B"] = self.proj
        if self.router is not None:
            out.update({"router.W": self.router.w, "router.b": self.router.b})
        return out

    def param_count(self):
        return sum(a.size for a in self.param_arrays().values())

    def prompt_node(self, lm, batch, rng=None, training=False, forced=None):
        """(b, t', h) prompt node and the routing decisions (None without a router)."""
        if self.router is None:
            weights, decisions = ad.const(np.ones((batch.size, 1))), None
        else:
            weights, decisions = rt.route_batch(
                mean_rows(lm.embed(batch.token_ids), batch.attn_mask),
                ad.leaf(self.router.w, "router.W"),
                ad.leaf(self.router.b, "router.b"),
                self.router,
                rng=rng,
                training=training,
                forced=forced,
            )
        mixed = ad.expert_mix(weights, ad.leaf(self.stack, self.stack_name))  # weighted sum first
        if self.proj is None:
            return mixed, decisions
        return ad.matmul(mixed, ad.leaf(self.proj, "bank.B")), decisions  # one shared projection


def build(cfg, lm, rng):
    """Instantiate a provider with its initialization text baked in."""
    t, h, n = cfg.prompt_length, lm.cfg.hidden, cfg.num_experts
    e = init_text_embeddings(lm, cfg.init_text, t)
    proj = router = None
    if cfg.kind in ("PT", "SMOP"):
        stack = np.array(e.reshape(n, t // n, h))  # SMOP: n consecutive spans of t/n rows
    else:
        stack, proj = pb.init_from_embeddings(e, n=n, r=cfg.resolve_rank(h))
    if cfg.kind in ("SMOP", "PT_MOE"):
        w, b = rt.init_router(n, h, rng.child("router"), w_std=cfg.router_w_std)
        router = rt.RouterParams(
            w=w, b=b, sigma=cfg.sigma, k=cfg.k,
            selective=cfg.selective, probationary=cfg.probationary,
        )
    return Provider(cfg, stack, proj, router)


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
