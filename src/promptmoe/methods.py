"""The four prompt-side methods as one provider.

PT-MoE adds two parts to prompt tuning: a decomposition (n expert factors
sharing one projection) and a router that mixes the factors per example.
Each other method is PT-MoE with parts switched off:

* PT: one dense t x h prompt; no decomposition, no router.
* DPT: one t x r factor and the shared r x h projection; no router.
* SMOP: n full-width prompts of length t/n; a router picks one per example.
* PT_MOE: n t x r factors mixed by the router, then the shared projection.

A provider owns its trainable arrays (the trainer updates them in place),
and computes the per-example prompt node for a batch, returning the
batch's routing record where a router exists. The decomposed methods start
from a truncated SVD of the initialization text's embeddings, so every
expert starts from the same task-relevant subspace and experts
differentiate only through routing.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as lm_mod
from . import router as rt
from .errors import ConfigError
from .linalg import mean_rows, truncated_svd

KINDS = ("PT", "DPT", "SMOP", "PT_MOE")
DECOMPOSED_KINDS = ("DPT", "PT_MOE")
ROUTED_KINDS = ("SMOP", "PT_MOE")


def unread_fields(kind):
    """The MethodConfig fields ``kind`` has no part to read: a value set there changes nothing."""
    unread = set() if kind in DECOMPOSED_KINDS else {"rank", "budget"}
    if kind not in ROUTED_KINDS:
        unread |= {"num_experts", "sigma", "k", "selective", "probationary", "router_w_std"}
    return unread


@dataclass
class MethodConfig:
    """A method's shape and router settings; the defaults are the shipped desk run."""

    kind: str = "PT_MOE"
    prompt_length: int = 40
    num_experts: int = 2
    rank: object = "auto"  # int, or "auto": the largest rank within the budget, at most min(t, h)
    budget: int = 0  # 0 = the kind's reference budget scaled to the base width
    sigma: float = 0.01
    k: int = 1
    selective: bool = True
    probationary: bool = True
    init_text: str = "copy: a b c\na b c\n3+4 (mod 10)\n7\n"
    router_w_std: float = 6.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown method kind {self.kind!r}, expected one of {KINDS}")
        if self.prompt_length < 1:
            raise ConfigError(f"prompt_length must be >= 1, got {self.prompt_length}")
        if self.kind not in ROUTED_KINDS:
            self.num_experts = 1
        if self.num_experts < 1:
            raise ConfigError(f"num_experts must be >= 1, got {self.num_experts}")
        if self.kind == "SMOP" and self.prompt_length % self.num_experts != 0:
            raise ConfigError(
                f"SMOP needs prompt_length divisible by num_experts, got "
                f"{self.prompt_length} and {self.num_experts}"
            )
        if self.budget < 0:
            raise ConfigError(f"budget must be >= 0, got {self.budget}")
        if self.kind in DECOMPOSED_KINDS and self.rank != "auto":
            if isinstance(self.rank, bool) or not isinstance(self.rank, int):
                raise ConfigError(f"rank must be \"auto\" or an integer, got {self.rank!r}")
            if not 1 <= self.rank <= self.prompt_length:
                raise ConfigError(
                    f"rank {self.rank} out of range 1..{self.prompt_length} (the prompt length)"
                )
        if self.kind in ROUTED_KINDS:
            if self.sigma < 0:
                raise ConfigError(f"router noise sigma must be >= 0, got {self.sigma}")
            if not 1 <= self.k <= self.num_experts:
                raise ConfigError(f"top-k {self.k} out of range for {self.num_experts} experts")

    def resolve_rank(self, h):
        """Rank of the shared projection at base width h (None for PT and SMOP)."""
        if self.kind not in DECOMPOSED_KINDS:
            return None
        if self.rank != "auto":
            if self.rank > h:
                raise ConfigError(f"rank {self.rank} exceeds the base width {h}")
            return self.rank
        # the count is linear in r: fixed cost plus per-rank cost times r
        t, n = self.prompt_length, self.num_experts
        fixed = expected_param_count(self.kind, t, n, 0, h)
        per_rank = expected_param_count(self.kind, t, n, 1, h) - fixed
        budget = self.budget or scaled_budget(self.kind, h)
        r = (budget - fixed) // per_rank
        if r < 1:
            raise ConfigError(f"budget {budget} too small for rank 1 (needs {fixed + per_rank})")
        return min(r, t, h)  # the SVD of the t x h init text has no higher rank


def init_text_embeddings(lm, text, t):
    """t x h embedding matrix of the initialization text.

    The byte sequence is truncated to t tokens, or cycled when shorter, so
    the prompt always starts from in-distribution rows.
    """
    ids = lm_mod.encode(text)
    if not ids:
        raise ConfigError("initialization text is empty after tokenization")
    cycled = [ids[i % len(ids)] for i in range(t)]
    return lm.embed(np.array([cycled]))[0]


def init_from_embeddings(e, n, r):
    """(a, b_shared) from the t x h embedding matrix of the initialization text.

    With e = u s v^T, every expert factor starts as u[:, :r] * sqrt(s) and
    the shared projection as sqrt(s) * v[:r]; their product is the best
    rank-r approximation of e. sqrt(0) stays exactly 0.
    """
    e = np.asarray(e, dtype=np.float64)
    if n < 1:
        raise ConfigError(f"expert count must be >= 1, got {n}")
    u, s, vt = truncated_svd(e, r)
    root = np.sqrt(s)
    a_one = u * root[None, :]
    b_shared = root[:, None] * vt
    return np.repeat(a_one[None, :, :], n, axis=0), b_shared


class Provider:
    """One prompt provider for all four methods.

    ``stack`` is an (n, t', w) expert stack; ``proj`` an optional shared
    (r, h) projection (DPT, PT_MOE, where w = r); ``router_w`` and
    ``router_b`` the optional (n, h) and (n,) router arrays (SMOP, PT_MOE),
    routed under ``cfg``'s router settings. Without a router every example
    weights its single expert by 1.
    """

    def __init__(self, cfg, stack, proj=None, router_w=None, router_b=None):
        self.cfg = cfg
        self.stack = stack
        self.proj = proj
        self.router_w = router_w
        self.router_b = router_b
        self.stack_name = {"PT": "pt.P", "SMOP": "smop.P"}.get(cfg.kind, "bank.A")

    @property
    def prompt_length(self):
        return self.stack.shape[1]

    def param_arrays(self):
        out = {self.stack_name: self.stack}
        if self.proj is not None:
            out["bank.B"] = self.proj
        if self.router_w is not None:
            out.update({"router.W": self.router_w, "router.b": self.router_b})
        return out

    def param_count(self):
        return sum(a.size for a in self.param_arrays().values())

    def training_noise(self, rng, b):
        """The router noise a b-row training batch draws from ``rng``; None without a router."""
        return None if self.router_w is None else rt.draw_noise(rng, b, self.cfg)

    def prompt_node(self, lm, batch, training=False, noise=None, forced=None):
        """(b, t', h) prompt node and the batch's ``Routing`` (None without a router).

        ``training``, ``noise`` (from ``training_noise``) and ``forced`` go to
        ``router.route_batch``.
        """
        if self.router_w is None:
            weights, routing = ad.const(np.ones((batch.size, 1))), None
        else:
            weights, routing = rt.route_batch(
                mean_rows(lm.embed(batch.token_ids), batch.attn_mask),
                ad.leaf(self.router_w, "router.W"),
                ad.leaf(self.router_b, "router.b"),
                self.cfg,
                training=training,
                noise=noise,
                forced=forced,
            )
        mixed = ad.expert_mix(weights, ad.leaf(self.stack, self.stack_name))  # weighted sum first
        if self.proj is None:
            return mixed, routing
        return ad.matmul(mixed, ad.leaf(self.proj, "bank.B")), routing  # one shared projection


def build(cfg, lm, rng):
    """Instantiate a provider with its initialization text baked in."""
    t, h, n = cfg.prompt_length, lm.cfg.hidden, cfg.num_experts
    e = init_text_embeddings(lm, cfg.init_text, t)
    proj = w = b = None
    if cfg.kind not in DECOMPOSED_KINDS:
        stack = np.array(e.reshape(n, t // n, h))  # SMOP: n consecutive spans of t/n rows
    else:
        stack, proj = init_from_embeddings(e, n=n, r=cfg.resolve_rank(h))
    if cfg.kind in ROUTED_KINDS:
        w, b = rt.init_router(n, h, rng.child("router"), w_std=cfg.router_w_std)
    return Provider(cfg, stack, proj, w, b)


def loss_on_batch(provider, lm, batch, training=False, noise=None, forced=None):
    """(summed loss node, token count, ``Routing`` or None) for one batch."""
    prompt, routing = provider.prompt_node(
        lm, batch, training=training, noise=noise, forced=forced
    )
    loss, count = lm.loss_on_batch(prompt, batch)
    return loss, count, routing


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


def budget_table(h):
    """Rows of (kind, params, label, scaled target, relative error).

    Each kind runs at its defaults: PT and SMoP have no rank knob, so their
    budgets land wherever T=40 puts them; DPT and PT_MOE take the largest
    rank under their scaled reference budget. All four stay within a few
    percent of the common target.
    """
    target = 82000 * h / REFERENCE_H  # common "82k-equivalent" yardstick
    rows = []
    for kind in KINDS:
        cfg = MethodConfig(kind=kind)
        r = cfg.resolve_rank(h)
        count = expected_param_count(kind, cfg.prompt_length, cfg.num_experts, r or 0, h)
        rows.append((kind, count, f"{count // 1000}k", target, (count - target) / target))
    return rows
