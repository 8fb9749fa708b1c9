"""Input-conditioned expert selection.

Logits are a linear map of the mean input embedding. During training the
logits get multiplicative Gaussian noise, l' = l * (1 + eps), to keep
exploration alive; inference is noise-free. Selection then has two
independent switches:

* selective: keep only the top-k softmax entries (ties break toward the
  lowest expert index), zero the rest; non-selective keeps all experts.
* probationary: kept weights stay at their softmax values, so the prompt
  is scaled by router confidence; non-probationary renormalizes the kept
  weights to sum to 1.

One function, ``route_batch``, routes a whole batch for training and for
inference alike. Differentiation treats the top-k mask and the
renormalization constant as constants (straight-through), so gradients
reach only the retained softmax entries.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError


@dataclass
class RouterParams:
    w: np.ndarray
    b: np.ndarray
    sigma: float = 0.01
    k: int = 1
    selective: bool = True
    probationary: bool = True

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ConfigError(
                f"router wants w (n,h) and b (n,), got {self.w.shape} and {self.b.shape}"
            )
        if self.sigma < 0:
            raise ConfigError(f"noise std must be >= 0, got {self.sigma}")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"top-k {self.k} out of range for {self.n} experts")

    @property
    def n(self):
        return self.w.shape[0]


@dataclass
class RoutingDecision:
    weights: np.ndarray
    selected: tuple
    soft: np.ndarray
    logits: np.ndarray
    noisy_logits: np.ndarray
    mask: np.ndarray = field(repr=False, default=None)
    renorm: float = 1.0


def init_router(n, h, rng, w_std=1.0):
    """Fresh router parameters: gaussian w, zero bias."""
    return np.asarray(rng.normal((n, h), std=w_std)), np.zeros(n)


def _select(soft, params):
    """Top-k mask and renorm constant from raw softmax values."""
    n = soft.shape[0]
    if params.selective:
        order = np.argsort(-soft, kind="stable")  # stable = lowest index wins ties
        keep = np.sort(order[: params.k])
    else:
        keep = np.arange(n)
    mask = np.zeros(n)
    mask[keep] = 1.0
    renorm = 1.0 if params.probationary else float((soft * mask).sum())
    return tuple(int(i) for i in keep), mask, renorm


def route_batch(mu, w_node, b_node, params, rng=None, training=False, forced=None):
    """Route a batch of examples; the one router for training and inference.

    ``mu`` is the raw (b, h) mean-embedding matrix (the base model is
    frozen, so no gradient flows into it). Noise is drawn per example.
    Returns the (b, n) straight-through weight node plus the per-example
    decisions for logging.

    ``forced`` replays earlier decisions: their masks and renorm constants
    are reused instead of recomputed, which is how gradient checks hold the
    non-differentiable selection fixed while probing the smooth part.
    """
    mu = np.asarray(mu, dtype=np.float64)
    bsize = mu.shape[0]
    logits = ad.add(ad.matmul(ad.const(mu), ad.transpose(w_node, (1, 0))), b_node)
    if training:
        if rng is None:
            raise ConfigError("training-time routing needs an rng for the noise draw")
        eps = np.asarray(rng.normal((bsize, params.n), std=params.sigma))
        noisy = ad.mul(logits, ad.const(1.0 + eps))
    else:
        noisy = logits
    soft = ad.softmax(noisy)
    decisions = []
    st_scale = np.zeros((bsize, params.n))
    for e in range(bsize):
        if forced is not None:
            selected, mask, renorm = forced[e].selected, forced[e].mask, forced[e].renorm
        else:
            selected, mask, renorm = _select(soft.value[e], params)
        st_scale[e] = mask / renorm
        decisions.append(
            RoutingDecision(
                weights=soft.value[e] * mask / renorm,
                selected=selected,
                soft=soft.value[e].copy(),
                logits=logits.value[e].copy(),
                noisy_logits=noisy.value[e].copy(),
                mask=mask,
                renorm=renorm,
            )
        )
    return ad.mul(soft, ad.const(st_scale)), decisions
