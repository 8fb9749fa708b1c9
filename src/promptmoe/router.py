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

One function, ``route_batch``, routes a whole batch at once for training
and for inference alike, and returns one ``Routing`` record of (b, n)
arrays. Differentiation treats the top-k mask and the renormalization
constant as constants (straight-through), so gradients reach only the
retained softmax entries.
"""

from dataclasses import dataclass

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
class Routing:
    """One batch's routing as (b, n) arrays, plus the (b, 1) ``renorm``.

    ``logits``, ``noisy_logits`` and ``soft`` are the router's node values;
    ``mask`` is 1 on kept experts; ``weights`` is ``soft * mask / renorm``,
    which the straight-through weight node equals up to rounding.
    """

    logits: np.ndarray
    noisy_logits: np.ndarray
    soft: np.ndarray
    mask: np.ndarray
    renorm: np.ndarray
    weights: np.ndarray

    @property
    def primary(self):
        """(b,) index of each example's top-weighted expert, lowest on ties."""
        return self.weights.argmax(axis=1)

    def tally_primary(self, tasks, counts):
        """Add each example's primary expert to ``counts[task]``, an (n,) int64 row."""
        for task, e in zip(tasks, self.primary):
            counts.setdefault(task, np.zeros(self.mask.shape[1], dtype=np.int64))[e] += 1


def init_router(n, h, rng, w_std=1.0):
    """Fresh router parameters: gaussian w, zero bias."""
    return np.asarray(rng.normal((n, h), std=w_std)), np.zeros(n)


def route_batch(mu, w_node, b_node, params, rng=None, training=False, forced=None):
    """Route a batch of examples; the one router for training and inference.

    ``mu`` is the raw (b, h) mean-embedding matrix (the base model is
    frozen, so no gradient flows into it). Noise is drawn per example.
    Returns the (b, n) straight-through weight node and the batch's
    ``Routing``.

    ``forced`` replays an earlier ``Routing``: its mask and renorm constants
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
    if forced is not None:
        mask, renorm = forced.mask, forced.renorm
    else:
        if params.selective:
            # stable sort of -soft: the lowest index wins ties
            keep = np.argsort(-soft.value, axis=1, kind="stable")[:, : params.k]
            mask = np.zeros((bsize, params.n))
            np.put_along_axis(mask, keep, 1.0, axis=1)
        else:
            mask = np.ones((bsize, params.n))
        if params.probationary:
            renorm = np.ones((bsize, 1))
        else:
            renorm = (soft.value * mask).sum(axis=1, keepdims=True)
    routing = Routing(
        logits=logits.value,
        noisy_logits=noisy.value,
        soft=soft.value,
        mask=mask,
        renorm=renorm,
        weights=soft.value * mask / renorm,
    )
    return ad.mul(soft, ad.const(mask / renorm)), routing
