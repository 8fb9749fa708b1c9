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


def draw_noise(rng, b, cfg):
    """The (b, n) training noise eps of a b-row batch, drawn per example from ``rng``."""
    return np.asarray(rng.normal((b, cfg.num_experts), std=cfg.sigma))


def route_batch(mu, w_node, b_node, cfg, training=False, noise=None, forced=None):
    """Route a batch of examples; the one router for training and inference.

    ``mu`` is the raw (b, h) mean-embedding matrix (the base model is
    frozen, so no gradient flows into it); ``w_node`` and ``b_node`` hold
    the (n, h) and (n,) router parameters; ``cfg`` is the
    ``methods.MethodConfig`` whose ``k``, ``selective`` and ``probationary``
    apply. In training the logits take the (b, n) noise eps ``noise`` that
    ``draw_noise`` drew. Returns the (b, n) straight-through weight node and
    the batch's ``Routing``.

    Each row's logits are computed on their own (``autodiff.row_matmul``),
    so a batch routed in row parts, each with its rows of ``noise``, routes
    bit for bit as the whole batch does.

    ``forced`` replays an earlier ``Routing``: its mask and renorm constants
    are reused instead of recomputed, which is how gradient checks hold the
    non-differentiable selection fixed while probing the smooth part.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logits = ad.add(ad.row_matmul(ad.const(mu), ad.transpose(w_node, (1, 0))), b_node)
    bsize, n = logits.value.shape
    if training:
        if noise is None:
            raise ConfigError("training-time routing needs its noise (draw_noise)")
        noisy = ad.mul(logits, ad.const(1.0 + noise))
    else:
        noisy = logits
    soft = ad.softmax(noisy)
    if forced is not None:
        mask, renorm = forced.mask, forced.renorm
    else:
        if cfg.selective:
            # stable sort of -soft: the lowest index wins ties
            keep = np.argsort(-soft.value, axis=1, kind="stable")[:, : cfg.k]
            mask = np.zeros((bsize, n))
            np.put_along_axis(mask, keep, 1.0, axis=1)
        else:
            mask = np.ones((bsize, n))
        if cfg.probationary:
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
