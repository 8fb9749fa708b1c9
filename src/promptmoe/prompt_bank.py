"""Decomposed soft-prompt parameters: per-expert factors and the shared projection.

A bank is n low-rank factors a, an (n, t, r) stack, plus one shared r x h
projection b. A full prompt is (sum_i w_i * a_i) @ b: the weighted sum runs
in the low-rank space first, then a single projection maps to the model
width (``methods.Provider.prompt_node`` builds it on the autodiff tape).
Initialization factors the embedding matrix of an initialization text
through a truncated SVD so every expert starts from the same task-relevant
subspace; experts differentiate only through routing.
"""

import numpy as np

from .errors import ConfigError
from .linalg import truncated_svd


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


def format_k(count):
    """Table-style thousands display: 80706 -> '80k'."""
    return f"{count // 1000}k"


def auto_rank(budget, n, t, h, routed):
    """Largest rank r whose bank (n*t*r + r*h), plus the router when routed, fits the budget."""
    router_cost = n * h + n if routed else 0
    r = (budget - router_cost) // (n * t + h)
    if r < 1:
        raise ConfigError(
            f"budget {budget} too small for rank 1 (needs {router_cost + n * t + h})"
        )
    return r
