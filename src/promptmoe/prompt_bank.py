"""Decomposed soft-prompt parameters: per-expert factors and the shared projection.

A bank holds n low-rank factors, each t x r, plus one shared r x h
projection. A full prompt is (sum_i w_i * a_i) @ b: the weighted sum runs
in the low-rank space first, then a single projection maps to the model
width (``methods.PTMoEProvider.prompt_node`` builds it on the autodiff
tape). Initialization factors the embedding matrix of an initialization
text through a truncated SVD so every expert starts from the same
task-relevant subspace; experts differentiate only through routing.
"""

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import truncated_svd


class PromptBank:
    def __init__(self, a, b_shared):
        a = np.asarray(a, dtype=np.float64)
        b_shared = np.asarray(b_shared, dtype=np.float64)
        if a.ndim != 3 or b_shared.ndim != 2 or a.shape[2] != b_shared.shape[0]:
            raise ShapeError(
                f"bank wants a (n,t,r) stack and an (r,h) projection, got "
                f"{a.shape} and {b_shared.shape}"
            )
        self.a = a
        self.b_shared = b_shared
        self.n, self.t, self.r = a.shape
        self.h = b_shared.shape[1]

    def param_count(self, with_router=False):
        return param_count(self.n, self.t, self.r, self.h, with_router)

    def to_arrays(self):
        out = {f"A.{i}": self.a[i] for i in range(self.n)}
        out["B"] = self.b_shared
        out["header"] = np.array([self.n, self.t, self.r, self.h], dtype=np.int64)
        return out

    @classmethod
    def from_arrays(cls, arrays):
        n, t, r, h = (int(x) for x in arrays["header"])
        a = np.stack([np.asarray(arrays[f"A.{i}"], dtype=np.float64) for i in range(n)])
        bank = cls(a, np.asarray(arrays["B"], dtype=np.float64))
        if (bank.n, bank.t, bank.r, bank.h) != (n, t, r, h):
            raise ShapeError(
                f"checkpoint header {(n, t, r, h)} disagrees with stored arrays "
                f"{(bank.n, bank.t, bank.r, bank.h)}"
            )
        return bank


def init_from_embeddings(e, n, r):
    """Build a bank from the t x h embedding matrix of the initialization text.

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
    return PromptBank(np.repeat(a_one[None, :, :], n, axis=0), b_shared)


def param_count(n, t, r, h, with_router=False):
    if min(n, t, r, h) < 1:
        raise ConfigError(f"dimensions must be positive, got {(n, t, r, h)}")
    count = n * t * r + r * h
    if with_router:
        count += n * h + n
    return count


def format_k(count):
    """Table-style thousands display: 80706 -> '80k'."""
    return f"{count // 1000}k"


def auto_rank(budget, n, t, h):
    """Largest rank whose routed bank fits the budget (router cost included)."""
    router_cost = n * h + n
    if budget <= router_cost:
        raise ConfigError(f"budget {budget} cannot cover the router alone ({router_cost})")
    r = (budget - router_cost) // (n * t + h)
    if r < 1:
        raise ConfigError(
            f"budget {budget} too small for rank 1 (needs {router_cost + n * t + h})"
        )
    return r
