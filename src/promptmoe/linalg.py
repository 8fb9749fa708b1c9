"""Dense float64 linear algebra helpers and the deterministic RNG stream.

Everything here is plain numpy on 2-D (or explicitly batched) arrays. The
truncated SVD goes through a Jacobi eigendecomposition of the smaller-side
Gram matrix rather than bidiagonalization: the matrices involved are tiny
(longest side is the embedding width) and the Gram route keeps the whole
decomposition inside our own kernels.
"""

import zlib

import numpy as np

from .errors import NumericalError, ShapeError
from .kernels import jacobi_sweeps

JACOBI_MAX_SWEEPS = 60
JACOBI_TOL_SCALE = 1e-13

class RngStream:
    """Hierarchical counter-based RNG with stateless children.

    A child stream is identified by (root seed, key path) alone, never by
    draw order, so ``stream.child("noise", step)`` yields bitwise identical
    values whether the run got there directly or through a resume. String
    key parts are folded to ints with crc32; Philox does the rest.
    """

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self.path = _path

    def child(self, *key):
        parts = tuple(
            zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key
        )
        return RngStream(self.seed, self.path + parts)

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def normal(self, shape, std=1.0):
        return self.generator().normal(0.0, std, size=shape)

    def integers(self, low, high, shape=None):
        return self.generator().integers(low, high, size=shape)

    def permutation(self, n):
        return self.generator().permutation(n)

# Singular values at or below this fraction of the largest are treated as
# zero and their derived-side vectors are completed by Gram-Schmidt instead
# of the unstable E^T u / sigma division.
DEGENERATE_RTOL = 3e-8


def mean_rows(x, mask):
    """Mean of ``x`` over its second-to-last axis, restricted to ``mask``.

    ``x`` is (..., s, h), ``mask`` (..., s) with 0/1 entries. Rows whose
    mask is all zero come back as zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if x.shape[:-1] != mask.shape:
        raise ShapeError(f"mean_rows mask {mask.shape} does not match x {x.shape}")
    num = (x * mask[..., None]).sum(axis=-2)
    den = np.maximum(mask.sum(axis=-1, keepdims=True), 1.0)
    return num / den


def fro_norm(x):
    return float(np.sqrt(np.sum(np.asarray(x, dtype=np.float64) ** 2)))


def _symmetric_eig(g):
    """Eigendecomposition of symmetric ``g`` by cyclic Jacobi rotations.

    Returns (eigvals, eigvecs) sorted by descending eigenvalue. Raises
    NumericalError when the off-diagonal mass has not shrunk below the
    tolerance within the sweep budget.
    """
    a = np.array(g, dtype=np.float64, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    tol = JACOBI_TOL_SCALE * fro_norm(g)
    off, sweeps = jacobi_sweeps(a, v, JACOBI_MAX_SWEEPS, tol)
    if off > tol:
        raise NumericalError(
            f"jacobi eigendecomposition stalled: off-diagonal residual {off:.3e} "
            f"(tolerance {tol:.3e}) after {sweeps} sweeps"
        )
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def _complete_orthonormal(cols, j, dim):
    """Fill column ``j`` of ``cols`` with a unit vector orthogonal to columns < j.

    Candidates are the canonical basis vectors in index order, so the result
    is deterministic.
    """
    for c in range(dim):
        cand = np.zeros(dim)
        cand[c] = 1.0
        cand -= cols[:, :j] @ (cols[:, :j].T @ cand)
        norm = np.sqrt(np.sum(cand**2))
        if norm > 0.5:
            cols[:, j] = cand / norm
            return
    raise NumericalError("orthonormal completion found no independent direction")


def truncated_svd(e, rank):
    """Rank-``rank`` SVD of a 2-D matrix: returns (u, s, vt).

    u is (t, rank) with orthonormal columns, s descending non-negative,
    vt (rank, h) with orthonormal rows, and u @ diag(s) @ vt is the best
    rank-``rank`` approximation of ``e``. Exact zeros in s stay zero; the
    corresponding u/vt directions are completed to an orthonormal set
    rather than scaled out of noise.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 2:
        raise ShapeError(f"truncated_svd expects a 2-D matrix, got {e.shape}")
    t, h = e.shape
    if not 1 <= rank <= min(t, h):
        raise ShapeError(f"rank {rank} out of range for shape {e.shape}")

    # Eigendecompose the smaller Gram matrix; derive the other side from it.
    small_is_rows = t <= h
    g = e @ e.T if small_is_rows else e.T @ e
    g = (g + g.T) / 2.0
    w, q = _symmetric_eig(g)
    w = np.maximum(w[:rank], 0.0)
    s = np.sqrt(w)
    base = q[:, :rank]

    smax = s[0] if s.size else 0.0
    cutoff = DEGENERATE_RTOL * smax
    derived_dim = h if small_is_rows else t
    derived = np.zeros((derived_dim, rank))
    for j in range(rank):
        if s[j] > cutoff:
            d = (e.T @ base[:, j]) if small_is_rows else (e @ base[:, j])
            derived[:, j] = d / np.sqrt(np.sum(d**2))
        else:
            s[j] = 0.0
            _complete_orthonormal(derived, j, derived_dim)

    if small_is_rows:
        return base, s, derived.T
    return derived, s, base.T
