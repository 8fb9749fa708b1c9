"""Hot numeric kernels, in plain numpy.

These are the loops the model, the SVD and the optimizer spend their
numeric time in: cyclic Jacobi rotations, the masked attention softmax,
the fused token NLL with its gradient, and the Adam update. There is one
implementation of each, so results are bitwise reproducible for a given
numpy/BLAS build and thread count.

The softmax and the NLL work in place on one output array they allocate
and never write into their inputs. ``masked_softmax`` takes scores of any
number of axes and a boolean mask that broadcasts against them (the
attention mask is (b, 1, q, keys) against (b, heads, q, keys) scores), so
the mask is never expanded to the scores' shape, and masked entries are
never exponentiated.
"""

import numpy as np


def active_backend() -> str:
    return "numpy"


def jacobi_sweeps(a, v, max_sweeps, tol):
    """Cyclic Jacobi rotations on symmetric ``a`` (mutated toward diagonal).

    Rotations accumulate into ``v`` (columns become eigenvectors). Returns
    (off_norm, sweeps_used) where off_norm is the remaining off-diagonal
    Frobenius norm.
    """
    n = a.shape[0]
    sweeps = 0
    off = _offdiag_norm(a)
    while off > tol and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        sweeps += 1
        off = _offdiag_norm(a)
    return off, sweeps


def _offdiag_norm(a):
    d = np.diag(np.diag(a))
    return float(np.sqrt(np.sum((a - d) ** 2)))


def masked_softmax(scores, valid):
    """Softmax over the last axis restricted to ``valid`` entries.

    ``valid`` is a boolean mask that broadcasts against ``scores``. Invalid
    entries get probability 0; an all-invalid row comes back as zeros
    (callers never produce one in practice).
    """
    valid = np.asarray(valid, dtype=bool)
    m = np.max(scores, axis=-1, keepdims=True, initial=-np.inf, where=valid)
    m[~np.isfinite(m)] = 0.0
    out = np.zeros(scores.shape)
    # exp runs over valid entries only: exp(-inf) takes numpy's slow path
    np.subtract(scores, m, out=out, where=valid)
    np.exp(out, out=out, where=valid)
    z = out.sum(axis=-1, keepdims=True)
    z[~(z > 0.0)] = 1.0
    out /= z
    return out


def nll_fwd_bwd(logits, targets, mask):
    """Masked token NLL over rows of ``logits``.

    Returns (loss_sum, dlogits) where loss_sum = sum_i mask_i * (logsumexp_i
    - logits_i[t_i]) and dlogits_i = mask_i * (softmax_i - onehot(t_i)).
    """
    n, _ = logits.shape
    m = logits.max(axis=1, keepdims=True)
    dlogits = logits - m
    np.exp(dlogits, out=dlogits)
    z = dlogits.sum(axis=1, keepdims=True)
    logz = (m + np.log(z))[:, 0]
    rows = np.arange(n)
    per_row = (logz - logits[rows, targets]) * mask
    dlogits /= z
    dlogits[rows, targets] -= 1.0
    dlogits *= mask[:, None]
    return float(per_row.sum()), dlogits


def adamw_update(p, g, m, v, step, lr, beta1, beta2, eps):
    """One Adam update (decoupled decay removed), in place on flat arrays."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1**step)
    vhat = v / (1.0 - beta2**step)
    p -= lr * (mhat / (np.sqrt(vhat) + eps))
