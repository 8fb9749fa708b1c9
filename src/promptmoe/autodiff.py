"""Reverse-mode differentiation over the tensor ops the model needs.

The graph is rebuilt on every forward pass. Each op returns a fresh Node
holding its value and a graph ``Record``: the parents' records, a backward
rule that maps the output adjoint to per-parent adjoints, the name, the
adjoint and the shape. The graph holds records, never values, so an
intermediate array is freed as soon as the forward drops its Node, unless
a backward rule saved it. Each rule saves exactly the arrays it reads,
chosen when the op runs (the saved-values tape of Griewank & Walther,
*Evaluating Derivatives*, 2008, ch. 4): ``matmul`` keeps ``b`` only if
``a`` is active and ``a`` only if ``b`` is, ``add`` keeps only shapes.
``backward`` walks the records once in reverse topological order and
returns gradients for every named leaf.

Only *active* nodes take part (activity analysis, Griewank & Walther): a
node is active if it is a named leaf or has an active parent. An op with
no active parent records no graph: every constant shares the one inactive
record ``CONST``, so a forward over constants only builds no graph, and a
backward rule computes adjoints for its active parents only (``None`` for
the others).

All values are float64 numpy arrays. Ops accept raw arrays anywhere a Node
is expected and wrap them as unnamed constants. No op and no backward rule
writes into an input value or an incoming adjoint: the hot ops (gelu,
layernorm, the masked softmax) compute in place in arrays they allocate
themselves, in the same floating-point operation order as their textbook
formulas.
"""

import math

import numpy as np

from . import kernels
from .errors import GraphError, NumericalError, ShapeError


class Record:
    """What the graph keeps of one node: everything backward reads but its value."""

    __slots__ = ("parents", "vjp", "name", "grad", "shape")

    def __init__(self, parents, vjp, name, shape):
        self.parents = parents
        self.vjp = vjp
        self.name = name
        self.grad = None
        self.shape = shape

    @property
    def active(self):
        """True if some named leaf's gradient can flow through this record."""
        return self.name is not None or bool(self.parents)

    def __repr__(self):
        tag = self.name or ("op" if self.parents else "const")
        return f"Record({tag}, shape={self.shape})"


CONST = Record((), None, None, None)  # the record of every constant; backward never writes it


class Node:
    """A value the forward holds, and its record in the graph."""

    __slots__ = ("value", "record")

    def __init__(self, value, parents=(), vjp=None, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        if name is None and all(p.record is CONST for p in parents):
            self.record = CONST  # a function of constants is a constant
        else:
            self.record = Record(tuple(p.record for p in parents), vjp, name, self.value.shape)

    @property
    def active(self):
        return self.record is not CONST

    @property
    def parents(self):
        return self.record.parents

    @property
    def name(self):
        return self.record.name

    @property
    def grad(self):
        return self.record.grad

    @property
    def vjp(self):
        return self.record.vjp

    @vjp.setter
    def vjp(self, fn):
        # a constant has no backward rule, and CONST is shared by all of them
        if self.record is not CONST:
            self.record.vjp = fn

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name or ("op" if self.parents else "const")
        return f"Node({tag}, shape={self.value.shape})"


def leaf(value, name):
    """A named trainable leaf; ``backward`` reports its gradient."""
    return Node(value, name=name)


def const(value):
    """An unnamed, inactive leaf; gradients stop here. ``const(x.value)`` stops x's gradient."""
    return Node(value)


def as_node(x):
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(g, shape):
    # reverse numpy broadcasting: sum out prepended axes, then size-1 axes
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _shape_if_active(node):
    return node.value.shape if node.active else None


def add(a, b):
    a, b = as_node(a), as_node(b)
    sa, sb = _shape_if_active(a), _shape_if_active(b)

    def vjp(g):
        return (
            None if sa is None else _unbroadcast(g, sa),
            None if sb is None else _unbroadcast(g, sb),
        )

    return Node(a.value + b.value, (a, b), vjp)


def rotate_half(a):
    """[x1, x2] -> [-x2, x1] over the halves of the last axis (rotary attention).

    The map is orthogonal with inverse -rotate_half, so the VJP is -rotate_half(g).
    """
    a = as_node(a)
    if a.value.ndim < 1 or a.value.shape[-1] % 2:
        raise ShapeError(f"rotate_half needs an even last axis, got shape {a.value.shape}")
    return Node(_rotate_half(a.value), (a,), lambda g: (_rotate_half(g, inverse=True),))


def _rotate_half(x, inverse=False):
    """[x1, x2] -> [-x2, x1], or its inverse [x2, -x1], into one new C-ordered array."""
    d2 = x.shape[-1] // 2
    out = np.empty(x.shape)
    if inverse:
        out[..., :d2] = x[..., d2:]
        np.negative(x[..., :d2], out=out[..., d2:])
    else:
        np.negative(x[..., d2:], out=out[..., :d2])
        out[..., d2:] = x[..., :d2]
    return out


def _bilinear_saves(a, b):
    """(a's value, b's value, a's shape, b's shape) as a bilinear op's rule reads them.

    The adjoint of one operand reads the other's value, so a value is kept
    only if the other operand is active, and a shape only if its own is.
    """
    return (
        a.value if b.active else None,
        b.value if a.active else None,
        _shape_if_active(a),
        _shape_if_active(b),
    )


def mul(a, b):
    a, b = as_node(a), as_node(b)
    av, bv, sa, sb = _bilinear_saves(a, b)

    def vjp(g):
        return (
            None if sa is None else _unbroadcast(g * bv, sa),
            None if sb is None else _unbroadcast(g * av, sb),
        )

    return Node(a.value * b.value, (a, b), vjp)


def matmul(a, b):
    a, b = as_node(a), as_node(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(
            f"matmul expects ndim >= 2 operands, got {a.value.shape} and {b.value.shape}"
        )
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.value.shape} @ {b.value.shape}")
    if a.value.ndim == 3 and a.value.shape[1] == 1 and b.value.ndim == 2:
        # one (b, h) @ (h, n) gemm, not b separate (1, h) @ (h, n) products
        out = (a.value[:, 0] @ b.value)[:, None]
    else:
        out = a.value @ b.value
    av, bv, sa, sb = _bilinear_saves(a, b)

    def vjp(g):
        da = None if sa is None else _unbroadcast(g @ bv.swapaxes(-1, -2), sa)
        db = None if sb is None else _unbroadcast(av.swapaxes(-1, -2) @ g, sb)
        return da, db

    return Node(out, (a, b), vjp)


def row_matmul(a, b):
    """(m, h) @ (h, n), each output row computed on its own.

    A gemm may round a row differently depending on how many rows the
    product has; this einsum gives every row the same bits in any batch.
    """
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"row_matmul expects (m, h) @ (h, n), got {a.value.shape} @ {b.value.shape}")
    av, bv, sa, sb = _bilinear_saves(a, b)

    def vjp(g):
        da = None if sa is None else np.einsum("mn,hn->mh", g, bv)
        db = None if sb is None else np.einsum("mh,mn->hn", av, g)
        return da, db

    return Node(np.einsum("mh,hn->mn", a.value, b.value), (a, b), vjp)


def transpose(a, axes):
    a = as_node(a)
    inv = np.argsort(axes)
    return Node(a.value.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def reshape(a, shape):
    a = as_node(a)
    orig = a.value.shape
    return Node(a.value.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def concat(nodes, axis):
    nodes = [as_node(n) for n in nodes]
    splits = np.cumsum([n.value.shape[axis] for n in nodes])[:-1]
    active = [n.active for n in nodes]

    def vjp(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(part if on else None for on, part in zip(active, parts))

    return Node(np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes), vjp)


def embedding(table, ids):
    """Row lookup ``table[ids]``; backward scatter-adds into the table."""
    table = as_node(table)
    ids = np.asarray(ids)
    shape = table.value.shape

    def vjp(g):
        dt = np.zeros(shape)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (dt,)

    return Node(table.value[ids], (table,), vjp)


def take_rows(x, idx):
    """Per-example row gather: out[e, j] = x[e, idx[e, j]].

    x is (b, n, ...) and idx a (b, m) integer array whose indices are unique
    within each example, so the backward rule scatters the adjoint into zeros
    without accumulating.
    """
    x = as_node(x)
    idx = np.asarray(idx, dtype=np.int64)
    shape = x.value.shape
    if len(shape) < 2 or idx.ndim != 2 or idx.shape[0] != shape[0]:
        raise ShapeError(
            f"take_rows needs (b, n, ...) values and (b, m) indices, got {shape} and {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= shape[1]):
        raise ShapeError(f"take_rows index out of range for {shape[1]} rows")
    if np.any(np.diff(np.sort(idx, axis=1), axis=1) == 0):
        raise ShapeError("take_rows indices repeat within an example")
    pick = (np.arange(shape[0])[:, None], idx)

    def vjp(g):
        dx = np.zeros(shape)
        dx[pick] = g
        return (dx,)

    return Node(x.value[pick], (x,), vjp)


def softmax(a):
    return masked_softmax(a, True)


def masked_softmax(a, valid):
    """Softmax over the last axis with invalid entries pinned to zero.

    ``valid`` is a boolean mask that broadcasts against ``a`` (see
    ``kernels.masked_softmax``).
    """
    a = as_node(a)
    s = kernels.masked_softmax(a.value, valid)

    def vjp(g):
        da = g * s
        dot = da.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=da)
        da *= s
        return (da,)

    return Node(s, (a,), vjp)


def layernorm(x, gain, bias, eps=1e-5):
    x, gain, bias = as_node(x), as_node(gain), as_node(bias)
    # the operations of mean, var and (x - mu) * inv * gain + bias, in two buffers
    mu = x.value.mean(axis=-1, keepdims=True)
    xhat = x.value - mu
    out = np.square(xhat)
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.value, out=out)
    out += bias.value
    x_on = x.active
    gv = gain.value if x_on else None
    sg, sb = _shape_if_active(gain), _shape_if_active(bias)

    def vjp(g):
        dx = dgain = dbias = None
        if x_on:
            # inv * (gdot - mean(gdot) - xhat * mean(gdot * xhat)), gdot = g * gain
            dx = g * gv
            tmp = dx * xhat
            m2 = tmp.mean(axis=-1, keepdims=True)
            dx -= dx.mean(axis=-1, keepdims=True)
            np.multiply(xhat, m2, out=tmp)
            dx -= tmp
            dx *= inv
        if sg is not None:
            dgain = _unbroadcast(g * xhat, sg)
        if sb is not None:
            dbias = _unbroadcast(g, sb)
        return dx, dgain, dbias

    return Node(out, (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """tanh-form gelu; smooth everywhere, which keeps finite differences honest."""
    x = as_node(x)
    v = x.value
    # t = tanh(c * (v + 0.044715 * v**3)) and out = 0.5 * v * (1 + t), in
    # place; v**3 goes to libm pow, which costs ~50x two multiplies
    t = v * v
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(v, 0.5)
    out *= t + 1.0

    def vjp(g):
        # g * (0.5 * (1 + t) + 0.5 * v * (1 - t**2) * c * (1 + 3 * 0.044715 * v**2))
        dinner = v * v
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        tail = np.multiply(v, 0.5)
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        tail *= sech2
        tail *= dinner
        dv = np.add(t, 1.0, out=dinner)
        dv *= 0.5
        dv += tail
        dv *= g
        return (dv,)

    return Node(out, (x,), vjp)


def sum_all(x):
    x = as_node(x)
    shape = x.value.shape
    return Node(x.value.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def scale(x, c):
    x = as_node(x)
    c = float(c)
    return Node(x.value * c, (x,), lambda g: (g * c,))


def masked_nll(logits, targets, loss_mask):
    """Summed negative log-likelihood over mask-1 positions.

    Returns (loss_node, count) where count is the number of positions the
    sum ran over, so callers can report or optimize the per-token mean.
    """
    logits = as_node(logits)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(loss_mask, dtype=np.float64)
    if logits.value.shape[:-1] != targets.shape or targets.shape != mask.shape:
        raise ShapeError(
            f"masked_nll shapes disagree: logits {logits.value.shape}, "
            f"targets {targets.shape}, mask {mask.shape}"
        )
    vsize = logits.value.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vsize):
        raise ShapeError(f"target id out of range for vocab {vsize}")
    flat = np.ascontiguousarray(logits.value.reshape(-1, vsize))  # no copy: logits come from matmul
    loss, dflat = kernels.nll_fwd_bwd(flat, targets.reshape(-1), mask.reshape(-1))
    dlogits = dflat.reshape(logits.value.shape)

    def vjp(g):
        return (g * dlogits,)

    return Node(np.float64(loss), (logits,), vjp), int(mask.sum())


def expert_mix(weights, stack):
    """Per-example weighted sum of a parameter stack.

    weights (b, n), stack (n, t, r) -> (b, t, r): out[e] = sum_i w[e,i] * stack[i].
    """
    weights, stack = as_node(weights), as_node(stack)
    if weights.value.ndim != 2 or stack.value.ndim != 3:
        raise ShapeError(
            f"expert_mix expects (b,n) weights and (n,t,r) stack, got "
            f"{weights.value.shape} and {stack.value.shape}"
        )
    if weights.value.shape[1] != stack.value.shape[0]:
        raise ShapeError(
            f"expert_mix expert counts differ: {weights.value.shape} vs {stack.value.shape}"
        )
    out = np.einsum("bn,ntr->btr", weights.value, stack.value)
    wv, sv, sw, ss = _bilinear_saves(weights, stack)

    def vjp(g):
        dw = None if sw is None else np.einsum("btr,ntr->bn", g, sv)
        ds = None if ss is None else np.einsum("bn,btr->ntr", wv, g)
        return dw, ds

    return Node(out, (weights, stack), vjp)


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        rec, expanded = stack.pop()
        if expanded:
            order.append(rec)
            continue
        if id(rec) in seen:
            continue
        seen.add(id(rec))
        stack.append((rec, True))
        for p in rec.parents:
            if p.active and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Accumulate adjoints from a scalar loss; returns {leaf name: gradient}.

    Walks the records of the active nodes reachable from the loss. Each
    record's adjoint is handed to its backward rule, whose results go to
    the parents. The rule, with the arrays it saved, and an unnamed record's
    adjoint are then dropped, so after ``backward`` only named leaves hold a
    ``.grad`` and no record holds a rule: a graph runs backward once.
    Constants are never visited, and a constant loss writes nothing anywhere
    and returns {}.
    Unreachable parameters simply do not appear in the result (treat as
    zero). A gradient may share memory with an adjoint a rule received, so
    treat it as read-only.

    A record's first adjoint is kept as its backward rule returned it,
    which may be a view of a child's adjoint (transpose, reshape, concat,
    add). The second is added into a new array, and later ones are added
    in place into that array, which only this record holds.
    """
    if not isinstance(loss, Node):
        raise GraphError("backward needs a Node produced by a recorded forward pass")
    if loss.value.ndim != 0 and loss.value.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.value.shape}")
    root = loss.record
    if not root.active:
        return {}
    order = _toposort(root)
    for rec in order:
        rec.grad = None
    root.grad = np.ones_like(loss.value)
    owned = set()  # ids of records whose .grad backward allocated itself
    grads = {}
    for rec in reversed(order):
        g = rec.grad
        if g is None:
            continue
        if rec.parents:
            if rec.vjp is None:
                raise GraphError(
                    "node with parents but no backward rule: the graph is detached or its "
                    "backward already ran (a graph runs backward once)"
                )
            parts, rec.vjp = rec.vjp(g), None  # frees the arrays the rule saved
            if len(parts) != len(rec.parents):
                raise GraphError(
                    f"backward rule returned {len(parts)} adjoints for "
                    f"{len(rec.parents)} parents"
                )
            for parent, part in zip(rec.parents, parts):
                if not parent.active:
                    continue
                if part is None:
                    raise GraphError("backward rule gave no adjoint for an active parent")
                if part.shape != parent.shape:
                    raise GraphError(
                        f"adjoint shape {part.shape} does not match value shape {parent.shape}"
                    )
                if parent.grad is None:
                    parent.grad = part
                elif id(parent) in owned:
                    parent.grad += part
                else:
                    parent.grad = parent.grad + part
                    owned.add(id(parent))
        if rec.name is None:
            rec.grad = None  # passed on to the parents
        elif rec.name in grads:
            raise GraphError(f"two distinct leaves share the name {rec.name!r}")
        else:
            grads[rec.name] = g
    return grads


# finite_diff_check's central differences use steps eps * 4**j, j < _FD_STEPS
_FD_STEPS = 4


def finite_diff_check(f, params, eps=1e-6, min_coords=100, seed=0):
    """Max relative error between reverse-mode and finite-difference grads.

    ``f`` maps a dict of raw parameter arrays to a scalar loss Node whose
    graph names its leaves by the dict keys. At least ``min_coords``
    coordinates (or all of them, if fewer exist) are sampled across the
    parameter set.

    Each coordinate's derivative is a Richardson-extrapolated central
    difference: central differences D(h) at h = eps * 4**j cancel their
    h**2 error pairwise as (16 D(h) - D(4h)) / 15, and of those estimates
    the one that agrees best with its larger-step neighbour is kept. Small
    steps lose digits to roundoff and large ones to truncation, so the
    best-agreeing pair marks the steps where neither dominates.
    """
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    loss = f(base)
    if not np.isfinite(loss.value):
        raise NumericalError(f"loss is non-finite: {loss.value}")
    grads = backward(loss)

    flat_index = []
    for name in sorted(base):
        flat_index.extend((name, i) for i in range(base[name].size))
    rng = np.random.default_rng(seed)
    count = min(len(flat_index), max(min_coords, 0))
    picks = rng.choice(len(flat_index), size=count, replace=False)

    worst = 0.0
    for pick in picks:
        name, i = flat_index[pick]
        g_ad = grads.get(name)
        g_ad = 0.0 if g_ad is None else g_ad.reshape(-1)[i]
        bumped = {k: v.copy() for k, v in base.items()}
        coord = bumped[name].reshape(-1)
        x0 = coord[i]

        def central(h):
            coord[i] = x0 + h
            up, hi = f(bumped).value, coord[i]
            coord[i] = x0 - h
            dn, lo = f(bumped).value, coord[i]
            if not (np.isfinite(up) and np.isfinite(dn)):
                raise NumericalError("finite-difference probe produced a non-finite loss")
            return (up - dn) / (hi - lo)  # the step actually taken, after rounding

        diffs = [central(eps * 4.0**j) for j in range(_FD_STEPS)]
        rich = [(16.0 * d - d4) / 15.0 for d, d4 in zip(diffs, diffs[1:])]
        j = min(range(len(rich) - 1), key=lambda j: abs(rich[j] - rich[j + 1]))
        g_fd = rich[j + 1]
        rel = abs(g_ad - g_fd) / max(1e-12, abs(g_ad) + abs(g_fd))
        worst = max(worst, rel)
    return worst
