"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed engine: each op builds a node holding its parents and a
closure that routes the upstream gradient to them. ``Tensor.backward`` walks
the graph once in reverse topological order. float32 is the working
precision; pass float64 data for gradient-check fidelity.

Broadcasting follows the trailing-dimension rule only (numpy's rule), which
covers everything the decoder model needs.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)
_FLOAT_DTYPES = (_F32, _F64)


class Tensor:
    """N-dimensional array node in an autodiff graph.

    Operations never mutate their inputs; only optimizers write to ``data``
    in place, outside of any graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: Optional[str] = None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in _FLOAT_DTYPES else np.float32
        self.data = np.asarray(arr, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None
        self.name = name

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    # -- graph ----------------------------------------------------------

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate gradients of this scalar into every reachable tensor."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = _accum(self.grad, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(current: Optional[np.ndarray], g: np.ndarray) -> np.ndarray:
    return g.copy() if current is None else current + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after trailing-dim broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _result_dtype(*tensors: Tensor) -> np.dtype:
    for t in tensors:
        if t.data.dtype == _F64:
            return _F64
    return _F32


def _needs_grad(t: Tensor) -> bool:
    """Trainable leaf or graph node; backward skips parents where this is False."""
    return t.requires_grad or bool(t._parents)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """``Tensor(data)`` without re-checking the float array an op just made;
    keeps ``backward_fn`` only if a parent needs a gradient."""
    if type(data) is not np.ndarray or data.dtype not in _FLOAT_DTYPES:
        data = Tensor(data).data
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad, out.name = data, None, False, None
    out._parents, out._backward_fn = (), None
    for p in parents:
        if p.requires_grad or p._parents:
            out._parents, out._backward_fn = tuple(parents), backward_fn
            break
    return out


def _add_grad(t: Tensor, g: np.ndarray):
    if _needs_grad(t):
        t.grad = _accum(t.grad, g.astype(t.data.dtype, copy=False))


# -- elementwise ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = (a.data + b.data).astype(_result_dtype(a, b), copy=False)
    except ValueError:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} are not broadcastable")

    def backward_fn(g):
        if _needs_grad(a):
            _add_grad(a, _unbroadcast(g, a.shape))
        if _needs_grad(b):
            _add_grad(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = (a.data * b.data).astype(_result_dtype(a, b), copy=False)
    except ValueError:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} are not broadcastable")

    def backward_fn(g):
        if _needs_grad(a):
            _add_grad(a, _unbroadcast(g * b.data, a.shape))
        if _needs_grad(b):
            _add_grad(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward_fn)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    data = a.data * s

    def backward_fn(g):
        _add_grad(a, g * s)

    return _node(data, (a,), backward_fn)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    x = _as_tensor(x)
    xd = x.data
    # repeated products: numpy's float32 power has no fast path for cubes
    inner = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)

    def backward_fn(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t ** 2) * d_inner
        _add_grad(x, g * dx)

    return _node(data, (x,), backward_fn)


def dropout(x, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted-scaling dropout; identity in evaluation mode or at p=0."""
    x = _as_tensor(x)
    if not training or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    data = x.data * keep

    def backward_fn(g):
        _add_grad(x, g * keep)

    return _node(data, (x,), backward_fn)


# -- shape manipulation ---------------------------------------------------


def reshape(x, shape: tuple) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def backward_fn(g):
        _add_grad(x, g.reshape(x.shape))

    return _node(data, (x,), backward_fn)


def transpose(x, axes=None) -> Tensor:
    x = _as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    data = x.data.transpose(axes)

    def backward_fn(g):
        _add_grad(x, g.transpose(np.argsort(axes)))

    return _node(data, (x,), backward_fn)


def slice_last(x, start: int, stop: int) -> Tensor:
    """Slice ``[start:stop]`` along the last axis."""
    x = _as_tensor(x)
    data = x.data[..., start:stop]

    def backward_fn(g):
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        _add_grad(x, full)

    return _node(data, (x,), backward_fn)


def tsum(x) -> Tensor:
    """Sum all elements to a scalar."""
    x = _as_tensor(x)
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward_fn(g):
        _add_grad(x, np.broadcast_to(g, x.shape))

    return _node(data, (x,), backward_fn)


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    data = (a.data @ b.data).astype(_result_dtype(a, b), copy=False)

    def backward_fn(g):
        if _needs_grad(a):
            _add_grad(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if _needs_grad(b):
            _add_grad(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _node(data, (a, b), backward_fn)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if d <= 0 or eps <= 0:
        raise ValueError("layer_norm requires d > 0 and eps > 0")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layer_norm: gain/bias must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def backward_fn(g):
        reduce_axes = tuple(range(g.ndim - 1))
        if _needs_grad(gain):
            _add_grad(gain, (g * xhat).sum(axis=reduce_axes))
        if _needs_grad(bias):
            _add_grad(bias, g.sum(axis=reduce_axes))
        if _needs_grad(x):
            gd = g * gain.data
            m1 = gd.mean(axis=-1, keepdims=True)
            m2 = (gd * xhat).mean(axis=-1, keepdims=True)
            _add_grad(x, inv * (gd - m1 - xhat * m2))

    return _node(data, (x, gain, bias), backward_fn)


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _add_grad(x, data * (g - dot))

    return _node(data, (x,), backward_fn)


# Score elements per query-row block of causal_attention: 512 KB of float32
# scores, so a block's scores and gradients stay in a 2 MB L2 cache. 1 << 16
# timed the same on 511-token forwards and slower on 8×256 training batches.
_ATTN_BLOCK = 1 << 17


def causal_attention(q, k, v, s: float) -> Tensor:
    """``softmax(s * q @ kᵀ + triu(-1e9, k=S-T+1)) @ v`` for [..., T, h] ``q``
    and [..., S, h] ``k``, ``v``.

    Query row t holds position S-T+t and sees keys 0..S-T+t: with S > T the
    first S-T keys are cached positions. Rows run in blocks of about
    ``_ATTN_BLOCK`` score elements; block ``[r0, r1)`` reads only keys
    ``:S-T+r1``, so the masked triangle past it is never computed. With one
    block the output equals ``matmul(causal softmax of the scores, v)`` bit
    for bit.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    T, S = q.shape[-2], k.shape[-2]
    if k.shape[:-2] != q.shape[:-2] or k.shape[-1] != q.shape[-1] or v.shape[:-1] != k.shape[:-1]:
        raise ValueError(f"causal_attention: shapes q {q.shape}, k {k.shape}, v {v.shape} disagree")
    if S < T:
        raise ValueError(f"causal_attention: {T} queries but only {S} keys")
    qd, kd, vd = q.data, k.data, v.data
    grad = _needs_grad(q) or _needs_grad(k) or _needs_grad(v)
    rows = max(1, _ATTN_BLOCK // max(1, math.prod(q.shape[:-2]) * S))
    out = np.empty(q.shape[:-1] + v.shape[-1:], _result_dtype(q, k, v))
    blocks = []
    for r0 in range(0, T, rows):
        r1 = min(r0 + rows, T)
        n = S - T + r1
        p = qd[..., r0:r1, :] @ kd[..., :n, :].swapaxes(-1, -2)
        p *= s
        p[..., n - (r1 - r0):] += np.triu(np.full((r1 - r0, r1 - r0), -1e9, dtype=p.dtype), k=1)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out[..., r0:r1, :] = p @ vd[..., :n, :]
        if grad:
            blocks.append((r0, r1, n, p))

    def backward_fn(g):
        dq = np.empty_like(qd) if _needs_grad(q) else None
        dk = np.zeros_like(kd) if _needs_grad(k) else None
        dv = np.zeros_like(vd) if _needs_grad(v) else None
        for r0, r1, n, p in blocks:
            gb = g[..., r0:r1, :]
            if dv is not None:
                dv[..., :n, :] += p.swapaxes(-1, -2) @ gb
            if dq is None and dk is None:
                continue
            ds = gb @ vd[..., :n, :].swapaxes(-1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= s
            if dq is not None:
                dq[..., r0:r1, :] = ds @ kd[..., :n, :]
            if dk is not None:
                dk[..., :n, :] += ds.swapaxes(-1, -2) @ qd[..., r0:r1, :]
        for t, d in ((q, dq), (k, dk), (v, dv)):
            if d is not None:
                _add_grad(t, d)

    return _node(out, (q, k, v), backward_fn)


def softmax_cross_entropy(logits, targets, loss_mask=None) -> Tensor:
    """Mean negative log-likelihood of ``targets`` over unmasked positions.

    ``logits`` has shape [..., V]; ``targets`` holds token ids with the
    leading shape of ``logits``; ``loss_mask`` marks positions that count.
    """
    logits = _as_tensor(logits)
    vocab = logits.shape[-1]
    ids = np.asarray(targets, dtype=np.int64)
    if ids.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {ids.shape} does not match logits {logits.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ValueError(f"target ids must be in [0, {vocab})")
    if loss_mask is None:
        mask = np.ones(ids.shape, dtype=bool)
    else:
        mask = np.asarray(loss_mask, dtype=bool)
        if mask.shape != ids.shape:
            raise ValueError("loss_mask shape must match targets")
    n = int(mask.sum())
    if n == 0:
        raise ValueError("softmax_cross_entropy: every position is masked out")

    flat_logits = logits.data.reshape(-1, vocab)
    flat_ids = ids.reshape(-1)
    flat_mask = mask.reshape(-1)
    z = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(flat_ids.size), flat_ids]
    data = np.asarray((nll * flat_mask).sum() / n, dtype=logits.data.dtype)

    def backward_fn(g):
        p = np.exp(logp)
        p[np.arange(flat_ids.size), flat_ids] -= 1.0
        p *= (flat_mask / n)[:, None]
        _add_grad(logits, (float(g) * p).reshape(logits.shape))

    return _node(data, (logits,), backward_fn)


def embedding(table, ids) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add gradient."""
    table = _as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"embedding ids must be in [0, {table.shape[0]})")
    data = table.data[idx]

    def backward_fn(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, idx, g)
        _add_grad(table, dtable)

    return _node(data, (table,), backward_fn)


def rotary(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position mixing on the last axis (rotate-half convention).

    ``x`` is [..., T, h] with even h; ``cos``/``sin`` are [T, h/2] constants.
    The map is orthogonal per position, so the gradient is the inverse
    rotation of the upstream gradient.
    """
    x = _as_tensor(x)
    h = x.shape[-1]
    if h % 2 != 0:
        raise ValueError(f"rotary requires an even last dimension, got {h}")
    half = h // 2
    x1, x2 = x.data[..., :half], x.data[..., half:]
    data = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    def backward_fn(g):
        g1, g2 = g[..., :half], g[..., half:]
        _add_grad(x, np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=-1))

    return _node(data, (x,), backward_fn)


# -- gradient collection ----------------------------------------------------


def backward(loss: Tensor, params: Optional[Iterable[Tensor]] = None) -> dict:
    """Run a backward pass and return a gradient map keyed by tensor identity.

    Parameters not reachable from ``loss`` map to zeros of their shape.
    """
    loss.backward()
    if params is None:
        return {}
    return {p: (p.grad if p.grad is not None else np.zeros_like(p.data)) for p in params}
