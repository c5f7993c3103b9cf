"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed engine. A ``Tensor`` holds an array and a graph node;
the graph is made of nodes alone, which hold no data. An op's output node
holds its parents' nodes, its gradient, its dtype and a closure that routes
the upstream gradient to the parents. The closure keeps only the arrays its
backward reads, such as ``gelu``'s input or a frozen ``linear``'s weight, so
an activation that no backward reads is freed as soon as the caller drops
its ``Tensor``. A node takes a gradient iff its ``requires_grad`` is set (a
trainable leaf, or an op output while its graph lives), and an operand's
array is kept only if a gradient that reads it is wanted. ``Tensor.backward``
walks the nodes once in reverse topological order; inside ``no_grad()`` ops
build no graph, so inference keeps no parents, closures or saved
activations. float32 is the working precision; pass float64 data for
gradient-check fidelity.

Broadcasting follows the trailing-dimension rule only (numpy's rule), which
covers everything the decoder model needs.
"""

from __future__ import annotations

import contextlib
import math
from typing import Optional, Sequence

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_record = True  # False inside no_grad(): _node builds no graph node


class _Node:
    """A tensor's place in the graph: its parents' nodes, backward closure,
    gradient and dtype, and whether it takes a gradient; never its data."""

    __slots__ = ("parents", "backward_fn", "grad", "dtype", "requires_grad")

    def __init__(self, dtype, parents: tuple = (), backward_fn=None, requires_grad: bool = False):
        self.parents, self.backward_fn, self.grad = parents, backward_fn, None
        self.dtype, self.requires_grad = dtype, requires_grad


# the node of every tensor outside the graph: no-grad outputs and constants share it; it never gets a gradient
_NO_GRAPH = _Node(None)


class Tensor:
    """N-dimensional array with its node in an autodiff graph.

    ``grad``, ``requires_grad`` and the backward closure live on the node. As
    in PyTorch, an op's recorded output has ``requires_grad`` True, until
    ``backward`` frees its node. A tensor that is neither trainable nor a
    recorded output shares one empty node and gets its own when a field is
    set. Operations never mutate their inputs, and no code writes into
    ``data`` in place: optimizers, ``archive.fill`` and ``lora.merge_all``
    rebind it, so a shared array never changes.
    """

    __slots__ = ("data", "name", "_node")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.asarray(data)
        self.data = arr if arr.dtype in _FLOAT_DTYPES else arr.astype(np.float32)
        self.name = name
        self._node = _Node(self.data.dtype, requires_grad=True) if requires_grad else _NO_GRAPH

    def _own_node(self) -> _Node:
        if self._node is _NO_GRAPH:
            self._node = _Node(self.data.dtype)
        return self._node

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._node.grad

    @grad.setter
    def grad(self, g):
        self._own_node().grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag):
        self._own_node().requires_grad = bool(flag)

    @property
    def _backward_fn(self):
        return self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        # a replacement keeps the fn(g) signature, accumulating by side effect
        self._own_node().backward_fn = fn

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    # -- graph ----------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf, once per graph.

        The graph is freed as it is walked: once a node's closure has run, the
        node drops its parents, its closure (and the activations it saved), its
        ``requires_grad`` and, unless it is this loss, its gradient. So a step's
        peak is about what the forward held, and afterwards only leaves and this
        loss keep a ``.grad``; the loss keeps it so that a second call raises.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        root = self._own_node()
        if root.grad is not None:
            raise RuntimeError("backward already ran on this graph; run the forward again to build a new one")
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)
            if node.parents:
                node.parents, node.backward_fn, node.requires_grad = (), None, False
                if node is not root:
                    node.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after trailing-dim broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


@contextlib.contextmanager
def no_grad():
    """Run ops without building a graph: every output is a leaf with no
    parents and no backward closure, whatever its inputs. Blocks nest, and
    the previous state returns on exit, also when the block raises."""
    global _record
    prev, _record = _record, False
    try:
        yield
    finally:
        _record = prev


def _node(data: np.ndarray, parents: Sequence[_Node], backward_fn) -> Tensor:
    """``Tensor(data)`` without re-checking the float array an op just made. If a
    parent's ``requires_grad`` is set, outside ``no_grad``, it gets a node that
    requires a gradient and holds ``parents`` and ``backward_fn``; otherwise it
    shares the empty node, so the no-grad path allocates no node."""
    if type(data) is not np.ndarray or data.dtype not in _FLOAT_DTYPES:
        data = Tensor(data).data
    out = Tensor.__new__(Tensor)
    out.data, out.name, out._node = data, None, _NO_GRAPH
    if _record:
        for p in parents:
            if p.requires_grad:
                out._node = _Node(data.dtype, parents, backward_fn, requires_grad=True)
                break
    return out


def _add_grad(n: _Node, g: np.ndarray):
    """Accumulate ``g`` into node ``n``'s gradient if its ``requires_grad`` is set.

    An op output's first gradient is ``g`` itself, not a copy, so it may
    alias the upstream gradient of the op that sent it (``add`` sends the
    same array to both parents; ``reshape`` and ``transpose`` send views).
    That is sound only while no backward closure writes into its upstream
    ``g``: every closure must build new arrays from ``g``. A leaf's first
    gradient is always a fresh array, so no ``.grad`` the optimizer reads
    aliases another array of the graph.
    """
    if n.requires_grad:
        g = g.astype(n.dtype, copy=False)
        if n.grad is not None:
            n.grad = n.grad + g
        else:
            n.grad = g if n.parents else g.copy()


# -- elementwise ---------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} are not broadcastable")
    na, nb, sa, sb = a._node, b._node, a.data.shape, b.data.shape

    def backward_fn(g):
        _add_grad(na, _unbroadcast(g, sa))
        _add_grad(nb, _unbroadcast(g, sb))

    return _node(data, (na, nb), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} are not broadcastable")
    na, nb, sa, sb = a._node, b._node, a.data.shape, b.data.shape
    # each operand's gradient reads the other operand
    a_saved, b_saved = (a.data if nb.requires_grad else None), (b.data if na.requires_grad else None)

    def backward_fn(g):
        if b_saved is not None:
            _add_grad(na, _unbroadcast(g * b_saved, sa))
        if a_saved is not None:
            _add_grad(nb, _unbroadcast(g * a_saved, sb))

    return _node(data, (na, nb), backward_fn)


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s
    na = a._node

    def backward_fn(g):
        _add_grad(na, g * s)

    return _node(data, (na,), backward_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
# Elements per row block of gelu: 256 KiB float32 buffers, so the backward's
# five fit a 2 MB L2 cache; on [8, 256, 256] inputs 1 << 17 ran the backward slower.
# An array of up to two blocks runs whole (2-vCPU x86_64, [1, 300, 256]: forward
# 82 µs as 256 rows and a ragged 44, 77 µs whole; backward 155 and 158 µs).
_GELU_BLOCK = 1 << 16


def _block_rows(budget: int, row_elements: int) -> int:
    """Rows per block of about ``budget`` elements, at least one: gelu's and ``causal_attention``'s rule."""
    return max(1, budget // max(1, row_elements))


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    """``tanh(c * (x + 0.044715 * x³))`` in a fresh buffer: gelu's forward term and backward's rebuild of it."""
    # repeated products: numpy's float32 power has no fast path for cubes
    t = xd * xd
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_out(xd: np.ndarray, out=None) -> np.ndarray:
    t = _gelu_tanh(xd)
    data = np.multiply(xd, 0.5, out=out)
    t += 1.0
    data *= t
    return data


def _gelu_grad(xd: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    # 0.5 * (1 + t) + 0.5 * x * (1 - t²) * c * (1 + 3 * 0.044715 * x²)
    t = _gelu_tanh(xd)
    dx = np.multiply(xd, 0.5, out=out)
    tmp = t * t
    np.subtract(1.0, tmp, out=tmp)
    dx *= tmp
    np.multiply(xd, xd, out=tmp)
    tmp *= 3 * 0.044715
    tmp += 1.0
    tmp *= _GELU_C
    dx *= tmp
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    dx += tmp
    dx *= g
    return dx


def _gelu_rows(chain, xd: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    """``chain(xd, *operands)`` over row blocks of the flattened ``[rows, width]``
    arrays into one new output; an array of up to two blocks' elements runs it whole."""
    if xd.size <= 2 * _GELU_BLOCK:
        return chain(xd, *operands)
    width = xd.shape[-1]
    rows = _block_rows(_GELU_BLOCK, width)
    out = np.empty(xd.shape, xd.dtype)
    flat = [a.reshape(-1, width) for a in (xd, *operands, out)]
    for r0 in range(0, len(flat[0]), rows):
        *args, block = (a[r0:r0 + rows] for a in flat)
        chain(*args, out=block)
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation.

    Forward and backward run in place, on two and three buffers, in the
    rounding order of ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x³)))`` and
    its derivative written out term by term. A graph node keeps only ``x``:
    backward rebuilds the tanh term with ``_gelu_tanh``.

    Above ``2 * _GELU_BLOCK`` elements both run over blocks of
    ``max(1, _GELU_BLOCK // width)`` rows of the flattened ``[rows, width]``
    input, ``causal_attention``'s rule, so each pass stays in a 2 MB L2 cache
    instead of streaming whole arrays from memory. Each element runs the same
    ops, so blocks change no bit.
    """
    xd, nx = x.data, x._node
    data = _gelu_rows(_gelu_out, xd)

    def backward_fn(g):
        _add_grad(nx, _gelu_rows(_gelu_grad, xd, g))

    return _node(data, (nx,), backward_fn)


def dropout_mask(shape: tuple, p: float, rng: np.random.Generator) -> np.ndarray:
    """Bool keep mask, False with probability ``p``; ``_scaled_keep`` makes
    the inverted-scaling factors from it."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return rng.random(shape) >= p


def _scaled_keep(mask: np.ndarray, p: float, dtype) -> np.ndarray:
    """0 where ``mask`` is False, else 1/(1-p). The same ops on the same mask
    give the same bits, so a backward rebuilds its forward's factors."""
    return mask.astype(dtype) / (1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted-scaling dropout; identity in evaluation mode or at p=0.
    A graph node keeps the bool mask."""
    if not training or p == 0.0:
        return x
    mask = dropout_mask(x.shape, p, rng)
    dtype, nx = x.data.dtype, x._node
    data = x.data * _scaled_keep(mask, p, dtype)

    def backward_fn(g):
        _add_grad(nx, g * _scaled_keep(mask, p, dtype))

    return _node(data, (nx,), backward_fn)


# -- shape manipulation ---------------------------------------------------
# A node of these ops keeps no array, only shapes, axes or bounds.


def reshape(x: Tensor, shape: tuple) -> Tensor:
    data = x.data.reshape(shape)
    nx, xshape = x._node, x.data.shape

    def backward_fn(g):
        _add_grad(nx, g.reshape(xshape))

    return _node(data, (nx,), backward_fn)


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    data = x.data.transpose(axes)
    nx = x._node

    def backward_fn(g):
        _add_grad(nx, g.transpose(np.argsort(axes)))

    return _node(data, (nx,), backward_fn)


def split_heads(x: Tensor, H: int) -> Tensor:
    """[..., T, H·hd] to [..., H, T, hd]: ``reshape`` then ``transpose`` as one node."""
    if x.ndim < 2 or x.shape[-1] % H != 0:
        raise ValueError(f"split_heads: last dimension of {x.shape} is not a multiple of {H} heads")
    nx, xshape = x._node, x.data.shape
    data = x.data.reshape(xshape[:-1] + (H, xshape[-1] // H)).swapaxes(-2, -3)

    def backward_fn(g):
        _add_grad(nx, g.swapaxes(-2, -3).reshape(xshape))

    return _node(data, (nx,), backward_fn)


def merge_heads(x: Tensor) -> Tensor:
    """[..., H, T, hd] to [..., T, H·hd], the inverse of ``split_heads``, as one node."""
    if x.ndim < 3:
        raise ValueError(f"merge_heads: expected [..., H, T, hd], got {x.shape}")
    *lead, H, T, hd = x.shape
    data = x.data.swapaxes(-2, -3).reshape(*lead, T, H * hd)
    nx = x._node

    def backward_fn(g):
        _add_grad(nx, g.reshape(*lead, T, H, hd).swapaxes(-2, -3))

    return _node(data, (nx,), backward_fn)


def _scatter(nx: _Node, shape: tuple, index: tuple, g: np.ndarray):
    """Send ``g`` to node ``nx`` as a zero gradient of ``shape`` with ``g`` at ``index``."""
    full = np.zeros(shape, nx.dtype)
    full[index] = g
    _add_grad(nx, full)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``[start:stop]`` along the last axis."""
    data = x.data[..., start:stop]
    nx, xshape = x._node, x.data.shape
    return _node(data, (nx,), lambda g: _scatter(nx, xshape, (..., slice(start, stop)), g))


def last_rows(x: Tensor, n: int) -> Tensor:
    """The last ``n`` rows, ``x[..., -n:, :]``, of an [..., T, h] tensor."""
    T = x.shape[-2] if x.ndim >= 2 else 0
    if not 1 <= n <= T:
        raise ValueError(f"last_rows: cannot take {n} rows of a tensor of shape {x.shape}")
    data = x.data[..., T - n:, :]
    nx, xshape = x._node, x.data.shape
    return _node(data, (nx,), lambda g: _scatter(nx, xshape, (..., slice(T - n, None), slice(None)), g))


def tsum(x: Tensor) -> Tensor:
    """Sum all elements to a scalar."""
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)
    nx, xshape = x._node, x.data.shape

    def backward_fn(g):
        _add_grad(nx, np.broadcast_to(g, xshape))

    return _node(data, (nx,), backward_fn)


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    data = a.data @ b.data
    na, nb, sa, sb = a._node, b._node, a.data.shape, b.data.shape
    # each operand's gradient reads the other operand
    a_saved, b_saved = (a.data if nb.requires_grad else None), (b.data if na.requires_grad else None)

    def backward_fn(g):
        if b_saved is not None:
            _add_grad(na, _unbroadcast(g @ b_saved.swapaxes(-1, -2), sa))
        if a_saved is not None:
            _add_grad(nb, _unbroadcast(a_saved.swapaxes(-1, -2) @ g, sb))

    return _node(data, (na, nb), backward_fn)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for [..., k] ``x`` and a [d, k] weight, as one graph node.

    The gradients are ``dx = g @ w`` and, one GEMM over all leading
    positions, ``dw = g.reshape(-1, d).T @ x.reshape(-1, k)``. A graph node
    keeps ``w``, and ``x`` only if ``w`` needs a gradient: a frozen linear's
    input is freed with its ``Tensor``.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear: input {x.shape} does not fit weight {w.shape}")
    wd, nx, nw = w.data, x._node, w._node
    data = x.data @ wd.T
    xd = x.data if nw.requires_grad else None

    def backward_fn(g):
        if nx.requires_grad:
            _add_grad(nx, g @ wd)
        if xd is not None:
            d, k = wd.shape
            _add_grad(nw, g.reshape(-1, d).T @ xd.reshape(-1, k))

    return _node(data, (nx, nw), backward_fn)


def lora_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, s: float,
                mask: Optional[np.ndarray] = None, p: float = 0.0) -> Tensor:
    """``x @ w.T + (x * keep) @ a.T @ b.T * s`` for a [d, k] ``w``, [r, k] ``a``
    and [d, r] ``b``, as one graph node. ``mask`` is the bool dropout mask of
    ``dropout_mask`` at probability ``p``, and ``keep`` its inverted-scaling
    factors, ``mask.astype(x.dtype) / (1 - p)``; ``mask=None`` means no
    dropout, and ``x * keep`` is then ``x``.

    Each numpy expression here rounds as written, left to right. With
    ``u = (x * keep) @ a.T`` and ``gs = g * s``, the gradients are
    ``db = gs.reshape(-1, d).T @ u.reshape(-1, r)``,
    ``da = (gs @ b).reshape(-1, r).T @ (x * keep).reshape(-1, k)``,
    ``dw = g.reshape(-1, d).T @ x.reshape(-1, k)`` and
    ``dx = g @ w + gs @ b @ a * keep``.

    A graph node keeps ``x``, the bool ``mask`` and the [..., r] ``u``;
    backward rebuilds ``keep`` and ``x * keep`` with the forward's ops.
    """
    xd, wd, aw, bw = x.data, w.data, a.data, b.data
    if (wd.ndim != 2 or aw.ndim != 2 or xd.ndim < 1 or xd.shape[-1] != wd.shape[1] or aw.shape[1] != wd.shape[1]
            or bw.shape != (wd.shape[0], aw.shape[0]) or (mask is not None and mask.shape != xd.shape)):
        raise ValueError(f"lora_linear: input {xd.shape} does not fit weight {wd.shape}, A {aw.shape}, B {bw.shape}")
    if mask is not None and not 0.0 <= p < 1.0:
        raise ValueError(f"lora_linear: dropout probability must be in [0, 1), got {p}")
    u = (xd if mask is None else xd * _scaled_keep(mask, p, xd.dtype)) @ aw.T
    delta = u @ bw.T
    delta *= s
    data = xd @ wd.T
    # in place when the dtypes agree; otherwise the sum takes the wider one
    data = np.add(data, delta, out=data if data.dtype == delta.dtype else None)
    nx, nw, na, nb = x._node, w._node, a._node, b._node

    def backward_fn(g):
        (d, k), r = wd.shape, aw.shape[0]
        keep = None if mask is None else _scaled_keep(mask, p, xd.dtype)
        gs = g * s
        gsb = gs @ bw
        if nb.requires_grad:
            _add_grad(nb, gs.reshape(-1, d).T @ u.reshape(-1, r))
        if na.requires_grad:
            path = xd if keep is None else xd * keep
            _add_grad(na, gsb.reshape(-1, r).T @ path.reshape(-1, k))
        if nw.requires_grad:
            _add_grad(nw, g.reshape(-1, d).T @ xd.reshape(-1, k))
        if nx.requires_grad:
            dpath = gsb @ aw
            if keep is not None:
                dpath *= keep
            dx = g @ wd
            dx += dpath
            _add_grad(nx, dx)

    return _node(data, (nx, nw, na, nb), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine.

    A graph node keeps ``x``, ``gain`` and each row's mean and ``1 / std``,
    [..., 1] each; backward rebuilds the normalized ``xhat`` with the forward's ops.
    """
    d = x.shape[-1]
    if d <= 0 or eps <= 0:
        raise ValueError("layer_norm requires d > 0 and eps > 0")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layer_norm: gain/bias must have shape ({d},)")
    # centre once: ndarray.var would compute the mean a second time. Each mean
    # is the ufunc reduction ndarray.mean runs, without its Python wrapper.
    xd, gd = x.data, gain.data
    mean = np.add.reduce(xd, axis=-1, keepdims=True) / d
    xhat = xd - mean
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    data = xhat * gd + bias.data
    nx, ngain, nbias = x._node, gain._node, bias._node

    def backward_fn(g):
        reduce_axes = tuple(range(g.ndim - 1))
        xhat = (xd - mean) * inv
        if ngain.requires_grad:
            _add_grad(ngain, (g * xhat).sum(axis=reduce_axes))
        if nbias.requires_grad:
            _add_grad(nbias, g.sum(axis=reduce_axes))
        if nx.requires_grad:
            gg = g * gd
            m1 = np.add.reduce(gg, axis=-1, keepdims=True) / d
            m2 = np.add.reduce(gg * xhat, axis=-1, keepdims=True) / d
            _add_grad(nx, inv * (gg - m1 - xhat * m2))

    return _node(data, (nx, ngain, nbias), backward_fn)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=-1, keepdims=True)
    nx = x._node

    def backward_fn(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _add_grad(nx, data * (g - dot))

    return _node(data, (nx,), backward_fn)


# Score elements per query-row block of causal_attention: 512 KB of float32
# scores, so a block's probabilities and their gradient stay in a 2 MB L2
# cache; backward rebuilds the probabilities block by block, so the same
# bound holds there. 1 << 16 timed the same on 511-token forwards and slower
# on 8×256 training batches.
_ATTN_BLOCK = 1 << 17


def _transposed(a: np.ndarray, at, n: int, r: int) -> np.ndarray:
    """``a[..., :n, :]ᵀ`` as the operand of an r-row product: a slice of the
    contiguous ``at`` when r > 1; one row keeps the swapped view, because
    numpy's gemv rounds a contiguous operand differently."""
    return at[..., :n] if r > 1 else a[..., :n, :].swapaxes(-1, -2)


def _attn_probs(qb: np.ndarray, kt: np.ndarray, s: float, tri, m=None, z=None):
    """One query-row block's causal probabilities, with their row max and row sum.

    ``qb`` is [..., r, h], ``kt`` the [..., h, n] keys it sees, and the -1e9
    triangle ``tri[:r, :r]`` covers the last r columns. Given the ``m`` and
    ``z`` that the forward returned, the same ops on the same operands
    rebuild the forward's probabilities bit for bit.
    """
    p = qb @ kt
    p *= s
    r = p.shape[-2]
    if r > 1:
        p[..., p.shape[-1] - r:] += tri[:r, :r]
    if m is None:
        # fmax skips maximum's NaN propagation; a NaN in a row still reaches the whole row through the sum
        m = np.fmax.reduce(p, axis=-1, keepdims=True)
    p -= m
    np.exp(p, out=p)
    if z is None:
        z = np.add.reduce(p, axis=-1, keepdims=True)
    p /= z
    return p, m, z


def compact(a: np.ndarray) -> np.ndarray:
    """``a``, or a copy of it when it views a larger array, so that keeping it keeps only its own bytes
    (fused qkv's ``v`` views the whole projection)."""
    return a.copy(order="K") if isinstance(a.base, np.ndarray) and a.base.nbytes > a.nbytes else a


def causal_attention(q: Tensor, k: Tensor, v: Tensor, s: float) -> Tensor:
    """``softmax(s * q @ kᵀ + triu(-1e9, k=S-T+1)) @ v`` for [..., T, h] ``q``
    and [..., S, h] ``k``, ``v``.

    Query row t holds position S-T+t and sees keys 0..S-T+t: with S > T the
    first S-T keys are cached positions. Rows run in blocks of about
    ``_ATTN_BLOCK`` score elements; block ``[r0, r1)`` reads only keys
    ``:S-T+r1``, so the masked triangle past it is never computed. With one
    block the output equals ``p @ v`` bit for bit, where
    ``a = q @ k.swapaxes(-1, -2) * s + np.triu(np.full((T, S), -1e9, q.dtype), k=S-T+1)``,
    ``e = np.exp(a - a.max(-1, keepdims=True))`` and ``p = e / e.sum(-1, keepdims=True)``,
    wherever BLAS rounds the contiguous kᵀ of multi-row blocks like the
    transposed view (in float32, scipy-openblas 0.3.31 on x86_64 does at
    head dims up to 24; at 32 and more some block shapes differ in the last
    bits).

    A graph node keeps q, k, ``compact(v)`` and each block's row max and row
    sum, [..., r, 1] each, instead of the block's [..., r, n] probabilities
    (FlashAttention-2's row statistics), and no kᵀ. Backward rebuilds the
    contiguous kᵀ, then the probabilities with the forward's own kernel,
    ``_attn_probs``, on the same operands, so they and every gradient match
    keeping them bit for bit.
    """
    T, S = q.shape[-2], k.shape[-2]
    if k.shape[:-2] != q.shape[:-2] or k.shape[-1] != q.shape[-1] or v.shape[:-1] != k.shape[:-1]:
        raise ValueError(f"causal_attention: shapes q {q.shape}, k {k.shape}, v {v.shape} disagree")
    if S < T:
        raise ValueError(f"causal_attention: {T} queries but only {S} keys")
    qd, kd, vd = q.data, k.data, v.data
    nq, nk, nv = q._node, k._node, v._node
    grad = _record and (nq.requires_grad or nk.requires_grad or nv.requires_grad)
    rows = _block_rows(_ATTN_BLOCK, math.prod(q.shape[:-2]) * S)
    out = np.empty(q.shape[:-1] + v.shape[-1:], np.result_type(qd, kd, vd))
    # multi-row blocks multiply by one contiguous kᵀ and share the first block's mask
    kt = tri = None
    if min(rows, T) > 1:
        kt = np.ascontiguousarray(kd.swapaxes(-1, -2))
        tri = np.triu(np.full((min(rows, T),) * 2, -1e9, dtype=np.result_type(qd, kd)), k=1)
    blocks = []
    for r0 in range(0, T, rows):
        r1 = min(r0 + rows, T)
        n = S - T + r1
        p, m, z = _attn_probs(qd[..., r0:r1, :], _transposed(kd, kt, n, r1 - r0), s, tri)
        np.matmul(p, vd[..., :n, :], out=out[..., r0:r1, :])
        if grad:
            blocks.append((r0, r1, n, m, z))
    if grad:
        vd = compact(vd)

    def backward_fn(g):
        g = np.ascontiguousarray(g)  # merge_heads passes a swapped view
        dq = np.empty_like(qd) if nq.requires_grad else None
        dk = np.zeros_like(kd) if nk.requires_grad else None
        dv = np.zeros_like(vd) if nv.requires_grad else None
        # the forward's contiguous kᵀ, rebuilt rather than kept: tri is set exactly when it made one
        kt = None if tri is None else np.ascontiguousarray(kd.swapaxes(-1, -2))
        if dq is not None or dk is not None:
            # rowsum(dP * P) = g · out per row (FlashAttention's identity), one [T, h] pass per call
            rowdot = np.add.reduce(g * out, axis=-1, keepdims=True)
            # s scales the [rows, h] products, not the [rows, n] ds
            qs = qd * s if dk is not None else None
            vt = None if kt is None else np.ascontiguousarray(vd.swapaxes(-1, -2))
        for r0, r1, n, m, z in blocks:
            p = _attn_probs(qd[..., r0:r1, :], _transposed(kd, kt, n, r1 - r0), s, tri, m, z)[0]
            gb = g[..., r0:r1, :]
            if dv is not None:
                dv[..., :n, :] += p.swapaxes(-1, -2) @ gb
            if dq is None and dk is None:
                continue
            ds = gb @ _transposed(vd, vt, n, r1 - r0)
            ds -= rowdot[..., r0:r1, :]
            ds *= p
            if dq is not None:
                np.matmul(ds, kd[..., :n, :], out=dq[..., r0:r1, :])
            if dk is not None:
                dk[..., :n, :] += ds.swapaxes(-1, -2) @ qs[..., r0:r1, :]
        if dq is not None:
            dq *= s
        for node, d in ((nq, dq), (nk, dk), (nv, dv)):
            if d is not None:
                _add_grad(node, d)

    return _node(out, (nq, nk, nv), backward_fn)


def _out_of_range(ids: np.ndarray, n: int) -> bool:
    """True if an id lies outside [0, n); ufunc reductions, without ndarray.min/max's Python wrapper."""
    return bool(ids.size and (np.minimum.reduce(ids, axis=None) < 0 or np.maximum.reduce(ids, axis=None) >= n))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis of a plain array, ``z - log(sum(exp(z)))``
    with ``z = x - max(x)``; not a graph op."""
    z = x - x.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def softmax_cross_entropy(logits: Tensor, targets, loss_mask=None) -> Tensor:
    """Mean negative log-likelihood of ``targets`` over unmasked positions.

    ``logits`` has shape [..., V]; ``targets`` holds token ids with the
    leading shape of ``logits``; ``loss_mask`` marks positions that count.
    """
    vocab = logits.shape[-1]
    ids = np.asarray(targets, dtype=np.int64)
    if ids.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {ids.shape} does not match logits {logits.shape}")
    if _out_of_range(ids, vocab):
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

    flat_ids = ids.reshape(-1)
    flat_mask = mask.reshape(-1)
    logp = log_softmax(logits.data.reshape(-1, vocab))
    nll = -logp[np.arange(flat_ids.size), flat_ids]
    data = np.asarray((nll * flat_mask).sum() / n, dtype=logits.data.dtype)
    nl, shape = logits._node, logits.shape

    def backward_fn(g):
        p = np.exp(logp)
        p[np.arange(flat_ids.size), flat_ids] -= 1.0
        p *= (flat_mask / n)[:, None]
        _add_grad(nl, (float(g) * p).reshape(shape))

    return _node(data, (nl,), backward_fn)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add gradient."""
    idx = np.asarray(ids, dtype=np.int64)
    if _out_of_range(idx, table.shape[0]):
        raise ValueError(f"embedding ids must be in [0, {table.shape[0]})")
    data = table.data[idx]
    nt, shape = table._node, table.data.shape

    def backward_fn(g):
        dtable = np.zeros(shape, nt.dtype)
        np.add.at(dtable, idx, g)
        _add_grad(nt, dtable)

    return _node(data, (nt,), backward_fn)


def rotary(x: Tensor, cc: np.ndarray, ss: np.ndarray) -> Tensor:
    """Rotary position mixing on the last axis (rotate-half convention).

    ``x`` is [..., T, h] with even h; ``cc`` and ``ss`` are the [T, h]
    full-width constants ``[cos, cos]`` and ``[-sin, sin]``, built once by
    the caller. With the halves swapped, ``x' = [x2, x1]``, the output is
    ``x * cc + x' * ss``. The map is orthogonal per position, so the
    gradient is the inverse rotation ``g * cc - g' * ss``. Negation is
    exact, so each element rounds as in ``x1 * cos - x2 * sin`` and
    ``x1 * sin + x2 * cos``.
    """
    h = x.shape[-1]
    if h % 2 != 0:
        raise ValueError(f"rotary requires an even last dimension, got {h}")
    if cc.shape[-1] != h or ss.shape[-1] != h:
        raise ValueError(f"rotary tables must be {h} wide, got {cc.shape[-1]} and {ss.shape[-1]}")
    half = h // 2

    def rotate(a, combine):
        out = np.multiply(a, cc, order="C")
        swapped = np.concatenate([a[..., half:], a[..., :half]], axis=-1)
        swapped *= ss
        return combine(out, swapped, out=out)

    data = rotate(x.data, np.add)
    nx = x._node

    def backward_fn(g):
        _add_grad(nx, rotate(g, np.subtract))

    return _node(data, (nx,), backward_fn)
