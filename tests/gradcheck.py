"""Gradient checks and references for the autodiff engine.

``TRIALS`` is the one table of gradient trials: ``check_op`` runs a row,
comparing the reverse-mode gradients of a weighted sum of its op's output
with central finite differences. The ``*_reference`` functions are plain
numpy ops that keep every intermediate their backward reads: each returns
``(out, *gradients)`` for an upstream gradient ``g``, with the op's own
operations in the op's own order, so an op that rebuilds an intermediate in
backward must match it bit for bit.
"""

import numpy as np

from instruct_forge import autodiff as ad
from instruct_forge.autodiff import Tensor


def finite_difference(fn, arrays, index, eps=1e-6):
    """Numerical gradient of scalar fn(*arrays) w.r.t. arrays[index]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    x = base[index]
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        old = x[idx]
        x[idx] = old + eps
        plus = fn(*base)
        x[idx] = old - eps
        grad[idx] = (plus - fn(*base)) / (2 * eps)
        x[idx] = old
    return grad


def forward_backward(op, arrays, g):
    """``op(*arrays)``'s data, then each operand's gradient of ``sum(op(*arrays) * g)``."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    ad.tsum(ad.mul(out, Tensor(g))).backward()
    return [out.data] + [t.grad for t in tensors]


def check_op(op, case="", rng=None):
    """Run ``TRIALS``' row ``(op, case)``: compare the reverse-mode gradients
    of ``sum(fn(*arrays) * w)`` with central differences, in float64, to a
    relative error below 1e-3.

    ``rng`` (by default seeded with 0) draws the operands, then the weights
    ``w``: the output's shape, in [0.5, 1.5). Each output element thus sends
    its own upstream gradient, so a gradient sent to the wrong element
    shows, as it does not under a plain sum's all-ones gradient.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    fn, arrays = TRIALS[op, case](rng)
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    w = rng.uniform(0.5, 1.5, fn(*map(Tensor, arrays)).shape)
    _, *grads = forward_backward(fn, arrays, w)
    for i, ana in enumerate(grads):
        num = finite_difference(lambda *a: float((fn(*map(Tensor, a)).data * w).sum()), arrays, i)
        ana = np.zeros_like(num) if ana is None else ana
        err = np.abs(ana - num).max() / max(np.abs(num).max(), np.abs(ana).max(), 1e-8)
        assert err < 1e-3, f"row {(op, case)}: gradient mismatch on input {i}: rel err {err:.3e} >= 1e-3"


def _uniform(rng, *shapes):
    return [rng.uniform(-2, 2, shape) for shape in shapes]


def _lora(x_shape, p):
    """``lora_linear`` at s = 1.5, with a dropout mask at ``p`` unless ``p`` is None."""
    def build(rng):
        mask = None if p is None else ad.dropout_mask(x_shape, p, rng)
        return (lambda x, w, a, b: ad.lora_linear(x, w, a, b, 1.5, mask, p or 0.0),
                _uniform(rng, x_shape, (5, 4), (2, 4), (5, 2)))
    return build


def _attention(budget):
    """``causal_attention`` at s = 0.7, its query rows in blocks of
    ``budget`` score elements (None: the default budget)."""
    def fn(q, k, v):
        saved = ad._ATTN_BLOCK
        ad._ATTN_BLOCK = budget or saved
        try:
            return ad.causal_attention(q, k, v, 0.7)
        finally:
            ad._ATTN_BLOCK = saved
    return fn


def _rotary(rng):
    T, h = 3, 4
    angles = np.outer(np.arange(T), [1.0, 0.5])
    cos, sin = np.cos(angles), np.sin(angles)
    cc, ss = np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)
    return lambda x: ad.rotary(x, cc, ss), _uniform(rng, (2, T, h))


HEAD_SHAPES = [(6, 12), (2, 5, 12)]

# The gradient trials, keyed by the op each checks and a case that tells an
# op's rows apart ("" for an op's only row). A row draws its operands from a
# generator and returns (fn, arrays), where fn calls its op. Cases are named
# as pytest named the parametrized tests these rows replaced, so the tests of
# tests/test_autodiff.py that run them keep their ids.
TRIALS = {
    ("matmul", ""): lambda rng: (ad.matmul, _uniform(rng, (3, 4), (4, 2))),
    ("matmul", "batched"): lambda rng: (ad.matmul, _uniform(rng, (2, 3, 4), (4, 2))),
    **{("linear", f"x_shape{i}"): lambda rng, x_shape=x_shape: (ad.linear, _uniform(rng, x_shape, (3, 4)))
       for i, x_shape in enumerate([(5, 4), (2, 3, 4)])},
    **{("lora_linear", f"{p is not None}-x_shape{i}"): _lora(x_shape, p)
       for p in (None, 0.4) for i, x_shape in enumerate([(6, 4), (2, 3, 4)])},
    ("lora_linear", "p0.25-x_shape1"): _lora((2, 3, 4), 0.25),
    **{("split_heads", f"shape{i}"): lambda rng, shape=shape: (lambda x: ad.split_heads(x, 3), _uniform(rng, shape))
       for i, shape in enumerate(HEAD_SHAPES)},
    **{("merge_heads", f"shape{i}"): lambda rng, shape=shape: (ad.merge_heads,
                                                               _uniform(rng, (*shape[:-2], 3, shape[-2], 4)))
       for i, shape in enumerate(HEAD_SHAPES)},
    **{("last_rows", f"{n}-shape{i}"): lambda rng, n=n, shape=shape: (lambda x: ad.last_rows(x, n),
                                                                      _uniform(rng, shape))
       for n in (1, 2, 5) for i, shape in enumerate([(5, 3), (2, 5, 3), (2, 2, 5, 3)])},
    ("add", ""): lambda rng: (ad.add, _uniform(rng, (3, 4), (4,))),
    ("mul", ""): lambda rng: (ad.mul, _uniform(rng, (3, 4), (3, 4))),
    ("scale", ""): lambda rng: (lambda t: ad.scale(t, -2.5), _uniform(rng, (5,))),
    ("gelu", ""): lambda rng: (ad.gelu, _uniform(rng, (3, 4))),
    ("layer_norm", ""): lambda rng: (ad.layer_norm, _uniform(rng, (2, 4), (4,), (4,))),
    ("softmax_cross_entropy", ""): lambda rng: (
        lambda t: ad.softmax_cross_entropy(t, [0, 1, 2, 3], [True, True, False, True]), _uniform(rng, (4, 5))),
    ("reshape", ""): lambda rng: (lambda x: ad.reshape(x, (4, 3)), _uniform(rng, (3, 4))),
    ("transpose", ""): lambda rng: (lambda x: ad.transpose(x, (1, 0, 2)), _uniform(rng, (2, 3, 4))),
    ("slice_last", ""): lambda rng: (lambda x: ad.slice_last(x, 1, 3), _uniform(rng, (2, 5))),
    ("softmax", ""): lambda rng: (ad.softmax, _uniform(rng, (3, 5))),
    ("rotary", ""): _rotary,
    ("embedding", ""): lambda rng: (lambda t: ad.embedding(t, [1, 1, 3]), _uniform(rng, (4, 3))),
    # a budget of 1 runs one query row per block; 28 runs blocks of 3 + 1 rows
    # for [2, 4, h] queries and of 2 + 1 rows for [2, 3, h] ones
    **{("causal_attention", f"{T}-{S}-{budget}"): lambda rng, T=T, S=S, budget=budget: (
        _attention(budget), _uniform(rng, (2, T, 4), (2, S, 4), (2, S, 4)))
       for T, S, budget in [(4, 4, None), (4, 4, 1), (4, 4, 28), (3, 7, None), (3, 7, 1), (3, 7, 28), (3, 5, None)]},
}

# the graph ops a train step calls on either attention layout, which acceptance 1 checks
TRAIN_STEP_OPS = frozenset({"add", "causal_attention", "embedding", "gelu", "last_rows", "layer_norm", "linear",
                            "lora_linear", "merge_heads", "rotary", "slice_last", "softmax_cross_entropy",
                            "split_heads"})


def layer_norm_reference(x, gain, bias, g, eps=1e-5):
    """``layer_norm`` keeping ``xhat``: (out, dx, dgain, dbias)."""
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    axes = tuple(range(g.ndim - 1))
    gd = g * gain
    m1 = np.add.reduce(gd, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(gd * xhat, axis=-1, keepdims=True) / d
    return xhat * gain + bias, inv * (gd - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes)


def lora_linear_reference(x, w, a, b, s, keep, g):
    """``lora_linear`` keeping ``x ∘ keep``: (out, dx, dw, da, db)."""
    (d, k), r = w.shape, a.shape[0]
    path = x * keep
    u = path @ a.T
    delta = u @ b.T
    delta *= s
    gs = g * s
    gsb = gs @ b
    return (x @ w.T + delta, g @ w + (gsb @ a) * keep, g.reshape(-1, d).T @ x.reshape(-1, k),
            gsb.reshape(-1, r).T @ path.reshape(-1, k), gs.reshape(-1, d).T @ u.reshape(-1, r))


def causal_attention_reference(q, k, v, s, g, rows):
    """``causal_attention`` in blocks of ``rows`` query rows, keeping the
    contiguous kᵀ and vᵀ and every block's probabilities: (out, dq, dk, dv).

    Multi-row blocks multiply by the contiguous transposes, one-row blocks by
    the swapped views, as the op does.
    """
    T, S = q.shape[-2], k.shape[-2]
    kt, vt = (np.ascontiguousarray(a.swapaxes(-1, -2)) for a in (k, v))
    tri = np.triu(np.full((min(rows, T),) * 2, -1e9, dtype=np.result_type(q, k)), k=1)
    out = np.empty(q.shape[:-1] + v.shape[-1:], np.result_type(q, k, v))
    blocks = []
    for r0 in range(0, T, rows):
        r1 = min(r0 + rows, T)
        r, n = r1 - r0, S - T + r1
        p = q[..., r0:r1, :] @ (kt[..., :n] if r > 1 else k[..., :n, :].swapaxes(-1, -2))
        p *= s
        if r > 1:
            p[..., n - r:] += tri[:r, :r]
        p -= np.fmax.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        np.matmul(p, v[..., :n, :], out=out[..., r0:r1, :])
        blocks.append((r0, r1, n, p))
    rowdot = np.add.reduce(g * out, axis=-1, keepdims=True)
    qs = q * s
    dq, dk, dv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    for r0, r1, n, p in blocks:
        gb = g[..., r0:r1, :]
        dv[..., :n, :] += p.swapaxes(-1, -2) @ gb
        ds = gb @ (vt[..., :n] if r1 - r0 > 1 else v[..., :n, :].swapaxes(-1, -2))
        ds -= rowdot[..., r0:r1, :]
        ds *= p
        np.matmul(ds, k[..., :n, :], out=dq[..., r0:r1, :])
        dk[..., :n, :] += ds.swapaxes(-1, -2) @ qs[..., r0:r1, :]
    dq *= s
    return out, dq, dk, dv
