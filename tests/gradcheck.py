"""Gradient references for the autodiff engine: central finite differences,
and plain-numpy ops that keep every intermediate their backward reads.

Each ``*_reference`` returns ``(out, *gradients)`` for an upstream gradient
``g``, with the op's own operations in the op's own order, so an op that
rebuilds an intermediate in backward must match it bit for bit.
"""

import numpy as np

from instruct_forge.autodiff import Tensor, tsum


def finite_difference(fn, arrays, index, eps=1e-6):
    """Numerical gradient of scalar fn(*arrays) w.r.t. arrays[index]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(base[index])
    it = np.nditer(base[index], flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = [a.copy() for a in base]
        minus = [a.copy() for a in base]
        plus[index][idx] += eps
        minus[index][idx] -= eps
        grad[idx] = (fn(*plus) - fn(*minus)) / (2 * eps)
        it.iternext()
    return grad


def check_op(op, arrays, rtol=1e-3, reduce=tsum):
    """Compare reverse-mode gradients of reduce(op(...)) with central differences.

    Runs in float64. Returns the worst relative error across inputs.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    loss = reduce(op(*tensors))
    loss.backward()

    def scalar_fn(*arrs):
        out = op(*[Tensor(a) for a in arrs])
        return float(reduce(out).data)

    worst = 0.0
    for i, t in enumerate(tensors):
        num = finite_difference(scalar_fn, arrays, i)
        ana = t.grad if t.grad is not None else np.zeros_like(num)
        denom = max(np.abs(num).max(), np.abs(ana).max(), 1e-8)
        err = np.abs(ana - num).max() / denom
        worst = max(worst, err)
        assert err < rtol, f"gradient mismatch on input {i}: rel err {err:.3e} >= {rtol}"
    return worst


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
