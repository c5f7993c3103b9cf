"""A float64 reference transformer for the tests: an oracle that shares no code with the model.

``reference_logits`` recomputes a ``DecoderModel``'s logits in plain float64 numpy
from what the model exposes: ``config``, the arrays of ``params``, and each
adapter's ``A``, ``B`` and ``scaling`` in ``adapters``. It imports nothing from
``instruct_forge.autodiff`` or ``instruct_forge.model``: the embedding, the
pre-norm blocks, rotary positions, softmax over the whole causal score matrix,
tanh gelu, the final norm and the LM head are written out here, for both
attention layouts, so a defect that the forward shares with its own scorer
shows against it.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5          # layer norm's variance floor
ROTARY_BASE = 10000.0  # rotary frequencies are ROTARY_BASE ** (-j / half) for j < half


def weight(model, name: str) -> np.ndarray:
    """``name``'s weight in float64, with its adapter's ``scaling * B @ A`` added when it has one."""
    w = np.asarray(model.params[name].data, dtype=np.float64)
    adapter = model.adapters.get(name)
    if adapter is None:
        return w
    a, b = (np.asarray(t.data, dtype=np.float64) for t in (adapter.A, adapter.B))
    return w + adapter.scaling * (b @ a)


def _norm(model, x: np.ndarray, prefix: str) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * weight(model, prefix + ".gain") + weight(model, prefix + ".bias")


def _rotate(x: np.ndarray) -> np.ndarray:
    """Rotate-half rotary encoding of [H, T, hd] rows at positions 0..T-1."""
    half = x.shape[-1] // 2
    angles = np.arange(x.shape[-2])[:, None] * ROTARY_BASE ** (-np.arange(half) / half)
    cos, sin = np.cos(angles), np.sin(angles)
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def reference_logits(model, ids) -> np.ndarray:
    """Float64 [T, V] logits of the [T] ids, from position 0 and without dropout."""
    cfg = model.config
    ids = np.asarray(ids, dtype=np.int64)
    T, d, H = len(ids), cfg.d_model, cfg.n_heads
    hd = d // H
    future = np.triu(np.ones((T, T), dtype=bool), k=1)
    h = weight(model, "embedding")[ids]
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        x = _norm(model, h, p + "ln1")
        if cfg.attention_layout == "fused-qkv":
            q, k, v = np.split(x @ weight(model, p + "attn.query_key_value").T, 3, axis=-1)
            out = p + "attn.dense"
        else:
            q, k, v = (x @ weight(model, p + f"attn.{n}").T for n in ("q_proj", "k_proj", "v_proj"))
            out = p + "attn.o_proj"
        q, k, v = (a.reshape(T, H, hd).transpose(1, 0, 2) for a in (q, k, v))
        scores = _rotate(q) @ _rotate(k).transpose(0, 2, 1) / math.sqrt(hd)
        scores[:, future] = -np.inf
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        h = h + (probs @ v).transpose(1, 0, 2).reshape(T, d) @ weight(model, out).T
        x = _norm(model, h, p + "ln2")
        h = h + _gelu(x @ weight(model, p + "mlp.up_proj").T) @ weight(model, p + "mlp.down_proj").T
    return _norm(model, h, "final_norm") @ weight(model, "lm_head").T


def reference_score(model, ctx: list, cont: list) -> float:
    """Summed float64 log-probability of the ``cont`` ids after the ``ctx`` ids, the
    window's last ``max_seq_len`` ids kept as the model's scorer keeps them."""
    ids = (list(ctx) + list(cont))[-model.max_seq_len:]
    rows = reference_logits(model, ids[:-1])[-len(cont):]
    top = rows.max(axis=1, keepdims=True)
    logp = rows - top - np.log(np.exp(rows - top).sum(axis=1, keepdims=True))
    return float(logp[np.arange(len(cont)), cont].sum())
