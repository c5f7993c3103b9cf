"""Small decoder-only causal transformer.

Two attention weight layouts are supported so adapter targeting can follow
either naming convention: "fused-qkv" exposes one "query_key_value" matrix
per layer, "split-qv" exposes separate "q_proj"/"k_proj"/"v_proj"/"o_proj"
matrices. Pre-norm residual blocks with rotary position encoding.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .archive import fill, read_checkpoint, save_archive
from .autodiff import Tensor
from .tokenizer import VOCAB_SIZE

LAYOUTS = ("fused-qkv", "split-qv")


class ContextOverflowError(ValueError):
    """Input longer than the model's maximum sequence length."""


@dataclass
class ModelConfig:
    vocab_size: int = VOCAB_SIZE
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int | None = None
    max_seq_len: int = 512
    attention_layout: str = "split-qv"
    seed: int = 0

    def __post_init__(self):
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        sizes = (self.vocab_size, self.d_model, self.n_heads, self.n_layers, self.d_ff, self.max_seq_len)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (*sizes, self.seed)):
            raise ValueError("model dimensions, max_seq_len and seed must be integers")
        if min(sizes) < 1 or self.seed < 0:
            raise ValueError("model dimensions and max_seq_len must be >= 1, and seed >= 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("per-head dimension must be even for rotary encoding")
        if self.attention_layout not in LAYOUTS:
            raise ValueError(f"attention_layout must be one of {LAYOUTS}")


def _rotary_tables(max_len: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The [max_len, head_dim] tables ``[cos, cos]`` and ``[-sin, sin]`` that ``ad.rotary`` takes."""
    half = head_dim // 2
    inv_freq = 1.0 / (10000.0 ** (np.arange(half) / half))
    angles = np.outer(np.arange(max_len), inv_freq)
    cos, sin = np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)
    return np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)


# glibc mallopt parameters. An explicit mallopt turns off glibc's dynamic
# thresholds, so both are set. With the defaults, a train step's multi-MB
# temporaries are unmapped or trimmed on free and faulted in again by the next
# step (about 24,000 page faults a step at 8x256), and the latency of a
# generated token shifts with the heap layout that earlier requests left.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20   # step-sized arrays come from the heap; the most older glibc takes on 64-bit
_TRIM_THRESHOLD = 512 << 20  # keep a freed heap top well above a step's peak (26-35 MB traced at 8x256)


def _keep_freed_memory() -> bool:
    """Make glibc keep freed arrays in the heap; True if both settings took.

    Does nothing without mallopt (not glibc). ``DecoderModel`` calls it when
    it is built and ``cli.main`` when it starts, so a program that uses a
    model runs under the same policy as the CLI; importing the package alone
    leaves the allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle to the process (Windows)
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # older glibc returns 0 for an out-of-range value and changes nothing; the trim threshold alone faults more
    return mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1 and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1


class _KVMemory(np.ndarray):
    """The bytes of one layer's K/V store; its first ``fill`` positions are written."""

    fill = 0


def _extend(entry, k: np.ndarray, v: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``entry``'s P keys and values, then the [B, H, T, hd] ``k`` and ``v``.

    A prefill (no entry) keeps its own ``k`` and ``compact(v)``. Otherwise the result views the first P + T
    positions of a [2, B, H, size, hd] store. The entry's store grows in place when the entry ends at its fill
    mark and the store has B rows and room for T more. Otherwise (a prefill's arrays, a branch that another
    entry has written past, or a batch-1 entry that B > 1 rows continue) the P positions are first copied, a
    batch-1 entry broadcast to every row, into a new store: ``size`` positions for one row, exactly P + T for
    more, so a batch holds no more than its own positions. No write lands on a position an entry holds."""
    if entry is None:
        return k, ad.compact(v)
    P, (B, H, T, hd) = entry[0].shape[2], k.shape
    n = P + T
    store = entry[0].base
    memory = getattr(store, "base", None)
    if not (isinstance(memory, _KVMemory) and memory.fill == P and store.shape[1] == B and store.shape[3] >= n):
        size = size if B == 1 else n
        memory = _KVMemory(2 * B * H * size * hd * k.itemsize, np.uint8)
        store = np.ndarray((2, B, H, size, hd), k.dtype, memory)
        store[0, :, :, :P], store[1, :, :, :P] = entry
    store[0, :, :, P:n], store[1, :, :, P:n] = k, v
    memory.fill = n
    return store[0, :, :, :n], store[1, :, :, :n]


class DecoderModel:
    """Causal transformer over byte-level tokens."""

    def __init__(self, config: ModelConfig):
        self._build(config, np.random.default_rng(config.seed))

    @classmethod
    def _unfilled(cls, config: ModelConfig) -> DecoderModel:
        """A model whose weights have their names and shapes but no values, for
        ``fill`` or ``merge_all`` to replace: it draws no random numbers."""
        model = cls.__new__(cls)
        model._build(config, None)
        return model

    def _build(self, config: ModelConfig, rng: np.random.Generator | None):
        _keep_freed_memory()
        self.config = config
        self.adapters: dict = {}
        self.rng = np.random.default_rng(config.seed + 1)
        self._cc, self._ss = _rotary_tables(config.max_seq_len, config.d_model // config.n_heads)
        self.params: dict[str, Tensor] = {}   # name -> weight, in a stable order
        self._init_params(rng)

    def _param(self, name: str, data: np.ndarray):
        self.params[name] = Tensor(data.astype(np.float32, copy=False), requires_grad=True, name=name)

    def _init_params(self, rng: np.random.Generator | None):
        """Normal(0, 0.02) projections and unit-gain norms; uninitialised projections without ``rng``."""
        cfg = self.config

        def normal(*shape):
            return np.empty(shape, np.float32) if rng is None else rng.normal(0.0, 0.02, shape)

        self._param("embedding", normal(cfg.vocab_size, cfg.d_model))
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            self._param(p + "ln1.gain", np.ones(cfg.d_model))
            self._param(p + "ln1.bias", np.zeros(cfg.d_model))
            if cfg.attention_layout == "fused-qkv":
                self._param(p + "attn.query_key_value", normal(3 * cfg.d_model, cfg.d_model))
                self._param(p + "attn.dense", normal(cfg.d_model, cfg.d_model))
            else:
                for n in ("q_proj", "k_proj", "v_proj", "o_proj"):
                    self._param(p + f"attn.{n}", normal(cfg.d_model, cfg.d_model))
            self._param(p + "ln2.gain", np.ones(cfg.d_model))
            self._param(p + "ln2.bias", np.zeros(cfg.d_model))
            self._param(p + "mlp.up_proj", normal(cfg.d_ff, cfg.d_model))
            self._param(p + "mlp.down_proj", normal(cfg.d_model, cfg.d_ff))
        self._param("final_norm.gain", np.ones(cfg.d_model))
        self._param("final_norm.bias", np.zeros(cfg.d_model))
        self._param("lm_head", normal(cfg.vocab_size, cfg.d_model))

    @property
    def max_seq_len(self) -> int:
        return self.config.max_seq_len

    # -- forward ------------------------------------------------------------

    def _linear(self, name: str, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        adapter = self.adapters.get(name)
        if adapter is not None:
            return adapter.forward(x, rng)
        return ad.linear(x, self.params[name])

    def new_cache(self) -> list:
        """An empty K/V cache for ``forward``: one entry per layer."""
        return [None] * self.config.n_layers

    def forward(self, tokens, cache: list | None = None, last: int | None = None,
                rng: np.random.Generator | None = None) -> Tensor:
        """Causal [B, T, V] logits for a [B, T] batch of ids; ``logits`` returns them without a graph.

        With a ``cache`` from ``new_cache``, the ids continue the P positions
        already in it: each layer attends to the cached keys and values too,
        and its entry is replaced by one that holds all P + T positions (see
        ``_extend``). A cache of one row may be continued by B rows, each
        after the same P positions. No write lands on a position an entry
        holds, so ``list(cache)`` branches a cache. Cached keys and values
        are plain arrays outside the autodiff graph.

        With ``last=n`` only the logits of the last n positions are computed,
        [B, n, V]; ``last >= T`` gives all T. Every layer still builds
        keys and values for all positions, but the final layer's queries,
        attention output, MLP, the final norm and the LM head run on n rows.

        Adapter dropout applies only when ``rng``, the stream its masks are
        drawn from, is given; a training step passes ``self.rng``.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"forward takes a [B, T] batch of ids, got shape {ids.shape}")
        cfg = self.config
        T = ids.shape[1]
        if last is not None and last < 1:
            raise ValueError(f"last must be >= 1, got {last}")
        n = T if last is None else min(last, T)
        P = 0 if cache is None or cache[0] is None else cache[0][0].shape[2]
        if P + T > cfg.max_seq_len:
            raise ContextOverflowError(f"input length {P + T} exceeds max_seq_len {cfg.max_seq_len}")
        H, hd = cfg.n_heads, cfg.d_model // cfg.n_heads
        cc, ss = self._cc[P:P + T], self._ss[P:P + T]

        h = ad.embedding(self.params["embedding"], ids)
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            # past the final layer's keys and values, only the last n rows go on
            cut = n < T and i == cfg.n_layers - 1
            x = ad.layer_norm(h, self.params[p + "ln1.gain"], self.params[p + "ln1.bias"])
            if cfg.attention_layout == "fused-qkv":
                qkv = self._linear(p + "attn.query_key_value", x, rng)
                q = ad.slice_last(qkv, 0, cfg.d_model)
                k = ad.slice_last(qkv, cfg.d_model, 2 * cfg.d_model)
                v = ad.slice_last(qkv, 2 * cfg.d_model, 3 * cfg.d_model)
                if cut:
                    q = ad.last_rows(q, n)
            else:
                q = self._linear(p + "attn.q_proj", ad.last_rows(x, n) if cut else x, rng)
                k = self._linear(p + "attn.k_proj", x, rng)
                v = self._linear(p + "attn.v_proj", x, rng)
            # [B, T, d] -> [B, H, T, hd]
            k = ad.rotary(ad.split_heads(k, H), cc, ss)
            v = ad.split_heads(v, H)
            if cut:   # the kept query rows keep their absolute positions
                h, cc, ss = ad.last_rows(h, n), cc[T - n:], ss[T - n:]
            q = ad.rotary(ad.split_heads(q, H), cc, ss)
            if cache is not None:
                kc, vc = cache[i] = _extend(cache[i], k.data, v.data, cfg.max_seq_len)
                if P:   # a prefill attends with its own k and v, as an uncached call does
                    k, v = Tensor(kc), Tensor(vc)
            ctx = ad.merge_heads(ad.causal_attention(q, k, v, 1.0 / math.sqrt(hd)))
            out_name = p + ("attn.dense" if cfg.attention_layout == "fused-qkv" else "attn.o_proj")
            h = ad.add(h, self._linear(out_name, ctx, rng))

            x = ad.layer_norm(h, self.params[p + "ln2.gain"], self.params[p + "ln2.bias"])
            x = ad.gelu(self._linear(p + "mlp.up_proj", x, rng))
            h = ad.add(h, self._linear(p + "mlp.down_proj", x, rng))

        h = ad.layer_norm(h, self.params["final_norm.gain"], self.params["final_norm.bias"])
        return self._linear("lm_head", h, rng)

    def logits(self, ids, cache: list | None = None, last: int | None = None) -> np.ndarray:
        """Logits without dropout as a plain array: [T, V] for one [T] sequence, [B, T, V] for a [B, T]
        batch, [n, V] or [B, n, V] with ``last=n``; ``cache`` and ``last`` as in ``forward``. A batch may
        continue a batch-1 cache. Runs under ``ad.no_grad()``, so no autodiff graph is kept."""
        ids = np.asarray(ids, dtype=np.int64)
        with ad.no_grad():
            out = self.forward(ids if ids.ndim == 2 else ids[None], cache, last).data
        return out if ids.ndim == 2 else out[0]

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self) -> tuple[dict, dict]:
        """(arrays, meta) of this model's checkpoint: each tensor of ``params`` under its own name."""
        return {t.name: t.data for t in self.params.values()}, {"kind": "decoder-model", "config": asdict(self.config)}

    def save_checkpoint(self, path) -> None:
        save_archive(path, *self.checkpoint())


def load_checkpoint(path) -> DecoderModel:
    arrays, _, config = read_checkpoint(path, "decoder-model", "model", ModelConfig)
    model = DecoderModel._unfilled(config)
    fill(path, model.params.values(), arrays, "parameter")
    return model
