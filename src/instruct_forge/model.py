"""Small decoder-only causal transformer.

Two attention weight layouts are supported so adapter targeting can follow
either naming convention: "fused-qkv" exposes one "query_key_value" matrix
per layer, "split-qv" exposes separate "q_proj"/"k_proj"/"v_proj"/"o_proj"
matrices. Pre-norm residual blocks with rotary position encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .archive import ArchiveError, load_archive, save_archive
from .autodiff import Tensor
from .tokenizer import VOCAB_SIZE, TokenSequence

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
        if self.vocab_size < 1 or self.d_model < 1 or self.n_heads < 1 or self.n_layers < 1:
            raise ValueError("all model dimensions must be positive")
        if self.max_seq_len < 1:
            raise ValueError("max_seq_len must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("per-head dimension must be even for rotary encoding")
        if self.attention_layout not in LAYOUTS:
            raise ValueError(f"attention_layout must be one of {LAYOUTS}")

    def to_dict(self) -> dict:
        return asdict(self)


def _rotary_tables(max_len: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    inv_freq = 1.0 / (10000.0 ** (np.arange(half) / half))
    angles = np.outer(np.arange(max_len), inv_freq)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


class DecoderModel:
    """Causal transformer over byte-level tokens."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.training = False
        self.adapters: dict = {}
        self.rng = np.random.default_rng(config.seed + 1)
        self._cos, self._sin = _rotary_tables(config.max_seq_len, config.d_model // config.n_heads)
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(config.seed))

    def _param(self, name: str, data: np.ndarray):
        self.params[name] = Tensor(data.astype(np.float32), requires_grad=True, name=name)

    def _init_params(self, rng: np.random.Generator):
        cfg = self.config
        std = 0.02
        self._param("embedding", rng.normal(0.0, std, (cfg.vocab_size, cfg.d_model)))
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            self._param(p + "ln1.gain", np.ones(cfg.d_model))
            self._param(p + "ln1.bias", np.zeros(cfg.d_model))
            if cfg.attention_layout == "fused-qkv":
                self._param(p + "attn.query_key_value", rng.normal(0.0, std, (3 * cfg.d_model, cfg.d_model)))
                self._param(p + "attn.dense", rng.normal(0.0, std, (cfg.d_model, cfg.d_model)))
            else:
                for n in ("q_proj", "k_proj", "v_proj", "o_proj"):
                    self._param(p + f"attn.{n}", rng.normal(0.0, std, (cfg.d_model, cfg.d_model)))
            self._param(p + "ln2.gain", np.ones(cfg.d_model))
            self._param(p + "ln2.bias", np.zeros(cfg.d_model))
            self._param(p + "mlp.up_proj", rng.normal(0.0, std, (cfg.d_ff, cfg.d_model)))
            self._param(p + "mlp.down_proj", rng.normal(0.0, std, (cfg.d_model, cfg.d_ff)))
        self._param("final_norm.gain", np.ones(cfg.d_model))
        self._param("final_norm.bias", np.zeros(cfg.d_model))
        self._param("lm_head", rng.normal(0.0, std, (cfg.vocab_size, cfg.d_model)))

    # -- modes ------------------------------------------------------------

    @property
    def max_seq_len(self) -> int:
        return self.config.max_seq_len

    def train_mode(self):
        self.training = True
        return self

    def eval_mode(self):
        self.training = False
        return self

    def named_parameters(self) -> dict[str, Tensor]:
        """Stable, insertion-ordered name -> tensor map."""
        return dict(self.params)

    # -- forward ------------------------------------------------------------

    def _linear(self, name: str, x: Tensor) -> Tensor:
        adapter = self.adapters.get(name)
        if adapter is not None and not adapter.merged:
            return adapter.forward(x, training=self.training, rng=self.rng)
        return ad.matmul(x, ad.transpose(self.params[name]))

    def new_cache(self) -> list:
        """An empty K/V cache for ``forward``: one entry per layer."""
        return [None] * self.config.n_layers

    def forward(self, tokens, cache: list | None = None) -> Tensor:
        """Causal logits for a [T] sequence or a [B, T] batch of ids.

        With a ``cache`` from ``new_cache``, the ids continue the P positions
        already in it: each layer attends to the cached keys and values too,
        and its entry is replaced by one that holds all P + T positions. Entries
        are replaced, never modified, so ``list(cache)`` branches a cache.
        Cached keys and values are plain arrays outside the autodiff graph.
        """
        if isinstance(tokens, TokenSequence):
            tokens = tokens.ids
        ids = np.asarray(tokens, dtype=np.int64)
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        cfg = self.config
        B, T = ids.shape
        P = 0 if cache is None or cache[0] is None else cache[0][0].shape[2]
        if P + T > cfg.max_seq_len:
            raise ContextOverflowError(f"input length {P + T} exceeds max_seq_len {cfg.max_seq_len}")
        H, hd = cfg.n_heads, cfg.d_model // cfg.n_heads
        cos, sin = self._cos[P:P + T], self._sin[P:P + T]

        h = ad.embedding(self.params["embedding"], ids)
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            x = ad.layer_norm(h, self.params[p + "ln1.gain"], self.params[p + "ln1.bias"])
            if cfg.attention_layout == "fused-qkv":
                qkv = self._linear(p + "attn.query_key_value", x)
                q = ad.slice_last(qkv, 0, cfg.d_model)
                k = ad.slice_last(qkv, cfg.d_model, 2 * cfg.d_model)
                v = ad.slice_last(qkv, 2 * cfg.d_model, 3 * cfg.d_model)
            else:
                q = self._linear(p + "attn.q_proj", x)
                k = self._linear(p + "attn.k_proj", x)
                v = self._linear(p + "attn.v_proj", x)
            # [B, T, d] -> [B, H, T, hd]
            q = ad.transpose(ad.reshape(q, (B, T, H, hd)), (0, 2, 1, 3))
            k = ad.transpose(ad.reshape(k, (B, T, H, hd)), (0, 2, 1, 3))
            v = ad.transpose(ad.reshape(v, (B, T, H, hd)), (0, 2, 1, 3))
            q = ad.rotary(q, cos, sin)
            k = ad.rotary(k, cos, sin)
            if cache is not None:
                if cache[i] is not None:
                    k = Tensor(np.concatenate([cache[i][0], k.data], axis=2))
                    v = Tensor(np.concatenate([cache[i][1], v.data], axis=2))
                cache[i] = (k.data, v.data)
            ctx = ad.causal_attention(q, k, v, 1.0 / math.sqrt(hd))
            ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, T, cfg.d_model))
            out_name = p + ("attn.dense" if cfg.attention_layout == "fused-qkv" else "attn.o_proj")
            h = ad.add(h, self._linear(out_name, ctx))

            x = ad.layer_norm(h, self.params[p + "ln2.gain"], self.params[p + "ln2.bias"])
            x = ad.gelu(self._linear(p + "mlp.up_proj", x))
            h = ad.add(h, self._linear(p + "mlp.down_proj", x))

        h = ad.layer_norm(h, self.params["final_norm.gain"], self.params["final_norm.bias"])
        logits = self._linear("lm_head", h)
        if single:
            logits = ad.reshape(logits, (T, cfg.vocab_size))
        return logits

    def logits(self, ids, cache: list | None = None) -> np.ndarray:
        """Evaluation-mode logits as a plain [T, V] array; ``cache`` as in ``forward``."""
        was_training = self.training
        self.training = False
        try:
            return self.forward(ids, cache).data
        finally:
            self.training = was_training

    # -- checkpointing --------------------------------------------------------

    def save_checkpoint(self, path) -> None:
        arrays = {name: t.data for name, t in self.params.items()}
        save_archive(path, arrays, meta={"kind": "decoder-model", "config": self.config.to_dict()})


def load_checkpoint(path, expect_layout: str | None = None) -> DecoderModel:
    arrays, meta = load_archive(path)
    if meta.get("kind") != "decoder-model":
        raise ArchiveError(f"{path}: not a model checkpoint")
    try:
        config = ModelConfig(**meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveError(f"{path}: bad model config: {exc}") from exc
    if expect_layout is not None and config.attention_layout != expect_layout:
        raise ArchiveError(
            f"{path}: checkpoint layout {config.attention_layout!r} does not match expected {expect_layout!r}")
    model = DecoderModel(config)
    if set(arrays) != set(model.params):
        missing = set(model.params) - set(arrays)
        extra = set(arrays) - set(model.params)
        raise ArchiveError(f"{path}: parameter names do not match config (missing {missing}, extra {extra})")
    for name, arr in arrays.items():
        if arr.shape != model.params[name].shape:
            raise ArchiveError(f"{path}: shape mismatch for {name}")
        model.params[name].data = arr.astype(np.float32)
    return model
