"""Decode-time generation: repetition penalty, temperature, greedy argmax."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tokenizer import ByteTokenizer, EOS


@dataclass
class GenerationParams:
    temperature: float = 0.0          # 0.0 means greedy argmax
    repetition_penalty: float = 1.0
    max_new_tokens: int = 64
    stop_token: int = EOS

    def __post_init__(self):
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 1.0 <= self.repetition_penalty < math.inf:
            raise ValueError(f"repetition_penalty must be finite and >= 1, got {self.repetition_penalty}")
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")


@dataclass
class GenerationResult:
    text: str
    token_ids: list
    truncated: bool = False           # context overflowed mid-generation


def apply_repetition_penalty(logits: np.ndarray, generated_ids, penalty: float) -> np.ndarray:
    """Discount already-generated tokens: positive logits are divided by the
    penalty, non-positive logits multiplied by it. Other logits untouched."""
    if not 1.0 <= penalty < math.inf:
        raise ValueError(f"repetition penalty must be finite and >= 1, got {penalty}")
    out = np.array(logits, dtype=np.float64, copy=True)
    ids = np.unique(np.asarray(list(generated_ids), dtype=np.int64))
    seen = out[ids]
    out[ids] = np.where(seen > 0, seen / penalty, seen * penalty)
    return out


def generate(model, prompt: str, params: GenerationParams,
             tokenizer: ByteTokenizer | None = None, seed: int = 0) -> GenerationResult:
    """Iterative decode; stops at the stop token or max_new_tokens.

    Returns only the decoded continuation. A model with ``new_cache`` runs
    the prompt once and then only each new token against its K/V cache. If
    the context overflows the model window mid-generation, the oldest tokens
    are dropped, every later step reruns the whole window (positions shift),
    and the result is flagged as truncated.
    """
    tokenizer = tokenizer or ByteTokenizer()
    ids = [tokenizer.bos_id] + tokenizer.encode(prompt).ids
    rng = np.random.default_rng(seed)
    max_len = getattr(model, "max_seq_len", None)
    cache = model.new_cache() if hasattr(model, "new_cache") else None
    rows = {} if cache is None else {"last": 1}   # only the next-token row is read
    cached = 0                        # ids[:cached] are in the cache
    generated: list[int] = []
    truncated = False
    for _ in range(params.max_new_tokens):
        ctx = ids
        if max_len is not None and len(ctx) > max_len:
            ctx = ctx[-max_len:]
            truncated = True
            cache = None
        if cache is None:
            logits = model.logits(ctx, **rows)
        else:
            logits = model.logits(ids[cached:], cache=cache, **rows)
            cached = len(ids)
        row = np.asarray(logits[-1], dtype=np.float64)
        row = apply_repetition_penalty(row, generated, params.repetition_penalty)
        if params.temperature == 0.0:
            nxt = int(np.argmax(row))
        else:
            z = row / params.temperature
            z -= z.max()
            p = np.exp(z)
            p /= p.sum()
            nxt = int(rng.choice(len(p), p=p))
        if nxt == params.stop_token:
            break
        generated.append(nxt)
        ids.append(nxt)
    return GenerationResult(text=tokenizer.decode(generated), token_ids=generated, truncated=truncated)
