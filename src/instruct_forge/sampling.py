"""Decode-time generation: repetition penalty, temperature, greedy argmax.

Models are consumed through the one protocol of ``evaluation``:
``logits(ids, cache=None, last=None)`` with ``[T]`` or ``[B, T]`` ids,
``new_cache()`` and ``max_seq_len``; ``generate`` passes one ``[T]`` sequence.
It extends one cache step after step and never branches it, so a
``DecoderModel`` writes each step after the first into the same store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import log_softmax
from .tokenizer import BOS, EOS, TOKENIZER


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
    penalty, non-positive logits multiplied by it. Other logits untouched.
    ``generated_ids`` is an iterable of ids or an index array (``generate``
    keeps a boolean mask over the vocabulary); at penalty 1.0 this is a copy."""
    if not 1.0 <= penalty < math.inf:
        raise ValueError(f"repetition penalty must be finite and >= 1, got {penalty}")
    out = np.array(logits, dtype=np.float64, copy=True)
    if penalty > 1.0:
        ids = generated_ids if isinstance(generated_ids, np.ndarray) else np.fromiter(generated_ids, np.int64)
        seen = out[ids]
        out[ids] = np.where(seen > 0, seen / penalty, seen * penalty)
    return out


def generate(model, prompt: str, params: GenerationParams, seed: int = 0) -> GenerationResult:
    """Iterative decode; stops at the stop token or max_new_tokens.

    Returns only the decoded continuation. The prompt runs once, then only
    each new token against the model's K/V cache, which grows in place; every
    call asks for the next-token row only. If the context overflows the model
    window mid-generation, the oldest tokens are dropped, every later step
    reruns the whole window on a fresh cache (positions shift), and the result
    is flagged as truncated.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ids = [BOS] + TOKENIZER.encode(prompt)
    rng = np.random.default_rng(seed)
    max_len = model.max_seq_len
    cache = model.new_cache()
    cached = 0                        # ids[:cached] are in the cache
    generated: list[int] = []
    truncated = False
    for _ in range(params.max_new_tokens):
        if len(ids) > max_len:
            cache, cached, truncated = model.new_cache(), len(ids) - max_len, True
        row = model.logits(ids[cached:], cache=cache, last=1)[-1]
        cached = len(ids)
        if not generated:             # the first step: a running mask of the generated ids
            seen = np.zeros(len(row), dtype=bool)
        row = apply_repetition_penalty(row, seen, params.repetition_penalty)
        if params.temperature == 0.0:
            nxt = int(np.argmax(row))
        else:
            try:
                with np.errstate(over="raise"):
                    p = np.exp(log_softmax(row / params.temperature))
            except FloatingPointError:
                raise ValueError(f"temperature {params.temperature} is too small: "
                                 "logits / temperature overflows") from None
            nxt = int(rng.choice(len(p), p=p))
        if nxt == params.stop_token:
            break
        generated.append(nxt)
        seen[nxt] = True
        ids.append(nxt)
    return GenerationResult(text=TOKENIZER.decode(generated), token_ids=generated, truncated=truncated)
