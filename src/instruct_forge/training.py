"""Instruction tuning loop: batch assembly with response masking, loss,
and adapter-only optimizer steps.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .lora import adapter_parameters
from .prompts import PromptTemplate, render_prompt, template_for
from .tokenizer import BOS, EOS, PAD, TOKENIZER

logger = logging.getLogger(__name__)

MASK_POLICIES = ("response-only", "full-sequence")


@dataclass
class TrainConfig:
    learning_rate: float = 3e-4
    batch_size: int = 8
    epochs: int = 1
    train_seq_len: int = 256
    mask_policy: str = "response-only"
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.train_seq_len < 1:
            raise ValueError("train_seq_len must be >= 1")
        if self.mask_policy not in MASK_POLICIES:
            raise ValueError(f"mask_policy must be one of {MASK_POLICIES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainingBatch:
    tokens: np.ndarray          # [B, L] int64, PAD on the right
    targets: np.ndarray         # [B, L] next-token shift of the source rows
    loss_mask: np.ndarray       # [B, L] bool, False on prompt/padding per policy
    dropped: int = 0


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # AdamW's moment decays and denominator floor


class AdamW:
    """Adaptive moments (Adam) over the given parameters; no weight decay."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g
            update = (self.m[i] / b1c) / (np.sqrt(self.v[i] / b2c) + EPS)
            # a new array, never an in-place update: ``train`` keeps each epoch's arrays uncopied
            p.data = p.data - self.lr * update
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def _encode_example(record, template, tokenizer, config):
    """The record's ids from BOS to EOS, tail-kept to ``train_seq_len + 1``, as
    one uint16 array (every id is below ``VOCAB_SIZE``), and the index of its
    first supervised target; None when its response exceeds ``train_seq_len``.
    """
    tpl = template if template is not None else template_for(record)
    # the training render is the inference render followed by the output
    prompt = [BOS] + tokenizer.encode(render_prompt(record, tpl, include_response=False))
    full = prompt + tokenizer.encode(record.output) + [EOS]
    response_len = len(full) - len(prompt)
    if response_len > config.train_seq_len:
        return None
    # tail-keep truncation preserves the response span
    ids = np.asarray(full[-(config.train_seq_len + 1):], dtype=np.uint16)
    return ids, len(ids) - 1 - response_len if config.mask_policy == "response-only" else 0


def _pad(rows) -> TrainingBatch:
    """Shift, right-pad and mask ``_encode_example`` rows into one batch."""
    L = max(len(ids) for ids, _ in rows) - 1
    tokens = np.full((len(rows), L), PAD, dtype=np.int64)
    targets = np.full((len(rows), L), PAD, dtype=np.int64)
    mask = np.zeros((len(rows), L), dtype=bool)
    for i, (ids, first) in enumerate(rows):
        n = len(ids) - 1
        tokens[i, :n], targets[i, :n] = ids[:-1], ids[1:]
        mask[i, first:n] = True
    return TrainingBatch(tokens=tokens, targets=targets, loss_mask=mask)


def build_batch(records, template, tokenizer, config: TrainConfig) -> TrainingBatch:
    """Render, encode, truncate (keeping the tail), pad, shift, and mask.

    Raises ``ValueError`` when there is no record, or when every record is dropped.
    """
    if not records:
        raise ValueError("build_batch requires at least one record")
    rows = [_encode_example(record, template, tokenizer, config) for record in records]
    kept = [row for row in rows if row is not None]
    if not kept:
        raise ValueError("every record in the batch was dropped")
    batch = _pad(kept)
    batch.dropped = len(rows) - len(kept)
    return batch


def train_step(model, batch: TrainingBatch, optimizer: AdamW) -> float:
    """One forward/backward/update over adapter parameters only.

    The model is asked only for the supervised tail: the rows from the first
    column where any row's loss mask is set. Columns before it carry no loss,
    so the final layer's queries and MLP, the final norm, the LM head and the
    loss skip them (with ``full-sequence`` masks that is every column).

    Raises ``ValueError`` when the step overflows or its loss or an adapter
    gradient is not finite, before the update in the latter case. An
    overflow can leave the loss finite (layer norm maps an infinite row to
    zeros), so it is caught where numpy raises it.
    """
    if not model.adapters:
        raise ValueError("train_step requires a model with injected adapters")
    try:
        with np.errstate(over="raise", invalid="raise"):
            n = batch.loss_mask.shape[-1] - int(np.argmax(batch.loss_mask.any(axis=0)))
            # no local keeps the logits: the loss node holds their log-softmax, and backward reads only that
            loss = ad.softmax_cross_entropy(model.forward(batch.tokens, last=n, rng=model.rng),
                                            batch.targets[:, -n:], batch.loss_mask[:, -n:])
            loss.backward()
            value = loss.item()
            if not math.isfinite(value) or not all(np.isfinite(p.grad).all() for p in optimizer.params
                                                   if p.grad is not None):
                raise ValueError(f"training diverged: loss {value} or an adapter gradient is not finite")
            optimizer.step()
    except FloatingPointError as exc:
        raise ValueError(f"training diverged: {exc}") from None
    return value


def train(model, records, config: TrainConfig, template: PromptTemplate | None = None) -> tuple[list[dict], list[dict]]:
    """Epochs of shuffled mini-batches; writes nothing.

    Encodes each record once, before the first step, with one warning for the
    dropped ones; each epoch pads the kept rows of each ``batch_size`` chunk of
    its seeded permutation. Raises ``ValueError`` before any step when
    ``train_seq_len`` exceeds the model's window, a record cannot be rendered,
    or every record is dropped. Returns one report dict per epoch, and per
    epoch the adapters' ``{tensor name: array}`` of A and B as it left them.
    """
    if not records:
        raise ValueError("train requires a non-empty dataset")
    if not model.adapters:
        raise ValueError("train requires a model with injected adapters")
    if config.train_seq_len > model.max_seq_len:
        raise ValueError(f"train seq_len {config.train_seq_len} > model max_seq_len {model.max_seq_len}")
    rows = [_encode_example(record, template, TOKENIZER, config) for record in records]
    dropped = sum(row is None for row in rows)
    if dropped == len(rows):
        raise ValueError(f"every record was dropped: each response exceeds train_seq_len {config.train_seq_len}")
    if dropped:
        logger.warning("dropped %d of %d records: the response exceeds train_seq_len %d",
                       dropped, len(rows), config.train_seq_len)
    model.rng = np.random.default_rng(config.seed + 13)
    optimizer = AdamW(adapter_parameters(model), lr=config.learning_rate)
    report, adapters = [], []
    for epoch in range(config.epochs):
        order = np.random.default_rng(config.seed + epoch).permutation(len(rows))
        losses = []
        start = time.monotonic()
        for lo in range(0, len(rows), config.batch_size):
            chunk = [rows[i] for i in order[lo : lo + config.batch_size] if rows[i] is not None]
            if chunk:
                losses.append(train_step(model, _pad(chunk), optimizer))
        report.append({
            "epoch": epoch,
            "mean_loss": float(np.mean(losses)),
            "steps": len(losses),
            "dropped": dropped,
            "seconds": time.monotonic() - start,
        })
        adapters.append({p.name: p.data for p in optimizer.params})
    return report, adapters
