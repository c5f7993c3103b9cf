"""Low-rank adapters: trainable B*A deltas attached to frozen named weights.

The delta starts at zero (B = 0), so an adapted model is initially
indistinguishable from its base. The delta is scaled by alpha/r. Only
adapter matrices train; every base weight is frozen at injection time.
``merge_all`` returns W0 + delta as a new plain model and leaves the adapted one as it is.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .archive import ArchiveError, fill, read_checkpoint, save_archive
from .autodiff import Tensor
from .model import DecoderModel


class LoraConfigError(ValueError):
    """Invalid adapter configuration (bad rank, unmatched patterns, ...)."""


@dataclass
class LoraConfig:
    r: int = 4
    alpha: float = 16.0
    dropout: float = 0.05
    target_names: list[str] = field(default_factory=lambda: ["q_proj", "v_proj"])

    def __post_init__(self):
        if isinstance(self.r, bool) or not isinstance(self.r, numbers.Integral) or self.r < 1:
            raise LoraConfigError(f"rank must be an integer >= 1, got {self.r!r}")
        if not math.isfinite(self.alpha):
            raise LoraConfigError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 <= self.dropout < 1.0:
            raise LoraConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        targets = self.target_names   # one string would be read as a list of one-letter patterns
        if isinstance(targets, str) or not targets or not all(isinstance(pattern, str) for pattern in targets):
            raise LoraConfigError(f"target_names must be a non-empty list of strings, got {targets!r}")


class LoraAdapter:
    """One frozen weight W0 (d x k) plus its trainable A (r x k), B (d x r),
    named ``name + ".lora_A"`` and ``name + ".lora_B"``."""

    def __init__(self, name: str, weight: Tensor, config: LoraConfig, rng: np.random.Generator):
        d, k = weight.shape
        if config.r > min(d, k):
            raise LoraConfigError(f"rank {config.r} exceeds min dimension of {name} ({d}x{k})")
        self.weight = weight
        self.dropout = config.dropout
        self.scaling = config.alpha / config.r
        self.A = Tensor(rng.normal(0.0, 1.0 / config.r, (config.r, k)).astype(np.float32),
                        requires_grad=True, name=name + ".lora_A")
        self.B = Tensor(np.zeros((d, config.r), dtype=np.float32),
                        requires_grad=True, name=name + ".lora_B")

    def delta(self) -> np.ndarray:
        return self.scaling * (self.B.data @ self.A.data)

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """``x @ W0.T + (x * keep) @ A.T @ B.T * scaling``, as one ``ad.lora_linear`` node.

        Dropout applies only with ``rng`` and a nonzero ``dropout``: the bool mask is
        ``rng.random(x.shape) >= dropout`` and ``keep = mask.astype(x.dtype) / (1 - dropout)``;
        otherwise ``x * keep`` is ``x``.
        """
        mask = None
        if rng is not None and self.dropout != 0.0:
            mask = ad.dropout_mask(x.shape, self.dropout, rng)
        return ad.lora_linear(x, self.weight, self.A, self.B, self.scaling, mask, self.dropout)


def inject(model, config: LoraConfig):
    """Attach adapters to each projection weight whose name contains a target pattern: every 2-D
    weight but the ``embedding`` table, which the forward indexes. All base weights are frozen."""
    rng = np.random.default_rng(model.config.seed + 7)
    matched_patterns = set()
    for name, param in model.params.items():
        param.requires_grad = False
        if param.data.ndim != 2 or name == "embedding":
            continue
        hits = [pat for pat in config.target_names if pat in name]
        if hits:
            matched_patterns.update(hits)
            model.adapters[name] = LoraAdapter(name, param, config, rng)
    unmatched = [pat for pat in config.target_names if pat not in matched_patterns]
    if unmatched:
        raise LoraConfigError(f"target patterns matched no parameters: {unmatched}")
    model.lora_config = config
    return model


def adapter_parameters(model) -> list[Tensor]:
    """A/B tensors of every adapter, in stable injection order."""
    out = []
    for adapter in model.adapters.values():
        out.extend([adapter.A, adapter.B])
    return out


def trainable_param_count(model) -> int:
    """Elements of every adapter's A and B: (d+k)*r per adapter."""
    return sum(p.data.size for p in adapter_parameters(model))


def merge_all(model) -> DecoderModel:
    """A new ``DecoderModel`` without adapters, each adapted weight ``W0 + delta``; ``model`` is not changed.

    Other weights share its arrays, as no code writes into a ``Tensor``'s ``data`` in place.
    Raises ``LoraConfigError`` when ``model`` has no adapters.
    """
    if not model.adapters:
        raise LoraConfigError("model has no adapters to merge")
    merged = DecoderModel._unfilled(model.config)
    for name, param in model.params.items():
        adapter = model.adapters.get(name)
        w = param.data
        merged.params[name].data = w if adapter is None else w + adapter.delta().astype(w.dtype)
    return merged


def adapter_checkpoint(model, arrays=None) -> tuple[dict, dict]:
    """(arrays, meta) of an adapter checkpoint: ``arrays`` (``{tensor name: array}`` of every
    A and B, as ``train`` returns per epoch) or, when None, the model's current A and B."""
    if not model.adapters:
        raise LoraConfigError("model has no adapters to save")
    meta = {
        "kind": "lora-adapters",
        "config": asdict(model.lora_config),
        "base_layout": model.config.attention_layout,
    }
    if arrays is None:
        arrays = {t.name: t.data for t in adapter_parameters(model)}
    return arrays, meta


def save_adapters(model, path) -> None:
    """Write ``adapter_checkpoint(model)``, the model's current A and B, to ``path``."""
    save_archive(path, *adapter_checkpoint(model))


def load_adapters(model, path):
    """Inject the file's ``LoraConfig`` into a model without adapters, then fill A and B.

    Raises ``LoraConfigError``, changing nothing, if the model already has
    adapters, and ``ArchiveError`` if the file's arrays are not exactly the
    adapters it builds; the injection is then not undone, but A and B stay as injected.
    """
    if model.adapters:
        raise LoraConfigError("load_adapters needs a model without adapters")
    arrays, meta, config = read_checkpoint(path, "lora-adapters", "adapter", LoraConfig)
    if meta.get("base_layout") != model.config.attention_layout:
        raise ArchiveError(
            f"{path}: adapter checkpoint targets layout {meta.get('base_layout')!r}, "
            f"model uses {model.config.attention_layout!r}")
    fill(path, adapter_parameters(inject(model, config)), arrays, "adapter")
    return model
