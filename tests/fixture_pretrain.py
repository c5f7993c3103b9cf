"""Full-parameter next-token pretraining, for the toy base models that the
instruction-tuning tests start from."""

import time

import numpy as np

from instruct_forge import autodiff as ad
from instruct_forge.tokenizer import BOS, EOS, TOKENIZER
from instruct_forge.training import AdamW, TrainConfig


def pretrain(model, texts, config: TrainConfig) -> list[dict]:
    """Full-parameter next-token pretraining on plain texts.

    Used to build the toy base model before instruction tuning; packs the
    corpus into fixed-length windows and trains every model weight.
    """
    if not texts:
        raise ValueError("pretrain requires a non-empty corpus")
    stream: list[int] = []
    for text in texts:
        stream.extend([BOS] + TOKENIZER.encode(text) + [EOS])
    L = config.train_seq_len
    windows = [stream[i : i + L + 1] for i in range(0, len(stream) - L, L)]
    if not windows:
        raise ValueError("corpus shorter than one training window")
    for p in model.params.values():
        p.requires_grad = True
    optimizer = AdamW(model.params.values(), lr=config.learning_rate)
    report = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(config.seed + 101 + epoch)
        order = rng.permutation(len(windows))
        losses = []
        start = time.monotonic()
        for lo in range(0, len(windows), config.batch_size):
            rows = [windows[i] for i in order[lo : lo + config.batch_size]]
            W = min(len(r) for r in rows) - 1
            arr = np.asarray([r[: W + 1] for r in rows], dtype=np.int64)
            logits = model.forward(arr[:, :-1], rng=model.rng)
            loss = ad.softmax_cross_entropy(logits, arr[:, 1:])
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        report.append({
            "epoch": epoch,
            "mean_loss": float(np.mean(losses)),
            "dropped": 0,
            "seconds": time.monotonic() - start,
        })
    return report
