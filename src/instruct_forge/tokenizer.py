"""Byte-level tokenizer: 256 byte values plus BOS/EOS/PAD specials."""

from __future__ import annotations

BOS = 256
EOS = 257
PAD = 258
VOCAB_SIZE = 259


class ByteTokenizer:
    """UTF-8 byte encoding; decode(encode(s)) == s for any text."""

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, tokens) -> str:
        payload = []
        for t in tokens:
            if not 0 <= t < VOCAB_SIZE:
                raise ValueError(f"token id {t} out of range [0, {VOCAB_SIZE})")
            if t < 256:
                payload.append(t)
        return bytes(payload).decode("utf-8", errors="replace")


TOKENIZER = ByteTokenizer()   # the one tokenizer of the pipeline; it holds no state
