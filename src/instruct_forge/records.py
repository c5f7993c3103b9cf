"""Instruction records: ingestion, validation, conversion, and filtering.

Dataset files are JSON Lines with fields
{"instruction", "input" (nullable), "output", "category", "source"}.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .archive import write_atomic

CATEGORIES = frozenset({
    "commonsense",
    "summarization",
    "reading-comprehension",
    "simplification",
    "correction",
    "translation",
    "qa",
    "other",
})

TYPO_INSTRUCTION = "Correct the typos in the following text."
QA_INSTRUCTION = "Answer the following question."


class RecordError(ValueError):
    """A record violates the schema; carries a line number when loading."""


def require_utf8(name: str, *texts: str) -> None:
    """A RecordError naming ``name`` when one of ``texts`` holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        raise RecordError(f"{name} holds a lone surrogate, which UTF-8 cannot encode") from None


@dataclass(frozen=True)
class InstructionRecord:
    """One instruction/input/response triple with task-category metadata."""

    instruction: str
    output: str
    input: str | None = None
    category: str = "other"
    source: str = "unknown"

    def __post_init__(self):
        for name in ("instruction", "input", "output", "category", "source"):
            value = getattr(self, name)
            if value is None and name == "input":
                continue
            if not isinstance(value, str):
                raise RecordError(f"{name} must be a string, got {type(value).__name__}")
            require_utf8(name, value)
        if not self.instruction:
            raise RecordError("instruction must be non-empty")
        if not self.output:
            raise RecordError("output must be non-empty")
        if self.category not in CATEGORIES:
            raise RecordError(f"unknown category {self.category!r}; expected one of {sorted(CATEGORIES)}")

    def to_json(self) -> str:
        return json.dumps({
            "instruction": self.instruction,
            "input": self.input,
            "output": self.output,
            "category": self.category,
            "source": self.source,
        }, ensure_ascii=False)


def dataset_stats(records) -> dict:
    """Record counts: ``{"total", "by_category", "by_source"}``."""
    return {"total": len(records), "by_category": dict(Counter(r.category for r in records)),
            "by_source": dict(Counter(r.source for r in records))}


def read_jsonl(path, make) -> list:
    """``make(obj)`` for the JSON object on each non-blank line of a JSON Lines file.

    A line that is not UTF-8, not JSON or not an object, or for which ``make``
    raises KeyError or ValueError, raises RecordError naming the file and line.
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise RecordError(f"{where}: not UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise RecordError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise RecordError(f"{where}: expected a JSON object, got {type(obj).__name__}")
            try:
                out.append(make(obj))
            except KeyError as exc:
                raise RecordError(f"{where}: missing required field {exc}") from exc
            except ValueError as exc:
                raise RecordError(f"{where}: {exc}") from exc
    return out


def load_records(path) -> tuple[list[InstructionRecord], dict]:
    """Parse a JSON Lines file of records; a malformed line is reported with its number."""
    records = read_jsonl(path, lambda obj: InstructionRecord(
        instruction=obj["instruction"],
        input=obj.get("input"),
        output=obj["output"],
        category=obj.get("category", "other"),
        source=obj.get("source", Path(path).stem),
    ))
    return records, dataset_stats(records)


def save_records(records, path) -> None:
    write_atomic({path: (f"{r.to_json()}\n".encode("utf-8") for r in records)})


def filter_by_category(records, excluded) -> list[InstructionRecord]:
    """Order-preserving removal of records whose category is excluded."""
    excluded = set(excluded)
    return [r for r in records if r.category not in excluded]


def convert_typo_pair(wrong_text: str, corrected_text: str) -> InstructionRecord:
    if not wrong_text or not corrected_text:
        raise RecordError("typo pair texts must be non-empty")
    return InstructionRecord(instruction=TYPO_INSTRUCTION, input=wrong_text,
                             output=corrected_text, category="correction", source="typo-pairs")


def convert_qa_pair(question: str, answer: str) -> InstructionRecord:
    if not question or not answer:
        raise RecordError("qa pair texts must be non-empty")
    return InstructionRecord(instruction=QA_INSTRUCTION, input=question,
                             output=answer, category="qa", source="qa-pairs")
