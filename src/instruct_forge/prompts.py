"""Prompt templates and byte-exact rendering of instruction records."""

from __future__ import annotations

import re
from dataclasses import dataclass

_SLOT = re.compile(r"\{(instruction|input)\}")

WITH_INPUT_BODY = (
    "Below is an instruction that describes a task, paired with an input that "
    "provides further context. Write a response that appropriately completes the request.\n"
    "\n"
    "### Instruction:\n"
    "{instruction}\n"
    "\n"
    "### Input:\n"
    "{input}\n"
    "\n"
    "### Response:\n"
    "{response}"
)

NO_INPUT_BODY = (
    "Below is an instruction that describes a task. "
    "Write a response that appropriately completes the request.\n"
    "\n"
    "### Instruction:\n"
    "{instruction}\n"
    "\n"
    "### Response:\n"
    "{response}"
)


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt layout; rendering is a pure function of (template, record).

    ``kind`` is "with-input" or "no-input". The body must end with the
    ``{response}`` slot so inference renders can stop right after the
    response header.
    """

    kind: str = "with-input"
    body: str | None = None

    def __post_init__(self):
        if self.kind not in ("with-input", "no-input"):
            raise ValueError(f"unknown template kind {self.kind!r}")
        if self.body is None:
            object.__setattr__(self, "body", WITH_INPUT_BODY if self.kind == "with-input" else NO_INPUT_BODY)
        if not self.body.endswith("{response}"):
            raise ValueError("template body must end with the {response} slot")
        if self.kind == "with-input" and "{input}" not in self.body:
            raise ValueError("with-input template body must contain the {input} slot")


def render_prompt(record, template: PromptTemplate, include_response: bool = True) -> str:
    """Instantiate the template; inference renders stop after "### Response:\\n"."""
    slots = {"instruction": record.instruction}
    if template.kind == "with-input":
        if not record.input:
            raise ValueError("with-input template requires a record with an input")
        slots["input"] = record.input
    # one pass, so slot text inside a substituted value is never substituted again
    prefix = _SLOT.sub(lambda m: slots.get(m[1], m[0]), template.body[: -len("{response}")])
    if include_response:
        return prefix + record.output
    return prefix


def template_for(record) -> PromptTemplate:
    """Pick the with-input or no-input template based on the record."""
    return PromptTemplate(kind="with-input" if record.input else "no-input")
