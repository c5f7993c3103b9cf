"""Likelihood-based evaluation: few-shot choice classification and
response-only perplexity.

Choice classification scores each candidate answer string's conditional
log-likelihood under the model and predicts the argmax. Perplexity is the
exponential of the mean negative log-likelihood, computed over response
tokens only (the question prompt never enters the sum).

Models are consumed through one protocol, the one ``DecoderModel`` has:
``logits(ids, cache=None, last=None)`` returning the [T, V] array of logit
rows for [T] ids and [B, T, V] for a [B, T] batch, or only the last n with
``last=n``; ``new_cache()``, an empty cache that ``logits(ids, cache=...)``
extends, B rows at once on a one-row cache too, and that ``list(cache)``
branches: a call on a branch leaves the positions of its parent and of every
other branch as they were; and ``max_seq_len``.
Scoring asks only for the logit rows that predict the continuation. The
items of one call that fit the window run their common token prefix once,
choice classification runs a shared prompt once for all its choices, and
continuations on one cache entry run as right-padded batches.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import log_softmax
from .records import require_utf8
from .tokenizer import BOS, PAD, TOKENIZER

VERSIONS = ("v0.2", "v0.3")   # the few-shot prompt layouts of ``assemble_fewshot_prompt``

FEWSHOT_HEADER_V03 = (
    "Below is a combination of instructions explaining the task and contextual "
    "inputs. Write a response that adequately meets the request."
)

QUESTION_BODY = (
    "Write a response to answer the following question.\n"
    "\n"
    "### Question:\n"
    "{question}\n"
    "\n"
    "### Response:\n"
)


@dataclass(frozen=True)
class ChoiceTask:
    """A classification item: context fields, answer choices, gold index."""

    instruction: str
    fields: dict
    choices: tuple
    gold: int
    version: str = "v0.3"
    constraints: str | None = None
    answer_label: str = "Response"

    def __post_init__(self):
        if not isinstance(self.fields, dict):
            raise ValueError(f"fields must be an object, got {type(self.fields).__name__}")
        if not isinstance(self.choices, (list, tuple)):
            raise ValueError(f"choices must be a list, got {type(self.choices).__name__}")
        texts = (self.instruction, self.answer_label, *self.fields, *self.fields.values(), *self.choices)
        if not all(isinstance(t, str) for t in texts) or not isinstance(self.constraints, (str, type(None))):
            raise ValueError("instruction, constraints, answer_label, field names and values, "
                             "and choices must be strings")
        require_utf8("a task text", *texts, self.constraints or "")
        if isinstance(self.gold, bool) or not isinstance(self.gold, numbers.Integral):
            raise ValueError(f"gold must be an integer index, got {self.gold!r}")
        object.__setattr__(self, "choices", tuple(self.choices))
        if len(self.choices) < 2:
            raise ValueError("a choice task needs at least 2 choices")
        if "" in self.choices:
            raise ValueError("choices must be non-empty")
        if not 0 <= self.gold < len(self.choices):
            raise ValueError(f"gold index {self.gold} out of range")
        if self.version not in VERSIONS:
            raise ValueError(f"unknown prompt version {self.version!r}")


@dataclass(frozen=True)
class FewShotSpec:
    """k solved demonstrations to prepend to the query."""

    k: int
    demonstrations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "demonstrations", tuple(self.demonstrations))
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.k > len(self.demonstrations):
            raise ValueError(f"k={self.k} exceeds the {len(self.demonstrations)} demonstrations provided")


@dataclass(frozen=True)
class PerplexityItem:
    question: str
    response: str

    def __post_init__(self):
        if not isinstance(self.question, str) or not isinstance(self.response, str):
            raise ValueError("question and response must be strings")
        require_utf8("question", self.question)
        require_utf8("response", self.response)
        if not self.response:
            raise ValueError("response must be non-empty")


@dataclass(frozen=True)
class QuestionTemplate:
    """Question prompt for perplexity items; body ends at the response header."""

    body: str = QUESTION_BODY

    def __post_init__(self):
        if "{question}" not in self.body:
            raise ValueError("question template has no {question} slot")

    def render(self, question: str) -> str:
        return self.body.replace("{question}", question)


@dataclass
class EvalReport:
    accuracy: dict = field(default_factory=dict)          # shot count -> accuracy
    tuning_overflows: int = 0
    model_overflows: int = 0
    perplexity_pooled: float | None = None
    perplexity_mean: float | None = None
    item_perplexities: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": {str(k): v for k, v in self.accuracy.items()},
            "tuning_overflows": self.tuning_overflows,
            "model_overflows": self.model_overflows,
            "perplexity_pooled": self.perplexity_pooled,
            "perplexity_mean": self.perplexity_mean,
        }


# -- few-shot prompt assembly -------------------------------------------------


def _field_lines(task: ChoiceTask) -> str:
    return "\n".join(f"{label}: {value}" for label, value in task.fields.items())


def _block(task: ChoiceTask, version: str, answer: str = "") -> str:
    """``task`` in ``version``'s layout: a solved demo with its ``answer``, or the open query."""
    if version == "v0.2":
        return f"{_field_lines(task)}\n{task.answer_label}: {answer}"
    return (
        "### Instructions:\n"
        f"{task.instruction}\n"
        "\n"
        "Choose your output from the following:\n"
        + "\n".join(task.choices)
        + "\n\n### Input:\n"
        f"{_field_lines(task)}\n"
        "\n"
        "### Response:\n" + answer
    )


def assemble_fewshot_prompt(task: ChoiceTask, spec: FewShotSpec) -> str:
    """In the task's version, demos included: a header (v0.2: the instruction, then the constraints if any;
    v0.3: ``FEWSHOT_HEADER_V03``), the solved demos, then the open query."""
    header = [FEWSHOT_HEADER_V03]
    if task.version == "v0.2":
        header = [task.instruction, task.constraints] if task.constraints else [task.instruction]
    demos = [_block(demo, task.version, demo.choices[demo.gold]) for demo in spec.demonstrations[: spec.k]]
    return "\n\n".join([*header, *demos, _block(task, task.version)])


# -- likelihood scoring --------------------------------------------------------


def _continuation_logp(logits, cont: list) -> float:
    """Summed log-probability of ``cont`` under its predicting logit rows."""
    logp = log_softmax(np.asarray(logits, dtype=np.float64)[-len(cont):])
    return float(logp[np.arange(len(cont)), cont].sum())


def _context(prompt: str) -> list:
    """BOS and the prompt's ids."""
    return [BOS] + TOKENIZER.encode(prompt)


def score_continuation(model, prompt: str, continuation: str) -> float:
    """Summed log-likelihood of the continuation tokens given the prompt.

    Overlong inputs are left-truncated, preserving the end of the prompt
    and the whole continuation.
    """
    cont = TOKENIZER.encode(continuation)
    if not cont:
        raise ValueError("continuation encodes to zero tokens")
    return _score_items(model, [(_context(prompt), [cont])])[0][0]


def _encode_task(task: ChoiceTask, spec: FewShotSpec) -> tuple[list, list]:
    """The few-shot prompt's context ids and each choice's ids."""
    return _context(assemble_fewshot_prompt(task, spec)), [TOKENIZER.encode(c) for c in task.choices]


def _score_items(model, items) -> list[list[float]]:
    """Each ``(context ids, [continuation ids])`` item's summed continuation log-likelihoods. When two or more items
    fit the window, their longest common token prefix, short of at least each context's last token, runs once into a
    cache. A fitting item's one continuation is a row on that cache; an item with more runs its context, short of
    the last id, on a branch of it, and each choice, after that id, is a row on the branch. An item that overflows
    the window scores each continuation alone on the window's last ids, so the continuation's length sets the
    context's left truncation."""
    max_len = model.max_seq_len
    too_long = next((len(c) for _, conts in items for c in conts if len(c) >= max_len), None)
    if too_long:
        raise ValueError(f"continuation of {too_long} tokens cannot fit the {max_len}-token context")
    fits = [len(ctx) + max(map(len, conts)) <= max_len for ctx, conts in items]
    shared = [ctx for (ctx, _), fit in zip(items, fits) if fit]
    P = min(len(os.path.commonprefix(shared)), min(map(len, shared)) - 1) if len(shared) > 1 else 0
    cache = model.new_cache()
    if P:
        model.logits(shared[0][:P], cache=cache, last=1)
    scores = [[None] * len(conts) for _, conts in items]
    rows = {0: [], P: []}   # cached length -> (ids, continuation, item, choice): alone, or on the shared prefix
    for i, ((ctx, conts), fit) in enumerate(zip(items, fits)):
        if not fit:
            rows[0] += [((ctx + c)[-max_len:-1], c, i, j) for j, c in enumerate(conts)]
        elif len(conts) == 1:
            rows[P].append((ctx[P:] + conts[0][:-1], conts[0], i, 0))
        else:   # the context short of its last id once, on a branch; then each choice is a row on the branch
            branch = list(cache)
            if len(ctx) - 1 > P:
                model.logits(ctx[P:-1], cache=branch, last=1)
            for (_, c, _, j), logits in _run_rows(model, branch, len(ctx) - 1,
                                                  [(ctx[-1:] + c[:-1], c, i, j) for j, c in enumerate(conts)]):
                scores[i][j] = _continuation_logp(logits, c)
    for p, group in rows.items():
        for (_, c, i, j), logits in _run_rows(model, cache if p else None, p, group):
            scores[i][j] = _continuation_logp(logits, c)
    return scores


def _run_rows(model, cache, P: int, rows):
    """Yields ``(row, logits)`` for each ``(ids, continuation, ...)`` row: the logit rows of its last
    len(continuation) positions after the P positions of ``cache`` (None: no cache). Rows run shortest first as
    right-padded [B, L] forwards, each on a branch of the cache, a group growing while B × (P + L) <=
    ``max_seq_len``: no more keys and values than one window's. Attention is causal, so no row sees its pads;
    ``last`` reaches the group's earliest scored position."""
    rows = sorted(rows, key=lambda row: len(row[0]))
    while rows:
        B = 1
        while B < len(rows) and (B + 1) * (P + len(rows[B][0])) <= model.max_seq_len:
            B += 1
        group, rows = rows[:B], rows[B:]
        L = len(group[-1][0])
        skip = [len(ids) - len(c) for ids, c, *_ in group]   # each row's unscored positions
        first = min(skip)
        batch = np.full((B, L), PAD)
        for b, (ids, *_) in enumerate(group):
            batch[b, :len(ids)] = ids
        logits = model.logits(batch, cache=None if cache is None else list(cache), last=L - first)
        for b, (row, s) in enumerate(zip(group, skip)):
            yield row, logits[b, s - first:len(row[0]) - first]


def classify_by_likelihood(model, task: ChoiceTask, spec: FewShotSpec) -> int:
    """The choice with the highest summed log-likelihood after the few-shot
    prompt; ties go to the lowest index.

    When the prompt and its longest choice fit the window, the prompt, short
    of its last id, runs once into a K/V cache, and each choice after that id
    is a row of right-padded batches on it (see ``_score_items``). Otherwise
    each choice runs alone on the window's last ids, so its length sets the
    prompt's left truncation.
    """
    return int(np.argmax(_score_items(model, [_encode_task(task, spec)])[0]))


# -- perplexity ---------------------------------------------------------------


def corpus_perplexity(model, items, prompt_template: QuestionTemplate | None = None) -> EvalReport:
    """Each item's response-only perplexity, exp of its mean response NLL, and the pooled
    exp(total response NLL / total response tokens); an item whose perplexity overflows is a ``ValueError``.
    ``model_overflows`` counts the items longer than the model's window, which are left-truncated."""
    if not items:
        raise ValueError("corpus_perplexity requires at least one item")
    template = prompt_template or QuestionTemplate()
    encoded = [(_context(template.render(item.question)), [TOKENIZER.encode(item.response)]) for item in items]
    total_nll = 0.0
    total_tokens = 0
    overflows = 0
    per_item = []
    for i, ((ctx, (cont,)), (logp,)) in enumerate(zip(encoded, _score_items(model, encoded)), start=1):
        overflows += len(ctx) + len(cont) > model.max_seq_len
        nll, n = -logp, len(cont)
        try:
            per_item.append(math.exp(nll / n))
        except OverflowError:
            raise ValueError(f"item {i}: perplexity overflows (mean response NLL {nll / n:.1f} nats)") from None
        total_nll += nll
        total_tokens += n
    return EvalReport(
        model_overflows=overflows,
        perplexity_pooled=math.exp(total_nll / total_tokens),
        perplexity_mean=float(np.mean(per_item)),
        item_perplexities=per_item,
    )


# -- batch choice evaluation ----------------------------------------------------


def run_choice_eval(model, tasks, shots, tuning_seq_len: int | None = None) -> EvalReport:
    """Evaluate k-shot accuracy for each k in ``shots``.

    The first max(shots) tasks serve as demonstrations and are excluded
    from scoring. Overflow counters mirror inputs that exceeded the tuning
    length or the model context length before truncation.
    """
    if tuning_seq_len is not None and tuning_seq_len < 1:
        raise ValueError(f"tuning_seq_len must be >= 1, got {tuning_seq_len}")
    shots = sorted(set(shots))
    if not shots or shots[0] < 0:
        raise ValueError(f"shots must be one or more counts >= 0, got {shots}")
    max_k = max(shots)
    if len(tasks) <= max_k:
        raise ValueError(f"need more than {max_k} tasks to run {max_k}-shot evaluation")
    demos = tuple(tasks[:max_k])
    queries = tasks[max_k:]
    report = EvalReport()
    for k in shots:
        spec = FewShotSpec(k=k, demonstrations=demos[:k])
        encoded = [_encode_task(task, spec) for task in queries]
        for ctx, conts in encoded:
            needed = len(ctx) + max(map(len, conts))
            if tuning_seq_len is not None and needed > tuning_seq_len:
                report.tuning_overflows += 1
            if needed > model.max_seq_len:
                report.model_overflows += 1
        scores = _score_items(model, encoded)
        report.accuracy[k] = sum(int(np.argmax(s)) == task.gold for s, task in zip(scores, queries)) / len(queries)
    return report
