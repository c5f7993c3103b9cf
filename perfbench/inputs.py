"""Seeded input generators for the three workloads.

Every generator takes a ``numpy.random.Generator`` made from the run's
``--seed``. Sizes come from fixed grids and only the content and order are
random, so the amount of work in a run does not depend on the seed while the
data does.
"""

from __future__ import annotations

import json

import numpy as np

WORDS = (
    "the of and to in is was for on that with as by at from his her it an are "
    "this be which or had not but have one were they all there their been has "
    "when who more will would no if out so said what up its about into than them "
    "can only other new some could time these two may then first any like now my "
    "such make over our even most after also did many before must through years "
    "where much your way well down should because each just those people how too "
    "little state good very world still own see men work long here get both "
    "between life being under never day same another know while last might us "
    "great old year off come since against go came right used take three river "
    "stone garden window bread music letter market summer winter travel answer"
).split()

NLI_INSTRUCTION = (
    "Please answer the relationship between the premise and the hypothesis "
    "from entailment, contradiction, and neutral."
)
NLI_CONSTRAINTS = (
    "Constraints:\n"
    "- If the hypothesis can be derived from the premise using logical or "
    "common sense knowledge, output entailment\n"
    "- If the premise and the hypothesis are incompatible, output contradiction\n"
    "- If neither of the above, output neutral"
)
NLI_CHOICES = ("entailment", "contradiction", "neutral")


def text(rng: np.random.Generator, nbytes: int) -> str:
    """Lower-case words joined by spaces, exactly ``nbytes`` ASCII bytes long."""
    words, size = [], 0
    while size < nbytes:
        w = WORDS[int(rng.integers(len(WORDS)))]
        words.append(w)
        size += len(w) + 1
    s = " ".join(words)[:nbytes]
    return s[:-1] + "s" if s.endswith(" ") else s


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# -- tune -------------------------------------------------------------------------


def tune_records(rng: np.random.Generator, n: int = 16) -> list[dict]:
    """Half with-input, half no-input records whose rendered prompts (with
    response, BOS and EOS) span the template minimum up to 400 tokens.

    The templates alone take 142 (no-input) and 207 (with-input) tokens with
    empty fields, so lengths start there rather than at 60.
    """
    from instruct_forge.prompts import render_prompt, template_for
    from instruct_forge.records import InstructionRecord

    rows = []
    half = n // 2
    for with_input, targets in ((False, np.linspace(160, 400, half)), (True, np.linspace(230, 400, n - half))):
        probe = InstructionRecord(instruction="i", output="o", input="x" if with_input else None)
        base = len(render_prompt(probe, template_for(probe)).encode()) - (3 if with_input else 2) + 2
        for target in targets:
            budget = int(target) - base
            out_len = max(8, min(200, int(budget * rng.uniform(0.35, 0.6))))
            rest = budget - out_len
            inp_len = max(8, int(rest * rng.uniform(0.4, 0.7))) if with_input else 0
            ins_len = max(8, rest - inp_len)
            rows.append({
                "instruction": text(rng, ins_len).capitalize() + ".",
                "input": text(rng, inp_len) if with_input else None,
                "output": text(rng, out_len),
                "category": "other",
                "source": "perfbench",
            })
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


# -- score ------------------------------------------------------------------------


def nli_task(rng: np.random.Generator, version: str, constraints: bool, premise: int, hypothesis: int) -> dict:
    return {
        "instruction": NLI_INSTRUCTION,
        "constraints": NLI_CONSTRAINTS if constraints else None,
        "fields": {"Premise": text(rng, premise).capitalize() + ".",
                   "Hypothesis": text(rng, hypothesis).capitalize() + "."},
        "choices": list(NLI_CHOICES),
        "gold": int(rng.integers(3)),
        "version": version,
        "answer_label": "Relationship",
    }


def score_tasks(rng: np.random.Generator) -> list[dict]:
    """Three demonstrations, then one v0.2 query and one v0.3 query.

    The v0.2 layout without constraints stays inside 512 tokens at one and
    two shots; the v0.3 layout repeats the instruction and choices in every
    block and overflows 512 tokens from one shot on.
    """
    demos = [nli_task(rng, "v0.2", False, p, h) for p, h in ((34, 30), (28, 26), (40, 22))]
    queries = [nli_task(rng, "v0.2", False, 36, 28), nli_task(rng, "v0.3", False, 44, 30)]
    order = rng.permutation(len(queries))
    return demos + [queries[i] for i in order]


def ppl_items(rng: np.random.Generator, n: int = 32) -> list[dict]:
    """Short question/answer pairs; no two share more than the template."""
    q_lens = rng.permutation(np.linspace(20, 80, n).astype(int))
    a_lens = rng.permutation(np.linspace(10, 60, n).astype(int))
    return [{"question": text(rng, int(q)).capitalize() + "?", "response": text(rng, int(a)).capitalize() + "."}
            for q, a in zip(q_lens, a_lens)]


# -- decode -----------------------------------------------------------------------

# (max_new_tokens, prompt tokens incl. BOS, temperature, repetition penalty,
# runs to full length). Requests that run to full length pass stop_token=-1:
# a random-weight model emits EOS at about one step in 259, which would make
# the token count, and so tokens/s, depend on the seed.
DECODE_LONG = (
    (16, 24, 0.0, 1.0, False),
    (16, 150, 0.8, 1.05, False),
    (16, 300, 0.0, 1.05, False),
    (16, 500, 0.0, 1.0, False),     # 500 + 16 crosses max_seq_len 512
    (64, 40, 0.8, 1.0, True),
    (64, 200, 0.0, 1.05, True),
    (256, 24, 0.8, 1.05, True),
)
FIRST_TOKEN_REQUESTS = 100


def decode_plan(rng: np.random.Generator) -> list[dict]:
    """One round of generate requests: 100 first-token requests with prompts
    of 16 to 450 tokens plus the longer requests above, in seeded order."""
    plan = []
    lengths = rng.permutation(np.linspace(16, 450, FIRST_TOKEN_REQUESTS).astype(int))
    for i, length in enumerate(lengths):
        plan.append({"max_new_tokens": 1, "prompt": text(rng, int(length) - 1),
                     "temperature": 0.8 if i % 2 else 0.0, "repetition_penalty": 1.05 if i % 4 >= 2 else 1.0,
                     "full_length": False, "seed": i})
    for j, (n, length, temp, penalty, full) in enumerate(DECODE_LONG):
        plan.append({"max_new_tokens": n, "prompt": text(rng, length - 1), "temperature": temp,
                     "repetition_penalty": penalty, "full_length": full, "seed": FIRST_TOKEN_REQUESTS + j})
    order = rng.permutation(len(plan))
    return [plan[i] for i in order]
