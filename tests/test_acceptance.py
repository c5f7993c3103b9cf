"""Acceptance suite: ten end-to-end criteria, one PASS/FAIL line each.

The lines are printed straight to the terminal (bypassing capture) so a
plain ``pytest tests/test_acceptance.py`` run shows every verdict.
"""

import time

import numpy as np
import pytest

from fixture_pretrain import pretrain
from fixture_tasks import demos, query
from gradcheck import TRAIN_STEP_OPS, TRIALS, check_op
from instruct_forge.cli import main as cli_main
from instruct_forge.evaluation import (
    ChoiceTask,
    FewShotSpec,
    PerplexityItem,
    QuestionTemplate,
    assemble_fewshot_prompt,
    corpus_perplexity,
    run_choice_eval,
)
from instruct_forge.lora import LoraConfig, adapter_parameters, inject, merge_all, trainable_param_count
from instruct_forge.model import DecoderModel, ModelConfig
from instruct_forge.prompts import PromptTemplate, render_prompt
from instruct_forge.records import InstructionRecord, load_records, save_records
from instruct_forge.sampling import GenerationParams, apply_repetition_penalty, generate
from instruct_forge.tokenizer import VOCAB_SIZE, ByteTokenizer
from instruct_forge.training import AdamW, TrainConfig, _encode_example, _pad, train, train_step
from test_evaluation import two_byte_model, uniform_model
from test_prompts import no_input_record, with_input_record
from test_sampling import LoopingModel

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # let the verdict lines through pytest's capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number: int, title: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"ACCEPTANCE {number:2d} [{status}] {title} "
            f"({elapsed:.1f}s / budget {budget:.0f}s)")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {number} failed: {title}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_01_gradient_fidelity():
    start = time.monotonic()
    rows = [key for key in TRIALS if key[0] in TRAIN_STEP_OPS]
    rng = np.random.default_rng(0)
    failures = []
    for i in range(100):
        try:
            check_op(*rows[i % len(rows)], rng)   # asserts rel. error < 1e-3
        except Exception as e:   # a failing trial is reported on the verdict line, not as a bare traceback
            failures.append(f"{type(e).__name__}: {e}")
    report(1, f"gradient fidelity, {100 - len(failures)} of 100 finite-difference trials pass"
              + (f"; first failure {failures[0]}" if failures else ""),
           not failures, time.monotonic() - start, 60)


def test_02_lora_zero_init_identity():
    start = time.monotonic()
    cfg = ModelConfig(d_model=64, n_heads=4, n_layers=2, max_seq_len=64, seed=3)
    base = DecoderModel(cfg)
    adapted = inject(DecoderModel(cfg), LoraConfig(target_names=["q_proj", "v_proj"]))
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(50):
        ids = rng.integers(0, VOCAB_SIZE, size=int(rng.integers(1, 16)))
        ok = ok and np.array_equal(base.logits(ids), adapted.logits(ids))
    report(2, "zero-init adapters are a bit-exact identity on 50 inputs",
           ok, time.monotonic() - start, 5)


def test_03_merge_equivalence_after_training():
    start = time.monotonic()
    model = inject(DecoderModel(ModelConfig(d_model=32, n_heads=2, n_layers=2,
                                            max_seq_len=64, seed=1)),
                   LoraConfig(r=4, dropout=0.0, target_names=["q_proj", "v_proj"]))
    recs = [InstructionRecord(f"say w{i}", f"w{i}", category="other") for i in range(4)]
    template = PromptTemplate(kind="no-input", body="Q:{instruction}\nA:\n{response}")
    # the batch as train builds it: each record encoded, then the rows padded
    batch = _pad([_encode_example(r, template, ByteTokenizer(), TrainConfig(train_seq_len=32)) for r in recs])
    opt = AdamW(adapter_parameters(model), lr=3e-3)
    for _ in range(100):
        train_step(model, batch, opt)
    ids = list(range(1, 17))
    adapted = model.logits(ids)
    merged = merge_all(model).logits(ids)
    after = model.logits(ids)
    ok = (np.abs(adapted - merged).max() < 1e-5
          and np.array_equal(adapted, after))
    report(3, "merged forward matches adapted (<1e-5); the adapted model is unchanged",
           ok, time.monotonic() - start, 30)


def test_04_parameter_accounting():
    start = time.monotonic()
    model = inject(DecoderModel(ModelConfig(d_model=64, n_heads=4, n_layers=4,
                                            attention_layout="split-qv", seed=0)),
                   LoraConfig(r=4, target_names=["q_proj", "v_proj"]))
    ok = trainable_param_count(model) == 8 * (64 + 64) * 4 == 4096
    report(4, "split-qv 4-layer q+v r=4 reports exactly 4096 trainable params",
           ok, time.monotonic() - start, 5)


def test_05_perplexity_oracle():
    start = time.monotonic()
    ppl_uniform = corpus_perplexity(uniform_model(),
                                    [PerplexityItem("why is the sky blue?", "scattering")]).perplexity_pooled
    half = two_byte_model(pa=0.5, pb=0.5)
    ppl_half = corpus_perplexity(half, [PerplexityItem("q", "abba")]).perplexity_pooled
    ok = abs(ppl_uniform - VOCAB_SIZE) < 1e-4 and abs(ppl_half - 2.0) < 1e-9
    report(5, "uniform model perplexity = 259; p=0.5 model perplexity = 2.0",
           ok, time.monotonic() - start, 5)


def test_06_prompt_byte_exactness():
    start = time.monotonic()
    ok = True
    for version in ("v0.2", "v0.3"):
        golden = (FIXTURES / "prompt_with_input.txt").read_text(encoding="utf-8")
        ok = ok and render_prompt(with_input_record(), PromptTemplate(kind="with-input")) == golden
        golden = (FIXTURES / "prompt_no_input.txt").read_text(encoding="utf-8")
        ok = ok and render_prompt(no_input_record(), PromptTemplate(kind="no-input")) == golden
        for k in (1, 2, 3):
            golden = (FIXTURES / f"fewshot_{version}_k{k}.txt").read_text(encoding="utf-8")
            built = assemble_fewshot_prompt(query(version),
                                            FewShotSpec(k, demos(version)))
            ok = ok and built == golden
    report(6, "prompt renders match golden fixtures byte-for-byte (both kinds, "
              "v0.2/v0.3, k=1..3)", ok, time.monotonic() - start, 5)


def test_07_repetition_penalty_contract():
    start = time.monotonic()
    logits = np.array([2.0, -1.0, 0.0, 5.0])
    identity = np.array_equal(
        apply_repetition_penalty(logits, [0, 1, 2, 3], 1.0), logits)
    model = LoopingModel(top=2.0, eos=1.5)
    plain = generate(model, "p", GenerationParams(max_new_tokens=12))
    penalized = generate(model, "p", GenerationParams(max_new_tokens=12,
                                                      repetition_penalty=1.5))
    ok = identity and len(penalized.token_ids) < len(plain.token_ids)
    report(7, "penalty 1.0 is identity; penalty 1.5 shortens the repeat run",
           ok, time.monotonic() - start, 10)


NOUNS = ["lamp", "door", "boat", "tree", "fish", "bell", "coat", "drum",
         "fork", "gate", "harp", "kite", "lion", "moon", "nest", "pond"]
COLORS = ["red", "blue", "green", "gold", "gray", "pink", "teal", "brown"]

QA_TEMPLATE_BODY = "### Question:\n{instruction}\n\n### Response:\n{response}"
QA_QUESTION_BODY = "### Question:\n{question}\n\n### Response:\n"


def _qa_records():
    """230 synthetic color-of-noun records; last 30 held out."""
    items = []
    for i in range(230):
        noun = NOUNS[i % len(NOUNS)]
        color = COLORS[(i * 7 + i // len(NOUNS)) % len(COLORS)]
        items.append((f"what color is {noun} {i}?", f"{noun} {i} is {color}."))
    return items[:200], items[200:]


def test_08_instruction_tuning_lowers_perplexity():
    start = time.monotonic()
    model = DecoderModel(ModelConfig(d_model=64, n_heads=4, n_layers=2,
                                     max_seq_len=128, seed=5))
    train_items, held_out = _qa_records()
    corpus = [a for _, a in train_items]
    pretrain(model, corpus, TrainConfig(epochs=6, batch_size=16,
                                        train_seq_len=64, learning_rate=1e-3))

    template = QuestionTemplate(body=QA_QUESTION_BODY)
    items = [PerplexityItem(q, a) for q, a in held_out]
    base_ppl = corpus_perplexity(model, items, template).perplexity_pooled

    inject(model, LoraConfig(r=8, alpha=16, dropout=0.0,
                             target_names=["q_proj", "v_proj", "o_proj",
                                           "up_proj", "down_proj", "lm_head"]))
    records = [InstructionRecord(q, a, category="qa") for q, a in train_items]
    train(model, records,
          TrainConfig(learning_rate=3e-3, batch_size=16, epochs=4, train_seq_len=80),
          template=PromptTemplate(kind="no-input", body=QA_TEMPLATE_BODY))
    tuned_ppl = corpus_perplexity(model, items, template).perplexity_pooled

    drop = (base_ppl - tuned_ppl) / base_ppl
    ok = drop >= 0.20
    report(8, f"held-out response perplexity drops {drop * 100:.0f}% "
              f"({base_ppl:.1f} -> {tuned_ppl:.1f}), >= 20% required",
           ok, time.monotonic() - start, 600)


WORDS = ["apple", "stone", "cloud", "grass", "light", "music", "bread", "onion"]
GIBBERISH = ["zqxzq", "xjqzx", "jzqxj"]


def test_09_tuned_model_beats_chance_on_unseen_task():
    start = time.monotonic()
    model = inject(
        DecoderModel(ModelConfig(d_model=64, n_heads=4, n_layers=2,
                                 max_seq_len=128, seed=6)),
        LoraConfig(r=8, alpha=16, dropout=0.0,
                   target_names=["q_proj", "v_proj", "o_proj",
                                 "up_proj", "down_proj", "lm_head"]))
    # tuning family: short answer lookups; eval family (3-choice) never seen
    records = [InstructionRecord(f"name item {i}.", WORDS[i % len(WORDS)],
                                 category="qa") for i in range(200)]
    train(model, records,
          TrainConfig(learning_rate=3e-3, batch_size=16, epochs=6, train_seq_len=48),
          template=PromptTemplate(kind="no-input", body="{instruction}\n-> {response}"))

    rng = np.random.default_rng(0)
    tasks = []
    for i in range(300):
        gold_word = WORDS[int(rng.integers(len(WORDS)))]
        choices = GIBBERISH[:2] + [gold_word]
        rng.shuffle(choices)
        tasks.append(ChoiceTask("Pick the best option.", {"Item": f"entry {i}"},
                                tuple(choices), gold=choices.index(gold_word), version="v0.2"))
    accuracy = run_choice_eval(model, tasks, shots=[0]).accuracy[0]
    ok = accuracy >= 1 / 3 + 0.10
    report(9, f"3-choice accuracy {accuracy:.3f} exceeds chance+10pp (0.433) "
              f"on 300 unseen-format items", ok, time.monotonic() - start, 600)


def test_10_filter_correctness(tmp_path):
    start = time.monotonic()
    cats = ["qa", "translation", "summarization", "translation", "other",
            "qa", "translation", "correction"]
    mixed = [InstructionRecord(f"inst {i}", f"out {i}", category=c)
             for i, c in enumerate(cats)]
    src = tmp_path / "mixed.jsonl"
    out = tmp_path / "filtered.jsonl"
    save_records(mixed, src)
    rc = cli_main(["build-dataset", "--input", str(src),
                   "--exclude", "translation", "--output", str(out)])
    kept, manifest = load_records(out)
    expected = [r.instruction for r in mixed if r.category != "translation"]
    ok = (rc == 0
          and manifest["by_category"].get("translation", 0) == 0
          and [r.instruction for r in kept] == expected)
    report(10, "build-dataset exclusion drops translation records, keeps order",
           ok, time.monotonic() - start, 5)
