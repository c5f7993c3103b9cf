"""The model and its scorer against ``reference.py``, a float64 transformer that shares no code with them."""

import math

import numpy as np
import pytest

from fixture_tasks import adapted_model, live_adapters, nli_task
from instruct_forge import lora
from instruct_forge.evaluation import (ChoiceTask, FewShotSpec, PerplexityItem, QuestionTemplate, _encode_task,
                                       _score_items, corpus_perplexity, run_choice_eval)
from instruct_forge.model import DecoderModel, ModelConfig
from instruct_forge.sampling import GenerationParams, generate
from instruct_forge.tokenizer import BOS, ByteTokenizer
from reference import reference_logits, reference_score, weight

TOK = ByteTokenizer()
U = 2.0 ** -24   # float32 unit roundoff
LAMBDA = 6.0     # the probabilistic bound's confidence parameter


def float32_bound(model, T: int) -> float:
    """How far a float32 logit of a T-token input may sit from the float64 reference.

    A logit depends on K rounding steps along its longest path, each with
    relative error at most u = 2**-24. Per layer: ln1's two d-term means (2d),
    the d-term q/k/v projection, rotary (4, one of them the float32 table),
    the hd-term scores, softmax's T-term sum, the T-term weighted sum of
    values, the d-term output projection, ln2 (2d), the MLP's d- and
    d_ff-term projections, gelu (8) and two residual adds; then the final
    norm (2d) and the d-term head. So K = L(7d + hd + 2T + d_ff + 14) + 3d.

    Taken as independent and mean-zero, those errors sum to a relative error
    below LAMBDA * sqrt(K) * u with probability at least 1 - 2K exp(-LAMBDA²/2)
    (Higham and Mary, SIAM J. Sci. Comput. 41(5), 2019): over 0.999 at
    LAMBDA = 6 for any K below 30,000 (the default model's K is 7,224 at
    T = 512). A relative error e of the head's input moves a logit by at most
    e |w|_2 |x|_2 (Cauchy-Schwarz), with w the head's row and
    |x|_2 <= sqrt(d) max|gain| + |bias|_2 for the final norm's output x.

    The bound is first order and takes every stage to pass relative error on
    without gain. The models below keep well inside it: each case's largest
    measured error sits 39 to 640 times under it.
    """
    cfg = model.config
    K = cfg.n_layers * (7 * cfg.d_model + cfg.d_model // cfg.n_heads + 2 * T + cfg.d_ff + 14) + 3 * cfg.d_model
    gain, bias = weight(model, "final_norm.gain"), weight(model, "final_norm.bias")
    x_norm = math.sqrt(cfg.d_model) * np.abs(gain).max() + np.linalg.norm(bias)
    return LAMBDA * math.sqrt(K) * U * np.linalg.norm(weight(model, "lm_head"), axis=1).max() * x_norm


ALL_TARGETS = {"split-qv": ["q_proj", "k_proj", "v_proj", "o_proj", "up_proj", "down_proj", "lm_head"],
               "fused-qkv": ["query_key_value", "dense", "up_proj", "down_proj", "lm_head"]}


def model_with(layout: str, adapters: str, max_seq_len: int = 512):
    """A default-size model with no adapters, live q/v adapters (512-token window only), or live adapters on
    every projection."""
    if adapters == "attention":
        return adapted_model(layout)
    model = DecoderModel(ModelConfig(attention_layout=layout, max_seq_len=max_seq_len, seed=5))
    if adapters == "all":
        live_adapters(lora.inject(model, lora.LoraConfig(target_names=ALL_TARGETS[layout])), 5)
    return model


@pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
@pytest.mark.parametrize("adapters", ["none", "attention", "all"])
def test_logits_agree_within_the_float32_bound(layout, adapters):
    model = model_with(layout, adapters)
    ids = np.random.default_rng(0).integers(0, 256, model.max_seq_len)
    for T, last in ((1, None), (37, None), (37, 5), (model.max_seq_len, 3)):
        ref = reference_logits(model, ids[:T])
        got = model.logits(ids[:T], last=last)
        assert got.shape == (last or T, ref.shape[1])
        assert np.abs(got - ref[T - len(got):]).max() <= float32_bound(model, T)


@pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
def test_cached_generate_across_the_window_agrees_within_the_float32_bound(layout, monkeypatch):
    # a 59-token prompt and 12 tokens in a 64-token window: a prefill, cached single tokens up to 64,
    # then whole windows; each step's row against the reference on the window-clipped context
    model = model_with(layout, "all", max_seq_len=64)
    calls, real = [], model.logits
    monkeypatch.setattr(model, "logits", lambda ids, cache=None, last=None:
                        calls.append(real(ids, cache, last)) or calls[-1])
    prompt = ("the cat sat on a mat. " * 3)[:58]
    out = generate(model, prompt, GenerationParams(max_new_tokens=12, stop_token=-1))
    assert out.truncated and len(calls) == len(out.token_ids) == 12
    ids = [BOS] + TOK.encode(prompt) + out.token_ids
    for step, rows in enumerate(calls):
        context = ids[:59 + step][-model.max_seq_len:]
        assert np.abs(rows[-1] - reference_logits(model, context)[-1]).max() <= float32_bound(model, len(context))


@pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
def test_branched_cache_agrees_within_the_float32_bound(layout):
    # the prompt goes in over two calls, so two branches of it share one store: the first branch grows that store
    # in place, the second then copies the prompt's positions, and the first grows in place again; each call's
    # rows against the reference on the branch's whole sequence
    model = model_with(layout, "all", max_seq_len=64)
    ids = np.random.default_rng(1).integers(0, 256, 40)
    prompt, first, second, more = ids[:20], ids[20:25], ids[25:33], ids[33:40]
    parent = model.new_cache()
    model.logits(prompt[:12], cache=parent)
    model.logits(prompt[12:], cache=parent)
    a, b = list(parent), list(parent)
    calls = [(np.concatenate([prompt, first]), model.logits(first, cache=a)),
             (np.concatenate([prompt, second]), model.logits(second, cache=b)),
             (np.concatenate([prompt, first, more]), model.logits(more, cache=a))]
    assert np.shares_memory(a[0][0], parent[0][0]) and not np.shares_memory(b[0][0], parent[0][0])
    for sequence, rows in calls:
        ref = reference_logits(model, sequence)[-len(rows):]
        assert np.abs(rows - ref).max() <= float32_bound(model, len(sequence))


def jnli_task(premise, hypothesis, gold, version):
    return ChoiceTask(instruction="前提と仮説の関係を含意、矛盾、中立の中から回答してください。",
                      fields={"前提": premise, "仮説": hypothesis}, choices=("含意", "矛盾", "中立"), gold=gold,
                      version=version, answer_label="関係")


JNLI = [("二人の女性が芝生でフリスビーを取ろうとしている。", "女性たちはフリスビーを取ろうとしている。", 0),
        ("男性が自転車で通りを走っている。", "男性はベッドで寝ている。", 1),
        ("子供が赤い風船を持っている。", "子供は祭りで風船をもらった。", 2),
        ("猫が窓辺で眠っている。", "動物が休んでいる。", 0)]
PPL = [PerplexityItem("Why is the sky blue?", "Sunlight scatters off the air."),
       PerplexityItem("日本の首都はどこですか?", "東京です。"),
       PerplexityItem("富士山の高さは?", "三千七百七十六メートルです。"),
       PerplexityItem("x" * 480, "An item too long for the window."),
       PerplexityItem("What is two plus two?", "Four.")]


@pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
def test_shared_prefix_scores_match_the_reference(layout):
    model = adapted_model(layout)
    template = QuestionTemplate()
    ppl = [([BOS] + TOK.encode(template.render(i.question)), [TOK.encode(i.response)]) for i in PPL]
    tasks = [jnli_task(*row, version="v0.2") for row in JNLI]
    k1 = [_encode_task(t, FewShotSpec(1, tasks[:1])) for t in tasks[1:]]   # share the instruction and the demo
    v03 = [_encode_task(jnli_task(*row, version="v0.3"), FewShotSpec(0)) for row in JNLI[1:]]
    english = [_encode_task(nli_task("A dog runs.", "An animal moves.", 0, version), FewShotSpec(0))
               for version in ("v0.2", "v0.3")]   # share BOS alone
    expected = {}
    for name, items in (("ppl", ppl), ("k1", k1), ("v03", v03), ("english", english)):
        expected[name] = [[reference_score(model, ctx, cont) for cont in conts] for ctx, conts in items]
        np.testing.assert_allclose(np.concatenate(_score_items(model, items)), np.concatenate(expected[name]),
                                   rtol=0, atol=1e-5)
    # the public entry points score the same items through the same routine
    report = corpus_perplexity(model, PPL, template)
    assert report.model_overflows == 1
    logps = [-math.log(p) * len(cont[0]) for p, (_, cont) in zip(report.item_perplexities, ppl)]
    np.testing.assert_allclose(logps, np.concatenate(expected["ppl"]), rtol=0, atol=1e-5)
    scores = expected["k1"]
    assert all(sorted(s)[-1] - sorted(s)[-2] > 1e-4 for s in scores)   # no near-tie that may round either way
    accuracy = np.mean([int(np.argmax(s)) == t.gold for s, t in zip(scores, tasks[1:])])
    assert run_choice_eval(model, tasks, shots=[1]).accuracy == {1: accuracy}


@pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
def test_batched_rows_match_the_reference(layout, monkeypatch):
    # PPL's rows on the 67-token header run as padded batches of mixed lengths, Japanese included; the choice
    # item's three rows run as one batch on its prompt's branch; the overflowing item runs alone
    model = adapted_model(layout)
    template = QuestionTemplate()
    items = [([BOS] + TOK.encode(template.render(i.question)), [TOK.encode(i.response)]) for i in PPL]
    choices = ("Blue.", "空が青いから。", "Because of Rayleigh scattering.")
    items.append((items[0][0], [TOK.encode(c) for c in choices]))
    shapes, real = [], model.logits
    monkeypatch.setattr(model, "logits", lambda ids, cache=None, last=None:
                        shapes.append(np.shape(ids)) or real(ids, cache, last))
    got = _score_items(model, items)
    # the header; the choice prompt's tail, then its rows; the overflowing item's window; the fitting PPL rows
    assert shapes == [(67,), (35,), (3, 31), (1, 511), (3, 65), (1, 79)]
    expected = [[reference_score(model, ctx, cont) for cont in conts] for ctx, conts in items]
    np.testing.assert_allclose(np.concatenate(got), np.concatenate(expected), rtol=0, atol=1e-5)
    assert _score_items(model, items) == got
