import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import traced
from fixture_tasks import adapted_model, demos, query
from instruct_forge import autodiff as ad
from instruct_forge.evaluation import (
    ChoiceTask,
    EvalReport,
    FewShotSpec,
    PerplexityItem,
    QuestionTemplate,
    _continuation_logp,
    _encode_task,
    _score_items,
    assemble_fewshot_prompt,
    classify_by_likelihood,
    corpus_perplexity,
    run_choice_eval,
    score_continuation,
)
from instruct_forge.model import DecoderModel, ModelConfig
from instruct_forge.tokenizer import BOS, PAD, VOCAB_SIZE, ByteTokenizer

FIXTURES = Path(__file__).parent / "fixtures"
TOK = ByteTokenizer()


class RowModel:
    """Context-free stub: every position emits the same logit row."""

    max_seq_len = 4096

    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)

    def new_cache(self):
        return []

    def logits(self, ids, cache=None, last=None):
        """[n, V] rows for [T] ids, [B, n, V] for a [B, T] batch."""
        *batch, T = np.shape(ids)
        return np.tile(self.row, (*batch, min(last or T, T), 1))


def uniform_model():
    return RowModel(np.zeros(VOCAB_SIZE))


def favored_byte_model(ch, bonus=5.0):
    row = np.zeros(VOCAB_SIZE)
    row[ord(ch)] = bonus
    return RowModel(row)


def two_byte_model(pa=0.75, pb=0.25):
    """Probability mass only on bytes 'a' and 'b'."""
    row = np.full(VOCAB_SIZE, -1e9)
    row[ord("a")] = math.log(pa)
    row[ord("b")] = math.log(pb)
    return RowModel(row)


class TestTaskValidation:
    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            ChoiceTask("i", {"F": "v"}, ("a", "b"), gold=2)

    def test_needs_two_choices(self):
        with pytest.raises(ValueError):
            ChoiceTask("i", {"F": "v"}, ("a",), gold=0)

    def test_bad_version(self):
        with pytest.raises(ValueError):
            ChoiceTask("i", {"F": "v"}, ("a", "b"), gold=0, version="v1.0")

    @pytest.mark.parametrize("bad", [
        dict(fields=["a"]), dict(fields={"F": 5}), dict(choices=5), dict(choices="ab"), dict(choices=["a", 2]),
        dict(gold="0"), dict(gold=True), dict(gold=0.0), dict(instruction=None), dict(constraints=3),
        dict(answer_label=["x"]),
    ])
    def test_wrong_field_types(self, bad):
        with pytest.raises(ValueError):
            ChoiceTask(**{"instruction": "i", "fields": {"F": "v"}, "choices": ("a", "b"), "gold": 0, **bad})

    @pytest.mark.parametrize("question, response", [(None, "r"), ("q", 5), ("q", ["r"])])
    def test_item_field_types(self, question, response):
        with pytest.raises(ValueError, match="strings"):
            PerplexityItem(question, response)

    def test_spec_k_bounded_by_demos(self):
        with pytest.raises(ValueError):
            FewShotSpec(k=2, demonstrations=(query(),))

    def test_spec_negative_k(self):
        with pytest.raises(ValueError):
            FewShotSpec(k=-1)

    def test_empty_response_item(self):
        with pytest.raises(ValueError):
            PerplexityItem("q", "")


class TestGoldenPrompts:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_v02_matches_golden(self, k):
        golden = (FIXTURES / f"fewshot_v0.2_k{k}.txt").read_text(encoding="utf-8")
        spec = FewShotSpec(k=k, demonstrations=demos("v0.2"))
        assert assemble_fewshot_prompt(query("v0.2"), spec) == golden

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_v03_matches_golden(self, k):
        golden = (FIXTURES / f"fewshot_v0.3_k{k}.txt").read_text(encoding="utf-8")
        spec = FewShotSpec(k=k, demonstrations=demos("v0.3"))
        assert assemble_fewshot_prompt(query("v0.3"), spec) == golden

    def test_v02_query_ends_with_open_label(self):
        spec = FewShotSpec(k=0)
        out = assemble_fewshot_prompt(query("v0.2"), spec)
        assert out.endswith("Relationship: ")

    def test_v03_query_ends_with_response_header(self):
        spec = FewShotSpec(k=0)
        out = assemble_fewshot_prompt(query("v0.3"), spec)
        assert out.endswith("### Response:\n")

    @pytest.mark.parametrize("version", ["v0.2", "v0.3"])
    def test_more_shots_extends_prompt(self, version):
        label = "Relationship: " if version == "v0.2" else "### Response:\n"
        for k in range(3):
            a = assemble_fewshot_prompt(query(version),
                                        FewShotSpec(k, demos(version)))
            b = assemble_fewshot_prompt(query(version),
                                        FewShotSpec(k + 1, demos(version)))
            assert a.count(label) == k + 1
            assert b.count(label) == k + 2
            # both prompts pose the same open query at the end
            tail = label if version == "v0.2" else label
            assert a.endswith(tail) and b.endswith(tail)

    def test_version_override(self):
        spec = FewShotSpec(k=1, demonstrations=demos("v0.2"))
        forced = assemble_fewshot_prompt(dataclasses.replace(query("v0.2"), version="v0.3"), spec)
        assert forced.startswith("Below is a combination")

    @pytest.mark.parametrize("version", ["v0.2", "v0.3"])
    def test_demos_take_the_query_layout(self, version):
        # the score workload puts v0.2 demos before a v0.3 query: a demo's own version never picks its layout
        other = {"v0.2": "v0.3", "v0.3": "v0.2"}[version]
        mixed = assemble_fewshot_prompt(query(version), FewShotSpec(3, demos(other)))
        assert mixed == assemble_fewshot_prompt(query(version), FewShotSpec(3, demos(version)))


class TestScoreContinuation:
    def test_uniform_score_is_length_times_log_vocab(self):
        score = score_continuation(uniform_model(), "any prompt", "ab")
        assert abs(score - 2 * -math.log(VOCAB_SIZE)) < 1e-9

    def test_empty_continuation_rejected(self):
        with pytest.raises(ValueError):
            score_continuation(uniform_model(), "p", "")

    def test_left_truncation_keeps_continuation(self):
        model = uniform_model()
        model.max_seq_len = 8
        score = score_continuation(model, "x" * 100, "ab")
        assert abs(score - 2 * -math.log(VOCAB_SIZE)) < 1e-9

    def test_continuation_too_long_for_context(self):
        model = uniform_model()
        model.max_seq_len = 4
        with pytest.raises(ValueError, match="context"):
            score_continuation(model, "p", "abcdef")
        # an overflowing task whose longest choice cannot fit fails the same way
        task = ChoiceTask("pick", {"Input": "x"}, ("a", "abcdef"), gold=0, version="v0.2")
        with pytest.raises(ValueError, match="continuation of 6 tokens cannot fit the 4-token context"):
            classify_by_likelihood(model, task, FewShotSpec(k=0))

    def test_additive_over_tokens(self):
        model = two_byte_model()
        s = score_continuation(model, "q", "aab")
        expected = 2 * math.log(0.75) + math.log(0.25)
        assert abs(s - expected) < 1e-9


class TestClassify:
    def task(self, choices, gold=0):
        return ChoiceTask("pick", {"Input": "x"}, choices, gold=gold, version="v0.2")

    def test_picks_favored_choice(self):
        model = favored_byte_model("y")
        t = self.task(("xx", "yy", "zz"))
        assert classify_by_likelihood(model, t, FewShotSpec(k=0)) == 1

    def test_tie_goes_to_lowest_index(self):
        t = self.task(("aa", "bb", "cc"))
        assert classify_by_likelihood(uniform_model(), t, FewShotSpec(k=0)) == 0


class TestSharedPromptScoring:
    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    @pytest.mark.parametrize("version", ["v0.2", "v0.3"])
    def test_matches_score_continuation(self, layout, version):
        model = adapted_model(layout)
        task = ChoiceTask("pick one", {"Input": "which?"}, ("entailment", "b", "neutral"), gold=0, version=version)
        for k, demo in ((0, ()), (1, demos(version)[:1]), (3, demos(version)), (3, demos(version)[:1] * 3)):
            spec = FewShotSpec(k=k, demonstrations=demo)
            got = _score_items(model, [_encode_task(task, spec)])[0]
            expected = [score_continuation(model, assemble_fewshot_prompt(task, spec), c) for c in task.choices]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-5)
            assert classify_by_likelihood(model, task, spec) == int(np.argmax(expected))

    def test_prompt_runs_once_when_it_fits(self, monkeypatch):
        model = adapted_model("split-qv")
        task = ChoiceTask("pick one", {"Input": "which?"}, ("yes", "n", "maybe"), gold=0)
        prompt_len = 1 + len(assemble_fewshot_prompt(task, FewShotSpec(k=0)).encode())
        fed = []
        real = model.logits
        monkeypatch.setattr(model, "logits", lambda ids, cache=None, last=None:
                            fed.append((np.shape(ids), last)) or real(ids, cache, last))
        _score_items(model, [_encode_task(task, FewShotSpec(k=0))])
        # the prompt short of its last id, then each choice after that id alone, shortest first, since
        # 2 × (255 + 3) > 512
        assert prompt_len == 256 and fed == [((prompt_len - 1,), 1), ((1, 1), 1), ((1, 3), 3), ((1, 5), 5)]
        fed.clear()
        short = dataclasses.replace(task, version="v0.2")   # a 35-token prompt: all three rows in one padded batch
        _score_items(model, [_encode_task(short, FewShotSpec(k=0))])
        assert fed == [((34,), 1), ((3, 5), 5)]
        fed.clear()
        model.config.max_seq_len = prompt_len + 4   # "maybe" no longer fits: per-choice scoring
        _score_items(model, [_encode_task(task, FewShotSpec(k=0))])
        # each choice's rows only, shortest first; two windows never fit one window's budget
        assert fed == [((1, prompt_len), 1), ((1, prompt_len + 2), 3), ((1, prompt_len + 3), 5)]


def small_model(max_seq_len=256, layout="split-qv"):
    return DecoderModel(ModelConfig(d_model=16, n_heads=2, n_layers=1, max_seq_len=max_seq_len,
                                    attention_layout=layout, seed=3))


def record_logits(model, monkeypatch) -> list:
    """Every ``model.logits`` call from now on, as (ids as nested lists, whether a cache was passed, last)."""
    fed, real = [], model.logits
    monkeypatch.setattr(model, "logits", lambda ids, cache=None, last=None:
                        fed.append((np.asarray(ids).tolist(), cache is not None, last)) or real(ids, cache, last))
    return fed


def padded(*rows) -> list:
    """``rows`` as one right-padded batch: each row filled with PAD to the longest."""
    width = max(map(len, rows))
    return [list(row) + [PAD] * (width - len(row)) for row in rows]


def window_scores(model, ctx, conts):
    """An overflowing item's route: each continuation alone on the last ``max_seq_len`` ids of the context and it."""
    return [_continuation_logp(model.logits((ctx + c)[-model.max_seq_len:][:-1], last=len(c)), c) for c in conts]


def whole_context_choice_scores(model, ctx, conts):
    """A lone fitting choice item's route when its choices fit one batch: the context short of its last id into a
    cache, then that id and each choice as a row of one right-padded batch on a branch of it, shortest first."""
    cache = model.new_cache()
    model.logits(ctx[:-1], cache=cache, last=1)
    order = sorted(range(len(conts)), key=lambda j: len(conts[j]))
    logits = model.logits(padded(*(ctx[-1:] + conts[j][:-1] for j in order)), cache=list(cache))
    scores = [None] * len(conts)
    for row, j in zip(logits, order):
        scores[j] = _continuation_logp(row[:len(conts[j])], conts[j])
    return scores


_HEAD, TAIL = QuestionTemplate().body.split("{question}")
HEADER = [BOS] + TOK.encode(_HEAD)   # the ids that every default-template item's context starts with
PPL_ITEMS = [PerplexityItem("Why is the sky blue?", "Light scatters."), PerplexityItem("How far?", "Two miles."),
             PerplexityItem("What is 2 + 2?", "4"), PerplexityItem("空はなぜ青い?", "光が散乱するから。")]


def item_logps(report, items) -> list:
    """Each item's summed response log-likelihood, from its perplexity in ``report``."""
    return [-math.log(p) * len(TOK.encode(i.response)) for p, i in zip(report.item_perplexities, items)]


class TestSharedPrefix:
    def test_ppl_feeds_the_common_prefix_once(self, monkeypatch):
        # the 67-token header used to run once per item
        model = small_model()
        fed = record_logits(model, monkeypatch)
        corpus_perplexity(model, PPL_ITEMS)
        rows = [TOK.encode(i.question + TAIL) + TOK.encode(i.response)[:-1] for i in PPL_ITEMS]
        assert len(HEADER) == 67 and [len(r) for r in rows] == [50, 33, 30, 61]
        # shortest first, a group growing while B × (67 + L) <= 256: 30 and 33, then 50 and 61; each group's
        # last= reaches back to its earliest scored row, the 10 of "Two miles." and the 27 of "光が散乱するから。"
        assert fed == [(HEADER, True, 1), (padded(rows[2], rows[1]), True, 10), (padded(rows[0], rows[3]), True, 27)]

    def test_eval_feeds_each_shot_counts_prefix_once(self, monkeypatch):
        model = small_model(max_seq_len=512)
        tasks = [ChoiceTask("pick", {"Input": f"item {i}"}, ("xx", "y"), gold=0, version="v0.2") for i in range(5)]
        fed = record_logits(model, monkeypatch)
        run_choice_eval(model, tasks, shots=[0, 1])
        prefixes = [ids for ids, cached, last in fed if cached and last == 1 and ids[0] == BOS]
        # k=0 and k=1 each: one prefix run, then per query its own tail and one batch of both choices
        assert len(prefixes) == 2 and len(fed) == 2 + 4 * 2 + 4 * 2
        for k, prefix in zip((0, 1), prefixes):
            spec = FewShotSpec(k, tuple(tasks[:k]))
            contexts = [_encode_task(t, spec)[0] for t in tasks[1:]]
            assert prefix == contexts[0][:len(prefix)] and all(c[:len(prefix)] == prefix for c in contexts)
            assert len({c[len(prefix)] for c in contexts}) > 1   # the longest common prefix, no shorter

    def test_lone_and_overflowing_items_score_as_before(self):
        model = small_model()
        lone = PerplexityItem("Why?", "Because.")
        over = PerplexityItem("x" * 200, "Too long.")
        # a lone item is one forward over its context and response, an overflowing one over their last window
        expected = [math.exp(-window_scores(model, HEADER + TOK.encode(i.question + TAIL), [TOK.encode(i.response)])[0]
                             / len(i.response)) for i in (lone, over)]
        assert len(HEADER + TOK.encode(over.question + TAIL + over.response)) > model.max_seq_len
        assert corpus_perplexity(model, [lone]).item_perplexities == expected[:1]
        report = corpus_perplexity(model, [PPL_ITEMS[1], over, PPL_ITEMS[2]])
        assert report.item_perplexities[1] == expected[1] and report.model_overflows == 1
        report = corpus_perplexity(model, [lone, over])   # the only item that fits has no one to share with
        assert report.item_perplexities == expected and report.model_overflows == 1
        task = ChoiceTask("pick one", {"Input": "which?"}, ("entailment", "b", "neutral"), gold=0, version="v0.2")
        ctx, conts = _encode_task(task, FewShotSpec(k=0))
        assert _score_items(model, [(ctx, conts)]) == [whole_context_choice_scores(model, ctx, conts)]
        too_long = _encode_task(dataclasses.replace(task, fields={"Input": "z" * 300}), FewShotSpec(k=0))
        assert _score_items(model, [too_long, (ctx, conts)]) == [
            window_scores(model, *too_long), whole_context_choice_scores(model, ctx, conts)]

    def test_identical_contexts_leave_each_item_a_token(self, monkeypatch):
        model = small_model()
        items = [PerplexityItem("Same?", r) for r in ("Yes.", "No.", "Maybe so.")]
        fed = record_logits(model, monkeypatch)
        report = corpus_perplexity(model, items)
        ctx = HEADER + TOK.encode("Same?" + TAIL)
        rows = [ctx[-1:] + TOK.encode(i.response)[:-1] for i in items]   # 4, 3 and 9 ids after 87 cached
        assert fed == [(ctx[:-1], True, 1), (padded(rows[1], rows[0]), True, 4), (padded(rows[2]), True, 9)]
        expected = [score_continuation(model, QuestionTemplate().render(i.question), i.response) for i in items]
        np.testing.assert_allclose(item_logps(report, items), expected, rtol=0, atol=1e-5)

    def test_contexts_of_bos_alone_share_nothing(self, monkeypatch):
        model = small_model()
        fed = record_logits(model, monkeypatch)
        items = [PerplexityItem("", "ab"), PerplexityItem("", "cd")]
        report = corpus_perplexity(model, items, QuestionTemplate(body="{question}"))
        assert fed == [([[BOS, ord("a")], [BOS, ord("c")]], False, 2)]   # one batch, no cache
        assert report.item_perplexities == [math.exp(-score_continuation(model, "", i.response) / 2) for i in items]

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_items_that_share_only_bos(self, layout, monkeypatch):
        model = adapted_model(layout)
        template = QuestionTemplate(body="{question}")
        items = [PerplexityItem("alpha", "one"), PerplexityItem("beta", "two"), PerplexityItem("日本", "三")]
        fed = record_logits(model, monkeypatch)
        report = corpus_perplexity(model, items, template)
        rows = [TOK.encode(i.question) + TOK.encode(i.response)[:-1] for i in items]   # 7, 6 and 8 ids
        # one batch on BOS; last=5 reaches back to beta's first scored row
        assert fed == [([BOS], True, 1), (padded(rows[1], rows[0], rows[2]), True, 5)]
        expected = [score_continuation(model, i.question, i.response) for i in items]
        np.testing.assert_allclose(item_logps(report, items), expected, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_two_runs_give_the_same_bits(self, layout):
        model = adapted_model(layout)
        tasks = [query(v) for v in ("v0.2", "v0.3")] * 2
        encoded = [_encode_task(t, FewShotSpec(1, demos(t.version)[:1])) for t in tasks] \
            + [([BOS] + TOK.encode(QuestionTemplate().render(i.question)), [TOK.encode(i.response)]) for i in PPL_ITEMS]
        first = _score_items(model, encoded)
        assert _score_items(model, encoded) == first
        assert corpus_perplexity(model, PPL_ITEMS).to_dict() == corpus_perplexity(model, PPL_ITEMS).to_dict()


class TestBatchedRows:
    def test_a_ppl_call_holds_no_more_than_one_window(self):
        # B rows on the P-token prefix hold B × (P + L) <= 512 positions: no more keys and values than the
        # window-sized store one branch takes. With B × L <= 512 instead, this call peaked at 4.6 MB against 3.7.
        model = adapted_model("fused-qkv")
        text = "the quick brown fox jumps over a lazy dog by the river " * 2
        items = [PerplexityItem(text[:q] + "?", text[:a] + ".") for q, a in zip(range(20, 84, 2), range(60, 28, -1))]
        corpus_perplexity(model, items)
        _, _, window = traced(lambda: model.logits([BOS] * model.max_seq_len))
        _, _, peak = traced(lambda: corpus_perplexity(model, items))
        cfg = model.config
        assert len(items) == 32 and peak <= window + 2 * cfg.n_layers * cfg.max_seq_len * cfg.d_model * 4


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        item = PerplexityItem("why?", "because")
        ppl = corpus_perplexity(uniform_model(), [item]).perplexity_pooled
        assert abs(ppl - VOCAB_SIZE) < 1e-4

    def test_half_probability_gives_two(self):
        # every response byte has p = 0.5; EOS is excluded or this blows up
        model = two_byte_model(pa=0.5, pb=0.5)
        ppl = corpus_perplexity(model, [PerplexityItem("q", "ab")]).perplexity_pooled
        assert abs(ppl - 2.0) < 1e-9

    def test_hand_computed_mixed_probs(self):
        model = two_byte_model(pa=0.75, pb=0.25)
        ppl = corpus_perplexity(model, [PerplexityItem("q", "aab")]).perplexity_pooled
        expected = math.exp(-(2 * math.log(0.75) + math.log(0.25)) / 3)
        assert abs(ppl - expected) < 1e-9

    def test_custom_question_template(self):
        tpl = QuestionTemplate(body="Q: {question}\nA: ")
        ppl = corpus_perplexity(uniform_model(), [PerplexityItem("hi", "yo")], tpl).perplexity_pooled
        assert abs(ppl - VOCAB_SIZE) < 1e-4

    def test_corpus_pooled_and_mean(self):
        model = two_byte_model(pa=0.75, pb=0.25)
        items = [PerplexityItem("q", "aa"), PerplexityItem("q", "b")]
        report = corpus_perplexity(model, items)
        expected_pooled = math.exp((2 * -math.log(0.75) + -math.log(0.25)) / 3)
        assert abs(report.perplexity_pooled - expected_pooled) < 1e-9
        assert abs(report.perplexity_mean - (4 / 3 + 4) / 2) < 1e-9
        assert len(report.item_perplexities) == 2

    def test_corpus_requires_items(self):
        with pytest.raises(ValueError):
            corpus_perplexity(uniform_model(), [])

    def test_overflowing_item_is_named(self):
        # every response byte costs about 1e3 nats, past exp's float range (~709); this used to raise OverflowError
        model = favored_byte_model("z", bonus=1e3)
        items = [PerplexityItem("q", "zz"), PerplexityItem("q", "ab")]
        with pytest.raises(ValueError, match="item 2: perplexity overflows"):
            corpus_perplexity(model, items)

    def test_counts_the_items_the_window_truncates(self):
        # BOS + 13 question bytes + 2 response bytes fill a 16-token window; one byte more overflows
        model = DecoderModel(ModelConfig(d_model=16, n_heads=2, n_layers=1, max_seq_len=16, seed=3))
        items = [PerplexityItem("x" * 13, "ab"), PerplexityItem("x" * 14, "ab"), PerplexityItem("x" * 300, "ab")]
        report = corpus_perplexity(model, items, QuestionTemplate(body="{question}"))
        assert report.model_overflows == 2 and report.to_dict()["model_overflows"] == 2
        assert len(report.item_perplexities) == 3

    def test_matches_training_loss_on_real_model(self):
        # exp(masked cross entropy over response positions) within float error
        model = DecoderModel(ModelConfig(d_model=32, n_heads=2, n_layers=2,
                                         max_seq_len=128, seed=9))
        item = PerplexityItem("what color?", "blue")
        ppl = corpus_perplexity(model, [item]).perplexity_pooled
        prompt = QuestionTemplate().render(item.question)
        ids = [BOS] + TOK.encode(prompt) + TOK.encode(item.response)
        inputs = np.asarray([ids[:-1]])
        targets = np.asarray([ids[1:]])
        mask = np.zeros(targets.shape, dtype=bool)
        mask[:, -len(item.response.encode()):] = True
        loss = ad.softmax_cross_entropy(model.forward(inputs), targets, mask)
        assert abs(ppl - math.exp(loss.item())) / ppl < 1e-4


class TestRunChoiceEval:
    def tasks(self, n, gold=0):
        # the first max(shots) entries double as demonstrations
        return [ChoiceTask("pick", {"Input": f"item {i}"}, ("xx", "yy", "zz"),
                           gold=gold, version="v0.2", answer_label="Relationship")
                for i in range(n)]

    def test_perfect_when_model_favors_gold(self):
        report = run_choice_eval(favored_byte_model("x"), self.tasks(7, gold=0),
                                 shots=[0, 1, 3])
        assert report.accuracy == {0: 1.0, 1: 1.0, 3: 1.0}

    def test_zero_when_model_favors_distractor(self):
        report = run_choice_eval(favored_byte_model("x"), self.tasks(4, gold=1),
                                 shots=[0])
        assert report.accuracy == {0: 0.0}

    def test_needs_enough_tasks_for_demos(self):
        with pytest.raises(ValueError):
            run_choice_eval(uniform_model(), self.tasks(3), shots=[3])

    def test_tuning_overflow_counted_per_query_and_shot(self):
        # 7 tasks, max shot 1 -> 6 queries, each counted once per shot level
        report = run_choice_eval(favored_byte_model("x"), self.tasks(7),
                                 shots=[0, 1], tuning_seq_len=10)
        assert report.tuning_overflows == 12
        assert report.model_overflows == 0

    def test_model_overflow_counted(self):
        model = favored_byte_model("x")
        model.max_seq_len = 16
        report = run_choice_eval(model, self.tasks(2), shots=[0])
        assert report.model_overflows == 2

    @pytest.mark.parametrize("counter", ["tuning_overflows", "model_overflows"])
    def test_an_item_that_exactly_fills_the_limit_is_no_overflow(self, counter):
        # each query's prompt and longest choice take exactly `needed` ids: at that limit neither query counts,
        # at one id less both do
        tasks = self.tasks(2)
        ctx, conts = _encode_task(tasks[0], FewShotSpec(0))
        needed = len(ctx) + max(map(len, conts))
        counts = []
        for limit in (needed, needed - 1):
            model = favored_byte_model("x")
            if counter == "model_overflows":
                model.max_seq_len = limit
            report = run_choice_eval(model, tasks, [0], tuning_seq_len=limit if counter == "tuning_overflows" else None)
            counts.append(getattr(report, counter))
        assert counts == [0, 2]

    def test_a_tie_goes_to_the_lowest_index(self):
        # two choices of one length score exactly alike on the uniform model, so the first is the answer
        tasks = [ChoiceTask("pick", {"Input": f"item {i}"}, ("aa", "bb"), gold=0, version="v0.2") for i in range(2)]
        scores = _score_items(uniform_model(), [_encode_task(t, FewShotSpec(0)) for t in tasks])
        assert all(a == b for a, b in scores)
        assert run_choice_eval(uniform_model(), tasks, shots=[0]).accuracy == {0: 1.0}

    @pytest.mark.parametrize("max_seq_len", [4096, 16])   # every prompt fits; every prompt overflows
    def test_encodes_each_prompt_and_choice_once(self, max_seq_len, monkeypatch):
        texts, encode = [], ByteTokenizer.encode

        def counting_encode(self, text):
            texts.append(text)
            return encode(self, text)

        monkeypatch.setattr(ByteTokenizer, "encode", counting_encode)
        model = favored_byte_model("x")
        model.max_seq_len = max_seq_len
        # 7 tasks, max shot 1 -> 6 queries at 2 shot levels, each 1 prompt and 3 choices
        report = run_choice_eval(model, self.tasks(7), shots=[0, 1])
        assert len(texts) == 2 * 6 * 4
        assert report.model_overflows == (12 if max_seq_len == 16 else 0)
        assert report.accuracy == {0: 1.0, 1: 1.0}

    def test_report_serializes(self):
        report = EvalReport(accuracy={0: 0.5}, perplexity_pooled=2.0,
                            perplexity_mean=2.5)
        d = report.to_dict()
        assert d["accuracy"] == {"0": 0.5}
        assert d["perplexity_pooled"] == 2.0
