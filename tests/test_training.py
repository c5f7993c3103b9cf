import inspect
import logging
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixture_pretrain import pretrain
from fixture_tasks import live_adapters
from gradcheck import TRAIN_STEP_OPS, TRIALS, check_op
from instruct_forge import autodiff as ad
from instruct_forge import cli, training
from instruct_forge.archive import load_archive
from instruct_forge.lora import LoraConfig, adapter_parameters, inject, merge_all
from instruct_forge.model import DecoderModel, ModelConfig
from instruct_forge.prompts import PromptTemplate, render_prompt, template_for
from instruct_forge.records import InstructionRecord, save_records
from instruct_forge.tokenizer import BOS, EOS, PAD, ByteTokenizer
from instruct_forge.training import (
    MASK_POLICIES,
    AdamW,
    TrainConfig,
    build_batch,
    train,
    train_step,
)

TOK = ByteTokenizer()

# terse template keeps fixtures hand-checkable
TINY_TEMPLATE = PromptTemplate(kind="no-input", body="Q:{instruction}\nA:\n{response}")

WIDE_TARGETS = ["q_proj", "v_proj", "o_proj", "up_proj", "down_proj", "lm_head"]


def tiny_model(**kw):
    base = dict(d_model=32, n_heads=2, n_layers=2, max_seq_len=128, seed=0)
    base.update(kw)
    return DecoderModel(ModelConfig(**base))


def adapted_model(r=8, dropout=0.0, targets=("q_proj", "v_proj"), **kw):
    return inject(tiny_model(**kw), LoraConfig(r=r, alpha=2 * r, dropout=dropout,
                                               target_names=list(targets)))


def records(n, tag="w"):
    return [InstructionRecord(f"say {tag}{i}", f"{tag}{i}", category="other") for i in range(n)]


def padded(recs, config=None, template=TINY_TEMPLATE):
    """The batch ``train`` steps on for ``recs``: ``_pad`` over the rows ``_encode_example`` keeps."""
    rows = (training._encode_example(r, template, TOK, config or TrainConfig()) for r in recs)
    return training._pad([row for row in rows if row is not None])


def assert_same_batch(got, want):
    for name in ("tokens", "targets", "loss_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestBuildBatch:
    """``train`` never calls ``build_batch``: it is ``padded`` plus a dropped count and two raises."""

    def test_overlong_response_dropped(self):
        recs = [*records(2), InstructionRecord("a", "y" * 50, category="other"), InstructionRecord("a" * 9, "b")]
        config = TrainConfig(train_seq_len=16)
        batch = build_batch(recs, TINY_TEMPLATE, TOK, config)
        assert batch.dropped == 1
        assert_same_batch(batch, padded(recs, config))

    def test_all_dropped_raises(self):
        bad = InstructionRecord("a", "y" * 50, category="other")
        with pytest.raises(ValueError, match="dropped"):
            build_batch([bad], TINY_TEMPLATE, TOK, TrainConfig(train_seq_len=16))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_batch([], TINY_TEMPLATE, TOK, TrainConfig())

    # the hand cases below run on ``padded``, the batch ``train`` steps on
    def test_shapes_and_shift(self):
        batch = padded(records(2), TrainConfig(train_seq_len=16, batch_size=2))
        assert batch.tokens.shape == batch.targets.shape == batch.loss_mask.shape
        assert batch.tokens.shape[0] == 2
        assert batch.tokens.shape[1] <= 16
        for row_tok, row_tgt in zip(batch.tokens, batch.targets):
            n = int((row_tok != PAD).sum())
            np.testing.assert_array_equal(row_tgt[: n - 1], row_tok[1:n])

    def test_response_only_mask_hand_positions(self):
        # "Q:ab\nA:\n" is 8 bytes; full stream = BOS + 8 prompt + "cd" + EOS
        rec = InstructionRecord("ab", "cd", category="other")
        batch = padded([rec], TrainConfig(train_seq_len=32, mask_policy="response-only"))
        expected = [False] * 8 + [True] * 3
        np.testing.assert_array_equal(batch.loss_mask[0], expected)
        np.testing.assert_array_equal(batch.targets[0][-3:], [ord("c"), ord("d"), EOS])

    def test_full_sequence_mask(self):
        rec = InstructionRecord("ab", "cd", category="other")
        batch = padded([rec], TrainConfig(train_seq_len=32, mask_policy="full-sequence"))
        assert batch.loss_mask[0].all()

    def test_truncation_keeps_tail(self):
        rec = InstructionRecord("x" * 100, "yz", category="other")
        batch = padded([rec], TrainConfig(train_seq_len=16))
        assert batch.tokens.shape[1] == 16
        # the response (and EOS) must survive tail-keep truncation
        np.testing.assert_array_equal(batch.targets[0][-3:], [ord("y"), ord("z"), EOS])
        assert batch.loss_mask[0][-3:].all()

    def test_mask_false_on_padding(self):
        recs = [InstructionRecord("a", "b", category="other"),
                InstructionRecord("a" * 20, "bb", category="other")]
        batch = padded(recs, TrainConfig(train_seq_len=64))
        pad_positions = batch.targets == PAD
        assert not batch.loss_mask[pad_positions].any()


JAPANESE = [
    InstructionRecord("次の文章を要約してください。", input="今日は晴れです。明日は雨が降るでしょう。",
                      output="天気が変わります。", category="summarization"),
    InstructionRecord("日本の首都はどこですか？", output="東京です。", category="qa"),
]


class TestJapaneseRows:
    """Multi-byte UTF-8 records, on both templates: each row is the shifted
    BOS + the training render's bytes + EOS, with its tail kept."""

    @pytest.mark.parametrize("seq_len", [512, 40])
    @pytest.mark.parametrize("policy", ["response-only", "full-sequence"])
    def test_rows_are_the_shifted_render(self, policy, seq_len):
        assert [template_for(r).kind for r in JAPANESE] == ["with-input", "no-input"]
        batch = padded(JAPANESE, TrainConfig(train_seq_len=seq_len, mask_policy=policy), template=None)
        assert len(batch.tokens) == len(JAPANESE)   # none dropped
        for record, tokens, targets, mask in zip(JAPANESE, batch.tokens, batch.targets, batch.loss_mask):
            full = [BOS] + list(render_prompt(record, template_for(record), True).encode("utf-8")) + [EOS]
            n = min(len(full) - 1, seq_len)
            assert list(tokens[:n]) == full[:-1][-n:] and list(targets[:n]) == full[1:][-n:]
            assert (tokens[n:] == PAD).all() and not mask[n:].any()
            output = list(record.output.encode("utf-8")) + [EOS]
            if policy == "response-only":
                assert list(targets[mask]) == output   # the first supervised target is the output's first byte
            else:
                assert mask[:n].all() and list(targets[:n][-len(output):]) == output


TEXT = st.text(st.characters(exclude_categories=["Cs"]), min_size=1, max_size=40)
RECORD = st.builds(InstructionRecord, TEXT, TEXT, st.none() | TEXT)


@settings(max_examples=300, deadline=None)
@given(recs=st.lists(RECORD, min_size=1, max_size=4), seq_len=st.integers(1, 300),
       policy=st.sampled_from(MASK_POLICIES), template=st.sampled_from([None, TINY_TEMPLATE]))
# "Q:ab\nA:\n" is 8 bytes after BOS, so the mask starts at column 8
@example([InstructionRecord("ab", "cd")], 32, "response-only", TINY_TEMPLATE)
@example([InstructionRecord("x" * 100, "yz")], 16, "response-only", TINY_TEMPLATE)   # tail kept
@example([InstructionRecord("a", "ok"), InstructionRecord("a", "y" * 50)], 16, "response-only", TINY_TEMPLATE)
@example(JAPANESE, 512, "response-only", None)   # 3 bytes a kana or kanji, on both default templates
@example(JAPANESE, 512, "full-sequence", None)
@example(JAPANESE, 40, "response-only", None)    # both tail-kept
@example(JAPANESE, 40, "full-sequence", None)
@example([InstructionRecord("a", "ok")], 3, "response-only", TINY_TEMPLATE)   # "ok" + EOS is exactly 3: kept
def test_every_kept_row_has_a_supervised_target(recs, seq_len, policy, template):
    # each padded row is the shifted tail of a kept record, its response masked
    config = TrainConfig(train_seq_len=seq_len, mask_policy=policy)
    streams = [([BOS] + TOK.encode(render_prompt(r, template or template_for(r), True)) + [EOS],
                len(TOK.encode(r.output)) + 1) for r in recs]
    rows = [training._encode_example(r, template, TOK, config) for r in recs]
    # a record is kept iff its response and EOS fit train_seq_len
    assert [row is not None for row in rows] == [response <= seq_len for _, response in streams]
    kept = [stream for stream, row in zip(streams, rows) if row is not None]
    if not kept:
        return
    batch = training._pad([row for row in rows if row is not None])
    ns = [min(len(full) - 1, seq_len) for full, _ in kept]
    assert batch.tokens.shape == batch.targets.shape == batch.loss_mask.shape == (len(kept), max(ns))
    for (full, response), n, tokens, targets, mask in zip(kept, ns, batch.tokens, batch.targets, batch.loss_mask):
        assert list(tokens[:n]) == full[:-1][-n:] and list(targets[:n]) == full[1:][-n:]
        assert (tokens[n:] == PAD).all() and (targets[n:] == PAD).all()
        first = n - response if policy == "response-only" else 0
        assert list(mask) == [first <= j < n for j in range(len(mask))]


class TestTrainStep:
    def test_requires_adapters(self):
        model = tiny_model()
        batch = padded(records(2))
        with pytest.raises(ValueError, match="adapters"):
            train_step(model, batch, AdamW([], lr=1e-3))

    def test_merged_adapters_rejected(self):
        # a merged model is a plain base model: it has no adapters to train
        with pytest.raises(ValueError, match="adapters"):
            train(merge_all(adapted_model()), records(4), TrainConfig(batch_size=4), template=TINY_TEMPLATE)

    def test_base_frozen_adapters_move(self):
        model = adapted_model()
        before = {n: p.data.copy() for n, p in model.params.items()}
        batch = padded(records(4))
        opt = AdamW(adapter_parameters(model), lr=1e-3)
        train_step(model, batch, opt)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name])
        assert any(np.abs(a.B.data).max() > 0 for a in model.adapters.values())

    def test_zero_lr_keeps_loss_constant(self):
        model = adapted_model(dropout=0.0)
        batch = padded(records(4))
        opt = AdamW(adapter_parameters(model), lr=0.0)
        losses = [train_step(model, batch, opt) for _ in range(3)]
        assert losses[0] == losses[1] == losses[2]

    def test_overfits_single_batch(self):
        model = adapted_model(r=16, targets=WIDE_TARGETS, d_model=64, n_heads=4)
        batch = padded(records(4))
        opt = AdamW(adapter_parameters(model), lr=3e-3)
        losses = [train_step(model, batch, opt) for _ in range(200)]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])
        assert losses[-1] < 0.1

    def test_nan_loss_stops_before_the_update(self, monkeypatch):
        real = ad.softmax_cross_entropy

        def nan_loss(*args):
            loss = real(*args)
            loss.data = np.full_like(loss.data, np.nan)  # gradients stay finite
            return loss

        monkeypatch.setattr(ad, "softmax_cross_entropy", nan_loss)
        model = adapted_model()
        params = adapter_parameters(model)
        before = [p.data.copy() for p in params]
        batch = padded(records(4))
        with pytest.raises(ValueError, match="diverged"):
            train_step(model, batch, AdamW(params, lr=1e-3))
        for p, b in zip(params, before):
            assert np.array_equal(p.data, b)

    def test_one_non_finite_adapter_gradient_stops_before_the_update(self, monkeypatch):
        # the loss stays finite and one entry of the last adapter tensor's gradient is nan, which raises no
        # floating point error in the update: only the finite-gradient check keeps it from every A and B
        model = adapted_model()
        params = adapter_parameters(model)
        before = [p.data.copy() for p in params]
        backward = ad.Tensor.backward

        def poisoned(loss):
            backward(loss)
            grad = params[-1].grad.copy()
            grad.flat[0] = np.nan
            params[-1].grad = grad

        monkeypatch.setattr(ad.Tensor, "backward", poisoned)
        with pytest.raises(ValueError, match="adapter gradient is not finite"):
            train_step(model, padded(records(4)), AdamW(params, lr=1e-3))
        for p, b in zip(params, before):
            assert np.array_equal(p.data, b)

    def test_failed_train_leaves_forward_deterministic(self, monkeypatch):
        # the model used to keep a train-mode flag that a raising train left on,
        # so every later plain forward drew fresh adapter dropout masks
        real = ad.softmax_cross_entropy

        def nan_loss(*args):
            loss = real(*args)
            loss.data = np.full_like(loss.data, np.nan)
            return loss

        model = live_adapters(adapted_model(dropout=0.3), 8)
        monkeypatch.setattr(ad, "softmax_cross_entropy", nan_loss)
        with pytest.raises(ValueError, match="diverged"):
            train(model, records(8), TrainConfig(batch_size=4, train_seq_len=128), template=TINY_TEMPLATE)
        ids = np.arange(1, 17)
        first = model.forward([ids]).data[0]
        assert np.array_equal(first, model.forward([ids]).data[0])
        assert np.array_equal(first, model.logits(ids))

    def test_gradient_reaches_every_adapter(self):
        model = adapted_model()
        batch = padded(records(4))
        opt = AdamW(adapter_parameters(model), lr=1e-3)
        train_step(model, batch, opt)  # B leaves zero so A can receive gradient
        loss = ad.softmax_cross_entropy(model.forward(batch.tokens), batch.targets, batch.loss_mask)
        loss.backward()
        for adapter in model.adapters.values():
            assert np.abs(adapter.A.grad).max() > 0
            assert np.abs(adapter.B.grad).max() > 0


class TestAdamW:
    def test_first_two_updates_on_a_fixed_gradient(self):
        # with both moments bias-corrected, each early step on a fixed g moves lr * g / (|g| + EPS): at g = 1e-5
        # that is lr / 1.001, where EPS under the square root would move lr * 1e-5 / sqrt(1e-10 + 1e-8) = lr * 0.0995
        p = ad.Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
        opt = AdamW([p], lr=0.1)
        for step in (1, 2):
            p.grad = np.array([2.0, -0.5, 1e-5])
            opt.step()
            np.testing.assert_allclose(p.data, step * np.array([-0.1, 0.1, -0.1 / 1.001]), rtol=1e-7, atol=0)
            assert p.grad is None


@pytest.mark.parametrize("layout,targets", [("split-qv", ["q_proj", "v_proj"]),
                                            ("fused-qkv", ["query_key_value"])])
def test_frozen_base_weights_get_no_gradient(layout, targets):
    # backward skips frozen operands; adapter gradients must not notice
    ids = np.random.default_rng(4).integers(0, 256, size=(2, 16))
    adapter_grads = []
    for frozen in (True, False):
        model = live_adapters(inject(DecoderModel(ModelConfig(attention_layout=layout)),
                                     LoraConfig(target_names=targets, dropout=0.0)), 5)
        for p in model.params.values():
            p.requires_grad = not frozen
        ad.softmax_cross_entropy(model.forward(ids), np.roll(ids, -1, axis=1)).backward()
        adapter_grads.append([t.grad for t in adapter_parameters(model)])
        base_grads = [p.grad for p in model.params.values()]
        if frozen:
            assert all(g is None for g in base_grads)
        else:
            assert all(g is not None for g in base_grads)
    for frozen_g, full_g in zip(*adapter_grads):
        assert np.abs(frozen_g).max() > 0
        assert np.array_equal(frozen_g, full_g)


def graph_nodes(root):
    """Every graph node reachable from ``root``'s, root's first."""
    nodes, seen, stack = [], set(), [root._node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            nodes.append(n)
            stack.extend(n.parents)
    return nodes


def recorded_outputs(monkeypatch):
    """A list that collects every op output made after the call; it keeps their data alive."""
    outs, node = [], ad._node
    monkeypatch.setattr(ad, "_node", lambda *args: outs.append(node(*args)) or outs[-1])
    return outs


@pytest.mark.parametrize("layout,targets", [("split-qv", ["q_proj", "v_proj"]),
                                            ("fused-qkv", ["query_key_value"])])
def test_backward_never_writes_into_an_upstream_gradient(monkeypatch, layout, targets):
    # a node's first gradient is stored without a copy, so it may alias the
    # upstream gradient of another node; no closure may write into its g
    model = live_adapters(inject(tiny_model(attention_layout=layout), LoraConfig(target_names=targets, dropout=0.1)), 6)
    batch = padded(records(4))
    outs = recorded_outputs(monkeypatch)
    loss = ad.softmax_cross_entropy(model.forward(batch.tokens, rng=model.rng), batch.targets, batch.loss_mask)
    nodes = graph_nodes(loss)
    received = []

    def snapshotting(fn):
        def wrapped(g):
            received.append((g, g.copy()))
            fn(g)
        return wrapped

    # backward frees each closure and intermediate gradient as it goes, so both
    # are read before it returns: the closures counted here, the gradients as received
    closures = 0
    for node in nodes:
        if node.backward_fn is not None:
            node.backward_fn = snapshotting(node.backward_fn)
            closures += 1
    loss.backward()
    assert len(received) == closures
    for g, snapshot in received:
        assert np.array_equal(g, snapshot)

    leaves = adapter_parameters(model)
    # nodes hold no data: the arrays are those of every op output and every weight
    tensors = outs + list(model.params.values()) + leaves
    arrays = [t.data for t in tensors] + [g for g, _ in received] + [n.grad for n in nodes if n.grad is not None]
    for leaf in leaves:
        others = [a for a in arrays if a is not leaf.grad]
        assert not any(np.may_share_memory(leaf.grad, a) for a in others), leaf.name


# the ops of check_op's reducer, sum(out * w), which every row calls besides its own op
REDUCER_OPS = {"mul", "tsum"}


def autodiff_ops_of(monkeypatch, body):
    """The names of the public ``autodiff`` functions that returned a ``Tensor`` while ``body()`` ran."""
    called = set()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, ad.Tensor):
                called.add(name)
            return out
        return wrapped

    with monkeypatch.context() as patch:
        for name, fn in vars(ad).items():
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_"):
                patch.setattr(ad, name, spy(name, fn))
        body()
    return called


def test_acceptance_1_has_a_trial_of_each_op_of_a_train_step(monkeypatch):
    # adapted and plain projections on both layouts, with dropout masks and a supervised tail to cut
    live = set()
    for layout, targets in (("split-qv", ["q_proj", "v_proj", "up_proj", "lm_head"]),
                            ("fused-qkv", ["query_key_value", "dense", "down_proj"])):
        model = adapted_model(dropout=0.1, targets=targets, attention_layout=layout)
        batch = padded(records(4))
        assert not batch.loss_mask[:, 0].any()   # so the step cuts its last layer to the supervised tail
        optimizer = AdamW(adapter_parameters(model), lr=1e-3)
        live |= autodiff_ops_of(monkeypatch, lambda: train_step(model, batch, optimizer))
    assert live == TRAIN_STEP_OPS, live ^ TRAIN_STEP_OPS
    assert TRAIN_STEP_OPS <= {op for op, _ in TRIALS}
    for op, case in TRIALS:
        ops = autodiff_ops_of(monkeypatch, lambda: check_op(op, case))
        assert op in ops and ops - REDUCER_OPS <= {op}, (op, case, ops)


class TestFreedGraph:
    """backward releases each node as it walks the graph, so a step never holds
    every activation and every intermediate gradient at once."""

    @staticmethod
    def loss_of_step(model):
        ids = np.random.default_rng(7).integers(0, 256, size=(4, 96))
        return ad.softmax_cross_entropy(model.forward(ids, rng=model.rng), np.roll(ids, -1, axis=1))

    def test_memory_held_after_backward_is_a_fraction_of_the_forward(self):
        model = adapted_model(dropout=0.05)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = self.loss_of_step(model)
            forward = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            after = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the adapter gradients and the loss are all that stay
        assert after < 0.25 * forward, (after, forward)

    def test_forward_holds_only_what_backward_reads(self):
        # backward reads about 13 [B, T, d] float32 arrays' worth a layer: both layer-norm inputs,
        # the LoRA input with its bool masks and u, rotated q and k, v, the attention output and
        # the 4d-wide gelu input; plus the loss's [B, T, V] log-probabilities. Keeping every op
        # output (the projections before rotary, the merge_heads copy, the gelu, o, down and
        # final-norm outputs) held about 30 a layer.
        model = adapted_model(dropout=0.05)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = self.loss_of_step(model)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        (B, T), cfg = (4, 96), model.config
        assert held < 16 * cfg.n_layers * B * T * cfg.d_model * 4 + B * T * cfg.vocab_size * 4, held
        loss.backward()

    def test_fused_qkv_projection_freed_while_the_graph_lives(self, monkeypatch):
        # v views the [B, T, 3d] query_key_value output; attention keeps a copy of v's third alone
        model = adapted_model(dropout=0.05, targets=["query_key_value"], attention_layout="fused-qkv")
        refs, real = [], model._linear

        def linear(name, x, rng):
            out = real(name, x, rng)
            if name.endswith("query_key_value"):
                refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(model, "_linear", linear)
        loss = self.loss_of_step(model)
        assert len(refs) == model.config.n_layers and all(ref() is None for ref in refs)
        loss.backward()

    def test_only_the_loss_and_the_leaves_keep_anything(self):
        model = adapted_model(dropout=0.05)
        loss = self.loss_of_step(model)
        nodes = graph_nodes(loss)
        inner = [n for n in nodes[1:] if n.parents]
        assert inner
        loss.backward()
        assert loss.grad is not None and loss._node.parents == () and loss._backward_fn is None
        for node in inner:
            assert node.grad is None and node.backward_fn is None and node.parents == ()
        for adapter in model.adapters.values():
            assert adapter.A.grad is not None and adapter.B.grad is not None
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()


# "Q:a\nA:\n" is 7 bytes, so the short row's response starts at column 7 of its
# 9 inputs; "Q:" + 20 a's + "\nA:\n" is 26 bytes, so the long row's starts at 26 of 29
MIXED = [InstructionRecord("a", "b", category="other"),
         InstructionRecord("a" * 20, "bb", category="other")]


class GradRecorder:
    """Optimizer stand-in that keeps the adapter gradients of the step."""

    def __init__(self, params):
        self.params = list(params)
        self.grads = None

    def step(self):
        self.grads = [p.grad.copy() for p in self.params]
        for p in self.params:
            p.grad = None


def spy_forward(model, monkeypatch):
    """Record the ``last`` of every ``model.forward`` call."""
    seen, real = [], model.forward

    def forward(tokens, cache=None, last=None, rng=None):
        seen.append(last)
        return real(tokens, cache, last, rng)

    monkeypatch.setattr(model, "forward", forward)
    return seen


class TestSupervisedTail:
    @pytest.mark.parametrize("layout,targets", [("split-qv", ["q_proj", "v_proj"]),
                                                ("fused-qkv", ["query_key_value"])])
    def test_loss_and_gradients_match_the_full_forward(self, layout, targets):
        model = live_adapters(adapted_model(attention_layout=layout, targets=targets), 7)
        params = adapter_parameters(model)
        batch = padded(MIXED, TrainConfig(train_seq_len=64))
        full = ad.softmax_cross_entropy(model.forward(batch.tokens), batch.targets, batch.loss_mask)
        full.backward()
        full_grads = [p.grad for p in params]
        for p in params:
            p.grad = None
        opt = GradRecorder(params)
        loss = train_step(model, batch, opt)
        assert abs(loss - full.item()) <= 1e-6 * abs(full.item())
        for g, ref in zip(opt.grads, full_grads):
            assert np.abs(ref).max() > 0
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-5 * np.abs(ref).max())

    def test_asks_for_the_rows_from_the_earliest_response(self, monkeypatch):
        model = adapted_model()
        batch = padded(MIXED, TrainConfig(train_seq_len=64))
        # the short row is right-padded and its response starts first
        assert batch.tokens.shape == (2, 29) and (batch.tokens[0, 9:] == PAD).all()
        assert batch.loss_mask[0, 7] and not batch.loss_mask[0, :7].any()
        assert batch.loss_mask[1, 26] and not batch.loss_mask[1, :26].any()
        seen = spy_forward(model, monkeypatch)
        train_step(model, batch, AdamW(adapter_parameters(model), lr=1e-3))
        assert seen == [29 - 7]

    def test_full_sequence_asks_for_every_row(self, monkeypatch):
        model = adapted_model()
        batch = padded(MIXED, TrainConfig(train_seq_len=64, mask_policy="full-sequence"))
        full = ad.softmax_cross_entropy(model.forward(batch.tokens), batch.targets, batch.loss_mask).item()
        seen = spy_forward(model, monkeypatch)
        loss = train_step(model, batch, AdamW(adapter_parameters(model), lr=1e-3))
        assert seen == [batch.tokens.shape[1]]
        assert loss == full


# at train_seq_len 160 under the default templates: the first and last are kept whole, the two responses
# past 160 tokens are dropped, and every other record is tail-truncated
FATES = [InstructionRecord("a", "b", category="other"),
         InstructionRecord("a" * 60, "bb", category="other"),
         InstructionRecord("a", "y" * 200, category="other"),
         *JAPANESE,
         InstructionRecord("日本語で答えてください。", output="はい" * 20, category="other"),
         InstructionRecord("日本語で答えてください。", output="はい" * 30, category="other"),
         InstructionRecord("b", "c", category="other")]


class TestTrainLoop:
    def test_steps_per_epoch(self):
        model = adapted_model()
        report, adapters = train(model, records(16), TrainConfig(epochs=1, batch_size=8, train_seq_len=128),
                                 template=TINY_TEMPLATE)
        assert len(report) == len(adapters) == 1
        assert report[0]["steps"] == 2

    def test_seed_reproducibility(self):
        curves = []
        for _ in range(2):
            model = adapted_model(dropout=0.05)
            report, _ = train(model, records(16), TrainConfig(epochs=3, batch_size=8, seed=11, train_seq_len=128),
                              template=TINY_TEMPLATE)
            curves.append([e["mean_loss"] for e in report])
        assert curves[0] == curves[1]

    def test_seed_reproducibility_checkpoints(self):
        adapters = []
        for _ in range(2):
            model = adapted_model(dropout=0.05)
            train(model, records(16), TrainConfig(epochs=2, batch_size=8, seed=7, train_seq_len=128),
                  template=TINY_TEMPLATE)
            adapters.append({n: (a.A.data.copy(), a.B.data.copy())
                             for n, a in model.adapters.items()})
        for name in adapters[0]:
            np.testing.assert_array_equal(adapters[0][name][0], adapters[1][name][0])
            np.testing.assert_array_equal(adapters[0][name][1], adapters[1][name][1])

    def test_loss_improves_over_epochs(self):
        model = adapted_model(r=16, targets=WIDE_TARGETS, d_model=64, n_heads=4)
        config = TrainConfig(epochs=10, batch_size=16, learning_rate=3e-3, train_seq_len=128)
        report, _ = train(model, records(100), config, template=TINY_TEMPLATE)
        assert report[-1]["mean_loss"] < report[0]["mean_loss"]

    def test_batch_error_reaches_the_caller(self):
        # one record without an input under a with-input template used to drop
        # its whole batch (and so every good record) as if it were too long
        recs = [InstructionRecord(f"say w{i}", f"w{i}", input=None if i == 3 else f"x{i}", category="other")
                for i in range(8)]
        with pytest.raises(ValueError, match="requires a record with an input"):
            train(adapted_model(), recs, TrainConfig(batch_size=8, train_seq_len=128),
                  template=PromptTemplate("with-input"))

    def test_each_record_is_encoded_once_with_one_warning(self, monkeypatch, caplog):
        rendered, real = [], training.render_prompt
        monkeypatch.setattr(training, "render_prompt", lambda record, *a, **k: rendered.append(record) or
                            real(record, *a, **k))
        caplog.set_level(logging.WARNING)
        config = TrainConfig(epochs=2, batch_size=3, train_seq_len=160)
        report, _ = train(adapted_model(max_seq_len=256), FATES, config)
        assert len(rendered) == len(FATES) and all(a is b for a, b in zip(rendered, FATES))
        assert [r.getMessage() for r in caplog.records] == ["dropped 2 of 8 records: the response exceeds "
                                                            "train_seq_len 160"]
        assert [e["dropped"] for e in report] == [2, 2] and all(e["steps"] > 0 for e in report)

    @pytest.mark.parametrize("policy", MASK_POLICIES)
    def test_batches_are_build_batch_over_each_permuted_chunk(self, monkeypatch, policy):
        config = TrainConfig(epochs=2, batch_size=2, train_seq_len=160, mask_policy=policy, seed=3)
        batches, step = [], training.train_step
        monkeypatch.setattr(training, "train_step", lambda model, batch, opt: batches.append(batch) or
                            step(model, batch, opt))
        train(adapted_model(max_seq_len=256, dropout=0.05), FATES, config)
        kept = [r for r in FATES if training._encode_example(r, None, TOK, config) is not None]
        expected = []
        for epoch in range(config.epochs):
            order = np.random.default_rng(config.seed + epoch).permutation(len(FATES))
            for lo in range(0, len(FATES), config.batch_size):
                chunk = [FATES[i] for i in order[lo : lo + config.batch_size] if FATES[i] in kept]
                if chunk:
                    expected.append(padded(chunk, config, template=None))
        assert len(batches) == len(expected) > 2 * config.epochs
        for got, want in zip(batches, expected):
            assert_same_batch(got, want)

    def test_window_past_the_model_fails_before_any_update(self):
        model = adapted_model(max_seq_len=200)
        recs = records(4) + [InstructionRecord("x" * 200, "y", category="other")]
        before = {name: (a.A.data.copy(), a.B.data.copy()) for name, a in model.adapters.items()}
        with pytest.raises(ValueError, match="train seq_len 256 > model max_seq_len 200"):
            train(model, recs, TrainConfig(train_seq_len=256, batch_size=1, seed=2))
        for name, a in model.adapters.items():
            assert np.array_equal(a.A.data, before[name][0]) and np.array_equal(a.B.data, before[name][1])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(adapted_model(), [], TrainConfig())

    def test_epoch_adapters_are_what_cmd_train_publishes(self, tmp_path, monkeypatch):
        # each epoch's arrays are kept uncopied: an in-place optimizer update would make them all the last epoch's
        returned = []

        def spy(*args, **kwargs):
            returned.append(train(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, "train", spy)
        data = tmp_path / "d.jsonl"
        save_records(records(8), data)
        out = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--out", str(out), "--epochs", "2", "--batch", "8",
                         "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--max-seq-len", "64",
                         "--seq-len", "64"]) == 0
        [(report, adapters)] = returned
        assert len(report) == len(adapters) == 2
        assert all(not np.array_equal(adapters[0][name], adapters[1][name]) for name in adapters[0])
        for epoch, arrays in enumerate(adapters):
            published, _ = load_archive(out / f"adapters-epoch{epoch}.ifta")
            assert list(published) == list(arrays)
            for name, array in arrays.items():
                np.testing.assert_array_equal(published[name], array)


class TestPretrain:
    def test_loss_decreases(self):
        model = tiny_model()
        texts = ["the quick brown fox jumps over the lazy dog"] * 20
        report = pretrain(model, texts, TrainConfig(epochs=3, batch_size=4,
                                                    train_seq_len=32, learning_rate=1e-3))
        assert report[-1]["mean_loss"] < report[0]["mean_loss"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            pretrain(tiny_model(), [], TrainConfig())
