import tracemalloc

import numpy as np
import pytest

from fixture_tasks import adapted_model
from instruct_forge import autodiff as ad
from instruct_forge.archive import ArchiveError
from instruct_forge.lora import adapter_parameters, merge_all
from instruct_forge.model import ContextOverflowError, DecoderModel, ModelConfig, load_checkpoint
from instruct_forge.tokenizer import PAD
from instruct_forge.training import AdamW, TrainingBatch, train_step


def tiny_config(**kw):
    base = dict(vocab_size=11, d_model=4, n_heads=2, n_layers=1, max_seq_len=16, seed=3)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_model=10, n_heads=3)

    def test_per_head_dim(self):
        cfg = ModelConfig(d_model=64, n_heads=8)
        assert cfg.d_model // cfg.n_heads == 8

    def test_bad_layout(self):
        with pytest.raises(ValueError, match="layout"):
            ModelConfig(attention_layout="dense")


class TestInit:
    def test_same_seed_bit_identical(self):
        a = DecoderModel(ModelConfig(seed=5))
        b = DecoderModel(ModelConfig(seed=5))
        for name, p in a.params.items():
            np.testing.assert_array_equal(p.data, b.params[name].data)

    def test_different_seed_differs(self):
        a = DecoderModel(tiny_config(seed=1))
        b = DecoderModel(tiny_config(seed=2))
        assert not np.array_equal(a.params["embedding"].data, b.params["embedding"].data)

    def test_fused_layout_exposes_query_key_value(self):
        m = DecoderModel(tiny_config(attention_layout="fused-qkv"))
        assert any("query_key_value" in n for n in m.params)


class TestNamedParameters:
    def test_split_qv_names(self):
        m = DecoderModel(tiny_config(n_layers=2))
        names = list(m.params)
        assert sum(1 for n in names if n.endswith("q_proj")) == 2
        assert sum(1 for n in names if n.endswith("v_proj")) == 2

    def test_fused_has_no_split_names(self):
        m = DecoderModel(tiny_config(attention_layout="fused-qkv"))
        assert not any("q_proj" in n for n in m.params)

    def test_iteration_order_stable(self):
        a = DecoderModel(tiny_config())
        b = DecoderModel(tiny_config())
        assert list(a.params) == list(b.params)


class TestForward:
    def test_single_sequence_shape(self):
        m = DecoderModel(tiny_config())
        assert m.logits([1, 2, 3]).shape == (3, 11)

    def test_length_one(self):
        m = DecoderModel(tiny_config())
        assert m.logits([7]).shape == (1, 11)

    def test_overlong_input_rejected(self):
        m = DecoderModel(tiny_config(max_seq_len=4))
        with pytest.raises(ContextOverflowError):
            m.logits([1] * 5)

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_causality(self, layout):
        m = DecoderModel(tiny_config(attention_layout=layout))
        rng = np.random.default_rng(0)
        for _ in range(10):
            ids = rng.integers(0, 11, size=8)
            j = int(rng.integers(1, 8))
            edited = ids.copy()
            edited[j] = (edited[j] + 1) % 11
            a, b = m.logits(ids), m.logits(edited)
            np.testing.assert_array_equal(a[:j], b[:j])
            assert not np.allclose(a[j:], b[j:])

    def test_eval_forward_deterministic(self):
        m = DecoderModel(tiny_config())
        np.testing.assert_array_equal(m.logits([1, 2, 3]), m.logits([1, 2, 3]))

    def test_softmax_rows_sum_to_one(self):
        m = DecoderModel(tiny_config())
        logits = m.logits([1, 2, 3, 4]).astype(np.float64)
        z = np.exp(logits - logits.max(axis=-1, keepdims=True))
        rows = z / z.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-5)

    def test_batched_matches_single(self):
        m = DecoderModel(tiny_config())
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        batched = m.forward(ids).data
        np.testing.assert_allclose(batched[0], m.logits([1, 2, 3]), atol=1e-6)
        np.testing.assert_allclose(batched[1], m.logits([4, 5, 6]), atol=1e-6)

    def test_forward_takes_batches_only(self):
        with pytest.raises(ValueError, match=r"\[B, T\] batch"):
            DecoderModel(tiny_config()).forward([1, 2, 3])


class TestCache:
    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    @pytest.mark.parametrize("split", [1, 2, 37, 200])
    def test_cached_logits_match_full_context(self, layout, split):
        m = adapted_model(layout)
        ids = np.random.default_rng(split).integers(0, 259, 240).tolist()
        full = m.logits(ids)
        cache = m.new_cache()
        rows = [m.logits(ids[:split], cache=cache)]
        for i in range(split, split + 6):           # one token at a time
            rows.append(m.logits(ids[i:i + 1], cache=cache))
        rows.append(m.logits(ids[split + 6:], cache=cache))   # then the rest in one chunk
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0, atol=1e-5)
        assert all(k.shape[2] == v.shape[2] == len(ids) for k, v in cache)

    def test_overflow_counts_cached_positions(self):
        m = DecoderModel(tiny_config(max_seq_len=8))
        cache = m.new_cache()
        m.logits([1] * 6, cache=cache)
        m.logits([2, 3], cache=cache)
        with pytest.raises(ContextOverflowError, match="9 exceeds"):
            m.logits([4], cache=cache)

    def test_branching_leaves_the_parent_unchanged(self):
        m = DecoderModel(tiny_config())
        parent = m.new_cache()
        m.logits([1, 2, 3], cache=parent)
        snapshot = [(k.copy(), v.copy()) for k, v in parent]
        a, b = list(parent), list(parent)
        from_a = m.logits([4, 5], cache=a)
        from_b = m.logits([6], cache=b)
        for (k, v), (k0, v0) in zip(parent, snapshot):
            assert np.array_equal(k, k0) and np.array_equal(v, v0) and k.shape[2] == 3
        np.testing.assert_allclose(from_a, m.logits([1, 2, 3, 4, 5])[3:], atol=1e-6)
        np.testing.assert_allclose(from_b, m.logits([1, 2, 3, 6])[3:], atol=1e-6)

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_interleaved_branches_equal_fresh_runs_bit_for_bit(self, layout):
        m = adapted_model(layout)
        rng = np.random.default_rng(13)
        prefix = rng.integers(0, 259, 30).tolist()
        steps = {"a": rng.integers(0, 259, 4).tolist(), "b": rng.integers(0, 259, 4).tolist()}
        parent = m.new_cache()
        m.logits(prefix[:-1], cache=parent)
        m.logits(prefix[-1:], cache=parent)   # an append: the parent now ends at its store's fill mark
        snapshot = [(k.copy(), v.copy()) for k, v in parent]
        branches = {name: list(parent) for name in steps}
        rows = {name: [] for name in steps}
        for i in range(4):   # a, b, a, b, ...: each step of one branch follows a write of the other
            for name, ids in steps.items():
                rows[name].append(m.logits(ids[i:i + 1], cache=branches[name]))
        # the first writer grows the parent's store past the parent's entries; the other copies them
        assert np.shares_memory(branches["a"][0][0], parent[0][0])
        assert not np.shares_memory(branches["b"][0][0], parent[0][0])
        for name, ids in steps.items():
            fresh = m.new_cache()
            m.logits(prefix[:-1], cache=fresh)
            m.logits(prefix[-1:], cache=fresh)
            for t, row in zip(ids, rows[name], strict=True):
                assert np.array_equal(row, m.logits([t], cache=fresh))
            for (k, v), (k0, v0) in zip(branches[name], fresh, strict=True):
                assert np.array_equal(k, k0) and np.array_equal(v, v0)
        for (k, v), (k0, v0) in zip(parent, snapshot, strict=True):
            assert np.array_equal(k, k0) and np.array_equal(v, v0) and k.shape[2] == len(prefix)

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    @pytest.mark.parametrize("written_past", [False, True])
    def test_a_batch_continues_a_batch_1_cache(self, layout, written_past):
        # a [2, T] forward on a one-row store at its fill mark used to grow that store in place and fail with
        # "could not broadcast input array from shape (2,2,3,8) into shape (1,2,3,8)"
        m = DecoderModel(ModelConfig(d_model=16, n_heads=2, n_layers=1, attention_layout=layout, seed=3))
        parent = m.new_cache()
        m.logits([1, 2, 3], cache=parent)
        m.logits([4], cache=parent)   # the parent now ends at its store's fill mark
        snapshot = [(k.copy(), v.copy()) for k, v in parent]
        if written_past:   # another branch writes past the parent's positions first
            m.logits([9, 9], cache=list(parent))
        rows = [[5, 6, 7], [8, 1, 0]]
        with ad.no_grad():
            batch = m.forward(rows, cache=list(parent)).data
        assert batch.shape == (2, 3, m.config.vocab_size)
        for got, ids in zip(batch, rows):
            np.testing.assert_allclose(got, m.logits(ids, cache=list(parent)), rtol=0, atol=1e-6)
        for (k, v), (k0, v0) in zip(parent, snapshot, strict=True):
            assert np.array_equal(k, k0) and np.array_equal(v, v0) and k.shape == (1, 2, 4, 8)

    def test_uncached_forward_is_unchanged_by_caching(self):
        m = adapted_model("split-qv")
        ids = list(range(40))
        before = m.logits(ids)
        m.logits(ids[:10], cache=m.new_cache())
        assert np.array_equal(m.logits(ids), before)

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_prefill_caches_values_without_the_projection_they_came_from(self, layout):
        # fused qkv's v is a third of the [1, T, 3d] projection: a cached view kept the q and k columns alive
        m = adapted_model(layout)
        ids = np.random.default_rng(11).integers(0, 259, 40).tolist()
        cache = m.new_cache()
        assert np.array_equal(m.logits(ids, cache=cache), m.logits(ids))
        for k, v in cache:   # the prefill's own keys and values, each over memory of its own size
            assert all(a.base is None or a.base.nbytes == a.nbytes for a in (k, v))
        m.logits(ids[:1], cache=cache)
        for k, v in cache:   # the first append moves both into one layer store of keys and values only
            store = v.base
            assert k.base is store and store.shape == (2, *k.shape[:2], m.max_seq_len, k.shape[3])
            assert store.base.nbytes == store.nbytes and store.base.base is None

    # one node per op at the default size (4 layers): 18 a layer on split-qv,
    # 19 on fused-qkv (its three slices), plus embedding, final norm, lm_head
    # and the [1, 1, V] -> [1, V] reshape
    @pytest.mark.parametrize("layout,bound", [("split-qv", 76), ("fused-qkv", 80)])
    def test_graph_nodes_per_cached_token(self, monkeypatch, layout, bound):
        m = adapted_model(layout)
        cache = m.new_cache()
        m.logits(list(range(20)), cache=cache)
        nodes = []
        node = ad._node
        monkeypatch.setattr(ad, "_node", lambda *args: nodes.append(1) or node(*args))
        m.logits([20], cache=cache)
        assert 0 < len(nodes) <= bound


class TestLastRows:
    """``last=n``: the final layer's queries, MLP, final norm and head run on n rows."""

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    @pytest.mark.parametrize("cached", [False, True])
    def test_rows_match_the_full_forward(self, layout, cached):
        m = adapted_model(layout)
        ids = np.random.default_rng(7).integers(0, 259, 60).tolist()
        prefix, ids = (ids[:20], ids[20:]) if cached else ([], ids)
        caches = []

        def run(last=None):
            cache = m.new_cache() if cached else None
            if cached:
                m.logits(prefix, cache=cache)
                caches.append(cache)
            return m.logits(ids, cache=cache, last=last)

        full = run()
        T, atol = len(ids), 1e-6 * np.abs(full).max()
        for n in (1, 7, T):
            got = run(last=n)
            assert got.shape == (n, full.shape[1])
            np.testing.assert_allclose(got, full[-n:], rtol=0, atol=atol)
        assert np.array_equal(run(last=T + 5), full)
        for cache in caches[1:]:   # keys and values of every position, as without last=
            for (k, v), (k0, v0) in zip(cache, caches[0]):
                assert np.array_equal(k, k0) and np.array_equal(v, v0) and k.shape[2] == 20 + T

    def test_batch_keeps_its_leading_axis(self):
        m = adapted_model("split-qv")
        ids = np.random.default_rng(8).integers(0, 259, (3, 25))
        full = m.forward(ids).data
        got = m.forward(ids, last=4).data
        assert got.shape == (3, 4, full.shape[-1])
        np.testing.assert_allclose(got, full[:, -4:], rtol=0, atol=1e-6 * np.abs(full).max())

    @pytest.mark.parametrize("last", [0, -1])
    def test_fewer_than_one_row_rejected(self, last):
        with pytest.raises(ValueError, match="last"):
            DecoderModel(tiny_config()).logits([1, 2, 3], last=last)

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_final_mlp_and_head_see_only_the_kept_rows(self, monkeypatch, layout):
        m = adapted_model(layout)
        gelu_rows, head_rows = [], []
        gelu, linear, head = ad.gelu, ad.linear, m.params["lm_head"]
        monkeypatch.setattr(ad, "gelu", lambda x: gelu_rows.append(x.shape[-2]) or gelu(x))
        monkeypatch.setattr(ad, "linear", lambda x, w: (w is head and head_rows.append(x.shape[-2])) or linear(x, w))
        m.logits(list(range(30)), last=3)
        assert gelu_rows == [30, 30, 30, 3] and head_rows == [3]

    @pytest.mark.parametrize("n", [1, 7])
    def test_adapter_gradients_match_the_full_forward_rows(self, n):
        ids = np.random.default_rng(9).integers(0, 259, (1, 40))
        targets = np.roll(ids, -1, axis=1)[:, -n:]
        grads = []
        for cut in (True, False):
            m = adapted_model("split-qv")
            logits = m.forward(ids, last=n) if cut else ad.last_rows(m.forward(ids), n)
            ad.softmax_cross_entropy(logits, targets).backward()
            grads.append([t.grad for t in adapter_parameters(m)])
        assert len(grads[0]) == 2 * 2 * 4     # q and v adapters of all 4 layers, A and B
        for g, full in zip(*grads):
            assert np.abs(full).max() > 0
            np.testing.assert_allclose(g, full, rtol=0, atol=1e-5 * np.abs(full).max())

class BlockedKernel:
    """Shrinking a kernel's row-block budget, the module constant ``knob``, to ``budget`` changes no logit and
    no adapter gradient beyond ``tol``, relative to the largest gradient element; ``tol`` 0 is bit for bit."""

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_row_blocks_do_not_change_logits_or_adapter_gradients(self, monkeypatch, layout):
        ids = np.random.default_rng(self.seed).integers(0, 256, (3, 48))
        mask = np.arange(48) < np.array([[48], [30], [9]])   # right-padded rows
        ids[~mask] = PAD
        results = []
        for budget in (getattr(ad, self.knob), self.budget):
            monkeypatch.setattr(ad, self.knob, budget)
            m = adapted_model(layout)
            logits = m.forward(ids)
            ad.softmax_cross_entropy(logits, np.roll(ids, -1, axis=1), mask).backward()
            results.append((logits.data, [t.grad for t in adapter_parameters(m)]))
        (logits, grads), (blocked_logits, blocked_grads) = results
        np.testing.assert_allclose(blocked_logits, logits, rtol=0, atol=self.tol, equal_nan=False)
        for g, bg in zip(grads, blocked_grads, strict=True):
            assert np.abs(g).max() > 0
            np.testing.assert_allclose(bg, g, rtol=0, atol=self.tol * np.abs(g).max(), equal_nan=False)


class TestBlockedAttention(BlockedKernel):
    knob, budget, seed, tol = "_ATTN_BLOCK", 2 * 4 * 48, 6, 1e-5   # 2-row blocks


class TestBlockedGelu(BlockedKernel):
    knob, budget, seed, tol = "_GELU_BLOCK", 1, 7, 0.0   # 1-row blocks; the default is one block of 144 rows


class TestGraphFreeLogits:
    """``logits()`` runs under ``ad.no_grad()``: same numbers, no graph, no leaked state."""

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("last", [None, 5])
    def test_logits_equal_forward(self, layout, cached, last):
        m = adapted_model(layout)
        ids = np.random.default_rng(10).integers(0, 259, 50).tolist()
        if cached:
            ours, theirs = m.new_cache(), m.new_cache()
            m.logits(ids[:20], cache=ours)
            m.forward([ids[:20]], theirs)
            ids = ids[20:]
        else:
            ours = theirs = None
        got = m.logits(ids, cache=ours, last=last)
        assert np.array_equal(got, m.forward([ids], theirs, last).data[0])
        for (k, v), (k0, v0) in zip(ours or [], theirs or []):
            assert np.array_equal(k, k0) and np.array_equal(v, v0)

    def test_train_step_after_an_overflowing_call_matches_a_fresh_model(self):
        class Recording(AdamW):
            def step(self):
                self.grads = [p.grad.copy() for p in self.params]
                super().step()

        ids = np.random.default_rng(11).integers(0, 256, (2, 24))
        batch = TrainingBatch(ids, np.roll(ids, -1, axis=1), np.arange(24) >= np.array([[8], [16]]))
        results = []
        for overflow_first in (False, True):
            m = adapted_model("split-qv")
            if overflow_first:
                with pytest.raises(ContextOverflowError):
                    m.logits(list(range(m.max_seq_len + 1)))
            opt = Recording(adapter_parameters(m), lr=1e-3)
            results.append((train_step(m, batch, opt), opt.grads))
        (loss, grads), (loss_after, grads_after) = results
        assert loss_after == loss and len(grads_after) == len(grads) == 16
        for g, g_after in zip(grads, grads_after):
            assert np.array_equal(g_after, g)

    def test_peak_memory_of_a_full_window_call(self):
        # about 24 MB while logits() kept the autodiff graph, about 3 MB without it
        m = adapted_model("split-qv")
        ids = np.random.default_rng(12).integers(0, 259, 511).tolist()
        tracemalloc.start()
        try:
            m.logits(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestCheckpoint:
    def test_roundtrip_identical(self, tmp_path):
        m = DecoderModel(tiny_config())
        path = tmp_path / "m.ifta"
        m.save_checkpoint(path)
        loaded = load_checkpoint(path)
        for name, p in m.params.items():
            assert np.abs(p.data - loaded.params[name].data).max() == 0.0

    def test_load_and_merge_draw_no_weights(self, tmp_path, monkeypatch):
        # fill and merge_all replace every weight, so a normal draw for each was thrown away
        m = adapted_model()
        path = tmp_path / "m.ifta"
        m.save_checkpoint(path)
        rngs, init = [], DecoderModel._init_params
        monkeypatch.setattr(DecoderModel, "_init_params", lambda self, rng: rngs.append(rng) or init(self, rng))
        loaded, merged = load_checkpoint(path), merge_all(m)
        assert rngs == [None, None]
        for name, p in m.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)
            assert merged.params[name].data.shape == p.shape and merged.params[name].requires_grad
        assert np.array_equal(loaded.rng.random(4), np.random.default_rng(m.config.seed + 1).random(4))

    def test_truncated_file_rejected(self, tmp_path):
        m = DecoderModel(tiny_config())
        path = tmp_path / "m.ifta"
        m.save_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(ArchiveError):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.ifta"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(ArchiveError):
            load_checkpoint(path)
