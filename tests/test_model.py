import math

import numpy as np
import pytest

from fixture_tasks import adapted_model
from instruct_forge import autodiff as ad
from instruct_forge.archive import ArchiveError
from instruct_forge.model import ContextOverflowError, DecoderModel, ModelConfig, load_checkpoint
from instruct_forge.tokenizer import PAD


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
        for name, p in a.named_parameters().items():
            np.testing.assert_array_equal(p.data, b.named_parameters()[name].data)

    def test_different_seed_differs(self):
        a = DecoderModel(tiny_config(seed=1))
        b = DecoderModel(tiny_config(seed=2))
        assert not np.array_equal(a.params["embedding"].data, b.params["embedding"].data)

    def test_fused_layout_exposes_query_key_value(self):
        m = DecoderModel(tiny_config(attention_layout="fused-qkv"))
        assert any("query_key_value" in n for n in m.named_parameters())


class TestNamedParameters:
    def test_split_qv_names(self):
        m = DecoderModel(tiny_config(n_layers=2))
        names = list(m.named_parameters())
        assert sum(1 for n in names if n.endswith("q_proj")) == 2
        assert sum(1 for n in names if n.endswith("v_proj")) == 2

    def test_fused_has_no_split_names(self):
        m = DecoderModel(tiny_config(attention_layout="fused-qkv"))
        assert not any("q_proj" in n for n in m.named_parameters())

    def test_iteration_order_stable(self):
        a = DecoderModel(tiny_config())
        b = DecoderModel(tiny_config())
        assert list(a.named_parameters()) == list(b.named_parameters())


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


def reference_forward(model, ids):
    """Straight-line numpy reimplementation of the forward pass."""
    cfg = model.config
    P = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    H, hd = cfg.n_heads, cfg.d_model // cfg.n_heads
    T = len(ids)

    def ln(x, g, b, eps=1e-5):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x ** 3)))

    half = hd // 2
    inv_freq = 1.0 / (10000.0 ** (np.arange(half) / half))
    ang = np.outer(np.arange(T), inv_freq)
    cos, sin = np.cos(ang), np.sin(ang)

    def rope(x):  # [H, T, hd]
        x1, x2 = x[..., :half], x[..., half:]
        return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    h = P["embedding"][ids]
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        x = ln(h, P[p + "ln1.gain"], P[p + "ln1.bias"])
        if cfg.attention_layout == "fused-qkv":
            qkv = x @ P[p + "attn.query_key_value"].T
            q, k, v = np.split(qkv, 3, axis=-1)
            out_w = P[p + "attn.dense"]
        else:
            q = x @ P[p + "attn.q_proj"].T
            k = x @ P[p + "attn.k_proj"].T
            v = x @ P[p + "attn.v_proj"].T
            out_w = P[p + "attn.o_proj"]
        q = rope(q.reshape(T, H, hd).transpose(1, 0, 2))
        k = rope(k.reshape(T, H, hd).transpose(1, 0, 2))
        v = v.reshape(T, H, hd).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(hd)
        scores += np.triu(np.full((T, T), -1e9), k=1)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        probs = e / e.sum(-1, keepdims=True)
        ctx = (probs @ v).transpose(1, 0, 2).reshape(T, cfg.d_model)
        h = h + ctx @ out_w.T
        x = ln(h, P[p + "ln2.gain"], P[p + "ln2.bias"])
        h = h + gelu(x @ P[p + "mlp.up_proj"].T) @ P[p + "mlp.down_proj"].T
    h = ln(h, P["final_norm.gain"], P["final_norm.bias"])
    return h @ P["lm_head"].T


@pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
def test_forward_matches_reference(layout):
    m = DecoderModel(tiny_config(attention_layout=layout))
    ids = [1, 4, 7, 2, 9]
    np.testing.assert_allclose(m.logits(ids), reference_forward(m, ids), atol=1e-5)


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

    def test_uncached_forward_is_unchanged_by_caching(self):
        m = adapted_model("split-qv")
        ids = list(range(40))
        before = m.logits(ids)
        m.logits(ids[:10], cache=m.new_cache())
        assert np.array_equal(m.logits(ids), before)


class TestBlockedAttention:
    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_row_blocks_do_not_change_logits_or_adapter_gradients(self, monkeypatch, layout):
        ids = np.random.default_rng(6).integers(0, 256, (3, 48))
        mask = np.arange(48) < np.array([[48], [30], [9]])   # right-padded rows
        ids[~mask] = PAD
        results = []
        for budget in (ad._ATTN_BLOCK, 2 * 4 * 48):    # default, then 2-row blocks
            monkeypatch.setattr(ad, "_ATTN_BLOCK", budget)
            m = adapted_model(layout)
            logits = m.forward(ids)
            ad.softmax_cross_entropy(logits, np.roll(ids, -1, axis=1), mask).backward()
            results.append((logits.data, [t.grad for a in m.adapters.values() for t in (a.A, a.B)]))
        (logits, grads), (blocked_logits, blocked_grads) = results
        np.testing.assert_allclose(blocked_logits, logits, rtol=0, atol=1e-5)
        for g, bg in zip(grads, blocked_grads):
            assert np.abs(g).max() > 0
            np.testing.assert_allclose(bg, g, rtol=0, atol=1e-5 * np.abs(g).max())


class TestCheckpoint:
    def test_roundtrip_identical(self, tmp_path):
        m = DecoderModel(tiny_config())
        path = tmp_path / "m.ifta"
        m.save_checkpoint(path)
        loaded = load_checkpoint(path)
        for name, p in m.named_parameters().items():
            assert np.abs(p.data - loaded.params[name].data).max() == 0.0

    def test_truncated_file_rejected(self, tmp_path):
        m = DecoderModel(tiny_config())
        path = tmp_path / "m.ifta"
        m.save_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(ArchiveError):
            load_checkpoint(path)

    def test_layout_mismatch_rejected(self, tmp_path):
        m = DecoderModel(tiny_config(attention_layout="fused-qkv"))
        path = tmp_path / "m.ifta"
        m.save_checkpoint(path)
        with pytest.raises(ArchiveError, match="layout"):
            load_checkpoint(path, expect_layout="split-qv")

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.ifta"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(ArchiveError):
            load_checkpoint(path)
