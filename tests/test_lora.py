import numpy as np
import pytest

from instruct_forge import autodiff as ad
from instruct_forge.archive import ArchiveError
from instruct_forge.autodiff import Tensor
from instruct_forge.lora import (
    LoraAdapter,
    LoraConfig,
    LoraConfigError,
    adapter_parameters,
    inject,
    load_adapters,
    merge_all,
    save_adapters,
    trainable_param_count,
)
from instruct_forge.model import DecoderModel, ModelConfig, load_checkpoint


def small_model(layout="split-qv", n_layers=2, seed=0):
    return DecoderModel(ModelConfig(vocab_size=11, d_model=8, n_heads=2,
                                    n_layers=n_layers, max_seq_len=16,
                                    attention_layout=layout, seed=seed))


class TestConfig:
    def test_rank_must_be_positive(self):
        with pytest.raises(LoraConfigError):
            LoraConfig(r=0)

    @pytest.mark.parametrize("targets", ["q_proj", ["q_proj", 3]])
    def test_targets_must_be_a_list_of_strings(self, targets):
        with pytest.raises(LoraConfigError, match="list of strings"):
            LoraConfig(target_names=targets)

    def test_dropout_range(self):
        with pytest.raises(LoraConfigError):
            LoraConfig(dropout=1.0)

    def test_rank_capped_by_weight(self):
        w = Tensor(np.zeros((4, 8)), requires_grad=True)
        with pytest.raises(LoraConfigError, match="rank"):
            LoraAdapter("w", w, LoraConfig(r=5, dropout=0.0), np.random.default_rng(0))


class TestInject:
    def test_split_qv_adapter_count(self):
        m = inject(small_model(n_layers=2), LoraConfig(target_names=["q_proj", "v_proj"]))
        assert len(m.adapters) == 4

    def test_fused_adapter_count(self):
        m = inject(small_model("fused-qkv", n_layers=2),
                   LoraConfig(r=2, target_names=["query_key_value"]))
        assert len(m.adapters) == 2

    def test_unmatched_pattern_lists_patterns(self):
        with pytest.raises(LoraConfigError, match="w_proj"):
            inject(small_model(), LoraConfig(target_names=["q_proj", "w_proj"]))

    def test_glob_pattern_matches_nothing(self):
        # targets match by substring; "*" is a literal character
        with pytest.raises(LoraConfigError, match=r"matched no parameters: \['layers\.\*\.attn\.q_proj'\]"):
            inject(small_model(), LoraConfig(target_names=["layers.*.attn.q_proj"]))

    @pytest.mark.parametrize("layout", ["split-qv", "fused-qkv"])
    def test_embedding_table_is_no_target(self, layout):
        # the forward looks rows of the table up and never multiplies by it, so an adapter there was a silent no-op
        with pytest.raises(LoraConfigError, match=r"matched no parameters: \['embedding'\]"):
            inject(small_model(layout), LoraConfig(r=2, target_names=["embedding"]))
        m = inject(small_model(layout), LoraConfig(r=2, target_names=["lm_head"]))
        assert list(m.adapters) == ["lm_head"]

    def test_all_base_weights_frozen(self):
        m = inject(small_model(), LoraConfig(target_names=["q_proj"]))
        assert all(not p.requires_grad for p in m.params.values())
        assert all(a.A.requires_grad and a.B.requires_grad for a in m.adapters.values())

    def test_zero_init_identity_bit_exact(self):
        base = small_model(seed=4)
        adapted = inject(small_model(seed=4), LoraConfig(target_names=["q_proj", "v_proj"]))
        rng = np.random.default_rng(1)
        for _ in range(10):
            ids = rng.integers(0, 11, size=6)
            np.testing.assert_array_equal(base.logits(ids), adapted.logits(ids))


class TestAdaptedForward:
    def test_zero_b_gives_base_projection(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        adapter = LoraAdapter("w", w, LoraConfig(r=2, dropout=0.0), rng)
        x = Tensor(rng.normal(size=(3, 6)).astype(np.float32))
        np.testing.assert_array_equal(adapter.forward(x).data, (x.data @ w.data.T))

    def test_hand_computed_delta(self):
        # r=1, A=[[1,0]], B=[[1],[0]], alpha=r, W0=0, x=[[1,1]] -> [[1,0]]
        w = Tensor(np.zeros((2, 2), dtype=np.float32))
        adapter = LoraAdapter("w", w, LoraConfig(r=1, alpha=1.0, dropout=0.0),
                              np.random.default_rng(0))
        adapter.A.data = np.array([[1.0, 0.0]], dtype=np.float32)
        adapter.B.data = np.array([[1.0], [0.0]], dtype=np.float32)
        out = adapter.forward(Tensor(np.array([[1.0, 1.0]], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]])

    def test_eval_equals_train_without_dropout(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        adapter = LoraAdapter("w", w, LoraConfig(r=2, dropout=0.0), rng)
        adapter.B.data = rng.normal(size=adapter.B.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        np.testing.assert_array_equal(adapter.forward(x).data,
                                      adapter.forward(x, rng=np.random.default_rng(0)).data)

    def test_dropout_draws_the_masks_of_ad_dropout(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(5, 6)).astype(np.float32))
        adapter = LoraAdapter("w", w, LoraConfig(r=2, dropout=0.3), rng)
        adapter.B.data = rng.normal(size=adapter.B.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 3, 6)).astype(np.float32))
        out = adapter.forward(x, rng=np.random.default_rng(7))
        keep = ad.dropout_mask(x.shape, 0.3, np.random.default_rng(7)).astype(np.float32) / (1.0 - 0.3)
        delta = (x.data * keep) @ adapter.A.data.T @ adapter.B.data.T * adapter.scaling
        assert np.array_equal(out.data, x.data @ w.data.T + delta)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        adapter = LoraAdapter("w", w, LoraConfig(r=2, dropout=0.0), rng)
        with pytest.raises(ValueError):
            adapter.forward(Tensor(np.zeros((3, 5), dtype=np.float32)))


class TestMergeUnmerge:
    def trained_model(self):
        m = inject(small_model(), LoraConfig(r=2, dropout=0.0,
                                             target_names=["q_proj", "v_proj"]))
        rng = np.random.default_rng(5)
        for a in m.adapters.values():
            a.B.data = rng.normal(0, 0.1, a.B.shape).astype(np.float32)
        return m

    def test_merged_matches_adapted(self):
        m = self.trained_model()
        ids = [1, 2, 3, 4]
        adapted = m.logits(ids)
        merged = merge_all(m).logits(ids)
        assert np.abs(adapted - merged).max() < 1e-5

    def test_merge_leaves_the_source_bit_exact(self):
        m = self.trained_model()
        ids = [5, 6, 7]
        before = m.logits(ids)
        arrays = [t.data.copy() for t in [*m.params.values(), *adapter_parameters(m)]]
        merge_all(m)
        np.testing.assert_array_equal(before, m.logits(ids))
        for t, a in zip([*m.params.values(), *adapter_parameters(m)], arrays):
            np.testing.assert_array_equal(t.data, a)

    def test_zero_b_merge_keeps_weight(self):
        m = inject(small_model(), LoraConfig(target_names=["q_proj"]))
        name = next(iter(m.adapters))
        np.testing.assert_array_equal(merge_all(m).params[name].data, m.params[name].data)

    def test_double_merge_raises(self):
        # a merged model has no adapters, so merging it again is merging a plain model
        merged = merge_all(self.trained_model())
        assert not merged.adapters
        with pytest.raises(LoraConfigError, match="no adapters"):
            merge_all(merged)

    def test_merged_checkpoint_round_trips_bit_exact(self, tmp_path):
        merged = merge_all(self.trained_model())
        merged.save_checkpoint(tmp_path / "m.ifta")
        ids = [1, 2, 3, 4]
        np.testing.assert_array_equal(load_checkpoint(tmp_path / "m.ifta").logits(ids), merged.logits(ids))


class TestParamCount:
    def test_formula_single(self):
        m = inject(small_model(n_layers=1), LoraConfig(r=2, dropout=0.0, target_names=["q_proj"]))
        assert trainable_param_count(m) == 32

    def test_four_adapters_64x64_r4(self):
        m = inject(DecoderModel(ModelConfig(d_model=64, n_heads=4, n_layers=2, seed=0)),
                   LoraConfig(r=4, target_names=["q_proj", "v_proj"]))
        assert trainable_param_count(m) == 4 * (64 + 64) * 4

    def test_no_adapters_zero(self):
        assert trainable_param_count(small_model()) == 0


class TestAdapterCheckpoint:
    def test_roundtrip(self, tmp_path):
        # the file's alpha, not LoraConfig's default, scales the loaded deltas
        m = inject(small_model(), LoraConfig(r=2, alpha=7.0, dropout=0.0, target_names=["q_proj", "v_proj"]))
        rng = np.random.default_rng(5)
        for a in m.adapters.values():
            a.B.data = rng.normal(0, 0.1, a.B.shape).astype(np.float32)
        path = tmp_path / "a.ifta"
        save_adapters(m, path)
        fresh = load_adapters(small_model(), path)
        for name, a in m.adapters.items():
            np.testing.assert_array_equal(a.A.data, fresh.adapters[name].A.data)
            np.testing.assert_array_equal(a.B.data, fresh.adapters[name].B.data)
        np.testing.assert_array_equal(fresh.logits([1, 2, 3, 4]), m.logits([1, 2, 3, 4]))

    def test_onto_an_injected_model_rejected(self, tmp_path):
        m = TestMergeUnmerge().trained_model()
        path = tmp_path / "a.ifta"
        save_adapters(m, path)
        target = inject(small_model(), LoraConfig(alpha=4.0, target_names=["q_proj"]))
        adapters = dict(target.adapters)
        with pytest.raises(LoraConfigError, match="without adapters"):
            load_adapters(target, path)
        assert target.adapters == adapters and target.lora_config.alpha == 4.0

    @pytest.mark.parametrize("saved_layers, loaded_layers", [(2, 1), (1, 2)])
    def test_adapters_of_another_base_model_rejected(self, tmp_path, saved_layers, loaded_layers):
        m = inject(small_model(n_layers=saved_layers), LoraConfig(r=2))
        path = tmp_path / "a.ifta"
        save_adapters(m, path)
        layer1 = "['layers.1.attn.q_proj.lora_A', 'layers.1.attn.q_proj.lora_B', " \
                 "'layers.1.attn.v_proj.lora_A', 'layers.1.attn.v_proj.lora_B']"
        missing, extra = ("[]", layer1) if saved_layers > loaded_layers else (layer1, "[]")
        with pytest.raises(ArchiveError) as exc:
            load_adapters(small_model(n_layers=loaded_layers), path)
        assert f"(missing {missing}, extra {extra})" in str(exc.value)

    def test_injects_when_missing(self, tmp_path):
        m = TestMergeUnmerge().trained_model()
        path = tmp_path / "a.ifta"
        save_adapters(m, path)
        fresh = small_model()
        load_adapters(fresh, path)
        assert len(fresh.adapters) == len(m.adapters)

    def test_layout_mismatch_rejected(self, tmp_path):
        m = TestMergeUnmerge().trained_model()
        path = tmp_path / "a.ifta"
        save_adapters(m, path)
        other = small_model("fused-qkv")
        with pytest.raises(ArchiveError, match="layout"):
            load_adapters(other, path)

    def test_adapter_params_listing(self):
        m = TestMergeUnmerge().trained_model()
        params = adapter_parameters(m)
        assert len(params) == 2 * len(m.adapters)
