import math

import numpy as np
import pytest

from instruct_forge import autodiff as ad
from instruct_forge.autodiff import Tensor, backward

from gradcheck import check_op, finite_difference


def rand(rng, *shape):
    return rng.uniform(-2, 2, shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3, 4], [5, 6]])

    def test_scalar_like(self):
        out = ad.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 4, 5), rand(rng, 5, 3)
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    ref[i, j] += a[i, k] * b[k, j]
        got = ad.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        check_op(ad.matmul, [rand(rng, 3, 4), rand(rng, 4, 2)])

    def test_batched_gradients(self):
        rng = np.random.default_rng(2)
        check_op(ad.matmul, [rand(rng, 2, 3, 4), rand(rng, 4, 2)])


class TestElementwise:
    def test_add_zero_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(ad.add(Tensor(x), Tensor(np.zeros(3))).data, x)

    def test_scale_one_identity(self):
        x = np.array([1.5, 2.5])
        np.testing.assert_array_equal(ad.scale(Tensor(x), 1.0).data, x)

    def test_non_broadcastable_raises(self):
        with pytest.raises(ValueError, match="broadcastable"):
            ad.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_gelu_gradient_at_half(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        ad.tsum(ad.gelu(x)).backward()
        num = finite_difference(lambda a: float(ad.gelu(Tensor(a)).data.sum()), [np.array([0.5])], 0)
        assert abs(x.grad[0] - num[0]) / abs(num[0]) < 1e-4

    def test_gradients(self):
        rng = np.random.default_rng(3)
        check_op(ad.add, [rand(rng, 3, 4), rand(rng, 4)])
        check_op(ad.mul, [rand(rng, 3, 4), rand(rng, 3, 4)])
        check_op(lambda t: ad.scale(t, -2.5), [rand(rng, 5)])
        check_op(ad.gelu, [rand(rng, 3, 4)])

    def test_no_mutation(self):
        x = np.array([1.0, 2.0])
        t = Tensor(x.copy())
        ad.gelu(t)
        ad.add(t, t)
        ad.scale(t, 3.0)
        np.testing.assert_array_equal(t.data, x)


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_symmetry(self):
        out = ad.layer_norm(Tensor(np.array([[1.0, 3.0]])), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        check_op(lambda x, g, b: ad.layer_norm(x, g, b), [rand(rng, 2, 4), rand(rng, 4), rand(rng, 4)])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_is_log_vocab(self):
        logits = Tensor(np.zeros((3, 8)))
        loss = ad.softmax_cross_entropy(logits, [0, 5, 7])
        assert abs(loss.item() - math.log(8)) < 1e-6

    def test_confident_logits_near_zero(self):
        logits = np.zeros((2, 10))
        logits[0, 3] = 30.0
        logits[1, 7] = 30.0
        loss = ad.softmax_cross_entropy(Tensor(logits), [3, 7])
        assert loss.item() < 1e-6

    def test_masked_mean_matches_hand_sum(self):
        rng = np.random.default_rng(5)
        logits = rand(rng, 3, 6)
        targets = [1, 2, 3]
        mask = [True, False, True]
        loss = ad.softmax_cross_entropy(Tensor(logits), targets, mask)
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        hand = (-logp[0, 1] - logp[2, 3]) / 2
        assert abs(loss.item() - hand) < 1e-9

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="masked"):
            ad.softmax_cross_entropy(Tensor(np.zeros((2, 4))), [0, 1], [False, False])

    def test_uniform_exact_for_various_vocabs(self):
        for v in (2, 16, 256):
            loss = ad.softmax_cross_entropy(Tensor(np.zeros((4, v))), [0, 1, 0, 1])
            assert abs(loss.item() - math.log(v)) < 1e-6

    def test_gradients(self):
        rng = np.random.default_rng(6)
        logits = rand(rng, 4, 5)
        check_op(lambda t: ad.softmax_cross_entropy(t, [0, 1, 2, 3], [True, True, False, True]),
                 [logits], reduce=lambda x: x)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_matmul_sum_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        check_op(ad.matmul, [rand(rng, 3, 4), rand(rng, 4, 3)])

    def test_off_path_parameter_gets_zero(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        grads = backward(ad.tsum(x), [x, unused])
        np.testing.assert_array_equal(grads[unused], np.zeros(3))
        np.testing.assert_array_equal(grads[x], np.ones(3))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_deterministic_given_identical_graph(self):
        rng = np.random.default_rng(8)
        a_data, b_data = rand(rng, 3, 3), rand(rng, 3, 3)
        grads = []
        for _ in range(2):
            a = Tensor(a_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            ad.tsum(ad.mul(ad.matmul(a, b), a)).backward()
            grads.append((a.grad.copy(), b.grad.copy()))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x, d/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])


class TestShapeOps:
    def test_gradients(self):
        rng = np.random.default_rng(9)
        check_op(lambda x: ad.reshape(x, (4, 3)), [rand(rng, 3, 4)])
        check_op(lambda x: ad.transpose(x, (1, 0, 2)), [rand(rng, 2, 3, 4)])
        check_op(lambda x: ad.slice_last(x, 1, 3), [rand(rng, 2, 5)])
        # plain sum of a softmax is constant; weight the outputs instead
        w = rand(rng, 3, 5)
        check_op(ad.softmax, [rand(rng, 3, 5)], reduce=lambda t: ad.tsum(ad.mul(t, Tensor(w))))

    def test_rotary_gradient(self):
        rng = np.random.default_rng(10)
        T, h = 3, 4
        angles = np.outer(np.arange(T), [1.0, 0.5])
        cos, sin = np.cos(angles), np.sin(angles)
        check_op(lambda x: ad.rotary(x, cos, sin), [rand(rng, 2, T, h)])

    def test_embedding_gradient_scatters(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = ad.embedding(table, [1, 1, 3])
        ad.tsum(out).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_embedding_range_check(self):
        with pytest.raises(ValueError, match="ids"):
            ad.embedding(Tensor(np.ones((4, 3))), [4])


def unfused_attention(q, k, v, s):
    """The three-op chain causal_attention replaces, in plain numpy."""
    T, S = q.shape[-2], k.shape[-2]
    p = (q @ k.swapaxes(-1, -2)) * s
    p += np.triu(np.full((T, S), -1e9, dtype=p.dtype), k=S - T + 1)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v


class TestCausalAttention:
    # an element budget of 1 runs one query row per block; 28 runs blocks of
    # 3 + 1 rows for [2, 4, h] queries and of 2 + 1 rows for [2, 3, h] ones
    @pytest.mark.parametrize("budget", [None, 1, 28])
    @pytest.mark.parametrize("T,S", [(4, 4), (3, 7)])
    def test_gradients(self, monkeypatch, budget, T, S):
        if budget is not None:
            monkeypatch.setattr(ad, "_ATTN_BLOCK", budget)
        rng = np.random.default_rng(13)
        w = Tensor(rand(rng, 2, T, 4))
        check_op(lambda q, k, v: ad.causal_attention(q, k, v, 0.7),
                 [rand(rng, 2, T, 4), rand(rng, 2, S, 4), rand(rng, 2, S, 4)],
                 reduce=lambda t: ad.tsum(ad.mul(t, w)))

    @pytest.mark.parametrize("T,S", [(6, 6), (3, 8)])
    def test_one_block_equals_unfused_chain_bit_for_bit(self, T, S):
        rng = np.random.default_rng(14)
        s = 1.0 / math.sqrt(8)
        q, k, v = (rand(rng, 2, 3, n, 8).astype(np.float32) for n in (T, S, S))
        out = ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), s).data
        assert out.dtype == np.float32
        assert np.array_equal(out, unfused_attention(q, k, v, s))

    def test_gradients_match_the_unfused_autodiff_chain(self, monkeypatch):
        monkeypatch.setattr(ad, "_ATTN_BLOCK", 1)
        rng = np.random.default_rng(15)
        T, s = 6, 0.3
        data = [rand(rng, 2, 3, T, 8).astype(np.float32) for _ in range(3)]
        w = Tensor(rand(rng, 2, 3, T, 8).astype(np.float32))
        mask = Tensor(np.triu(np.full((T, T), -1e9, dtype=np.float32), k=1))
        chain = lambda q, k, v: ad.matmul(
            ad.softmax(ad.add(ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), s), mask)), v)
        grads = []
        for op in (lambda q, k, v: ad.causal_attention(q, k, v, s), chain):
            qkv = [Tensor(x.copy(), requires_grad=True) for x in data]
            ad.tsum(ad.mul(op(*qkv), w)).backward()
            grads.append([t.grad for t in qkv])
        for fused, unfused in zip(*grads):
            assert fused.dtype == np.float32
            np.testing.assert_allclose(fused, unfused, rtol=0, atol=1e-6 * np.abs(unfused).max())

    @pytest.mark.parametrize("budget", [None, 1, 40])
    def test_rectangular_rows_are_the_last_rows_of_the_square(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(ad, "_ATTN_BLOCK", budget)
        rng = np.random.default_rng(16)
        T, S, s = 3, 7, 0.6
        q, k, v = (rand(rng, 2, S, 4).astype(np.float32) for _ in range(3))
        rect = ad.causal_attention(Tensor(q[:, S - T:]), Tensor(k), Tensor(v), s).data
        assert rect.shape == (2, T, 4)
        square = ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), s).data
        np.testing.assert_allclose(rect, square[:, S - T:], rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("budget", [None, 1, 40])
    @pytest.mark.parametrize("T,S", [(5, 5), (3, 7)])
    def test_future_keys_do_not_reach_a_row(self, monkeypatch, budget, T, S):
        if budget is not None:
            monkeypatch.setattr(ad, "_ATTN_BLOCK", budget)
        rng = np.random.default_rng(17)
        q, k, v = rand(rng, 2, T, 4), rand(rng, 2, S, 4), rand(rng, 2, S, 4)
        base = ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        for t in range(T - 1):
            sees = S - T + t + 1           # row t sees keys 0..S-T+t
            k2, v2 = k.copy(), v.copy()
            k2[:, sees:] = rand(rng, 2, S - sees, 4) * 100
            v2[:, sees:] = rand(rng, 2, S - sees, 4) * 100
            out = ad.causal_attention(Tensor(q), Tensor(k2), Tensor(v2), 0.5).data
            assert np.array_equal(out[:, :t + 1], base[:, :t + 1])
            assert not np.array_equal(out[:, t + 1:], base[:, t + 1:])

    def test_frozen_inputs_get_no_gradient(self):
        rng = np.random.default_rng(18)
        q, k, v = (rand(rng, 2, 5, 4) for _ in range(3))
        grads = []
        for trainable in ((True, False, False), (True, True, True)):
            qkv = [Tensor(x, requires_grad=r) for x, r in zip((q, k, v), trainable)]
            ad.tsum(ad.causal_attention(*qkv, 0.5)).backward()
            grads.append([t.grad for t in qkv])
        assert grads[0][1] is None and grads[0][2] is None
        assert np.array_equal(grads[0][0], grads[1][0])

    def test_fewer_keys_than_queries_rejected(self):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="keys"):
            ad.causal_attention(x, Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))), 1.0)

    def test_mismatched_shapes_rejected(self):
        q, k = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 4)))
        for v in (np.zeros((2, 2, 4)), np.zeros((1, 3, 4))):
            with pytest.raises(ValueError, match="disagree"):
                ad.causal_attention(q, k, Tensor(v), 1.0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = ad.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.25, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones(64), requires_grad=True)
        out = ad.dropout(x, 0.5, np.random.default_rng(12), training=True)
        ad.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, out.data)
