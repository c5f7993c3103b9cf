import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from instruct_forge import autodiff as ad
from instruct_forge.autodiff import Tensor

from conftest import held_beyond_output
from gradcheck import (TRIALS, causal_attention_reference, check_op, finite_difference, forward_backward,
                       layer_norm_reference, lora_linear_reference)

# a graph node, its backward closure and the closure's cells: 1-3 KiB measured
NODE_BYTES = 8192


def rand(rng, *shape):
    return rng.uniform(-2, 2, shape)


def cases(op):
    """The cases of ``TRIALS``' rows of ``op``: the ids of the test that runs them."""
    return [case for name, case in TRIALS if name == op]


def assert_all_equal(got, ref):
    for i, (a, b) in enumerate(zip(got, ref, strict=True)):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"result {i} differs"


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
        check_op("matmul")

    def test_batched_gradients(self):
        check_op("matmul", "batched")


class TestLinear:
    @pytest.mark.parametrize("case", cases("linear"))
    def test_gradients(self, case):
        check_op("linear", case)

    def test_matches_matmul_of_transpose(self):
        rng = np.random.default_rng(12)
        x, w, g = (rand(rng, *shape).astype(np.float32) for shape in [(2, 7, 6), (5, 6), (2, 7, 5)])
        out, dx, dw = forward_backward(ad.linear, [x, w], g)
        assert np.array_equal(out, x @ w.T)
        assert np.array_equal(dx, g @ w)
        # one GEMM over all positions instead of a batched product summed afterwards
        np.testing.assert_allclose(dw, (g.swapaxes(-1, -2) @ x).sum(axis=0), rtol=1e-6, atol=1e-6)

    def test_frozen_weight_gets_no_gradient(self):
        rng = np.random.default_rng(13)
        x, w = Tensor(rand(rng, 2, 3, 4), requires_grad=True), Tensor(rand(rng, 5, 4))
        ad.tsum(ad.linear(x, w)).backward()
        assert w.grad is None
        np.testing.assert_allclose(x.grad, np.broadcast_to(w.data.sum(axis=0), (2, 3, 4)))

    @pytest.mark.parametrize("x_shape,w_shape", [((3, 4), (5, 3)), ((3, 4), (4,)), ((3, 4), (2, 5, 4)), ((), (5, 4))])
    def test_bad_shapes_rejected(self, x_shape, w_shape):
        with pytest.raises(ValueError, match="linear"):
            ad.linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)))


class TestLoraLinear:
    def operands(self, rng, x_shape, d=5, r=2, dtype=np.float64):
        k = x_shape[-1]
        return [rand(rng, *shape).astype(dtype) for shape in (x_shape, (d, k), (r, k), (d, r))]

    P = 0.4

    def mask(self, rng, shape):
        return rng.random(shape) >= self.P

    def keep(self, mask, dtype):
        """The inverted-scaling factors of ``mask``: 0 or 1/(1-p)."""
        return mask.astype(dtype) / (1.0 - self.P)

    @pytest.mark.parametrize("case", cases("lora_linear"))
    def test_gradients(self, case):
        check_op("lora_linear", case)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_bit_identical_to_keeping_the_masked_input(self, dtype):
        rng = np.random.default_rng(39)
        arrays = self.operands(rng, (2, 7, 6), d=9, r=3, dtype=dtype)
        mask = self.mask(rng, (2, 7, 6))
        g = rand(rng, 2, 7, 9).astype(dtype)
        s = 1.3   # not a power of two, so the step that applies it shows in the bits
        # without dropout, the reference's factors are all 1
        for m, keep in ((mask, self.keep(mask, dtype)), (None, np.ones((2, 7, 6), dtype))):
            got = forward_backward(lambda x, w, a, b: ad.lora_linear(x, w, a, b, s, m, self.P), arrays, g)
            assert_all_equal(got, lora_linear_reference(*arrays, s, keep, g))

    def test_graph_keeps_no_masked_input(self):
        # keeping x ∘ keep held a second x, 128 KiB
        rng = np.random.default_rng(40)
        x, w, a, b = (Tensor(v, requires_grad=True)
                      for v in self.operands(rng, (4, 128, 64), d=64, r=4, dtype=np.float32))
        mask = self.mask(rng, x.shape)
        out, extra = held_beyond_output(lambda: ad.lora_linear(x, w, a, b, 2.0, mask, self.P))
        assert extra < 4 * 128 * 4 * 4 + NODE_BYTES, extra   # u = (x ∘ keep) aᵀ, [4, 128, r]
        ad.tsum(out).backward()
        assert a.grad.shape == a.shape and x.grad.shape == x.shape

    def test_graph_keeps_a_bool_mask(self):
        # a float32 mask held 4 bytes an element; the bool mask 1, and backward rebuilds the factors from it
        rng = np.random.default_rng(42)
        x, w, a, b = (Tensor(v, requires_grad=True)
                      for v in self.operands(rng, (4, 128, 64), d=64, r=4, dtype=np.float32))
        out, extra = held_beyond_output(
            lambda: ad.lora_linear(x, w, a, b, 2.0, ad.dropout_mask(x.shape, self.P, rng), self.P))
        assert extra < 4 * 128 * 64 + 4 * 128 * 4 * 4 + NODE_BYTES, extra   # the mask, then u
        ad.tsum(out).backward()
        assert a.grad.shape == a.shape and x.grad.shape == x.shape

    def test_frozen_weight_gets_no_gradient(self):
        rng = np.random.default_rng(34)
        x, w, a, b = self.operands(rng, (2, 3, 4))
        tx, tw, ta, tb = Tensor(x, requires_grad=True), Tensor(w), Tensor(a, requires_grad=True), Tensor(b)
        ad.tsum(ad.lora_linear(tx, tw, ta, tb, 2.0)).backward()
        assert tw.grad is None and tb.grad is None
        assert ta.grad.shape == a.shape and tx.grad.shape == x.shape

    @pytest.mark.parametrize("x_shape,w_shape,a_shape,b_shape,keep_shape", [
        ((3, 4), (5, 3), (2, 4), (5, 2), None),     # x does not fit w
        ((3, 4), (5, 4), (2, 3), (5, 2), None),     # a does not fit x
        ((3, 4), (5, 4), (2, 4), (2, 5), None),     # b transposed
        ((3, 4), (5, 4), (2, 4), (5, 3), None),     # b's rank differs from a's
        ((3, 4), (5, 4), (4,), (5, 2), None),       # a not 2-D
        ((3, 4), (5, 4), (2, 4), (5, 2), (4, 3)),   # keep does not match x
    ])
    def test_bad_shapes_rejected(self, x_shape, w_shape, a_shape, b_shape, keep_shape):
        operands = [Tensor(np.ones(shape)) for shape in (x_shape, w_shape, a_shape, b_shape)]
        mask = None if keep_shape is None else np.ones(keep_shape, dtype=bool)
        with pytest.raises(ValueError, match="lora_linear"):
            ad.lora_linear(*operands, 1.0, mask, self.P)


    @pytest.mark.parametrize("p", [-0.1, 1.0])
    def test_bad_dropout_probability_rejected(self, p):
        x, w, a, b = (Tensor(np.ones(shape)) for shape in ((3, 4), (5, 4), (2, 4), (5, 2)))
        with pytest.raises(ValueError, match="lora_linear: dropout probability"):
            ad.lora_linear(x, w, a, b, 1.0, np.ones((3, 4), dtype=bool), p)


class TestHeads:
    @pytest.mark.parametrize("case", cases("split_heads"))
    def test_gradients(self, case):
        check_op("split_heads", case)
        check_op("merge_heads", case)

    def test_equal_reshape_then_transpose(self):
        rng = np.random.default_rng(36)
        B, T, H, hd = 2, 5, 3, 4
        x, g = rand(rng, B, T, H * hd), rand(rng, B, H, T, hd)
        heads, dx = forward_backward(lambda t: ad.split_heads(t, H), [x], g)
        assert np.array_equal(heads, x.reshape(B, T, H, hd).transpose(0, 2, 1, 3))
        assert np.array_equal(ad.merge_heads(Tensor(heads)).data, x)
        ref = g.transpose(0, 2, 1, 3).reshape(B, T, H * hd)
        assert np.array_equal(dx, ref)
        assert np.array_equal(ad.merge_heads(Tensor(g)).data, ref)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="split_heads"):
            ad.split_heads(Tensor(np.ones((2, 3, 10))), 4)
        with pytest.raises(ValueError, match="merge_heads"):
            ad.merge_heads(Tensor(np.ones((3, 4))))


class TestLastRows:
    @pytest.mark.parametrize("case", cases("last_rows"))
    def test_gradient(self, case):
        check_op("last_rows", case)

    def test_forward_and_gradient_are_the_row_slice(self):
        rng = np.random.default_rng(38)
        x, g = rand(rng, 2, 6, 4), rand(rng, 2, 2, 4)
        out, dx = forward_backward(lambda t: ad.last_rows(t, 2), [x], g)
        assert np.array_equal(out, x[:, -2:])
        assert np.array_equal(dx[:, -2:], g) and not dx[:, :-2].any()

    @pytest.mark.parametrize("shape,n", [((4, 3), 0), ((4, 3), 5), ((4,), 1)])
    def test_bad_row_counts_rejected(self, shape, n):
        with pytest.raises(ValueError, match="last_rows"):
            ad.last_rows(Tensor(np.ones(shape)), n)


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
        for op in ("add", "mul", "scale", "gelu"):
            check_op(op)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bit_identical_to_formula(self, dtype):
        rng = np.random.default_rng(14)
        x, g = (rand(rng, 3, 5, 16).astype(dtype) * 3 for _ in range(2))
        # reference: the formula written with fresh temporaries
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        d_inner = c * (1.0 + 3 * 0.044715 * (x * x))
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner

        out, got = forward_backward(ad.gelu, [x], g)
        assert out.dtype == dtype
        assert np.array_equal(out, 0.5 * x * (1.0 + t))
        assert np.array_equal(got, g * dx)

    def test_gelu_graph_keeps_only_its_input(self):
        # keeping the [4, 128, 256] tanh term held 512 KiB
        x = Tensor(rand(np.random.default_rng(21), 4, 128, 256).astype(np.float32), requires_grad=True)
        out, extra = held_beyond_output(lambda: ad.gelu(x))
        assert extra < NODE_BYTES, extra
        ad.tsum(out).backward()
        assert x.grad.shape == x.shape

    # 37 rows in blocks of 1 and of 5 (the last holds 2); 42 rows of a 4-D input in blocks of 1 and of 5
    @pytest.mark.parametrize("shape", [(37, 13), (2, 3, 7, 16)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_row_blocks_bit_identical_to_one_block(self, monkeypatch, shape, dtype):
        rng = np.random.default_rng(22)
        x, g = (rand(rng, *shape).astype(dtype) * 3 for _ in range(2))
        results = []
        for budget in (math.prod(shape), 1, 5 * shape[-1]):
            monkeypatch.setattr(ad, "_GELU_BLOCK", budget)
            results.append(forward_backward(ad.gelu, [x], g))
        for blocked in results[1:]:
            assert_all_equal(blocked, results[0])

    def test_gelu_runs_up_to_two_blocks_whole(self, monkeypatch):
        # [1, 300, 256] used to run as 256 rows and a ragged 44; whole, it is one chain call each way
        rng = np.random.default_rng(24)
        x, g = (rand(rng, 1, 300, 256).astype(np.float32) for _ in range(2))
        blocked = [np.concatenate([chain(*(a[:, r] for a in args)) for r in (slice(0, 256), slice(256, None))], axis=1)
                   for chain, args in ((ad._gelu_out, (x,)), (ad._gelu_grad, (x, g)))]
        calls = []
        for name in ("_gelu_out", "_gelu_grad"):
            monkeypatch.setattr(ad, name, lambda *a, chain=getattr(ad, name), name=name, **kw:
                                calls.append(name) or chain(*a, **kw))
        assert_all_equal(forward_backward(ad.gelu, [x], g), blocked)
        assert calls == ["_gelu_out", "_gelu_grad"]

    def test_gelu_backward_holds_its_output_and_a_few_blocks(self):
        # the whole-array chain held three [8, 256, 256] float32 buffers: its output and two temporaries
        shape = (8, 256, 256)
        rng = np.random.default_rng(23)
        # an op output, so that its gradient is stored without a copy
        x = ad.slice_last(Tensor(rand(rng, *shape).astype(np.float32), requires_grad=True), 0, shape[-1])
        g = rand(rng, *shape).astype(np.float32)
        out = ad.gelu(x)
        block_bytes = ad._GELU_BLOCK * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert x.grad.shape == shape and x.grad.dtype == np.float32
        assert peak <= x.grad.nbytes + 4 * block_bytes, peak

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
        check_op("layer_norm")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_mean_var_formula(self, dtype):
        rng = np.random.default_rng(5)
        x, gain, bias, g = ((rand(rng, *shape) * 3 + 1).astype(dtype)
                            for shape in [(3, 5, 64), (64,), (64,), (3, 5, 64)])
        # reference: the two-pass formula with ndarray.var
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu) * inv
        gd = g * gain
        dx = inv * (gd - gd.mean(axis=-1, keepdims=True) - xhat * (gd * xhat).mean(axis=-1, keepdims=True))

        out, got_dx, dgain, dbias = forward_backward(ad.layer_norm, [x, gain, bias], g)
        assert out.dtype == dtype
        assert np.array_equal(out, xhat * gain + bias)
        assert np.array_equal(got_dx, dx)
        assert np.array_equal(dgain, (g * xhat).sum(axis=(0, 1)))
        assert np.array_equal(dbias, g.sum(axis=(0, 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 48), (2, 3, 5, 32)])
    def test_gradients_bit_identical_to_keeping_xhat(self, dtype, shape):
        rng = np.random.default_rng(6)
        x, gain, bias, g = ((rand(rng, *s) * 3 + 1).astype(dtype) for s in (shape, shape[-1:], shape[-1:], shape))
        got = forward_backward(ad.layer_norm, [x, gain, bias], g)
        assert_all_equal(got, layer_norm_reference(x, gain, bias, g))

    def test_graph_keeps_only_row_statistics(self):
        # keeping the [4, 128, 64] xhat held 128 KiB
        rng = np.random.default_rng(7)
        x, gain, bias = (Tensor(rand(rng, *s).astype(np.float32), requires_grad=True)
                         for s in ((4, 128, 64), (64,), (64,)))
        out, extra = held_beyond_output(lambda: ad.layer_norm(x, gain, bias))
        assert extra < 2 * 4 * 128 * 4 + NODE_BYTES, extra   # each row's mean and 1 / std
        ad.tsum(out).backward()
        assert x.grad.shape == x.shape


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
        check_op("softmax_cross_entropy")


class TestLogSoftmax:
    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_normalized_finite_and_shift_invariant(self, dtype, data):
        bits = np.finfo(dtype).bits
        shape = data.draw(array_shapes(min_dims=1, max_dims=2, max_side=40))
        x = data.draw(arrays(dtype, shape, elements=st.floats(-1e9, 1e4, width=bits)))
        c = data.draw(arrays(dtype, shape[:-1] + (1,), elements=st.floats(-1e4, 1e4, width=bits)))
        eps, n = np.finfo(dtype).eps, shape[-1]
        out = ad.log_softmax(x)
        assert out.dtype == dtype and np.isfinite(out).all()
        # each row's probabilities sum to 1: logsumexp, taken in float64, is 0
        o = out.astype(np.float64)
        top = o.max(axis=-1, keepdims=True)
        lse = top + np.log(np.exp(o - top).sum(axis=-1, keepdims=True))
        assert (np.abs(lse) <= 8 * eps * (n + 1)).all()
        # x + c rounds in the dtype, so the bound grows with the magnitudes involved
        bound = 16 * eps * (np.abs(x) + np.abs(x).max(axis=-1, keepdims=True) + np.abs(c) + n)
        assert (np.abs(ad.log_softmax(x + c) - out) <= bound).all()

    def test_is_the_cross_entropy_formula(self):
        rng = np.random.default_rng(5)
        logits = rand(rng, 3, 6)
        z = logits - logits.max(axis=-1, keepdims=True)
        np.testing.assert_array_equal(ad.log_softmax(logits), z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))


class TestRequiresGrad:
    """``requires_grad`` is the one test of whether a node takes a gradient:
    a trainable leaf, or an op output while its graph lives."""

    def test_an_output_in_a_live_graph_requires_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = ad.gelu(x)
        loss = ad.tsum(y)
        assert y.requires_grad and loss.requires_grad
        assert not ad.gelu(Tensor(x.data)).requires_grad   # no parent takes a gradient
        with ad.no_grad():
            assert not ad.gelu(x).requires_grad

    def test_an_output_freed_by_backward_does_not(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = ad.gelu(x)
        loss = ad.tsum(y)
        loss.backward()
        assert not y.requires_grad and not loss.requires_grad
        assert x.requires_grad

    def test_a_freed_output_reused_in_a_new_graph_gets_no_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = ad.gelu(x)
        ad.tsum(y).backward()
        x_grad = x.grad.copy()
        w = Tensor(np.full((2, 3), 0.5), requires_grad=True)
        ad.tsum(ad.mul(y, w)).backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, x_grad)
        np.testing.assert_array_equal(w.grad, y.data)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

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
            ad.tsum(ad.mul(ad.linear(a, b), a)).backward()
            grads.append((a.grad.copy(), b.grad.copy()))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x, d/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_second_backward_raises(self):
        # a second pass used to add each intermediate gradient again: the weight gradient read 4x the first
        rng = np.random.default_rng(9)
        x, w = Tensor(rand(rng, 2, 3, 4)), Tensor(rand(rng, 5, 4), requires_grad=True)
        loss = ad.softmax_cross_entropy(ad.linear(x, w), np.array([[0, 1, 2], [3, 4, 0]]))
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, first)

    def test_a_replaced_closure_is_the_one_backward_runs(self):
        # a profiler wraps an output's closure through _backward_fn, keeping the fn(g) signature
        rng = np.random.default_rng(10)
        data = rand(rng, 3, 4)
        x = Tensor(data.copy(), requires_grad=True)
        y = ad.gelu(x)
        inner, received = y._backward_fn, []

        def timed(g):
            received.append(g.copy())
            inner(g)

        y._backward_fn = timed
        assert y._backward_fn is timed
        ad.tsum(y).backward()
        assert len(received) == 1 and np.array_equal(received[0], np.ones((3, 4)))
        ref = Tensor(data.copy(), requires_grad=True)
        ad.tsum(ad.gelu(ref)).backward()
        assert np.array_equal(x.grad, ref.grad)


def _rotary_tables():
    return np.ones((6, 4)), np.full((6, 4), 0.5)


class TestSavedArrays:
    """A graph node keeps only the arrays its backward reads: the input of an
    op whose backward does not read it is freed with its ``Tensor``, while the
    graph lives and still gives the same gradients."""

    # op(x, rng) for an [2, 6, 4] input x that is an op output itself
    FREED = {
        "linear_frozen_weight": lambda x, rng: ad.linear(x, Tensor(rand(rng, 3, 4))),
        "add": lambda x, rng: ad.add(x, Tensor(rand(rng, 2, 6, 4))),
        "rotary": lambda x, rng: ad.rotary(x, *_rotary_tables()),
        "split_heads": lambda x, rng: ad.split_heads(x, 2),
        "merge_heads": lambda x, rng: ad.merge_heads(x),
        "last_rows": lambda x, rng: ad.last_rows(x, 2),
        "slice_last": lambda x, rng: ad.slice_last(x, 1, 3),
        "reshape": lambda x, rng: ad.reshape(x, (12, 4)),
        "transpose": lambda x, rng: ad.transpose(x),
        "scale": lambda x, rng: ad.scale(x, 3.0),
        "tsum": lambda x, rng: ad.tsum(x),
        "softmax": lambda x, rng: ad.softmax(x),   # its backward reads its output
        # v views half of x, as fused qkv's v views the whole projection: the node keeps a copy of that half
        "causal_attention_v_view": lambda x, rng: ad.causal_attention(Tensor(rand(rng, 2, 6, 2)),
                                                                      Tensor(rand(rng, 2, 6, 2)),
                                                                      ad.slice_last(x, 2, 4), 0.5),
    }
    KEPT = {
        "linear_trainable_weight": lambda x, rng: ad.linear(x, Tensor(rand(rng, 3, 4), requires_grad=True)),
        "gelu": lambda x, rng: ad.gelu(x),
        "layer_norm": lambda x, rng: ad.layer_norm(x, Tensor(rand(rng, 4)), Tensor(rand(rng, 4))),
        "lora_linear": lambda x, rng: ad.lora_linear(x, Tensor(rand(rng, 3, 4)), Tensor(rand(rng, 2, 4), True),
                                                     Tensor(rand(rng, 3, 2), True), 0.5),
        "causal_attention_q": lambda x, rng: ad.causal_attention(x, Tensor(rand(rng, 2, 6, 4)),
                                                                 Tensor(rand(rng, 2, 6, 4)), 0.5),
    }

    @staticmethod
    def run(op, drop):
        """The leaf's gradient through ``op(leaf + leaf)``, and whether the
        sum's array was alive after the caller dropped its ``Tensor``."""
        rng = np.random.default_rng(41)
        leaf = Tensor(rand(rng, 2, 6, 4), requires_grad=True)
        x = ad.add(leaf, leaf)
        ref = weakref.ref(x.data)
        loss = ad.tsum(op(x, rng))
        if drop:
            del x
        alive = ref() is not None
        loss.backward()
        return leaf.grad, alive

    @pytest.mark.parametrize("name", FREED)
    def test_input_freed_while_the_graph_lives(self, name):
        grad, alive = self.run(self.FREED[name], drop=True)
        assert not alive
        assert np.array_equal(grad, self.run(self.FREED[name], drop=False)[0])

    @pytest.mark.parametrize("name", KEPT)
    def test_input_a_backward_reads_stays(self, name):
        grad, alive = self.run(self.KEPT[name], drop=True)
        assert alive
        assert np.array_equal(grad, self.run(self.KEPT[name], drop=False)[0])


# each op's first row, for the ops of more than one operand
FIRST_ROWS = {op: TRIALS[op, cases(op)[0]] for op, _ in TRIALS}
MULTI_OPERAND = [op for op, build in FIRST_ROWS.items() if len(build(np.random.default_rng(0))[1]) > 1]


@pytest.mark.parametrize("op", MULTI_OPERAND)
def test_any_float64_operand_gives_float64(op):
    """NumPy's promotion is the one dtype rule: float64 if any operand is, else float32."""
    fn, arrays = FIRST_ROWS[op](np.random.default_rng(21))
    for wide in range(len(arrays)):
        tensors = [Tensor(a.astype(np.float64 if i == wide else np.float32), requires_grad=True)
                   for i, a in enumerate(arrays)]
        out = fn(*tensors)
        assert out.data.dtype == np.float64
        ad.tsum(out).backward()
        assert [t.grad.dtype for t in tensors] == [t.data.dtype for t in tensors]
    assert fn(*(Tensor(a.astype(np.float32)) for a in arrays)).data.dtype == np.float32


class TestShapeOps:
    def test_gradients(self):
        for op in ("reshape", "transpose", "slice_last", "softmax", "embedding"):
            check_op(op)

    def test_rotary_gradient(self):
        check_op("rotary")
        with pytest.raises(ValueError, match="wide"):   # half-width tables
            ad.rotary(Tensor(np.ones((2, 3, 4))), np.ones((3, 2)), np.ones((3, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rotary_bit_identical_to_formula(self, dtype):
        rng = np.random.default_rng(15)
        B, T, H, h = 2, 7, 3, 8
        # [B, T, H, h] viewed as [B, H, T, h], as the model passes it
        x = rand(rng, B, T, H, h).astype(dtype).transpose(0, 2, 1, 3)
        g = rand(rng, B, H, T, h).astype(dtype)
        angles = np.outer(np.arange(T), 1.0 / 10000.0 ** (np.arange(h // 2) / (h // 2)))
        cos, sin = np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)
        # reference: each half written out
        x1, x2, g1, g2 = x[..., :h // 2], x[..., h // 2:], g[..., :h // 2], g[..., h // 2:]
        ref = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
        ref_dx = np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=-1)

        out, dx = forward_backward(lambda t: ad.rotary(t, np.concatenate([cos, cos], axis=-1),
                                                       np.concatenate([-sin, sin], axis=-1)), [x], g)
        assert out.dtype == dtype and out.flags.c_contiguous
        assert np.array_equal(out, ref)
        assert np.array_equal(dx, ref_dx)

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
    @pytest.mark.parametrize("case", cases("causal_attention"))
    def test_gradients(self, case):
        check_op("causal_attention", case)

    # (1, 300) is a cached decode step: a one-row product must round like the chain's
    @pytest.mark.parametrize("T,S", [(6, 6), (3, 8), (1, 300)])
    def test_one_block_equals_unfused_chain_bit_for_bit(self, T, S):
        rng = np.random.default_rng(14)
        s = 1.0 / math.sqrt(8)
        q, k, v = (rand(rng, 2, 3, n, 8).astype(np.float32) for n in (T, S, S))
        out = ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), s).data
        assert out.dtype == np.float32
        assert np.array_equal(out, unfused_attention(q, k, v, s))

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

    def test_graph_keeps_row_statistics_not_probabilities(self):
        # two 64-row blocks; keeping their [64, n] probabilities held about 833 KiB, and kᵀ 64 KiB
        B, H, T, h = 4, 4, 128, 8
        rng = np.random.default_rng(20)
        qkv = [Tensor(rand(rng, B, H, T, h).astype(np.float32), requires_grad=True) for _ in range(3)]
        out, extra = held_beyond_output(lambda: ad.causal_attention(*qkv, 0.5))
        # each row's max and sum, and the first block's [64, 64] mask triangle
        assert extra < 2 * B * H * T * 4 + 64 * 64 * 4 + NODE_BYTES, extra
        ad.tsum(out).backward()
        assert all(t.grad.shape == t.shape for t in qkv)

    # ragged blocks: 3 + 3 + 1 query rows over 2 cached keys, and 4 + 4 + 2 rows
    @pytest.mark.parametrize("T,S,rows", [(7, 9, 3), (10, 10, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_bit_identical_to_keeping_probabilities(self, monkeypatch, T, S, rows, dtype):
        B, H, s = 2, 3, 0.35
        monkeypatch.setattr(ad, "_ATTN_BLOCK", rows * B * H * S)
        rng = np.random.default_rng(21)
        # at head dim 32 some BLAS builds (scipy-openblas 0.3.31 on x86_64) round a swapped-view kᵀ
        # unlike the contiguous one, so a rebuild that changed the layout would show
        q, k, v = (rand(rng, B, H, n, 32).astype(dtype) for n in (T, S, S))
        g = rand(rng, B, H, T, 32).astype(dtype)
        got = forward_backward(lambda q, k, v: ad.causal_attention(q, k, v, s), [q, k, v], g)
        assert_all_equal(got, causal_attention_reference(q, k, v, s, g, rows))

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

    @pytest.mark.parametrize("budget", [None, 1, 28])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_query_spoils_only_its_own_row(self, monkeypatch, budget, bad):
        if budget is not None:
            monkeypatch.setattr(ad, "_ATTN_BLOCK", budget)
        rng = np.random.default_rng(19)
        q, k, v = (rand(rng, 2, 4, 4).astype(np.float32) for _ in range(3))
        q[0, 2, 1] = bad
        with np.errstate(invalid="ignore"):
            out = ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        assert np.isnan(out[0, 2]).all()
        out[0, 2] = 0.0
        assert np.isfinite(out).all()

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


class TestNoGrad:
    @staticmethod
    def ops():
        """``linear``, ``lora_linear`` and ``causal_attention`` on fresh
        ``requires_grad`` leaves, and the leaves."""
        rng = np.random.default_rng(21)
        x, w, a, b, q, k, v = (Tensor(rand(rng, *shape), requires_grad=True) for shape in
                               [(2, 5, 4), (3, 4), (2, 4), (3, 2), (2, 5, 3), (2, 5, 3), (2, 5, 3)])
        outs = [ad.linear(x, w), ad.lora_linear(x, w, a, b, 0.5), ad.causal_attention(q, k, v, 0.7)]
        return outs, [x, w, a, b, q, k, v]

    def grads(self):
        outs, leaves = self.ops()
        for out in outs:
            ad.tsum(out).backward()
        return [t.grad for t in leaves]

    def builds_graph(self):
        outs, _ = self.ops()
        return all(out._node.parents and out._backward_fn is not None for out in outs)

    def test_ops_keep_no_parents_or_closure_inside_the_block(self):
        ref, _ = self.ops()
        with ad.no_grad():
            outs, _ = self.ops()
        for out, r in zip(outs, ref):
            assert out._node.parents == () and out._backward_fn is None
            assert np.array_equal(out.data, r.data)

    def test_outputs_share_one_empty_node(self):
        # the no-grad path allocates no graph node per op
        with ad.no_grad():
            outs, leaves = self.ops()
        assert len({id(out._node) for out in outs}) == 1
        assert not {id(out._node) for out in outs} & {id(t._node) for t in leaves}

    def test_setting_a_field_gives_a_tensor_its_own_node(self):
        with ad.no_grad():
            outs, _ = self.ops()
        outs[0].requires_grad = True
        outs[1].grad = np.ones(outs[1].shape)
        assert outs[0].requires_grad and outs[1].grad is not None
        assert not outs[2].requires_grad and outs[2].grad is None
        assert outs[0]._node is not outs[1]._node

    def test_graph_and_gradients_return_after_the_block(self):
        before = self.grads()
        with ad.no_grad():
            self.ops()
        assert self.builds_graph()
        after = self.grads()
        assert len(after) == 7 and all(g is not None for g in after)
        for g0, g1 in zip(before, after):
            assert np.array_equal(g0, g1)

    def test_restored_when_the_block_raises(self):
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert self.builds_graph()

    def test_nested_blocks(self):
        with ad.no_grad():
            with ad.no_grad():
                assert not self.builds_graph()
            assert not self.builds_graph()
        assert self.builds_graph()
