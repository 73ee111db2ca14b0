"""Forward-path checks of the tensor primitives against independent oracles."""

import struct
import tracemalloc

import numpy as np
import pytest

from arcd.autodiff import ShapeError, Tensor, backward, no_grad, ops
from arcd.autodiff.tensor import clear_record, record_length


def naive_conv2d(x, w, b, stride, padding):
    """Direct six-nested-loop cross-correlation."""
    n, c, h, width = x.shape
    k, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((n, k, ho, wo))
    for ni in range(n):
        for ki in range(k):
            for i in range(ho):
                for j in range(wo):
                    acc = b[ki]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[ni, ci, i * stride + u,
                                          j * stride + v] * w[ki, ci, u, v]
                    out[ni, ki, i, j] = acc
    return out


def naive_conv3d(x, w, b, padding):
    n, c, t, h, width = x.shape
    k, _, kt, kh, kw = w.shape
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = t + 2 * pt - kt + 1
    ho = h + 2 * ph - kh + 1
    wo = width + 2 * pw - kw + 1
    out = np.zeros((n, k, to, ho, wo))
    for ni in range(n):
        for ki in range(k):
            for ti in range(to):
                for i in range(ho):
                    for j in range(wo):
                        acc = b[ki]
                        for ci in range(c):
                            for u in range(kt):
                                for ii in range(kh):
                                    for jj in range(kw):
                                        acc += (xp[ni, ci, ti + u, i + ii, j + jj]
                                                * w[ki, ci, u, ii, jj])
                        out[ni, ki, ti, i, j] = acc
    return out


class TestConv2d:
    def test_scalar_multiply(self):
        x = Tensor(np.array([[[[1.0]]]]))
        w = Tensor(np.array([[[[2.0]]]]))
        b = Tensor(np.array([0.0]))
        assert ops.conv2d(x, w, b).data.item() == 2.0

    def test_all_ones_sums_window(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        assert ops.conv2d(x, w, b).data.item() == 9.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        got = ops.conv2d(x, w, b).data
        want = naive_conv2d(x.data, w.data, b.data, 1, 0)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (2, 1), (3, 2)])
    def test_stride_padding_variants(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        # 7x9: padded sides that are not multiples of the stride.
        for hw in ((6, 6), (7, 9)):
            x = Tensor(rng.standard_normal((2, 3) + hw))
            w = Tensor(rng.standard_normal((4, 3, 3, 3)))
            b = Tensor(rng.standard_normal(4))
            got = ops.conv2d(x, w, b, stride=stride, padding=padding).data
            want = naive_conv2d(x.data, w.data, b.data, stride, padding)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 1, 7, 9)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        y = ops.conv2d(x, w, None, stride=2, padding=1)
        assert y.shape == (1, 2, (7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ShapeError, match="axis 1"):
            ops.conv2d(x, w, None)

    def test_kernel_larger_than_input_names_axis(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 3)))
        with pytest.raises(ShapeError, match="axis 2"):
            ops.conv2d(x, w, None)

    @pytest.mark.parametrize("shape_w,stride,padding", [
        ((5, 6, 1, 1), 1, 0),   # 1x1 at stride 1: one GEMM on the input itself
        ((5, 6, 3, 3), 2, 1),   # the encoders' strided, padded blocks
        ((5, 6, 3, 3), 1, 1),   # the 3x3 "same" convs everywhere else
    ])
    def test_float32_matches_loop_oracle(self, shape_w, stride, padding):
        rng = np.random.default_rng(sum(shape_w) + stride)
        x = rng.standard_normal((2, 6, 9, 7)).astype(np.float32)
        w = rng.standard_normal(shape_w).astype(np.float32)
        b = rng.standard_normal(shape_w[0]).astype(np.float32)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                         padding=padding).data
        want = naive_conv2d(x.astype(np.float64), w.astype(np.float64),
                            b.astype(np.float64), stride, padding)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-5

    def test_same_conv_allocates_no_patch_matrix(self):
        # A 3x3 stride-1 forward allocates less than twice its input plus
        # output bytes: the padded input and the output grid, no 9x copy.
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 48, 128, 128)).astype(np.float32))
        w = Tensor(rng.standard_normal((16, 48, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(16, dtype=np.float32))
        tracemalloc.start()
        try:
            with no_grad():
                y = ops.conv2d(x, w, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (x.data.nbytes + y.data.nbytes)


class TestConv3d:
    def test_temporal_dot_product(self):
        x = Tensor(np.array([3.0, 5.0]).reshape(1, 1, 2, 1, 1))
        w = Tensor(np.array([2.0, 7.0]).reshape(1, 1, 2, 1, 1))
        b = Tensor(np.zeros(1))
        y = ops.conv3d(x, w, b)
        assert y.shape == (1, 1, 1, 1, 1)
        assert y.data.item() == pytest.approx(2 * 3 + 7 * 5, abs=1e-15)

    def test_zero_input_broadcasts_bias(self):
        x = Tensor(np.zeros((1, 2, 2, 3, 3)))
        w = Tensor(np.zeros((4, 2, 2, 3, 3)))
        b = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        y = ops.conv3d(x, w, b, padding=(0, 1, 1))
        for k in range(4):
            assert (y.data[:, k] == b.data[k]).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        got = ops.conv3d(x, w, b, padding=(0, 1, 1)).data
        want = naive_conv3d(x.data, w.data, b.data, (0, 1, 1))
        assert np.abs(got - want).max() < 1e-12

    def test_equals_conv2d_with_time_folded_into_channels(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3, 2, 5, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        x2 = Tensor(x.data.reshape(2, 6, 5, 6), requires_grad=True)
        w2 = Tensor(w.data.reshape(4, 6, 3, 3), requires_grad=True)
        b2 = Tensor(b.data.copy(), requires_grad=True)
        seed = rng.standard_normal((2, 4, 5, 6))
        y3 = ops.conv3d(x, w, b, padding=(0, 1, 1))
        backward(ops.sum_all(ops.mul(y3, Tensor(seed.reshape(y3.shape)))))
        y2 = ops.conv2d(x2, w2, b2, padding=1)
        backward(ops.sum_all(ops.mul(y2, Tensor(seed))))
        assert y3.shape == (2, 4, 1, 5, 6)
        assert np.array_equal(y3.data.reshape(y2.shape), y2.data)
        assert np.array_equal(x.grad.reshape(x2.shape), x2.grad)
        assert np.array_equal(w.grad.reshape(w2.shape), w2.grad)
        assert np.array_equal(b.grad, b2.grad)

    @pytest.mark.parametrize("shape_x,shape_w,padding,match", [
        ((1, 2, 3, 4, 4), (3, 2, 2, 3, 3), (0, 1, 1), "kt == T"),
        ((1, 2, 2, 4, 4), (3, 2, 2, 3, 3), (1, 1, 1), "time padding"),
        ((1, 2, 2, 4, 4), (3, 2, 2, 3, 3), (0, 1, 0), "spatial padding"),
    ])
    def test_unsupported_shapes_rejected(self, shape_x, shape_w, padding,
                                         match):
        x = Tensor(np.zeros(shape_x))
        w = Tensor(np.zeros(shape_w))
        with pytest.raises(ShapeError, match=match):
            ops.conv3d(x, w, None, padding=padding)


class TestSingleSampleConv:
    """At N == 1 a conv output is a strided view of the conv's grid."""

    @pytest.mark.parametrize("op,stride", [("conv2d", 1), ("conv2d", 2),
                                           ("conv3d", 1)])
    def test_matches_loop_oracle_through_batch_norm(self, op, stride):
        rng = np.random.default_rng(30 + stride)
        b = rng.standard_normal(4)
        if op == "conv2d":
            x = rng.standard_normal((1, 3, 7, 9))
            w = rng.standard_normal((4, 3, 3, 3))
            y = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                           padding=1)
            want = naive_conv2d(x, w, b, stride, 1)
        else:
            x = rng.standard_normal((1, 3, 2, 7, 9))
            w = rng.standard_normal((4, 3, 2, 3, 3))
            y = ops.conv3d(Tensor(x), Tensor(w), Tensor(b), padding=(0, 1, 1))
            want = naive_conv3d(x, w, b, (0, 1, 1))
        assert y.shape == want.shape
        assert np.abs(y.data - want).max() < 1e-12

        gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
        axes = (0,) + tuple(range(2, want.ndim))
        bshape = (1, 4) + (1,) * (want.ndim - 2)
        for training in (False, True):
            rm, rv = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
            with no_grad():
                z = ops.batch_norm(y, Tensor(gamma), Tensor(beta), rm, rv,
                                   training=training)
            mu, var = ((want.mean(axis=axes), want.var(axis=axes))
                       if training else (rm, rv))
            ref = (gamma.reshape(bshape) * (want - mu.reshape(bshape))
                   / np.sqrt(var.reshape(bshape) + 1e-5)
                   + beta.reshape(bshape))
            assert np.abs(z.data - ref).max() < 1e-12


class TestBatchNorm:
    def _stats_identity_input(self, rng):
        # Per-channel mean 0, variance 1 by construction.
        x = rng.standard_normal((4, 3, 5, 5))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        return x

    def test_normalized_input_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(self._stats_identity_input(rng))
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        rm, rv = np.zeros(3), np.ones(3)
        y = ops.batch_norm(x, gamma, beta, rm, rv, training=True, eps=1e-12)
        assert np.abs(y.data - x.data).max() < 1e-6

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        gamma = Tensor(np.zeros(3))
        beta = Tensor(np.array([1.0, -2.0, 0.25]))
        y = ops.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3),
                           training=True)
        for c in range(3):
            assert (y.data[:, c] == beta.data[c]).all()

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 5, 5))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        eps = 1e-5
        y = ops.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta),
                           np.zeros(4), np.ones(4), training=True, eps=eps)
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        want = gamma.reshape(1, 4, 1, 1) * (x - mu) / np.sqrt(var + eps) \
            + beta.reshape(1, 4, 1, 1)
        assert np.abs(y.data - want).max() < 1e-12

    def test_zero_variance_channel_is_finite(self):
        x = Tensor(np.full((2, 1, 3, 3), 5.0))
        y = ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                           np.zeros(1), np.ones(1), training=True)
        assert np.isfinite(y.data).all()

    def test_eval_uses_running_stats(self):
        x = Tensor(np.array([[[[2.0, 4.0]]]]))
        rm, rv = np.array([1.0]), np.array([4.0])
        y = ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                           rm, rv, training=False, eps=0.0)
        assert np.allclose(y.data, (x.data - 1.0) / 2.0)

    def test_running_stats_updated_in_train(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)) * 2 + 1)
        rm, rv = np.zeros(2), np.ones(2)
        ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       rm, rv, training=True)
        assert not np.allclose(rm, 0.0)
        mu = x.data.mean(axis=(0, 2, 3))
        assert np.allclose(rm, 0.1 * mu)

    @pytest.mark.parametrize("training", [False, True])
    def test_unrecorded_output_is_the_recorded_one_in_a_new_buffer(
            self, training):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        gamma = Tensor(rng.standard_normal(3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)
        rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        before = x.data.copy()
        with no_grad():
            lean = ops.batch_norm(x, gamma, beta, rm.copy(), rv.copy(),
                                  training=training)
        recorded = ops.batch_norm(x, gamma, beta, rm.copy(), rv.copy(),
                                  training=training)
        clear_record()
        assert np.array_equal(x.data, before)
        assert not np.shares_memory(lean.data, x.data)
        assert np.array_equal(lean.data, recorded.data)

    def test_single_value_per_channel_rejected(self):
        x = Tensor(np.zeros((1, 2, 1, 1)))
        with pytest.raises(ShapeError):
            ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           np.zeros(2), np.ones(2), training=True)


class TestElementwise:
    def test_one_minus(self):
        assert ops.one_minus(Tensor(np.array(0.3))).data == pytest.approx(0.7)

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(Tensor(np.array(0.0))).data == pytest.approx(0.5)

    def test_sigmoid_saturates_safely(self):
        y = ops.sigmoid(Tensor(np.array([-1000.0, -40.0, 40.0, 1000.0])))
        assert np.isfinite(y.data).all()
        assert y.data[0] == 0.0 and y.data[-1] == 1.0

    def test_sigmoid_matches_both_sided_formula(self):
        d = np.random.default_rng(3).standard_normal(4096).astype(np.float32)
        d *= 8.0
        want = np.empty_like(d)
        pos = d >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        want[~pos] = np.exp(d[~pos]) / (1.0 + np.exp(d[~pos]))
        assert np.array_equal(ops.sigmoid(Tensor(d)).data, want)

    def test_sigmoid_non_finite_inputs(self):
        y = ops.sigmoid(Tensor(np.array([-np.inf, np.inf, np.nan]))).data
        assert y[0] == 0.0 and y[1] == 1.0 and np.isnan(y[2])

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)],
                             ids=["0d", "1d", "3d"])
    def test_sigmoid_leaves_input_alone(self, shape):
        d = np.random.default_rng(5).standard_normal(shape) * 8.0
        x = Tensor(d.copy())
        with no_grad():
            y = ops.sigmoid(x)
        assert y.shape == shape
        assert np.array_equal(x.data, d)
        assert not np.shares_memory(y.data, x.data)

    def test_relu(self):
        y = ops.relu(Tensor(np.array([-2.0, 0.0, 3.0])))
        assert (y.data == [0.0, 0.0, 3.0]).all()

    def test_mismatched_shapes_rejected(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((3, 2)))
        for op in (ops.add, ops.mul):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_general_broadcasting_rejected(self):
        # Per-row broadcasting is outside the supported cases.
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((3,)))
        with pytest.raises(ShapeError):
            ops.add(a, b)
        # mul broadcasts only a same-rank second operand, and only along
        # its size-1 axes; add broadcasts nothing.
        for x, y in ((a, b), (Tensor(np.zeros((2, 1))), a),
                     (a, Tensor(np.zeros((2, 2))))):
            with pytest.raises(ShapeError):
                ops.mul(x, y)
        with pytest.raises(ShapeError):
            ops.add(a, Tensor(np.zeros((2, 1))))

    def test_scalar_operands(self):
        a = Tensor(np.array([1.0, 2.0]))
        assert np.allclose(ops.add(a, 1.5).data, [2.5, 3.5])
        assert np.allclose(ops.one_minus(a).data, [0.0, -1.0])
        assert np.allclose(ops.mul(a, -2.0).data, [-2.0, -4.0])
        assert np.allclose(ops.mul(2.0, a).data, [2.0, 4.0])

    def test_clamp(self):
        # bce clips p into [lo, hi]; no gradient reaches a clipped value.
        p = Tensor(np.array([-1.0, 0.1, 0.5, 0.9, 2.0]), requires_grad=True)
        t = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        y = ops.bce(p, t, 0.1, 0.9)
        pc = np.array([0.1, 0.1, 0.5, 0.9, 0.9])
        want = -np.mean(t * np.log(pc) + (1 - t) * np.log(1 - pc))
        assert y.item() == pytest.approx(want, rel=1e-15)
        backward(y)
        assert (p.grad[[0, 1, 3, 4]] == 0.0).all() and p.grad[2] != 0.0

    def test_narrow_is_a_view_with_checked_range(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        y = ops.narrow(x, 2, 1, 3)
        assert np.shares_memory(y.data, x.data)
        assert np.array_equal(y.data, x.data[:, :, 1:3])
        for axis, start, stop in ((3, 0, 1), (1, 2, 2), (1, -1, 2),
                                  (1, 0, 4)):
            with pytest.raises(ShapeError):
                ops.narrow(x, axis, start, stop)

    def test_narrow_scatters_its_gradient(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        backward(ops.sum_all(ops.mul(ops.narrow(x, 1, 1, 3), 2.0)))
        assert np.array_equal(x.grad, [[0, 2, 2, 0, 0]] * 2)

    def test_concat_and_shapes(self):
        a = Tensor(np.ones((1, 2, 3, 3)))
        b = Tensor(np.zeros((1, 4, 3, 3)))
        y = ops.concat([a, b], axis=1)
        assert y.shape == (1, 6, 3, 3)
        with pytest.raises(ShapeError):
            ops.concat([a, Tensor(np.zeros((1, 4, 2, 3)))], axis=1)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4))
        y = ops.global_avg_pool(Tensor(x))
        assert y.shape == (2, 3, 1, 1)
        assert np.allclose(y.data, x.mean(axis=(2, 3), keepdims=True))

    def test_matvec_matches_numpy(self):
        # nn.Linear is a matrix-vector product run as a 1x1 convolution.
        from arcd.nn import Linear
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4))
        layer = Linear(4, 5, rng=rng, dtype=np.float64)
        layer.bias.data[:] = rng.standard_normal(5)
        y = layer(Tensor(x[:, :, None, None]))
        assert y.shape == (3, 5, 1, 1)
        assert np.allclose(y.data[:, :, 0, 0],
                           x @ layer.weight.data.T + layer.bias.data)

    def test_scale_ops(self):
        # The channel gate [N,C,1,1] and the attention map [N,1,H,W] are
        # both mul broadcasts; each gradient sums over the broadcast axes.
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        s = Tensor(rng.standard_normal((2, 3, 1, 1)), requires_grad=True)
        m = Tensor(rng.standard_normal((2, 1, 4, 4)), requires_grad=True)
        assert np.array_equal(ops.mul(x, s).data, x.data * s.data)
        assert np.array_equal(ops.mul(x, m).data, x.data * m.data)
        backward(ops.sum_all(ops.add(ops.mul(x, s), ops.mul(x, m))))
        assert s.grad.shape == s.shape and m.grad.shape == m.shape
        assert np.allclose(s.grad, x.data.sum(axis=(2, 3), keepdims=True))
        assert np.allclose(m.grad, x.data.sum(axis=1, keepdims=True))
        assert np.allclose(x.grad, s.data + m.data)

    def test_stack_time(self):
        a = Tensor(np.ones((1, 2, 3, 3)))
        b = Tensor(np.zeros((1, 2, 3, 3)))
        y = ops.stack_time(a, b)
        assert y.shape == (1, 2, 2, 3, 3)
        assert (y.data[:, :, 0] == 1.0).all() and (y.data[:, :, 1] == 0.0).all()


class TestUpsample:
    def test_bilinear_checkerboard_hand_grid(self):
        # 2x2 checkerboard [[1,0],[0,1]] doubled with half-pixel centers.
        # Row weights per output index: (1,0), (.75,.25), (.25,.75), (0,1);
        # out[i,j] = r[i,0]*c[j,0] + r[i,1]*c[j,1] for this input.
        x = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
        y = ops.upsample_bilinear(x, 2)
        weights = np.array([[1.0, 0.0], [0.75, 0.25], [0.25, 0.75], [0.0, 1.0]])
        want = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                want[i, j] = (weights[i, 0] * weights[j, 0]
                              + weights[i, 1] * weights[j, 1])
        assert np.abs(y.data[0, 0] - want).max() < 1e-15

    def test_bilinear_preserves_constants(self):
        x = Tensor(np.full((1, 2, 3, 3), 0.7))
        for factor in (2, 4, 8):
            y = ops.upsample_bilinear(x, factor)
            assert y.shape == (1, 2, 3 * factor, 3 * factor)
            assert np.abs(y.data - 0.7).max() < 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4, 2)),
                   requires_grad=True)
        backward(ops.sum_all(x))
        assert (x.grad == 1.0).all()

    def test_quadratic_gives_2x(self):
        x = Tensor(np.random.default_rng(1).standard_normal((5, 5)),
                   requires_grad=True)
        backward(ops.sum_all(ops.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_gradients_accumulate_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ops.add(ops.mul(x, 3.0), ops.mul(x, x))
        backward(ops.sum_all(y))
        assert np.allclose(x.grad, 3.0 + 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(ops.mul(x, 1.0))

    def test_concat_distributes_exactly(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        weights = rng.standard_normal((2, 8))
        backward(ops.sum_all(ops.mul(ops.concat([a, b], axis=1),
                                     Tensor(weights))))
        assert np.array_equal(a.grad, weights[:, :3])
        assert np.array_equal(b.grad, weights[:, 3:])

    def test_record_consumed_once(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ops.sum_all(ops.mul(x, x))
        assert record_length() == 2
        backward(y)
        assert record_length() == 0

    def test_only_leaves_keep_gradients(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        unused = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        h = ops.relu(ops.mul(x, w))
        z = ops.add(ops.sigmoid(h), x)
        loss = ops.sum_all(ops.mul(z, z))
        backward(loss)
        assert record_length() == 0
        for t in (h, z, loss):
            assert t.grad is None
        assert x.grad is not None and w.grad is not None
        assert unused.grad is None
        s = 1.0 / (1.0 + np.exp(-np.maximum(x.data * w.data, 0.0)))
        dz = 2.0 * (s + x.data)
        dh = dz * s * (1.0 - s) * (x.data * w.data > 0.0)
        assert np.allclose(x.grad, dz + dh * w.data, rtol=1e-12)
        assert np.allclose(w.grad, dh * x.data, rtol=1e-12)

    def test_shared_add_gradient_is_not_aliased(self):
        # add hands one array to both inputs; growing a's gradient by its
        # earlier use, whose adjoint runs later, must not change b's.
        rng = np.random.default_rng(6)
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        c = rng.standard_normal(4)
        first = ops.sum_all(ops.mul(a, 3.0))
        y = ops.add(a, b)
        loss = ops.add(first, ops.sum_all(ops.mul(y, Tensor(c))))
        backward(loss)
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(b.grad, c)
        assert np.array_equal(a.grad, c + 3.0)

    def test_no_grad_suppresses_recording(self):
        clear_record()
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = ops.mul(x, x)
        assert record_length() == 0
        assert not y.requires_grad

    def test_deterministic_forward_backward(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
            y = ops.relu(ops.conv2d(x, w, None, padding=1))
            backward(ops.sum_all(ops.mul(y, y)))
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestArct:
    def test_roundtrip_exact(self, tmp_path):
        from arcd.autodiff import arct
        rng = np.random.default_rng(11)
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        path = tmp_path / "t.arct"
        arct.save(path, arr)
        back = arct.load(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_rank0_roundtrip(self):
        import io
        from arcd.autodiff import arct
        buf = io.BytesIO()
        arct.write_record(buf, np.array(2.5, dtype=np.float32))
        assert buf.getvalue()[5] == 0          # rank byte, no dimensions
        back = arct.read_record(io.BytesIO(buf.getvalue()))
        assert back.shape == () and back[()] == np.float32(2.5)

    def test_header_layout(self, tmp_path):
        from arcd.autodiff import arct
        path = tmp_path / "t.arct"
        arct.save(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"ARCT"
        assert raw[4] == 1 and raw[5] == 2
        assert raw[6:14] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert len(raw) == 14 + 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        from arcd.autodiff import arct
        path = tmp_path / "bad.arct"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(arct.ArctFormatError, match="magic"):
            arct.load(path)

    def test_truncation_rejected(self, tmp_path):
        from arcd.autodiff import arct
        path = tmp_path / "t.arct"
        arct.save(path, np.ones((4, 4), dtype=np.float32))
        clipped = path.read_bytes()[:-8]
        path.write_bytes(clipped)
        with pytest.raises(arct.ArctFormatError, match="truncated"):
            arct.load(path)

    @pytest.mark.parametrize("dims", [(2 ** 31, 2 ** 31), (2 ** 20, 2 ** 20)])
    def test_oversized_header_rejected(self, tmp_path, dims):
        # 2^62 elements are more bytes than one read can return; 2^40 are
        # not, but far more than the file holds.
        from arcd.autodiff import arct
        path = tmp_path / "big.arct"
        path.write_bytes(b"ARCT\x01\x02" + struct.pack("<2I", *dims)
                         + bytes(16))
        with open(path, "rb") as f, pytest.raises(arct.ArctFormatError):
            arct.read_record(f)

    def test_oversized_header_on_a_pipe_rejected(self):
        # A pipe cannot be measured before reading.  Asking it for the
        # 4 TiB the header claims fails in the allocator at once; bounded
        # reads find the stream short after 16 bytes.
        import os
        from arcd.autodiff import arct
        r, w = os.pipe()
        with os.fdopen(w, "wb") as fw:
            fw.write(b"ARCT\x01\x02" + struct.pack("<2I", 2 ** 20, 2 ** 20)
                     + bytes(16))
        with os.fdopen(r, "rb") as f:
            assert not f.seekable()
            with pytest.raises(arct.ArctFormatError, match="got 16"):
                arct.read_record(f)

    @pytest.mark.parametrize("chunk", [None, 4096])
    def test_multi_chunk_roundtrip_on_a_non_seekable_stream(self, monkeypatch,
                                                            chunk):
        import io
        from arcd.autodiff import arct

        class Unseekable(io.RawIOBase):
            """Hands out at most 1000 bytes per read, like a pipe."""

            def __init__(self, data):
                self._src = io.BytesIO(data)

            def readable(self):
                return True

            def readinto(self, b):
                return self._src.readinto(memoryview(b)[:1000])

        if chunk is not None:
            monkeypatch.setattr(arct, "_CHUNK", chunk)
        arr = np.random.default_rng(12).standard_normal(
            (3, 2 * arct._CHUNK // 4 + 5)).astype(np.float32)
        buf = io.BytesIO()
        arct.write_record(buf, arr)
        arct.write_record(buf, arr[:1, :7])
        stream = Unseekable(buf.getvalue())
        assert not stream.seekable()
        assert np.array_equal(arct.read_record(stream), arr)
        assert np.array_equal(arct.read_record(stream), arr[:1, :7])
        clipped = Unseekable(buf.getvalue()[:-3])
        assert np.array_equal(arct.read_record(clipped), arr)
        with pytest.raises(arct.ArctFormatError, match="truncated"):
            arct.read_record(clipped)
