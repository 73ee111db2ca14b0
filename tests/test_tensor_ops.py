"""Forward-path checks of the tensor primitives against independent oracles."""

import _thread
import contextlib
import hashlib
import multiprocessing
import os
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from arcd.autodiff import ShapeError, Tensor, backward, no_grad, ops
from arcd.autodiff.tensor import clear_record, record_length

import predict_digest


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
        ((5, 6, 1, 1), 1, 0),   # 1x1 at stride 1: the pointwise matmul
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


class TestPointwiseConv:
    """A 1x1 stride-1 unpadded conv is one batched matmul, not the taps."""

    @staticmethod
    def _loop_adjoint(x, w, g):
        """dL/dx, dL/dw, dL/db of y[n,k] = b[k] + sum_c w[k,c] x[n,c] by
        explicit loops, given dL/dy = g."""
        n, c, h, width = x.shape
        k = w.shape[0]
        gx, gw, gb = np.zeros(x.shape), np.zeros((k, c)), np.zeros(k)
        for ni in range(n):
            for i in range(h):
                for j in range(width):
                    for ki in range(k):
                        gb[ki] += g[ni, ki, i, j]
                        for ci in range(c):
                            gx[ni, ci, i, j] += w[ki, ci] * g[ni, ki, i, j]
                            gw[ki, ci] += g[ni, ki, i, j] * x[ni, ci, i, j]
        return gx, gw.reshape(k, c, 1, 1), gb

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_loop_oracle_forward_and_adjoint(self, n, with_bias):
        rng = np.random.default_rng(50 + n + with_bias)
        x = Tensor(rng.standard_normal((n, 5, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 5, 1, 1)), requires_grad=True)
        b = (Tensor(rng.standard_normal(6), requires_grad=True)
             if with_bias else None)
        g = rng.standard_normal((n, 6, 3, 4))
        y = ops.conv2d(x, w, b)
        want = naive_conv2d(x.data, w.data,
                            b.data if with_bias else np.zeros(6), 1, 0)
        assert y.shape == want.shape
        assert np.abs(y.data - want).max() < 1e-12
        backward(ops.sum_all(ops.mul(y, Tensor(g))))
        gx, gw, gb = self._loop_adjoint(x.data, w.data[:, :, 0, 0], g)
        assert np.abs(x.grad - gx).max() < 1e-12
        assert np.abs(w.grad - gw).max() < 1e-12
        if with_bias:
            assert np.abs(b.grad - gb).max() < 1e-12

    def test_builds_no_phase_buffer(self, monkeypatch):
        def no_phases(*args, **kwargs):
            raise AssertionError("a 1x1 conv went through the tap core")

        monkeypatch.setattr(ops, "_phases", no_phases)
        rng = np.random.default_rng(55)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 1, 1)), requires_grad=True)
        backward(ops.sum_all(ops.conv2d(x, w, Tensor(np.zeros(2)))))
        assert x.grad.shape == x.shape and w.grad.shape == w.shape


class TestConv3d:
    def test_temporal_dot_product(self):
        x = np.array([3.0, 5.0]).reshape(1, 1, 2, 1, 1)
        w = Tensor(np.array([2.0, 7.0]).reshape(1, 1, 2, 1, 1))
        b = Tensor(np.zeros(1))
        y = ops.conv3d(Tensor(x[:, :, 0]), Tensor(x[:, :, 1]), w, b)
        assert y.shape == (1, 1, 1, 1)
        assert y.data.item() == pytest.approx(2 * 3 + 7 * 5, abs=1e-15)

    def test_zero_input_broadcasts_bias(self):
        x = np.zeros((1, 2, 2, 3, 3))
        w = Tensor(np.zeros((4, 2, 2, 3, 3)))
        b = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        y = ops.conv3d(Tensor(x[:, :, 0]), Tensor(x[:, :, 1]), w, b,
                       padding=1)
        for k in range(4):
            assert (y.data[:, k] == b.data[k]).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 2, 4, 4))
        w = Tensor(rng.standard_normal((3, 2, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        got = ops.conv3d(Tensor(x[:, :, 0]), Tensor(x[:, :, 1]), w, b,
                         padding=1).data
        want = naive_conv3d(x, w.data, b.data, (0, 1, 1))[:, :, 0]
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12

    def test_equals_conv2d_with_time_folded_into_channels(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 2, 5, 6))
        first = Tensor(x[:, :, 0], requires_grad=True)
        second = Tensor(x[:, :, 1], requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        x2 = Tensor(x.reshape(2, 6, 5, 6), requires_grad=True)
        w2 = Tensor(w.data.reshape(4, 6, 3, 3), requires_grad=True)
        b2 = Tensor(b.data.copy(), requires_grad=True)
        seed = rng.standard_normal((2, 4, 5, 6))
        y3 = ops.conv3d(first, second, w, b, padding=1)
        backward(ops.sum_all(ops.mul(y3, Tensor(seed))))
        y2 = ops.conv2d(x2, w2, b2, padding=1)
        backward(ops.sum_all(ops.mul(y2, Tensor(seed))))
        assert y3.shape == (2, 4, 5, 6)
        assert np.array_equal(y3.data, y2.data)
        gx = np.stack([first.grad, second.grad], axis=2)
        assert np.array_equal(gx.reshape(x2.shape), x2.grad)
        assert np.array_equal(w.grad.reshape(w2.shape), w2.grad)
        assert np.array_equal(b.grad, b2.grad)

    @pytest.mark.parametrize("shape_second,shape_w,match", [
        ((1, 2, 4, 4), (3, 2, 3, 3, 3), "kt == T"),
        ((1, 2, 4, 5), (3, 2, 2, 3, 3), "shapes .* differ"),
    ])
    def test_unsupported_shapes_rejected(self, shape_second, shape_w, match):
        first = Tensor(np.zeros((1, 2, 4, 4)))
        second = Tensor(np.zeros(shape_second))
        w = Tensor(np.zeros(shape_w))
        with pytest.raises(ShapeError, match=match):
            ops.conv3d(first, second, w, None, padding=1)


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
            y = ops.conv3d(Tensor(x[:, :, 0]), Tensor(x[:, :, 1]), Tensor(w),
                           Tensor(b), padding=1)
            want = naive_conv3d(x, w, b, (0, 1, 1))[:, :, 0]
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


def split_calls(monkeypatch):
    """Let large outputs split as on a host with two CPUs; return the list
    that logs the block count of each call shared over two threads."""
    monkeypatch.setattr(ops, "_usable_cpus", lambda: 2)
    calls = []
    share = ops._share

    def logged(fn, blocks):
        calls.append(blocks)
        share(fn, blocks)

    monkeypatch.setattr(ops, "_share", logged)
    return calls


def helpers_ended(before, timeout=5.0):
    """Whether the count of running threads other than the main one falls
    back to ``before`` (its value ahead of a split call) in time."""
    end = time.monotonic() + timeout
    while _thread._count() != before:
        if time.monotonic() > end:
            return False
        time.sleep(0.001)
    return True


def logged_starts(monkeypatch=None):
    """Log the start of every thread; return the log."""
    started = []
    start = _thread.start_new_thread

    def logged(fn, args, *rest):
        started.append(fn)
        return start(fn, args, *rest)

    if monkeypatch is None:
        _thread.start_new_thread = logged
    else:
        monkeypatch.setattr(_thread, "start_new_thread", logged)
    return started


# (op, input shape at N = 1, weight shape, stride, padding): each output
# grid holds at least _SPLIT_BLOCKS column blocks at N = 1.
GATED_CONVS = {
    "3x3": ("conv2d", (1, 8, 190, 190), (16, 8, 3, 3), 1, 1),
    "stem": ("conv2d", (1, 3, 361, 361), (16, 3, 3, 3), 2, 1),
    "conv3d": ("conv3d", (1, 8, 2, 190, 190), (16, 8, 2, 3, 3), 1, 1),
    "pointwise": ("conv2d", (1, 16, 183, 183), (16, 16, 1, 1), 1, 0),
}


def gated_conv(case, n, dtype, with_bias=True):
    """Output of GATED_CONVS[case] at batch size n, and its bias."""
    op, xs, ws, stride, padding = GATED_CONVS[case]
    rng = np.random.default_rng(60 + n)
    x = rng.standard_normal((n,) + xs[1:]).astype(dtype)
    w = Tensor(rng.standard_normal(ws).astype(dtype))
    b = Tensor(rng.standard_normal(ws[0]).astype(dtype))
    if op == "conv3d":
        y = ops.conv3d(Tensor(x[:, :, 0]), Tensor(x[:, :, 1]), w,
                       b if with_bias else None, padding=padding)
    else:
        y = ops.conv2d(Tensor(x), w, b if with_bias else None, stride=stride,
                       padding=padding)
    assert y.dtype == dtype
    return y.data, b.data


def in_fork_child(task, timeout=30.0):
    """Run ``task()`` in a fork-context child and return what it returns,
    or None if it did not answer within ``timeout`` seconds."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        send.send(task())

    proc = ctx.Process(target=child)
    proc.start()
    send.close()
    try:
        return recv.recv() if recv.poll(timeout) else None
    finally:
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")


class TestShare:
    """``ops._share`` hands blocks to the calling thread and one helper
    thread from a shared counter."""

    @pytest.mark.parametrize("blocks", range(1, 21))
    def test_every_block_runs_once(self, blocks):
        before = _thread._count()
        ran = []

        def fn(i):
            ran.append((i, threading.get_ident()))
            time.sleep(0.01)

        ops._share(fn, blocks)
        assert sorted(i for i, _ in ran) == list(range(blocks))
        if blocks == 20:
            # 200 ms of sleeping blocks: the helper takes some of them.
            assert len({t for _, t in ran}) == 2
        assert helpers_ended(before)

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_exception_reaches_the_caller_after_both_threads(self, failing):
        before = _thread._count()
        caller = threading.get_ident()
        err = ValueError(f"{failing} block")
        entered, finished = [], []
        helper_started = threading.Event()

        def fn(i):
            entered.append(i)
            on_caller = threading.get_ident() == caller
            if not on_caller:
                helper_started.set()
            if on_caller == (failing == "caller"):
                raise err
            if on_caller:       # hold the block until the helper fails
                helper_started.wait(5.0)
            time.sleep(0.02)
            finished.append(i)

        with pytest.raises(ValueError) as info:
            ops._share(fn, 20)
        assert info.value is err
        assert helpers_ended(before)
        # The other thread finished its block in flight and took no more.
        assert sorted(entered) in ([0], [0, 1])
        assert len(finished) == len(entered) - 1


class TestTwoThreadConv:
    """A convolution whose output grid holds _SPLIT_BLOCKS column blocks or
    more shares its phase copies and column blocks between two threads,
    with the bytes of the serial path; everything smaller stays serial."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", sorted(GATED_CONVS))
    def test_split_output_is_the_serial_bytes(self, monkeypatch, case, n,
                                              dtype):
        calls = split_calls(monkeypatch)
        threaded = gated_conv(case, n, dtype)[0].tobytes()
        # Column blocks, and phase copies unless the conv is pointwise.
        assert len(calls) == (1 if case == "pointwise" else 2)
        assert all(blocks >= 2 for blocks in calls)
        monkeypatch.setattr(ops, "_splits", lambda *gate: False)
        assert gated_conv(case, n, dtype)[0].tobytes() == threaded
        assert len(calls) == (1 if case == "pointwise" else 2)

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("case", ["3x3", "pointwise"])
    def test_bias_in_the_block_is_the_bias_after(self, monkeypatch, case,
                                                 split):
        # At N = 1 each column block adds the bias after its last tap; the
        # sum is the one a pass over the finished output makes.
        calls = split_calls(monkeypatch)
        if not split:
            monkeypatch.setattr(ops, "_splits", lambda *gate: False)
        y, b = gated_conv(case, 1, np.float32)
        y0, _ = gated_conv(case, 1, np.float32, with_bias=False)
        assert y.tobytes() == (y0 + b[:, None, None]).tobytes()
        assert bool(calls) == split

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_split_phases_are_the_serial_bytes(self, monkeypatch, stride, n,
                                               m, dtype):
        calls = split_calls(monkeypatch)
        rng = np.random.default_rng(stride)
        parts = [rng.standard_normal((n, 8, 190, 190)).astype(dtype)
                 for _ in range(m)]
        hq = -(-(190 + 2) // stride)
        args = (parts, stride, 1, hq, hq, 2 * hq + 2)
        assert (ops._phases(*args, split=True).tobytes()
                == ops._phases(*args).tobytes())
        assert len(calls) == 1 and calls[0] >= 8

    def test_stem_at_256_starts_no_helper_thread(self, monkeypatch):
        # The 3-channel stride-2 stem of a 256x256 input: 4.06 blocks and
        # 7.2M multiply-adds, under both gates.
        split_calls(monkeypatch)
        started = logged_starts(monkeypatch)
        rng = np.random.default_rng(61)
        x = Tensor(rng.standard_normal((1, 3, 256, 256)).astype(np.float32))
        w = Tensor(rng.standard_normal((16, 3, 3, 3)).astype(np.float32))
        ops.conv2d(x, w, None, stride=2, padding=1)
        assert started == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_multiply_add_gate_shares_the_blocks(self, monkeypatch, n,
                                                 dtype):
        # A 64-channel 3x3 conv on a 64x64 map: 4.25 blocks of elements at
        # N = 1, under the element gate, but 161M multiply-adds.
        calls = split_calls(monkeypatch)
        rng = np.random.default_rng(62 + n)
        x = Tensor(rng.standard_normal((n, 64, 64, 64)).astype(dtype))
        w = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(dtype))
        b = Tensor(rng.standard_normal(64).astype(dtype))
        assert 64 * 66 * 66 < ops._SPLIT_BLOCKS * ops._BLOCK
        threaded = ops.conv2d(x, w, b, padding=1).data.tobytes()
        assert len(calls) == 2 and all(blocks >= 2 for blocks in calls)
        monkeypatch.setattr(ops, "_splits", lambda *gate: False)
        assert ops.conv2d(x, w, b, padding=1).data.tobytes() == threaded
        assert len(calls) == 2

    def test_below_the_gate_or_on_one_cpu_stays_serial(self, monkeypatch):
        calls = split_calls(monkeypatch)
        # One column block short of the gate: 16 x 181 x 181 < 8 x 64K.
        x = Tensor(np.ones((1, 16, 181, 181), dtype=np.float32))
        w = Tensor(np.ones((16, 16, 1, 1), dtype=np.float32))
        ops.conv2d(x, w, None)
        ops.relu(Tensor(np.ones((1, 8, 256, 255), dtype=np.float32)))
        assert calls == []
        monkeypatch.setattr(ops, "_usable_cpus", lambda: 1)
        gated_conv("3x3", 1, np.float32)
        ops.relu(Tensor(np.ones((1, 8, 256, 256), dtype=np.float32)))
        assert calls == []

    def test_cpu_count_falls_back_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert ops._usable_cpus() == (os.cpu_count() or 1)

    @needs_fork
    def test_forked_child_runs_a_gated_conv(self, monkeypatch):
        calls = split_calls(monkeypatch)
        want = gated_conv("3x3", 1, np.float32)[0].tobytes()
        assert len(calls) == 2
        step = training_step_digest()

        def child():
            return (gated_conv("3x3", 1, np.float32)[0].tobytes(),
                    training_step_digest(), len(calls))

        assert in_fork_child(child) == (want, step, 4)

    @needs_fork
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_child_pinned_to_one_cpu_starts_no_helper_thread(self):
        serial = gated_conv("3x3", 1, np.float32)[0].tobytes()
        step = training_step_digest()

        def child():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            started = logged_starts()
            return (gated_conv("3x3", 1, np.float32)[0].tobytes(),
                    training_step_digest(), started)

        assert in_fork_child(child) == (serial, step, [])


def training_step_digest():
    """sha256 of every parameter gradient of one float32 4x64x64 training
    step (forward, loss, backward) of a seed-0 ChangeDetector."""
    from arcd.loss import total_loss
    from arcd.network import ChangeDetector
    model = ChangeDetector(seed=0, dtype=np.float32)
    rng = np.random.default_rng(9)
    t1, t2 = (Tensor(rng.uniform(0.0, 1.0, (4, 3, 64, 64)).astype(np.float32))
              for _ in range(2))
    g = (rng.uniform(0.0, 1.0, (4, 1, 64, 64)) > 0.5).astype(np.float32)
    bundle = model(t1, t2)
    backward(total_loss(bundle.side_probs(), bundle.change,
                        bundle.uncertainty, g, model.cfg).total)
    digest = hashlib.sha256()
    for _, p in model.named_parameters():
        digest.update(p.grad.tobytes())
    return digest.hexdigest()


# (op, input shape without N, weight shape, stride, padding) of a 3x3,
# a stride-2 and a temporal convolution.
ADJOINT_CONVS = {
    "3x3": ("conv2d", (32, 32, 32), (32, 32, 3, 3), 1, 1),
    "stride-2": ("conv2d", (16, 64, 64), (32, 16, 3, 3), 2, 1),
    "conv3d": ("conv3d", (16, 2, 32, 32), (16, 16, 2, 3, 3), 1, 1),
}


def adjoint_inputs(case, n, dtype):
    """x, w, b and r of ``sum(conv(x, w, b) * r)`` for ADJOINT_CONVS[case]
    at batch size n."""
    _, xs, ws, stride, padding = ADJOINT_CONVS[case]
    grid = tuple((size + 2 * padding - k) // stride + 1
                 for size, k in zip(xs[-2:], ws[-2:]))
    rng = np.random.default_rng(80 + n)
    return tuple(rng.standard_normal(shape).astype(dtype) for shape in
                 ((n,) + xs, ws, ws[0], (n, ws[0]) + grid))


def adjoint_grads(case, n, dtype, weight_grad=True, input_grad=True):
    """Bytes of the input, weight and bias gradients (None where not
    required) of ``sum(conv(x, w, b) * r)`` for ADJOINT_CONVS[case] at
    batch size n.  A conv3d input gradient is its two maps' gradients
    stacked along the time axis."""
    op, _, _, stride, padding = ADJOINT_CONVS[case]
    xd, wd, bd, rd = adjoint_inputs(case, n, dtype)
    w = Tensor(wd, requires_grad=weight_grad)
    b = Tensor(bd, requires_grad=True)
    if op == "conv3d":
        xs = [Tensor(xd[:, :, t], requires_grad=input_grad) for t in (0, 1)]
        y = ops.conv3d(*xs, w, b, padding=padding)
    else:
        xs = [Tensor(xd, requires_grad=input_grad)]
        y = ops.conv2d(xs[0], w, b, stride=stride, padding=padding)
    backward(ops.sum_all(ops.mul(y, Tensor(rd))))
    gx = None
    if input_grad:
        gx = np.stack([x.grad for x in xs], axis=2).reshape(xd.shape)
    return [None if g is None else g.tobytes() for g in (gx, w.grad, b.grad)]


def tap_adjoint(x, w, r, stride, padding):
    """float64 dL/dx, dL/dw and dL/db of L = sum(conv(x, w, b) * r) for a
    2-d or 3-d convolution, one kernel tap at a time, ``padding`` on the
    two spatial axes only.  A 3-d r may lack the time axis, which
    conv3d's kernel spans."""
    x, w, r = (a.astype(np.float64) for a in (x, w, r))
    r = r.reshape(r.shape[:2] + (1,) * (x.ndim - r.ndim) + r.shape[2:])
    pads = (0,) * (x.ndim - 4) + (padding, padding)
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in pads])
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for tap in np.ndindex(*w.shape[2:]):
        window = (slice(None), slice(None)) + tuple(
            slice(t, t + stride * (size - 1) + 1, stride)
            for t, size in zip(tap, r.shape[2:]))
        gw[(slice(None), slice(None)) + tap] = np.einsum(
            "nk...,nc...->kc", r, xp[window], optimize=True)
        gxp[window] += np.einsum("nk...,kc->nc...", r, w[(...,) + tap],
                                 optimize=True)
    crop = (slice(None), slice(None)) + tuple(
        slice(p, p + size) for p, size in zip(pads, x.shape[2:]))
    return gxp[crop], gw, r.sum(axis=(0,) + tuple(range(2, r.ndim)))


class TestConvAdjoint:
    """A convolution's adjoint runs on the calling thread, matches a
    tap-by-tap oracle, and a gradient it computes alone has the bytes it
    has when both are computed."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("case", sorted(ADJOINT_CONVS))
    def test_adjoint_matches_tap_oracle(self, case, n, dtype):
        _, _, _, stride, padding = ADJOINT_CONVS[case]
        x, w, _, r = adjoint_inputs(case, n, dtype)
        wants = tap_adjoint(x, w, r, stride, padding)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for got, want in zip(adjoint_grads(case, n, dtype), wants):
            got = np.frombuffer(got, dtype=dtype).reshape(want.shape)
            assert np.abs(got - want).max() / np.abs(want).max() < tol

    @pytest.mark.parametrize("needs", ["weight", "input"])
    @pytest.mark.parametrize("case", sorted(ADJOINT_CONVS))
    def test_one_gradient_is_the_bytes_of_both(self, monkeypatch, case,
                                               needs):
        split_calls(monkeypatch)
        both = adjoint_grads(case, 4, np.float32)
        started = logged_starts(monkeypatch)
        one = adjoint_grads(case, 4, np.float32,
                            weight_grad=needs == "weight",
                            input_grad=needs == "input")
        assert started == []
        kept = 1 if needs == "weight" else 0
        assert one[kept] == both[kept] and one[2] == both[2]
        assert one[1 - kept] is None


# [N, 8, 256, 256] holds exactly _SPLIT_BLOCKS blocks of elements at N = 1.
MAP = (8, 256, 256)


def _batch_norm_eval(x, rng):
    c = x.shape[1]
    gamma, beta = (Tensor(rng.standard_normal(c).astype(x.dtype))
                   for _ in range(2))
    rm = rng.standard_normal(c).astype(x.dtype)
    rv = rng.uniform(0.5, 2.0, c).astype(x.dtype)
    return ops.batch_norm(x, gamma, beta, rm, rv, training=False)


def _like(rng, x, shape):
    return Tensor(rng.uniform(-2.0, 2.0, shape).astype(x.dtype))


# Each case maps (x, y, rng), two [N, 8, 256, 256] inputs and a generator,
# to the op's output.
GATED_ELEMENTWISE = {
    "relu": lambda x, y, rng: ops.relu(x),
    "sigmoid": lambda x, y, rng: ops.sigmoid(x),
    "add": lambda x, y, rng: ops.add(x, y),
    "add-scalar": lambda x, y, rng: ops.add(x, 0.75),
    "mul": lambda x, y, rng: ops.mul(x, y),
    "mul-scalar": lambda x, y, rng: ops.mul(x, -1.5),
    "mul-gate": lambda x, y, rng: ops.mul(
        x, _like(rng, x, (x.shape[0], x.shape[1], 1, 1))),
    "mul-map": lambda x, y, rng: ops.mul(
        x, _like(rng, x, (x.shape[0], 1) + x.shape[2:])),
    "batch_norm": lambda x, y, rng: _batch_norm_eval(x, rng),
    "concat": lambda x, y, rng: ops.concat(
        [x, _like(rng, x, (x.shape[0], 3) + x.shape[2:]), y], axis=1),
}


def sigmoid_by_masked_copy(d):
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    y = 1.0 / den
    np.copyto(y, e / den, where=d < 0)
    return y


class TestTwoThreadElementwise:
    """Elementwise primitives on outputs of _SPLIT_BLOCKS blocks or more
    compute row blocks on two threads, with the bytes of the serial
    path."""

    @staticmethod
    def output(case, n, dtype):
        rng = np.random.default_rng(70 + n)
        x, y = (Tensor((6.0 * rng.standard_normal((n,) + MAP)).astype(dtype))
                for _ in range(2))
        with no_grad():
            out = GATED_ELEMENTWISE[case](x, y, rng)
        assert out.dtype == dtype
        return out.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", sorted(GATED_ELEMENTWISE))
    def test_split_output_is_the_serial_bytes(self, monkeypatch, case, n,
                                              dtype):
        calls = split_calls(monkeypatch)
        threaded = self.output(case, n, dtype)
        assert len(calls) == 1 and calls[0] >= 2
        monkeypatch.setattr(ops, "_splits", lambda elements: False)
        assert self.output(case, n, dtype) == threaded
        assert len(calls) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_selects_the_masked_copy_bytes(self, monkeypatch, dtype):
        # The masked copy's bytes, split and serial, on NaN, -NaN,
        # infinities, signed zeros and +-1e30 among random values.
        calls = split_calls(monkeypatch)
        rng = np.random.default_rng(75)
        d = (6.0 * rng.standard_normal((1,) + MAP)).astype(dtype)
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                             1e30, -1e30], dtype)
        flat = d.reshape(-1)
        flat[rng.choice(flat.size, 4000, replace=False)] = np.resize(
            specials, 4000)
        assert np.signbit(specials[1]) and np.signbit(specials[5])
        with no_grad():
            threaded = ops.sigmoid(Tensor(d)).data.tobytes()
            assert len(calls) == 1
            monkeypatch.setattr(ops, "_splits", lambda elements: False)
            serial = ops.sigmoid(Tensor(d)).data.tobytes()
            small = ops.sigmoid(Tensor(specials)).data.tobytes()
        assert threaded == serial == sigmoid_by_masked_copy(d).tobytes()
        assert small == sigmoid_by_masked_copy(specials).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upsampling_above_the_gate_shares_its_bands(self, monkeypatch,
                                                        dtype):
        # [1,1,256,256] x4: the row pass ([256, 1024]) is under the gate,
        # the column pass ([1024, 1024]) above it.
        calls = split_calls(monkeypatch)
        started = logged_starts(monkeypatch)
        x = Tensor(np.random.default_rng(63).standard_normal(
            (1, 1, 256, 256)).astype(dtype))
        threaded = ops.upsample_bilinear(x, 4).data.tobytes()
        assert len(started) == 1 and calls == [1024 // ops._BAND]
        monkeypatch.setattr(ops, "_splits", lambda *gate: False)
        assert ops.upsample_bilinear(x, 4).data.tobytes() == threaded
        assert len(started) == 1


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

    def test_groups_match_sequential_calls(self):
        # Two groups normalize like two calls on the halves, one after
        # the other: outputs, running statistics and all three gradients.
        rng = np.random.default_rng(5)
        xd = rng.standard_normal((6, 3, 4, 5)) * 2.0 + 0.5
        xd[3:] = xd[3:] * 0.3 - 1.0     # the halves' statistics differ
        gd, bd = rng.standard_normal(3), rng.standard_normal(3)
        seed = rng.standard_normal(xd.shape)
        stats = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)

        def leaves():
            return (Tensor(xd, requires_grad=True),
                    Tensor(gd, requires_grad=True),
                    Tensor(bd, requires_grad=True))

        x, gamma, beta = leaves()
        rm, rv = stats[0].copy(), stats[1].copy()
        y = ops.batch_norm(x, gamma, beta, rm, rv, training=True, groups=2)
        backward(ops.sum_all(ops.mul(y, Tensor(seed))))

        x1, gamma1, beta1 = leaves()
        rm1, rv1 = stats[0].copy(), stats[1].copy()
        halves = [ops.batch_norm(ops.narrow(x1, 0, a, a + 3), gamma1, beta1,
                                 rm1, rv1, training=True) for a in (0, 3)]
        y1 = ops.concat(halves, axis=0)
        backward(ops.sum_all(ops.mul(y1, Tensor(seed))))

        assert np.abs(y.data - y1.data).max() < 1e-12
        assert np.abs(rm - rm1).max() < 1e-12
        assert np.abs(rv - rv1).max() < 1e-12
        for a, b in ((x, x1), (gamma, gamma1), (beta, beta1)):
            assert np.abs(a.grad - b.grad).max() < 1e-12

    def test_indivisible_batch_rejected(self):
        x = Tensor(np.zeros((3, 2, 4, 4)))
        with pytest.raises(ShapeError, match="3 .*axis 0.* 2 equal groups"):
            ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           np.zeros(2), np.ones(2), training=True, groups=2)

    @pytest.mark.parametrize("wide", ["gamma", "beta"])
    @pytest.mark.parametrize("recorded", [False, True])
    @pytest.mark.parametrize("training", [False, True])
    def test_gamma_or_beta_of_another_dtype_rejected(self, training,
                                                     recorded, wide):
        # Accepted, a float64 gamma and beta made a float32 input's output
        # float64 when recorded and float32 under no_grad.
        x = Tensor(np.ones((2, 2, 4, 4), np.float32))
        gamma, beta = (Tensor(np.ones(2, np.float64 if name == wide
                                      else np.float32), requires_grad=True)
                       for name in ("gamma", "beta"))
        rm, rv = np.zeros(2, np.float32), np.ones(2, np.float32)
        with contextlib.nullcontext() if recorded else no_grad():
            with pytest.raises(ShapeError, match="dtype float32"):
                ops.batch_norm(x, gamma, beta, rm, rv, training=training)
        assert record_length() == 0

    def test_eval_ignores_groups(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 2, 4, 4)))
        rm, rv = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)
        args = (Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv)
        plain = ops.batch_norm(x, *args, training=False)
        grouped = ops.batch_norm(x, *args, training=False, groups=2)
        assert np.array_equal(plain.data, grouped.data)

    @staticmethod
    def _reference(x, gamma, beta, rm, rv, seed, training, update, groups,
                   eps):
        """Output, running statistics after the call (updated in place
        when ``update``) and the three gradients for the upstream gradient
        ``seed``, one group at a time on the [N, C, ...] layout: numpy
        ``mean``/``var``, then
        (x - mean) * istd * gamma + beta, and the closed-form adjoint in
        the same operation order."""
        c = x.shape[1]
        axes = (0,) + tuple(range(2, x.ndim))
        bshape = (1, c) + (1,) * (x.ndim - 2)
        scale, shift = gamma.reshape(bshape), beta.reshape(bshape)
        n = x.shape[0] // groups if training else x.shape[0]
        xhat, gx = np.empty_like(x), np.empty_like(x)
        for lo in range(0, x.shape[0], n):
            xs, gs = x[lo:lo + n], seed[lo:lo + n]
            m = xs.size // c
            if training:
                mu = xs.mean(axis=axes, keepdims=True)
                var = xs.var(axis=axes, keepdims=True)
                if update:
                    rm *= 1.0 - ops.BN_MOMENTUM
                    rm += ops.BN_MOMENTUM * mu.reshape(c)
                    rv *= 1.0 - ops.BN_MOMENTUM
                    rv += ops.BN_MOMENTUM * var.reshape(c) * (m / (m - 1))
            else:
                mu = rm.astype(x.dtype).reshape(bshape)
                var = rv.astype(x.dtype).reshape(bshape)
            istd = 1.0 / np.sqrt(var + x.dtype.type(eps))
            xh = (xs - mu) * istd
            dxhat = gs * scale
            if training:
                s1 = dxhat.sum(axis=axes, keepdims=True)
                s2 = (dxhat * xh).sum(axis=axes, keepdims=True)
                gx[lo:lo + n] = (istd / m) * (m * dxhat - s1 - xh * s2)
            else:
                gx[lo:lo + n] = dxhat * istd
            xhat[lo:lo + n] = xh
        y = xhat * scale + shift
        return (y, rm, rv, gx, (seed * xhat).sum(axis=axes),
                seed.sum(axis=axes))

    @pytest.mark.parametrize("mode", ["recorded", "unrecorded", "no_grad",
                                      "eval", "eval_unrecorded"])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 6), (4, 3, 2, 5, 6)],
                             ids=["rank4", "rank5"])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_bit_for_bit(self, dtype, groups, shape, mode):
        rng = np.random.default_rng(7)
        c = shape[1]
        xd = (rng.standard_normal(shape) * 1.7 + 0.4).astype(dtype)
        xd[shape[0] // 2:] *= dtype(0.3)     # the groups' statistics differ
        gd = rng.standard_normal(c).astype(dtype)
        bd = rng.standard_normal(c).astype(dtype)
        seed = rng.standard_normal(shape).astype(dtype)
        rm0 = rng.standard_normal(c).astype(dtype)
        rv0 = rng.uniform(0.5, 2.0, c).astype(dtype)
        training = mode in ("recorded", "unrecorded", "no_grad")
        recorded = mode in ("recorded", "eval")
        x, gamma, beta = (Tensor(a.copy(), requires_grad=recorded)
                          for a in (xd, gd, bd))
        rm, rv = rm0.copy(), rv0.copy()
        if mode == "no_grad":
            with no_grad():
                y = ops.batch_norm(x, gamma, beta, rm, rv, training=True,
                                   groups=groups)
        else:
            y = ops.batch_norm(x, gamma, beta, rm, rv, training=training,
                               groups=groups)
        if recorded:
            backward(ops.sum_all(ops.mul(y, Tensor(seed))))
        else:
            clear_record()

        updates = mode in ("recorded", "unrecorded")
        wy, wrm, wrv, wgx, wgg, wgb = self._reference(
            xd, gd, bd, rm0.copy(), rv0.copy(), seed, training, updates,
            groups, 1e-5)

        def same(a, b):
            return a.dtype == b.dtype and a.tobytes() == b.tobytes()

        assert same(y.data, wy)
        assert np.array_equal(x.data, xd)
        if updates:
            assert same(rm, wrm) and same(rv, wrv)
        else:
            assert same(rm, rm0) and same(rv, rv0)
        if recorded:
            assert same(x.grad, wgx)
            assert same(gamma.grad, wgg)
            assert same(beta.grad, wgb)

    def test_unrecorded_eval_allocates_only_its_output(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((1, 16, 256, 256)).astype(np.float32))
        gamma = Tensor(rng.standard_normal(16).astype(np.float32))
        beta = Tensor(rng.standard_normal(16).astype(np.float32))
        rm = rng.standard_normal(16).astype(np.float32)
        rv = rng.uniform(0.5, 2.0, 16).astype(np.float32)
        tracemalloc.start()
        try:
            with no_grad():
                y = ops.batch_norm(x, gamma, beta, rm, rv, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * y.data.nbytes


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


def dense_upsample(x, factor):
    """Bilinear upsampling as two dense contractions with the whole
    interpolation operators, the reference for the banded forward."""
    uh = ops._bilinear_matrix(factor, x.shape[2], x.dtype)
    uw = ops._bilinear_matrix(factor, x.shape[3], x.dtype)
    y = np.tensordot(x, uh, axes=(2, 1)).transpose(0, 1, 3, 2)
    return np.ascontiguousarray(np.tensordot(y, uw, axes=(3, 1)))


# The network's upsamplings of an s x s input: (channels, input side as a
# divisor of s, factor).
NETWORK_UPSAMPLES = [(16, 8, 2), (16, 16, 4), (16, 32, 8), (128, 32, 2),
                     (64, 16, 2), (32, 8, 2), (1, 4, 4), (1, 8, 2),
                     (1, 16, 4), (1, 32, 8)]
# The training loss also takes the side maps to full resolution.
LOSS_UPSAMPLES = [(1, 8, 8), (1, 16, 16), (1, 32, 32)]
# OpenBLAS kernels whose GEMM sums each band's input range as it sums the
# whole range on every shape above, so that the banded forward gives the
# dense contraction's bytes.  Haswell's (and Zen's, which maps to it)
# does not on some shapes.
DENSE_BYTES_KERNELS = ("SkylakeX", "Sandybridge", "Nehalem", "Katmai")


def assert_dense_upsample(y, x, factor, where):
    """``y`` is the dense upsampling of ``x``: its bytes on a kernel of
    DENSE_BYTES_KERNELS, else within 1e-6 (float32) or 1e-15 (float64)
    of the dense result's largest entry."""
    dense = dense_upsample(x, factor)
    if predict_digest.blas_core() in DENSE_BYTES_KERNELS:
        assert y.tobytes() == dense.tobytes(), where
    else:
        tol = 1e-6 if x.dtype == np.float32 else 1e-15
        assert np.abs(y - dense).max() <= tol * np.abs(dense).max(), where


class TestUpsample:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels,divisor,factor", NETWORK_UPSAMPLES)
    def test_banded_forward_is_the_dense_bytes(self, channels, divisor,
                                               factor, dtype):
        # Every side s = 32..1024 in steps of 32.
        rng = np.random.default_rng(64 + factor)
        for s in range(32, 1025, 32):
            side = s // divisor
            x = rng.standard_normal((1, channels, side, side)).astype(dtype)
            y = ops.upsample_bilinear(Tensor(x), factor).data
            assert_dense_upsample(y, x, factor, s)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_banded_forward_of_training_batches_is_the_dense_bytes(self, n,
                                                                   dtype):
        rng = np.random.default_rng(66 + n)
        for s in (32, 64, 128):
            for channels, divisor, factor in (NETWORK_UPSAMPLES
                                              + LOSS_UPSAMPLES):
                side = s // divisor
                x = rng.standard_normal((n, channels, side, side)).astype(
                    dtype)
                y = ops.upsample_bilinear(Tensor(x), factor).data
                assert_dense_upsample(y, x, factor, (s, factor))

    @pytest.mark.parametrize("shape,factor", [((1, 1, 512, 512), 4),
                                              ((1, 1, 128, 12), 2),
                                              ((1, 16, 150, 150), 2)])
    def test_banded_forward_is_within_rounding_elsewhere(self, shape,
                                                         factor):
        # Shapes outside the network's set may round differently from the
        # dense contraction, since the BLAS kernel depends on the shape.
        x = np.random.default_rng(65).standard_normal(shape)
        y = ops.upsample_bilinear(Tensor(x), factor).data
        assert np.abs(y - dense_upsample(x, factor)).max() <= 1e-12

    def test_bands_hold_every_weight(self):
        for factor in (1, 2, 3, 4, 8):
            for size in (1, 2, 5, 64, 65, 150):
                mat = ops._bilinear_matrix(factor, size, np.dtype(np.float64))
                bands = ops._bilinear_bands(factor, size)
                assert [b[:2] for b in bands] == [
                    (o, min(o + ops._BAND, size * factor))
                    for o in range(0, size * factor, ops._BAND)]
                for o0, o1, lo, hi in bands:
                    outside = mat[o0:o1].copy()
                    outside[:, lo:hi] = 0.0
                    assert not outside.any()

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

    def test_operator_cached_per_dtype(self):
        ops._bilinear_matrix.cache_clear()
        ops.upsample_bilinear(Tensor(np.ones((1, 1, 3, 5))), 2)
        ops.upsample_bilinear(Tensor(np.ones((1, 1, 3, 5))), 2)
        ops.upsample_bilinear(Tensor(np.ones((1, 1, 3, 5),
                                             dtype=np.float32)), 2)
        info = ops._bilinear_matrix.cache_info()
        assert (info.misses, info.hits) == (4, 2)
        wide = ops._bilinear_matrix(2, 5, np.dtype(np.float64))
        narrow = ops._bilinear_matrix(2, 5, np.dtype(np.float32))
        assert narrow.dtype == np.float32 and not narrow.flags.writeable
        assert np.array_equal(narrow, wide.astype(np.float32))

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
