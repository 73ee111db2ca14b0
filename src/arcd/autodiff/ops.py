"""Differentiable primitives.

Broadcasting is deliberately restricted to the cases the network uses:
python scalars against tensors, per-channel bias inside conv, and
``mul`` by a same-rank tensor with size 1 on some axes (the
squeeze-excite gate [N,C,1,1] and the single-channel attention maps
[N,1,H,W]).  Anything else raises a ShapeError.

Both convolutions share one core that sums one GEMM per kernel tap over
the stride phases of the zero-padded input, with no patch matrix; its
adjoint rebuilds the phases instead of keeping them alive until backward.
``conv3d`` accepts only a kernel spanning the whole time axis (kt == T,
no time padding, equal spatial padding), the one case the network uses:
``conv2d`` with time folded into channels, giving [N,K,H',W'].  At N = 1 a
convolution's output is a strided view of the top-left corner of its
output grid rather than a cropped copy; the bias adds to each column
block of the grid after its last tap.  A pointwise convolution (1x1
kernel, stride 1, no padding: squeeze-excite, transitions, heads, gates
and projections) skips the taps and the grid: it is a batched matmul
[K,C] @ [N,C,cols] per column block, and its adjoint two matmuls and a
sum.

One gate, ``_splits``, decides whether a forward output is computed on
two threads: it must hold at least ``_SPLIT_BLOCKS`` blocks of 64K
elements, or, for a convolution, two column blocks and ``_SPLIT_MACS``
multiply-adds; and the process must be allowed to run on two or more
CPUs.  The calling thread and a helper thread started for the call then
take blocks from one shared counter: a convolution's phase copies
(channel ranges) and column blocks, the bands of an upsampling pass, and
the row blocks of ``relu``, ``sigmoid``, ``add``, ``mul``, ``concat``,
``stack_time`` and ``batch_norm``'s normalization pass.  Each block
runs the serial path's operations on its elements (the same GEMM calls
and tap order, the same elementwise steps in the same order), so outputs
are bit-identical.  The large maps and convolutions of a 1024x1024
inference pass the gate; no map of a 256x256 input or of a 4x64x64
training step's forward does.

No sum or BLAS contraction is ever cut, since how it is cut decides its
rounding: reductions (``global_avg_pool``, training batch-norm
statistics, the losses, ``sum_all``) run serially, and no adjoint leaves
the calling thread.  ``ARCD_THREADS`` caps BLAS threads only and does
not select either path.

``upsample_bilinear`` applies its interpolation operator, which holds at
most two weights per row, one band of 64 output rows or columns at a
time: each band is one GEMM with the input range that holds its
weights, on the operands the dense contraction used.  Whether those are
the dense contraction's bytes depends on the BLAS kernel: on OpenBLAS's
SkylakeX kernel they are on every shape the network upsamples, while
under its Haswell and Zen kernels some shapes differ in the last bit.
Its adjoint stays the two dense contractions.

Training-mode ``batch_norm`` can split its batch into equal leading
groups, each normalized by its own statistics: the network runs the two
epochs of a Siamese pair as one batch of 2N and keeps per-epoch
statistics that way.

``batch_norm`` has one normalization pass for training and eval,
recorded or not: by row blocks of the grouped layout, xhat = (x - mean)
times the inverse deviation, then y = xhat times gamma plus beta.
Training centres its input once, before the pass, and takes the
variance from that centred copy with the steps of numpy's ``var``; eval
subtracts the running mean inside the pass.  An output that will not be
recorded keeps no buffer for an adjoint: ``batch_norm`` then writes
every step into the output buffer, and ``sigmoid`` reuses its
intermediates, with the same values.

The two training losses, ``bce`` and ``dice``, are single primitives
with closed-form adjoints; their target is a constant.
"""

from __future__ import annotations

import _thread
import itertools
import math
import os
from functools import lru_cache

import numpy as np

from .tensor import (Tensor, ShapeError, accumulate, as_tensor, grad_enabled,
                     kinks_active, note_kink, record, same_shape,
                     will_record)

__all__ = [
    "add", "mul", "one_minus", "relu", "sigmoid", "concat", "narrow",
    "stack_time", "reshape", "conv2d", "conv3d", "batch_norm",
    "upsample_bilinear", "global_avg_pool", "sum_all", "bce", "dice",
]


# ---------------------------------------------------------------------------
# Two-thread work sharing for large outputs
# ---------------------------------------------------------------------------

# Elements per work block: a conv's column block (one block's tap
# product and running sum stay in cache) or a channel range of a phase
# buffer.
_BLOCK = 1 << 16
# Elements per row block of an elementwise op.  Each numpy call in a
# block takes the GIL back from the other thread, and at _BLOCK elements
# those hand-offs cost about what the arithmetic saves: the elementwise
# ops of a 1024x1024 pair ran 17 % faster split at _BLOCK elements per
# block and 29 % at four times that.
_ROW_BLOCK = 4 * _BLOCK
# An output of at least this many blocks, four per thread, is split over
# two threads.  Below that the hand-off weighs more than an elementwise
# block saves (a one-block pointwise conv ran 1.5 to 2 times slower
# split), and every map of a 256x256 input (at most 4.06 blocks) and of a
# 4x64x64 training step (at most 2.3) stays serial.  Block counts alone
# cannot tell the 256x256 stem (4.06 blocks) from the 64- and 128-channel
# convs of a 1024x1024 pass (2.1 to 4.25 blocks), which do 10 to 70 times
# its multiply-adds, so a convolution has a second gate, _SPLIT_MACS.
_SPLIT_BLOCKS = 8
# A convolution of two column blocks or more and at least this many
# multiply-adds is split too.  Under the element gate the convs of a
# 1024x1024 pass do 34M or 78M to 482M multiply-adds; a conv of two
# blocks does at most 30M at 256x256 (the stems 7.2M) and 1.9M in a
# 4x64x64 training step.
_SPLIT_MACS = 1 << 26
# Output rows or columns per band of an upsampling contraction.
_BAND = 64


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _splits(elements: int, blocks: int = 0, macs: int = 0) -> bool:
    """Whether an output of ``elements`` elements is split over two
    threads.  A convolution also gives its column ``blocks`` and its
    multiply-adds, ``macs``: two blocks and ``_SPLIT_MACS`` split it at
    any size."""
    large = (elements >= _SPLIT_BLOCKS * _BLOCK
             or blocks >= 2 and macs >= _SPLIT_MACS)
    return large and _usable_cpus() >= 2


def _share(fn, blocks: int) -> None:
    """Run ``fn(i)`` for every i in range(blocks) on this thread and on a
    helper thread started for the call, and return once both are done.

    Each thread takes the next block index from one shared counter until
    the blocks run out, so the thread that starts late or runs slow
    takes fewer.  Blocks write disjoint outputs, each with the
    operations it gets serially, so the output keeps its bits.  After a
    block fails neither thread takes another; the first exception then
    reaches the caller as it was raised.  A thread per call, not a pool,
    leaves nothing for a forked child to inherit.

    The helper takes its first block about 0.47 ms after it is started
    (median on a 2-core host whose idle CPU wakes slowly), so the caller
    does not wait for it to start, as ``threading.Thread.start`` would:
    it begins on the blocks at once and waits only for the helper's
    last block."""
    take = itertools.count().__next__
    errors = []
    done = _thread.allocate_lock()

    def work():
        try:
            while not errors:
                i = take()
                if i >= blocks:
                    return
                fn(i)
        except BaseException as e:
            errors.append(e)

    def helper():
        try:
            work()
        finally:
            done.release()

    done.acquire()
    _thread.start_new_thread(helper, ())
    try:
        work()
    finally:
        done.acquire()
    if errors:
        raise errors[0]


def _blocks(fn, blocks: int, split: bool) -> None:
    """``fn(i)`` for every i in range(blocks): shared over two threads
    when ``split``, else in order on this one."""
    if split:
        _share(fn, blocks)
    else:
        for i in range(blocks):
            fn(i)


def _by_rows(fn, shape) -> None:
    """Cover an array of ``shape`` with ``fn(index)`` calls.

    Below the gate this is one call with ``...``; above it, one call per
    block of rows of axis -2 (about ``_ROW_BLOCK`` elements each), shared
    over two threads.  Rows keep every axis but one whole, so operands
    that broadcast along axis -2 apply to each block unsliced."""
    size = math.prod(shape)
    if len(shape) < 2 or not _splits(size):
        fn(...)
        return
    h = shape[-2]
    rows = max(_ROW_BLOCK * h // size, 1)
    _share(lambda i: fn((..., slice(i * rows, (i + 1) * rows), slice(None))),
           -(-h // rows))


def _binary(ufunc, a: np.ndarray, b) -> np.ndarray:
    """``ufunc(a, b)`` into a new array of ``a``'s shape; ``b`` is a
    scalar or an array that broadcasts to ``a``'s shape.  Below the gate
    it is the one ufunc call, above it row blocks."""
    if a.ndim < 2 or not _splits(a.size):
        return ufunc(a, b)
    out = np.empty(a.shape, np.result_type(a, b))
    rowwise = np.ndim(b) >= 2 and b.shape[-2] > 1
    _by_rows(lambda ix: ufunc(a[ix], b[ix] if rowwise else b, out=out[ix]),
             a.shape)
    return out


def _binary_operands(name, a, b):
    """Resolve a binary op's operands: tensor/tensor (same shape) or scalar."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        same_shape(name, a, b)
        return a, b, None
    if isinstance(a, Tensor) and np.isscalar(b):
        return a, None, float(b)
    if isinstance(b, Tensor) and np.isscalar(a):
        return b, None, float(a)
    raise ShapeError(f"{name}: expected Tensor operands or a Tensor and a "
                     f"python scalar, got {type(a).__name__}/{type(b).__name__}")


def add(a, b) -> Tensor:
    """Elementwise a + b."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        same_shape("add", a, b)
        out = Tensor(_binary(np.add, a.data, b.data))

        def adjoint(g):
            accumulate(a, g)
            accumulate(b, g)

        return record("add", (a, b), out, adjoint)
    t, _, s = _binary_operands("add", a, b)
    out = Tensor(_binary(np.add, t.data, t.data.dtype.type(s)))
    return record("add", (t,), out, lambda g: accumulate(t, g))


def mul(a, b) -> Tensor:
    """Elementwise a * b.

    A tensor ``b`` may also have ``a``'s rank with size 1 on axes where
    ``a`` is larger; it broadcasts along them and its gradient is summed
    back over them.
    """
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if b.ndim != a.ndim or any(m not in (1, n)
                                   for n, m in zip(a.shape, b.shape)):
            raise ShapeError(f"mul: operand shapes {a.shape} and {b.shape} "
                             f"differ; the second may differ only by "
                             f"size-1 axes")
        axes = tuple(ax for ax, (n, m) in enumerate(zip(a.shape, b.shape))
                     if m != n)
        out = Tensor(_binary(np.multiply, a.data, b.data))

        def adjoint(g):
            accumulate(a, g * b.data)
            gb = g * a.data
            accumulate(b, gb.sum(axis=axes, keepdims=True) if axes else gb)

        return record("mul", (a, b), out, adjoint)
    t, _, s = _binary_operands("mul", a, b)
    s = t.data.dtype.type(s)
    out = Tensor(_binary(np.multiply, t.data, s))
    return record("mul", (t,), out, lambda g: accumulate(t, g * s))


def one_minus(x: Tensor) -> Tensor:
    """1 - x."""
    x = as_tensor(x)
    out = Tensor(x.data.dtype.type(1.0) - x.data)
    return record("one_minus", (x,), out, lambda g: accumulate(x, -g))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at 0 is 0."""
    if kinks_active():
        note_kink(x.data > 0.0,
                  float(np.abs(x.data).min()) if x.size else np.inf)
    out = Tensor(_binary(np.maximum, x.data, 0.0))
    return record("relu", (x,), out,
                  lambda g: accumulate(x, g * (x.data > 0.0)))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, overflow-safe for large |x|."""
    d = np.atleast_1d(x.data)
    y = np.empty(d.shape, d.dtype)
    bits = np.dtype(f"u{d.dtype.itemsize}")

    def block(ix):
        db, yb = d[ix], y[ix]
        e = np.abs(db)
        np.negative(e, out=e)
        np.exp(e, out=e)
        den = 1.0 + e
        np.divide(1.0, den, out=yb)
        np.divide(e, den, out=e)
        # Take e/den where x < 0 by selecting bits: y ^ ((y ^ e) & mask)
        # with an all-ones mask there.  A masked copy is about three times
        # slower on a random sign pattern; the bytes are the same.
        yi, ei = yb.view(bits), e.view(bits)
        np.bitwise_xor(ei, yi, out=ei)
        ei &= np.negative((db < 0).view(np.uint8), dtype=bits)
        yi ^= ei

    _by_rows(block, d.shape)
    y = y.reshape(x.shape)
    out = Tensor(y)
    return record("sigmoid", (x,), out,
                  lambda g: accumulate(x, g * y * (1.0 - y)))


def concat(parts, axis: int) -> Tensor:
    """Join tensors along an existing axis."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    nd = parts[0].ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"concat: axis {axis} out of range for rank {nd}")
    axis %= nd
    for p in parts[1:]:
        if p.ndim != nd:
            raise ShapeError("concat: rank mismatch")
        for ax in range(nd):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise ShapeError(
                    f"concat: shapes differ on axis {ax}: "
                    f"{parts[0].shape} vs {p.shape}")
    datas = [p.data for p in parts]
    sizes = [p.shape[axis] for p in parts]
    shape = parts[0].shape[:axis] + (sum(sizes),) + parts[0].shape[axis + 1:]
    out_d = np.empty(shape, np.result_type(*datas))

    def block(ix):
        np.concatenate([d[ix] for d in datas], axis=axis, out=out_d[ix])

    if axis == nd - 2:      # row blocks would cut across the parts
        block(...)
    else:
        _by_rows(block, shape)
    out = Tensor(out_d)
    offsets = np.cumsum(sizes)[:-1]

    def adjoint(g):
        for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
            accumulate(p, piece)

    return record("concat", tuple(parts), out, adjoint)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """View of ``x`` restricted to [start, stop) along ``axis``."""
    if not 0 <= axis < x.ndim:
        raise ShapeError(f"narrow: axis {axis} out of range for {x.shape}")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {stop}) is not a non-empty "
                         f"range within {x.shape[axis]} (axis {axis})")
    index = (slice(None),) * axis + (slice(start, stop),)
    out = Tensor(x.data[index])

    def adjoint(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        gx[index] = g
        accumulate(x, gx)

    return record("narrow", (x,), out, adjoint)


def stack_time(a: Tensor, b: Tensor) -> Tensor:
    """Stack two [N,C,H,W] maps into [N,C,2,H,W] along a new time axis."""
    same_shape("stack_time", a, b)
    if a.ndim != 4:
        raise ShapeError(f"stack_time: expected rank-4 inputs, got {a.shape}")
    n, c, h, w = a.shape
    out_d = np.empty((n, c, 2, h, w), np.result_type(a.data, b.data))

    def block(ix):
        out_d[:, :, 0][ix] = a.data[ix]
        out_d[:, :, 1][ix] = b.data[ix]

    _by_rows(block, a.shape)
    out = Tensor(out_d)

    def adjoint(g):
        accumulate(a, g[:, :, 0])
        accumulate(b, g[:, :, 1])

    return record("stack_time", (a, b), out, adjoint)


def reshape(x: Tensor, shape) -> Tensor:
    """View with a new shape of the same total size."""
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape))
    return record("reshape", (x,), out,
                  lambda g: accumulate(x, g.reshape(x.shape)))


# ---------------------------------------------------------------------------
# Convolutions (cross-correlation convention, no kernel flip)
# ---------------------------------------------------------------------------

def _phase_map(s: int, p: int, h: int, w: int):
    """Yield (phase, map index, grid index) for each of the s*s stride
    phases of an [..., H, W] map zero-padded by p: padded pixel
    (s*y + i, s*x + j) sits at (y, x) of phase i*s + j."""
    for i in range(s):
        r = (i - p) % s                # first map row in phase row i
        rows = slice((r + p) // s, (r + p) // s + len(range(r, h, s)))
        for j in range(s):
            q = (j - p) % s
            yield (i * s + j, (..., slice(r, h, s), slice(q, w, s)),
                   (..., rows, slice((q + p) // s,
                                     (q + p) // s + len(range(q, w, s)))))


def _phases(a: np.ndarray, s: int, p: int, hq: int, wq: int,
            slack: int = 0, split: bool = False) -> np.ndarray:
    """[N, C, H, W] -> [s*s, C, N*hq*wq + slack], the stride phases of
    ``a`` zero-padded by p.  With ``split`` each phase is copied in
    channel ranges of about ``_BLOCK`` elements, shared over two
    threads; else one copy per phase."""
    n, c, h, w = a.shape
    buf = np.zeros((s * s, c, n * hq * wq + slack), dtype=a.dtype)
    grid = buf[:, :, :n * hq * wq].reshape(s * s, c, n, hq, wq)
    maps = list(_phase_map(s, p, h, w))
    chans = max(_BLOCK // (n * hq * wq), 1) if split else c
    ranges = -(-c // chans)

    def block(i):
        ph, src, dst = maps[i // ranges]
        ch = slice(i % ranges * chans, (i % ranges + 1) * chans)
        grid[ph, ch][dst] = a[:, ch][src].swapaxes(0, 1)

    _blocks(block, len(maps) * ranges, split)
    return buf


def _unphase(buf: np.ndarray, s: int, p: int, n: int, h: int, w: int,
             hq: int, wq: int) -> np.ndarray:
    """The inverse of ``_phases``, padding cropped: a contiguous
    [N, C, H, W]."""
    grid = buf[:, :, :n * hq * wq].reshape(s * s, -1, n, hq, wq)
    out = np.empty((n, grid.shape[1], h, w), dtype=buf.dtype)
    for ph, src, dst in _phase_map(s, p, h, w):
        out[src] = grid[ph][dst].swapaxes(0, 1)
    return out


def _conv(name: str, x: Tensor, weight: Tensor, bias, s: int,
          p: int) -> Tensor:
    """The one convolution core: one GEMM per kernel tap, no patch matrix.

    ``x`` is [N, C, ..., H, W] and ``weight`` [K, C, ..., kh, kw] whose
    middle axes span the input's, so they fold into channels: the output
    is [N, K, H', W'] at stride s and padding p.  Callers validate
    shapes.  Tap (i, j) reads phase (i mod s, j mod s) at column offset
    (i div s)*wq + (j div s); the output is the H' x W' corner of each
    hq x wq block of the [K, N*hq*wq] output grid."""
    n, k = x.shape[0], weight.shape[0]
    h, w = x.shape[-2:]
    kh, kw = weight.shape[-2:]
    if kh == kw == 1 and s == 1 and p == 0:
        return _pointwise(name, x, weight, bias)
    xd = x.data.reshape(n, -1, h, w)
    c = xd.shape[1]
    ho, wo = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    cols = n * hq * wq
    taps = [((i % s) * s + j % s, (i // s) * wq + j // s)
            for i in range(kh) for j in range(kw)]
    slack = taps[-1][1]
    wtaps = weight.data.reshape(k, c, kh * kw).transpose(2, 0, 1).copy()

    # Column blocks of _BLOCK grid elements keep each tap's product and
    # the running sum in cache; the first tap writes the block, later
    # taps add, and the bias adds last.
    step = max(_BLOCK // k, 1)
    blocks = -(-cols // step)
    split = _splits(k * cols, blocks, k * c * len(taps) * cols)
    xq = _phases(xd, s, p, hq, wq, slack, split)
    grid = np.empty((k, cols), dtype=np.result_type(xq, wtaps))
    bias_d = None if bias is None else bias.data[:, None]

    def tap_sums(i):
        a = i * step
        g = grid[:, a:a + step]
        for t, (wt, (ph, off)) in enumerate(zip(wtaps, taps)):
            piece = xq[ph, :, a + off:a + off + g.shape[1]]
            if t:
                g += wt @ piece
            else:
                np.matmul(wt, piece, out=g)
        if bias_d is not None:
            g += bias_d

    _blocks(tap_sums, blocks, split)
    del xq
    if n == 1:
        # The output is a view of the grid's top-left corner.
        out_d = grid.reshape(1, k, hq, wq)[:, :, :ho, :wo]
    else:
        out_d = _unphase(grid[None], 1, 0, n, ho, wo, hq, wq)
    out = Tensor(out_d)
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def weight_grad(gq):
        # Rebuilt rather than kept from the forward: holding every phase
        # buffer until backward costs more memory than time.
        xq = _phases(xd, s, p, hq, wq, slack)
        return np.stack([gq @ xq[ph, :, off:off + cols].T
                         for ph, off in taps], axis=2).reshape(weight.shape)

    def input_grad(gq):
        dxq = np.zeros((s * s, c, cols + slack), dtype=gq.dtype)
        for wt, (ph, off) in zip(wtaps, taps):
            dxq[ph, :, off:off + cols] += wt.T @ gq
        return _unphase(dxq, s, p, n, h, w, hq, wq).reshape(x.shape)

    def adjoint(g):
        # The output gradient on the forward's grid, zero where it cropped.
        gq = _phases(g, 1, 0, hq, wq)[0]
        if bias is not None and bias.requires_grad:
            accumulate(bias, gq.sum(axis=1))
        if weight.requires_grad:
            accumulate(weight, weight_grad(gq))
        if x.requires_grad:
            accumulate(x, input_grad(gq))

    return record(name, inputs, out, adjoint)


def _pointwise(name: str, x: Tensor, weight: Tensor, bias) -> Tensor:
    """``_conv`` for a 1x1 kernel at stride 1 without padding: batched
    matmuls [K, C] @ [N, C, cols] over the same column blocks as the tap
    core, no taps, phases or grid."""
    n, k = x.shape[0], weight.shape[0]
    h, w = x.shape[-2:]
    xd = x.data.reshape(n, -1, h * w)
    wd = weight.data.reshape(k, -1)
    out_d = np.empty((n, k, h * w), dtype=np.result_type(wd, xd))
    bias_d = None if bias is None else bias.data[:, None]
    step = max(_BLOCK // k, 1)

    def columns(i):
        cols = slice(i * step, (i + 1) * step)
        o = out_d[:, :, cols]
        np.matmul(wd, xd[:, :, cols], out=o)
        if bias_d is not None:
            o += bias_d

    blocks = -(-(h * w) // step)
    _blocks(columns, blocks,
            _splits(k * n * h * w, blocks, k * wd.shape[1] * n * h * w))
    out = Tensor(out_d.reshape(n, k, h, w))
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def adjoint(g):
        g = g.reshape(n, k, h * w)
        if bias is not None and bias.requires_grad:
            accumulate(bias, g.sum(axis=(0, 2)))
        if weight.requires_grad:
            accumulate(weight, np.matmul(g, xd.swapaxes(1, 2)).sum(axis=0)
                       .reshape(weight.shape))
        if x.requires_grad:
            accumulate(x, np.matmul(wd.T, g).reshape(x.shape))

    return record(name, inputs, out, adjoint)


def conv2d(x: Tensor, weight: Tensor, bias, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-d cross-correlation of [N,C,H,W] with [K,C,kh,kw] plus bias."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be [N,C,H,W], got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d: weight must be [K,C,kh,kw], got {weight.shape}")
    n, c, h, w = x.shape
    k, cw, kh, kw = weight.shape
    if cw != c:
        raise ShapeError(f"conv2d: input has {c} channels on axis 1 but "
                         f"weight expects {cw}")
    if stride < 1 or padding < 0:
        raise ShapeError("conv2d: stride must be >= 1 and padding >= 0")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp:
        raise ShapeError(f"conv2d: kernel height {kh} exceeds padded input "
                         f"height {hp} (axis 2)")
    if kw > wp:
        raise ShapeError(f"conv2d: kernel width {kw} exceeds padded input "
                         f"width {wp} (axis 3)")
    if bias is not None and bias.shape != (k,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match "
                         f"{k} output channels (axis 1)")
    return _conv("conv2d", x, weight, bias, stride, padding)


def conv3d(x: Tensor, weight: Tensor, bias, padding=(0, 0, 0)) -> Tensor:
    """3-d cross-correlation of [N,C,T,H,W] with [K,C,T,kh,kw], stride 1.

    Only a kernel spanning the whole time axis is supported (kt == T, no
    time padding, equal spatial padding), which makes it a conv2d of the
    input with time folded into channels; the output is [N,K,H',W'].
    """
    if x.ndim != 5:
        raise ShapeError(f"conv3d: input must be [N,C,T,H,W], got {x.shape}")
    if weight.ndim != 5:
        raise ShapeError(f"conv3d: weight must be [K,C,kt,kh,kw], got {weight.shape}")
    n, c, t, h, w = x.shape
    k, cw, kt, kh, kw = weight.shape
    if cw != c:
        raise ShapeError(f"conv3d: input has {c} channels on axis 1 but "
                         f"weight expects {cw}")
    pt, ph, pw = padding
    dims = (t + 2 * pt, h + 2 * ph, w + 2 * pw)
    for ax, (kdim, pdim) in enumerate(zip((kt, kh, kw), dims), start=2):
        if kdim > pdim:
            raise ShapeError(f"conv3d: kernel size {kdim} exceeds padded "
                             f"input size {pdim} (axis {ax})")
    if kt != t or pt != 0:
        raise ShapeError(f"conv3d: the kernel must span the time axis "
                         f"unpadded (kt == T, no time padding), got kt={kt}, "
                         f"T={t}, time padding {pt} (axis 2)")
    if ph != pw:
        raise ShapeError(f"conv3d: spatial padding must be equal on axes 3 "
                         f"and 4, got {ph} and {pw}")
    if bias is not None and bias.shape != (k,):
        raise ShapeError(f"conv3d: bias shape {bias.shape} does not match "
                         f"{k} output channels (axis 1)")
    return _conv("conv3d", x, weight, bias, 1, ph)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

# Weight of the newest batch in the running statistics.
BN_MOMENTUM = 0.1


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, eps: float = 1e-5, groups: int = 1) -> Tensor:
    """Per-channel normalization over [N, C, ...spatial] tensors.

    Training mode splits the batch into ``groups`` equal leading slices
    and normalizes each by its own batch statistics, as if each were a
    call of its own; the running estimates take one update per slice, in
    slice order (exponential moving average with weight ``BN_MOMENTUM``,
    unbiased variance).  A batch that does not split evenly is a
    ShapeError, as are a ``gamma`` or ``beta`` of another dtype than
    ``x``.  Eval mode applies the running estimates as constants and
    ignores ``groups``.
    """
    if x.ndim < 2:
        raise ShapeError(f"batch_norm: input must be [N,C,...], got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must have shape ({c},) to "
                         f"match channel axis 1")
    if gamma.dtype != x.dtype or beta.dtype != x.dtype:
        raise ShapeError(f"batch_norm: gamma/beta must have dtype {x.dtype}")
    if not training:
        groups = 1
    elif groups < 1 or x.shape[0] % groups:
        raise ShapeError(f"batch_norm: a batch of {x.shape[0]} (axis 0) does "
                         f"not split into {groups} equal groups")
    # Every step runs on the grouped layout [G, N/G, C, ...]: statistics
    # [G, 1, C, 1, ...] and gamma, beta [C, 1, ...] broadcast against it.
    split = (groups, x.shape[0] // groups) + x.shape[1:]
    gaxes = (1,) + tuple(range(3, x.ndim + 1))
    cshape = (c,) + (1,) * (x.ndim - 2)
    m = x.size // (c * groups)
    xg = x.data.reshape(split)
    scale, shift = gamma.data.reshape(cshape), beta.data.reshape(cshape)
    # xhat needs a buffer of its own only when an adjoint will read it.
    xhat = np.empty(split, x.dtype)
    y = (np.empty(split, np.result_type(xhat, scale, shift))
         if will_record((x, gamma, beta)) else xhat)

    if training:
        if m <= 1:
            raise ShapeError("batch_norm: training mode needs more than one "
                             "value per channel in each group "
                             "(N / groups * spatial > 1)")
        # np.var's steps (mean, centre, square, sum, divide by the count),
        # so its bytes, with the centred copy kept as xhat.
        mu = xg.mean(axis=gaxes, keepdims=True)
        np.subtract(xg, mu, out=xhat)
        var = np.square(xhat).sum(axis=gaxes)
        var /= np.intp(m)
        if grad_enabled():
            for mu_g, var_g in zip(mu.reshape(groups, c), var):
                running_mean *= (1.0 - BN_MOMENTUM)
                running_mean += BN_MOMENTUM * mu_g
                running_var *= (1.0 - BN_MOMENTUM)
                running_var += BN_MOMENTUM * var_g * (m / (m - 1))
    else:
        mu = running_mean.astype(x.dtype, copy=False).reshape(cshape)
        var = running_var.astype(x.dtype, copy=False)
    istd = (1.0 / np.sqrt(var + x.dtype.type(eps))).reshape(
        (groups, 1) + cshape)

    def normalize(ix):
        xb, yb = xhat[ix], y[ix]
        if not training:
            np.subtract(xg[ix], mu, out=xb)
        xb *= istd
        np.multiply(xb, scale, out=yb)
        yb += shift

    _by_rows(normalize, split)
    out = Tensor(y.reshape(x.shape))

    def adjoint(g):
        g = g.reshape(split)
        axes = (0,) + gaxes
        accumulate(beta, g.sum(axis=axes))
        accumulate(gamma, (g * xhat).sum(axis=axes))
        if not x.requires_grad:
            return
        dxhat = g * scale
        if training:
            s1 = dxhat.sum(axis=gaxes, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=gaxes, keepdims=True)
            gx = (istd / m) * (m * dxhat - s1 - xhat * s2)
        else:
            gx = dxhat * istd
        accumulate(x, gx.reshape(x.shape))

    return record("batch_norm", (x, gamma, beta), out, adjoint)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bilinear_matrix(factor: int, size: int, dtype: np.dtype) -> np.ndarray:
    """Dense [size*factor, size] interpolation operator, half-pixel
    centers: float64 weights cast to ``dtype``, read-only since every
    call with these arguments shares it."""
    out_size = size * factor
    mat = np.zeros((out_size, size), dtype=np.float64)
    for o in range(out_size):
        s = (o + 0.5) / factor - 0.5
        s = min(max(s, 0.0), float(size - 1))
        i0 = int(np.floor(s))
        i1 = min(i0 + 1, size - 1)
        f = s - i0
        mat[o, i0] += 1.0 - f
        mat[o, i1] += f
    mat = mat.astype(dtype)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _bilinear_bands(factor: int, size: int) -> tuple:
    """(o0, o1, lo, hi) for each band of ``_BAND`` output rows o0:o1 of
    the [size*factor, size] operator: input columns lo:hi hold every
    nonzero weight of those rows."""
    mat = _bilinear_matrix(factor, size, np.dtype(np.float64))
    bands = []
    for o0 in range(0, size * factor, _BAND):
        o1 = min(o0 + _BAND, size * factor)
        cols = np.flatnonzero(mat[o0:o1].any(axis=0))
        bands.append((o0, o1, int(cols[0]), int(cols[-1]) + 1))
    return tuple(bands)


def _banded(a: np.ndarray, factor: int) -> np.ndarray:
    """``a @ U.T`` for a [rows, size] ``a`` and U the [size*factor, size]
    interpolation operator: one GEMM per band of output columns, over
    the input range that holds the band's weights.  Above the gate the
    bands are shared over two threads."""
    mat = _bilinear_matrix(factor, a.shape[1], a.dtype)
    bands = _bilinear_bands(factor, a.shape[1])
    out = np.empty((a.shape[0], mat.shape[0]), a.dtype)

    def band(i):
        o0, o1, lo, hi = bands[i]
        np.matmul(a[:, lo:hi], mat[o0:o1, lo:hi].T, out=out[:, o0:o1])

    _blocks(band, len(bands), _splits(out.size))
    return out


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling by an integer factor (half-pixel convention)."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_bilinear: input must be [N,C,H,W], "
                         f"got {x.shape}")
    if factor < 1:
        raise ShapeError("upsample_bilinear: factor must be a positive "
                         "integer")
    n, c, h, w = x.shape
    # Separable linear operator: rows then columns.  Each operator row
    # holds at most two weights, so each band of output rows contracts
    # only the input range that holds its weights.
    y = _banded(x.data.transpose(0, 1, 3, 2).reshape(n * c * w, h), factor)
    y = y.reshape(n, c, w, h * factor).transpose(0, 1, 3, 2)
    y = _banded(y.reshape(n * c * h * factor, w), factor)
    out = Tensor(y.reshape(n, c, h * factor, w * factor))

    def adjoint(g):
        uh = _bilinear_matrix(factor, h, x.dtype)
        uw = _bilinear_matrix(factor, w, x.dtype)
        gy = np.tensordot(g, uw, axes=(3, 0))
        gx = np.tensordot(gy, uh, axes=(2, 0)).transpose(0, 1, 3, 2)
        accumulate(x, np.ascontiguousarray(gx))

    return record("upsample_bilinear", (x,), out, adjoint)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C,1,1] spatial mean."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool: input must be [N,C,H,W], got {x.shape}")
    h, w = x.shape[2:]
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    scale = 1.0 / (h * w)

    def adjoint(g):
        accumulate(x, np.broadcast_to(g * scale, x.shape))

    return record("global_avg_pool", (x,), out, adjoint)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def sum_all(x: Tensor) -> Tensor:
    """Scalar sum over every element."""
    out = Tensor(x.data.sum())

    def adjoint(g):
        accumulate(x, np.broadcast_to(g, x.shape))

    return record("sum", (x,), out, adjoint)


# ---------------------------------------------------------------------------
# Losses (the target is a constant: no gradient flows into it)
# ---------------------------------------------------------------------------

def bce(p: Tensor, target, lo: float, hi: float) -> Tensor:
    """Mean binary cross-entropy of ``p`` clipped into [lo, hi].

    The gradient is zero where a bound binds.  The adjoint takes the
    chain rule's elementwise steps through mean, log and clip in that
    order; training's loss logs depend on the exact order.
    """
    target = as_tensor(target, dtype=p.dtype)
    same_shape("bce", p, target)
    d, t = p.data, target.data
    inside = (d > lo) & (d < hi)
    if kinks_active():
        note_kink(inside, float(np.minimum(np.abs(d - lo),
                                           np.abs(d - hi)).min())
                  if p.size else np.inf)
    cast = d.dtype.type
    pc = np.clip(d, lo, hi)
    omt, omp = cast(1.0) - t, cast(1.0) - pc
    out = Tensor((t * np.log(pc) + omt * np.log(omp)).mean() * cast(-1.0))

    def adjoint(g):
        gs = np.broadcast_to(g * cast(-1.0) * (1.0 / d.size), d.shape)
        accumulate(p, (-(gs * omt / omp) + gs * t / pc) * inside)

    return record("bce", (p,), out, adjoint)


def dice(p: Tensor, target, smooth: float) -> Tensor:
    """Soft dice loss 1 - (2*sum(p*t) + s) / (sum(p) + sum(t) + s).

    The adjoint adds the gradient through the overlap to the one
    through sum(p), in that order; training's loss logs depend on it.
    """
    target = as_tensor(target, dtype=p.dtype)
    same_shape("dice", p, target)
    d, t = p.data, target.data
    cast = d.dtype.type
    num = (d * t).sum() * cast(2.0) + cast(smooth)
    den = d.sum() + t.sum() + cast(smooth)
    out = Tensor(cast(1.0) - num / den)

    def adjoint(g):
        gq = -g
        gnum = gq / den
        gden = -gq * num / (den * den)
        accumulate(p, gden + gnum * cast(2.0) * t)

    return record("dice", (p,), out, adjoint)
