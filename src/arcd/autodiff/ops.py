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
no time padding, equal spatial padding), the one case the network uses,
which is ``conv2d`` with time folded into channels.  At batch size 1 a
convolution's output is a strided view of the top-left corner of its
output grid rather than a cropped copy.

An output that will not be recorded keeps no buffer for an adjoint:
``batch_norm`` then finishes it in the buffer that holds the normalized
input, and ``sigmoid`` reuses its intermediates, with the same values.

The two training losses, ``bce`` and ``dice``, are single primitives
with closed-form adjoints; their target is a constant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import (Tensor, ShapeError, accumulate, as_tensor, kinks_active,
                     note_kink, record, same_shape, will_record)

__all__ = [
    "add", "mul", "one_minus", "relu", "sigmoid", "concat", "narrow",
    "stack_time", "reshape", "conv2d", "conv3d", "batch_norm",
    "upsample_bilinear", "global_avg_pool", "sum_all", "bce", "dice",
]


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
        out = Tensor(a.data + b.data)

        def adjoint(g):
            accumulate(a, g)
            accumulate(b, g)

        return record("add", (a, b), out, adjoint)
    t, _, s = _binary_operands("add", a, b)
    out = Tensor(t.data + t.data.dtype.type(s))
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
        out = Tensor(a.data * b.data)

        def adjoint(g):
            accumulate(a, g * b.data)
            gb = g * a.data
            accumulate(b, gb.sum(axis=axes, keepdims=True) if axes else gb)

        return record("mul", (a, b), out, adjoint)
    t, _, s = _binary_operands("mul", a, b)
    s = t.data.dtype.type(s)
    out = Tensor(t.data * s)
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
    out = Tensor(np.maximum(x.data, 0.0))
    return record("relu", (x,), out,
                  lambda g: accumulate(x, g * (x.data > 0.0)))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, overflow-safe for large |x|."""
    d = np.atleast_1d(x.data)
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = 1.0 + e
    y = 1.0 / den
    np.divide(e, den, out=e)
    np.copyto(y, e, where=d < 0)
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
    for p in parts[1:]:
        if p.ndim != nd:
            raise ShapeError("concat: rank mismatch")
        for ax in range(nd):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise ShapeError(
                    f"concat: shapes differ on axis {ax}: "
                    f"{parts[0].shape} vs {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    offsets = np.cumsum([p.shape[axis] for p in parts])[:-1]

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
    out = Tensor(np.stack([a.data, b.data], axis=2))

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
            slack: int = 0) -> np.ndarray:
    """[N, C, H, W] -> [s*s, C, N*hq*wq + slack], the stride phases of
    ``a`` zero-padded by p; ``a`` itself (a view when N == 1) if unpadded."""
    n, c, h, w = a.shape
    if s == 1 and p == 0 and slack == 0 and (h, w) == (hq, wq):
        return a.swapaxes(0, 1).reshape(1, c, n * h * w)
    buf = np.zeros((s * s, c, n * hq * wq + slack), dtype=a.dtype)
    grid = buf[:, :, :n * hq * wq].reshape(s * s, c, n, hq, wq)
    for ph, src, dst in _phase_map(s, p, h, w):
        grid[ph][dst] = a[src].swapaxes(0, 1)
    return buf


def _unphase(buf: np.ndarray, s: int, p: int, n: int, h: int, w: int,
             hq: int, wq: int) -> np.ndarray:
    """The inverse of ``_phases``, padding cropped: a contiguous
    [N, C, H, W], with no copy for one unpadded phase when N == 1."""
    grid = buf[:, :, :n * hq * wq].reshape(s * s, -1, n, hq, wq)
    if s == 1 and p == 0 and (h, w) == (hq, wq):
        return np.ascontiguousarray(grid[0].swapaxes(0, 1))
    out = np.empty((n, grid.shape[1], h, w), dtype=buf.dtype)
    for ph, src, dst in _phase_map(s, p, h, w):
        out[src] = grid[ph][dst].swapaxes(0, 1)
    return out


def _conv(name: str, x: Tensor, weight: Tensor, bias, s: int,
          p: int) -> Tensor:
    """The one convolution core: one GEMM per kernel tap, no patch matrix.

    ``x`` is [N, C, ..., H, W] and ``weight`` [K, C, ..., kh, kw] whose
    middle axes span the input's, so they fold into channels: the output
    is [N, K, 1, ..., H', W'] at stride s and padding p.  Callers validate
    shapes.  Tap (i, j) reads phase (i mod s, j mod s) at column offset
    (i div s)*wq + (j div s); the output is the H' x W' corner of each
    hq x wq block of the [K, N*hq*wq] output grid."""
    n, k = x.shape[0], weight.shape[0]
    h, w = x.shape[-2:]
    kh, kw = weight.shape[-2:]
    xd = x.data.reshape(n, -1, h, w)
    c = xd.shape[1]
    ho, wo = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    cols = n * hq * wq
    taps = [((i % s) * s + j % s, (i // s) * wq + j // s)
            for i in range(kh) for j in range(kw)]
    slack = taps[-1][1]
    wtaps = np.moveaxis(weight.data.reshape(k, c, kh * kw), 2, 0).copy()

    xq = _phases(xd, s, p, hq, wq, slack)
    grid = np.empty((k, cols), dtype=np.result_type(xq, wtaps))
    # Column blocks of 64K grid elements keep each tap's product and the
    # running sum in cache; the first tap writes the block, later taps add.
    step = max((1 << 16) // k, 1)
    for a in range(0, cols, step):
        g = grid[:, a:a + step]
        for t, (wt, (ph, off)) in enumerate(zip(wtaps, taps)):
            piece = xq[ph, :, a + off:a + off + g.shape[1]]
            if t:
                g += wt @ piece
            else:
                np.matmul(wt, piece, out=g)
    del xq
    if n == 1:
        # The output is a view of the grid's top-left corner; the grid
        # is this output's own buffer, so the bias may add in place.
        out_d = grid.reshape(1, k, hq, wq)[:, :, :ho, :wo]
    else:
        out_d = _unphase(grid[None], 1, 0, n, ho, wo, hq, wq)
    if bias is not None:
        out_d += bias.data[:, None, None]
    out = Tensor(out_d.reshape((n, k) + (1,) * (x.ndim - 4) + (ho, wo)))
    inputs = (x, weight) if bias is None else (x, weight, bias)

    def adjoint(g):
        # The output gradient on the forward's grid, zero where it cropped.
        gq = _phases(g.reshape(n, k, ho, wo), 1, 0, hq, wq)[0]
        if bias is not None and bias.requires_grad:
            accumulate(bias, gq.sum(axis=1))
        if weight.requires_grad:
            # Rebuilt rather than kept from the forward: holding every
            # phase buffer until backward costs more memory than time.
            xq = _phases(xd, s, p, hq, wq, slack)
            accumulate(weight, np.stack([gq @ xq[ph, :, off:off + cols].T
                                         for ph, off in taps], axis=2)
                       .reshape(weight.shape))
        if x.requires_grad:
            dxq = np.zeros((s * s, c, cols + slack), dtype=gq.dtype)
            for wt, (ph, off) in zip(wtaps, taps):
                dxq[ph, :, off:off + cols] += wt.T @ gq
            accumulate(x, _unphase(dxq, s, p, n, h, w, hq, wq).reshape(
                x.shape))

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
    input with time folded into channels; the output is [N,K,1,H',W'].
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
               training: bool, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over [N, C, ...spatial] tensors.

    Training mode normalizes by the batch statistics and updates the
    running estimates in place (exponential moving average with weight
    ``BN_MOMENTUM``, unbiased variance); eval mode applies the running
    estimates as constants.
    """
    if x.ndim < 2:
        raise ShapeError(f"batch_norm: input must be [N,C,...], got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must have shape ({c},) to "
                         f"match channel axis 1")
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * (x.ndim - 2)
    m = x.size // c

    if training:
        if m <= 1:
            raise ShapeError("batch_norm: training mode needs more than one "
                             "value per channel (N * spatial > 1)")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        from .tensor import grad_enabled
        if grad_enabled():
            running_mean *= (1.0 - BN_MOMENTUM)
            running_mean += BN_MOMENTUM * mu
            running_var *= (1.0 - BN_MOMENTUM)
            running_var += BN_MOMENTUM * var * (m / (m - 1))
    else:
        mu = running_mean.astype(x.dtype, copy=False)
        var = running_var.astype(x.dtype, copy=False)

    istd = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat = x.data - mu.reshape(bshape)
    xhat *= istd.reshape(bshape)
    if will_record((x, gamma, beta)):
        y = gamma.data.reshape(bshape) * xhat
    else:
        # Nothing keeps xhat for an adjoint: finish the output in it.
        y, xhat = xhat, None
        y *= gamma.data.reshape(bshape)
    y += beta.data.reshape(bshape)
    out = Tensor(y)

    def adjoint(g):
        accumulate(beta, g.sum(axis=axes))
        accumulate(gamma, (g * xhat).sum(axis=axes))
        if not x.requires_grad:
            return
        dxhat = g * gamma.data.reshape(bshape)
        if training:
            s1 = dxhat.sum(axis=axes).reshape(bshape)
            s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
            gx = (istd.reshape(bshape) / m) * (m * dxhat - s1 - xhat * s2)
        else:
            gx = dxhat * istd.reshape(bshape)
        accumulate(x, gx)

    return record("batch_norm", (x, gamma, beta), out, adjoint)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bilinear_matrix(factor: int, size: int) -> np.ndarray:
    """Dense [size*factor, size] interpolation operator, half-pixel centers."""
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
    return mat


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling by an integer factor (half-pixel convention)."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_bilinear: input must be [N,C,H,W], "
                         f"got {x.shape}")
    if factor < 1:
        raise ShapeError("upsample_bilinear: factor must be a positive "
                         "integer")
    uh = _bilinear_matrix(factor, x.shape[2]).astype(x.dtype)
    uw = _bilinear_matrix(factor, x.shape[3]).astype(x.dtype)
    # Separable linear operator: rows then columns, both as contractions.
    y = np.tensordot(x.data, uh, axes=(2, 1)).transpose(0, 1, 3, 2)
    y = np.tensordot(y, uw, axes=(3, 1))
    out = Tensor(np.ascontiguousarray(y))

    def adjoint(g):
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
