"""Differentiable array operations.

Every public function here computes its result eagerly with numpy first.
With no GradientTape active it returns that result as it is, having built no
vjp closure and no link.  Under a tape, and when some input participates in
differentiation, it records one ``(input key, vjp)`` link per tracked input.
Every vjp keeps the ownership rule in ``GradientTape``'s docstring.  Outputs
keep the dtype of their inputs (float64 for verification paths, float32 for
training paths).

Each op has one form: conv2d pads "same" and runs every pass as one
streamed im2col matmul, softmax runs along the last axis and batch_norm is
the training op; eval batch norm is ``fold_batch_norm``, which
``backbone.conv_bn`` folds into the conv before it.  ``reduce_sum``,
``reduce_mean`` and the gradients of broadcast operands and of the conv bias
sum through ``_sum``, which runs a large sum over leading or middle axes
(batch norm's per-channel statistics, the SE squeeze, the routing sums) as
one BLAS matrix-vector product.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BatchSizeError, ShapeError
from .tensor import _ACTIVE_TAPE, Tensor, as_tensor

Axis = Union[None, int, tuple[int, ...]]

BN_EPS = 1e-5        # added to the variance before its square root
BN_MOMENTUM = 0.9    # weight of the old running statistics per update

# Rows of trailing axes a sum must walk before ``_sum`` runs it as a BLAS
# matrix-vector product: at 256 rows the product is 1.3-2.1x faster than
# numpy's reduce loop for 2-256 floats a row, at 64 it is slower.
_GEMV_ROWS = 256

# Bytes of window matrix a conv pass builds at a time: every pass streams its
# batch through this in runs of whole samples, as many as fit (at least one).
_IM2COL_BUDGET = 4 << 20


def _make(data: np.ndarray, pairs: Sequence[tuple[Tensor, callable]]) -> Tensor:
    """Build the output tensor of an op run under the active tape and record
    one link per tracked input; the output is tracked exactly when some link
    is.  An op with no tape active returns ``Tensor(data)`` before it builds
    its vjps, and never calls this."""
    out = Tensor(data)
    links = [(t.key, vjp) for t, vjp in pairs if t.requires_grad]
    if links:
        out.requires_grad = True
        _ACTIVE_TAPE.get().record(out, links)
    return out


def _sum(a: np.ndarray, axes: Optional[tuple[int, ...]], keepdims: bool = False) -> np.ndarray:
    """``a.sum(axis=axes, keepdims=keepdims)`` for sorted non-negative ``axes``.

    numpy sums leading axes of a C-contiguous array one row of the trailing
    axes at a time, and in a per-channel sum a row is only a few floats
    long.  When ``axes`` are adjacent and end before the last axis, and the
    array holds at least ``_GEMV_ROWS`` such rows, the sum is instead one
    BLAS product of a ones vector with ``a`` seen as [before, summed, after].
    """
    # The rows number at most a.size / a.shape[-1]: one product turns small
    # arrays away before any other test.
    if (axes and a.size >= _GEMV_ROWS * a.shape[-1] and a.flags.c_contiguous
            and a.dtype.char in "fd"):
        first, last = axes[0], axes[-1]
        before, after = a.shape[:first], a.shape[last + 1:]
        n, m = prod(before), prod(a.shape[first:last + 1])
        if last - first == len(axes) - 1 and after and n * m >= _GEMV_ROWS:
            total = np.matmul(np.ones(m, a.dtype), a.reshape(n, m, prod(after)))
            return total.reshape(before + (1,) * len(axes) * keepdims + after)
    return np.add.reduce(a, axis=axes, keepdims=keepdims)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        extra + i for i, s in enumerate(shape) if s == 1 and grad.shape[extra + i] != 1)
    return _sum(grad, axes, keepdims=True).reshape(shape)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands, giving plain scalars the dtype of their partner."""
    if isinstance(a, Tensor):
        return a, (b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.dtype)))
    if isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return Tensor(a), Tensor(b)


def _normalize_axes(axis: Axis, ndim: int) -> Optional[tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted([a % ndim for a in axis]))


def _spread(grad: np.ndarray, axes: Optional[tuple[int, ...]], keepdims: bool,
            shape: tuple[int, ...]) -> np.ndarray:
    """Expand a reduced gradient back to the pre-reduction shape, as a
    read-only broadcast view."""
    if axes is not None and not keepdims:
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [
        (a, lambda g, sa=a.data.shape: _unbroadcast(g, sa)),
        (b, lambda g, sb=b.data.shape: _unbroadcast(g, sb)),
    ])


def subtract(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [
        (a, lambda g, sa=a.data.shape: _unbroadcast(g, sa)),
        (b, lambda g, sb=b.data.shape: -_unbroadcast(g, sb)),
    ])


def multiply(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [
        (a, lambda g, bd=b.data, sa=a.data.shape: _unbroadcast(g * bd, sa)),
        (b, lambda g, ad=a.data, sb=b.data.shape: _unbroadcast(g * ad, sb)),
    ])


def divide(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data / b.data
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [
        (a, lambda g, bd=b.data, sa=a.data.shape: _unbroadcast(g / bd, sa)),
        (b, lambda g, ad=a.data, bd=b.data, sb=b.data.shape:
            _unbroadcast(-g * ad / (bd * bd), sb)),
    ])


def exp(x) -> Tensor:
    x = as_tensor(x)
    y = np.exp(x.data)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(y)
    return _make(y, [(x, lambda g, yd=y: g * yd)])


def log(x) -> Tensor:
    x = as_tensor(x)
    data = np.log(x.data)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [(x, lambda g, xd=x.data: g / xd)])


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    y = np.sqrt(x.data)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(y)
    return _make(y, [(x, lambda g, yd=y: g * (0.5 / yd))])


def square(x) -> Tensor:
    x = as_tensor(x)
    data = x.data * x.data
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)

    def vjp(g, xd=x.data):
        out = g * xd
        out *= 2.0  # the array this vjp just made, not a gradient it was given
        return out

    return _make(data, [(x, vjp)])


def maximum(x, threshold: float) -> Tensor:
    """Elementwise max against a constant; gradient is 0 on the clamped side."""
    x = as_tensor(x)
    t = x.dtype.type(threshold)
    y = np.maximum(x.data, t)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(y)

    def vjp(g, yd=y):
        # The mask is built here, from the output, so the input can be
        # freed: ``y > t`` exactly where ``x > t`` (both are false at
        # x == t and at NaN).  It is written as 0.0/1.0 into the result,
        # which then takes g in place: the bits of ``g * (y > t)`` without
        # a bool array or a cast of it.
        out = np.greater(yd, t, out=np.empty(yd.shape, g.dtype))
        out *= g
        return out

    return _make(y, [(x, vjp)])


def relu(x) -> Tensor:
    return maximum(x, 0.0)


def sigmoid(x) -> Tensor:
    """Logistic function in the input's dtype, in a form that cannot overflow:
    with ``e = exp(-|x|)`` in [0, 1], it is 1/(1+e) for x >= 0 and e/(1+e)
    below."""
    x = as_tensor(x)
    e = np.exp(-np.abs(x.data))
    d = 1.0 + e
    y = np.where(x.data >= 0, 1.0 / d, e / d)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(y)
    return _make(y, [(x, lambda g, yd=y: g * yd * (1.0 - yd))])


# ---------------------------------------------------------------------------
# reductions and shape handling

def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [(x, lambda g, s=x.data.shape: g.reshape(s))])


def reduce_sum(x, axis: Axis = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axes(axis, x.ndim)
    data = _sum(x.data, axes, keepdims)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [(x, lambda g, a=axes, k=keepdims, s=x.data.shape:
                         _spread(g, a, k, s))])


def reduce_mean(x, axis: Axis = None) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axes(axis, x.ndim)
    total = _sum(x.data, axes)
    count = x.data.size // total.size
    data = total / count
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [(x, lambda g, a=axes, s=x.data.shape, c=count:
                         _spread(g / c, a, False, s))])


def softmax(x) -> Tensor:
    """Numerically shifted softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(y)

    def vjp(g, yd=y):
        inner = (g * yd).sum(axis=-1, keepdims=True)
        return yd * (g - inner)

    return _make(y, [(x, vjp)])


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b) -> Tensor:
    a, b = _pair(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    data = a.data @ b.data
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    return _make(data, [
        (a, lambda g, bd=b.data: g @ bd.T),
        (b, lambda g, ad=a.data: ad.T @ g),
    ])


def capsule_votes(w, u) -> Tensor:
    """Per-class linear votes ``out[b, j, n] = u[b, n] @ w[j, n]``.

    ``w`` is [J, n, k_in, k_out] and ``u`` is [B, n, k_in]; the result is
    [B, J, n, k_out], the contraction ``jnio,bni->bjno``.  Every pass is one
    batched matmul of BLAS products, one per (class, input capsule), on
    strided views with no copy of either operand: the forward pass writes
    each [B, k_in] @ [k_in, k_out] vote straight into the C-contiguous
    result, the ``w`` gradient is u[:, n].T @ g[:, j, n], and the ``u``
    gradient sums g[:, j, n] @ w[j, n].T over the classes.
    """
    w, u = as_tensor(w), as_tensor(u)
    if w.ndim != 4:
        raise ShapeError(f"prediction weights must be [J,n,k_in,k_out], got shape {w.shape}")
    if u.ndim != 3:
        raise ShapeError(f"capsule input must be [B,n,k_in], got shape {u.shape}")
    if u.shape[1:] != w.shape[1:3]:
        raise ShapeError(
            f"capsule input {u.shape} does not match weights [n,k_in]={w.shape[1:3]}")
    wd, ud = w.data, u.data
    b, (j, n, _, k_out) = ud.shape[0], wd.shape
    data = np.empty((b, j, n, k_out), dtype=np.result_type(wd, ud))
    np.matmul(ud.transpose(1, 0, 2), wd, out=data.transpose(1, 2, 0, 3))
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)

    def vjp_u(g):
        gu = np.empty(ud.shape, dtype=g.dtype)
        per_class = np.matmul(g.transpose(1, 2, 0, 3), wd.transpose(0, 1, 3, 2))
        np.add.reduce(per_class, axis=0, out=gu.transpose(1, 0, 2))
        return gu

    return _make(data, [
        (w, lambda g: np.matmul(ud.transpose(1, 2, 0), g.transpose(1, 2, 0, 3))),
        (u, vjp_u),
    ])


# ---------------------------------------------------------------------------
# convolution (NHWC layout, [kh, kw, c_in, c_out] kernels)

def _im2col(xs: np.ndarray, kh: int, kw: int, stride: int, pads) -> np.ndarray:
    """The [len(xs)·ho·wo, kh·kw·C] window matrix of a run of whole samples
    zero-padded by ``pads`` (top, bottom, left, right; a negative pad crops).

    Rows are output pixels, columns the taps in (i, j, c) order.  For a 1x1
    kernel the rows are the sampled pixels, a view of ``xs`` at stride 1.
    """
    top, bottom, left, right = pads
    if min(pads) < 0:
        h, w = xs.shape[1:3]
        xs = xs[:, max(-top, 0):h + min(bottom, 0), max(-left, 0):w + min(right, 0)]
        top, bottom, left, right = (max(p, 0) for p in pads)
    if top or bottom or left or right:
        n, h, w, c = xs.shape
        xp = np.zeros((n, h + top + bottom, w + left + right, c), dtype=xs.dtype)
        xp[:, top:top + h, left:left + w] = xs
        xs = xp
    if kh == kw == 1:
        return xs[:, ::stride, ::stride].reshape(-1, xs.shape[3])
    # The windows are a strided view of xs's own buffer, which a padded
    # input already is; only an unpadded view (a cotangent phase) is copied.
    xs = np.ascontiguousarray(xs)
    n, h, w, c = xs.shape
    sn, sh, sw, sc = xs.strides
    windows = np.ndarray((n, (h - kh) // stride + 1, (w - kw) // stride + 1, kh, kw, c),
                         xs.dtype, buffer=xs, strides=(sn, stride * sh, stride * sw, sh, sw, sc))
    return windows.reshape(-1, kh * kw * c)


def _correlate(x: np.ndarray, w: np.ndarray, stride: int, pads, bias=None) -> np.ndarray:
    """Cross-correlation of an [N,H,W,C] array, padded by ``pads``, with a
    [kh,kw,C,F] kernel at ``stride``, plus an optional [F] ``bias``: each
    run's window matrix times the kernel matrix."""
    n, h, wd, _ = x.shape
    kh, kw, c, f = w.shape
    ho = (h + pads[0] + pads[1] - kh) // stride + 1
    wo = (wd + pads[2] + pads[3] - kw) // stride + 1
    rows, wmat = ho * wo, w.reshape(kh * kw * c, f)
    out = np.empty((n, ho, wo, f), dtype=np.result_type(x.dtype, w.dtype))
    flat = out.reshape(n * rows, f)
    run = max(1, _IM2COL_BUDGET // (rows * wmat.shape[0] * x.itemsize))
    for s in range(0, n, run):
        dst = flat[s * rows:(s + run) * rows]
        np.matmul(_im2col(x[s:s + run], kh, kw, stride, pads), wmat, out=dst)
        if bias is not None:
            dst += bias
    return out


def _phase(r: int, pad: int, k: int, size: int, size_out: int, stride: int):
    """Along one axis of a conv padded by ``pad`` in front, input pixels
    r, r + stride, ... meet the taps t, t + stride, ...  Returns t and the
    (front, back) padding of the cotangent under which those taps, flipped,
    are a stride-1 correlation whose outputs are exactly those pixels."""
    t, q = (r + pad) % stride, (r + pad) // stride
    return t, len(range(t, k, stride)) - 1 - q, len(range(r, size, stride)) + q - size_out


def conv2d(x, w, stride: int = 1, bias=None) -> Tensor:
    """Same-padded 2D cross-correlation of an [N,H,W,C] batch with a
    [kh,kw,C,F] kernel, plus an optional per-channel [F] ``bias``.

    Every pass, for every kernel size and stride, tracked or not, is
    ``_correlate``'s streamed im2col matmul, so it holds its result plus
    about ``_IM2COL_BUDGET`` bytes of window matrix.  The input gradient is
    the transposed convolution of the cotangent (Dumoulin & Visin, 2016),
    one stride-1 correlation per input phase modulo the stride; the kernel
    gradient rebuilds the windows from ``x``'s array instead of storing them
    (recompute instead of store; Chen et al., 2016).
    """
    x, w = as_tensor(x), as_tensor(w)
    b = None if bias is None else as_tensor(bias)
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be [N,H,W,C], got shape {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d kernel must be [kh,kw,c_in,c_out], got shape {w.shape}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    n, h, wd, c = x.shape
    kh, kw, c_in, c_out = w.shape
    if c != c_in:
        raise ShapeError(f"input has {c} channels but kernel expects {c_in}")
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"conv2d bias must be [{c_out}], got shape {b.shape}")
    # "same": a side n maps to ceil(n / stride)
    pad_h = max((-(-h // stride) - 1) * stride + kh - h, 0)
    pad_w = max((-(-wd // stride) - 1) * stride + kw - wd, 0)
    pads = (pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)
    xd, wdat = x.data, w.data
    data = _correlate(xd, wdat, stride, pads, None if b is None else b.data)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(data)
    ho, wo = data.shape[1:3]

    def vjp_x(g):
        # Input pixels (r::s, q::s) meet only the taps w[ti::s, tj::s], none
        # when the kernel is smaller than the stride; at stride 1 the one
        # phase is the whole gradient.
        gx = None if stride == 1 else np.zeros((n, h, wd, c), dtype=g.dtype)
        for r in range(min(stride, h)):
            ti, top, bottom = _phase(r, pads[0], kh, h, ho, stride)
            for q in range(min(stride, wd)):
                tj, left, right = _phase(q, pads[2], kw, wd, wo, stride)
                sub = wdat[ti::stride, tj::stride]
                if sub.size == 0:
                    continue
                part = _correlate(g, sub[::-1, ::-1].transpose(0, 1, 3, 2), 1,
                                  (top, bottom, left, right))
                if gx is None:
                    return part
                gx[:, r::stride, q::stride] = part
        return gx

    def vjp_w(g):
        rows = ho * wo
        gmat = g.reshape(n * rows, c_out)
        run = max(1, _IM2COL_BUDGET // (rows * kh * kw * c * xd.itemsize))
        return reduce(np.add, (
            _im2col(xd[s:s + run], kh, kw, stride, pads).T @ gmat[s * rows:(s + run) * rows]
            for s in range(0, n, run))).reshape(kh, kw, c_in, c_out)

    pairs = [(x, vjp_x), (w, vjp_w)]
    if b is not None:
        pairs.append((b, lambda g: _sum(g, (0, 1, 2))))
    return _make(data, pairs)


# ---------------------------------------------------------------------------
# batch normalization

class RunningStats:
    """Exponential moving averages of per-channel mean and variance."""

    def __init__(self, channels: int, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        m = BN_MOMENTUM
        self.mean = m * self.mean + (1.0 - m) * batch_mean.astype(self.mean.dtype, copy=False)
        self.var = m * self.var + (1.0 - m) * batch_var.astype(self.var.dtype, copy=False)


def batch_norm(x, gamma, beta, stats: RunningStats) -> Tensor:
    """Training batch norm over the trailing channel axis of [N,...,C]
    activations (Ioffe & Szegedy, 2015).

    Normalizes with the batch statistics, differentiated through so gradient
    checks see the exact Jacobian, and folds them into ``stats``.  As in
    ``fold_batch_norm``, the scale γ/√(v+ε) is formed at [C] size, so the
    activations see one multiply and one add, and the tape keeps only the
    centered input alive.  Eval mode is ``fold_batch_norm``, applied by
    ``backbone.conv_bn``.
    """
    x = as_tensor(x)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    if x.ndim < 2:
        raise ShapeError(f"batch_norm input must have a channel axis, got shape {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm scale/shift must both be [{c}], got {gamma.shape} and {beta.shape}")
    if x.shape[0] < 2:
        raise BatchSizeError(
            f"batch_norm in training mode needs at least 2 samples, got {x.shape[0]}")
    reduce_axes = tuple(range(x.ndim - 1))
    per_channel = (1,) * (x.ndim - 1) + (c,)
    m = reduce_mean(x, axis=reduce_axes)
    centered = subtract(x, reshape(m, per_channel))
    v = reduce_mean(square(centered), axis=reduce_axes)
    stats.update(m.data, v.data)
    inv = divide(1.0, sqrt(add(v, BN_EPS)))
    scale = multiply(gamma, inv)
    return add(multiply(centered, reshape(scale, per_channel)), beta)


def fold_batch_norm(gamma, beta, stats: RunningStats) -> tuple[Tensor, Tensor]:
    """Eval batch norm as the per-channel affine map ``x * scale + shift``.

    The running statistics are constants in ``gamma``'s dtype; ``scale`` and
    ``shift`` are [C]-sized tape ops on ``gamma`` and ``beta``, so gradients
    reach them through whatever consumes the fold.
    """
    dtype = gamma.dtype
    inv = 1.0 / np.sqrt(stats.var.astype(dtype) + dtype.type(BN_EPS))
    scale = multiply(gamma, inv)
    shift = subtract(beta, multiply(stats.mean.astype(dtype), scale))
    return scale, shift
