"""Differentiable array operations.

Every public function here computes its result eagerly with numpy and, when a
GradientTape is active and some input participates in differentiation,
records vector-Jacobian closures on the tape.  Outputs keep the dtype of
their inputs (float64 for verification paths, float32 for training paths).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import BatchSizeError, ShapeError
from .tensor import Tensor, active_tape, as_tensor

Axis = Union[None, int, tuple[int, ...]]


def _make(data: np.ndarray, pairs: Sequence[tuple[Tensor, Optional[callable]]]) -> Tensor:
    """Build the output tensor and record vjps for tracked inputs."""
    tape = active_tape()
    tracked = tape is not None and any(t.requires_grad for t, _ in pairs)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        tape.record(
            out,
            tuple(t for t, _ in pairs),
            tuple(v if t.requires_grad else None for t, v in pairs),
        )
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands, giving plain scalars the dtype of their partner."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return as_tensor(a), as_tensor(b)


def _normalize_axes(axis: Axis, ndim: int) -> Optional[tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def _spread(grad: np.ndarray, axes: Optional[tuple[int, ...]], keepdims: bool,
            shape: tuple[int, ...]) -> np.ndarray:
    """Expand a reduced gradient back to the pre-reduction shape."""
    if axes is not None and not keepdims:
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data
    return _make(data, [
        (a, lambda g, sa=a.data.shape: _unbroadcast(g, sa)),
        (b, lambda g, sb=b.data.shape: _unbroadcast(g, sb)),
    ])


def subtract(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data
    return _make(data, [
        (a, lambda g, sa=a.data.shape: _unbroadcast(g, sa)),
        (b, lambda g, sb=b.data.shape: _unbroadcast(-g, sb)),
    ])


def multiply(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data
    return _make(data, [
        (a, lambda g, bd=b.data, sa=a.data.shape: _unbroadcast(g * bd, sa)),
        (b, lambda g, ad=a.data, sb=b.data.shape: _unbroadcast(g * ad, sb)),
    ])


def divide(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data / b.data
    return _make(data, [
        (a, lambda g, bd=b.data, sa=a.data.shape: _unbroadcast(g / bd, sa)),
        (b, lambda g, ad=a.data, bd=b.data, sb=b.data.shape:
            _unbroadcast(-g * ad / (bd * bd), sb)),
    ])


def negative(x) -> Tensor:
    x = as_tensor(x)
    return _make(-x.data, [(x, lambda g: -g)])


def exp(x) -> Tensor:
    x = as_tensor(x)
    y = np.exp(x.data)
    return _make(y, [(x, lambda g, yd=y: g * yd)])


def log(x) -> Tensor:
    x = as_tensor(x)
    return _make(np.log(x.data), [(x, lambda g, xd=x.data: g / xd)])


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    y = np.sqrt(x.data)
    return _make(y, [(x, lambda g, yd=y: g * (0.5 / yd))])


def square(x) -> Tensor:
    x = as_tensor(x)
    return _make(x.data * x.data, [(x, lambda g, xd=x.data: g * (2.0 * xd))])


def maximum(x, threshold: float) -> Tensor:
    """Elementwise max against a constant; gradient is 0 on the clamped side."""
    x = as_tensor(x)
    t = x.dtype.type(threshold)
    # The mask is built in backward, so a forward without a tape skips it.
    return _make(np.maximum(x.data, t), [(x, lambda g, xd=x.data: g * (xd > t))])


def relu(x) -> Tensor:
    return maximum(x, 0.0)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = expit(x.data)
    return _make(y, [(x, lambda g, yd=y: g * yd * (1.0 - yd))])


# ---------------------------------------------------------------------------
# reductions and shape handling

def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)
    return _make(data, [(x, lambda g, s=x.data.shape: g.reshape(s))])


def reduce_sum(x, axis: Axis = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axes(axis, x.ndim)
    data = x.data.sum(axis=axes, keepdims=keepdims)
    return _make(data, [(x, lambda g, a=axes, k=keepdims, s=x.data.shape:
                         _spread(g, a, k, s).copy())])


def reduce_mean(x, axis: Axis = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _normalize_axes(axis, x.ndim)
    data = x.data.mean(axis=axes, keepdims=keepdims)
    count = x.data.size // max(data.size, 1)
    return _make(data, [(x, lambda g, a=axes, k=keepdims, s=x.data.shape, c=count:
                         _spread(g, a, k, s) / c)])


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically shifted softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g, yd=y, ax=axis):
        inner = (g * yd).sum(axis=ax, keepdims=True)
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
    return _make(data, [
        (a, lambda g, bd=b.data: g @ bd.T),
        (b, lambda g, ad=a.data: ad.T @ g),
    ])


def dense(x, w, b=None) -> Tensor:
    """Affine map ``x @ w + b`` for a [N, d_in] batch."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


_EINSUM_LETTERS = set("abcdefghijklmnopqrstuvwxyz")


def einsum2(pattern: str, a, b) -> Tensor:
    """Two-operand einsum whose gradients are einsums with swapped roles.

    Each operand label must reappear in the output or the other operand
    (no label may be summed out of one operand alone), and labels may not
    repeat within a single operand.  This covers batched capsule
    prediction contractions while keeping the backward pass exact.
    """
    a, b = _pair(a, b)
    if "->" not in pattern or pattern.count(",") != 1:
        raise ShapeError(f"einsum2 pattern must look like 'ab,bc->ac', got {pattern!r}")
    lhs, out_sub = pattern.split("->")
    a_sub, b_sub = lhs.split(",")
    for sub in (a_sub, b_sub, out_sub):
        if not set(sub) <= _EINSUM_LETTERS:
            raise ShapeError(f"einsum2 labels must be lowercase letters, got {pattern!r}")
        if len(set(sub)) != len(sub):
            raise ShapeError(f"einsum2 does not support repeated labels in one operand: {pattern!r}")
    if not set(a_sub) <= set(out_sub) | set(b_sub):
        raise ShapeError(f"label summed out of first operand alone is unsupported: {pattern!r}")
    if not set(b_sub) <= set(out_sub) | set(a_sub):
        raise ShapeError(f"label summed out of second operand alone is unsupported: {pattern!r}")
    if not set(out_sub) <= set(a_sub) | set(b_sub):
        raise ShapeError(f"output label missing from operands: {pattern!r}")

    data = np.einsum(pattern, a.data, b.data)
    return _make(data, [
        (a, lambda g, bd=b.data: np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, bd)),
        (b, lambda g, ad=a.data: np.einsum(f"{out_sub},{a_sub}->{b_sub}", g, ad)),
    ])


# ---------------------------------------------------------------------------
# convolution (NHWC layout, [kh, kw, c_in, c_out] kernels)

def _conv_geometry(h: int, w: int, kh: int, kw: int, stride: int, padding: str):
    if padding == "same":
        ho = math.ceil(h / stride)
        wo = math.ceil(w / stride)
        pad_h = max((ho - 1) * stride + kh - h, 0)
        pad_w = max((wo - 1) * stride + kw - w, 0)
    elif padding == "valid":
        if h < kh or w < kw:
            raise ShapeError(
                f"valid convolution needs input at least kernel-sized, "
                f"got input {h}x{w} and kernel {kh}x{kw}")
        ho = (h - kh) // stride + 1
        wo = (w - kw) // stride + 1
        pad_h = pad_w = 0
    else:
        raise ShapeError(f"padding must be 'same' or 'valid', got {padding!r}")
    top, left = pad_h // 2, pad_w // 2
    return ho, wo, top, pad_h - top, left, pad_w - left


def _pad_hw(x: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """Zero-pad the spatial axes of an [N,H,W,C] array; no copy without padding."""
    if not (top or bottom or left or right):
        return x
    n, h, w, c = x.shape
    xp = np.zeros((n, h + top + bottom, w + left + right, c), dtype=x.dtype)
    xp[:, top:top + h, left:left + w, :] = x
    return xp


def conv2d(x, w, stride: int = 1, padding: str = "same") -> Tensor:
    """2D cross-correlation of an [N,H,W,C] batch with a [kh,kw,C,F] kernel."""
    x, w = as_tensor(x), as_tensor(w)
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
    ho, wo, pt, pb, pl, pr = _conv_geometry(h, wd, kh, kw, stride, padding)
    if kh == kw == 1:
        return _conv2d_1x1(x, w, stride)

    xp = _pad_hw(x.data, pt, pb, pl, pr)
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    windows = windows[:, :ho, :wo]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    cols = cols.reshape(n * ho * wo, kh * kw * c)
    wmat = w.data.reshape(kh * kw * c_in, c_out)
    data = (cols @ wmat).reshape(n, ho, wo, c_out)

    padded_shape = xp.shape

    def vjp_x(g):
        gmat = g.reshape(n * ho * wo, c_out)
        gcols = (gmat @ wmat.T).reshape(n, ho, wo, kh, kw, c)
        gx = np.zeros(padded_shape, dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[:, i:i + (ho - 1) * stride + 1:stride,
                   j:j + (wo - 1) * stride + 1:stride, :] += gcols[:, :, :, i, j, :]
        return gx[:, pt:pt + h, pl:pl + wd, :]

    def vjp_w(g):
        gmat = g.reshape(n * ho * wo, c_out)
        return (cols.T @ gmat).reshape(kh, kw, c_in, c_out)

    return _make(data, [(x, vjp_x), (w, vjp_w)])


def _conv2d_1x1(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """A 1x1 convolution is one matmul over the pixels it samples.

    Its padding is always zero, under "same" and "valid" alike, so there is
    nothing to pad, no window to gather and no col2im in backward.
    """
    n, h, wd, c = x.shape
    c_out = w.shape[3]
    xs = x.data if stride == 1 else x.data[:, ::stride, ::stride]
    ho, wo = xs.shape[1:3]
    cols = xs.reshape(n * ho * wo, c)  # a copy only when strided
    wmat = w.data.reshape(c, c_out)
    data = (cols @ wmat).reshape(n, ho, wo, c_out)

    def vjp_x(g):
        gx = (g.reshape(n * ho * wo, c_out) @ wmat.T).reshape(n, ho, wo, c)
        if stride == 1:
            return gx
        full = np.zeros((n, h, wd, c), dtype=gx.dtype)
        full[:, ::stride, ::stride, :] = gx
        return full

    def vjp_w(g):
        return (cols.T @ g.reshape(n * ho * wo, c_out)).reshape(1, 1, c, c_out)

    return _make(data, [(x, vjp_x), (w, vjp_w)])


# ---------------------------------------------------------------------------
# batch normalization

class RunningStats:
    """Exponential moving averages of per-channel mean and variance."""

    def __init__(self, channels: int, momentum: float = 0.9, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.momentum = momentum

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        m = self.momentum
        self.mean = m * self.mean + (1.0 - m) * batch_mean.astype(self.mean.dtype)
        self.var = m * self.var + (1.0 - m) * batch_var.astype(self.var.dtype)

    def load(self, state: dict) -> None:
        self.mean = np.asarray(state["mean"], dtype=self.mean.dtype)
        self.var = np.asarray(state["var"], dtype=self.var.dtype)


def batch_norm(x, gamma, beta, stats: RunningStats, training: bool,
               eps: float = 1e-5) -> Tensor:
    """Normalize the trailing channel axis of [N,...,C] activations.

    Training mode normalizes with batch statistics (differentiated through,
    so gradient checks see the exact Jacobian) and folds them into ``stats``.
    Eval mode treats the running statistics as constants and folds them with
    ``gamma`` and ``beta`` into one per-channel affine map ``x * scale + shift``
    (Ioffe & Szegedy, 2015); the fold is made of [C]-sized ops, so gradients
    still reach ``x``, ``gamma`` and ``beta`` under a tape.
    """
    x = as_tensor(x)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    if x.ndim < 2:
        raise ShapeError(f"batch_norm input must have a channel axis, got shape {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm scale/shift must both be [{c}], got {gamma.shape} and {beta.shape}")
    if training:
        if x.shape[0] < 2:
            raise BatchSizeError(
                f"batch_norm in training mode needs at least 2 samples, got {x.shape[0]}")
        reduce_axes = tuple(range(x.ndim - 1))
        m = reduce_mean(x, axis=reduce_axes)
        centered = subtract(x, reshape(m, (1,) * (x.ndim - 1) + (c,)))
        v = reduce_mean(square(centered), axis=reduce_axes)
        stats.update(m.data, v.data)
        inv = divide(1.0, sqrt(add(v, eps)))
        normed = multiply(centered, reshape(inv, (1,) * (x.ndim - 1) + (c,)))
        return add(multiply(normed, gamma), beta)
    inv = 1.0 / np.sqrt(stats.var.astype(x.dtype) + x.dtype.type(eps))
    scale = multiply(gamma, inv)
    shift = subtract(beta, multiply(stats.mean.astype(x.dtype), scale))
    return add(multiply(x, scale), shift)
