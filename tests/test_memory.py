"""What a training step keeps alive between forward and backward: the tape
holds vjp closures only, so an activation no closure reads is freed as soon
as the forward code drops it."""

import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from capsnet import (CapsuleClassifier, GradientTape, ModelConfig, Tensor, TrainConfig,
                     init_train_state, train_epoch)
from capsnet import ops
from capsnet.data import make_blobs
from capsnet.routing import EPS_NORM, l2_normalize
from capsnet.tensor import as_tensor

BLOBS_MODEL = dict(input_shape=(16, 16, 1), num_classes=4,
                   stem_widths=(8, 16, 16, 32), stage_depths=(1, 1, 1))


def input_mask_maximum(x, threshold):
    """``ops.maximum`` with its gradient mask built from the input."""
    x = as_tensor(x)
    t = x.dtype.type(threshold)
    return ops._make(np.maximum(x.data, t), [(x, lambda g, xd=x.data: g * (xd > t))])


def test_activations_no_vjp_reads_are_freed_before_backward(monkeypatch, rng):
    outputs = {}

    def spy(name):
        fn = getattr(ops, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            outputs.setdefault(name, []).append(weakref.ref(out.data))
            return out
        monkeypatch.setattr(ops, name, wrapped)

    spy("subtract")
    spy("square")
    spy("multiply")
    x = Tensor(rng.standard_normal((4, 6, 6, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 3, 5)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(5), requires_grad=True)
    beta = Tensor(rng.standard_normal(5), requires_grad=True)
    with GradientTape() as tape:
        conv = ops.conv2d(x, w)
        normed = ops.batch_norm(conv, gamma, beta, ops.RunningStats(5, np.float64))
        loss = ops.reduce_sum(ops.relu(normed))
    # batch_norm's multiplies: gamma * inv at [C] size, then centered * scale
    freed = {"conv output": weakref.ref(conv.data),
             "square(centered)": outputs["square"][0],
             "centered * scale": outputs["multiply"][1],
             "relu input": weakref.ref(normed.data)}
    del conv, normed
    assert [name for name, ref in freed.items() if ref() is not None] == []
    # the one full-size array batch norm keeps: centered, which square's and
    # the scale multiply's vjps read; the scale is [C]
    assert outputs["subtract"][0]().shape == (4, 6, 6, 5)
    assert outputs["multiply"][0]().shape == (5,)
    grads = tape.gradient(loss, [x, w, gamma, beta])
    assert all(np.isfinite(g).all() for g in grads)


def test_tracked_3x3_conv_keeps_its_input_not_the_window_matrix(rng):
    n, h, wd, c, f = 4, 16, 16, 8, 8
    r = rng.standard_normal((n, h, wd, f))
    tracemalloc.start()
    try:
        x = Tensor(rng.standard_normal((n, h, wd, c)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, c, f)), requires_grad=True)
        with GradientTape() as tape:
            y = ops.conv2d(x, w)
            held = tracemalloc.get_traced_memory()[0]
            loss = ops.reduce_sum(ops.multiply(y, r))
    finally:
        tracemalloc.stop()
    # the window matrix would be 9x the input
    assert held < 1.5 * (x.data.nbytes + y.data.nbytes)
    (gw,) = tape.gradient(loss, [w])
    # the kernel gradient of stored windows, built tap by tap
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((n * h * wd, 9 * c))
    for i in range(3):
        for j in range(3):
            tap = 3 * i + j
            cols[:, tap * c:(tap + 1) * c] = xp[:, i:i + h, j:j + wd].reshape(-1, c)
    assert np.array_equal(cols, sliding_window_view(xp, (3, 3), axis=(1, 2))
                          .transpose(0, 1, 2, 4, 5, 3).reshape(n * h * wd, 9 * c))
    ref = (cols.T @ r.reshape(-1, f)).reshape(3, 3, c, f)
    assert gw.tobytes() == ref.tobytes()


def test_tracked_3x3_conv_backward_streams_its_windows():
    # col2im would build the [n·h·w, 9·c] window gradient, 9x the input, and
    # the kernel gradient the whole batch's window matrix
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        x = Tensor(rng.standard_normal((64, 32, 32, 64), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 64, 128), dtype=np.float32), requires_grad=True)
        with GradientTape() as tape:
            y = ops.conv2d(x, w)
            loss = ops.reduce_sum(y)
        gx, gw = tape.gradient(loss, [x, w])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # input, output, reduce_sum's cotangent, the gradients and one budget
    held = x.data.nbytes + 2 * y.data.nbytes + gx.nbytes + gw.nbytes
    assert peak < 1.1 * (held + ops._IM2COL_BUDGET)


def test_tracked_batch_norm_keeps_only_the_centered_input(rng):
    # normalizing before scaling would also keep the full-size normed input
    x = Tensor(rng.standard_normal((8, 16, 16, 32), dtype=np.float32), requires_grad=True)
    gamma = Tensor(rng.standard_normal(32, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(32, np.float32), requires_grad=True)
    r = rng.standard_normal(x.shape, dtype=np.float32)
    tracemalloc.start()
    try:
        with GradientTape() as tape:
            y = ops.batch_norm(x, gamma, beta, ops.RunningStats(32))
            loss = ops.reduce_sum(ops.multiply(y, r))
        del y
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.25 * x.data.nbytes
    grads = tape.gradient(loss, [x, gamma, beta])
    assert all(np.isfinite(g).all() for g in grads)


def test_blobs_train_step_peak_memory():
    model = CapsuleClassifier(ModelConfig(**BLOBS_MODEL))
    state = init_train_state(model, TrainConfig(epochs=1, batch_size=64, seed=0))
    x, y = make_blobs(64, num_classes=4, image_size=16, seed=0)
    tracemalloc.start()
    try:
        train_epoch(model, state, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20


@pytest.mark.parametrize("forward", [
    lambda x: ops.maximum(x, 0.5),
    lambda x: l2_normalize(x),
], ids=["maximum", "l2_normalize"])
def test_output_mask_gradient_equals_input_mask_gradient(monkeypatch, rng, forward):
    # rows at the threshold, below and above it, with a NaN, a zero vector
    # and a vector below EPS_NORM, whose squared norm the clamp replaces
    xv = np.array([[0.5, 0.5, -0.0, 0.0],
                   [0.25, 0.75, np.nan, 2.0],
                   [0.0, 0.0, 0.0, 0.0],
                   [EPS_NORM / 8, -EPS_NORM / 8, EPS_NORM / 4, 0.0]])
    r = rng.standard_normal(xv.shape)
    grads = []
    for maximum in (ops.maximum, input_mask_maximum):
        monkeypatch.setattr(ops, "maximum", maximum)
        x = Tensor(xv, requires_grad=True)
        with GradientTape() as tape:
            loss = ops.reduce_sum(ops.multiply(forward(x), r))
        grads.append(tape.gradient(loss, [x])[0])
    assert grads[0].tobytes() == grads[1].tobytes()
