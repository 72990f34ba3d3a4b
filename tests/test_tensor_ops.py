"""Tensor engine and op-level tests: forward values against numpy, reverse
mode against hand derivatives, and the recording semantics of the tape."""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capsnet import (CapsuleClassifier, GradientTape, ModelConfig, Tensor,
                     cross_entropy_loss, one_hot)
from capsnet import ops
from capsnet.backbone import conv_bn
from capsnet.errors import BatchSizeError, ShapeError
from capsnet.gradcheck import finite_diff_check, toy_model_config


def grad_of(fn, *tensors):
    with GradientTape() as tape:
        out = fn()
    return tape.gradient(out, list(tensors))


def keep_everything_walk(tape, loss, sources):
    """Reference reverse sweep that keeps every record and every gradient
    alive and sums each fan-in into a fresh array."""
    grads = {id(loss): np.ones_like(loss.data)}
    for out, inputs, vjps in reversed(tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        for inp, vjp in zip(inputs, vjps):
            if vjp is not None:
                c = vjp(g)
                key = id(inp)
                grads[key] = grads[key] + c if key in grads else c
    return [grads.get(id(s), np.zeros_like(s.data)) for s in sources]


class TestTensor:
    def test_wraps_and_casts_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_preserves_float32(self):
        t = Tensor(np.zeros((2, 2), dtype=np.float32))
        assert t.dtype == np.float32

    def test_rejects_zero_extent(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestTape:
    def test_no_tape_no_tracking(self):
        x = Tensor([1.0], requires_grad=True)
        y = ops.square(x)
        assert not y.requires_grad

    def test_tapes_do_not_nest(self):
        with GradientTape():
            with pytest.raises(RuntimeError):
                with GradientTape():
                    pass

    def test_tape_is_per_thread(self):
        # While a worker thread holds an open tape, this thread's eval
        # forward records nothing on it, and this thread may open its own.
        model = CapsuleClassifier(toy_model_config())
        params, stats = model.init_params(0)
        x = np.random.default_rng(0).standard_normal((4,) + model.config.input_shape)
        expected = model.forward(params, stats, x).probs.data
        opened, release = threading.Event(), threading.Event()
        held = {}

        def hold():
            with GradientTape() as tape:
                held["tape"] = tape
                try:
                    with GradientTape():
                        pass
                except RuntimeError:
                    held["refused_nesting"] = True
                opened.set()
                release.wait(timeout=60)

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert opened.wait(timeout=60)
            probs = model.forward(params, stats, x).probs
            with GradientTape() as mine:
                ops.square(Tensor([1.0], requires_grad=True))
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert held["refused_nesting"]
        assert len(held["tape"]) == 0 and len(mine) == 1
        assert not probs.requires_grad
        assert np.array_equal(probs.data, expected)

    def test_gradient_requires_scalar_loss(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradientTape() as tape:
            y = ops.square(x)
        with pytest.raises(ShapeError):
            tape.gradient(y, [x])

    def test_unused_source_gets_zeros(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([5.0], requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.square(x))
        gx, gz = tape.gradient(y, [x, z])
        assert np.allclose(gx, [2.0])
        assert np.allclose(gz, [0.0])

    def test_fanout_accumulates(self):
        # y = x*x + 3x uses x twice; dy/dx = 2x + 3
        x = Tensor([2.0], requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.add(ops.multiply(x, x), ops.multiply(x, 3.0)))
        (g,) = tape.gradient(y, [x])
        assert np.allclose(g, [7.0])

    def test_gradient_consumes_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.exp(x))
        # the activation held by exp's output and its vjp closure
        activation = weakref.ref(tape._records[0][0].data)
        recorded = len(tape)
        (g,) = tape.gradient(y, [x])
        np.testing.assert_allclose(g, np.exp([1.0, 2.0]), rtol=1e-15)
        assert activation() is None
        assert len(tape) == recorded == 2
        with pytest.raises(RuntimeError):
            tape.gradient(y, [x])

    def test_fan_in_through_aliasing_consumers(self, rng):
        # x reaches the loss five times: through square, a reshape view,
        # twice through add(x, x), and through add(x, z), which hands x and
        # z the same cotangent array; dy/dx = 2x + b^T + 2a + e, dy/dz = e
        xv = rng.standard_normal((2, 3))
        a, b, e = (rng.standard_normal(s) for s in ((2, 3), (3, 2), (2, 3)))
        x = Tensor(xv, requires_grad=True)
        z = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with GradientTape() as tape:
            terms = [ops.square(x), ops.multiply(ops.reshape(x, (3, 2)), b),
                     ops.multiply(ops.add(x, x), a), ops.multiply(ops.add(x, z), e)]
            y = ops.reduce_sum(terms[0])
            for term in terms[1:]:
                y = ops.add(y, ops.reduce_sum(term))
        gx, gz = tape.gradient(y, [x, z])
        np.testing.assert_allclose(gx, 2 * xv + b.reshape(2, 3) + 2 * a + e, rtol=1e-15, atol=0)
        np.testing.assert_allclose(gz, e, rtol=1e-15, atol=0)

    def test_intermediate_source_consumed_downstream(self, rng):
        # h is a source and also feeds three consumers; its gradient is a
        # fan-in sum that x's gradient is built from through a reshape view
        xv = rng.standard_normal((2, 3))
        c, d = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
        x = Tensor(xv, requires_grad=True)
        with GradientTape() as tape:
            h = ops.reshape(x, (3, 2))
            y = ops.add(ops.add(
                ops.reduce_sum(ops.multiply(ops.add(h, h), c)),
                ops.reduce_sum(ops.square(h))),
                ops.reduce_sum(ops.multiply(x, d)))
        gh, gx = tape.gradient(y, [h, x])
        expect_h = 2 * c + 2 * xv.reshape(3, 2)
        np.testing.assert_allclose(gh, expect_h, rtol=1e-15, atol=0)
        np.testing.assert_allclose(gx, expect_h.reshape(2, 3) + d, rtol=1e-15, atol=0)

    def test_model_step_matches_keep_everything_walk(self):
        # the acceptance tests' blob model, float32, one training step
        model = CapsuleClassifier(ModelConfig(
            input_shape=(16, 16, 1), num_classes=4,
            stem_widths=(8, 16, 16, 32), stage_depths=(1, 1, 1)))
        params, _ = model.init_params(0)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 16, 16, 1)).astype(np.float32)
        t = one_hot(rng.integers(0, 4, 8), 4, dtype=np.float32)
        names = list(params)
        results = []
        for walk in (keep_everything_walk, GradientTape.gradient):
            _, stats = model.init_params(0)
            with GradientTape() as tape:
                loss = cross_entropy_loss(
                    model.forward(params, stats, x, training=True).probs, t)
            results.append(walk(tape, loss, [params[n] for n in names]))
        for name, ref, got in zip(names, *results):
            assert got.dtype == ref.dtype == np.float32, name
            assert got.tobytes() == ref.tobytes(), name

    def test_gradient_of_intermediate(self):
        x = Tensor([3.0], requires_grad=True)
        with GradientTape() as tape:
            h = ops.square(x)
            y = ops.reduce_sum(ops.multiply(h, 2.0))
        (gh,) = tape.gradient(y, [h])
        assert np.allclose(gh, [2.0])

    def test_constants_are_not_differentiated(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.multiply(x, c))
        assert len(tape) > 0
        (g,) = tape.gradient(y, [c])
        assert np.allclose(g, [0.0])


class TestElementwise:
    def test_broadcast_add_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.add(a, b))
        ga, gb = tape.gradient(y, [a, b])
        assert ga.shape == (2, 3) and np.allclose(ga, 1.0)
        assert gb.shape == (3,) and np.allclose(gb, 2.0)

    def test_divide_grads(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.divide(a, b))
        ga, gb = tape.gradient(y, [a, b])
        assert np.allclose(ga, 1 / 3)
        assert np.allclose(gb, -6 / 9)

    def test_exp_log_sqrt_square(self, rng):
        x = rng.uniform(0.5, 2.0, (4,))
        t = Tensor(x, requires_grad=True)
        for fn, dfn in [(ops.exp, np.exp), (ops.log, lambda v: 1 / v),
                        (ops.sqrt, lambda v: 0.5 / np.sqrt(v)),
                        (ops.square, lambda v: 2 * v)]:
            with GradientTape() as tape:
                y = ops.reduce_sum(fn(t))
            (g,) = tape.gradient(y, [t])
            assert np.allclose(g, dfn(x))

    def test_relu_masks_gradient(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.relu(x))
        (g,) = tape.gradient(y, [x])
        assert np.allclose(g, [0.0, 1.0])

    def test_sigmoid_range_and_grad(self, rng):
        x = Tensor(rng.standard_normal(10), requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.sigmoid(x))
        (g,) = tape.gradient(y, [x])
        s = 1 / (1 + np.exp(-x.data))
        assert np.all((s > 0) & (s < 1))
        assert np.allclose(g, s * (1 - s))

    def test_float32_stays_float32(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        out = ops.add(ops.multiply(a, 2.0), 1.0)
        assert out.dtype == np.float32


class TestReductionsAndShape:
    def test_reduce_sum_axis_keepdims(self, rng):
        x = rng.standard_normal((2, 3, 4))
        t = Tensor(x, requires_grad=True)
        out = ops.reduce_sum(t, axis=(0, 2), keepdims=True)
        assert out.shape == (1, 3, 1)
        assert np.allclose(out.data, x.sum(axis=(0, 2), keepdims=True))
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.square(ops.reduce_sum(t, axis=2)))
        (g,) = tape.gradient(y, [t])
        assert np.allclose(g, np.broadcast_to(2 * x.sum(axis=2)[..., None], x.shape))

    def test_reduce_mean_matches_numpy(self, rng):
        x = rng.standard_normal((3, 5))
        t = Tensor(x, requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_mean(t)
        (g,) = tape.gradient(y, [t])
        assert np.allclose(y.data, x.mean())
        assert np.allclose(g, np.full_like(x, 1 / x.size))

    def test_reshape_is_view_roundtrip(self, rng):
        x = rng.standard_normal((2, 6))
        t = Tensor(x, requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.square(ops.reshape(t, (3, 4))))
        (g,) = tape.gradient(y, [t])
        assert g.shape == (2, 6)
        assert np.allclose(g, 2 * x)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 9)) * 3
        y = ops.softmax(Tensor(x))
        assert np.allclose(y.data.sum(-1), 1.0)
        # invariant to a constant shift per row
        y2 = ops.softmax(Tensor(x + 100.0))
        assert np.allclose(y.data, y2.data)


class TestMatmulEinsum:
    def test_matmul_value_and_grads(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        proj = rng.standard_normal((3, 2))
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.multiply(ops.matmul(ta, tb), Tensor(proj)))
        ga, gb = tape.gradient(y, [ta, tb])
        assert np.allclose(ga, proj @ b.T)
        assert np.allclose(gb, a.T @ proj)

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            ops.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_einsum2_matches_numpy(self, rng):
        w = rng.standard_normal((3, 4, 5, 6))
        u = rng.standard_normal((4, 5))
        out = ops.einsum2("jnio,ni->jno", Tensor(w), Tensor(u))
        assert np.allclose(out.data, np.einsum("jnio,ni->jno", w, u))

    def test_einsum2_grads_via_swap(self, rng):
        w = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        u = Tensor(rng.standard_normal((6, 3, 4)), requires_grad=True)
        proj = rng.standard_normal((6, 2, 3, 5))
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.multiply(
                ops.einsum2("jnio,bni->bjno", w, u), Tensor(proj)))
        gw, gu = tape.gradient(y, [w, u])
        assert np.allclose(gw, np.einsum("bjno,bni->jnio", proj, u.data))
        assert np.allclose(gu, np.einsum("bjno,jnio->bni", proj, w.data))

    @pytest.mark.parametrize("pattern", [
        "ab,bc",            # missing arrow
        "ab,bc->ac,d",      # malformed
        "aab,bc->ac",       # repeated label in one operand
        "abz,bc->ac",       # z summed out of lhs alone
        "ab,bc->ad",        # output label nowhere
    ])
    def test_einsum2_rejects_unsupported_patterns(self, pattern):
        a = Tensor(np.ones((2, 2, 2)) if pattern.startswith(("aab", "abz")) else np.ones((2, 2)))
        b = Tensor(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ops.einsum2(pattern, a, b)


def conv2d_loop_reference(x, w, stride):
    """Independent direct-summation "same" convolution used to pin conv2d down."""
    n, h, wd, c = x.shape
    kh, kw, _, co = w.shape
    ho = -(-h // stride)
    wo = -(-wd // stride)
    ph = max((ho - 1) * stride + kh - h, 0)
    pw = max((wo - 1) * stride + kw - wd, 0)
    xp = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    out = np.zeros((n, ho, wo, co))
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                patch = xp[b, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
                for f in range(co):
                    out[b, i, j, f] = np.sum(patch * w[:, :, :, f])
    return out


# conv2d always pads "same"; the case ids below still name it.
class TestConv2d:
    @pytest.mark.parametrize("stride,hw", [(1, (5, 5)), (2, (5, 7)), (2, (8, 8))],
                             ids=["1-same-hw0", "2-same-hw1", "2-same-hw2"])
    def test_matches_loop_reference(self, rng, stride, hw):
        x = rng.standard_normal((2, hw[0], hw[1], 3))
        w = rng.standard_normal((3, 3, 3, 4))
        out = ops.conv2d(Tensor(x), Tensor(w), stride=stride)
        ref = conv2d_loop_reference(x, w, stride)
        assert out.shape == ref.shape
        assert np.allclose(out.data, ref, atol=1e-12)

    def test_same_output_size_rule(self, rng):
        x = Tensor(rng.standard_normal((1, 7, 7, 1)))
        w = Tensor(rng.standard_normal((3, 3, 1, 1)))
        assert ops.conv2d(x, w, stride=2).shape == (1, 4, 4, 1)
        assert ops.conv2d(x, w, stride=1).shape == (1, 7, 7, 1)

    def test_shape_errors(self, rng):
        x = Tensor(rng.standard_normal((1, 5, 5, 2)))
        with pytest.raises(ShapeError):
            ops.conv2d(x, Tensor(rng.standard_normal((3, 3, 3, 4))))  # channel mismatch
        with pytest.raises(ShapeError):
            ops.conv2d(x, Tensor(rng.standard_normal((3, 3, 2, 4))), stride=0)

    def test_gradient_against_loop_reference(self, rng):
        # numeric check of conv gradients against the loop oracle via FD
        x = rng.standard_normal((1, 4, 4, 2))
        w = rng.standard_normal((3, 3, 2, 2)) * 0.5
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        proj = rng.standard_normal((1, 2, 2, 2))
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.multiply(
                ops.conv2d(tx, tw, stride=2), Tensor(proj)))
        gx, gw = tape.gradient(y, [tx, tw])
        h = 1e-6

        def f(xa, wa):
            return np.sum(conv2d_loop_reference(xa, wa, 2) * proj)

        for _ in range(5):
            i = tuple(rng.integers(0, s) for s in x.shape)
            xp_, xm_ = x.copy(), x.copy()
            xp_[i] += h
            xm_[i] -= h
            assert abs((f(xp_, w) - f(xm_, w)) / (2 * h) - gx[i]) < 1e-6
            j = tuple(rng.integers(0, s) for s in w.shape)
            wp_, wm_ = w.copy(), w.copy()
            wp_[j] += h
            wm_[j] -= h
            assert abs((f(x, wp_) - f(x, wm_)) / (2 * h) - gw[j]) < 1e-6

    @pytest.mark.parametrize("stride", [1, 2, 3], ids=lambda s: f"{s}-same")
    @pytest.mark.parametrize("hw", [(7, 9), (8, 6)])
    def test_backward_is_adjoint_of_loop_reference(self, rng, stride, hw):
        # conv is linear in x and in w, so <conv(x, w), g> = <x, vjp_x(g)>
        # = <w, vjp_w(g)> for every cotangent g
        x = rng.standard_normal((2, hw[0], hw[1], 3))
        w = rng.standard_normal((3, 3, 3, 5))
        ref = conv2d_loop_reference(x, w, stride)
        g = rng.standard_normal(ref.shape)
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.multiply(
                ops.conv2d(tx, tw, stride=stride), Tensor(g)))
        gx, gw = tape.gradient(y, [tx, tw])
        forward = np.sum(ref * g)
        for arg, grad in ((x, gx), (w, gw)):
            assert grad.shape == arg.shape
            assert abs(np.sum(arg * grad) - forward) <= 1e-12 * abs(forward)

    @pytest.mark.parametrize("stride", [1, 2, 3], ids=lambda s: f"{s}-same")
    @pytest.mark.parametrize("hw", [(5, 7), (6, 8)])
    def test_1x1_matches_loop_reference(self, rng, stride, hw):
        x = rng.standard_normal((2, hw[0], hw[1], 3))
        w = rng.standard_normal((1, 1, 3, 4))
        out = ops.conv2d(Tensor(x), Tensor(w), stride=stride)
        ref = conv2d_loop_reference(x, w, stride)
        assert out.shape == ref.shape
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    def test_1x1_strided_gradient_finite_difference(self, rng):
        # stride 2 on an odd extent: backward scatters into every other pixel
        x = Tensor(rng.standard_normal((2, 5, 6, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 1, 3, 4)) * 0.5, requires_grad=True)
        proj = Tensor(rng.standard_normal((2, 3, 3, 4)))
        result = finite_diff_check(
            "conv2d_1x1", lambda: ops.reduce_sum(ops.multiply(
                ops.conv2d(x, w, stride=2), proj)),
            {"x": x, "w": w}, tol=1e-6)
        assert result.coords == x.size + w.size
        assert result.passed, result.line()


    @pytest.mark.parametrize("k", [1, 3])
    def test_bias_matches_conv_plus_bias(self, rng, k):
        x = rng.standard_normal((2, 6, 5, 3))
        w = rng.standard_normal((k, k, 3, 4))
        b = rng.standard_normal(4)
        out = ops.conv2d(Tensor(x), Tensor(w), stride=2, bias=Tensor(b))
        ref = conv2d_loop_reference(x, w, 2) + b
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    def test_bias_gradient_finite_difference(self, rng, k):
        x = Tensor(rng.standard_normal((2, 4, 5, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((k, k, 2, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        proj = Tensor(rng.standard_normal((2, 2, 3, 3)))
        result = finite_diff_check(
            "conv2d_bias", lambda: ops.reduce_sum(ops.multiply(
                ops.conv2d(x, w, stride=2, bias=b), proj)),
            {"x": x, "w": w, "b": b}, tol=1e-6)
        assert result.coords == x.size + w.size + b.size
        assert result.passed, result.line()

    def test_bias_shape_error(self, rng):
        x = Tensor(rng.standard_normal((1, 5, 5, 2)))
        for k in (1, 3):
            with pytest.raises(ShapeError):
                ops.conv2d(x, Tensor(rng.standard_normal((k, k, 2, 4))),
                           bias=Tensor(np.zeros(3)))

    @pytest.mark.parametrize("n,chunk,stride", [
        (7, 3, 1),    # the batch is not a multiple of the chunk
        (2, 5, 1),    # the batch is smaller than one chunk
        (5, 2, 2),
    ], ids=["7-3-1-same", "2-5-1-same", "5-2-2-same"])
    def test_streamed_forward_matches_full_buffer(self, rng, monkeypatch, n, chunk, stride):
        x = rng.standard_normal((n, 7, 6, 3))
        w = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        ho, wo = ops._conv_geometry(7, 6, 3, 3, stride)[:2]
        monkeypatch.setattr(ops, "_IM2COL_BUDGET", chunk * ho * wo * 27 * x.itemsize)
        gathers = []
        window_view = ops.sliding_window_view
        monkeypatch.setattr(ops, "sliding_window_view",
                            lambda *a, **k: gathers.append(1) or window_view(*a, **k))
        streamed = ops.conv2d(Tensor(x), Tensor(w), stride, bias=Tensor(b)).data
        assert len(gathers) == -(-n // chunk)
        with GradientTape():  # tracked: one chunk of the whole batch
            full = ops.conv2d(Tensor(x, requires_grad=True), Tensor(w), stride,
                              bias=Tensor(b)).data
        assert len(gathers) == -(-n // chunk) + 1
        assert np.max(np.abs(streamed - full)) <= 1e-12
        ref = conv2d_loop_reference(x, w, stride) + b
        assert np.max(np.abs(streamed - ref)) <= 1e-12

    def test_untracked_3x3_peak_memory_is_bounded(self):
        # The im2col matrix of the whole batch would be 9x the input; an
        # untracked call holds the output plus at most one budget of it.
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 32, 32, 64), dtype=np.float32))
        w = Tensor(rng.standard_normal((3, 3, 64, 128), dtype=np.float32))
        tracemalloc.start()
        try:
            out = ops.conv2d(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * (x.data.nbytes + out.data.nbytes + ops._IM2COL_BUDGET)


class TestPoolAndBatchNorm:
    def test_global_avg_pool(self, rng):
        # se_block's global average pool: reduce_mean over the spatial axes of [N,H,W,C]
        x = rng.standard_normal((2, 3, 4, 5))
        t = Tensor(x, requires_grad=True)
        with GradientTape() as tape:
            out = ops.reduce_mean(t, axis=(1, 2))
            total = ops.reduce_sum(out)
        (g,) = tape.gradient(total, [t])
        assert np.allclose(out.data, x.mean(axis=(1, 2)))
        assert np.allclose(g, np.full_like(x, 1 / 12))

    def test_batch_norm_normalizes_in_training(self, rng):
        x = rng.standard_normal((16, 3, 3, 4)) * 3 + 2
        stats = ops.RunningStats(4, dtype=np.float64)
        out = ops.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), stats)
        flat = out.data.reshape(-1, 4)
        assert np.allclose(flat.mean(0), 0.0, atol=1e-10)
        assert np.allclose(flat.std(0), 1.0, atol=1e-3)

    def test_batch_norm_updates_running_stats(self, rng):
        x = rng.standard_normal((8, 4)) + 5
        stats = ops.RunningStats(4, dtype=np.float64)
        ops.batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), stats)
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean(0)
        assert np.allclose(stats.mean, expected_mean)

    def test_batch_norm_rejects_tiny_training_batch(self):
        stats = ops.RunningStats(3, dtype=np.float64)
        with pytest.raises(BatchSizeError):
            ops.batch_norm(Tensor(np.ones((1, 3))), Tensor(np.ones(3)),
                           Tensor(np.zeros(3)), stats)
        # eval batch norm, the fold of conv_bn, has no batch-size requirement
        params = {"c.w": Tensor(np.ones((3, 3, 3, 3))), "bn.gamma": Tensor(np.ones(3)),
                  "bn.beta": Tensor(np.zeros(3))}
        out = conv_bn(params, {"bn": stats}, "c", "bn", Tensor(np.ones((1, 3, 3, 3))), 1,
                      training=False)
        assert out.shape == (1, 3, 3, 3)

    def test_batch_norm_shape_errors(self):
        stats = ops.RunningStats(3, dtype=np.float64)
        with pytest.raises(ShapeError):
            ops.batch_norm(Tensor(np.ones((4, 3))), Tensor(np.ones(2)),
                           Tensor(np.zeros(3)), stats)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
              elements=st.floats(-50, 50, allow_nan=False)))
def test_softmax_is_always_a_distribution(x):
    y = ops.softmax(Tensor(x)).data
    assert np.all(y > 0)
    assert np.allclose(y.sum(-1), 1.0, atol=1e-12)
