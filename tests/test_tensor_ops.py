"""Tensor engine and op-level tests: forward values against numpy, reverse
mode against hand derivatives, and the recording semantics of the tape."""

import threading
import tracemalloc
import warnings
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
    grads = {loss.key: np.ones_like(loss.data)}
    for out, links in reversed(tape._records):
        g = grads.get(out)
        if g is None:
            continue
        for key, vjp in links:
            c = vjp(g)
            grads[key] = grads[key] + c if key in grads else c
    return [grads.get(s.key, np.zeros_like(s.data)) for s in sources]


class TestTensor:
    def test_wraps_and_casts_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)
        for value, expect in [(np.array([0.5, -2.0], dtype=np.float16), [0.5, -2.0]),
                              (np.array([True, False]), [1.0, 0.0]),
                              (np.float16(1.5), 1.5), (np.int32(-3), -3.0),
                              (np.float32(2.5), 2.5), (True, 1.0)]:
            t = Tensor(value)
            want = np.float32 if isinstance(value, np.float32) else np.float64
            assert t.dtype == want
            assert t.shape == np.shape(value)
            assert np.array_equal(t.data, expect)

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
            e = ops.exp(x)
            y = ops.reduce_sum(e)
        # exp's output array, which its vjp closure holds once ``e`` is gone
        activation = weakref.ref(e.data)
        del e
        assert activation() is not None
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

    def test_add_of_a_constant_records_one_link(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradientTape() as tape:
            y = ops.add(x, Tensor([3.0, 4.0]))
        ((out, links),) = tape._records
        assert out == y.key and y.requires_grad
        assert [key for key, _ in links] == [x.key]

    def test_op_on_constants_records_nothing(self):
        with GradientTape() as tape:
            y = ops.multiply(Tensor([1.0, 2.0]), 3.0)
        assert len(tape) == 0
        assert not y.requires_grad

    def test_reduction_gradients_are_writable_and_unshared(self, rng):
        # Both vjps return read-only broadcasts of the loss's cotangent;
        # gradient() hands each source an array of its own.
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.add(ops.reduce_sum(a), ops.reduce_mean(b, axis=(0, 1)))
        ga, gb = tape.gradient(loss, [a, b])
        assert np.array_equal(ga, np.ones((3, 4)))
        assert np.array_equal(gb, np.full((2, 5), 0.1))
        assert ga.flags.writeable and gb.flags.writeable
        assert not np.shares_memory(ga, gb)
        ga += 1.0
        assert np.array_equal(gb, np.full((2, 5), 0.1))

    @pytest.mark.parametrize("case", ["add", "add_reshape", "intermediate_source"])
    def test_sources_sharing_a_cotangent_get_memory_of_their_own(self, rng, case):
        # add's vjp hands both operands its cotangent, and reshape's a view of
        # it; each source's gradient is still writable and unshared.
        av, bv = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
        with GradientTape() as tape:
            if case == "add":
                loss = ops.reduce_sum(ops.square(ops.add(a, b)))
                sources, expected = [a, b], [2 * (av + bv)] * 2
            elif case == "add_reshape":
                b = Tensor(bv.reshape(3, 2), requires_grad=True)
                loss = ops.reduce_sum(ops.square(ops.add(a, ops.reshape(b, (2, 3)))))
                sources, expected = [a, b], [2 * (av + bv), 2 * (av + bv).reshape(3, 2)]
            else:
                h = ops.reshape(a, (3, 2))
                loss = ops.reduce_sum(ops.square(h))
                sources, expected = [h, a], [2 * av.reshape(3, 2), 2 * av]
        grads = tape.gradient(loss, sources)
        for g, want in zip(grads, expected):
            assert g.flags.writeable
            np.testing.assert_allclose(g, want, rtol=1e-15, atol=0)
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)
        grads[0] += 1.0
        np.testing.assert_allclose(grads[1], expected[1], rtol=1e-15, atol=0)

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

    def test_square_vjp_allocates_only_its_result(self, rng):
        # below numpy's 256 KiB cut for reusing a temporary in place
        x = Tensor(rng.standard_normal(4096), requires_grad=True)
        g = rng.standard_normal(4096)
        with GradientTape() as tape:
            ops.square(x)
        [(_, [(_, vjp)])] = tape._records
        tracemalloc.start()
        try:
            out = vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * g.nbytes
        assert out.tobytes() == (g * (2.0 * x.data)).tobytes()

    @staticmethod
    def _maximum_vjp(x, threshold):
        with GradientTape() as tape:
            y = ops.maximum(x, threshold)
        [(_, [(_, vjp)])] = tape._records
        return y, vjp

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("threshold", [0.0, 1e-12, -0.5])
    def test_maximum_vjp_matches_a_bool_mask_bit_for_bit(self, rng, dtype, threshold):
        xd = rng.standard_normal(64).astype(dtype)
        xd[:4] = [np.nan, 0.0, -0.0, threshold]
        x = Tensor(xd, requires_grad=True)
        g = rng.standard_normal(64).astype(dtype)
        # on a clamped entry a negative g gives -0.0, and NaN or inf gives NaN
        g[:8] = [-1.0, np.nan, -0.0, np.inf] * 2
        y, vjp = self._maximum_vjp(x, threshold)
        with np.errstate(invalid="ignore"):  # inf * 0
            out = vjp(g)
            by_output = g * (y.data > dtype(threshold))
            by_input = g * (xd > dtype(threshold))
        assert out.dtype == dtype
        assert out.tobytes() == by_output.tobytes() == by_input.tobytes()

    def test_maximum_vjp_allocates_only_its_result(self, rng):
        # Below numpy's 256 KiB cut for reusing a temporary in place, and
        # large enough that the comparison's fixed cast buffer (8192 bools)
        # fits the margin while a full bool mask (30 kB) does not.
        x = Tensor(rng.standard_normal(30000), requires_grad=True)
        g = rng.standard_normal(30000)
        _, vjp = self._maximum_vjp(x, 0.0)
        tracemalloc.start()
        try:
            out = vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * g.nbytes
        assert out.tobytes() == (g * (x.data > 0)).tobytes()

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_extremes_match_expit(self, dtype):
        from scipy.special import expit
        mags = np.array([0.0, 1.0, 20.0, 88.8, 89.0, 710.0, 1e4, np.inf])
        x = np.concatenate([mags, -mags]).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ops.sigmoid(Tensor(x)).data
        assert y.dtype == dtype
        assert np.all((y >= 0) & (y <= 1)) and y[0] == 0.5
        # expit underflows to 0 at -89 (float32) and -710 (float64), where
        # this form still gives a subnormal
        info = np.finfo(dtype)
        np.testing.assert_allclose(y, expit(x), rtol=8 * info.eps, atol=info.tiny)

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

    @pytest.mark.parametrize("shape,axes,keepdims", [
        ((8, 8, 8, 16), (0, 1, 2), False),    # batch norm's per-channel sums
        ((2, 4, 4, 8), (0, 1, 2), False),     # the same below the cut
        ((8, 8, 8, 16), (1, 2), False),       # the SE squeeze
        ((2, 3, 3, 4), (1, 2), False),
        ((8, 10, 256, 16), (2,), False),      # routing's sum over axis -2
        ((4, 5, 16), (2,), False),            # trailing axis
        ((8, 8, 8, 16), (0, 2), False),       # non-adjacent axes
        ((8, 8, 8, 16), None, False),
        ((8, 8, 8, 16), (0, 1, 2), True),
        ((8, 8, 8, 16), (1, 2), True),
        ((300, 1), (0,), True),               # a [C]=[1] bias over a batch
    ])
    def test_sum_matches_numpy(self, rng, shape, axes, keepdims):
        a = rng.standard_normal(shape)
        got = ops._sum(a, axes, keepdims)
        want = a.sum(axis=axes, keepdims=keepdims)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.abs(a).sum(axis=axes, keepdims=keepdims))

    @pytest.mark.parametrize("layout", ["strided", "transposed", "broadcast"])
    def test_sum_of_non_contiguous_views(self, rng, layout):
        base = rng.standard_normal((16, 32, 8, 4))
        a = {"strided": base[:, ::2],
             "transposed": base.transpose(1, 0, 2, 3),
             "broadcast": np.broadcast_to(base[:1], base.shape)}[layout]
        assert not a.flags.c_contiguous
        np.testing.assert_allclose(ops._sum(a, (0, 1, 2)), a.sum(axis=(0, 1, 2)),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", [ops._GEMV_ROWS - 1, ops._GEMV_ROWS])
    def test_sum_takes_the_matrix_vector_product_from_the_cut(self, rng, monkeypatch, rows):
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a: calls.append(1) or matmul(*a))
        a = rng.standard_normal((rows, 1, 8))
        np.testing.assert_allclose(ops._sum(a, (0, 1)), a.sum(axis=(0, 1)),
                                   rtol=1e-12, atol=1e-12)
        assert len(calls) == (rows >= ops._GEMV_ROWS)

    def test_float32_channel_sum_is_no_less_accurate(self, rng):
        # numpy adds the 16384 rows one after another; the product must not
        # round worse against a float64 oracle
        a = rng.random((64, 16, 16, 16), dtype=np.float32)
        oracle = a.astype(np.float64).sum(axis=(0, 1, 2))
        got = ops._sum(a, (0, 1, 2))
        assert got.dtype == np.float32
        assert (np.abs(got - oracle).max()
                <= np.abs(a.sum(axis=(0, 1, 2)) - oracle).max())

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

    # J=3, n=4, k_in=5, k_out=6 and B=2 all differ, so a swapped axis shows
    def test_capsule_votes_matches_numpy(self, rng):
        w = rng.standard_normal((3, 4, 5, 6))
        u = rng.standard_normal((2, 4, 5))
        out = ops.capsule_votes(Tensor(w), Tensor(u))
        assert out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, np.einsum("jnio,bni->bjno", w, u), rtol=1e-12)
        # each vote is one capsule times its own weight matrix
        np.testing.assert_allclose(out.data[1, 2, 3], u[1, 3] @ w[2, 3], rtol=1e-12)

    def test_capsule_votes_grads_via_swap(self, rng):
        w = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        u = Tensor(rng.standard_normal((6, 3, 4)), requires_grad=True)
        proj = rng.standard_normal((6, 2, 3, 5))
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.multiply(ops.capsule_votes(w, u), Tensor(proj)))
        gw, gu = tape.gradient(y, [w, u])
        assert len(tape) == 3  # votes, multiply, reduce_sum
        np.testing.assert_allclose(gw, np.einsum("bjno,bni->jnio", proj, u.data), rtol=1e-12)
        np.testing.assert_allclose(gu, np.einsum("bjno,jnio->bni", proj, w.data), rtol=1e-12)


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


def batch_norm_composite_reference(x, gamma, beta, stats):
    """Training batch norm that normalizes first and scales after,
    ``(centered * inv) * gamma + beta``: 12 records like ``ops.batch_norm``,
    used to pin it down."""
    reduce_axes = tuple(range(x.ndim - 1))
    channel = (1,) * (x.ndim - 1) + (x.shape[-1],)
    m = ops.reduce_mean(x, axis=reduce_axes)
    centered = ops.subtract(x, ops.reshape(m, channel))
    v = ops.reduce_mean(ops.square(centered), axis=reduce_axes)
    stats.update(m.data, v.data)
    inv = ops.divide(1.0, ops.sqrt(ops.add(v, ops.BN_EPS)))
    normed = ops.multiply(centered, ops.reshape(inv, channel))
    return ops.add(ops.multiply(normed, gamma), beta)


def rel_err(a, ref):
    """Largest difference from ``ref`` over ``ref``'s largest magnitude."""
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def conv2d_col2im_vjps(x, w, stride, g):
    """Float64 oracle of conv2d's gradients from the stored window matrix:
    tap by tap, the kernel gradient sums windows times ``g`` and the input
    gradient scatters ``g @ w.T`` back onto the padded input (col2im)."""
    n, h, wd, c = x.shape
    kh, kw, _, co = w.shape
    _, ho, wo, _ = g.shape
    ph = max((ho - 1) * stride + kh - h, 0)
    pw = max((wo - 1) * stride + kw - wd, 0)
    xp = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    gmat = g.reshape(-1, co)
    gcols = (gmat @ w.reshape(-1, co).T).reshape(n, ho, wo, kh, kw, c)
    gx, gw = np.zeros(xp.shape), np.zeros(w.shape)
    for i in range(kh):
        for j in range(kw):
            taps = (slice(None), slice(i, i + (ho - 1) * stride + 1, stride),
                    slice(j, j + (wo - 1) * stride + 1, stride))
            gw[i, j] = xp[taps].reshape(-1, c).T @ gmat
            gx[taps] += gcols[:, :, :, i, j]
    return gx[:, ph // 2:ph // 2 + h, pw // 2:pw // 2 + wd], gw


def adjoint_cases():
    """Kernels, strides and input sizes of the adjoint test; the first six
    keep the ids they had when the test covered 3x3 kernels only."""
    for k in [(3, 3), (1, 1), (2, 2), (1, 3), (5, 5)]:
        for i, hw in enumerate([(7, 9), (8, 6), (1, 1), (2, 7)]):
            for stride in (1, 2, 3, 4):
                old = k == (3, 3) and i < 2 and stride < 4
                yield pytest.param(k, stride, hw, id=f"hw{i}-{stride}-same" if old else
                                   f"{k[0]}x{k[1]}-{hw[0]}x{hw[1]}-{stride}-same")


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

    @pytest.mark.parametrize("k,stride,hw", adjoint_cases())
    def test_backward_is_adjoint_of_loop_reference(self, rng, k, stride, hw):
        # conv is linear in x and in w, so <conv(x, w), g> = <x, vjp_x(g)>
        # = <w, vjp_w(g)> for every cotangent g; each vjp also matches the
        # stored-window oracle
        x = rng.standard_normal((2, hw[0], hw[1], 3))
        w = rng.standard_normal((*k, 3, 5))
        ref = conv2d_loop_reference(x, w, stride)
        g = rng.standard_normal(ref.shape)
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        with GradientTape() as tape:
            y = ops.reduce_sum(ops.multiply(
                ops.conv2d(tx, tw, stride=stride), Tensor(g)))
        grads = tape.gradient(y, [tx, tw])
        forward = np.sum(ref * g)
        for arg, grad, oracle in zip((x, w), grads, conv2d_col2im_vjps(x, w, stride, g)):
            assert grad.shape == arg.shape
            assert abs(np.sum(arg * grad) - forward) <= 1e-12 * abs(forward)
            assert np.max(np.abs(grad - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))

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
        # every pass streams, tracked or not: under a budget of `chunk`
        # samples both forwards build one window matrix per run, and the
        # output and both gradients match a single run of the whole batch
        x = rng.standard_normal((n, 7, 6, 3))
        w = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        ho, wo = -(-7 // stride), -(-6 // stride)
        g = rng.standard_normal((n, ho, wo, 4))
        builds = []
        im2col = ops._im2col
        monkeypatch.setattr(ops, "_im2col", lambda xs, *a: builds.append(len(xs)) or im2col(xs, *a))

        def passes(budget):
            monkeypatch.setattr(ops, "_IM2COL_BUDGET", budget)
            builds.clear()
            untracked = ops.conv2d(Tensor(x), Tensor(w), stride, bias=Tensor(b)).data
            tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            with GradientTape() as tape:
                y = ops.conv2d(tx, tw, stride, bias=Tensor(b))
                forward_builds = list(builds)
                loss = ops.reduce_sum(ops.multiply(y, Tensor(g)))
            return forward_builds, [untracked, y.data, *tape.gradient(loss, [tx, tw])]

        runs = [min(chunk, n - s) for s in range(0, n, chunk)]
        forward_builds, streamed = passes(chunk * ho * wo * 27 * x.itemsize)
        assert forward_builds == runs + runs
        forward_builds, whole = passes(1 << 40)
        assert forward_builds == [n, n]
        for part, full in zip(streamed, whole):
            assert np.max(np.abs(part - full)) <= 1e-12
        ref = conv2d_loop_reference(x, w, stride) + b
        assert np.max(np.abs(streamed[0] - ref)) <= 1e-12

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

    @pytest.mark.parametrize("shape", [(8, 6, 6, 5), (16, 4, 4, 3)])
    def test_batch_norm_matches_composite_reference(self, rng, shape):
        c = shape[-1]
        x = rng.standard_normal(shape) * 3 + 2
        gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
        proj = rng.standard_normal(shape)
        runs = []
        for bn in (ops.batch_norm, batch_norm_composite_reference):
            ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            stats = ops.RunningStats(c, np.float64)
            with GradientTape() as tape:
                out = bn(*ts, stats)
                loss = ops.reduce_sum(ops.multiply(out, Tensor(proj)))
            runs.append((len(tape), out.data, *tape.gradient(loss, ts[1:]), stats))
        (n, out, g_gamma, g_beta, stats), (n_ref, ref, r_gamma, r_beta, r_stats) = runs
        assert n == n_ref == 14  # 12 batch-norm records, the multiply and the sum
        assert rel_err(out, ref) <= 1e-12
        assert rel_err(g_gamma, r_gamma) <= 1e-12
        assert rel_err(g_beta, r_beta) <= 1e-12
        assert stats.mean.tobytes() == r_stats.mean.tobytes()
        assert stats.var.tobytes() == r_stats.var.tobytes()

    @pytest.mark.parametrize("shape", [(8, 6, 6, 5), (16, 4, 4, 3), (2, 1, 1, 7)])
    def test_batch_norm_input_gradient_matches_closed_form(self, rng, shape):
        c = shape[-1]
        x = rng.standard_normal(shape) * 3 + 2
        gamma, g = rng.standard_normal(c), rng.standard_normal(shape)
        t = Tensor(x, requires_grad=True)
        with GradientTape() as tape:
            out = ops.batch_norm(t, Tensor(gamma), Tensor(np.zeros(c)),
                                 ops.RunningStats(c, np.float64))
            loss = ops.reduce_sum(ops.multiply(out, Tensor(g)))
        (dx,) = tape.gradient(loss, [t])
        # dx = γ·inv/N·(N·g − Σg − x̂·Σ(g·x̂)) with x̂ = (x − mean)·inv
        axes, count = tuple(range(x.ndim - 1)), x.size // c
        inv = 1.0 / np.sqrt(x.var(axis=axes) + ops.BN_EPS)
        x_hat = (x - x.mean(axis=axes)) * inv
        ref = gamma * inv / count * (
            count * g - g.sum(axis=axes) - x_hat * (g * x_hat).sum(axis=axes))
        assert rel_err(dx, ref) <= 1e-10

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
