"""Tests for the finite-difference checker itself: it must bless correct
gradients, flag broken ones, and refuse ill-posed setups."""

import numpy as np
import pytest

from capsnet import GradientTape, Tensor
from capsnet import ops
from capsnet.errors import GradientCheckError
from capsnet.gradcheck import finite_diff_check, standard_checks
from capsnet.tensor import active_tape


def test_blesses_a_correct_gradient():
    x = Tensor(np.random.default_rng(0).standard_normal(6), requires_grad=True)
    result = finite_diff_check("square", lambda: ops.reduce_sum(ops.square(x)),
                               {"x": x})
    assert result.passed
    assert result.coords == 6
    assert "PASS" in result.line()


def _broken_square(x: Tensor) -> Tensor:
    # deliberately wrong vjp (3x instead of 2x) to prove the checker bites
    out = Tensor(x.data ** 2, requires_grad=True)
    tape = active_tape()
    if tape is not None:
        tape.record(out, (x,), (lambda g: g * 3.0 * x.data,))
    return out


def test_flags_a_wrong_gradient():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    result = finite_diff_check("broken", lambda: ops.reduce_sum(_broken_square(x)),
                               {"x": x})
    assert not result.passed
    assert result.max_rel_err > 0.1
    assert "FAIL" in result.line()


def test_rejects_float32_sources():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(GradientCheckError, match="float64"):
        finite_diff_check("f32", lambda: ops.reduce_sum(x), {"x": x})


def test_rejects_constant_sources():
    x = Tensor(np.ones(3))
    with pytest.raises(GradientCheckError, match="requires_grad"):
        finite_diff_check("const", lambda: ops.reduce_sum(x), {"x": x})


def test_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GradientCheckError, match="scalar"):
        finite_diff_check("vec", lambda: ops.square(x), {"x": x})


def test_coordinate_sampling_bounds_work():
    x = Tensor(np.random.default_rng(1).standard_normal(50), requires_grad=True)
    result = finite_diff_check("sampled", lambda: ops.reduce_sum(ops.square(x)),
                               {"x": x}, max_coords=5)
    assert result.coords == 5
    assert result.passed


def test_restores_perturbed_values():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    before = x.data.copy()
    finite_diff_check("restore", lambda: ops.reduce_sum(ops.square(x)), {"x": x})
    assert np.array_equal(x.data, before)


def test_standard_op_checks_all_pass():
    results = standard_checks(include_model=False)
    names = [r.name for r in results]
    assert names == ["conv2d", "batch_norm", "matmul", "softmax", "squash",
                     "l2_normalize", "fm_interaction", "se_block",
                     "attention_capsules", "cross_entropy_loss", "conv2d_1x1",
                     "conv2d_bias", "capsule_votes"]
    for r in results:
        assert r.passed, r.line()
