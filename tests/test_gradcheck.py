"""Tests for the finite-difference checker itself: it must bless correct
gradients, flag broken ones, and refuse ill-posed setups."""

import numpy as np
import pytest

from capsnet import GradientTape, Tensor
from capsnet import ops
from capsnet.errors import GradientCheckError
from capsnet.gradcheck import (DEFAULT_STEP, DEFAULT_TOL, MODEL_COORDS_PER_TENSOR,
                               finite_diff_check, model_check, model_links, model_losses,
                               standard_checks, toy_model_config)
from capsnet.model import CapsuleClassifier
from capsnet.tensor import active_tape
from capsnet.training import cross_entropy_loss


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


def _nan_square(x: Tensor) -> Tensor:
    out = Tensor(x.data ** 2, requires_grad=True)
    tape = active_tape()
    if tape is not None:
        tape.record(out, (x,), (lambda g: g * np.nan,))
    return out


def test_flags_a_nan_gradient():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    result = finite_diff_check("nan", lambda: ops.reduce_sum(_nan_square(x)), {"x": x})
    assert not result.passed
    assert result.max_rel_err == np.inf
    assert result.worst_source == "x"
    assert "FAIL" in result.line()


@pytest.mark.parametrize("kwargs,mention", [
    (dict(h=np.inf), "step"), (dict(h=np.nan), "step"), (dict(h=0.0), "step"),
    (dict(tol=0.0), "tolerance"), (dict(tol=np.nan), "tolerance"),
    (dict(tol=np.inf), "tolerance"), (dict(tol=-1e-4), "tolerance"),
], ids=["h_inf", "h_nan", "h_zero", "tol_zero", "tol_nan", "tol_inf", "tol_negative"])
def test_rejects_an_ill_posed_step_or_tolerance(kwargs, mention):
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GradientCheckError, match=mention):
        finite_diff_check("bad", lambda: ops.reduce_sum(ops.square(x)), {"x": x}, **kwargs)


def test_rejects_a_negative_seed():
    with pytest.raises(GradientCheckError, match="seed"):
        standard_checks(seed=-1, include_model=False)
    with pytest.raises(GradientCheckError, match="seed"):
        model_check(seed=-1)


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


def _toy_problem(seed):
    cfg = toy_model_config()
    model = CapsuleClassifier(cfg)
    params, stats = model.init_params(seed)
    rng = np.random.default_rng([seed, 1000])
    x = rng.standard_normal((2,) + cfg.input_shape)
    labels = np.zeros((2, cfg.num_classes))
    labels[np.arange(2), rng.integers(0, cfg.num_classes, 2)] = 1.0
    return model, params, stats, x, labels


def full_forward_model_check(h=DEFAULT_STEP, tol=DEFAULT_TOL, seed=0):
    """The oracle of ``model_check``: every probe runs the whole model."""
    model, params, stats, x, labels = _toy_problem(seed)

    def loss():
        out = model.forward(params, stats, Tensor(x), training=True)
        return cross_entropy_loss(out.probs, labels)

    return finite_diff_check("model", loss, dict(params), h=h, tol=tol,
                             max_coords=MODEL_COORDS_PER_TENSOR,
                             rng=np.random.default_rng([seed, 1001]))


@pytest.mark.parametrize("seed", range(6))
def test_model_check_equals_the_full_forward_oracle(seed):
    """Seeds 2-5 include ones that miss the tolerance: failing results must
    match too, bit for bit."""
    fast, oracle = model_check(seed=seed), full_forward_model_check(seed=seed)
    assert fast.max_rel_err.hex() == oracle.max_rel_err.hex()
    assert (fast.coords, fast.worst_source) == (oracle.coords, oracle.worst_source)


class _ReadLog(dict):
    """A params dict that records which names are read."""

    def __init__(self, params):
        super().__init__(params)
        self.read = []

    def __getitem__(self, name):
        self.read.append(name)
        return super().__getitem__(name)


def test_each_toy_tensor_belongs_to_the_one_link_that_reads_it():
    model, params, stats, x, labels = _toy_problem(0)
    log = _ReadLog(params)
    links = model_links(model, log, stats, labels)
    assert len(links) == 1 + len(model.backbone.blocks) + 1
    t, readers = Tensor(x), {}
    for i, (_, run) in enumerate(links):
        log.read.clear()
        t = run(t)
        for name in log.read:
            readers.setdefault(name, set()).add(i)
    assert sorted(readers) == sorted(params) and len(params) == 64
    for name, links_reading in readers.items():
        owner = next(i for i, (prefix, _) in enumerate(links) if name.startswith(prefix))
        assert links_reading == {owner}, name


def test_a_probe_in_each_link_reads_the_full_forward_loss():
    params, full_loss, probe_loss = model_losses(seed=0)
    firsts = {}  # the first tensor of the stem, of each block, and of
    for name in params:  # the head's primary conv, votes and attention
        firsts.setdefault(name.rsplit(".", 2)[0], name)
    assert list(firsts) == ["stem", "stage1.block0", "stage2.block0", "stage3.block0",
                            "primary", "caps", "attn"]
    for name in firsts.values():
        flat = params[name].data.reshape(-1)
        original = flat[0]
        for value in (original, original + DEFAULT_STEP, original - DEFAULT_STEP):
            flat[0] = value
            assert probe_loss(name)().item() == full_loss().item(), name
        flat[0] = original
