"""Finite-difference verification of the reverse-mode gradients.

Central differences (f(x+h) - f(x-h)) / 2h with h = 1e-5 against the
tape's analytic gradient, in float64, scored by relative error
|a - n| / max(|a|, |n|, 1e-8).  Small tensors are checked coordinate by
coordinate; the whole-model check samples a few coordinates per parameter
tensor to stay fast while touching every layer type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import ops
from .attention import attention_capsules, se_block
from .config import ModelConfig
from .errors import GradientCheckError
from .model import CapsuleClassifier
from .routing import fm_interaction, l2_normalize, squash
from .tensor import GradientTape, Tensor
from .training import cross_entropy_loss

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    coords: int
    tol: float
    worst_source: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<22s} max_rel_err={self.max_rel_err:.3e} "
                f"(tol {self.tol:.1e}, {self.coords} coords)")


def finite_diff_check(name: str, build_loss: Callable[[], Tensor],
                      sources: dict[str, Tensor], h: float = DEFAULT_STEP,
                      tol: float = DEFAULT_TOL, max_coords: Optional[int] = None,
                      rng: Optional[np.random.Generator] = None) -> CheckResult:
    """Compare tape gradients of ``build_loss()`` against central differences.

    ``build_loss`` must recompute the scalar loss from the current data of
    the ``sources`` tensors each time it is called.  Coordinates are
    perturbed in place and restored.
    """
    for src_name, t in sources.items():
        if t.data.dtype != np.float64:
            raise GradientCheckError(
                f"gradient checking requires float64 sources; {src_name!r} is {t.data.dtype}")
        if not t.requires_grad:
            raise GradientCheckError(f"source {src_name!r} must have requires_grad=True")

    with GradientTape() as tape:
        loss = build_loss()
    if loss.size != 1:
        raise GradientCheckError(f"build_loss must return a scalar, got shape {loss.shape}")
    analytic = tape.gradient(loss, list(sources.values()))

    if max_coords is not None and rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    worst_source = ""
    total = 0
    for (src_name, t), a in zip(sources.items(), analytic):
        flat = t.data.reshape(-1)
        a_flat = a.reshape(-1)
        size = flat.shape[0]
        if max_coords is None or size <= max_coords:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords, replace=False)
        for c in coords:
            original = flat[c]
            flat[c] = original + h
            f_plus = build_loss().item()
            flat[c] = original - h
            f_minus = build_loss().item()
            flat[c] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(a_flat[c] - numeric) / max(abs(a_flat[c]), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
                worst_source = src_name
            total += 1
    return CheckResult(name=name, max_rel_err=worst, coords=total,
                       tol=tol, worst_source=worst_source)


def _t(rng, *shape, scale: float = 1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def toy_model_config(num_classes: int = 3) -> ModelConfig:
    """Smallest config that still exercises every layer type."""
    return ModelConfig(
        input_shape=(8, 8, 3), num_classes=num_classes,
        stem_widths=(2, 4, 8, 16), stage_depths=(1, 1, 1),
        block_variant="wide", use_se=True, use_attention=True, routing="modified",
        dtype="float64")


def standard_checks(h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
                    seed: int = 0, include_model: bool = True,
                    model_coords_per_tensor: int = 3) -> list[CheckResult]:
    """The fixed verification ladder: one check per differentiable op,
    then the assembled model end to end."""
    results = []

    def check(name, builder, **kwargs):
        rng = np.random.default_rng([seed, len(results)])
        build_loss, sources = builder(rng)
        results.append(finite_diff_check(name, build_loss, sources,
                                         h=h, tol=tol, rng=rng, **kwargs))

    def conv2d_case(rng):
        x = _t(rng, 2, 5, 5, 3)
        w = _t(rng, 3, 3, 3, 4, scale=0.5)
        proj = np.random.default_rng([seed, 100]).standard_normal((2, 3, 3, 4))

        def loss():
            out = ops.conv2d(x, w, stride=2, padding="same")
            return ops.reduce_sum(ops.multiply(out, Tensor(proj)))
        return loss, {"x": x, "w": w}

    def batch_norm_case(rng):
        x = _t(rng, 4, 3, 3, 5)
        gamma = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
        beta = _t(rng, 5, scale=0.2)
        proj = np.random.default_rng([seed, 101]).standard_normal((4, 3, 3, 5))

        def loss():
            stats = ops.RunningStats(5, dtype=np.float64)
            out = ops.batch_norm(x, gamma, beta, stats, training=True)
            return ops.reduce_sum(ops.multiply(out, Tensor(proj)))
        return loss, {"x": x, "gamma": gamma, "beta": beta}

    def matmul_case(rng):
        a = _t(rng, 4, 6)
        b = _t(rng, 6, 3)
        proj = np.random.default_rng([seed, 102]).standard_normal((4, 3))

        def loss():
            return ops.reduce_sum(ops.multiply(ops.matmul(a, b), Tensor(proj)))
        return loss, {"a": a, "b": b}

    def softmax_case(rng):
        x = _t(rng, 5, 7)
        proj = np.random.default_rng([seed, 103]).standard_normal((5, 7))

        def loss():
            return ops.reduce_sum(ops.multiply(ops.softmax(x, axis=-1), Tensor(proj)))
        return loss, {"x": x}

    def squash_case(rng):
        s = _t(rng, 6, 8)
        proj = np.random.default_rng([seed, 104]).standard_normal((6, 8))

        def loss():
            return ops.reduce_sum(ops.multiply(squash(s, axis=-1), Tensor(proj)))
        return loss, {"s": s}

    def l2_normalize_case(rng):
        u = _t(rng, 6, 8)
        proj = np.random.default_rng([seed, 105]).standard_normal((6, 8))

        def loss():
            return ops.reduce_sum(ops.multiply(l2_normalize(u, axis=-1), Tensor(proj)))
        return loss, {"u": u}

    def fm_interaction_case(rng):
        u = _t(rng, 3, 5, 4)
        proj = np.random.default_rng([seed, 106]).standard_normal((3, 4))

        def loss():
            return ops.reduce_sum(ops.multiply(fm_interaction(u), Tensor(proj)))
        return loss, {"u_hat": u}

    def se_block_case(rng):
        x = _t(rng, 2, 4, 4, 6)
        w1 = _t(rng, 6, 3, scale=0.7)
        b1 = _t(rng, 3, scale=0.3)
        w2 = _t(rng, 3, 6, scale=0.7)
        b2 = _t(rng, 6, scale=0.3)
        proj = np.random.default_rng([seed, 107]).standard_normal((2, 4, 4, 6))

        def loss():
            out = se_block(x, w1, b1, w2, b2)
            return ops.reduce_sum(ops.multiply(out, Tensor(proj)))
        return loss, {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2}

    def attention_case(rng):
        poses = _t(rng, 2, 4, 6)
        agree = _t(rng, 2, 4)
        w1 = _t(rng, 4, 2, scale=0.7)
        b1 = _t(rng, 2, scale=0.3)
        w2 = _t(rng, 2, 4, scale=0.7)
        b2 = _t(rng, 4, scale=0.3)
        proj_a = np.random.default_rng([seed, 108]).standard_normal((2, 4))
        proj_p = np.random.default_rng([seed, 109]).standard_normal((2, 4, 6))

        def loss():
            res = attention_capsules(poses, agree, w1, b1, w2, b2)
            la = ops.reduce_sum(ops.multiply(res.activations, Tensor(proj_a)))
            lp = ops.reduce_sum(ops.multiply(res.poses, Tensor(proj_p)))
            return ops.add(la, lp)
        return loss, {"poses": poses, "agreements": agree,
                      "w1": w1, "b1": b1, "w2": w2, "b2": b2}

    def cross_entropy_case(rng):
        raw = rng.uniform(0.05, 1.0, (4, 5))
        probs = Tensor(raw / raw.sum(axis=-1, keepdims=True), requires_grad=True)
        targets = np.zeros((4, 5))
        targets[np.arange(4), rng.integers(0, 5, 4)] = 1.0

        def loss():
            return cross_entropy_loss(probs, targets)
        return loss, {"probs": probs}

    def conv2d_1x1_case(rng):
        x = _t(rng, 2, 5, 5, 3)
        w = _t(rng, 1, 1, 3, 4, scale=0.5)
        proj = np.random.default_rng([seed, 110]).standard_normal((2, 3, 3, 4))

        def loss():
            out = ops.conv2d(x, w, stride=2, padding="same")
            return ops.reduce_sum(ops.multiply(out, Tensor(proj)))
        return loss, {"x": x, "w": w}

    check("conv2d", conv2d_case)
    check("batch_norm", batch_norm_case)
    check("matmul", matmul_case)
    check("softmax", softmax_case)
    check("squash", squash_case)
    check("l2_normalize", l2_normalize_case)
    check("fm_interaction", fm_interaction_case)
    check("se_block", se_block_case)
    check("attention_capsules", attention_case)
    check("cross_entropy_loss", cross_entropy_case)
    # Appended after the older rungs, so each of them keeps its rng stream.
    check("conv2d_1x1", conv2d_1x1_case)

    if include_model:
        results.append(model_check(h=h, tol=tol, seed=seed,
                                   coords_per_tensor=model_coords_per_tensor))
    return results


def model_check(h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL, seed: int = 0,
                coords_per_tensor: int = 3) -> CheckResult:
    """End-to-end loss gradient of the toy model w.r.t. every parameter
    tensor, a few sampled coordinates each.

    The ladder runs this at seed 0.  At other seeds it can miss ``tol``
    (33 of seeds 0-59 do); each miss examined so far has one of two
    causes, neither a wrong tape gradient:

    * Exact ReLU kinks.  Stem biases start at 0 and some 3x3 windows are
      all zero after the previous ReLU, so a few pre-activations are exactly
      0 (4 of 512 in ``stem.conv1`` at seed 6).  A central difference there
      reads the 1/2 subgradient, the tape's ``x > 0`` mask reads 0: at seed
      6, ``stem.conv1.b`` has a central difference of 9.11e-4 at every h
      from 1e-4 to 1e-7, and a tape gradient of -1.65e-3.
    * Round-off below the 1e-8 floor of the relative error, where the true
      gradient is tiny: ``primary.bn.beta`` (about 1e-18, through a batch-2
      batch norm over a 1x1 grid) and ``primary.conv.w`` (about 1e-7).
      These agree with finite differences once the step suits them.
    """
    cfg = toy_model_config()
    model = CapsuleClassifier(cfg)
    params, stats = model.init_params(seed)
    rng = np.random.default_rng([seed, 1000])
    x = rng.standard_normal((2,) + cfg.input_shape)
    labels = np.zeros((2, cfg.num_classes))
    labels[np.arange(2), rng.integers(0, cfg.num_classes, 2)] = 1.0

    def loss():
        out = model.forward(params, stats, Tensor(x), training=True)
        return cross_entropy_loss(out.probs, labels)

    return finite_diff_check("model", loss, dict(params), h=h, tol=tol,
                             max_coords=coords_per_tensor,
                             rng=np.random.default_rng([seed, 1001]))
