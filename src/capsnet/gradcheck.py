"""Finite-difference verification of the reverse-mode gradients.

Central differences (f(x+h) - f(x-h)) / 2h with h = 1e-5 against the
tape's analytic gradient, in float64, scored by relative error
|a - n| / max(|a|, |n|, 1e-8).  Small tensors are checked coordinate by
coordinate; the whole-model check samples a few coordinates per parameter
tensor to stay fast while touching every layer type, and each of its probes
reruns only the layers from the perturbed tensor's onwards.

To add a rung, append one row to ``RUNGS``, last: its inputs come from
``default_rng([seed, i])`` and the projection of its output k from
``default_rng([seed, 100 + i + k])``, where i is the row's index, so a row
appended last leaves every older rung's draws and results as they were.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from . import ops
from .attention import attention_capsules, se_block
from .backbone import conv_bn
from .config import ModelConfig
from .errors import GradientCheckError
from .model import CapsuleClassifier
from .routing import fm_interaction, l2_normalize, squash
from .tensor import GradientTape, Tensor
from .training import cross_entropy_loss

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
MODEL_COORDS_PER_TENSOR = 3


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
                      rng: Optional[np.random.Generator] = None,
                      probe_loss: Optional[Callable[[str], Callable[[], Tensor]]] = None
                      ) -> CheckResult:
    """Compare tape gradients of ``build_loss()`` against central differences.

    The analytic gradient comes from one ``build_loss()`` under a tape.  The
    probes of source ``name`` evaluate ``probe_loss(name)``, by default
    ``build_loss`` itself; either must recompute the scalar loss from the
    current data of the ``sources`` tensors each time it is called, and a
    probe loss must give the same value as ``build_loss``.  Coordinates are
    perturbed in place and restored.  A non-finite relative error scores as
    ``inf``, so a NaN gradient or loss fails the check.
    """
    if not (math.isfinite(h) and h > 0):
        raise GradientCheckError(f"finite-difference step must be positive and finite, got {h}")
    if not (math.isfinite(tol) and tol > 0):
        raise GradientCheckError(f"tolerance must be positive and finite, got {tol}")
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
        probe = build_loss if probe_loss is None else probe_loss(src_name)
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
            f_plus = probe().item()
            flat[c] = original - h
            f_minus = probe().item()
            flat[c] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            with np.errstate(invalid="ignore"):  # inf - inf scores as inf below
                rel = abs(a_flat[c] - numeric) / max(abs(a_flat[c]), abs(numeric), 1e-8)
            if not math.isfinite(rel):
                rel = math.inf
            if rel > worst:
                worst = rel
                worst_source = src_name
            total += 1
    return CheckResult(name=name, max_rel_err=worst, coords=total,
                       tol=tol, worst_source=worst_source)


def _t(rng, *shape, scale: float = 1.0) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _t_uniform(rng, low: float, high: float, n: int) -> Tensor:
    return Tensor(rng.uniform(low, high, n), requires_grad=True)


def _distribution(rng, rows: int, cols: int) -> Tensor:
    raw = rng.uniform(0.05, 1.0, (rows, cols))
    return Tensor(raw / raw.sum(axis=-1, keepdims=True), requires_grad=True)


def _bn_stats(rng, c: int) -> dict:
    """Running statistics away from their initial values, as after training."""
    stats = ops.RunningStats(c, dtype=np.float64)
    stats.load({"mean": rng.standard_normal(c) * 0.2, "var": rng.uniform(0.5, 1.5, c)})
    return {"bn": stats}


def toy_model_config() -> ModelConfig:
    """Smallest config that still exercises every layer type."""
    return ModelConfig(
        input_shape=(8, 8, 3), num_classes=3,
        stem_widths=(2, 4, 8, 16), stage_depths=(1, 1, 1),
        block_variant="wide", use_se=True, use_attention=True, routing="modified",
        dtype="float64")


# The op rungs, in ladder order: (name, draw, forward).  ``draw(rng)`` returns
# the rung's inputs by keyword, sources first (requires_grad tensors), then
# any constants; ``forward(**inputs)`` returns one output tensor or a tuple.
RUNGS = (
    ("conv2d", lambda r: dict(x=_t(r, 2, 5, 5, 3), w=_t(r, 3, 3, 3, 4, scale=0.5)),
     lambda x, w: ops.conv2d(x, w, stride=2)),
    ("batch_norm", lambda r: dict(x=_t(r, 4, 3, 3, 5), gamma=_t_uniform(r, 0.5, 1.5, 5),
                                  beta=_t(r, 5, scale=0.2)),
     lambda x, gamma, beta: ops.batch_norm(x, gamma, beta,
                                           ops.RunningStats(5, dtype=np.float64))),
    ("matmul", lambda r: dict(a=_t(r, 4, 6), b=_t(r, 6, 3)), ops.matmul),
    ("softmax", lambda r: dict(x=_t(r, 5, 7)), ops.softmax),
    ("squash", lambda r: dict(s=_t(r, 6, 8)), squash),
    ("l2_normalize", lambda r: dict(u=_t(r, 6, 8)), l2_normalize),
    ("fm_interaction", lambda r: dict(u_hat=_t(r, 3, 5, 4)), fm_interaction),
    ("se_block", lambda r: dict(x=_t(r, 2, 4, 4, 6), w1=_t(r, 6, 3, scale=0.7),
                                b1=_t(r, 3, scale=0.3), w2=_t(r, 3, 6, scale=0.7),
                                b2=_t(r, 6, scale=0.3)),
     se_block),
    ("attention_capsules", lambda r: dict(poses=_t(r, 2, 4, 6), agreements=_t(r, 2, 4),
                                          w1=_t(r, 4, 2, scale=0.7), b1=_t(r, 2, scale=0.3),
                                          w2=_t(r, 2, 4, scale=0.7), b2=_t(r, 4, scale=0.3)),
     lambda **k: attrgetter("activations", "poses")(attention_capsules(**k))),
    ("cross_entropy_loss", lambda r: dict(probs=_distribution(r, 4, 5),
                                          targets=np.eye(5)[r.integers(0, 5, 4)]),
     cross_entropy_loss),
    ("conv2d_1x1", lambda r: dict(x=_t(r, 2, 5, 5, 3), w=_t(r, 1, 1, 3, 4, scale=0.5)),
     lambda x, w: ops.conv2d(x, w, stride=2)),
    # An eval conv_bn: a 3x3 conv of the folded kernel, the folded shift as
    # its bias.
    ("conv2d_bias", lambda r: {"x": _t(r, 2, 4, 4, 2), "conv.w": _t(r, 3, 3, 2, 3, scale=0.5),
                               "bn.gamma": _t_uniform(r, 0.5, 1.5, 3),
                               "bn.beta": _t(r, 3, scale=0.2), "stats": _bn_stats(r, 3)},
     lambda x, stats, **params: conv_bn(params, stats, "conv", "bn", x, 1, training=False)),
    ("capsule_votes", lambda r: dict(w=_t(r, 3, 4, 2, 3), u=_t(r, 2, 4, 2)), ops.capsule_votes),
)


def _rung_loss(forward, inputs: dict, seed: int, i: int) -> Callable[[], Tensor]:
    """The scalar rung ``i`` checks.  A 0-d output is the loss itself;
    otherwise the loss is the sum over outputs k of <out_k, proj_k>, with
    proj_k standard normal from ``default_rng([seed, 100 + i + k])``."""
    def outputs():
        out = forward(**inputs)
        return out if isinstance(out, tuple) else (out,)

    first = outputs()
    if first[0].ndim == 0:
        return lambda: outputs()[0]
    projs = [Tensor(np.random.default_rng([seed, 100 + i + k]).standard_normal(o.shape))
             for k, o in enumerate(first)]
    return lambda: reduce(ops.add, [ops.reduce_sum(ops.multiply(o, p))
                                    for o, p in zip(outputs(), projs)])


def standard_checks(h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
                    seed: int = 0, include_model: bool = True) -> list[CheckResult]:
    """The fixed verification ladder: each of ``RUNGS``, its inputs drawn
    from ``default_rng([seed, i])``, then the assembled model end to end."""
    _check_seed(seed)
    results = []
    for i, (name, draw, forward) in enumerate(RUNGS):
        inputs = draw(np.random.default_rng([seed, i]))
        sources = {k: v for k, v in inputs.items() if isinstance(v, Tensor)}
        results.append(finite_diff_check(name, _rung_loss(forward, inputs, seed, i),
                                         sources, h=h, tol=tol))
    if include_model:
        results.append(model_check(h=h, tol=tol, seed=seed))
    return results


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise GradientCheckError(f"seed must be a non-negative integer, got {seed}")


def model_links(model: CapsuleClassifier, params: dict, stats: dict,
                labels: np.ndarray) -> list[tuple[str, Callable[[Tensor], Tensor]]]:
    """The training loss of ``model`` as a chain of links ``(prefix, run)``:
    the stem, each bottleneck block, then the head and the cross-entropy
    against ``labels``.  Each ``run`` maps the previous link's output to its
    own; the head's prefix is empty.  A parameter tensor belongs to the first
    link whose prefix its name starts with, the one link that reads it."""
    backbone = model.backbone
    return ([(backbone.stem.prefix + ".", partial(backbone.stem, params))]
            + [(block.prefix + ".", partial(block, params, stats, training=True))
               for block in backbone.blocks]
            + [("", lambda feats: cross_entropy_loss(
                model.head(params, stats, feats, training=True).probs, labels))])


def model_losses(seed: int = 0) -> tuple[dict, Callable[[], Tensor],
                                         Callable[[str], Callable[[], Tensor]]]:
    """The model rung's problem at ``seed``: the toy model's parameters, its
    full-forward training loss, and ``probe_loss(name)``, the same loss rerun
    from the cached input of the link that owns tensor ``name``.

    The inputs are computed once, at the unperturbed parameters.  Perturbing
    ``name`` leaves every earlier link's output as it was, and the later
    links run the full forward's ops in its order, so a probe reads the full
    forward's loss bit for bit.  (Batch norm updates its running statistics
    on every call, but the training loss does not read them.)
    """
    cfg = toy_model_config()
    model = CapsuleClassifier(cfg)
    params, stats = model.init_params(seed)
    rng = np.random.default_rng([seed, 1000])
    x = rng.standard_normal((2,) + cfg.input_shape)
    labels = np.zeros((2, cfg.num_classes))
    labels[np.arange(2), rng.integers(0, cfg.num_classes, 2)] = 1.0

    def full_loss():
        out = model.forward(params, stats, Tensor(x), training=True)
        return cross_entropy_loss(out.probs, labels)

    links = model_links(model, params, stats, labels)
    inputs = [Tensor(x)]
    for _, run in links[:-1]:
        inputs.append(run(inputs[-1]))

    def probe_loss(name: str) -> Callable[[], Tensor]:
        first = next(i for i, (prefix, _) in enumerate(links) if name.startswith(prefix))

        def loss():
            t = inputs[first]
            for _, run in links[first:]:
                t = run(t)
            return t
        return loss

    return params, full_loss, probe_loss


def model_check(h: float = DEFAULT_STEP, tol: float = DEFAULT_TOL,
                seed: int = 0) -> CheckResult:
    """End-to-end loss gradient of the toy model w.r.t. every parameter
    tensor, ``MODEL_COORDS_PER_TENSOR`` sampled coordinates each.

    That is 373 loss evaluations: one full forward and backward for the
    analytic gradient, then 2 probes at each of 186 coordinates (3 from each
    of the 64 tensors, every coordinate of the 5 smaller ones).  A probe
    reruns only the links from the one that owns the perturbed tensor (see
    :func:`model_losses`), so the results are those of full forward passes,
    bit for bit, at about 60% of the cost.

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
    _check_seed(seed)
    params, full_loss, probe_loss = model_losses(seed)
    return finite_diff_check("model", full_loss, dict(params), h=h, tol=tol,
                             max_coords=MODEL_COORDS_PER_TENSOR,
                             rng=np.random.default_rng([seed, 1001]),
                             probe_loss=probe_loss)
