"""Image classifier: conv backbone -> primary capsules -> routed class capsules.

``CapsuleClassifier.layers`` is the backbone: the stem followed by every
bottleneck block, in order; only the first block of stages 2 and 3
strides.  The forward pass, the parameter table, the
primary-grid arithmetic and the gradient check's links all walk this one
list.  Its output is projected by one stride-2 conv + BN into a grid of
primary capsules (channel groups of ``CAPSULE_DIM`` = 16, the width of
every capsule), squashed, then linearly voted into per-class predictions
that a single routing pass turns into class poses and activations.
Optionally a class-wise attention gate reweights poses and agreements
before activations are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .attention import attention_capsules
from .backbone import Bottleneck, Stem, bn_rows, conv_bn, conv_rows, se_rows
from .config import ModelConfig
from .data import normalize_images
from .errors import ConfigError, ShapeError
from .routing import capsule_predictions, route, squash
from .tensor import Tensor

__all__ = ["CapsuleClassifier", "ModelOutput"]

PRIMARY_STRIDE = 2
CAPSULE_DIM = 16


def init_from_table(rows, seed: int, dtype) -> tuple[dict, dict]:
    """Fresh (params, stats) for ``rows``, HeNormal drawn in row order."""
    rng = np.random.default_rng(seed)
    params, stats = {}, {}
    for name, shape, init in rows:
        if init == "stats":
            stats[name] = ops.RunningStats(shape[0], dtype=dtype)
        elif init == "zeros":
            params[name] = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        elif init == "ones":
            params[name] = Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
        else:
            data = (rng.standard_normal(shape) * math.sqrt(2.0 / init)).astype(dtype)
            params[name] = Tensor(data, requires_grad=True)
    return params, stats


@dataclass
class ModelOutput:
    probs: Tensor                 # [B, J] probability distribution used for loss/prediction
    poses: Tensor                 # [B, J, k] class capsule poses
    agreements: Tensor            # [B, J] scalar agreements
    gates: Optional[Tensor] = None  # [B, J] attention gates when enabled


class CapsuleClassifier:
    """Builds parameters for a :class:`ModelConfig` and runs the forward pass."""

    def __init__(self, config: ModelConfig):
        self.config = config
        h, w, c = config.input_shape
        self.layers = [Stem("stem", c, config.stem_widths)]
        for s, (f, depth) in enumerate(zip(config.resolved_stage_widths(),
                                           config.stage_depths), start=1):
            for i in range(depth):
                self.layers.append(Bottleneck(
                    f"stage{s}.block{i}", self.layers[-1].out_channels, f,
                    2 if s > 1 and i == 0 else 1, variant=config.block_variant,
                    use_se=config.use_se))
        self.primary_channels = self.layers[-1].out_channels
        if self.primary_channels % CAPSULE_DIM:
            raise ConfigError(
                f"primary capsule channels {self.primary_channels} must be divisible by "
                f"capsule dimension {CAPSULE_DIM}")
        # Same padding: each stride s maps a side n to ceil(n / s).
        ph, pw = h, w
        for stride in [layer.stride for layer in self.layers] + [PRIMARY_STRIDE]:
            ph, pw = -(-ph // stride), -(-pw // stride)
        self.primary_grid = (ph, pw)
        self.num_primary = ph * pw * (self.primary_channels // CAPSULE_DIM)
        if self.num_primary < 2:
            raise ConfigError(
                f"model yields {self.num_primary} primary capsule(s); routing needs >= 2 "
                f"(input {h}x{w} is too small or primary channels too narrow)")
        self.np_dtype = np.float32 if config.dtype == "float32" else np.float64

    def param_table(self) -> list:
        """Every tensor the config builds, as ``(name, shape, init)`` rows in
        draw order, where ``init`` is ``"zeros"``, ``"ones"``, ``"stats"`` (a
        batch norm's running mean and variance over ``shape[0]`` channels) or
        an int, the fan-in of a HeNormal draw: a zero-mean gaussian with std
        sqrt(2 / fan_in).  :func:`init_from_table` draws the rows."""
        cfg = self.config
        # Each vote mixes one k_in-dim capsule, so fan_in is k_in, not the
        # full leading extent product.
        caps = ("caps.w", (cfg.num_classes, self.num_primary, CAPSULE_DIM, CAPSULE_DIM),
                CAPSULE_DIM)
        c = self.primary_channels  # the primary conv keeps the backbone's width
        return ([row for layer in self.layers for row in layer.table()]
                + conv_rows("primary.conv", 3, 3, c, c)
                + bn_rows("primary.bn", c) + [caps]
                + (se_rows("attn", cfg.num_classes) if cfg.use_attention else []))

    def init_params(self, seed: int = 0) -> tuple[dict, dict]:
        """Fresh (params, stats) dicts; weights HeNormal, biases zero."""
        return init_from_table(self.param_table(), seed, self.np_dtype)

    def _as_input(self, x) -> Tensor:
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.ndim != 4 or data.shape[1:] != tuple(self.config.input_shape):
            raise ShapeError(
                f"input must be [B, {self.config.input_shape[0]}, "
                f"{self.config.input_shape[1]}, {self.config.input_shape[2]}], "
                f"got shape {data.shape}")
        if data.dtype == np.uint8:
            data = normalize_images(data)
        return Tensor(data.astype(self.np_dtype, copy=False))

    def forward(self, params: dict, stats: dict, x, training: bool = False) -> ModelOutput:
        """The model's output for the [B, H, W, C] batch ``x``, an array or a
        :class:`Tensor`.  This is the one place pixels become input: a uint8
        batch goes through ``normalize_images``, then every batch is cast to
        the config's dtype.  So uint8 pixels must arrive as an array:
        ``Tensor(...)`` has already made them unscaled float64."""
        x = self._as_input(x)
        for layer in self.layers:
            x = layer(params, stats, x, training)
        return self.head(params, stats, x, training)

    def head(self, params: dict, stats: dict, feats: Tensor,
             training: bool = False) -> ModelOutput:
        """Everything after ``layers``: primary capsules from their features
        ``feats``, routing, then the attention gate or the softmax."""
        cfg = self.config
        y = conv_bn(params, stats, "primary.conv", "primary.bn", feats, PRIMARY_STRIDE, training)
        batch = feats.shape[0]
        caps = ops.reshape(y, (batch, self.num_primary, CAPSULE_DIM))
        u = squash(caps)
        u_hat = capsule_predictions(u, params["caps.w"])
        routed = route(u_hat, variant=cfg.routing)
        if cfg.use_attention:
            att = attention_capsules(routed.poses, routed.agreements,
                                     params["attn.w1"], params["attn.b1"],
                                     params["attn.w2"], params["attn.b2"])
            return ModelOutput(probs=att.activations, poses=att.poses,
                               agreements=routed.agreements, gates=att.gates)
        # 'original' activations are the raw exp(b); exp(b)/sum(exp(b)) is
        # softmax(b), taken shifted so it cannot overflow.
        probs = (routed.activations if cfg.routing == "modified"
                 else ops.softmax(routed.agreements))
        return ModelOutput(probs=probs, poses=routed.poses, agreements=routed.agreements)
