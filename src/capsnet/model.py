"""Image classifier: conv backbone -> primary capsules -> routed class capsules.

The backbone output is projected by one stride-2 conv + BN into a grid of
primary capsules (channel groups of ``primary_caps_dim``), squashed, then
linearly voted into per-class predictions that a single routing pass turns
into class poses and activations.  Optionally a class-wise attention gate
reweights poses and agreements before activations are formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .attention import attention_capsules
from .backbone import Backbone, _init_bn, _init_conv, conv_bn, init_se, parameter_count
from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .initializers import he_normal
from .routing import capsule_predictions, route, squash
from .tensor import Tensor

__all__ = ["CapsuleClassifier", "ModelOutput", "parameter_count"]

PRIMARY_STRIDE = 2


@dataclass
class ModelOutput:
    probs: Tensor                 # [B, J] probability distribution used for loss/prediction
    activations: Tensor           # raw routing (or attention) activations
    poses: Tensor                 # [B, J, k] class capsule poses
    agreements: Tensor            # [B, J] scalar agreements
    gates: Optional[Tensor] = None  # [B, J] attention gates when enabled


class CapsuleClassifier:
    """Builds parameters for a :class:`ModelConfig` and runs the forward pass."""

    def __init__(self, config: ModelConfig):
        self.config = config
        h, w, c = config.input_shape
        self.backbone = Backbone(
            c, config.stem_widths, config.resolved_stage_widths(), config.stage_depths,
            variant=config.block_variant, use_se=config.use_se)
        self.primary_channels = self.backbone.out_channels
        if self.primary_channels % config.primary_caps_dim:
            raise ConfigError(
                f"primary capsule channels {self.primary_channels} must be divisible by "
                f"capsule dimension {config.primary_caps_dim}")
        # Same padding: each stride s maps a side n to ceil(n / s).
        ph, pw = h, w
        for stride in [block.stride for block in self.backbone.blocks] + [PRIMARY_STRIDE]:
            ph, pw = -(-ph // stride), -(-pw // stride)
        self.primary_grid = (ph, pw)
        self.num_primary = ph * pw * (self.primary_channels // config.primary_caps_dim)
        if self.num_primary < 2:
            raise ConfigError(
                f"model yields {self.num_primary} primary capsule(s); routing needs >= 2 "
                f"(input {h}x{w} is too small or primary channels too narrow)")
        self.np_dtype = np.float32 if config.dtype == "float32" else np.float64

    def init_params(self, seed: int = 0) -> tuple[dict, dict]:
        """Fresh (params, stats) dicts; weights HeNormal, biases zero."""
        rng = np.random.default_rng(seed)
        cfg = self.config
        params: dict[str, Tensor] = {}
        stats: dict = {}
        dtype = self.np_dtype
        self.backbone.init(rng, params, stats, dtype)
        _init_conv(rng, params, "primary.conv", 3, 3,
                   self.backbone.out_channels, self.primary_channels, dtype)
        _init_bn(params, stats, "primary.bn", self.primary_channels, dtype)
        # Each vote mixes one k_in-dim capsule, so fan_in is k_in, not the
        # full leading extent product.
        params["caps.w"] = Tensor(
            he_normal(rng, (cfg.num_classes, self.num_primary,
                            cfg.primary_caps_dim, cfg.capsule_dim),
                      fan_in=cfg.primary_caps_dim, dtype=dtype),
            requires_grad=True)
        if cfg.use_attention:
            init_se(rng, params, "attn", cfg.num_classes, dtype)
        return params, stats

    def _as_input(self, x) -> Tensor:
        if isinstance(x, Tensor):
            data = x.data
        else:
            data = np.asarray(x)
        if data.ndim != 4 or data.shape[1:] != tuple(self.config.input_shape):
            raise ShapeError(
                f"input must be [B, {self.config.input_shape[0]}, "
                f"{self.config.input_shape[1]}, {self.config.input_shape[2]}], "
                f"got shape {data.shape}")
        if isinstance(x, Tensor):
            return x
        return Tensor(data.astype(self.np_dtype, copy=False))

    def forward(self, params: dict, stats: dict, x, training: bool = False) -> ModelOutput:
        x = self._as_input(x)
        return self.head(params, stats, self.backbone(params, stats, x, training), training)

    def head(self, params: dict, stats: dict, feats: Tensor,
             training: bool = False) -> ModelOutput:
        """Everything after the backbone: primary capsules from its features
        ``feats``, routing, then the attention gate or the softmax."""
        cfg = self.config
        y = conv_bn(params, stats, "primary.conv", "primary.bn", feats, PRIMARY_STRIDE, training)
        batch = feats.shape[0]
        caps = ops.reshape(y, (batch, self.num_primary, cfg.primary_caps_dim))
        u = squash(caps)
        u_hat = capsule_predictions(u, params["caps.w"])
        routed = route(u_hat, variant=cfg.routing)
        if cfg.use_attention:
            att = attention_capsules(routed.poses, routed.agreements,
                                     params["attn.w1"], params["attn.b1"],
                                     params["attn.w2"], params["attn.b2"])
            return ModelOutput(probs=att.activations, activations=att.activations,
                               poses=att.poses, agreements=routed.agreements,
                               gates=att.gates)
        # 'original' activations are the raw exp(b); exp(b)/sum(exp(b)) is
        # softmax(b), taken shifted so it cannot overflow.
        probs = (routed.activations if cfg.routing == "modified"
                 else ops.softmax(routed.agreements))
        return ModelOutput(probs=probs, activations=routed.activations,
                           poses=routed.poses, agreements=routed.agreements)

    def predict(self, params: dict, stats: dict, x) -> np.ndarray:
        """Hard class labels for a batch (eval mode, no tape)."""
        out = self.forward(params, stats, x, training=False)
        return np.argmax(out.probs.data, axis=-1)
