"""Convolutional backbone: a plain stem plus stages of bottleneck blocks.

Parameters live in a flat ``dict[str, Tensor]`` keyed by dotted prefixes
("stage2.block0.conv1.w"), and batch-norm running statistics live in a
parallel ``dict[str, RunningStats]``.  Layer objects hold only shapes and
names, so a forward pass always reads the current tensors, and the
optimizer can swap parameter tensors without touching the layers.

Block width plans, given a stage width f:

* ``standard``  1x1 f/4 -> 3x3 f/4 -> 1x1 f   (classic bottleneck)
* ``wide``      1x1 f/4 -> 3x3 f/2 -> 1x1 f   (widened middle conv)

Every block carries a projection skip (1x1 conv + BN) regardless of shape,
and optionally a squeeze-excite gate on the residual branch before the add.
Each batch norm follows a conv, and both run as one ``conv_bn``.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .attention import default_se_ratio, se_block
from .errors import ConfigError
from .initializers import he_normal
from .ops import RunningStats
from .tensor import Tensor

BLOCK_VARIANTS = ("wide", "standard")


def block_widths(f: int, variant: str) -> tuple[int, int, int]:
    """Channel widths (reduce, spatial, output) of one bottleneck block."""
    if variant not in BLOCK_VARIANTS:
        raise ConfigError(f"block variant must be one of {BLOCK_VARIANTS}, got {variant!r}")
    if f % 4:
        raise ConfigError(f"{variant} bottleneck needs a stage width divisible by 4, got {f}")
    return (f // 4, f // 2 if variant == "wide" else f // 4, f)


def _init_conv(rng, params: dict, name: str, kh: int, kw: int, cin: int, cout: int,
               dtype, bias: bool = False) -> None:
    params[name + ".w"] = Tensor(
        he_normal(rng, (kh, kw, cin, cout), dtype=dtype), requires_grad=True)
    if bias:
        params[name + ".b"] = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)


def _init_bn(params: dict, stats: dict, name: str, c: int, dtype) -> None:
    params[name + ".gamma"] = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
    params[name + ".beta"] = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
    stats[name] = RunningStats(c, dtype=dtype)


def conv_bn(params: dict, stats: dict, conv: str, bn: str, x, stride: int,
            training: bool):
    """Same-padded conv ``conv`` followed by batch norm ``bn``.

    Training runs the conv, then ``ops.batch_norm`` on batch statistics.
    Eval folds the running statistics into the conv (Jacob et al. 2018,
    section 3.2): ``conv2d(x, w * scale) + shift``, one pass over the
    activations instead of two.  This fold is the only eval batch norm.
    It is made of tape ops, so eval still differentiates under a tape.
    """
    w = params[conv + ".w"]
    gamma, beta = params[bn + ".gamma"], params[bn + ".beta"]
    if training:
        return ops.batch_norm(ops.conv2d(x, w, stride=stride), gamma, beta, stats[bn])
    scale, shift = ops.fold_batch_norm(gamma, beta, stats[bn], w.dtype)
    return ops.conv2d(x, ops.multiply(w, scale), stride=stride, bias=shift)


class Stem:
    """Stack of stride-1 same-padded 3x3 convolutions with ReLU."""

    def __init__(self, prefix: str, in_channels: int, widths: tuple[int, ...]):
        if not widths:
            raise ConfigError("stem needs at least one conv width")
        self.prefix = prefix
        self.in_channels = in_channels
        self.widths = tuple(widths)
        self.out_channels = self.widths[-1]

    def init(self, rng, params: dict, dtype) -> None:
        cin = self.in_channels
        for i, w in enumerate(self.widths):
            _init_conv(rng, params, f"{self.prefix}.conv{i}", 3, 3, cin, w, dtype, bias=True)
            cin = w

    def __call__(self, params: dict, x):
        for i in range(len(self.widths)):
            name = f"{self.prefix}.conv{i}"
            x = ops.relu(ops.add(ops.conv2d(x, params[name + ".w"]), params[name + ".b"]))
        return x


class Bottleneck:
    """1x1 reduce -> 3x3 (carries the stride) -> 1x1 expand, SE, skip, ReLU."""

    def __init__(self, prefix: str, in_channels: int, f: int, stride: int,
                 variant: str = "wide", use_se: bool = True):
        self.prefix = prefix
        self.in_channels = in_channels
        self.stride = stride
        self.widths = block_widths(f, variant)
        self.out_channels = self.widths[2]
        self.use_se = use_se

    def init(self, rng, params: dict, stats: dict, dtype) -> None:
        c1, c2, c3 = self.widths
        p = self.prefix
        _init_conv(rng, params, f"{p}.conv1", 1, 1, self.in_channels, c1, dtype)
        _init_bn(params, stats, f"{p}.bn1", c1, dtype)
        _init_conv(rng, params, f"{p}.conv2", 3, 3, c1, c2, dtype)
        _init_bn(params, stats, f"{p}.bn2", c2, dtype)
        _init_conv(rng, params, f"{p}.conv3", 1, 1, c2, c3, dtype)
        _init_bn(params, stats, f"{p}.bn3", c3, dtype)
        if self.use_se:
            hidden = c3 // default_se_ratio(c3)
            params[f"{p}.se.w1"] = Tensor(
                he_normal(rng, (c3, hidden), dtype=dtype), requires_grad=True)
            params[f"{p}.se.b1"] = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
            params[f"{p}.se.w2"] = Tensor(
                he_normal(rng, (hidden, c3), dtype=dtype), requires_grad=True)
            params[f"{p}.se.b2"] = Tensor(np.zeros(c3, dtype=dtype), requires_grad=True)
        _init_conv(rng, params, f"{p}.proj", 1, 1, self.in_channels, c3, dtype)
        _init_bn(params, stats, f"{p}.projbn", c3, dtype)

    def __call__(self, params: dict, stats: dict, x, training: bool):
        p = self.prefix
        y = ops.relu(conv_bn(params, stats, f"{p}.conv1", f"{p}.bn1", x, 1, training))
        y = ops.relu(conv_bn(params, stats, f"{p}.conv2", f"{p}.bn2", y, self.stride,
                             training))
        y = conv_bn(params, stats, f"{p}.conv3", f"{p}.bn3", y, 1, training)
        if self.use_se:
            y = se_block(y, params[f"{p}.se.w1"], params[f"{p}.se.b1"],
                         params[f"{p}.se.w2"], params[f"{p}.se.b2"])
        skip = conv_bn(params, stats, f"{p}.proj", f"{p}.projbn", x, self.stride, training)
        return ops.relu(ops.add(y, skip))


class Backbone:
    """Stem followed by three stages of bottleneck blocks, kept as one flat
    list; only the first block of stages 2 and 3 strides, halving the
    resolution."""

    def __init__(self, in_channels: int, stem_widths: tuple[int, ...],
                 stage_widths: tuple[int, int, int], stage_depths: tuple[int, int, int],
                 variant: str = "wide", use_se: bool = True):
        if len(stage_widths) != 3 or len(stage_depths) != 3:
            raise ConfigError("backbone expects exactly 3 stages")
        self.stem = Stem("stem", in_channels, stem_widths)
        self.blocks: list[Bottleneck] = []
        cin = self.stem.out_channels
        for s, (f, depth) in enumerate(zip(stage_widths, stage_depths), start=1):
            if depth < 1:
                raise ConfigError(f"stage depth must be >= 1, got {depth}")
            for i in range(depth):
                stride = 2 if s > 1 and i == 0 else 1
                block = Bottleneck(f"stage{s}.block{i}", cin, f, stride,
                                   variant=variant, use_se=use_se)
                self.blocks.append(block)
                cin = block.out_channels
        self.out_channels = cin

    def init(self, rng, params: dict, stats: dict, dtype) -> None:
        self.stem.init(rng, params, dtype)
        for block in self.blocks:
            block.init(rng, params, stats, dtype)

    def __call__(self, params: dict, stats: dict, x, training: bool):
        x = self.stem(params, x)
        for block in self.blocks:
            x = block(params, stats, x, training)
        return x


def parameter_count(params: dict) -> int:
    return int(sum(t.size for t in params.values()))
