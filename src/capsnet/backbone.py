"""Backbone layers: a plain stem and the bottleneck blocks that follow it.

``CapsuleClassifier.layers`` chains a ``Stem`` and three stages of
``Bottleneck`` blocks.  Both layer types share one protocol: ``prefix``, ``stride``,
``out_channels``, ``table()`` and ``__call__(params, stats, x, training)``.

Parameters live in a flat ``dict[str, Tensor]`` keyed by dotted prefixes
("stage2.block0.conv1.w"), and batch-norm running statistics live in a
parallel ``dict[str, RunningStats]``.  Layer objects hold only shapes and
names, so a forward pass always reads the current tensors, and the
optimizer can swap parameter tensors without touching the layers.  Layers
declare their tensors as ``(name, shape, init)`` rows in ``table()``, which
``model.init_from_table`` draws.

Block width plans, given a stage width f:

* ``standard``  1x1 f/4 -> 3x3 f/4 -> 1x1 f   (classic bottleneck)
* ``wide``      1x1 f/4 -> 3x3 f/2 -> 1x1 f   (widened middle conv)

Every block carries a projection skip (1x1 conv + BN) regardless of shape,
and optionally a squeeze-excite gate on the residual branch before the add.
Each batch norm follows a conv, and both run as one ``conv_bn``, which also
takes the ReLU and the block's residual add that follow it.  In eval each
such chain, and each stem conv with its bias and ReLU, is one ``conv2d``:
one pass over its activations.
"""

from __future__ import annotations

from . import ops
from .attention import default_se_ratio, se_block
from .errors import ConfigError

BLOCK_VARIANTS = ("wide", "standard")


def block_widths(f: int, variant: str) -> tuple[int, int, int]:
    """Channel widths (reduce, spatial, output) of one bottleneck block."""
    if variant not in BLOCK_VARIANTS:
        raise ConfigError(f"block variant must be one of {BLOCK_VARIANTS}, got {variant!r}")
    if f % 4:
        raise ConfigError(f"{variant} bottleneck needs a stage width divisible by 4, got {f}")
    return (f // 4, f // 2 if variant == "wide" else f // 4, f)


def conv_rows(name: str, kh: int, kw: int, cin: int, cout: int,
              bias: bool = False) -> list:
    rows = [(name + ".w", (kh, kw, cin, cout), kh * kw * cin)]
    if bias:
        rows.append((name + ".b", (cout,), "zeros"))
    return rows


def bn_rows(name: str, c: int) -> list:
    return [(name + ".gamma", (c,), "ones"), (name + ".beta", (c,), "zeros"),
            (name, (c,), "stats")]


def se_rows(name: str, c: int) -> list:
    """Squeeze-excite weights for ``c`` channels: ``w1`` [c, c/r] and
    ``w2`` [c/r, c], HeNormal, with zero biases; r = ``default_se_ratio(c)``."""
    hidden = c // default_se_ratio(c)
    return [(name + ".w1", (c, hidden), c), (name + ".b1", (hidden,), "zeros"),
            (name + ".w2", (hidden, c), hidden), (name + ".b2", (c,), "zeros")]


def conv_bn(params: dict, stats: dict, conv: str, bn: str, x, stride: int,
            training: bool, relu: bool = False, residual=None):
    """Same-padded conv ``conv``, batch norm ``bn``, then ``+ residual`` and
    a ReLU if asked.

    Training runs the conv, then ``ops.batch_norm`` on batch statistics,
    then ``relu(add(residual, ·))`` as separate ops.  Eval folds the running
    statistics into the conv (Jacob et al. 2018, section 3.2) and runs the
    chain as one ``conv2d(x, w * scale, bias=shift, residual, relu)``: one
    pass over the activations, with the bits of the separate ops.  This fold
    is the only eval batch norm.  It is made of tape ops, so eval still
    differentiates under a tape.
    """
    w = params[conv + ".w"]
    gamma, beta = params[bn + ".gamma"], params[bn + ".beta"]
    if not training:
        scale, shift = ops.fold_batch_norm(gamma, beta, stats[bn])
        return ops.conv2d(x, ops.multiply(w, scale), stride=stride, bias=shift,
                          residual=residual, relu=relu)
    y = ops.batch_norm(ops.conv2d(x, w, stride=stride), gamma, beta, stats[bn])
    if residual is not None:
        y = ops.add(residual, y)
    return ops.relu(y) if relu else y


class Stem:
    """Stack of stride-1 same-padded 3x3 convolutions with ReLU."""

    stride = 1

    def __init__(self, prefix: str, in_channels: int, widths: tuple[int, ...]):
        if not widths:
            raise ConfigError("stem needs at least one conv width")
        self.prefix = prefix
        self.in_channels = in_channels
        self.widths = tuple(widths)
        self.out_channels = self.widths[-1]

    def table(self) -> list:
        cins = (self.in_channels,) + self.widths[:-1]
        return [row for i, (cin, w) in enumerate(zip(cins, self.widths))
                for row in conv_rows(f"{self.prefix}.conv{i}", 3, 3, cin, w, bias=True)]

    def __call__(self, params: dict, stats: dict, x, training: bool):
        """Each conv, its bias and its ReLU; ``stats`` is unused, as the stem
        has no batch norm.  Eval runs them as one ``conv2d`` epilogue."""
        for i in range(len(self.widths)):
            w, b = params[f"{self.prefix}.conv{i}.w"], params[f"{self.prefix}.conv{i}.b"]
            if training:
                # separate ops until the pinned tape records change: 2 fewer a conv
                x = ops.relu(ops.add(ops.conv2d(x, w), b))
            else:
                x = ops.conv2d(x, w, bias=b, relu=True)
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

    def table(self) -> list:
        c1, c2, c3 = self.widths
        p, cin = self.prefix, self.in_channels
        return (conv_rows(f"{p}.conv1", 1, 1, cin, c1) + bn_rows(f"{p}.bn1", c1)
                + conv_rows(f"{p}.conv2", 3, 3, c1, c2) + bn_rows(f"{p}.bn2", c2)
                + conv_rows(f"{p}.conv3", 1, 1, c2, c3) + bn_rows(f"{p}.bn3", c3)
                + (se_rows(f"{p}.se", c3) if self.use_se else [])
                + conv_rows(f"{p}.proj", 1, 1, cin, c3) + bn_rows(f"{p}.projbn", c3))

    def __call__(self, params: dict, stats: dict, x, training: bool):
        p = self.prefix
        y = conv_bn(params, stats, f"{p}.conv1", f"{p}.bn1", x, 1, training, relu=True)
        y = conv_bn(params, stats, f"{p}.conv2", f"{p}.bn2", y, self.stride, training,
                    relu=True)
        y = conv_bn(params, stats, f"{p}.conv3", f"{p}.bn3", y, 1, training)
        if self.use_se:
            y = se_block(y, params[f"{p}.se.w1"], params[f"{p}.se.b1"],
                         params[f"{p}.se.w2"], params[f"{p}.se.b2"])
        return conv_bn(params, stats, f"{p}.proj", f"{p}.projbn", x, self.stride, training,
                       relu=True, residual=y)


def parameter_count(params: dict) -> int:
    return int(sum(t.size for t in params.values()))
