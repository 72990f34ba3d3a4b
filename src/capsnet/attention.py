"""Squeeze-and-excitation gating for feature maps and for capsule outputs.

The SE block learns a per-channel gate in (0, 1): global-average-pool the
map, squeeze through a bottleneck dense layer with ReLU, restore width with
a second dense layer, sigmoid, and rescale the input channels.  The capsule
variant applies the same squeeze/excite machinery across classes, gating
both the class poses and their scalar agreements before activations are
recomputed.

Each differentiable function has a ``*_reference`` twin: a straight-line
numpy implementation kept deliberately independent of the tensor engine so
the two can be checked against each other.  The twins take their sigmoid
from ``scipy.special.expit``, imported on the first call, so importing the
package does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .tensor import Tensor, as_tensor


def default_se_ratio(channels: int) -> int:
    """SE reduction ratio for a map (or class count) of ``channels``.

    Wide maps (128 channels) reduce by 8; otherwise the largest divisor of
    ``channels`` not exceeding 4 keeps the bottleneck at least one unit wide
    for small channel counts and class counts.
    """
    if channels == 128:
        return 8
    for ratio in (4, 3, 2):
        if channels % ratio == 0:
            return ratio
    return 1


def _excite(pooled, w1, b1, w2, b2) -> Tensor:
    """The squeeze-excite gate of pooled [N,C] features:
    sigmoid(W2 relu(W1 pooled + b1) + b2)."""
    hidden = ops.relu(ops.add(ops.matmul(pooled, w1), b1))
    return ops.sigmoid(ops.add(ops.matmul(hidden, w2), b2))


def _excite_reference(pooled: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """Straight-line numpy oracle for :func:`_excite`, in float64."""
    from scipy.special import expit
    hidden = np.maximum(pooled @ np.asarray(w1, np.float64) + np.asarray(b1, np.float64), 0.0)
    return expit(hidden @ np.asarray(w2, np.float64) + np.asarray(b2, np.float64))


def se_block(x, w1, b1, w2, b2) -> Tensor:
    """Channel-gated feature map: x * sigmoid(W2 relu(W1 avgpool(x) + b1) + b2).

    ``x`` is [N,H,W,C]; ``w1`` is [C, C/r], ``w2`` is [C/r, C].  Gates lie
    strictly inside (0, 1), so the output never exceeds the input in
    magnitude.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"se_block input must be [N,H,W,C], got shape {x.shape}")
    c = x.shape[-1]
    w1, w2 = as_tensor(w1), as_tensor(w2)
    if w1.shape[0] != c or w2.shape[1] != c or w1.shape[1] != w2.shape[0]:
        raise ShapeError(
            f"SE weights {w1.shape} and {w2.shape} do not form a {c}->hidden->{c} bottleneck")
    gate = _excite(ops.reduce_mean(x, axis=(1, 2)), w1, b1, w2, b2)
    n = x.shape[0]
    return ops.multiply(x, ops.reshape(gate, (n, 1, 1, c)))


def se_block_reference(x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                       w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Straight-line numpy oracle for :func:`se_block` (no tensor engine)."""
    x = np.asarray(x, dtype=np.float64)
    gate = _excite_reference(x.mean(axis=(1, 2)), w1, b1, w2, b2)
    return x * gate[:, None, None, :]


@dataclass
class AttentionResult:
    """Capsule outputs after class-wise gating."""

    activations: Tensor  # [B,J]; softmax of gated agreements
    poses: Tensor        # [B,J,k] gated poses
    gates: Tensor        # [B,J] in (0,1)


def attention_capsules(poses, agreements, w1, b1, w2, b2) -> AttentionResult:
    """Gate class capsules by their own pooled poses.

    ``poses`` is [B,J,k] and ``agreements`` is the matching [B,J].  The
    pose matrix is mean-pooled over the feature axis, squeezed/excited
    across classes to a gate in (0,1) per class, and both poses and
    agreements are rescaled by the gate; activations are the softmax of
    the gated agreements.
    """
    poses, agreements = as_tensor(poses), as_tensor(agreements)
    if poses.ndim != 3:
        raise ShapeError(f"attention_capsules poses must be [B,J,k], got shape {poses.shape}")
    b_, j, _ = poses.shape
    if agreements.shape != (b_, j):
        raise ShapeError(
            f"agreements shape {agreements.shape} does not match poses {poses.shape}")
    if j < 2:
        raise ConfigError(f"attention over classes needs at least 2 classes, got {j}")

    gate = _excite(ops.reduce_mean(poses, axis=-1), w1, b1, w2, b2)   # [B,J]
    gated_poses = ops.multiply(poses, ops.reshape(gate, (b_, j, 1)))
    gated_agree = ops.multiply(gate, agreements)
    activations = ops.softmax(gated_agree)
    return AttentionResult(activations=activations, poses=gated_poses, gates=gate)


def attention_capsules_reference(poses: np.ndarray, agreements: np.ndarray,
                                 w1: np.ndarray, b1: np.ndarray,
                                 w2: np.ndarray, b2: np.ndarray):
    """Straight-line numpy oracle for :func:`attention_capsules` ([B,J,k] poses)."""
    poses = np.asarray(poses, dtype=np.float64)
    agreements = np.asarray(agreements, dtype=np.float64)
    gate = _excite_reference(poses.mean(axis=-1), w1, b1, w2, b2)
    gated_poses = poses * gate[..., None]
    logits = gate * agreements
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    activations = shifted / shifted.sum(axis=-1, keepdims=True)
    return activations, gated_poses, gate
