"""Capsule routing built on factorized pairwise interactions.

A routing layer receives one prediction vector per (class, input-capsule)
pair, normalizes the predictions, and condenses each class's bundle of
predictions into a single interaction vector using the sum-of-squares
factorization trick: elementwise products over all unordered capsule pairs
collapse to (sum^2 - sum-of-squares)/2 at O(n*k) cost.  The interaction
vector yields both the class pose (its direction) and a scalar agreement
(its coordinate sum), and class activations follow from the agreements.

Two activation variants exist:

* ``modified``: softmax across classes, giving a probability distribution.
* ``original``: elementwise exp of the agreements, giving unnormalized
  activations that can exceed 1 (kept as an ablation baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .tensor import Tensor, as_tensor

EPS_NORM = 1e-12

ROUTING_VARIANTS = ("modified", "original")


def squash(s) -> Tensor:
    """Shrink vectors along the last axis to length < 1, keeping direction.

    Maps s to (|s|^2 / (1 + |s|^2)) * s / |s|; the zero vector maps to
    itself.  ``EPS_NORM`` guards the norm division only, so short vectors
    scale toward zero rather than blowing up.
    """
    s = as_tensor(s)
    n2 = ops.reduce_sum(ops.square(s), axis=-1, keepdims=True)
    scale = ops.divide(n2, ops.multiply(ops.add(n2, 1.0), ops.sqrt(ops.add(n2, EPS_NORM))))
    return ops.multiply(s, scale)


def _clamped_norm(v) -> tuple[Tensor, Tensor]:
    """The squared norm along the last axis, and the norm with the squared
    norm clamped to at least ``EPS_NORM**2`` before the root, so neither the
    root nor its gradient ever sees zero."""
    sumsq = ops.reduce_sum(ops.square(v), axis=-1, keepdims=True)
    return sumsq, ops.sqrt(ops.maximum(sumsq, EPS_NORM ** 2))


def l2_normalize(u) -> Tensor:
    """Scale vectors along the last axis to unit norm; zero vectors stay zero."""
    u = as_tensor(u)
    return ops.divide(u, _clamped_norm(u)[1])


def fm_interaction(u_hat) -> Tensor:
    """Mean pairwise elementwise product of prediction vectors per class.

    For predictions shaped [J, n, k] (optionally with a leading batch axis),
    returns [J, k] where entry (j, f) is
    (1/n) * sum over unordered pairs (i1 < i2) of u[j,i1,f] * u[j,i2,f],
    computed via the factorized identity (sum^2 - sum of squares) / (2n).
    """
    u_hat = as_tensor(u_hat)
    if u_hat.ndim not in (3, 4):
        raise ShapeError(
            f"fm_interaction expects [J,n,k] or [B,J,n,k] predictions, got shape {u_hat.shape}")
    n = u_hat.shape[-2]
    if n < 2:
        raise ShapeError(f"pairwise interaction needs at least 2 input capsules, got {n}")
    total = ops.reduce_sum(u_hat, axis=-2)
    sq_sum = ops.reduce_sum(ops.square(u_hat), axis=-2)
    return ops.divide(ops.subtract(ops.square(total), sq_sum), 2.0 * n)


def fm_interaction_reference(u_hat: np.ndarray) -> np.ndarray:
    """Brute-force O(n^2) oracle for :func:`fm_interaction` (numpy only)."""
    u = np.asarray(u_hat, dtype=np.float64)
    if u.ndim not in (3, 4):
        raise ShapeError(
            f"fm_interaction_reference expects [J,n,k] or [B,J,n,k], got shape {u.shape}")
    n = u.shape[-2]
    if n < 2:
        raise ShapeError(f"pairwise interaction needs at least 2 input capsules, got {n}")
    out = np.zeros(u.shape[:-2] + u.shape[-1:], dtype=np.float64)
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            out += u[..., i1, :] * u[..., i2, :]
    return out / n


def interaction_pose(h) -> Tensor:
    """Unit-norm direction of each interaction vector.

    Rows whose squared norm falls below ``EPS_NORM**2`` come out exactly
    zero, so every pose has norm 1 or norm 0.  The cutoff mask is treated as
    a constant under differentiation.
    """
    h = as_tensor(h)
    sumsq, norm = _clamped_norm(h)
    mask = (sumsq.data >= EPS_NORM ** 2).astype(h.dtype)
    return ops.multiply(ops.divide(h, norm), Tensor(mask))


def agreement(h) -> Tensor:
    """Scalar agreement per class: the coordinate sum of the interaction."""
    return ops.reduce_sum(h, axis=-1)


def capsule_predictions(u, w) -> Tensor:
    """Per-class linear votes u_hat[b, j, i] = W[j, i] @ u[b, i].

    ``w`` is [J, n, k_in, k_out] and ``u`` is [B, n, k_in]; returns
    [B, J, n, k_out] (``ops.capsule_votes``).
    """
    return ops.capsule_votes(w, u)


@dataclass
class RoutingResult:
    """Everything the routing layer derives from one prediction bundle."""

    activations: Tensor  # [J] or [B,J]; distribution under 'modified', raw exp under 'original'
    poses: Tensor        # [J,k] or [B,J,k]; unit or zero rows
    agreements: Tensor   # [J] or [B,J]


def route(u_hat, variant: str = "modified") -> RoutingResult:
    """Single-pass routing: normalize votes, interact, score classes.

    ``u_hat`` is [J, n, k] or [B, J, n, k].  Requires J >= 2 because class
    activations are comparative.  No iterative refinement takes place; the
    pairwise interaction replaces agreement iteration entirely.
    """
    if variant not in ROUTING_VARIANTS:
        raise ConfigError(f"routing variant must be one of {ROUTING_VARIANTS}, got {variant!r}")
    u_hat = as_tensor(u_hat)
    if u_hat.ndim not in (3, 4):
        raise ShapeError(
            f"route expects [J,n,k] or [B,J,n,k] predictions, got shape {u_hat.shape}")
    j = u_hat.shape[-3]
    if j < 2:
        raise ConfigError(f"routing needs at least 2 classes, got {j}")

    normalized = l2_normalize(u_hat)
    h = fm_interaction(normalized)
    poses = interaction_pose(h)
    b = agreement(h)
    if variant == "modified":
        activations = ops.softmax(b)
    else:
        activations = ops.exp(b)
    return RoutingResult(activations=activations, poses=poses, agreements=b)
