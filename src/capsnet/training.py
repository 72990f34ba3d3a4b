"""Optimization: cross-entropy on routed activations, SGD with momentum,
stepped learning-rate decay, and a deterministic epoch loop.

Weight decay enters as gradient augmentation (g + l2 * theta), not as a
loss term, so reported losses are pure cross-entropy.  Shuffling draws from
``default_rng([seed, epoch])``, which makes every epoch's batch order a
pure function of the config seed and the epoch index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import ops
from .config import TrainConfig
from .errors import ShapeError, TrainingDivergenceError
from .model import CapsuleClassifier
from .tensor import GradientTape, Tensor

LOG_FLOOR = 1e-12

HISTORY_FIELDS = ("epoch", "loss", "accuracy", "lr")


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a 1-D integer array, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ShapeError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out


def cross_entropy_loss(probs, targets) -> Tensor:
    """Mean -sum(y * log(max(p, 1e-12))) over the batch.

    ``probs`` is a [B, J] distribution tensor; ``targets`` a constant [B, J]
    one-hot array.  The floor keeps log finite; its clamp zone carries zero
    gradient.
    """
    if not isinstance(targets, np.ndarray):
        targets = np.asarray(targets)
    if targets.shape != probs.shape:
        raise ShapeError(f"targets shape {targets.shape} must match probs {probs.shape}")
    logp = ops.log(ops.maximum(probs, LOG_FLOOR))
    per_example = ops.reduce_sum(ops.multiply(logp, Tensor(targets.astype(probs.dtype))),
                                 axis=-1)
    return ops.negative(ops.reduce_mean(per_example))


def accuracy(probs, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the integer label."""
    data = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    return float(np.mean(np.argmax(data, axis=-1) == np.asarray(labels)))


def step_lr(base_lr: float, drop_rate: float, epoch_drop: int, epoch: int) -> float:
    """base_lr * drop_rate ** floor(epoch / epoch_drop)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return base_lr * drop_rate ** (epoch // epoch_drop)


@dataclass
class TrainState:
    """Everything that evolves during training."""

    params: dict
    stats: dict
    velocity: dict
    epoch: int
    config: TrainConfig
    history: list = field(default_factory=list)


def init_train_state(model: CapsuleClassifier, config: TrainConfig) -> TrainState:
    params, stats = model.init_params(config.seed)
    velocity = {k: np.zeros_like(t.data) for k, t in params.items()}
    return TrainState(params=params, stats=stats, velocity=velocity, epoch=0, config=config)


def sgd_step(state: TrainState, grads: dict, lr: float) -> None:
    """v <- m*v - lr*(g + l2*theta); theta <- theta + v.  In place on state.

    All or nothing: every new parameter and velocity is computed and checked
    before any is committed, so a divergent step leaves ``state`` untouched.
    Checking ``theta + v`` covers ``v`` too, as ``theta`` is finite.
    """
    cfg = state.config
    staged = []
    for name, p in state.params.items():
        g = grads[name] + cfg.l2 * p.data
        v = cfg.momentum * state.velocity[name] - lr * g
        new = p.data + v
        if not np.all(np.isfinite(new)):
            raise TrainingDivergenceError(
                f"parameter {name!r} became non-finite at epoch {state.epoch} "
                f"(lr={lr}); lower the learning rate or check the data scaling")
        staged.append((name, new, v))
    for name, new, v in staged:
        state.velocity[name] = v
        state.params[name] = Tensor(new, requires_grad=True)


def iter_batches(n: int, batch_size: int, rng: Optional[np.random.Generator] = None,
                 min_size: int = 1) -> Iterator[np.ndarray]:
    """Index batches in order (or shuffled); trailing slivers below
    ``min_size`` are dropped (training needs >= 2 rows for batch norm)."""
    idx = np.arange(n)
    if rng is not None:
        rng.shuffle(idx)
    for start in range(0, n, batch_size):
        batch = idx[start:start + batch_size]
        if batch.shape[0] >= min_size:
            yield batch


def train_epoch(model: CapsuleClassifier, state: TrainState,
                x: np.ndarray, y: np.ndarray) -> dict:
    """One pass over (x, y); returns the epoch's history row."""
    cfg = state.config
    lr = step_lr(cfg.base_lr, cfg.drop_rate, cfg.epoch_drop, state.epoch)
    rng = np.random.default_rng([cfg.seed, state.epoch]) if cfg.shuffle else None
    names = list(state.params)
    targets = one_hot(y, model.config.num_classes, dtype=model.np_dtype)
    loss_sum = 0.0
    hit_sum = 0.0
    seen = 0
    for batch in iter_batches(x.shape[0], cfg.batch_size, rng, min_size=2):
        xb, yb = x[batch], targets[batch]
        # The forward pass advances the batch-norm stats; ``update`` rebinds
        # the arrays, so these references restore them if the step fails.
        saved = {k: (s.mean, s.var) for k, s in state.stats.items()}
        with GradientTape() as tape:
            out = model.forward(state.params, state.stats, xb, training=True)
            loss = cross_entropy_loss(out.probs, yb)
        grad_list = tape.gradient(loss, [state.params[n] for n in names])
        try:
            sgd_step(state, dict(zip(names, grad_list)), lr)
        except TrainingDivergenceError:
            for k, (mean, var) in saved.items():
                state.stats[k].mean, state.stats[k].var = mean, var
            raise
        b = batch.shape[0]
        loss_sum += loss.item() * b
        hit_sum += accuracy(out.probs, y[batch]) * b
        seen += b
    if seen == 0:
        raise ShapeError("training set yielded no usable batches (need >= 2 samples)")
    row = {"epoch": state.epoch, "loss": loss_sum / seen,
           "accuracy": hit_sum / seen, "lr": lr}
    state.epoch += 1
    state.history.append(row)
    return row


def evaluate(model: CapsuleClassifier, params: dict, stats: dict,
             x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> dict:
    """Eval-mode loss and accuracy over a dataset."""
    n = x.shape[0]
    if n == 0:
        raise ShapeError("cannot evaluate an empty dataset")
    if batch_size < 1:
        raise ShapeError(f"evaluation batch_size must be >= 1, got {batch_size}")
    targets = one_hot(y, model.config.num_classes, dtype=model.np_dtype)
    loss_sum = 0.0
    hit_sum = 0.0
    for batch in iter_batches(x.shape[0], batch_size):
        out = model.forward(params, stats, x[batch], training=False)
        loss = cross_entropy_loss(out.probs, targets[batch])
        b = batch.shape[0]
        loss_sum += loss.item() * b
        hit_sum += accuracy(out.probs, y[batch]) * b
    return {"loss": loss_sum / n, "accuracy": hit_sum / n}


def fit(model: CapsuleClassifier, state: TrainState,
        train_data: tuple[np.ndarray, np.ndarray],
        eval_data: Optional[tuple[np.ndarray, np.ndarray]] = None,
        csv_path=None, verbose: bool = False) -> list[dict]:
    """Run the config's ``epochs`` training epochs, appending history.

    When ``eval_data`` is given, each history row also gains val_loss /
    val_accuracy (these do not enter the history CSV, whose schema is
    fixed).  Returns the rows produced by this call.
    """
    x, y = train_data
    rows = []
    for _ in range(state.config.epochs):
        row = train_epoch(model, state, x, y)
        if eval_data is not None:
            val = evaluate(model, state.params, state.stats, eval_data[0], eval_data[1])
            row["val_loss"] = val["loss"]
            row["val_accuracy"] = val["accuracy"]
        rows.append(row)
        if verbose:
            msg = (f"epoch {row['epoch']:3d}  lr {row['lr']:.6g}  "
                   f"loss {row['loss']:.4f}  acc {row['accuracy']:.4f}")
            if "val_accuracy" in row:
                msg += f"  val_loss {row['val_loss']:.4f}  val_acc {row['val_accuracy']:.4f}"
            print(msg, flush=True)
    if csv_path is not None:
        write_history_csv(csv_path, state.history)
    return rows


def format_metric(value: float) -> str:
    """Deterministic, locale-free decimal rendering for CSV cells."""
    return format(float(value), ".12g")


def write_history_csv(path, rows: Sequence[dict]) -> None:
    """Write epoch,loss,accuracy,lr with stable formatting (no wall time)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_FIELDS)
        for row in rows:
            writer.writerow([str(int(row["epoch"])), format_metric(row["loss"]),
                             format_metric(row["accuracy"]), format_metric(row["lr"])])


def read_history_csv(path) -> list[dict]:
    with open(path, "r", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != HISTORY_FIELDS:
            raise ShapeError(f"history CSV must have columns {HISTORY_FIELDS}, "
                             f"got {reader.fieldnames}")
        return [{"epoch": int(r["epoch"]), "loss": float(r["loss"]),
                 "accuracy": float(r["accuracy"]), "lr": float(r["lr"])} for r in reader]
