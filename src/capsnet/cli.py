"""Command-line interface.

Subcommands:

* ``train``         fit a model on a dataset, write history.csv + checkpoint
* ``eval``          evaluate a checkpoint on a dataset
* ``gradcheck``     run the finite-difference verification ladder
* ``ablate``        train the architecture ladder and report accuracies
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as datasets
from .ablation import LADDER, run_ladder
from .backbone import parameter_count
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig, TrainConfig
from .errors import CapsnetError, ConfigError
from .gradcheck import standard_checks
from .model import CapsuleClassifier
from .training import evaluate, fit, init_train_state


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=("blobs", "idx", "cifar10"),
                   default="blobs", help="data source (default: blobs)")
    p.add_argument("--data-dir", type=Path, default=None,
                   help="directory with IDX files or CIFAR-10 binary batches")
    p.add_argument("--samples", type=int, default=2000,
                   help="training samples (synthetic: generated; file-backed: "
                        "subset, 0 for all)")
    p.add_argument("--test-samples", type=int, default=500,
                   help="evaluation samples (file-backed: 0 for all)")
    p.add_argument("--classes", type=int, default=4,
                   help="class count for synthetic datasets")
    p.add_argument("--image-size", type=int, default=16,
                   help="edge length for synthetic datasets")
    p.add_argument("--noise", type=float, default=0.05,
                   help="pixel noise for synthetic datasets")
    p.add_argument("--data-seed", type=int, default=0,
                   help="seed for synthetic generation / subset selection")


def _load_split(args, split: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``split`` ("train" or "test") of the dataset the flags name, as
    (images, labels): a file-backed split keeps the loader's uint8 pixels,
    which the model scales batch by batch."""
    synthetic = args.dataset == "blobs"
    least = 1 if synthetic else 0  # 0 keeps a file-backed split whole
    for flag, n in (("--samples", args.samples), ("--test-samples", args.test_samples)):
        if n < least:
            raise ConfigError(f"{flag} must be >= {least} for dataset {args.dataset!r}, got {n}")
    test = split == "test"
    n = args.test_samples if test else args.samples
    if synthetic:
        return datasets.make_blobs(n, num_classes=args.classes, image_size=args.image_size,
                                   noise=args.noise, seed=args.data_seed + int(test))
    if args.data_dir is None:
        raise CapsnetError(f"--data-dir is required for dataset {args.dataset!r}")
    if args.dataset == "idx":
        x, y = datasets.load_idx_pair(*datasets.find_idx_split(args.data_dir, split))
    else:
        x, y = datasets.load_cifar10_split(args.data_dir, split)
    if n and n < x.shape[0]:
        return datasets.take_subset(x, y, n, seed=args.data_seed)
    return x, y


def _load_dataset(args) -> tuple[tuple, tuple, tuple, int]:
    """Returns ((x_tr, y_tr), (x_te, y_te), input_shape, num_classes)."""
    (x_tr, y_tr), (x_te, y_te) = _load_split(args, "train"), _load_split(args, "test")
    if args.dataset == "blobs":
        classes = args.classes
    else:
        classes = int(max(y_tr.max(), y_te.max())) + 1
    return (x_tr, y_tr), (x_te, y_te), x_tr.shape[1:], classes


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.01, help="initial learning rate")
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--l2", type=float, default=5e-4)
    p.add_argument("--drop-rate", type=float, default=0.5,
                   help="stepped LR decay factor")
    p.add_argument("--epoch-drop", type=int, default=60,
                   help="epochs between LR drops")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-config", type=Path, default=None,
                   help="JSON file of model-config overrides")
    p.add_argument("--toy", action="store_true",
                   help="use a small architecture suitable for quick runs")


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr,
                       momentum=args.momentum, l2=args.l2, drop_rate=args.drop_rate,
                       epoch_drop=args.epoch_drop, seed=args.seed)


TOY_OVERRIDES = dict(stem_widths=(8, 16, 16, 32), stage_depths=(1, 1, 1))


def _model_config(args, input_shape, num_classes) -> ModelConfig:
    overrides: dict = {}
    source = args.model_config
    if source is not None:
        try:
            loaded = json.loads(source.read_text())
        except (OSError, ValueError) as e:  # unreadable, not UTF-8, or not JSON
            raise ConfigError(f"cannot read --model-config {source}: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError(f"--model-config {source} must hold a JSON object, "
                              f"got {type(loaded).__name__}")
        overrides.update(loaded)
    if args.toy:
        for key, value in TOY_OVERRIDES.items():
            overrides.setdefault(key, value)
    # The dataset decides these two; the file may only repeat them, as a
    # config copied out of a checkpoint does.
    overrides.setdefault("input_shape", input_shape)
    overrides.setdefault("num_classes", num_classes)
    try:
        cfg = ModelConfig.from_dict(overrides)
    except ConfigError as e:
        if source is None:
            raise
        raise ConfigError(f"invalid --model-config {source}: {e}") from e
    _check_dataset(cfg, input_shape, num_classes, f"--model-config {source}")
    return cfg


def _check_dataset(cfg: ModelConfig, input_shape, num_classes, source: str) -> None:
    """Raise ConfigError, naming ``source``, unless ``cfg`` fits the dataset."""
    dataset = {"input_shape": tuple(int(v) for v in input_shape), "num_classes": int(num_classes)}
    for key, value in dataset.items():
        if getattr(cfg, key) != value:
            raise ConfigError(f"{source} sets {key} to {getattr(cfg, key)}, "
                              f"but the dataset has {key} {value}")


def cmd_train(args) -> int:
    train, test, input_shape, num_classes = _load_dataset(args)
    model_cfg = _model_config(args, input_shape, num_classes)
    model = CapsuleClassifier(model_cfg)
    state = init_train_state(model, _train_config(args))
    print(f"model: {parameter_count(state.params)} parameters, "
          f"{model.num_primary} primary capsules", flush=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = fit(model, state, train, eval_data=test, csv_path=out / "history.csv",
               verbose=not args.quiet)
    save_checkpoint(out / "checkpoint", model_cfg, state)
    # The last epoch's row already evaluated the final model on ``test``.
    final = ({"loss": rows[-1]["val_loss"], "accuracy": rows[-1]["val_accuracy"]} if rows
             else evaluate(model, state.params, state.stats, test[0], test[1]))
    print(f"final: loss {final['loss']:.4f}  accuracy {final['accuracy']:.4f}")
    print(f"wrote {out / 'history.csv'} and {out / 'checkpoint'}")
    return 0


def cmd_eval(args) -> int:
    model_cfg, state = load_checkpoint(args.checkpoint)
    model = CapsuleClassifier(model_cfg)
    x_te, y_te = _load_split(args, "test")
    # A synthetic set is drawn for its class count and image size; a file
    # subset may lack the top class, so evaluate range-checks its labels.
    if args.dataset == "blobs":
        _check_dataset(model_cfg, x_te.shape[1:], args.classes, f"checkpoint {args.checkpoint}")
    metrics = evaluate(model, state.params, state.stats, x_te, y_te,
                       batch_size=args.batch_size)
    print(json.dumps({"loss": metrics["loss"], "accuracy": metrics["accuracy"],
                      "samples": int(x_te.shape[0]), "epoch": state.epoch},
                     sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    results = standard_checks(h=args.step, tol=args.tol, seed=args.seed,
                              include_model=not args.skip_model)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} gradient checks passed")
    return 1 if failed else 0


def cmd_ablate(args) -> int:
    train, test, input_shape, num_classes = _load_dataset(args)
    model_cfg = _model_config(args, input_shape, num_classes)
    results = run_ladder(model_cfg, _train_config(args), train, test,
                         rungs=args.rungs, verbose=not args.quiet)
    print(f"{'rung':<6}{'accuracy':>10}{'loss':>10}")
    for rung in args.rungs:
        r = results[rung]
        print(f"{rung:<6}{r['accuracy']:>10.4f}{r['loss']:>10.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsnet",
        description="capsule-network image classifier on a numpy autodiff engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write history + checkpoint")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_dataset_args(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--batch-size", type=int, default=256)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-model", action="store_true",
                   help="check individual ops only, not the assembled model")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train the architecture ladder")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--rungs", nargs="+", choices=LADDER, default=list(LADDER))
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapsnetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
