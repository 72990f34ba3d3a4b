"""Command-line interface tests, run in-process through main()."""

import gzip
import json
import shutil

import numpy as np
import pytest

from capsnet import (CapsuleClassifier, ModelConfig, TrainConfig, fit, init_train_state,
                     load_checkpoint, save_checkpoint)
from capsnet import cli, training
from capsnet.cli import TOY_OVERRIDES, build_parser, main
from capsnet.data import load_cifar10_split, make_blobs, normalize_images
from test_data import write_idx

FAST_DATA = ["--dataset", "blobs", "--samples", "64", "--test-samples", "32",
             "--image-size", "12", "--classes", "3", "--data-seed", "0"]
FAST_TRAIN = ["--toy", "--epochs", "1", "--batch-size", "16"]


def test_bars_dataset_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["train", *FAST_TRAIN, "--dataset", "bars", "--out", str(tmp_path / "run")])
    assert e.value.code == 2
    assert not (tmp_path / "run").exists()


def test_gradcheck_ops_only(capsys):
    assert main(["gradcheck", "--skip-model"]) == 0
    out = capsys.readouterr().out
    assert "13/13 gradient checks passed" in out
    assert "conv2d" in out and "fm_interaction" in out


def test_train_writes_history_and_checkpoint(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["train", *FAST_DATA, *FAST_TRAIN, "--quiet",
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "history.csv").exists()
    assert (out_dir / "checkpoint").is_file()
    assert not (out_dir / "checkpoint.tmp").exists()
    header = (out_dir / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,loss,accuracy,lr"


@pytest.mark.parametrize("epochs, evaluations", [(2, 2), (0, 1)])
def test_train_evaluates_the_final_model_once(tmp_path, capsys, monkeypatch,
                                              epochs, evaluations):
    # fit's last row already holds the final model's test metrics, so only
    # an --epochs 0 run evaluates after fit
    calls = []
    real = training.evaluate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "evaluate", counting)
    monkeypatch.setattr(cli, "evaluate", counting)
    out_dir = tmp_path / "run"
    assert main(["train", *FAST_DATA, "--toy", "--epochs", str(epochs), "--batch-size", "16",
                 "--quiet", "--out", str(out_dir)]) == 0
    assert len(calls) == evaluations
    cfg, state = load_checkpoint(out_dir / "checkpoint")
    x, y = make_blobs(32, num_classes=3, image_size=12, noise=0.05, seed=1)
    final = real(CapsuleClassifier(cfg), state.params, state.stats, x, y)
    line = f"final: loss {final['loss']:.4f}  accuracy {final['accuracy']:.4f}"
    assert line in capsys.readouterr().out.splitlines()


def test_eval_reads_checkpoint(tmp_path, capsys):
    out_dir = tmp_path / "run"
    main(["train", *FAST_DATA, *FAST_TRAIN, "--quiet", "--out", str(out_dir)])
    capsys.readouterr()
    code = main(["eval", *FAST_DATA, "--checkpoint", str(out_dir / "checkpoint")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(payload) == {"loss", "accuracy", "samples", "epoch"}
    assert payload["samples"] == 32
    assert 0.0 <= payload["accuracy"] <= 1.0


def test_eval_missing_checkpoint_is_clean_error(tmp_path, capsys):
    code = main(["eval", *FAST_DATA, "--checkpoint", str(tmp_path / "nope")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_a_malformed_manifest(tmp_path, capsys, checkpoint, rewrite_header):
    bad = tmp_path / "checkpoint"
    shutil.copy(checkpoint, bad)
    rewrite_header(bad, lambda h: h.update(epoch="x"))
    capsys.readouterr()
    code = main(["eval", *FAST_DATA, "--checkpoint", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epoch" in err


def test_eval_rejects_entries_the_config_does_not_build(tmp_path, capsys, checkpoint,
                                                        rewrite_header):
    bad = tmp_path / "checkpoint"
    shutil.copy(checkpoint, bad)
    rewrite_header(bad, lambda h: h["model_config"].update(stem_widths=[8, 16, 16, 48]))
    capsys.readouterr()
    code = main(["eval", *FAST_DATA, "--checkpoint", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "payload has" in err


def test_eval_rejects_a_removed_width_plan(tmp_path, capsys, checkpoint, rewrite_header):
    bad = tmp_path / "checkpoint"
    shutil.copy(checkpoint, bad)
    rewrite_header(bad, lambda h: h["model_config"].update(wide_plan="half_double"))
    capsys.readouterr()
    code = main(["eval", *FAST_DATA, "--checkpoint", str(bad)])
    assert code == 2
    assert "wide_plan" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["capsule_dim", "primary_caps_dim"])
def test_removed_capsule_widths_are_clean_errors(tmp_path, capsys, checkpoint, rewrite_header,
                                                 key):
    """Every capsule is 16 wide: a checkpoint header or a --model-config
    file that still sets either width, even to 16, is refused by name."""
    bad = tmp_path / "checkpoint"
    shutil.copy(checkpoint, bad)
    rewrite_header(bad, lambda h: h["model_config"].update({key: 16}))
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps({key: 16}))
    for argv in (["eval", *FAST_DATA, "--checkpoint", str(bad)],
                 ["train", *FAST_DATA, *FAST_TRAIN, "--quiet", "--model-config", str(cfg_path),
                  "--out", str(tmp_path / "run")]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unknown model config keys: ['{key}']" in err
    assert not (tmp_path / "run").exists()


def test_eval_rejects_a_format_1_directory(tmp_path, capsys):
    old = tmp_path / "checkpoint"
    old.mkdir()
    (old / "manifest.json").write_text("")
    capsys.readouterr()
    code = main(["eval", *FAST_DATA, "--checkpoint", str(old)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "format-1" in err


def test_ablate_selected_rungs(capsys):
    code = main(["ablate", *FAST_DATA, *FAST_TRAIN, "--quiet",
                 "--rungs", "v1", "v5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "v1" in out and "v5" in out and "accuracy" in out


def test_file_dataset_requires_data_dir(tmp_path, capsys):
    code = main(["train", "--dataset", "idx", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "--data-dir" in capsys.readouterr().err


def test_idx_dataset_trains_and_evaluates(tmp_path, capsys, rng):
    """An 8x8, 3-class IDX set: the train split gzipped, the test split plain."""
    data = tmp_path / "idx"
    data.mkdir()
    for prefix, n in (("train", 16), ("t10k", 10)):
        images = data / f"{prefix}-images-idx3-ubyte"
        labels = data / f"{prefix}-labels-idx1-ubyte"
        write_idx(images, rng.integers(0, 256, (n, 8, 8), dtype=np.uint8))
        write_idx(labels, np.arange(n) % 3)
        if prefix == "train":
            for path in (images, labels):
                path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes()))
                path.unlink()
    out_dir = tmp_path / "run"
    idx = ["--dataset", "idx", "--data-dir", str(data)]
    assert main(["train", *idx, "--toy", "--samples", "0", "--test-samples", "0",
                 "--epochs", "1", "--batch-size", "8", "--quiet", "--out", str(out_dir)]) == 0
    assert "4 primary capsules" in capsys.readouterr().out
    for flags, samples in ((["--test-samples", "0"], 10), (["--test-samples", "5"], 5)):
        assert main(["eval", *idx, *flags, "--checkpoint", str(out_dir / "checkpoint")]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["samples"] == samples


def test_unreadable_data_file_is_clean_error(tmp_path, capsys):
    code = main(["train", "--dataset", "cifar10", "--data-dir", str(tmp_path),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(tmp_path / "data_batch_1") in err


def test_cifar10_eval_reads_only_the_test_batch(tmp_path, capsys, rng):
    cfg = ModelConfig(input_shape=(32, 32, 3), num_classes=10, **TOY_OVERRIDES)
    checkpoint = tmp_path / "checkpoint"
    save_checkpoint(checkpoint, cfg, init_train_state(CapsuleClassifier(cfg), TrainConfig()))
    only_test, full = tmp_path / "only_test", tmp_path / "full"
    only_test.mkdir()
    full.mkdir()

    def evaluate(data_dir):
        capsys.readouterr()
        code = main(["eval", "--dataset", "cifar10", "--data-dir", str(data_dir),
                     "--test-samples", "7", "--checkpoint", str(checkpoint)])
        out, err = capsys.readouterr()
        return code, out.strip().splitlines()[-1] if code == 0 else err

    code, err = evaluate(only_test)
    assert code == 2 and str(only_test / "test_batch") in err and "data_batch" not in err
    for name in ["test_batch"] + [f"data_batch_{i}" for i in range(1, 6)]:
        records = rng.integers(0, 256, (10, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(10)
        (full / name).write_bytes(records.tobytes())
    shutil.copy(full / "test_batch", only_test / "test_batch")
    code, line = evaluate(only_test)
    assert code == 0 and json.loads(line)["samples"] == 7
    assert evaluate(full) == (0, line)


def write_cifar_dir(directory, rng, records=4):
    """A CIFAR-10 directory of all six batch files, ``records`` each in the
    training batches; the test batch holds the labels 0..9 once each."""
    directory.mkdir()
    for name in [f"data_batch_{i}" for i in range(1, 6)] + ["test_batch"]:
        n = 10 if name == "test_batch" else records
        raw = rng.integers(0, 256, (n, 3073), dtype=np.uint8)
        raw[:, 0] = np.arange(n) % 10
        (directory / name).write_bytes(raw.tobytes())
    return directory


def write_file_dataset(data, dataset, rng):
    """A ``dataset`` ("idx" or "cifar10") directory at ``data``: IDX splits
    of 6 images each, or CIFAR-10 splits of 20 and 10."""
    if dataset == "cifar10":
        write_cifar_dir(data, rng)
        return
    data.mkdir()
    for prefix in ("train", "t10k"):
        write_idx(data / f"{prefix}-images-idx3-ubyte",
                  rng.integers(0, 256, (6, 8, 8), dtype=np.uint8))
        write_idx(data / f"{prefix}-labels-idx1-ubyte", np.arange(6) % 3)


@pytest.mark.parametrize("dataset", ["idx", "cifar10"])
@pytest.mark.parametrize("samples", ["0", "3"], ids=["whole", "subset"])
def test_file_splits_stay_uint8(tmp_path, rng, dataset, samples):
    data = tmp_path / "data"
    write_file_dataset(data, dataset, rng)
    args = build_parser().parse_args(["eval", "--dataset", dataset, "--data-dir", str(data),
                                      "--samples", samples, "--test-samples", samples,
                                      "--checkpoint", "unused"])
    for split in ("train", "test"):
        x, y = cli._load_split(args, split)
        assert x.dtype == np.uint8 and x.ndim == 4 and y.dtype == np.int64
        assert x.shape[0] == (int(samples) or y.shape[0])


@pytest.mark.parametrize("dataset,sizes", [("idx", (6, 6)), ("cifar10", (20, 10))],
                         ids=["idx", "cifar10"])
@pytest.mark.parametrize("split", ["train", "test"])
def test_file_split_smaller_than_the_request_is_clean_error(tmp_path, capsys, rng, dataset,
                                                            sizes, split):
    """One more sample than a split holds is refused, not read as the
    whole split."""
    data = tmp_path / "data"
    write_file_dataset(data, dataset, rng)
    have = sizes[split == "test"]
    counts = {"train": "0", "test": "0", split: str(have + 1)}
    code = main(["train", "--dataset", dataset, "--data-dir", str(data), "--samples",
                 counts["train"], "--test-samples", counts["test"], *FAST_TRAIN, "--quiet",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"requested {have + 1} samples but only {have} available" in err
    assert not (tmp_path / "run").exists()


def test_cifar10_train_equals_fit_on_normalized_images(tmp_path, rng):
    """The console path keeps the split uint8 and scales each batch; it
    writes the bytes of ``fit`` on the split normalized up front."""
    data = write_cifar_dir(tmp_path / "cifar", rng)
    out_dir = tmp_path / "run"
    assert main(["train", "--dataset", "cifar10", "--data-dir", str(data), "--samples", "0",
                 "--test-samples", "0", "--toy", "--epochs", "2", "--batch-size", "8",
                 "--quiet", "--out", str(out_dir)]) == 0

    model_cfg = ModelConfig(input_shape=(32, 32, 3), num_classes=10, **TOY_OVERRIDES)
    model = CapsuleClassifier(model_cfg)
    state = init_train_state(model, TrainConfig(epochs=2, batch_size=8))
    (x_tr, y_tr), (x_te, y_te) = (load_cifar10_split(data, split) for split in ("train", "test"))
    lib_dir = tmp_path / "lib"
    lib_dir.mkdir()
    fit(model, state, (normalize_images(x_tr), y_tr),
        eval_data=(normalize_images(x_te), y_te), csv_path=lib_dir / "history.csv")
    save_checkpoint(lib_dir / "checkpoint", model_cfg, state)
    for name in ("history.csv", "checkpoint"):
        assert (out_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_train_model_config_overrides(tmp_path):
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps({"use_attention": False, "routing": "original"}))
    out_dir = tmp_path / "run"
    code = main(["train", *FAST_DATA, *FAST_TRAIN, "--quiet",
                 "--model-config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    cfg, state = load_checkpoint(out_dir / "checkpoint")
    assert cfg.use_attention is False
    assert cfg.routing == "original"
    assert not any(name.startswith("attn.") for name in state.params)


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("content", [
    "{not json",               # malformed JSON
    "[1, 2]",                  # a JSON value that is not an object
    '{"stem_widths": 5}',      # a field of the wrong type
    None,                      # a path that cannot be read
    '{"num_classes": 4.5}',    # integer fields take no fractions,
    '{"num_classes": 3.0}',    # nor integral floats
    '{"stem_widths": [8, 16, 16.5, 32]}',
    '{"stage_depths": [1, 1.5, 1]}',
    '{"use_se": "false"}',     # a truthy string once trained with SE
    '{"use_attention": 1}',
], ids=["malformed", "not_object", "wrong_type", "unreadable", "fractional_int",
        "float_int", "fractional_width", "fractional_depth", "string_bool", "int_bool"])
def test_bad_model_config_is_clean_error(tmp_path, capsys, command, content):
    cfg_path = tmp_path / "model.json"
    if content is not None:
        cfg_path.write_text(content)
    extra = ["--out", str(tmp_path / "run")] if command == "train" else []
    code = main([command, *FAST_DATA, *FAST_TRAIN, "--quiet",
                 "--model-config", str(cfg_path), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model-config" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("content,key,values", [
    ('{"input_shape": [16, 16, 1]}', "input_shape", ("(16, 16, 1)", "(12, 12, 1)")),
    ('{"num_classes": 4}', "num_classes", ("4", "3")),
], ids=["input_shape", "num_classes"])
def test_model_config_disagreeing_with_dataset_is_clean_error(tmp_path, capsys, command,
                                                              content, key, values):
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(content)
    extra = ["--out", str(tmp_path / "run")] if command == "train" else []
    code = main([command, *FAST_DATA, *FAST_TRAIN, "--quiet",
                 "--model-config", str(cfg_path), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model-config" in err and key in err
    assert all(v in err for v in values)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_model_config_repeating_the_dataset_is_accepted(tmp_path, command):
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps({"input_shape": [12, 12, 1], "num_classes": 3}))
    extra = (["--out", str(tmp_path / "run")] if command == "train"
             else ["--rungs", "v1"])
    code = main([command, *FAST_DATA, *FAST_TRAIN, "--quiet",
                 "--model-config", str(cfg_path), *extra])
    assert code == 0
    if command == "train":
        cfg, _ = load_checkpoint(tmp_path / "run" / "checkpoint")
        assert cfg.input_shape == (12, 12, 1) and cfg.num_classes == 3


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli") / "run"
    assert main(["train", *FAST_DATA, *FAST_TRAIN, "--quiet", "--out", str(out_dir)]) == 0
    return out_dir / "checkpoint"


@pytest.mark.parametrize("command,flags,mention", [
    ("eval", ["--batch-size", "-1"], "batch_size"),
    ("eval", ["--batch-size", "0"], "batch_size"),
    ("train", ["--test-samples", "0"], "--test-samples"),
    ("train", ["--samples", "-3"], "--samples"),
    ("gradcheck", ["--step", "0"], "step"),
    ("train", ["--classes", "0"], "num_classes"),
    ("train", ["--noise", "-1"], "noise"),
    ("train", ["--image-size", "-4"], "image_size"),
    ("gradcheck", ["--seed", "-1"], "seed"),
    ("gradcheck", ["--step", "inf"], "step"),
    ("gradcheck", ["--tol", "0"], "tolerance"),
    # the fixture's checkpoint was trained on 3 classes of 12x12 blobs
    ("eval", ["--classes", "2"], "num_classes to 3, but the dataset has num_classes 2"),
    ("eval", ["--classes", "4"], "num_classes to 3, but the dataset has num_classes 4"),
    ("eval", ["--image-size", "16"],
     "input_shape to (12, 12, 1), but the dataset has input_shape (16, 16, 1)"),
], ids=["eval_batch_negative", "eval_batch_zero", "train_no_test_samples",
        "train_negative_samples", "gradcheck_zero_step", "train_zero_classes",
        "train_negative_noise", "train_negative_image_size", "gradcheck_negative_seed",
        "gradcheck_infinite_step", "gradcheck_zero_tol", "eval_fewer_classes",
        "eval_more_classes", "eval_other_image_size"])
def test_bad_size_or_step_is_clean_error(tmp_path, capsys, checkpoint, command, flags,
                                         mention):
    common = {"eval": [*FAST_DATA, "--checkpoint", str(checkpoint)],
              "train": [*FAST_DATA, *FAST_TRAIN, "--quiet", "--out", str(tmp_path / "run")],
              "gradcheck": ["--skip-model"]}[command]
    capsys.readouterr()
    code = main([command, *common, *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and mention in err
    assert not (tmp_path / "run" / "checkpoint").exists()
