"""Command-line interface tests, run in-process through main()."""

import json
import shutil

import numpy as np
import pytest

from capsnet import load_checkpoint
from capsnet.cli import main

FAST_DATA = ["--dataset", "blobs", "--samples", "64", "--test-samples", "32",
             "--image-size", "12", "--classes", "3", "--data-seed", "0"]
FAST_TRAIN = ["--toy", "--epochs", "1", "--batch-size", "16"]


def test_routing_demo_matches_oracle(capsys):
    assert main(["routing-demo", "--classes", "4", "--capsules", "6",
                 "--dim", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "oracle" in out
    assert "[modified]" in out and "[original]" in out
    assert "sum=1.000000" in out


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
    '{"capsule_dim": 4.5}',    # integer fields take no fractions,
    '{"primary_caps_dim": 8.0}',  # nor integral floats
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
], ids=["eval_batch_negative", "eval_batch_zero", "train_no_test_samples",
        "train_negative_samples", "gradcheck_zero_step", "train_zero_classes",
        "train_negative_noise", "train_negative_image_size", "gradcheck_negative_seed",
        "gradcheck_infinite_step", "gradcheck_zero_tol"])
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
