"""Checkpoint persistence: bit-exact round trips and corruption detection."""

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from capsnet import (CapsuleClassifier, ModelConfig, TrainConfig, evaluate,
                     init_train_state, load_checkpoint, save_checkpoint,
                     train_epoch)
from capsnet.data import make_blobs
from capsnet.errors import CheckpointError, ConfigError

TOY = dict(input_shape=(12, 12, 1), num_classes=3,
           stem_widths=(4, 8, 8, 16), stage_depths=(1, 1, 1))


@pytest.fixture
def trained(tmp_path):
    cfg = ModelConfig(**TOY)
    model = CapsuleClassifier(cfg)
    state = init_train_state(model, TrainConfig(epochs=1, batch_size=16, seed=0))
    x, y = make_blobs(32, num_classes=3, image_size=12, seed=0)
    train_epoch(model, state, x, y)
    path = tmp_path / "ckpt"
    save_checkpoint(path, cfg, state)
    return cfg, model, state, path, (x, y)


class TestRoundTrip:
    def test_bit_exact_params_stats_velocity(self, trained):
        cfg, model, state, path, _ = trained
        cfg2, state2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert state2.epoch == state.epoch
        assert state2.config == state.config
        assert set(state2.params) == set(state.params)
        for k in state.params:
            assert np.array_equal(state2.params[k].data, state.params[k].data)
            assert state2.params[k].dtype == state.params[k].dtype
            assert np.array_equal(state2.velocity[k], state.velocity[k])
        for k in state.stats:
            assert np.array_equal(state2.stats[k].mean, state.stats[k].mean)
            assert np.array_equal(state2.stats[k].var, state.stats[k].var)

    def test_evaluation_identical_after_reload(self, trained):
        cfg, model, state, path, (x, y) = trained
        before = evaluate(model, state.params, state.stats, x, y)
        cfg2, state2 = load_checkpoint(path)
        model2 = CapsuleClassifier(cfg2)
        after = evaluate(model2, state2.params, state2.stats, x, y)
        assert before["loss"] == after["loss"]
        assert before["accuracy"] == after["accuracy"]

    def test_manifest_is_sorted_json(self, trained):
        *_, path, _ = trained
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        names = [t["name"] for t in manifest["tensors"] if t["section"] == "param"]
        assert names == sorted(names)
        assert all(t["dtype"] in ("<f4", "<f8") for t in manifest["tensors"])

    def test_resume_training_continues_epoch_counter(self, trained):
        cfg, model, state, path, (x, y) = trained
        _, state2 = load_checkpoint(path)
        row = train_epoch(model, state2, x, y)
        assert row["epoch"] == 1

    def test_failed_save_keeps_previous_checkpoint(self, trained, monkeypatch):
        cfg, model, state, path, (x, y) = trained
        _, before = load_checkpoint(path)
        train_epoch(model, state, x, y)

        real_fsync = os.fsync
        # one save fails syncing the blob's temp file, a second the manifest's
        for fail_at in (1, 2):
            calls = []

            def fail(fd):
                calls.append(fd)
                if len(calls) == fail_at:
                    raise OSError("disk full")
                real_fsync(fd)
            monkeypatch.setattr(os, "fsync", fail)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(path, cfg, state)
            monkeypatch.undo()
        _, after = load_checkpoint(path)
        assert after.epoch == before.epoch == 1
        for k in before.params:
            assert np.array_equal(after.params[k].data, before.params[k].data)
            assert np.array_equal(after.velocity[k], before.velocity[k])
        for k in before.stats:
            assert np.array_equal(after.stats[k].mean, before.stats[k].mean)
            assert np.array_equal(after.stats[k].var, before.stats[k].var)
        assert sorted(p.name for p in path.iterdir()) == ["manifest.json", "params.bin"]

    def test_files_synced_before_their_replace_and_directory_after(self, trained,
                                                                    monkeypatch):
        cfg, model, state, path, _ = trained
        real_fsync, real_replace = os.fsync, os.replace
        calls = []

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", st.st_ino, None if stat.S_ISDIR(st.st_mode) else st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            real_replace(src, dst)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(path, cfg, state)
        monkeypatch.undo()
        blob, manifest = (path / "params.bin").stat(), (path / "manifest.json").stat()
        # each temp file is synced whole (its final size) under the inode it
        # keeps through the replace
        assert calls == [("fsync", blob.st_ino, blob.st_size),
                         ("fsync", manifest.st_ino, manifest.st_size),
                         ("replace", "params.bin.tmp", "params.bin"),
                         ("replace", "manifest.json.tmp", "manifest.json"),
                         ("fsync", path.stat().st_ino, None)]
        load_checkpoint(path)


class TestRemovedConfigKeys:
    """Manifests written before stage_widths, primary_caps_channels,
    se_ratio and wide_plan were dropped from ModelConfig, and shuffle from
    TrainConfig."""

    def _with_model_config(self, path, section="model_config", **extra):
        manifest = json.loads((path / "manifest.json").read_text())
        manifest[section].update(extra)
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_old_defaults_still_load(self, trained):
        cfg, _, state, path, _ = trained
        self._with_model_config(path, stage_widths=None, primary_caps_channels=None,
                                se_ratio=None, wide_plan="quarter_half")
        cfg2, state2 = load_checkpoint(path)
        assert cfg2 == cfg
        for k in state.params:
            assert np.array_equal(state2.params[k].data, state.params[k].data)

    @pytest.mark.parametrize("extra", [dict(wide_plan="half_double"),
                                       dict(stage_widths=[8, 8, 8]),
                                       dict(primary_caps_channels=16),
                                       dict(se_ratio=2)],
                             ids=["wide_plan", "stage_widths", "primary_caps_channels",
                                  "se_ratio"])
    def test_other_values_rejected(self, trained, extra):
        *_, path, _ = trained
        self._with_model_config(path, **extra)
        with pytest.raises(ConfigError, match="unknown model config keys"):
            load_checkpoint(path)

    def test_old_shuffle_default_still_loads(self, trained):
        _, _, state, path, _ = trained
        self._with_model_config(path, "train_config", shuffle=True)
        _, state2 = load_checkpoint(path)
        assert state2.config == state.config

    def test_shuffle_off_rejected(self, trained):
        *_, path, _ = trained
        self._with_model_config(path, "train_config", shuffle=False)
        with pytest.raises(ConfigError, match="unknown train config keys"):
            load_checkpoint(path)


class TestCorruption:
    def test_blob_tamper_detected(self, trained):
        *_, path, _ = trained
        blob = (path / "params.bin").read_bytes()
        flipped = bytes([blob[0] ^ 0xFF]) + blob[1:]
        (path / "params.bin").write_bytes(flipped)
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path)

    def test_blob_truncation_detected(self, trained):
        *_, path, _ = trained
        blob = (path / "params.bin").read_bytes()
        (path / "params.bin").write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="bytes"):
            load_checkpoint(path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint directory"):
            load_checkpoint(tmp_path / "nope")

    def test_invalid_json(self, trained):
        *_, path, _ = trained
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_missing_manifest_key(self, trained):
        *_, path, _ = trained
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["blob_sha256"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="blob_sha256"):
            load_checkpoint(path)

    def test_entry_shape_mismatch(self, trained):
        *_, path, _ = trained
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["tensors"][0]["shape"] = [999]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt,mention", [
        (lambda m: b"\xff\xfe" + json.dumps(m).encode(), "JSON"),
        (lambda m: m["tensors"][0].update(shape="abc"), "shape"),
        (lambda m: m["tensors"][0].update(offset="0"), "offset"),
        (lambda m: m.update(epoch="x"), "epoch"),
        (lambda m: m.update(epoch=-1), "epoch"),
        (lambda m: m["model_config"].update(stem_widths=5), "config"),
        (lambda m: m.update(train_config=[1, 2]), "config"),
    ], ids=["not_utf8", "shape_not_a_list", "offset_not_an_int", "epoch_not_an_int",
            "epoch_negative", "config_field_mistyped", "config_not_an_object"])
    def test_malformed_manifest(self, trained, corrupt, mention):
        *_, path, _ = trained
        manifest = json.loads((path / "manifest.json").read_text())
        raw = corrupt(manifest)  # new bytes, or None after editing in place
        (path / "manifest.json").write_bytes(raw or json.dumps(manifest).encode())
        with pytest.raises(CheckpointError, match=mention):
            load_checkpoint(path)

    @pytest.mark.parametrize("name,sections,edit,mention", [
        ("caps.w", ("param", "velocity"), lambda e: e.update(name="caps.weights"),
         "param entries"),
        ("primary.bn", ("bn_mean", "bn_var"), lambda e: e.update(name="primary.norm"),
         "batch-norm entries"),
        ("caps.w", ("velocity",), lambda e: e.update(shape=[int(np.prod(e["shape"]))]),
         "velocity entries"),
    ], ids=["params_renamed", "bn_stats_renamed", "velocity_reshaped"])
    def test_entries_must_be_the_ones_the_config_builds(self, trained, name, sections,
                                                         edit, mention):
        *_, path, _ = trained
        manifest = json.loads((path / "manifest.json").read_text())
        for entry in manifest["tensors"]:
            if entry["name"] == name and entry["section"] in sections:
                edit(entry)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=mention):
            load_checkpoint(path)

    def test_unsupported_dtype(self, trained):
        *_, path, _ = trained
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["tensors"][0]["dtype"] = ">f4"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(path)
