"""Checkpoint persistence: bit-exact round trips and corruption detection."""

import hashlib
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from capsnet import (CapsuleClassifier, ModelConfig, TrainConfig, evaluate,
                     init_train_state, load_checkpoint, save_checkpoint,
                     train_epoch)
from capsnet import checkpoint
from capsnet.cli import main
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

    def test_file_is_length_header_then_payload(self, trained):
        _, _, state, path, _ = trained
        data = path.read_bytes()
        end = 8 + int.from_bytes(data[:8], "little")
        header = json.loads(data[8:end])
        assert sorted(header) == ["epoch", "format_version", "model_config",
                                  "payload_sha256", "train_config"]
        assert header["format_version"] == 2
        # params by name first, then each batch norm's mean and var, then
        # the velocities; little-endian and nothing else
        first = sorted(state.params)[0]
        size = state.params[first].data.nbytes
        assert data[end:end + size] == state.params[first].data.astype("<f4").tobytes()
        last = sorted(state.velocity)[-1]
        assert data[-state.velocity[last].nbytes:] == state.velocity[last].astype("<f4").tobytes()

    def test_resume_training_continues_epoch_counter(self, trained):
        cfg, model, state, path, (x, y) = trained
        _, state2 = load_checkpoint(path)
        row = train_epoch(model, state2, x, y)
        assert row["epoch"] == 1

    def test_failed_save_keeps_previous_checkpoint(self, trained, monkeypatch):
        cfg, model, state, path, (x, y) = trained
        _, before = load_checkpoint(path)
        train_epoch(model, state, x, y)

        def fail(*args):
            raise OSError("disk full")
        # one save fails syncing the temp file, a second moving it into place
        for fail_at in ("fsync", "replace"):
            monkeypatch.setattr(os, fail_at, fail)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(path, cfg, state)
            monkeypatch.undo()
            assert [p.name for p in path.parent.iterdir()] == ["ckpt"]
        _, after = load_checkpoint(path)
        assert after.epoch == before.epoch == 1
        for k in before.params:
            assert np.array_equal(after.params[k].data, before.params[k].data)
            assert np.array_equal(after.velocity[k], before.velocity[k])
        for k in before.stats:
            assert np.array_equal(after.stats[k].mean, before.stats[k].mean)
            assert np.array_equal(after.stats[k].var, before.stats[k].var)

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
        # one temp file, synced whole (its final size) under the inode it
        # keeps through the one replace; then its directory
        written = path.stat()
        assert calls == [("fsync", written.st_ino, written.st_size),
                         ("replace", "ckpt.tmp", "ckpt"),
                         ("fsync", path.parent.stat().st_ino, None)]
        load_checkpoint(path)


class TestRemovedConfigKeys:
    """Keys that stage_widths, primary_caps_channels, se_ratio and wide_plan
    left behind in ModelConfig, and shuffle in TrainConfig, are unknown keys
    whatever value they hold."""

    @pytest.fixture
    def with_config(self, rewrite_header):
        def edit(path, section="model_config", **extra):
            rewrite_header(path, lambda h: h[section].update(extra))
        return edit

    @pytest.mark.parametrize("extra", [dict(wide_plan="half_double"),
                                       dict(stage_widths=[8, 8, 8]),
                                       dict(primary_caps_channels=16),
                                       dict(se_ratio=2)],
                             ids=["wide_plan", "stage_widths", "primary_caps_channels",
                                  "se_ratio"])
    def test_other_values_rejected(self, trained, with_config, extra):
        *_, path, _ = trained
        with_config(path, **extra)
        with pytest.raises(ConfigError, match="unknown model config keys"):
            load_checkpoint(path)

    def test_shuffle_off_rejected(self, trained, with_config):
        *_, path, _ = trained
        with_config(path, "train_config", shuffle=False)
        with pytest.raises(ConfigError, match="unknown train config keys"):
            load_checkpoint(path)


def _file_unchanged(path, before: bytes) -> None:
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestCorruption:
    """Names kept from the two-file format: "manifest" is now the header,
    "blob" the payload, and "entries" the arrays the config builds."""

    def test_blob_tamper_detected(self, trained):
        *_, path, _ = trained
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path)

    def test_blob_truncation_detected(self, trained):
        *_, path, _ = trained
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [lambda d: d[:5],
                                     lambda d: len(d).to_bytes(8, "little") + d[8:]],
                             ids=["shorter_than_the_length", "length_past_the_end"])
    def test_header_length_must_fit_the_file(self, trained, cut):
        *_, path, _ = trained
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(CheckpointError, match="header length"):
            load_checkpoint(path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "nope")

    def test_format_1_directory_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")
        (tmp_path / "params.bin").write_bytes(b"")
        with pytest.raises(CheckpointError, match="format-1"):
            load_checkpoint(tmp_path)

    def test_invalid_json(self, trained, rewrite_header):
        *_, path, _ = trained
        rewrite_header(path, lambda h: b"{not json")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_missing_manifest_key(self, trained, rewrite_header):
        *_, path, _ = trained

        def drop_sha(header):
            del header["payload_sha256"]
        rewrite_header(path, drop_sha)
        with pytest.raises(CheckpointError, match="payload_sha256"):
            load_checkpoint(path)

    def test_entry_shape_mismatch(self, trained, rewrite_header):
        """A header whose config builds other shapes than the payload holds
        (the SHA-256 still matches) is caught by the payload's length."""
        *_, path, _ = trained
        rewrite_header(path, lambda h: h["model_config"].update(stem_widths=[4, 8, 8, 24]))
        with pytest.raises(CheckpointError, match="payload has"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt,error,mention", [
        (lambda h: b"\xff\xfe" + json.dumps(h).encode(), CheckpointError, "JSON"),
        (lambda h: h.update(format_version=1), CheckpointError, "format version 1"),
        (lambda h: h.update(epoch="x"), CheckpointError, "epoch"),
        (lambda h: h.update(epoch=-1), CheckpointError, "epoch"),
        (lambda h: h["model_config"].update(stem_widths=5), ConfigError, "stem_widths"),
        (lambda h: h.update(train_config=[1, 2]), CheckpointError, "config"),
    ], ids=["not_utf8", "format_version_1", "epoch_not_an_int", "epoch_negative",
            "config_field_mistyped", "config_not_an_object"])
    def test_malformed_manifest(self, trained, rewrite_header, corrupt, error, mention):
        *_, path, _ = trained
        rewrite_header(path, corrupt)
        with pytest.raises(error, match=mention):
            load_checkpoint(path)

    @pytest.mark.parametrize("section,field,value", [
        ("model_config", "capsule_dim", 4.5),
        ("model_config", "primary_caps_dim", 8.0),
        ("model_config", "use_se", "false"),
        ("model_config", "input_shape", [12, 12.5, 1]),
        ("model_config", "stem_widths", [4, 8, 8.5, 16]),
        ("model_config", "stage_depths", [1, True, 1]),
        ("train_config", "base_lr", "0.01"),
        ("train_config", "seed", 0.0),
    ])
    def test_mistyped_config_field_rejected(self, trained, rewrite_header, section, field,
                                            value):
        *_, path, _ = trained
        rewrite_header(path, lambda h: h[section].update({field: value}))
        with pytest.raises(ConfigError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,mention", [
        (lambda s: s.params.update({"caps.weights": s.params.pop("caps.w")}), "caps.w"),
        (lambda s: s.stats.update({"primary.norm": s.stats.pop("primary.bn")}), "primary.bn"),
        (lambda s: s.velocity.update({"caps.w": s.velocity["caps.w"].reshape(-1)}), "caps.w"),
        (lambda s: s.params.update(extra=s.params["caps.w"]), "extra"),
        (lambda s: s.velocity.pop("caps.w"), "caps.w"),
    ], ids=["params_renamed", "bn_stats_renamed", "velocity_reshaped", "extra_param",
            "missing_velocity"])
    def test_entries_must_be_the_ones_the_config_builds(self, trained, edit, mention):
        """Save refuses a state other than the one the config builds, and
        writes nothing."""
        cfg, _, state, path, _ = trained
        before = path.read_bytes()
        edit(state)
        with pytest.raises(CheckpointError, match=mention):
            save_checkpoint(path, cfg, state)
        _file_unchanged(path, before)

    def test_unsupported_dtype(self, trained):
        """Save refuses a float64 state under a float32 config."""
        cfg, _, state, path, _ = trained
        before = path.read_bytes()
        state.velocity["caps.w"] = state.velocity["caps.w"].astype(np.float64)
        with pytest.raises(CheckpointError, match="float32"):
            save_checkpoint(path, cfg, state)
        _file_unchanged(path, before)

    def test_save_refuses_a_directory(self, trained, tmp_path):
        cfg, _, state, _, _ = trained
        target = tmp_path / "old"
        target.mkdir()
        with pytest.raises(CheckpointError, match="directory"):
            save_checkpoint(target, cfg, state)
        assert list(target.iterdir()) == []


class TestLayoutDrawsNothing:
    """Save and load take the layout from the config's parameter table, so
    with ``init_params`` broken they still work, and a header that claims a
    huge model is refused by the payload's length without drawing it."""

    @pytest.fixture
    def no_init(self, monkeypatch):
        def refuse(self, seed=0):
            raise AssertionError("the checkpoint layout drew the weights")
        return lambda: monkeypatch.setattr(CapsuleClassifier, "init_params", refuse)

    @staticmethod
    def write_claim(path, cfg, size=64):
        """A ``size``-byte payload with a correct SHA-256 under ``cfg``'s header."""
        payload = bytes(size)
        header = json.dumps({
            "format_version": 2, "epoch": 0, "model_config": cfg.to_dict(),
            "train_config": TrainConfig().to_dict(),
            "payload_sha256": hashlib.sha256(payload).hexdigest()}).encode()
        path.write_bytes(len(header).to_bytes(8, "little") + header + payload)
        return path

    @pytest.fixture
    def claims_a_huge_model(self, tmp_path):
        """A 64-byte payload under a header whose config builds 19,594,835
        float32 params in 16 blocks.  Each block's table holds at least the
        126,240 values of stage 1's second block, and each row is two arrays,
        so the arrays take at least 16 * 126,240 * 8 = 16,158,720 bytes."""
        cfg = ModelConfig(stem_widths=(16, 32, 64, 384))
        return self.write_claim(tmp_path / "huge", cfg), "at least 16158720"

    def test_paper_round_trip(self, tmp_path, no_init):
        cfg = ModelConfig()
        state = init_train_state(CapsuleClassifier(cfg), TrainConfig())
        no_init()
        save_checkpoint(tmp_path / "ckpt", cfg, state)
        cfg2, state2 = load_checkpoint(tmp_path / "ckpt")
        assert cfg2 == cfg
        assert list(state2.params) == sorted(state.params)
        assert all(np.array_equal(state2.params[k].data, state.params[k].data)
                   for k in state.params)

    def test_huge_claimed_model_refused_by_length(self, claims_a_huge_model, no_init):
        path, size = claims_a_huge_model
        no_init()
        with pytest.raises(CheckpointError, match=f"payload has 64 bytes.* take {size}"):
            load_checkpoint(path)

    def test_short_payload_refused_before_the_layout(self, claims_a_huge_model,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("the payload-order layout was built")
        monkeypatch.setattr(checkpoint, "_arrays", refuse)
        path, size = claims_a_huge_model
        with pytest.raises(CheckpointError, match=f"payload has 64 bytes.* take {size}"):
            load_checkpoint(path)

    def test_eval_of_a_huge_claimed_model_exits_2(self, claims_a_huge_model, no_init,
                                                   capsys):
        path, size = claims_a_huge_model
        no_init()
        assert main(["eval", "--samples", "8", "--test-samples", "8",
                     "--checkpoint", str(path)]) == 2
        assert str(size) in capsys.readouterr().err

    def test_claimed_depth_refused_in_bounded_memory(self, tmp_path):
        # Each claimed block takes at least the 14,432 values of the smallest
        # block, so neither 50,002 blocks against 64 bytes nor 32,768 blocks
        # against 256 KiB builds a claimed layer
        for depth, size, least in ((50000, 64, 5773030912), (32766, 2**18, 3783262208)):
            path = self.write_claim(tmp_path / f"deep{depth}",
                                    ModelConfig(stage_depths=(depth, 1, 1)), size)
            tracemalloc.start()
            try:
                with pytest.raises(CheckpointError,
                                   match=f"payload has {size} bytes.* take at least {least}"):
                    load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20
