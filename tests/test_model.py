"""Assembled classifier tests: shapes, probability outputs, config plumbing."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from capsnet import (LADDER, CapsuleClassifier, GradientTape, ModelConfig, Tensor,
                     cross_entropy_loss, ladder_config, normalize_images, one_hot)
from capsnet.errors import ConfigError, ShapeError
from capsnet.gradcheck import toy_model_config
from capsnet.model import CAPSULE_DIM

TOY = dict(input_shape=(16, 16, 1), num_classes=4,
           stem_widths=(4, 8, 8, 16), stage_depths=(1, 1, 1))
BLOBS = dict(input_shape=(16, 16, 1), num_classes=4,
             stem_widths=(8, 16, 16, 32), stage_depths=(1, 1, 1))
INIT_CONFIGS = {
    "paper": ModelConfig,
    "blobs": lambda: ModelConfig(**BLOBS),
    "toy": toy_model_config,
    "standard_plain": lambda: ModelConfig(**BLOBS, block_variant="standard", use_se=False,
                                          use_attention=False),
}
# SHA-256 of init_params(seed) for seeds 0-3 (see init_sha256), taken from
# the per-layer init writers that the parameter table replaced: the table
# draws the same bits in the same order.
INIT_SHA256 = {
    "paper": (
        "6cc47316df65bd093879f9859c45caedf369c310808d98ed82dd93848ca6647a",
        "ac976cca63926bc144d7c8bec32549b3079707d3a6604a3a06410ac346bf841b",
        "7f75ce65448f51a03423c793f0ee2f457b6d11c8a8926e491b138978fb31607d",
        "4d6e3fbadc24196453ddb6e935c056c92f391becfaa8895dadbf858628ee8f14",
    ),
    "blobs": (
        "843613f0602f7a8d45de1cebbc7229fea6a956e9f02435a39f68d3555ffbe418",
        "d56267a21253d6b4cd10f2b0062e8d1d0d4ba3674788581cf40fd69a6a465a33",
        "02ae70911b1dd8033b01f7dbda56f61876eb4a54e1dec70d9182389440e3fda0",
        "960e9a5c961d5eebdef8f3f9b086e67f08adf600688ad588761b1772c54c4bc2",
    ),
    "toy": (
        "2965bf10cf3a2cee6287fb27b4693fb0bb71efbd11931d4bb21404a266beed70",
        "f9814b2bd3a44d01f26e9d8609ea67334deec1195a8010915e410be6738a8c0b",
        "8e05d5f2e4591a041fd2fc20d8883be7808ccccd0ef5877f2e49212a7aecc1d7",
        "e42d094ce7540644f27a50e740967838b3a7e0fb6288aaf007efc1a9daf09bd8",
    ),
    "standard_plain": (
        "ad92e459e2006dbdaf3eb633100eed1b005130c623588f994ce6a611d2f6ea52",
        "25a6e79c3d1e5ef10b272a2558c5c4d725c063cf32405e3157525ff0ccc802d0",
        "c3f9a07dbaa5b1802d9a9890c610aabdbdcd68fbc6e46b4abff1445abb34eacf",
        "3e33cebcd5b7c4347e802f5478016379ffd99c077daadc703fd458fb3ffad6bc",
    ),
}


# Tape records of one training step's forward pass and loss.  perfbench pins
# the same counts and refuses every step that differs, so a change that adds
# or removes a record must set the new counts there as well.
TAPE_RECORDS = {"paper": 1111, "blobs": 266, "toy": 266}


def init_sha256(params: dict, stats: dict) -> str:
    """Digest of every param, then every running mean and variance, in dict
    order, each as its name, shape, dtype and bytes."""
    h = hashlib.sha256()
    arrays = [(name, t.data) for name, t in params.items()]
    arrays += [(name, arr) for name, s in stats.items() for arr in (s.mean, s.var)]
    for name, arr in arrays:
        h.update(f"{name}{arr.shape}{arr.dtype}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def toy_model(**overrides):
    cfg = ModelConfig(**{**TOY, **overrides})
    return CapsuleClassifier(cfg), cfg


class TestConfig:
    def test_stage_width_derivation(self):
        cfg = ModelConfig(**TOY)
        assert cfg.resolved_stage_widths() == (8, 16, 32)

    def test_round_trip_dict(self):
        cfg = ModelConfig(**TOY)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_each_ladder_rung_changes_one_field(self):
        configs = [asdict(ladder_config(ModelConfig(**TOY), rung)) for rung in LADDER]
        changed = [[key for key in a if a[key] != b[key]] for a, b in zip(configs, configs[1:])]
        assert changed == [["routing"], ["use_se"], ["block_variant"], ["use_attention"]]

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"widht": 3})

    @pytest.mark.parametrize("bad", [
        dict(num_classes=1),
        dict(stage_depths=(1, 1)),
        dict(block_variant="narrow"),
        dict(routing="em"),
        dict(dtype="float16"),
        dict(input_shape=(0, 16, 1)),
        dict(stage_depths=(1, 0, 1)),
    ])
    def test_validation_errors(self, bad):
        with pytest.raises(ConfigError):
            ModelConfig(**{**TOY, **bad})


class TestModel:
    def test_primary_capsule_geometry(self):
        model, _ = toy_model()
        # 16x16 halves three times to 2x2; 32 channels / dim 16 = 2 per cell
        assert model.primary_grid == (2, 2)
        assert model.num_primary == 8

    def test_too_small_input_rejected(self):
        with pytest.raises(ConfigError):
            # 16 primary channels on a 1x1 grid: one capsule
            toy_model(input_shape=(2, 2, 1), stem_widths=(4, 8))

    def test_forward_output_shapes(self, rng):
        model, _ = toy_model()
        params, stats = model.init_params(0)
        x = rng.standard_normal((3, 16, 16, 1)).astype(np.float32)
        out = model.forward(params, stats, x, training=True)
        assert out.probs.shape == (3, 4)
        assert out.poses.shape == (3, 4, CAPSULE_DIM)
        assert out.agreements.shape == (3, 4)
        assert out.gates is not None and out.gates.shape == (3, 4)
        assert np.allclose(out.probs.data.sum(-1), 1.0, atol=1e-6)

    def test_attention_off_has_no_gates(self, rng):
        model, _ = toy_model(use_attention=False)
        params, stats = model.init_params(0)
        assert not any(k.startswith("attn.") for k in params)
        out = model.forward(params, stats,
                            rng.standard_normal((2, 16, 16, 1)), training=True)
        assert out.gates is None

    def test_original_routing_probs_renormalized(self, rng):
        model, _ = toy_model(routing="original", use_attention=False)
        params, stats = model.init_params(0)
        out = model.forward(params, stats,
                            rng.standard_normal((2, 16, 16, 1)), training=True)
        assert np.allclose(out.probs.data.sum(-1), 1.0, atol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_original_routing_probs_finite_past_float32_exp_overflow(self, rng):
        # 256 primary capsules (an 8x8 grid of 4), all about the same
        # positive vector, each voting d_j for class j: every agreement is
        # (n - 1) / 2 = 127.5, past the 88.7 where float32 exp overflows
        model, _ = toy_model(routing="original", use_attention=False,
                             input_shape=(64, 64, 1), stem_widths=(8, 16, 16, 32))
        assert model.num_primary == 256
        params, stats = model.init_params(0)
        params["primary.bn.beta"] = Tensor(np.full(64, 5.0, dtype=np.float32))
        params["primary.bn.gamma"] = Tensor(np.full(64, 1e-3, dtype=np.float32))
        j, n, k_in, k = params["caps.w"].shape
        d = rng.standard_normal((j, 1, k_in, k)).astype(np.float32)
        params["caps.w"] = Tensor(np.broadcast_to(d, (j, n, k_in, k)).copy())
        out = model.forward(params, stats, rng.standard_normal((2, 64, 64, 1)))
        assert np.allclose(out.agreements.data, 127.5, rtol=1e-4)
        assert np.all(np.isfinite(out.probs.data))
        assert np.allclose(out.probs.data.sum(-1), 1.0, atol=1e-6)

    def test_input_shape_validated(self, rng):
        model, _ = toy_model()
        params, stats = model.init_params(0)
        with pytest.raises(ShapeError):
            model.forward(params, stats, rng.standard_normal((2, 8, 8, 1)))

    def test_init_deterministic_per_seed(self):
        model, _ = toy_model()
        p1, _ = model.init_params(7)
        p2, _ = model.init_params(7)
        p3, _ = model.init_params(8)
        assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
        assert any(not np.array_equal(p1[k].data, p3[k].data) for k in p1)

    @pytest.mark.parametrize("config", list(INIT_SHA256))
    def test_init_draws_the_param_table(self, config):
        model = CapsuleClassifier(INIT_CONFIGS[config]())
        rows = model.param_table()
        shapes = {name: shape for name, shape, _ in rows}
        assert len(shapes) == len(rows)  # unique names
        for seed, want in enumerate(INIT_SHA256[config]):
            params, stats = model.init_params(seed)
            assert list(params) == [name for name, _, init in rows if init != "stats"]
            assert list(stats) == [name for name, _, init in rows if init == "stats"]
            assert all(t.shape == shapes[name] for name, t in params.items())
            assert all(s.mean.shape == s.var.shape == shapes[name]
                       for name, s in stats.items())
            assert init_sha256(params, stats) == want

    @pytest.mark.parametrize("config", list(TAPE_RECORDS))
    def test_train_step_tape_records(self, config):
        model = CapsuleClassifier(INIT_CONFIGS[config]())
        params, stats = model.init_params(0)
        cfg = model.config
        x = np.random.default_rng(0).standard_normal((2, *cfg.input_shape))
        with GradientTape() as tape:
            out = model.forward(params, stats, x, training=True)
            cross_entropy_loss(out.probs, one_hot(np.arange(2), cfg.num_classes,
                                                  dtype=model.np_dtype))
        assert len(tape) == TAPE_RECORDS[config]

    def test_he_normal_scale(self):
        model, _ = toy_model(stem_widths=(64, 64, 64, 64))
        params, _ = model.init_params(0)
        w = params["stem.conv1.w"].data  # fan_in = 3*3*64
        assert abs(w.std() / np.sqrt(2 / (3 * 3 * 64)) - 1) < 0.1

    def test_dtype_follows_config(self):
        model, _ = toy_model(dtype="float64")
        params, _ = model.init_params(0)
        assert all(t.dtype == np.float64 for t in params.values())

    def test_float32_forward_stays_float32(self, rng):
        model, _ = toy_model()
        params, stats = model.init_params(0)
        out = model.forward(params, stats,
                            rng.standard_normal((2, 16, 16, 1)), training=True)
        assert out.probs.dtype == np.float32

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_uint8_batch_is_normalized_on_input(self, rng, dtype):
        # forward is where pixels become input: a uint8 batch gives the bits
        # of the same batch normalized beforehand, and a float64 Tensor of
        # those pixels is cast to the config's dtype like an array
        model, _ = toy_model(dtype=dtype)
        params, stats = model.init_params(0)
        x = rng.integers(0, 256, (3, 16, 16, 1), dtype=np.uint8)
        want = model.forward(params, stats, normalize_images(x))
        for batch in (x, Tensor(normalize_images(x).astype(np.float64))):
            got = model.forward(params, stats, batch)
            assert got.probs.dtype == np.dtype(dtype)
            for a, b in ((got.probs, want.probs), (got.poses, want.poses)):
                assert a.data.tobytes() == b.data.tobytes()
