"""Assembled classifier tests: shapes, probability outputs, config plumbing."""

import numpy as np
import pytest

from capsnet import CapsuleClassifier, ModelConfig, Tensor
from capsnet.errors import ConfigError, ShapeError

TOY = dict(input_shape=(16, 16, 1), num_classes=4,
           stem_widths=(4, 8, 8, 16), stage_depths=(1, 1, 1))


def toy_model(**overrides):
    cfg = ModelConfig(**{**TOY, **overrides})
    return CapsuleClassifier(cfg), cfg


class TestConfig:
    def test_stage_width_derivation(self):
        cfg = ModelConfig(**TOY)
        assert cfg.resolved_stage_widths() == (8, 16, 32)

    def test_explicit_stage_widths_win(self):
        cfg = ModelConfig(**{**TOY, "stage_widths": (8, 8, 8)})
        assert cfg.resolved_stage_widths() == (8, 8, 8)

    def test_round_trip_dict(self):
        cfg = ModelConfig(**TOY)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"widht": 3})

    @pytest.mark.parametrize("bad", [
        dict(num_classes=1),
        dict(stage_depths=(1, 1)),
        dict(block_variant="narrow"),
        dict(routing="em"),
        dict(dtype="float16"),
        dict(primary_caps_channels=17),
        dict(input_shape=(0, 16, 1)),
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
            toy_model(input_shape=(2, 2, 1), stem_widths=(4, 8, 8, 16),
                      primary_caps_channels=16)

    def test_forward_output_shapes(self, rng):
        model, cfg = toy_model()
        params, stats = model.init_params(0)
        x = rng.standard_normal((3, 16, 16, 1)).astype(np.float32)
        out = model.forward(params, stats, x, training=True)
        assert out.probs.shape == (3, 4)
        assert out.poses.shape == (3, 4, cfg.capsule_dim)
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
        # raw activations stay exp-scaled, not renormalized
        assert not np.allclose(out.activations.data.sum(-1), 1.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_original_routing_probs_finite_past_float32_exp_overflow(self, rng):
        # 256 one-dim primary capsules, all positive, each voting d_j for
        # class j: every agreement is (n - 1) / 2 = 127.5, past the 88.7
        # where float32 exp overflows
        model, _ = toy_model(routing="original", use_attention=False,
                             input_shape=(32, 32, 1), stem_widths=(8, 16, 16, 32),
                             primary_caps_dim=1, primary_caps_channels=16)
        assert model.num_primary == 256
        params, stats = model.init_params(0)
        params["primary.bn.beta"] = Tensor(np.full(16, 5.0, dtype=np.float32))
        params["primary.bn.gamma"] = Tensor(np.full(16, 1e-3, dtype=np.float32))
        j, n, _, k = params["caps.w"].shape
        d = rng.standard_normal((j, 1, 1, k)).astype(np.float32)
        params["caps.w"] = Tensor(np.broadcast_to(d, (j, n, 1, k)).copy())
        out = model.forward(params, stats, rng.standard_normal((2, 32, 32, 1)))
        assert np.allclose(out.agreements.data, 127.5, rtol=1e-4)
        assert np.all(np.isfinite(out.probs.data))
        assert np.allclose(out.probs.data.sum(-1), 1.0, atol=1e-6)

    def test_input_shape_validated(self, rng):
        model, _ = toy_model()
        params, stats = model.init_params(0)
        with pytest.raises(ShapeError):
            model.forward(params, stats, rng.standard_normal((2, 8, 8, 1)))

    def test_predict_labels_in_range(self, rng):
        model, _ = toy_model()
        params, stats = model.init_params(0)
        labels = model.predict(params, stats, rng.standard_normal((5, 16, 16, 1)))
        assert labels.shape == (5,)
        assert np.all((labels >= 0) & (labels < 4))

    def test_init_deterministic_per_seed(self):
        model, _ = toy_model()
        p1, _ = model.init_params(7)
        p2, _ = model.init_params(7)
        p3, _ = model.init_params(8)
        assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
        assert any(not np.array_equal(p1[k].data, p3[k].data) for k in p1)

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
