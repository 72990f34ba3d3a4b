"""Backbone structure tests: width plans, shapes, strides, parameter counts,
and the stem-and-blocks layer list a model builds."""

import copy

import numpy as np
import pytest

from capsnet import CapsuleClassifier, GradientTape, ModelConfig, Tensor, ops
from capsnet.backbone import Bottleneck, Stem, block_widths, conv_bn, parameter_count
from capsnet.errors import ConfigError
from capsnet.gradcheck import finite_diff_check
from capsnet.model import init_from_table
from test_tensor_ops import conv2d_loop_reference


def build(layer, seed=0, dtype=np.float64):
    return init_from_table(layer.table(), seed, dtype)


class TestBlockWidths:
    def test_plans(self):
        assert block_widths(256, "standard") == (64, 64, 256)
        assert block_widths(256, "wide") == (64, 128, 256)

    def test_divisibility_errors(self):
        with pytest.raises(ConfigError):
            block_widths(6, "standard")
        with pytest.raises(ConfigError):
            block_widths(10, "wide")
        with pytest.raises(ConfigError):
            block_widths(8, "bottleneckless")


class TestStem:
    def test_keeps_resolution_and_sets_width(self, rng):
        stem = Stem("stem", 3, (4, 8, 16, 32))
        params, stats = build(stem)
        x = Tensor(rng.standard_normal((2, 9, 11, 3)))
        out = stem(params, stats, x, training=True)
        assert out.shape == (2, 9, 11, 32)
        assert np.all(out.data >= 0)  # ends in ReLU

    def test_eval_and_training_give_the_same_bits(self, rng):
        # eval runs each conv with its bias and ReLU as one op, training as three
        stem = Stem("stem", 3, (4, 8))
        params, stats = build(stem, dtype=np.float32)
        for name in ("stem.conv0.b", "stem.conv1.b"):
            params[name] = Tensor(rng.standard_normal(params[name].shape, dtype=np.float32),
                                  requires_grad=True)
        x = Tensor(rng.standard_normal((2, 9, 11, 3), dtype=np.float32))
        g = Tensor(rng.standard_normal((2, 9, 11, 8), dtype=np.float32))
        runs = []
        for training in (False, True):
            with GradientTape() as tape:
                out = stem(params, stats, x, training=training)
                loss = ops.reduce_sum(ops.multiply(out, g))
            records = len(tape)
            runs.append((records, out.data.tobytes(),
                         [a.tobytes() for a in tape.gradient(loss, list(params.values()))]))
        (fused_records, *fused), (records, *ref) = runs
        assert (fused_records, records) == (2 + 2, 6 + 2)
        assert fused == ref

    def test_param_names_and_count(self):
        stem = Stem("stem", 3, (4, 8))
        params, _ = build(stem)
        assert set(params) == {"stem.conv0.w", "stem.conv0.b",
                               "stem.conv1.w", "stem.conv1.b"}
        assert parameter_count(params) == 3 * 3 * 3 * 4 + 4 + 3 * 3 * 4 * 8 + 8

    def test_empty_widths_rejected(self):
        with pytest.raises(ConfigError):
            Stem("stem", 3, ())


class TestBottleneck:
    def test_output_shape_and_stride(self, rng):
        block = Bottleneck("b", 16, 32, stride=2)
        params, stats = build(block)
        x = Tensor(rng.standard_normal((4, 8, 8, 16)))
        out = block(params, stats, x, training=True)
        assert out.shape == (4, 4, 4, 32)

    def test_odd_input_rounds_up(self, rng):
        block = Bottleneck("b", 8, 16, stride=2)
        params, stats = build(block)
        out = block(params, stats, Tensor(rng.standard_normal((2, 7, 7, 8))),
                    training=True)
        assert out.shape == (2, 4, 4, 16)

    def test_se_toggle_changes_params(self):
        with_se = Bottleneck("b", 16, 32, 1, use_se=True)
        without = Bottleneck("b", 16, 32, 1, use_se=False)
        p1, _ = build(with_se)
        p2, _ = build(without)
        se_keys = {k for k in p1 if ".se." in k}
        assert se_keys == {"b.se.w1", "b.se.b1", "b.se.w2", "b.se.b2"}
        assert set(p2) == set(p1) - se_keys

    def test_projection_always_present(self):
        # same width, stride 1: the skip still projects
        block = Bottleneck("b", 32, 32, 1)
        params, _ = build(block)
        assert "b.proj.w" in params and "b.projbn.gamma" in params

    def test_wide_plan_has_more_params_than_standard_at_equal_width(self):
        # equal output width f: the widened 3x3 conv dominates, so the counts
        # must differ (and the wide plan is the larger one)
        for f in (32, 64, 128):
            wide = Bottleneck("b", f, f, 1, variant="wide", use_se=False)
            std = Bottleneck("b", f, f, 1, variant="standard", use_se=False)
            pw, _ = build(wide)
            ps, _ = build(std)
            assert parameter_count(pw) != parameter_count(ps)
            assert parameter_count(pw) > parameter_count(ps)


def model_of(**overrides):
    return CapsuleClassifier(ModelConfig(dtype="float64", **overrides))


def run_layers(layers, params, stats, x, training):
    for layer in layers:
        x = layer(params, stats, x, training)
    return x


class TestStageAndBackbone:
    def test_stage_strides_only_first_block(self):
        layers = model_of(input_shape=(16, 16, 3), stem_widths=(8,),
                          stage_depths=(2, 3, 2)).layers
        assert [layer.stride for layer in layers] == [1, 1, 1, 2, 1, 1, 2, 1]
        assert [layer.prefix for layer in layers] == [
            "stem", "stage1.block0", "stage1.block1",
            "stage2.block0", "stage2.block1", "stage2.block2",
            "stage3.block0", "stage3.block1"]

    def test_backbone_shapes(self, rng):
        model = model_of(input_shape=(16, 16, 3), stem_widths=(4, 8, 16, 32),
                         stage_depths=(1, 1, 1))
        params, stats = model.init_params(0)
        out = run_layers(model.layers, params, stats,
                         Tensor(rng.standard_normal((2, 16, 16, 3))), training=True)
        # stem + stage1 keep 16x16; stages 2 and 3 halve twice
        assert out.shape == (2, 4, 4, 64)
        assert model.layers[-1].out_channels == model.primary_channels == 64

    def test_backbone_needs_three_stages(self):
        for depths in [(1, 1), (1, 1, 1, 1)]:
            with pytest.raises(ConfigError):
                model_of(stem_widths=(8,), stage_depths=depths)

    def test_eval_mode_uses_running_stats(self, rng):
        model = model_of(input_shape=(8, 8, 1), stem_widths=(4, 16),
                         stage_depths=(1, 1, 1))
        params, stats = model.init_params(0)
        x = Tensor(rng.standard_normal((4, 8, 8, 1)))
        run_layers(model.layers, params, stats, x, training=True)   # populate running stats
        a = run_layers(model.layers, params, stats, x, training=False).data
        b = run_layers(model.layers, params, stats, x, training=False).data
        assert np.array_equal(a, b)  # eval is pure

    def test_depths_442_structure(self):
        layers = model_of(stem_widths=(16, 32, 64, 128), stage_depths=(4, 8, 4)).layers
        stem, blocks = layers[0], layers[1:]
        assert isinstance(stem, Stem) and all(isinstance(b, Bottleneck) for b in blocks)
        firsts = [i for i, b in enumerate(blocks) if b.prefix.endswith(".block0")]
        assert len(blocks) == 16 and firsts == [0, 4, 12]
        assert [blocks[i].widths for i in firsts] == [
            (16, 32, 64), (32, 64, 128), (64, 128, 256)]
        assert layers[-1].out_channels == 256


class TestConvBn:
    @staticmethod
    def _case(rng, k, n=3, hw=(7, 6), cin=3, cout=5):
        params = {"c.w": Tensor(rng.standard_normal((k, k, cin, cout)) * 0.5,
                                requires_grad=True),
                  "bn.gamma": Tensor(rng.uniform(0.5, 2.0, cout), requires_grad=True),
                  "bn.beta": Tensor(rng.standard_normal(cout), requires_grad=True)}
        stats = {"bn": ops.RunningStats(cout, dtype=np.float64)}
        stats["bn"].mean, stats["bn"].var = rng.standard_normal(cout), rng.uniform(0.2, 3.0, cout)
        x = Tensor(rng.standard_normal((n,) + hw + (cin,)) * 2.0 + 0.5, requires_grad=True)
        return params, stats, x

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_eval_matches_conv_then_batch_norm(self, rng, k, stride):
        params, stats, x = self._case(rng, k)
        folded = conv_bn(params, stats, "c", "bn", x, stride, training=False)
        s = stats["bn"]
        y = conv2d_loop_reference(x.data, params["c.w"].data, stride)
        ref = (y - s.mean) / np.sqrt(s.var + 1e-5) * params["bn.gamma"].data \
            + params["bn.beta"].data
        assert np.max(np.abs(folded.data - ref)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    def test_eval_gradient_finite_difference(self, rng, k):
        params, stats, x = self._case(rng, k, n=2, hw=(5, 4), cin=2, cout=3)
        proj = Tensor(rng.standard_normal((2, 3, 2, 3)))
        result = finite_diff_check(
            "conv_bn_eval", lambda: ops.reduce_sum(ops.multiply(
                conv_bn(params, stats, "c", "bn", x, 2, training=False), proj)),
            {"x": x, **params}, tol=1e-6)
        assert result.coords == x.size + k * k * 6 + 6
        assert result.passed, result.line()

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_residual_and_relu_match_the_separate_ops(self, rng, training):
        # training records relu(add(residual, bn)) op by op; eval fuses them
        # into the conv with the same bits
        params, stats, x = self._case(rng, 1)
        r = Tensor(rng.standard_normal((3, 4, 3, 5)), requires_grad=True)
        twin = {"bn": copy.deepcopy(stats["bn"])}
        with GradientTape() as tape:
            out = conv_bn(params, stats, "c", "bn", x, 2, training, relu=True, residual=r)
        with GradientTape() as ref_tape:
            ref = ops.relu(ops.add(r, conv_bn(params, twin, "c", "bn", x, 2, training)))
        assert out.data.tobytes() == ref.data.tobytes()
        assert len(tape) == len(ref_tape) - 2 * (not training)

    def test_training_is_conv_then_batch_norm(self, rng):
        params, stats, x = self._case(rng, 3)
        ref_stats = ops.RunningStats(5, dtype=np.float64)
        ref_stats.mean, ref_stats.var = stats["bn"].mean, stats["bn"].var
        out = conv_bn(params, stats, "c", "bn", x, 2, training=True)
        y = ops.conv2d(x, params["c.w"], stride=2)
        ref = ops.batch_norm(y, params["bn.gamma"], params["bn.beta"], ref_stats)
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(stats["bn"].mean, ref_stats.mean)
        assert np.array_equal(stats["bn"].var, ref_stats.var)
