"""SE gating tests: bounds, oracle agreement, and the capsule variant."""

import numpy as np
import pytest

from capsnet import Tensor
from capsnet.attention import (attention_capsules, attention_capsules_reference,
                               default_se_ratio, se_block, se_block_reference)
from capsnet.errors import ConfigError, ShapeError


def se_params(rng, c, hidden):
    return (Tensor(rng.standard_normal((c, hidden)) * 0.5),
            Tensor(rng.standard_normal(hidden) * 0.2),
            Tensor(rng.standard_normal((hidden, c)) * 0.5),
            Tensor(rng.standard_normal(c) * 0.2))


class TestSERatio:
    def test_wide_maps_reduce_by_eight(self):
        assert default_se_ratio(128) == 8

    @pytest.mark.parametrize("c,expected", [
        (64, 4), (32, 4), (16, 4), (12, 4), (10, 2), (8, 4),
        (6, 3), (4, 4), (3, 3), (7, 1),
    ])
    def test_general_rule_picks_largest_divisor_up_to_four(self, c, expected):
        r = default_se_ratio(c)
        assert r == expected
        assert c % r == 0


class TestSEBlock:
    def test_matches_straightline_oracle(self, rng):
        x = rng.standard_normal((3, 5, 5, 8))
        w1, b1, w2, b2 = se_params(rng, 8, 2)
        got = se_block(Tensor(x), w1, b1, w2, b2).data
        want = se_block_reference(x, w1.data, b1.data, w2.data, b2.data)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_output_bounded_by_input(self, rng):
        x = rng.standard_normal((2, 4, 4, 6))
        w1, b1, w2, b2 = se_params(rng, 6, 3)
        out = se_block(Tensor(x), w1, b1, w2, b2).data
        assert np.all(np.abs(out) <= np.abs(x))
        assert np.all(np.sign(out) == np.sign(x))

    def test_gate_strictly_inside_unit_interval(self, rng):
        # recover implied gates where the input is nonzero
        x = rng.uniform(0.5, 1.5, (2, 3, 3, 4))
        w1, b1, w2, b2 = se_params(rng, 4, 2)
        out = se_block(Tensor(x), w1, b1, w2, b2).data
        gate = out / x
        assert np.all(gate > 0) and np.all(gate < 1)

    def test_shape_errors(self, rng):
        w1, b1, w2, b2 = se_params(rng, 4, 2)
        with pytest.raises(ShapeError):
            se_block(Tensor(np.ones((2, 4))), w1, b1, w2, b2)
        with pytest.raises(ShapeError):
            se_block(Tensor(np.ones((2, 3, 3, 6))), w1, b1, w2, b2)


class TestAttentionCapsules:
    def test_matches_straightline_oracle(self, rng):
        poses = rng.standard_normal((3, 5, 7))
        agree = rng.standard_normal((3, 5))
        w1, b1, w2, b2 = se_params(rng, 5, 2)
        res = attention_capsules(Tensor(poses), Tensor(agree), w1, b1, w2, b2)
        act, gp, gate = attention_capsules_reference(
            poses, agree, w1.data, b1.data, w2.data, b2.data)
        assert np.max(np.abs(res.activations.data - act)) < 1e-12
        assert np.max(np.abs(res.poses.data - gp)) < 1e-12
        assert np.max(np.abs(res.gates.data - gate)) < 1e-12

    def test_activations_are_distribution_and_gates_bounded(self, rng):
        poses = rng.standard_normal((4, 6, 8))
        agree = rng.standard_normal((4, 6))
        w1, b1, w2, b2 = se_params(rng, 6, 3)
        res = attention_capsules(Tensor(poses), Tensor(agree), w1, b1, w2, b2)
        act = res.activations.data
        assert np.allclose(act.sum(-1), 1.0, atol=1e-12)
        g = res.gates.data
        assert np.all((g > 0) & (g < 1))

    def test_gating_shrinks_poses(self, rng):
        poses = rng.standard_normal((2, 4, 5))
        agree = rng.standard_normal((2, 4))
        w1, b1, w2, b2 = se_params(rng, 4, 2)
        res = attention_capsules(Tensor(poses), Tensor(agree), w1, b1, w2, b2)
        assert np.all(np.linalg.norm(res.poses.data, axis=-1)
                      <= np.linalg.norm(poses, axis=-1))

    def test_errors(self, rng):
        w1, b1, w2, b2 = se_params(rng, 4, 2)
        with pytest.raises(ShapeError):
            attention_capsules(Tensor(np.ones((2, 4, 5))), Tensor(np.ones((3, 4))),
                               w1, b1, w2, b2)
        with pytest.raises(ConfigError):
            attention_capsules(Tensor(np.ones((2, 1, 5))), Tensor(np.ones((2, 1))),
                               w1, b1, w2, b2)
