"""Routing tests: the factorized pairwise interaction against its brute-force
oracle, squash/pose invariants, and the two activation variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsnet import GradientTape, Tensor
from capsnet import ops
from capsnet.errors import ConfigError, ShapeError
from capsnet.routing import (agreement, capsule_predictions, fm_interaction,
                             fm_interaction_reference, interaction_pose,
                             l2_normalize, route, squash)


class TestSquash:
    def test_norm_below_one_and_direction_kept(self, rng):
        s = rng.standard_normal((100, 8)) * rng.uniform(0.01, 20, (100, 1))
        v = squash(Tensor(s)).data
        norms = np.linalg.norm(v, axis=-1)
        assert np.all(norms < 1.0)
        cos = np.sum(v * s, -1) / (np.linalg.norm(s, axis=-1) * np.maximum(norms, 1e-300))
        assert np.all(cos > 1 - 1e-9)

    def test_zero_maps_to_zero(self):
        v = squash(Tensor(np.zeros((3, 4)))).data
        assert np.all(v == 0.0)

    def test_known_value(self):
        # |s| = 2 -> factor (4/5)/2 = 0.4 per coordinate
        s = np.array([[2.0, 0.0]])
        v = squash(Tensor(s)).data
        assert np.allclose(v, [[0.8, 0.0]], atol=1e-9)

    def test_norm_monotone_in_input_norm(self):
        lengths = np.linspace(0.1, 10, 50)
        vs = squash(Tensor(lengths[:, None] * np.array([[1.0, 0.0]]))).data
        out = np.linalg.norm(vs, axis=-1)
        assert np.all(np.diff(out) > 0)


class TestL2Normalize:
    def test_unit_norm(self, rng):
        u = rng.standard_normal((50, 6))
        n = np.linalg.norm(l2_normalize(Tensor(u)).data, axis=-1)
        assert np.allclose(n, 1.0, atol=1e-12)

    def test_zero_rows_stay_zero(self):
        u = np.zeros((2, 5))
        assert np.all(l2_normalize(Tensor(u)).data == 0.0)


class TestFmInteraction:
    def test_matches_bruteforce_oracle(self, rng):
        u = rng.standard_normal((4, 7, 5))
        fast = fm_interaction(Tensor(u)).data
        assert np.max(np.abs(fast - fm_interaction_reference(u))) < 1e-12

    def test_batched_matches_oracle(self, rng):
        u = rng.standard_normal((3, 4, 6, 5))
        fast = fm_interaction(Tensor(u)).data
        assert fast.shape == (3, 4, 5)
        assert np.max(np.abs(fast - fm_interaction_reference(u))) < 1e-12

    def test_two_capsules_hand_value(self):
        # n=2: H = (1/2) * u1 * u2 elementwise
        u = np.array([[[1.0, 2.0], [3.0, -1.0]]])
        h = fm_interaction(Tensor(u)).data
        assert np.allclose(h, [[1.5, -1.0]])

    def test_identical_votes_agreement(self):
        # n identical unit votes give b = (n - 1) / 2 exactly
        n = 6
        v = np.zeros(8)
        v[0] = 1.0
        u = np.tile(v, (3, n, 1))
        b = agreement(fm_interaction(Tensor(u))).data
        assert np.allclose(b, (n - 1) / 2)

    def test_rejects_single_capsule_and_bad_rank(self):
        with pytest.raises(ShapeError):
            fm_interaction(Tensor(np.ones((3, 1, 4))))
        with pytest.raises(ShapeError):
            fm_interaction(Tensor(np.ones((3, 4))))
        with pytest.raises(ShapeError):
            fm_interaction_reference(np.ones((3, 1, 4)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 9), st.integers(1, 8),
           st.integers(0, 10_000))
    def test_factorization_identity_random(self, j, n, k, seed):
        u = np.random.default_rng(seed).standard_normal((j, n, k))
        fast = fm_interaction(Tensor(u)).data
        assert np.max(np.abs(fast - fm_interaction_reference(u))) < 1e-12


class TestPose:
    def test_unit_or_zero(self, rng):
        h = rng.standard_normal((6, 5))
        h[2] = 0.0
        h[4] = 1e-14  # below cutoff
        norms = np.linalg.norm(interaction_pose(Tensor(h)).data, axis=-1)
        assert np.allclose(norms[[0, 1, 3, 5]], 1.0, atol=1e-12)
        assert norms[2] == 0.0 and norms[4] == 0.0


class TestPredictions:
    def test_matches_explicit_loop(self, rng):
        w = rng.standard_normal((3, 4, 5, 6))
        u = rng.standard_normal((2, 4, 5))
        got = capsule_predictions(Tensor(u), Tensor(w)).data
        want = np.zeros((2, 3, 4, 6))
        for b in range(2):
            for j in range(3):
                for i in range(4):
                    want[b, j, i] = u[b, i] @ w[j, i]
        assert np.allclose(got, want)

    def test_batched_shape(self, rng):
        w = rng.standard_normal((3, 4, 5, 6))
        u = rng.standard_normal((2, 4, 5))
        assert capsule_predictions(Tensor(u), Tensor(w)).shape == (2, 3, 4, 6)

    def test_shape_mismatch(self, rng):
        w = rng.standard_normal((3, 4, 5, 6))
        with pytest.raises(ShapeError):
            capsule_predictions(Tensor(rng.standard_normal((4, 4))), Tensor(w))
        with pytest.raises(ShapeError):
            capsule_predictions(Tensor(rng.standard_normal((2, 3, 4, 5))), Tensor(w))


class TestRoute:
    def test_modified_is_distribution(self, rng):
        u = rng.standard_normal((2, 5, 8, 16))
        act = route(u, "modified").activations.data
        assert act.shape == (2, 5)
        assert np.all(act > 0)
        assert np.allclose(act.sum(-1), 1.0, atol=1e-9)

    def test_original_is_exp_of_agreement(self, rng):
        u = rng.standard_normal((5, 8, 16))
        res = route(u, "original")
        assert np.allclose(res.activations.data, np.exp(res.agreements.data))

    def test_original_can_exceed_one(self):
        # identical votes force positive agreement, so exp(b) > 1
        v = np.ones(16)
        u = np.tile(v, (3, 8, 1))
        act = route(u, "original").activations.data
        assert np.any(act > 1.0)

    def test_variants_agree_on_argmax(self, rng):
        for _ in range(20):
            u = rng.standard_normal((4, 6, 8))
            m = route(u, "modified").activations.data
            o = route(u, "original").activations.data
            assert np.argmax(m) == np.argmax(o)

    def test_poses_unit_or_zero(self, rng):
        u = rng.standard_normal((2, 4, 6, 8))
        norms = np.linalg.norm(route(u).poses.data, axis=-1)
        assert np.all((np.abs(norms - 1) < 1e-9) | (norms == 0))

    def test_rejects_bad_variant_and_small_j(self, rng):
        u = rng.standard_normal((3, 4, 5))
        with pytest.raises(ConfigError):
            route(u, "iterative")
        with pytest.raises(ConfigError):
            route(rng.standard_normal((1, 4, 5)))
        with pytest.raises(ShapeError):
            route(rng.standard_normal((4, 5)))

    def test_scale_invariance_of_predictions(self, rng):
        # votes are normalized first, so rescaling any vote changes nothing
        u = rng.standard_normal((3, 5, 7))
        scaled = u * rng.uniform(0.5, 3.0, (3, 5, 1))
        a = route(u).activations.data
        b = route(scaled).activations.data
        assert np.allclose(a, b, atol=1e-12)

    def test_differentiable_end_to_end(self, rng):
        u = Tensor(rng.standard_normal((3, 5, 7)), requires_grad=True)
        with GradientTape() as tape:
            res = route(u)
            loss = ops.reduce_sum(ops.square(res.activations))
        (g,) = tape.gradient(loss, [u])
        assert g.shape == u.shape
        assert np.any(g != 0)
