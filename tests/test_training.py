"""Training loop tests: loss values, schedule, optimizer dynamics, and
determinism of the epoch machinery."""

import numpy as np
import pytest

from capsnet import (CapsuleClassifier, ModelConfig, TrainConfig, Tensor,
                     accuracy, cross_entropy_loss, evaluate, fit,
                     init_train_state, one_hot, read_history_csv, sgd_step,
                     step_lr, train_epoch, write_history_csv)
from capsnet.data import make_blobs
from capsnet.errors import (ConfigError, ShapeError, TrainingDivergenceError)
from capsnet.training import TrainState, iter_batches


class TestLossAndMetrics:
    def test_one_hot(self):
        y = one_hot(np.array([0, 2, 1]), 3)
        assert np.array_equal(y, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_range_check(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([0, 3]), 3)
        with pytest.raises(ShapeError):
            one_hot(np.array([[0, 1]]), 3)

    def test_cross_entropy_hand_value(self):
        probs = Tensor(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        targets = one_hot(np.array([0, 1]), 3, dtype=np.float64)
        loss = cross_entropy_loss(probs, targets).item()
        assert abs(loss - (-(np.log(0.7) + np.log(0.8)) / 2)) < 1e-12

    def test_cross_entropy_floors_log(self):
        probs = Tensor(np.array([[0.0, 1.0]]))
        targets = np.array([[1.0, 0.0]])
        loss = cross_entropy_loss(probs, targets).item()
        assert abs(loss - (-np.log(1e-12))) < 1e-9

    def test_cross_entropy_shape_check(self):
        with pytest.raises(ShapeError):
            cross_entropy_loss(Tensor(np.ones((2, 3)) / 3), np.ones((3, 2)))

    def test_accuracy(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]])
        assert accuracy(probs, np.array([0, 1, 1, 1])) == 0.75


class TestSchedule:
    def test_exact_step_values(self):
        assert step_lr(0.01, 0.5, 60, 0) == 0.01
        assert step_lr(0.01, 0.5, 60, 59) == 0.01
        assert step_lr(0.01, 0.5, 60, 60) == 0.005
        assert step_lr(0.01, 0.5, 60, 119) == 0.005
        assert step_lr(0.01, 0.5, 60, 120) == 0.0025
        with pytest.raises(ValueError):
            step_lr(0.01, 0.5, 60, -1)

    def test_other_drop_settings(self):
        assert step_lr(0.1, 0.1, 10, 25) == pytest.approx(0.001)


def tiny_state(params_arrays, momentum=0.9, l2=0.0, lr=0.1):
    cfg = TrainConfig(epochs=1, batch_size=2, base_lr=lr, momentum=momentum, l2=l2)
    params = {k: Tensor(v.copy(), requires_grad=True) for k, v in params_arrays.items()}
    velocity = {k: np.zeros_like(v) for k, v in params_arrays.items()}
    return TrainState(params=params, stats={}, velocity=velocity, epoch=0, config=cfg)


class TestSGD:
    def test_two_step_displacement(self):
        # constant gradient g: step 1 moves -lr*g, step 2 moves -lr*g*(1+m)
        state = tiny_state({"w": np.zeros(1)}, momentum=0.9, lr=0.1)
        g = {"w": np.ones(1)}
        sgd_step(state, g, 0.1)
        assert np.allclose(state.params["w"].data, -0.1)
        sgd_step(state, g, 0.1)
        assert np.allclose(state.params["w"].data, -0.1 - 0.1 * 1.9)

    def test_l2_augments_gradient(self):
        state = tiny_state({"w": np.array([2.0])}, momentum=0.0, l2=0.5, lr=0.1)
        sgd_step(state, {"w": np.zeros(1)}, 0.1)
        # pure decay: w - lr*l2*w = 2 - 0.1*0.5*2
        assert np.allclose(state.params["w"].data, 2.0 - 0.1)

    def test_converges_on_quadratic_bowl(self):
        state = tiny_state({"w": np.array([5.0, -3.0])}, momentum=0.9, lr=0.1)
        for _ in range(200):
            g = {"w": state.params["w"].data.copy()}  # grad of 0.5*|w|^2
            sgd_step(state, g, 0.1)
        assert np.all(np.abs(state.params["w"].data) < 1e-3)

    def test_divergence_raises(self):
        state = tiny_state({"w": np.array([1.0])})
        with pytest.raises(TrainingDivergenceError) as e:
            sgd_step(state, {"w": np.array([np.nan])}, 0.1)
        assert "'w'" in str(e.value)

    def test_divergence_leaves_state_untouched(self):
        # a NaN in the last parameter's gradient must not leave the earlier
        # parameters and velocities updated
        rng = np.random.default_rng(3)
        state = tiny_state({k: rng.standard_normal(4) for k in "abc"}, l2=0.01)
        sgd_step(state, {k: rng.standard_normal(4) for k in "abc"}, 0.1)
        params = dict(state.params)
        before = {k: (p.data.copy(), state.velocity[k].copy()) for k, p in params.items()}
        grads = {k: rng.standard_normal(4) for k in "abc"}
        grads["c"][2] = np.nan
        with pytest.raises(TrainingDivergenceError) as e:
            sgd_step(state, grads, 0.1)
        assert "'c'" in str(e.value)
        for k, (p, v) in before.items():
            assert state.params[k] is params[k]
            assert state.params[k].data.tobytes() == p.tobytes()
            assert state.velocity[k].tobytes() == v.tobytes()


class TestBatching:
    def test_ordered_when_no_rng(self):
        batches = list(iter_batches(7, 3))
        assert [b.tolist() for b in batches] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_min_size_drops_sliver(self):
        batches = list(iter_batches(7, 3, min_size=2))
        assert [len(b) for b in batches] == [3, 3]

    def test_shuffle_is_seeded(self):
        a = [b.tolist() for b in iter_batches(10, 4, np.random.default_rng([3, 1]))]
        b = [b.tolist() for b in iter_batches(10, 4, np.random.default_rng([3, 1]))]
        c = [b.tolist() for b in iter_batches(10, 4, np.random.default_rng([3, 2]))]
        assert a == b
        assert a != c
        assert sorted(sum(a, [])) == list(range(10))


TOY = dict(input_shape=(12, 12, 1), num_classes=3,
           stem_widths=(4, 8, 8, 16), stage_depths=(1, 1, 1))


def toy_setup(seed=0, **train_overrides):
    model = CapsuleClassifier(ModelConfig(**TOY))
    tc = TrainConfig(epochs=2, batch_size=16, base_lr=0.01, seed=seed,
                     **train_overrides)
    return model, init_train_state(model, tc)


class TestEpochLoop:
    def test_train_epoch_reports_and_advances(self):
        x, y = make_blobs(48, num_classes=3, image_size=12, seed=0)
        model, state = toy_setup()
        row = train_epoch(model, state, x, y)
        assert set(row) == {"epoch", "loss", "accuracy", "lr"}
        assert row["epoch"] == 0 and state.epoch == 1
        assert row["lr"] == 0.01
        assert np.isfinite(row["loss"])

    def test_training_is_deterministic_per_seed(self):
        x, y = make_blobs(48, num_classes=3, image_size=12, seed=0)
        runs = []
        for _ in range(2):
            model, state = toy_setup(seed=5)
            train_epoch(model, state, x, y)
            runs.append({k: v.data.copy() for k, v in state.params.items()})
        assert all(np.array_equal(runs[0][k], runs[1][k]) for k in runs[0])

    def test_loss_decreases_on_learnable_data(self):
        x, y = make_blobs(96, num_classes=3, image_size=12, seed=0)
        model, state = toy_setup()
        first = train_epoch(model, state, x, y)["loss"]
        for _ in range(2):
            last = train_epoch(model, state, x, y)["loss"]
        assert last < first

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergent_step_leaves_bn_stats_untouched(self):
        # the forward pass advances the running stats before sgd_step can
        # raise; a failed step must put every (mean, var) back bit for bit
        model = CapsuleClassifier(ModelConfig(
            input_shape=(16, 16, 1), num_classes=4,
            stem_widths=(8, 16, 16, 32), stage_depths=(1, 1, 1)))
        state = init_train_state(model, TrainConfig(epochs=1, batch_size=16,
                                                    base_lr=1e40, seed=0))
        x, y = make_blobs(16, num_classes=4, image_size=16, seed=0)
        params = dict(state.params)
        before = {k: (s.mean.tobytes(), s.var.tobytes()) for k, s in state.stats.items()}
        assert len(before) == 13
        with pytest.raises(TrainingDivergenceError):
            train_epoch(model, state, x, y)
        assert state.params == params
        for k, (mean, var) in before.items():
            assert state.stats[k].mean.tobytes() == mean
            assert state.stats[k].var.tobytes() == var

    def test_evaluate_matches_prediction_accuracy(self):
        x, y = make_blobs(40, num_classes=3, image_size=12, seed=1)
        model, state = toy_setup()
        metrics = evaluate(model, state.params, state.stats, x, y, batch_size=16)
        preds = []
        for start in range(0, 40, 16):
            preds.append(model.predict(state.params, state.stats, x[start:start + 16]))
        manual = float(np.mean(np.concatenate(preds) == y))
        assert metrics["accuracy"] == pytest.approx(manual)

    def test_fit_collects_history_and_val_metrics(self, tmp_path):
        x, y = make_blobs(48, num_classes=3, image_size=12, seed=0)
        xv, yv = make_blobs(24, num_classes=3, image_size=12, seed=1)
        model, state = toy_setup()
        rows = fit(model, state, (x, y), eval_data=(xv, yv),
                   csv_path=tmp_path / "h.csv")
        assert len(rows) == 2
        assert all("val_accuracy" in r for r in rows)
        read_back = read_history_csv(tmp_path / "h.csv")
        assert [r["epoch"] for r in read_back] == [0, 1]


class TestHistoryCsv:
    def test_round_trip_and_header(self, tmp_path):
        rows = [{"epoch": 0, "loss": 1.25, "accuracy": 0.5, "lr": 0.01},
                {"epoch": 1, "loss": 0.7531246, "accuracy": 2 / 3, "lr": 0.005}]
        path = tmp_path / "history.csv"
        write_history_csv(path, rows)
        text = path.read_text()
        assert text.splitlines()[0] == "epoch,loss,accuracy,lr"
        back = read_history_csv(path)
        for a, b in zip(rows, back):
            assert a["epoch"] == b["epoch"]
            assert b["loss"] == pytest.approx(a["loss"], rel=1e-11)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,loss\n0,1.0\n")
        with pytest.raises(ShapeError):
            read_history_csv(path)

    def test_no_numpy_repr_leakage(self, tmp_path):
        rows = [{"epoch": 0, "loss": np.float64(0.5), "accuracy": np.float32(0.25),
                 "lr": np.float64(0.01)}]
        path = tmp_path / "h.csv"
        write_history_csv(path, rows)
        assert "np." not in path.read_text()


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        dict(epochs=-1), dict(batch_size=1), dict(base_lr=0.0),
        dict(momentum=1.0), dict(l2=-1e-4), dict(drop_rate=0.0),
        dict(epoch_drop=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    def test_round_trip(self):
        tc = TrainConfig(epochs=3, batch_size=8, base_lr=0.02, seed=9)
        assert TrainConfig.from_dict(tc.to_dict()) == tc
