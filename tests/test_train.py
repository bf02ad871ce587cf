"""Trainer: Adam against the hand-rolled recursion, schedules, patch sampling, reproducibility."""

import csv
import dataclasses

import numpy as np
import pytest

import lhgm.model as M
import lhgm.train as TR
from lhgm.errors import TrainingDivergedError
from lhgm.model import ModelConfig
from lhgm.tensor import Tensor
from lhgm.train import (
    METRICS_HEADER,
    AdamState,
    MetricsRow,
    TrainConfig,
    adam_step,
    lambda_schedule,
    sample_patches,
    train_loop,
    write_metrics,
)

from oracles import adam_recursion


def scalar_param():
    return {"theta": Tensor(np.zeros(()), requires_grad=True)}


class TestAdam:
    def test_matches_hand_rolled_recursion(self):
        grads = [0.3, -1.2, 0.7, 2.0, -0.1, 1e-4]
        params = scalar_param()
        state = AdamState.init(params)
        got = []
        for g in grads:
            adam_step(params, {"theta": np.array(g)}, state, lr=0.01)
            got.append(float(params["theta"].data))
        np.testing.assert_allclose(got, adam_recursion(grads, 0.01), rtol=1e-14, atol=0)
        assert state.t == len(grads)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_skips_step(self, bad):
        params = scalar_param()
        state = AdamState.init(params)
        adam_step(params, {"theta": np.array(0.5)}, state, lr=0.01)
        before = float(params["theta"].data)
        m, v = state.m["theta"].copy(), state.v["theta"].copy()
        adam_step(params, {"theta": np.array(bad)}, state, lr=0.01)
        assert state.t == 1
        assert state.skipped == 1
        assert float(params["theta"].data) == before
        assert np.array_equal(state.m["theta"], m) and np.array_equal(state.v["theta"], v)


class TestLambdaSchedule:
    def test_switches_off_at_warmup_end(self):
        config = TrainConfig(warmup_steps=10, lambda_warm=0.6)
        assert lambda_schedule(0, config) == 0.6
        assert lambda_schedule(9, config) == 0.6
        assert lambda_schedule(10, config) == 0.0


class TestSamplePatches:
    def test_small_images_skipped(self):
        small = np.full((8, 40, 3), 255, dtype=np.uint8)
        large = np.zeros((20, 24, 3), dtype=np.uint8)
        out = sample_patches([small, large], patch=16, batch=5, rng=np.random.default_rng(0))
        assert out.shape == (5, 3, 16, 16)
        assert np.all(out.data == 0.0)

    def test_no_eligible_image_raises(self):
        with pytest.raises(ValueError, match="at least 16x16"):
            sample_patches([np.zeros((8, 40, 3)), np.zeros((15, 15, 3))], patch=16, batch=1,
                           rng=np.random.default_rng(0))


class TestLoss:
    def test_floor_hits_count_underflowed_probabilities(self):
        w = M.init_weights(ModelConfig.tiny(), seed=9)
        x = Tensor(np.random.default_rng(4).integers(0, 256, size=(1, 3, 32, 32)).astype(np.float64))
        out = M.forward(x, w, "train", rng=np.random.default_rng(8))
        config = TrainConfig()
        base = TR.loss(out, x, 0, config)
        # all three sub-pixels at (0, 0) become 0 while every component sits at 255 with a tiny scale
        x.data[0, :, 0, 0] = 0.0
        out.params_x.means.data[0, :, :, 0, 0] = 255.0
        out.params_x.scales.data[0, :, :, 0, 0] = 1e-3
        lb = TR.loss(out, x, 0, config)
        assert lb.floor_hits == base.floor_hits + 3
        assert lb.rate_y.item() == base.rate_y.item() and lb.rate_z.item() == base.rate_z.item()


def tiny_run(seed=3):
    rng = np.random.default_rng(11)
    corpus = [rng.integers(0, 256, size=(40, 48, 3)).astype(np.float64) for _ in range(2)]
    config = TrainConfig(steps=3, warmup_steps=2, batch=2, patch=32, seed=seed, log_every=1)
    return train_loop(config, corpus, model_config=ModelConfig.tiny())


class TestTrainLoop:
    def test_same_seed_reproduces_weights_and_metrics(self):
        w1, rows1 = tiny_run()
        w2, rows2 = tiny_run()
        assert w1.digest8() == w2.digest8()
        assert [r.step for r in rows1] == [0, 1, 2]
        strip = [dataclasses.replace(r, wall_time=0.0) for r in rows1]
        assert strip == [dataclasses.replace(r, wall_time=0.0) for r in rows2]
        assert [r.lam for r in rows1] == [0.6, 0.6, 0.0]
        assert all(type(r.floor_hits) is int for r in rows1)
        for r in rows1:
            assert r.total == pytest.approx(r.rate_x + r.rate_y + r.rate_z + r.lam * (r.l2_x + r.l2_y), rel=1e-12)

    def test_write_metrics_parses_back(self, tmp_path):
        rows = [MetricsRow(step=s, rate_x=1.5 + s, rate_y=0.25, rate_z=1 / 3, l2_x=0.1, l2_y=0.2, lam=0.6,
                           total=2.0, floor_hits=s, wall_time=0.01 * s) for s in range(3)]
        path = tmp_path / "metrics.csv"
        write_metrics(rows, path)
        with open(path, newline="") as f:
            table = list(csv.reader(f))
        assert table[0] == METRICS_HEADER.split(",") == [f.name for f in dataclasses.fields(MetricsRow)]
        assert len(table) == 1 + len(rows)
        for row, line in zip(rows, table[1:]):
            assert int(line[0]) == row.step
            assert [float(v) for v in line[1:]] == [getattr(row, f.name) for f in dataclasses.fields(row)][1:]


def smooth_corpus(seed, count=4, size=32):
    """Seeded RGB gradients with mild noise: images a model can learn to code below 8 bits."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    images = []
    for _ in range(count):
        a = rng.uniform(-100, 100, size=(3, 3))
        img = 128 + a[:, 0] * yy[..., None] + a[:, 1] * xx[..., None] + rng.normal(0, 4, size=(size, size, 3))
        images.append(np.clip(np.rint(img), 0, 255))
    return images


def tiny_schedule(**overrides):
    base = dict(warmup_steps=0, batch=1, patch=16, seed=5, log_every=1)
    return TrainConfig(**{**base, **overrides})


class TestSchedules:
    def test_lr_switches_at_lr_switch_step(self, monkeypatch):
        seen = []
        real_adam_step = TR.adam_step

        def recording(params, grads, state, lr):
            seen.append(lr)
            return real_adam_step(params, grads, state, lr)

        monkeypatch.setattr(TR, "adam_step", recording)
        config = tiny_schedule(steps=4, lr=1e-3, lr_final=1e-4, lr_switch_step=2)
        train_loop(config, smooth_corpus(0), model_config=ModelConfig.tiny())
        assert seen == [1e-3, 1e-3, 1e-4, 1e-4]


class TestDivergenceGuard:
    """The run stops after 100 consecutive steps whose loss is above 10x the step-0 loss."""

    def inflate_after_step_0(self, monkeypatch, keep=()):
        real_loss = TR.loss

        def inflated(outputs, x, step, config):
            lb = real_loss(outputs, x, step, config)
            if step > 0 and step not in keep:
                lb.total = lb.total * 1e3
            return lb

        monkeypatch.setattr(TR, "loss", inflated)

    def test_raises_after_100_high_steps(self, monkeypatch):
        self.inflate_after_step_0(monkeypatch)
        with pytest.raises(TrainingDivergedError, match=r"100 consecutive steps \(step 100\)"):
            train_loop(tiny_schedule(steps=150), smooth_corpus(1), model_config=ModelConfig.tiny())

    def test_one_normal_step_resets_the_streak(self, monkeypatch):
        # 49 high steps before step 50 and 89 after it: without the reset the streak reaches 100 at step 101
        self.inflate_after_step_0(monkeypatch, keep=(50,))
        _, rows = train_loop(tiny_schedule(steps=140), smooth_corpus(1), model_config=ModelConfig.tiny())
        assert rows[-1].step == 139


class TestLearning:
    def test_short_run_lowers_the_loss(self):
        _, rows = train_loop(tiny_schedule(steps=60, batch=2), smooth_corpus(2), model_config=ModelConfig.tiny())
        totals = [r.total for r in rows]
        assert len(totals) == 60
        assert np.mean(totals[-10:]) < np.mean(totals[:10])
