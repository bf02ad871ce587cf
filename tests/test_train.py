"""Trainer: Adam against the hand-rolled recursion, schedules, patch sampling, reproducibility."""

import csv
import dataclasses

import numpy as np
import pytest

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
        for r in rows1:
            assert r.total == pytest.approx(r.rate_x + r.rate_y + r.rate_z + r.lam * (r.l2_x + r.l2_y), rel=1e-12)

    def test_write_metrics_parses_back(self, tmp_path):
        rows = [MetricsRow(step=s, rate_x=1.5 + s, rate_y=0.25, rate_z=1 / 3, l2_x=0.1, l2_y=0.2, lam=0.6,
                           total=2.0, wall_time=0.01 * s) for s in range(3)]
        path = tmp_path / "metrics.csv"
        write_metrics(rows, path)
        with open(path, newline="") as f:
            table = list(csv.reader(f))
        assert table[0] == METRICS_HEADER.split(",") == [f.name for f in dataclasses.fields(MetricsRow)]
        assert len(table) == 1 + len(rows)
        for row, line in zip(rows, table[1:]):
            assert int(line[0]) == row.step
            assert [float(v) for v in line[1:]] == [getattr(row, f.name) for f in dataclasses.fields(row)][1:]
