"""Trainer: Adam against the hand-rolled recursion, schedules, patch sampling, reproducibility."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import lhgm.model as M
import lhgm.train as TR
from lhgm.errors import TrainingDivergedError
from lhgm.model import ModelConfig
from lhgm.tensor import Tensor
from lhgm.train import (
    AdamState,
    TrainConfig,
    adam_step,
    eligible_images,
    lambda_schedule,
    sample_patches,
    train_loop,
)

from oracles import adam_recursion


def scalar_param():
    return {"theta": Tensor(np.zeros(()), requires_grad=True)}


class TestAdam:
    def test_matches_hand_rolled_recursion(self):
        grads = [0.3, -1.2, 0.7, 2.0, -0.1, 1e-4]
        params = scalar_param()
        state = AdamState()
        got = []
        for g in grads:
            params["theta"].grad = np.array(g)
            adam_step(params, state, lr=0.01)
            got.append(float(params["theta"].data))
        np.testing.assert_allclose(got, adam_recursion(grads, 0.01), rtol=1e-14, atol=0)
        assert state.t == len(grads)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_skips_step(self, bad):
        params = scalar_param()
        state = AdamState()
        params["theta"].grad = np.array(0.5)
        adam_step(params, state, lr=0.01)
        before = float(params["theta"].data)
        m, v = state.m["theta"].copy(), state.v["theta"].copy()
        params["theta"].grad = np.array(bad)
        adam_step(params, state, lr=0.01)
        assert state.t == 1
        assert state.skipped == 1
        assert float(params["theta"].data) == before
        assert np.array_equal(state.m["theta"], m) and np.array_equal(state.v["theta"], v)

    def test_moments_made_at_first_gradient_equal_moments_made_at_start(self):
        # "late" has no gradient at steps 1 and 2; its bias correction still reads the global t
        grads = {"early": [0.3, -1.2, 0.7, 2.0, -0.1], "late": [None, None, 0.7, -0.4, 1e-3]}

        def run(state):
            params = {name: Tensor(np.zeros(3), requires_grad=True) for name in grads}
            late_has_moments = []
            for step in range(5):
                for name, p in params.items():
                    g = grads[name][step]
                    p.grad = None if g is None else np.array([g, -g, 2.0 * g])
                adam_step(params, state, lr=0.01)
                late_has_moments.append("late" in state.m and "late" in state.v)
            return params, state, late_has_moments

        lazy, lazy_state, made = run(AdamState())
        assert made == [False, False, True, True, True]
        eager, eager_state, _ = run(AdamState(m={name: np.zeros(3) for name in grads},
                                              v={name: np.zeros(3) for name in grads}))
        for name in grads:
            assert np.array_equal(lazy[name].data, eager[name].data)
            assert np.array_equal(lazy_state.m[name], eager_state.m[name])
            assert np.array_equal(lazy_state.v[name], eager_state.v[name])
        assert np.all(lazy["late"].data != 0.0) and lazy_state.t == eager_state.t == 5

    @pytest.mark.parametrize("context_model,dead", [(True, ("hh.",)), (False, ("ctx.", "fu0.", "fu1."))])
    def test_no_moments_for_the_y_head_a_config_never_runs(self, monkeypatch, context_model, dead):
        states, real_adam_step = [], TR.adam_step

        def recording(params, state, lr):
            states.append(state)
            return real_adam_step(params, state, lr)

        monkeypatch.setattr(TR, "adam_step", recording)
        model_config = ModelConfig.tiny(context_model=context_model)
        train_loop(tiny_schedule(steps=2), smooth_corpus(0), model_config=model_config)
        state = states[-1]
        live = [name for name in M.param_shapes(model_config) if not name.startswith(dead)]
        assert len(live) < len(M.param_shapes(model_config))
        assert list(state.m) == live and list(state.v) == live


class TestLambdaSchedule:
    def test_switches_off_at_warmup_end(self):
        config = TrainConfig(warmup_steps=10, lambda_warm=0.6)
        assert lambda_schedule(0, config) == 0.6
        assert lambda_schedule(9, config) == 0.6
        assert lambda_schedule(10, config) == 0.0


@pytest.mark.parametrize("field,value", [("steps", 0), ("batch", 0), ("patch", 0), ("log_every", 0),
                                         ("warmup_steps", -1), ("lr_switch_step", -1), ("lr", np.nan),
                                         ("lr", -1e-3), ("lr_final", np.inf), ("lambda_warm", np.nan), ("seed", -1)])
def test_bad_train_config_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"train config {field} must be"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("steps", 2.5), ("batch", 2.5), ("seed", 1.5), ("log_every", 1.5),
                                         ("steps", True), ("lr", 1), ("lambda_warm", np.float64(0.6))])
def test_wrong_typed_train_config_rejected_by_name(field, value):
    # otherwise steps=2.5 and batch=2.5 fail deep in the loop, seed=1.5 in SeedSequence, and log_every=1.5 trains
    declared = type(getattr(TrainConfig(), field)).__name__
    with pytest.raises(ValueError, match=f"train config {field} must be {declared}"):
        TrainConfig(**{field: value})


class TestSamplePatches:
    @pytest.mark.parametrize("shape", [(20, 24), (20, 24, 4), (20, 24, 3, 1)])
    def test_non_rgb_image_rejected_by_index(self, shape):
        with pytest.raises(ValueError, match="corpus image 1 is not RGB"):
            eligible_images([np.zeros((20, 24, 3)), np.zeros(shape)], patch=16)

    def test_small_images_skipped(self):
        small = np.full((8, 40, 3), 255, dtype=np.uint8)
        large = np.zeros((20, 24, 3), dtype=np.uint8)
        eligible = eligible_images([small, large], patch=16)
        assert len(eligible) == 1 and eligible[0] is large
        out = sample_patches(eligible, patch=16, batch=5, rng=np.random.default_rng(0))
        assert out.shape == (5, 3, 16, 16)
        assert np.all(out.data == 0.0)

    def test_no_eligible_image_raises(self):
        with pytest.raises(ValueError, match="at least 16x16"):
            eligible_images([np.zeros((8, 40, 3)), np.zeros((15, 15, 3))], patch=16)

    def test_small_image_logged_once_per_run(self, caplog, monkeypatch):
        calls, sample = [], TR.sample_patches
        monkeypatch.setattr(TR, "sample_patches", lambda *args: calls.append(args) or sample(*args))
        rng = np.random.default_rng(5)
        corpus = [rng.integers(0, 256, size=(16, 16, 3)), rng.integers(0, 256, size=(40, 40, 3))]
        config = TrainConfig(steps=5, batch=1, patch=32, log_every=1)
        with caplog.at_level("WARNING", logger="lhgm.train"):
            train_loop(config, corpus, model_config=ModelConfig.tiny(context_model=False))
        assert [r.getMessage() for r in caplog.records] == ["skipping corpus image 0: 16x16 smaller than patch 32"]
        assert len(calls) == config.steps


class TestLoss:
    def test_floor_hits_count_underflowed_probabilities(self):
        w = M.init_weights(ModelConfig.tiny(), seed=9)
        x = Tensor(np.random.default_rng(4).integers(0, 256, size=(1, 3, 32, 32)).astype(np.float64))
        out = M.forward(x, w, "train", rng=np.random.default_rng(8))
        config = TrainConfig()
        _, base = TR.loss(out, x, 0, config)
        # all three sub-pixels at (0, 0) become 0 while every component sits at 255 with a tiny scale
        x.data[0, :, 0, 0] = 0.0
        out.params_x.means.data[0, :, :, 0, 0] = 255.0
        out.params_x.scales.data[0, :, :, 0, 0] = 1e-3
        _, row = TR.loss(out, x, 0, config)
        assert row.floor_hits == base.floor_hits + 3
        assert row.rate_y == base.rate_y and row.rate_z == base.rate_z


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
        assert [r.skipped for r in rows1] == [0, 0, 0]
        assert all(np.isfinite(r.grad_norm) and r.grad_norm > 0 for r in rows1)
        # the step adds its float32 terms in float32: 1e-6 is about 8 float32 ulps (the run's largest gap is 5e-8)
        for r in rows1:
            assert r.total == pytest.approx(r.rate_x + r.rate_y + r.rate_z + r.lam * (r.l2_x + r.l2_y), rel=1e-6)

    def test_steps_compute_in_float32_on_float64_master_weights(self, monkeypatch):
        batches, grads, states = [], [], []
        real_sample, real_adam_step = TR.sample_patches, TR.adam_step

        def sample(*args):
            batches.append(real_sample(*args))
            return batches[-1]

        def recording(params, state, lr):
            grads.extend(p.grad.dtype for p in params.values() if p.grad is not None)
            states.append(state)
            return real_adam_step(params, state, lr)

        monkeypatch.setattr(TR, "sample_patches", sample)
        monkeypatch.setattr(TR, "adam_step", recording)
        weights, _ = train_loop(tiny_schedule(steps=2), smooth_corpus(0), model_config=ModelConfig.tiny())
        assert {x.data.dtype for x in batches} == {np.dtype(np.float32)}
        assert grads and set(grads) == {np.dtype(np.float64)}
        moments = [*states[-1].m.values(), *states[-1].v.values()]
        assert moments and {a.dtype for a in moments} == {np.dtype(np.float64)}
        assert {t.data.dtype for t in weights.tensors.values()} == {np.dtype(np.float64)}

    def test_one_default_config_step_peaks_below_13_mib(self):
        # batch 8 of 32-px patches peaks near 11 MiB; a tape that held every op's output, closures that held
        # whole input tensors, or the upsampler's output-gradient columns formed for the whole batch at once
        # took it to 16.9 MiB
        corpus = [np.random.default_rng(i).integers(0, 256, size=(64, 64, 3)).astype(np.float64) for i in range(4)]
        weights = M.init_weights(ModelConfig(), seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_loop(TrainConfig(steps=1, batch=8, patch=32), corpus, weights=weights)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20, f"one step peaked at {peak / 2**20:.1f} MiB"

    def test_float_corpus_raises_before_the_first_step(self, monkeypatch):
        # pixels in [0, 1) are not symbols of the pixel alphabet; the loss must refuse them, not train on them
        steps, real_adam_step = [], TR.adam_step
        monkeypatch.setattr(TR, "adam_step", lambda *args: steps.append(args) or real_adam_step(*args))
        corpus = [np.random.default_rng(0).random((32, 32, 3))]
        with pytest.raises(ValueError, match="value outside alphabet"):
            train_loop(TrainConfig(steps=3, batch=1, patch=32), corpus, model_config=ModelConfig.tiny())
        assert steps == []

    def test_model_config_and_weights_together_rejected(self):
        # either one fixes the model; with both, the weights would silently win over the config
        config = TrainConfig(steps=1, batch=2, patch=32, seed=0, log_every=1)
        corpus = [np.zeros((32, 32, 3))]
        with pytest.raises(ValueError, match="model_config or weights, not both"):
            train_loop(config, corpus, model_config=ModelConfig(), weights=M.init_weights(ModelConfig.tiny(), seed=0))


class TestTrainingObservability:
    def test_global_norm_is_the_norm_of_all_gradients_as_one_vector(self):
        grads = {"a": np.array([[3.0, 0.0]]), "b": np.array(4.0), "c": None, "d": np.full(3, 12.0)}
        params = {name: Tensor(np.zeros(np.shape(g)), requires_grad=True) for name, g in grads.items()}
        for name, g in grads.items():
            params[name].grad = g
        assert TR.global_norm(params) == pytest.approx(np.sqrt(9 + 16 + 3 * 144), rel=1e-15)

    def test_non_finite_gradient_counts_a_skipped_step(self, monkeypatch):
        # the NaN goes into the gradient Adam reads: the float64 one on the master weights
        real_adam_step = TR.adam_step

        def adam_step_with_nan_at_step_one(params, state, lr):
            calls.append(None)
            if len(calls) == 2:
                params["ga0.w"].grad[0, 0, 0, 0] = np.nan
            return real_adam_step(params, state, lr)

        calls = []
        weights = M.init_weights(ModelConfig.tiny(), seed=5)
        monkeypatch.setattr(TR, "adam_step", adam_step_with_nan_at_step_one)
        rng = np.random.default_rng(11)
        corpus = [rng.integers(0, 256, size=(40, 48, 3)).astype(np.float64) for _ in range(2)]
        config = TrainConfig(steps=3, warmup_steps=2, batch=2, patch=32, seed=3, log_every=1)
        _, rows = train_loop(config, corpus, weights=weights)
        assert [r.skipped for r in rows] == [0, 1, 1]
        assert np.isnan(rows[1].grad_norm)
        assert np.isfinite(rows[0].grad_norm) and np.isfinite(rows[2].grad_norm)


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

        def recording(params, state, lr):
            seen.append(lr)
            return real_adam_step(params, state, lr)

        monkeypatch.setattr(TR, "adam_step", recording)
        config = tiny_schedule(steps=4, lr=1e-3, lr_final=1e-4, lr_switch_step=2)
        train_loop(config, smooth_corpus(0), model_config=ModelConfig.tiny())
        assert seen == [1e-3, 1e-3, 1e-4, 1e-4]


class TestDivergenceGuard:
    """The run stops after 100 consecutive steps whose loss is non-finite or above 10x the first finite loss."""

    def inflate_after_step_0(self, monkeypatch, keep=()):
        real_loss = TR.loss

        def inflated(outputs, x, step, config):
            total, row = real_loss(outputs, x, step, config)
            if step > 0 and step not in keep:
                total = total * 1e3
            return total, row

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

    def test_non_finite_loss_from_step_0_counts(self, monkeypatch):
        # no finite loss ever sets the 10x reference, so only the non-finite rule counts these steps
        real_loss = TR.loss

        def nan_loss(outputs, x, step, config):
            total, row = real_loss(outputs, x, step, config)
            return total * np.nan, row

        monkeypatch.setattr(TR, "loss", nan_loss)
        with pytest.raises(TrainingDivergedError, match=r"100 consecutive steps \(step 99\)"):
            train_loop(tiny_schedule(steps=150), smooth_corpus(1), model_config=ModelConfig.tiny())


class TestLearning:
    def test_short_run_lowers_the_loss(self):
        _, rows = train_loop(tiny_schedule(steps=60, batch=2), smooth_corpus(2), model_config=ModelConfig.tiny())
        totals = [r.total for r in rows]
        assert len(totals) == 60
        assert np.mean(totals[-10:]) < np.mean(totals[:10])
