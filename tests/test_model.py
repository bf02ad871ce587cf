"""Hyperprior model: shapes, quantization, causality, serialization."""

import struct

import numpy as np
import pytest

import lhgm.model as M
import lhgm.tensor as T
from lhgm.distributions import SIGMA_MIN
from lhgm.model import ModelConfig, ModelWeights, forward, init_weights
from lhgm.tensor import Tensor

RNG = np.random.default_rng(31337)


@pytest.fixture(scope="module")
def tiny_weights():
    return init_weights(ModelConfig.tiny(), seed=5)


def random_image(h, w, n=1, rng=RNG):
    return Tensor(rng.integers(0, 256, size=(n, 3, h, w)).astype(np.float64))


class TestShapes:
    def test_default_config_shape_arithmetic(self):
        cfg = ModelConfig()
        w = init_weights(cfg, seed=0)
        x = random_image(64, 64)
        y = M.analysis(x, w)
        z = M.hyper_analysis(y, w)
        assert y.shape == (1, cfg.latent_channels, 16, 16)
        assert z.shape == (1, cfg.hyper_channels, 4, 4)

    def test_non_divisible_input_rejected(self, tiny_weights):
        with pytest.raises(ValueError, match="divisible"):
            M.analysis(random_image(40, 40), tiny_weights)

    def test_zero_input_zero_weights_gives_zero_latents(self):
        w = init_weights(ModelConfig.tiny(), seed=0)
        for t in w.tensors.values():
            t.data[...] = 0.0
        x = Tensor(np.zeros((1, 3, 16, 16)))
        y = M.analysis(x, w)
        z = M.hyper_analysis(y, w)
        assert np.all(y.data == 0.0) and np.all(z.data == 0.0)

    def test_forward_deterministic(self, tiny_weights):
        x = random_image(32, 32)
        a = forward(x, tiny_weights, "infer")
        b = forward(Tensor(x.data.copy()), tiny_weights, "infer")
        assert np.array_equal(a.params_x.means.data, b.params_x.means.data)
        assert np.array_equal(a.params_y.scales.data, b.params_y.scales.data)

    def test_synthesis_restores_spatial_dims(self, tiny_weights):
        x = random_image(32, 48)
        out = forward(x, tiny_weights, "infer")
        assert out.params_x.plane_shape == (1, 3, 32, 48)
        assert out.params_y.plane_shape == (1, tiny_weights.config.latent_channels, 8, 12)


class TestQuantize:
    def test_infer_tie_rule(self):
        v = Tensor(np.array([[2.4, 2.5], [-2.5, -0.49]]))
        out = M.quantize_infer(v)
        np.testing.assert_array_equal(out.data, [[2.0, 3.0], [-3.0, -0.0]])

    def test_train_noise_within_half(self):
        v = Tensor(RNG.normal(size=(4, 4)))
        out = M.quantize_train(v, np.random.default_rng(0))
        assert np.all(np.abs(out.data - v.data) <= 0.5)

    def test_train_noise_unbiased(self):
        # mean of 1e6 U(-1/2,1/2) draws is within 3 sigma of 0,
        # sigma = (1/sqrt(12)) / 1e3
        v = Tensor(np.zeros(1_000_000))
        out = M.quantize_train(v, np.random.default_rng(123))
        sigma = (1.0 / np.sqrt(12.0)) / 1e3
        assert abs(out.data.mean()) < 3 * sigma

    def test_infer_latents_are_integers(self, tiny_weights):
        out = forward(random_image(32, 32), tiny_weights, "infer")
        assert np.array_equal(out.y_q.data, np.round(out.y_q.data))
        assert np.array_equal(out.z_q.data, np.round(out.z_q.data))


class TestParameterHeads:
    def test_mixture_invariants_hold(self, tiny_weights):
        out = forward(random_image(32, 32), tiny_weights, "infer")
        for params in (out.params_x, out.params_y):
            np.testing.assert_allclose(params.weights.data.sum(axis=1), 1.0, atol=1e-12)
            assert (params.scales.data >= SIGMA_MIN).all()

    def test_hyper_head_pre_split_channels(self, tiny_weights):
        cfg = tiny_weights.config
        assert tiny_weights["hh.w"].shape[0] == 3 * cfg.mixture_k * cfg.latent_channels

    def test_k1_head_is_mean_and_scale_gaussian(self):
        cfg = ModelConfig.tiny()
        cfg.mixture_k = 1
        w = init_weights(cfg, seed=2)
        out = forward(random_image(16, 16), w, "infer")
        assert out.params_y.K == 1
        assert np.all(out.params_y.weights.data == 1.0)

    def test_pixel_mean_is_weighted_average(self, tiny_weights):
        from lhgm.distributions import mixture_mean

        out = forward(random_image(16, 16), tiny_weights, "infer")
        mu = mixture_mean(out.params_x).data
        manual = np.sum(out.params_x.weights.data * out.params_x.means.data, axis=1)
        np.testing.assert_array_equal(mu, manual)


class TestPixelScaleHead:
    # The documented pixel-scale contract (comment above _SCALE_SPAN_X):
    # sigma_x = softplus(raw) * 32 + SIGMA_MIN, starting at sigma_x = 8, with
    # a few raw units covering sigma ~0.2 ("constant patch") to ~70 ("noise
    # patch"). Expected values come from np.logaddexp and literal constants,
    # not from the module's own constants.

    @staticmethod
    def _pixel_scales(raw_s: np.ndarray) -> np.ndarray:
        """Scales split_mixture gives for scale raws [N,K,3,H,W] (zero logits/means)."""
        n, k, c, h, w = raw_s.shape
        raw = np.concatenate([np.zeros((n, 2 * k * c, h, w)), raw_s.reshape(n, k * c, h, w)], axis=1)
        return M.split_mixture(Tensor(raw), k, c, pixel=True).scales.data

    def test_scale_block_is_spanned_softplus(self):
        raw_s = np.random.default_rng(17).normal(0.0, 6.0, size=(2, 3, 3, 4, 5))
        expected = np.logaddexp(0.0, raw_s) * 32.0 + SIGMA_MIN
        np.testing.assert_allclose(self._pixel_scales(raw_s), expected, rtol=1e-14, atol=0)

    def test_fresh_head_starts_at_sigma_eight(self):
        w = init_weights(ModelConfig.tiny(), seed=3)
        w["gs5.w"].data[:] = 0.0
        y_q = np.random.default_rng(6).integers(-3, 4, size=(1, w.config.latent_channels, 2, 3))
        scales = M.synthesis(Tensor(y_q.astype(np.float64)), w).scales.data
        np.testing.assert_allclose(scales, 8.0 + SIGMA_MIN, rtol=1e-12, atol=0)

    def test_few_raw_units_span_constant_to_noise_patch(self):
        cfg = ModelConfig.tiny()
        k = cfg.mixture_k
        bias = init_weights(cfg, seed=3)["gs5.b"].data[2 * k * 3 :]
        sigma = self._pixel_scales(bias.reshape(1, k, 3, 1, 1) + np.array([-4.0, 4.0]))
        assert np.all(sigma[..., 0] <= 0.2) and np.all(sigma[..., 1] >= 70.0)


class TestContextCausality:
    def test_context_off_ignores_y_q(self):
        cfg = ModelConfig.tiny(context_model=False)
        w = init_weights(cfg, seed=7)
        x = random_image(32, 32)
        y = M.analysis(x, w)
        y_q = M.quantize_infer(y)
        z_q = M.quantize_infer(M.hyper_analysis(y, w))
        feat = M.hyper_trunk(z_q, w)
        a = M.y_mixture_params(y_q, feat, w, context=False)
        b = M.y_mixture_params(Tensor(y_q.data + RNG.normal(size=y_q.shape) * 5), feat, w, context=False)
        for name in ("weights", "means", "scales"):
            assert np.array_equal(getattr(a, name).data, getattr(b, name).data), name

    def test_context_fuse_rejected_when_disabled(self):
        cfg = ModelConfig.tiny(context_model=False)
        w = init_weights(cfg, seed=7)
        with pytest.raises(ValueError, match="disabled"):
            M.context_fuse(Tensor(np.zeros((1, cfg.latent_channels, 4, 4))),
                           Tensor(np.zeros((1, cfg.hidden, 4, 4))), w)

    def test_perturbation_at_i_leaves_params_at_i_unchanged(self, tiny_weights):
        w = tiny_weights
        cy = w.config.latent_channels
        y_q = Tensor(np.round(RNG.normal(size=(1, cy, 6, 6)) * 2))
        feat = Tensor(RNG.normal(size=(1, w.config.hidden, 6, 6)))
        base = M.context_fuse(y_q, feat, w)
        for (i, j) in [(0, 0), (2, 3), (5, 5)]:
            bumped_in = Tensor(y_q.data.copy())
            bumped_in.data[0, :, i, j] += 7.0
            bumped = M.context_fuse(bumped_in, feat, w)
            np.testing.assert_array_equal(base.means.data[..., i, j], bumped.means.data[..., i, j])

    def test_sequential_prefix_evaluation_matches_whole_plane(self, tiny_weights):
        # decode-path consistency: at each raster position, parameters from a
        # buffer that only has the strict prefix filled in must equal the
        # whole-plane evaluation bitwise
        w = tiny_weights
        cy = w.config.latent_channels
        h_, w_ = 4, 5
        y_q = np.round(RNG.normal(size=(1, cy, h_, w_)) * 2)
        feat = Tensor(RNG.normal(size=(1, w.config.hidden, h_, w_)))
        full = M.context_fuse(Tensor(y_q), feat, w)
        buf = np.zeros_like(y_q)
        for pos in range(h_ * w_):
            i, j = divmod(pos, w_)
            partial = M.context_fuse(Tensor(buf.copy()), feat, w)
            for name in ("weights", "means", "scales"):
                got = getattr(partial, name).data[..., i, j]
                want = getattr(full, name).data[..., i, j]
                np.testing.assert_array_equal(got, want)
            buf[0, :, i, j] = y_q[0, :, i, j]


class TestForwardModes:
    def test_train_mode_requires_rng(self, tiny_weights):
        with pytest.raises(ValueError, match="rng"):
            forward(random_image(16, 16), tiny_weights, "train")

    def test_train_rates_finite_on_random_init(self):
        from lhgm.distributions import PIXEL_ALPHABET, rate_bits

        w = init_weights(ModelConfig.tiny(), seed=9)
        x = random_image(32, 32, rng=np.random.default_rng(4))
        out = forward(x, w, "train", rng=np.random.default_rng(8))
        rx = rate_bits(out.params_x, x, PIXEL_ALPHABET)
        ry = rate_bits(out.params_y, out.y_q)
        rz = rate_bits(w.prior, out.z_q)
        assert np.isfinite(rx.item()) and np.isfinite(ry.item()) and np.isfinite(rz.item())

    def test_golden_forward_fixture(self):
        # Frozen from the first verified run of this build: guards against
        # accidental numeric drift anywhere in the forward pipeline.
        # pixel_scale.mean was re-frozen from 60.329088014416406 to
        # 14.134343780457462. The old value came from an earlier pixel-scale
        # head with no span that started at sigma_x ~ 60: with r0 = (gs5
        # scale channels of this pass) - _SCALE_BIAS_X,
        # mean(softplus(r0 + 60) + SIGMA_MIN) gives it bit for bit. The
        # current head, softplus(r0 + _SCALE_BIAS_X) * 32 + SIGMA_MIN, is the
        # documented one (TestPixelScaleHead pins it); the other entries,
        # the seeds and the tolerance are unchanged.
        w = init_weights(ModelConfig.tiny(), seed=1234)
        rng = np.random.default_rng(99)
        x = Tensor(rng.integers(0, 256, size=(1, 3, 16, 16)).astype(np.float64))
        out = forward(x, w, "infer")
        fingerprint = np.array(
            [
                out.y_q.data.sum(),
                out.z_q.data.sum(),
                out.params_x.means.data.mean(),
                out.params_x.scales.data.mean(),
                out.params_y.weights.data.std(),
            ]
        )
        gaps = np.abs(fingerprint - GOLDEN_FINGERPRINT)
        drifted = [name for name, gap in zip(GOLDEN_NAMES, gaps) if not gap <= 1e-12]
        np.testing.assert_allclose(
            fingerprint, GOLDEN_FINGERPRINT, rtol=0, atol=1e-12, err_msg=f"drifted: {', '.join(drifted)}"
        )


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path, tiny_weights):
        path = tmp_path / "w.lhgw"
        tiny_weights.save(path)
        loaded = ModelWeights.load(path)
        assert loaded.config == tiny_weights.config
        assert set(loaded.tensors) == set(tiny_weights.tensors)
        for name, t in tiny_weights.tensors.items():
            assert np.array_equal(t.data, loaded.tensors[name].data), name
        assert loaded.digest8() == tiny_weights.digest8()

    def test_prior_tensors_shared_with_dict(self, tiny_weights):
        # the optimizer walks the dict; the prior must see the same objects
        for name, t in tiny_weights.prior.parameters().items():
            assert tiny_weights.tensors[name] is t

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            ModelWeights.deserialize(b"XXXX" + b"\x00" * 64)

    def test_damaged_bool_in_weights_config_rejected(self, tiny_weights):
        blob = tiny_weights.serialize()
        (cfg_len,) = struct.unpack_from("<I", blob, 5)
        cfg = blob[9 : 9 + cfg_len]
        assert b"context_model = True\n" in cfg
        cfg = cfg.replace(b"context_model = True", b"context_model = ture")
        bad = blob[:5] + struct.pack("<I", len(cfg)) + cfg + blob[9 + cfg_len :]
        with pytest.raises(ValueError, match="ture"):
            ModelWeights.deserialize(bad)


    def test_every_cut_raises_value_error(self, tiny_weights):
        blob = tiny_weights.serialize()
        (cfg_len,) = struct.unpack_from("<I", blob, 5)
        first = next(iter(tiny_weights.tensors.values()))
        name_len = len(next(iter(tiny_weights.tensors)))
        header_end = 9 + cfg_len + 4 + 2 + name_len + 1 + 4 * first.ndim
        cuts = list(range(header_end + 1)) + list(range(header_end + 1, len(blob), 97)) + [len(blob) - 1]
        for cut in cuts:
            with pytest.raises(ValueError):
                ModelWeights.deserialize(blob[:cut])

    def test_trailing_bytes_rejected(self, tiny_weights):
        with pytest.raises(ValueError, match="trailing"):
            ModelWeights.deserialize(tiny_weights.serialize() + b"junk")

    def test_repeated_tensor_rejected(self, tiny_weights):
        entries = list(tiny_weights.tensors.items())
        assert weights_blob(tiny_weights.config, entries) == tiny_weights.serialize()
        # ga0.w written twice, ga0.b left out: the count and every length field still agree
        names = [name for name, _ in entries]
        entries[names.index("ga0.b")] = ("ga0.w", tiny_weights["ga0.w"])
        with pytest.raises(ValueError, match="ga0.w"):
            ModelWeights.deserialize(weights_blob(tiny_weights.config, entries))


def weights_blob(config, entries):
    """The serialize() layout, written field by field for the given (name, tensor) entries."""
    cfg = config.to_text().encode("utf-8")
    out = M.WEIGHTS_MAGIC + struct.pack("<BI", M.WEIGHTS_VERSION, len(cfg)) + cfg + struct.pack("<I", len(entries))
    for name, t in entries:
        out += struct.pack(f"<H{len(name)}sB{t.ndim}I", len(name), name.encode("utf-8"), t.ndim, *t.shape)
        out += t.data.astype("<f8").tobytes()
    return out

class TestConfigText:
    @pytest.mark.parametrize("config", [ModelConfig(), ModelConfig.tiny(False)], ids=["default", "tiny_no_context"])
    def test_round_trip(self, config):
        assert ModelConfig.from_text(config.to_text()) == config

    @pytest.mark.parametrize("line", ["context_model", "context_model = ture", "context_model = "])
    def test_malformed_bool_line_rejected(self, line):
        with pytest.raises(ValueError, match=line.strip()):
            ModelConfig.from_text(line)

    @pytest.mark.parametrize("value,flag", [("TRUE", True), ("on", True), ("1", True), ("No", False), ("off", False), ("0", False)])
    def test_bool_spellings(self, value, flag):
        assert ModelConfig.from_text(f"context_model = {value}").context_model is flag

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_text("latent = 3")


GOLDEN_NAMES = ("y_q.sum", "z_q.sum", "pixel_mean.mean", "pixel_scale.mean", "y_weights.std")
GOLDEN_FINGERPRINT = np.array(
    [-22.0, 2.0, 104.7284540564374, 14.134343780457462, 0.24880844893197235]
)
