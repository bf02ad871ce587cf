"""Distribution layer: closed-form spot checks, normalization, folding, gradients."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import lhgm.coder as C
import lhgm.distributions as D
import lhgm.tensor as T
from lhgm.distributions import Alphabet, FactorizedPrior, MixtureParams
from lhgm.tensor import GradTape, Tensor

from oracles import (
    blend_folded_prob,
    gaussian_bin_prob,
    one_shot_mixture_pmf,
    op_chain_mixture_prob,
    phi,
    rel_err,
    whole_batch_mixture_prob_grads,
)

RNG = np.random.default_rng(7)

WIDE = Alphabet(-60, 60)

# Expected discretized Gaussian probability at v=0, mu=0, unit scale, computed
# from the high-precision CDF oracle (Phi(1/2) - Phi(-1/2)).
SPOT_GAUSSIAN = 2 * phi(0.5) - 1  # 0.38292492254802624...


def make_params(n=1, k=2, c=1, h=2, w=2, rng=RNG, mu_scale=3.0):
    """Random valid MixtureParams built the way the model heads build them."""
    logits = Tensor(rng.normal(size=(n, k, c, h, w)), requires_grad=True)
    raw_mu = Tensor(rng.normal(size=(n, k, c, h, w)) * mu_scale, requires_grad=True)
    raw_s = Tensor(rng.normal(size=(n, k, c, h, w)), requires_grad=True)
    params = MixtureParams(
        weights=T.softmax(logits, axis=1),
        means=raw_mu,
        scales=T.softplus(raw_s) + D.SIGMA_MIN,
    )
    return params, (logits, raw_mu, raw_s)


def single_gaussian(mu, scale):
    """One-element K=1 mixture: a single discretized Gaussian."""
    shape = (1, 1, 1, 1, 1)
    return MixtureParams(Tensor(np.ones(shape)), Tensor(np.full(shape, mu)), Tensor(np.full(shape, scale)))


def both_paths(mu, scale, v, alphabet):
    """Probability of integer v via mixture_prob (K=1) and via the mixture_pmf table."""
    params = single_gaussian(mu, scale)
    prob = D.mixture_prob(params, Tensor(np.full((1, 1, 1, 1), float(v))), alphabet).item()
    table = D.mixture_pmf(*params.flat(), alphabet)
    return prob, float(table[0, int(v) - alphabet.lo])


class TestSpotValues:
    def test_oracle_values_match_spec_constants(self):
        # guard: the frozen constant in this file comes from the oracle
        assert abs(SPOT_GAUSSIAN - 0.3829249225) < 1e-9

    def test_unit_scale_at_zero(self):
        for got in both_paths(0.0, 1.0, 0, Alphabet(-10, 10)):
            assert abs(got - SPOT_GAUSSIAN) < 1e-12

    def test_left_tail_folding_on_pixel_alphabet(self):
        want = gaussian_bin_prob(0, 0.0, 1.0, lo=0, hi=255)
        assert abs(want - phi(0.5)) < 1e-15  # 0.6914624613
        for got in both_paths(0.0, 1.0, 0, D.PIXEL_ALPHABET):
            assert abs(got - want) < 1e-12

    def test_right_tail_folding_on_pixel_alphabet(self):
        want = gaussian_bin_prob(255, 254.2, 1.5, lo=0, hi=255)
        for got in both_paths(254.2, 1.5, 255, D.PIXEL_ALPHABET):
            assert abs(got - want) < 1e-12

    def test_concentrated_mass(self):
        assert gaussian_bin_prob(3, 3.2, 0.01) > 1 - 1e-9
        for got in both_paths(3.2, 0.01, 3, WIDE):
            assert got > 1 - 1e-9

    def test_out_of_alphabet_value_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            D.mixture_prob(single_gaussian(0.0, 1.0), Tensor(np.full((1, 1, 1, 1), 99.0)), Alphabet(-10, 10))

    @pytest.mark.parametrize("bad", [np.nan, 3.5], ids=["nan", "fraction"])
    def test_alphabet_check_accepts_only_integer_symbols(self, bad):
        D.PIXEL_ALPHABET.check(np.array([0.0, 3.0, 255.0]))
        with pytest.raises(ValueError, match="value outside alphabet"):
            D.PIXEL_ALPHABET.check(np.array([0.0, bad, 255.0]))

    def test_matches_signed_form_oracle(self):
        for v in (-3, -1, 0, 2, 5):
            for mu, s in ((0.4, 1.3), (-2.0, 0.6)):
                want = gaussian_bin_prob(v, mu, s, lo=WIDE.lo, hi=WIDE.hi)
                for got in both_paths(mu, s, v, WIDE):
                    assert abs(got - want) < 1e-14


class TestOnePath:
    """The coder's pmf table and the training likelihood are one computation.

    Estimated bits (rate_bits) against the actual payload only measure the
    coder when the table row entry at each coded symbol is the very number
    mixture_prob returns for it.
    """

    @pytest.mark.parametrize(
        "alphabet,center,spread",
        [(D.PIXEL_ALPHABET, 127.5, 90.0), (Alphabet(-20, 20), 0.0, 8.0), (Alphabet(3, 3), 3.0, 2.0)],
    )
    def test_table_entry_equals_mixture_prob(self, alphabet, center, spread):
        rng = np.random.default_rng(21)
        params, _ = make_params(n=2, k=3, c=3, h=4, w=5, rng=rng, mu_scale=spread / 3)
        params.means.data += center
        params.scales.data *= 4.0
        v = np.clip(np.round(center + rng.normal(size=(2, 3, 4, 5)) * spread), alphabet.lo, alphabet.hi)
        v.reshape(-1)[:4] = [alphabet.lo, alphabet.hi, alphabet.lo, alphabet.hi]
        got = D.mixture_prob(params, Tensor(v), alphabet).data.reshape(-1)
        table = D.mixture_pmf(*params.flat(), alphabet)
        symbols = (v.reshape(-1) - alphabet.lo).astype(np.int64)
        assert np.array_equal(table[np.arange(symbols.size), symbols], got)


class TestTableAccuracy:
    """Table rows against the 400-digit oracle: far tails, the bin at the mean, both folded edges."""

    # (mean, scale, bins): each row's bins cover the left fold, the far left
    # tail, the bin that straddles the mean and its neighbours, the far
    # right tail and the right fold. Means and scales are dyadic, so every
    # t = (e - mean) / scale is exact. A rounded t alone would move Phi(t)
    # by a relative t^2 * 1e-16, about 1e-13 at t = -32: an error of the
    # inputs that no table expression can remove.
    CASES = [
        (127.25, 4.0, [0, 1, 30, 90, 110, 126, 127, 128, 150, 200, 240, 254, 255]),
        (127.5, 0.25, [120, 126, 127, 128, 129, 135]),
        (2.25, 0.5, [0, 1, 2, 3, 4, 15, 255]),
        (253.625, 1.0, [0, 200, 220, 252, 253, 254, 255]),
        (60.0, 16.0, [0, 1, 59, 60, 61, 200, 254, 255]),
        (-30.0, 8.0, [0, 1, 2, 100, 255]),
        (290.0, 8.0, [0, 150, 253, 254, 255]),
    ]

    @pytest.mark.parametrize("mu,scale,bins", CASES)
    def test_rows_match_high_precision_oracle(self, mu, scale, bins):
        a = D.PIXEL_ALPHABET
        row = D.mixture_pmf(np.ones((1, 1)), np.full((1, 1), mu), np.full((1, 1), scale), a)[0]
        for v in bins:
            want = gaussian_bin_prob(v, mu, scale, lo=a.lo, hi=a.hi)
            if want > 1e-280:
                # scipy's ndtr alone is off by a relative 1.1e-13 at
                # t = -31.5625 (mass 6e-219), so the deep tail gets 2.5e-13
                tol = 1e-13 if want > 1e-200 else 2.5e-13
                assert abs(row[v] - want) / want < tol, (v, row[v], want)
            else:
                assert row[v] <= 1e-280, (v, row[v], want)


def flat_mixture(rows, k=3, rng=None, lo=0, hi=255):
    """Random flat [rows, K] mixture arrays with means past both alphabet edges and tiny to wide scales."""
    rng = rng or np.random.default_rng(rows)
    weights = rng.dirichlet(np.ones(k), size=rows)
    span = hi - lo
    means = rng.uniform(lo - 0.1 * span, hi + 0.1 * span, size=(rows, k))
    scales = np.exp(rng.uniform(np.log(1e-6), np.log(2.0 * span), size=(rows, k)))
    return weights, means, scales


B = D._PMF_BLOCK_ROWS


class TestBlockedTable:
    """mixture_pmf fills its table block by block, on min(usable CPUs, 4, blocks) threads; rows must
    equal the one-shot formula bit for bit at any CPU count, including fewer blocks than workers."""

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 3, 5 * B + 1])
    @pytest.mark.parametrize("alphabet", [D.PIXEL_ALPHABET, Alphabet(-7, 9)], ids=["pixel", "small"])
    def test_rows_equal_one_shot_formula(self, rows, alphabet, monkeypatch):
        arrays = flat_mixture(rows, lo=alphabet.lo, hi=alphabet.hi)
        want = one_shot_mixture_pmf(*arrays, alphabet.lo, alphabet.hi)
        for cpus in (1, 2, 5, 64):
            monkeypatch.setattr(D, "_usable_cpus", lambda: cpus)
            got = D.mixture_pmf(*arrays, alphabet)
            assert got.shape == (rows, alphabet.size)
            assert np.array_equal(got, want), cpus

    @pytest.mark.parametrize(
        "cpus, rows, threads",
        [(1, 5 * B + 1, None), (64, B, None), (2, 5 * B + 1, 2), (5, 2 * B + 3, 3), (64, 5 * B + 1, 4)],
    )
    def test_thread_count(self, monkeypatch, cpus, rows, threads):
        started = []

        class RecordingPool(D.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(D, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(D, "ThreadPoolExecutor", RecordingPool)
        D.mixture_pmf(*flat_mixture(rows, k=2), D.PIXEL_ALPHABET)
        assert started == ([] if threads is None else [threads])

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["weights", "means", "scales"])
    @pytest.mark.parametrize("bad_shape", [(10, 1), (10,), (1, 10, 3)], ids=["column", "flat", "3d"])
    def test_mismatched_shapes_rejected(self, which, bad_shape):
        # [E, 1] weights against [E, 3] means would broadcast to rows summing to 3
        arrays = list(flat_mixture(10))
        arrays[which] = np.ones(bad_shape)
        with pytest.raises(ValueError, match="one shape"):
            D.mixture_pmf(*arrays, D.PIXEL_ALPHABET)


def traced_peak(fn, *args):
    """Result of fn(*args) and the tracemalloc peak, in bytes, above the memory held at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTablePathMemory:
    """Scratch memory of the pmf and CDF builds does not grow with the image.

    27648 rows are the sub-pixels of one 96x96 RGB image; the one-shot
    build of this table peaked at 648 MB.
    """

    SCRATCH = 16 * 2**20

    @pytest.fixture(scope="class")
    def mixture(self):
        return flat_mixture(96 * 96 * 3, rng=np.random.default_rng(5))

    def test_mixture_pmf_peak(self, mixture, monkeypatch):
        # on this host's CPUs, then as on a 64-CPU host: the thread cap bounds the scratch
        for cpus in (D._usable_cpus(), 64):
            monkeypatch.setattr(D, "_usable_cpus", lambda: cpus)
            table, peak = traced_peak(D.mixture_pmf, *mixture, D.PIXEL_ALPHABET)
            assert table.shape == (96 * 96 * 3, 256)
            assert peak <= table.nbytes + self.SCRATCH, cpus

    def test_quantize_cdf_batch_peak(self, mixture):
        # 4 bytes per cumulative: an int64 table alone would exceed the bound
        table = D.mixture_pmf(*mixture, D.PIXEL_ALPHABET)
        cdf, peak = traced_peak(C.quantize_cdf_batch, table)
        assert peak <= cdf.shape[0] * cdf.shape[1] * 4 + self.SCRATCH


class TestNormalization:
    def test_mixture_pmf_sums_to_one(self):
        params, _ = make_params(k=3, h=3, w=3)
        table = D.mixture_pmf(*params.flat(), WIDE)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("mu,scale", [(3.0, 1.0), (-40.0, 0.5), (250.0, 30.0)])
    def test_one_symbol_alphabet_holds_all_mass(self, mu, scale):
        # both folds land on the one bin
        assert both_paths(mu, scale, 3, Alphabet(3, 3)) == (1.0, 1.0)

    def test_monotone_cdf_differences(self):
        params, _ = make_params(k=3, h=4, w=5, mu_scale=20.0)
        params.scales.data *= 0.05
        assert (D.mixture_pmf(*params.flat(), WIDE) >= 0).all()


class TestMixture:
    def test_degenerate_weights_equal_single_gaussian(self):
        mu = RNG.normal(size=(1, 3, 1, 2, 2)) * 2
        s = np.abs(RNG.normal(size=(1, 3, 1, 2, 2))) + 0.3
        w = np.zeros((1, 3, 1, 2, 2))
        w[:, 0] = 1.0
        params = MixtureParams(Tensor(w), Tensor(mu), Tensor(s))
        v = Tensor(np.round(RNG.normal(size=(1, 1, 2, 2)) * 2))
        got = D.mixture_prob(params, v, WIDE).data
        single = MixtureParams(Tensor(w[:, :1]), Tensor(mu[:, :1]), Tensor(s[:, :1]))
        want = D.mixture_prob(single, v, WIDE).data
        np.testing.assert_array_equal(got, want)

    def test_k1_mixture_matches_oracle(self):
        params, _ = make_params(k=1, h=3, w=3)
        v = Tensor(np.round(RNG.normal(size=(1, 1, 3, 3)) * 3))
        got = D.mixture_prob(params, v, WIDE).data
        want = [
            gaussian_bin_prob(vv, m, sc, lo=WIDE.lo, hi=WIDE.hi)
            for vv, m, sc in zip(v.data.ravel(), params.means.data.ravel(), params.scales.data.ravel())
        ]
        assert rel_err(got.ravel(), want) < 1e-13

    def test_two_component_composition_against_oracle(self):
        w = np.full((1, 2, 1, 1, 1), 0.5)
        mu = np.array([-3.0, 3.0]).reshape(1, 2, 1, 1, 1)
        s = np.ones((1, 2, 1, 1, 1))
        params = MixtureParams(Tensor(w), Tensor(mu), Tensor(s))
        got = D.mixture_prob(params, Tensor(np.zeros((1, 1, 1, 1))), WIDE).item()
        want = 0.5 * gaussian_bin_prob(0, -3, 1) + 0.5 * gaussian_bin_prob(0, 3, 1)
        assert abs(got - want) < 1e-15

    def test_weights_sum_to_one(self):
        params, _ = make_params(k=3)
        np.testing.assert_allclose(params.weights.data.sum(axis=1), 1.0, atol=1e-12)


class TestFactorizedPrior:
    def test_fresh_prior_is_normalized_and_positive(self):
        prior = FactorizedPrior.init(channels=4, rng=np.random.default_rng(3))
        alpha = Alphabet(-30, 30)
        pmf = prior.pmf(alpha)
        assert (pmf > 0).all()
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, atol=1e-6)

    @staticmethod
    def blend_reference(prior, v, alphabet):
        upper = prior.cumulative(Tensor(v + 0.5)).data
        lower = prior.cumulative(Tensor(v - 0.5)).data
        return blend_folded_prob(upper, lower, v, alphabet.lo, alphabet.hi)

    @pytest.mark.parametrize("seed", [4, 13, 27])
    def test_fold_matches_blend_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        prior = FactorizedPrior.init(channels=3, rng=rng)
        for p in prior.tensors.values():
            p.data = p.data + rng.normal(scale=0.5, size=p.shape)
        alpha = Alphabet(-4, 6)
        # every channel holds values on lo, on hi and in the interior
        v = np.tile([alpha.lo, alpha.hi, 0.0, 2.0, alpha.lo, -3.0, alpha.hi, 5.0], (3, 1))
        got = prior.prob(Tensor(v), alpha).data
        np.testing.assert_array_equal(got.view(np.int64), self.blend_reference(prior, v, alpha).view(np.int64))
        table = prior.pmf(alpha)
        want = self.blend_reference(prior, np.tile(alpha.values(), (3, 1)), alpha)
        np.testing.assert_array_equal(table.view(np.int64), want.view(np.int64))

    def test_one_symbol_alphabet_holds_all_mass(self):
        # a narrow prior puts more than half its mass on one bin; seed 2 is
        # one where the blend reference rounds to 1 - 2^-53 at value 0. The
        # slopes are those of a prior whose four stages scale by 0.3 ** (1/4)
        # each, against 10 ** (1/4) in the fresh one.
        prior = FactorizedPrior.init(channels=8, rng=np.random.default_rng(2))
        for name, w in prior.tensors.items():
            if name.startswith("prior.w"):
                w.data[...] = np.log(np.expm1(1.0 / (0.3 ** (1.0 / 4) * w.shape[1])))
        zero = Alphabet(0, 0)
        assert (self.blend_reference(prior, np.zeros((8, 1)), zero) == 1.0 - 2.0**-53).any()
        for a in range(-3, 4):
            np.testing.assert_array_equal(prior.pmf(Alphabet(a, a)), np.ones((8, 1)))

    def test_cumulative_monotone(self):
        prior = FactorizedPrior.init(channels=2, rng=np.random.default_rng(5))
        v = np.tile(np.linspace(-20, 20, 201), (2, 1))
        c = prior.cumulative(Tensor(v)).data
        assert (np.diff(c, axis=1) >= 0).all()
        assert (c > 0).all() and (c < 1).all()

    def test_fits_discretized_gaussian_within_tolerance(self):
        # oracle: NLL of the sample under the true discretized N(0, 4)
        rng = np.random.default_rng(42)
        samples = np.round(rng.normal(0.0, 2.0, size=20000))
        values, counts = np.unique(samples, return_counts=True)
        alpha = Alphabet(int(values.min()) - 1, int(values.max()) + 1)
        true_p = np.array([gaussian_bin_prob(v, 0.0, 2.0, lo=alpha.lo, hi=alpha.hi) for v in values])
        true_nll = -np.sum(counts * np.log2(true_p)) / counts.sum()

        prior = FactorizedPrior.init(channels=1, rng=np.random.default_rng(1))
        params = list(prior.tensors.values())
        weights_c = Tensor(counts[None, :].astype(np.float64))
        v = Tensor(values[None, :])
        # small Adam loop (test-local optimizer, independent of the trainer)
        m = [np.zeros_like(p.data) for p in params]
        s = [np.zeros_like(p.data) for p in params]
        for step in range(1, 301):
            for p in params:
                p.grad = None
            with GradTape():
                prob = T.clamp(prior.prob(v, alpha), lo=D.LIKELIHOOD_FLOOR)
                nll = T.reduce_sum(T.log(prob) * weights_c) * (-1.0 / np.log(2.0))
                T.backward(nll)
            for i, p in enumerate(params):
                g = p.grad
                m[i] = 0.9 * m[i] + 0.1 * g
                s[i] = 0.999 * s[i] + 0.001 * g * g
                mh = m[i] / (1 - 0.9**step)
                sh = s[i] / (1 - 0.999**step)
                p.data -= 0.02 * mh / (np.sqrt(sh) + 1e-8)
        fit_p = prior.prob(v, alpha).data[0]
        fit_nll = -np.sum(counts * np.log2(np.maximum(fit_p, D.LIKELIHOOD_FLOOR))) / counts.sum()
        assert fit_nll < true_nll + 0.05


class TestRateBits:
    def test_single_element_half_probability_is_one_bit(self):
        # solve for the scale that puts exactly probability 0.5 on the bin
        sigma = brentq(lambda s: (2 * phi(0.5 / s) - 1) - 0.5, 0.1, 5.0)
        params = MixtureParams(
            Tensor(np.ones((1, 1, 1, 1, 1))),
            Tensor(np.zeros((1, 1, 1, 1, 1))),
            Tensor(np.full((1, 1, 1, 1, 1), sigma)),
        )
        bits = D.rate_bits(params, Tensor(np.zeros((1, 1, 1, 1))), WIDE)
        assert abs(bits.item() - 1.0) < 1e-9

    def test_matches_manual_recomputation(self):
        params, _ = make_params(k=3, h=4, w=4)
        v = Tensor(np.round(RNG.normal(size=(1, 1, 4, 4)) * 2))
        bits = D.rate_bits(params, v, WIDE).item()
        manual = -np.log2(D.mixture_prob(params, v, WIDE).data).sum()
        assert abs(bits - manual) < 1e-10

    def test_prior_rate_matches_manual(self):
        prior = FactorizedPrior.init(channels=2, rng=np.random.default_rng(9))
        v = Tensor(np.round(RNG.normal(size=(1, 2, 3, 3)) * 2))
        bits = D.rate_bits(prior, v, None).item()
        flat = v.data.transpose(1, 0, 2, 3).reshape(2, -1)
        manual = -np.log2(prior.prob(Tensor(flat)).data).sum()
        assert abs(bits - manual) < 1e-10

    def test_underflow_floored_and_counted(self):
        params = MixtureParams(
            Tensor(np.ones((1, 1, 1, 1, 1))),
            Tensor(np.full((1, 1, 1, 1, 1), 50.0)),
            Tensor(np.full((1, 1, 1, 1, 1), 1e-6)),
        )
        hits = []
        bits = D.rate_bits(params, Tensor(np.full((1, 1, 1, 1), -50.0)), Alphabet(-51, 51), floor_hits=hits)
        assert np.isfinite(bits.item())
        assert bits.item() == pytest.approx(64.0)
        assert hits == [1]
        assert D.rate_bits(params, Tensor(np.full((1, 1, 1, 1), -50.0)), Alphabet(-51, 51)).item() == bits.item()


class TestGradients:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alphabet", [Alphabet(-3, 3), None])
    def test_mixture_prob_is_one_op_with_the_op_chains_gradients(self, alphabet, dtype):
        # the chain folds an edge with a sign of 0 and the op with t at -inf or +inf: the bytes agree in both dtypes;
        # float32 gradients came within 2.0e-7 of the largest one
        rng = np.random.default_rng(41)
        shape = (2, 3, 2, 4, 5)
        logits = rng.normal(size=shape)
        arrays = [np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True), rng.normal(size=shape) * 2,
                  np.exp(rng.normal(size=shape))]
        values = rng.integers(-3, 4, size=(2, 2, 4, 5)).astype(np.float64)  # every symbol, the folded edges too
        arrays.append(values if alphabet else values + rng.uniform(-0.5, 0.5, size=values.shape))
        arrays = [a.astype(dtype) for a in arrays]
        upstream = Tensor(rng.normal(size=values.shape).astype(dtype))
        grads = {}
        for name, prob in [("op", D.mixture_prob), ("chain", None)]:
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            leaves[3].requires_grad = alphabet is None
            with GradTape() as tape:
                if prob is None:
                    bounds = (alphabet.lo, alphabet.hi) if alphabet else (None, None)
                    p = op_chain_mixture_prob(*leaves, *bounds)
                else:
                    p = prob(MixtureParams(*leaves[:3]), leaves[3], alphabet)
                    assert len(tape._records) == 1
                T.backward(T.reduce_sum(p * upstream))
            grads[name] = (p.data, [t.grad for t in leaves])
        (p_op, op), (p_chain, chain) = grads["op"], grads["chain"]
        assert p_op.dtype == dtype and p_op.tobytes() == p_chain.tobytes()
        assert (op[3] is None) == (alphabet is not None)
        bound = 1e-6 if dtype == np.float32 else 1e-12
        for got, want in zip(op, chain):
            if want is not None:
                assert got.dtype == dtype
                assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alphabet", [Alphabet(0, 9), None])
    @pytest.mark.parametrize("per_chunk", [2, None], ids=["chunk2", "default"])
    def test_mixture_prob_gradients_equal_the_whole_batch_formulas_bit_for_bit(self, per_chunk, alphabet, dtype,
                                                                             monkeypatch):
        # backward computes t again and walks the batch in sample chunks; chunks of 2 put a boundary inside the
        # batch of 5, and the values hit both folded edges
        rng = np.random.default_rng(23)
        shape = (5, 3, 2, 3, 4)
        logits = rng.normal(size=shape)
        w = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        mu, sigma = rng.uniform(-1.0, 10.0, size=shape), rng.uniform(0.3, 3.0, size=shape)
        v = rng.integers(0, 10, size=(5, 2, 3, 4)).astype(np.float64)
        v[0, 0, 0, :2], v[3, 1, 2, 2:] = (0.0, 9.0), (9.0, 0.0)
        if alphabet is None:
            v += rng.uniform(-0.5, 0.5, size=v.shape)
        g = rng.normal(size=v.shape)
        w, mu, sigma, v, g = (a.astype(dtype) for a in (w, mu, sigma, v, g))
        chunked = []
        if per_chunk is not None:
            monkeypatch.setattr(T, "_sample_chunks", lambda n, _: chunked.append(n) or
                                [slice(s, min(n, s + per_chunk)) for s in range(0, n, per_chunk)])
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (w, mu, sigma, v)]
        with GradTape():
            T.backward(T.reduce_sum(D.mixture_prob(MixtureParams(*leaves[:3]), leaves[3], alphabet) * Tensor(g)))
        assert chunked == ([] if per_chunk is None else [5])
        bounds = (alphabet.lo, alphabet.hi) if alphabet else (None, None)
        for name, leaf, want in zip(("dw", "dmu", "dsigma", "dv"), leaves,
                                    whole_batch_mixture_prob_grads(w, mu, sigma, v, g, *bounds)):
            assert leaf.grad.dtype == want.dtype == dtype, name
            assert leaf.grad.tobytes() == want.tobytes(), name

    def test_mixture_prob_gradients(self):
        self.check_mixture_prob_gradients(WIDE, RNG)

    def test_mixture_prob_gradients_of_noisy_values(self):
        # without an alphabet the values are noisy latents and take a gradient too
        self.check_mixture_prob_gradients(None, np.random.default_rng(31))

    @staticmethod
    def check_mixture_prob_gradients(alphabet, rng):
        from oracles import central_difference_grad

        raws = [rng.normal(size=(1, 2, 1, 2, 2)), rng.normal(size=(1, 2, 1, 2, 2)) * 2, rng.normal(size=(1, 2, 1, 2, 2))]
        v = np.round(rng.normal(size=(1, 1, 2, 2)) * 2)
        if alphabet is None:
            v += rng.uniform(-0.5, 0.5, size=v.shape)
        arrays = raws + [v]
        weights = rng.normal(size=(1, 1, 2, 2))

        def build(logits, raw_mu, raw_s):
            return MixtureParams(
                weights=T.softmax(logits, axis=1),
                means=raw_mu,
                scales=T.softplus(raw_s) + D.SIGMA_MIN,
            )

        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        tensors[3].requires_grad = alphabet is None
        with GradTape():
            p = D.mixture_prob(build(*tensors[:3]), tensors[3], alphabet)
            T.backward(T.reduce_sum(p * Tensor(weights)))

        for i in range(4 if alphabet is None else 3):

            def scalar(x, i=i):
                args = [Tensor(a) for a in arrays]
                args[i] = Tensor(x)
                return float((D.mixture_prob(build(*args[:3]), args[3], alphabet).data * weights).sum())

            fd = central_difference_grad(scalar, arrays[i].copy())
            assert rel_err(tensors[i].grad, fd, floor=1e-6) < 1e-4

    def test_factorized_prior_gradients(self):
        from oracles import central_difference_grad

        prior = FactorizedPrior.init(channels=1, rng=np.random.default_rng(2))
        names = list(prior.tensors)
        v = np.round(RNG.normal(size=(1, 6)) * 3)
        mix = RNG.normal(size=(1, 6))

        params = prior.tensors
        with GradTape():
            p = prior.prob(Tensor(v), WIDE)
            T.backward(T.reduce_sum(p * Tensor(mix)))
        analytic = {n: params[n].grad.copy() for n in names}

        for name in names:
            base = params[name].data.copy()

            def scalar(x, name=name):
                params[name].data = x
                out = float((prior.prob(Tensor(v), WIDE).data * mix).sum())
                return out

            fd = central_difference_grad(scalar, base.copy())
            params[name].data = base
            assert rel_err(analytic[name], fd, floor=1e-6) < 1e-4, name
