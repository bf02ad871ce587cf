"""Tensor engine: op semantics, naive-loop conv oracle, and gradient checks."""

import re
import tracemalloc
import warnings
import weakref

import mpmath
import numpy as np
import pytest

import lhgm.tensor as T
from lhgm.tensor import GradTape, Tensor

from oracles import (
    batched_correlation,
    batched_im2col,
    batched_upsampler,
    central_difference_grad,
    mask_a,
    naive_conv2d,
    naive_conv2d_transposed,
    phi,
    rel_err,
)

RNG = np.random.default_rng(20240811)


def zero_bias(channels):
    return Tensor(np.zeros(channels))


def grad_of(fn, *arrays, h=1e-5):
    """Analytic grads of sum(fn(xs) * R) for each input, plus the FD grads."""
    weights = None
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with GradTape():
        out = fn(*tensors)
        if weights is None:
            weights = RNG.normal(size=out.shape)
        loss = T.reduce_sum(out * Tensor(weights))
        T.backward(loss)
    analytic = [t.grad for t in tensors]

    fds = []
    for i in range(len(arrays)):

        def scalar(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            return float(np.sum(fn(*args).data * weights))

        fds.append(central_difference_grad(scalar, arrays[i].copy(), h=h))
    return analytic, fds


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(RNG.normal(size=(1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, k, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_sums_to_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 3, 3)  # same padding: the centre sees all nine taps, a corner four
        assert out.data[0, 0, 1, 1] == 9.0 and out.data[0, 0, 0, 0] == 4.0

    # the oracle's padding pad is the same padding of a side 2 * pad + 1 kernel: 1x1 at 0, 3x3 at 1
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_loop(self, stride, pad):
        x = RNG.normal(size=(1, 2, 5, 5))
        k = RNG.normal(size=(3, 2, 2 * pad + 1, 2 * pad + 1))
        b = RNG.normal(size=3)
        out = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride)
        ref = naive_conv2d(x, k, b, stride, pad)
        assert rel_err(out.data, ref) < 1e-12

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), zero_bias(1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))), zero_bias(1))

    def test_non_square_kernel_rejected(self):
        with pytest.raises(ValueError, match="square"):
            T.conv2d(Tensor(np.zeros((1, 1, 6, 6))), Tensor(np.zeros((1, 1, 3, 5))), zero_bias(1))

    def test_stride_below_one_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), zero_bias(1), stride=0)


class TestConvTransposed:
    def test_identity(self):
        """The upsampler's identity: a 2x2 kernel with one unit tap puts x on the even grid and zeros between."""
        x = Tensor(RNG.normal(size=(1, 1, 4, 4)))
        k = np.zeros((1, 1, 2, 2))
        k[0, 0, 0, 0] = 1.0
        out = T.conv2d_transposed(x, Tensor(k), zero_bias(1))
        expected = np.zeros((1, 1, 8, 8))
        expected[:, :, ::2, ::2] = x.data
        np.testing.assert_array_equal(out.data, expected)

    def test_block_replication_upsampling(self):
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        k = np.ones((1, 1, 2, 2))
        out = T.conv2d_transposed(Tensor(x), Tensor(k), zero_bias(1))
        expected = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
        np.testing.assert_array_equal(out.data, expected)

    # (stride, pad) are the oracle's: the engine's one upsampler runs a side-k kernel at stride 2, padding k // 2 - 1
    @pytest.mark.parametrize("stride,pad,k", [(2, 0, 2), (2, 1, 4), (2, 2, 6)])
    def test_matches_naive_scatter(self, stride, pad, k):
        x = RNG.normal(size=(2, 2, 3, 3))
        kern = RNG.normal(size=(2, 3, k, k))
        b = RNG.normal(size=3)
        out = T.conv2d_transposed(Tensor(x), Tensor(kern), Tensor(b))
        ref = naive_conv2d_transposed(x, kern, b, stride, pad)
        assert out.shape == (2, 3, 6, 6)
        assert rel_err(out.data, ref) < 1e-12

    def test_odd_kernel_rejected(self):
        with pytest.raises(ValueError, match="even"):
            T.conv2d_transposed(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), zero_bias(1))

    def test_down_up_restores_spatial_dims(self):
        x = Tensor(RNG.normal(size=(1, 4, 8, 8)))
        k_down = Tensor(RNG.normal(size=(6, 4, 3, 3)))
        k_up = Tensor(RNG.normal(size=(6, 4, 4, 4)))
        down = T.conv2d(x, k_down, zero_bias(6), stride=2)
        up = T.conv2d_transposed(down, k_up, zero_bias(4))
        assert up.shape[2:] == x.shape[2:]


class TestMaskedConv:
    def test_mask_a_zero_pattern(self):
        expected = {
            1: [[0]],
            3: [[1, 1, 1], [1, 0, 0], [0, 0, 0]],
            5: [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        }
        for k, rows in expected.items():
            np.testing.assert_array_equal(mask_a(k), np.array(rows, dtype=float))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.masked_conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))), zero_bias(1))

    def test_causality_current_position_ignored(self):
        x = RNG.normal(size=(1, 2, 6, 6))
        k = Tensor(RNG.normal(size=(3, 2, 5, 5)))
        base = T.masked_conv2d(Tensor(x), k, zero_bias(3)).data
        xp = x.copy()
        xp[0, :, 3, 4] += 10.0
        bumped = T.masked_conv2d(Tensor(xp), k, zero_bias(3)).data
        np.testing.assert_array_equal(base[0, :, 3, 4], bumped[0, :, 3, 4])
        # nothing before (3,4) in raster order may move either
        np.testing.assert_array_equal(base[0, :, :3, :], bumped[0, :, :3, :])
        np.testing.assert_array_equal(base[0, :, 3, :4], bumped[0, :, 3, :4])

    def test_no_output_up_to_p_reads_an_input_from_p_on(self):
        # a masked tap is never multiplied, so even a nan or an inf at or
        # after p leaves every output up to p finite and exact
        x = RNG.normal(size=(1, 2, 6, 6))
        k = Tensor(RNG.normal(size=(3, 2, 5, 5)))
        clean = T.masked_conv2d(Tensor(x), k, zero_bias(3)).data.reshape(3, 36)
        for p in range(36):
            for bad in (np.nan, np.inf):
                xp = x.reshape(2, 36).copy()
                xp[:, p:] = bad
                with np.errstate(invalid="ignore"):  # the outputs after p may meet inf - inf
                    out = T.masked_conv2d(Tensor(xp.reshape(x.shape)), k, zero_bias(3)).data.reshape(3, 36)
                assert np.isfinite(out[:, : p + 1]).all()
                np.testing.assert_array_equal(out[:, : p + 1], clean[:, : p + 1])

    def test_one_by_one_mask_has_no_tap(self):
        # k = 1: the centre is the only tap and it is masked, so the output is the bias
        x, k, b = RNG.normal(size=(1, 2, 3, 4)), RNG.normal(size=(3, 2, 1, 1)), RNG.normal(size=3)
        out, dx, dk, db = engine_grads(T.masked_conv2d, x, k, b, np.ones((1, 3, 3, 4)))
        np.testing.assert_array_equal(out, np.broadcast_to(b.reshape(1, 3, 1, 1), out.shape))
        np.testing.assert_array_equal(dx, np.zeros_like(x))
        np.testing.assert_array_equal(dk, np.zeros_like(k))
        np.testing.assert_array_equal(db, np.full(3, 12.0))

    def test_perturbation_reaches_raster_successors(self):
        x = RNG.normal(size=(1, 1, 6, 6))
        k = Tensor(RNG.normal(size=(1, 1, 3, 3)))
        base = T.masked_conv2d(Tensor(x), k, zero_bias(1)).data
        xp = x.copy()
        xp[0, 0, 2, 2] += 1.0
        bumped = T.masked_conv2d(Tensor(xp), k, zero_bias(1)).data
        # finite-difference probe: the immediate raster successor inside the
        # receptive field must move (kernel entry (1,0)-relative is live)
        assert abs(bumped[0, 0, 2, 3] - base[0, 0, 2, 3]) > 1e-12
        assert abs(bumped[0, 0, 3, 2] - base[0, 0, 3, 2]) > 1e-12


class TestElementwise:
    def test_softmax_uniform(self):
        out = T.softmax(Tensor(np.zeros(3)), axis=0)
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_leaky_relu_negative(self):
        out = T.leaky_relu(Tensor(np.array(-2.0)), slope=0.01)
        assert out.item() == pytest.approx(-0.02, abs=1e-15)

    @pytest.mark.parametrize("slope", [0.01, 1.5, -0.5])
    def test_leaky_relu_takes_any_finite_slope(self, slope):
        x = Tensor(np.array([-2.0, -0.0, 0.0, 3.0]), requires_grad=True)
        with GradTape():
            out = T.leaky_relu(x, slope)
            T.backward(T.reduce_sum(out * Tensor(np.array([1.0, 2.0, 3.0, 4.0]))))
        assert out.data.tolist() == [-2.0 * slope, -0.0 * slope, 0.0 * slope, 3.0]
        assert x.grad.tolist() == [slope, 2.0 * slope, 3.0 * slope, 4.0]

    def test_reduce_sum_ones(self):
        assert T.reduce_sum(Tensor(np.ones((2, 3)))).item() == 6.0

    def test_div_by_zero_propagates_inf(self):
        out = T.div(Tensor(np.array([1.0, -1.0])), Tensor(np.array([0.0, 0.0])))
        assert np.isinf(out.data).all()

    def test_log_of_zero_is_minus_inf(self):
        out = T.log(Tensor(np.array([1.0, 0.0])))
        assert out.data[1] == -np.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_scalar_broadcast_allowed(self):
        out = T.mul(Tensor(np.ones((2, 2))), 3.0)
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))

    def test_scalar_that_needs_a_gradient_rejected(self):
        # a 0-d operand against an array is a constant; one that needs a gradient goes through broadcast_to
        with GradTape(), pytest.raises(ValueError, match="mul"):
            T.mul(Tensor(np.array(2.0), requires_grad=True), Tensor(np.ones((2, 2))))


BINARY_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}
CONSTANTS = {"float": lambda: 2.5, "float64": lambda: np.float64(-1.5), "0d_tensor": lambda: Tensor(np.array(0.75))}


class TestBinaryContract:
    """The rules add, sub, mul and div share: constants, the shape rule, and who gets a gradient."""

    @pytest.mark.parametrize("op", BINARY_OPS)
    @pytest.mark.parametrize("kind", CONSTANTS)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_scalar_operand_is_a_constant(self, op, kind, side):
        def run(other):
            x = Tensor(np.array([[0.5, -2.0, 3.0], [1.25, -0.75, 4.0]]), requires_grad=True)
            with GradTape():
                out = getattr(T, op)(*((other, x) if side == "left" else (x, other)))
                T.backward(T.reduce_sum(out * Tensor(np.arange(1.0, 7.0).reshape(2, 3))))
            return out, x

        constant = CONSTANTS[kind]()
        value = constant.data if isinstance(constant, Tensor) else constant
        out, x = run(constant)
        np.testing.assert_array_equal(out.data, BINARY_OPS[op](*((value, x.data) if side == "left" else (x.data, value))))
        # the tensor operand gets the gradient a same-shape constant gives it; the constant gets none
        np.testing.assert_array_equal(x.grad, run(Tensor(np.full(x.shape, value)))[1].grad)
        if isinstance(constant, Tensor):
            assert constant.grad is None

    @pytest.mark.parametrize("op", BINARY_OPS)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_zero_d_operand_that_needs_a_gradient_rejected(self, op, side):
        scalar, array = Tensor(np.array(2.0), requires_grad=True), Tensor(np.ones((2, 2)))
        args = (scalar, array) if side == "left" else (array, scalar)
        with GradTape(), pytest.raises(ValueError, match=f"^{op}: shape mismatch"):
            getattr(T, op)(*args)

    @pytest.mark.parametrize("op", BINARY_OPS)
    @pytest.mark.parametrize("shapes", [((3,), (4,)), ((2, 3), (3,)), ((1, 3), (2, 3))])
    def test_shape_mismatch_rejected_by_name(self, op, shapes):
        with pytest.raises(ValueError, match=f"^{op}: shape mismatch {re.escape(str(shapes[0]))}"):
            getattr(T, op)(Tensor(np.ones(shapes[0])), Tensor(np.ones(shapes[1])))


class TestStdNormalCdf:
    def test_phi_zero(self):
        assert T.std_normal_cdf(Tensor(np.array(0.0))).item() == 0.5

    def test_phi_half_matches_high_precision_oracle(self):
        expected = phi(0.5)  # 0.6914624612740...
        got = T.std_normal_cdf(Tensor(np.array(0.5))).item()
        assert abs(got - expected) < 1e-14

    def test_symmetry(self):
        x = RNG.normal(size=100) * 3
        p = T.std_normal_cdf(Tensor(x)).data + T.std_normal_cdf(Tensor(-x)).data
        np.testing.assert_allclose(p, 1.0, atol=1e-14)

    def test_accuracy_over_range(self):
        xs = np.linspace(-8, 8, 41)
        got = T.std_normal_cdf(Tensor(xs)).data
        expected = np.array([phi(v) for v in xs])
        assert np.max(np.abs(got - expected)) < 1e-12
        # monotone saturation outside the accurate range
        wide = T.std_normal_cdf(Tensor(np.array([-40.0, -9.0, 9.0, 40.0]))).data
        assert wide[0] <= wide[1] <= wide[2] <= wide[3]


F32_TINY = float(np.finfo(np.float32).tiny)  # 1.2e-38, the smallest normal float32


def phi32(x) -> np.ndarray:
    return T.std_normal_cdf(Tensor(np.asarray(x, dtype=np.float32))).data


class TestStdNormalCdfFloat32:
    """float32 Phi is the engine's own kernel (Cephes ndtrf) and never leaves float32; float64 Phi is scipy's."""

    # float64 Phi at 50 digits on [-14, 14] and the far lower tail, where Phi leaves the float32 normal range
    # near x = -13.2 and float32 reaches 0 near x = -14.1
    GRID = np.concatenate([np.linspace(-14.0, 14.0, 2801),
                           [-13.1, -13.15, -13.2, -13.25, -13.4, -13.6, -13.8, -13.95, -14.05]]).astype(np.float32)

    def test_matches_high_precision_oracle(self):
        got = phi32(self.GRID).astype(np.float64)
        want = np.array([phi(float(v)) for v in self.GRID])
        normal = want >= F32_TINY
        rel = np.abs(got[normal] - want[normal]) / want[normal]
        # measured: 4.0e-6 at x = -11.7, where exp(-x^2 / 2) amplifies the rounding of x^2; 4.9e-7 for |x| <= 4,
        # at the switch from the erf polynomial to the tail near |x| = sqrt 2
        assert rel.max() < 5e-6
        assert rel[np.abs(self.GRID[normal]) <= 4.0].max() < 1e-6
        # below the normal range exp(-x^2 / 2) is subnormal: measured absolute error 4.3e-44, 31 subnormal units
        assert (~normal).sum() > 50
        assert np.abs(got[~normal] - want[~normal]).max() < 1e-43

    def test_zeros_infinities_and_nan_without_a_warning(self):
        x = np.array([0.0, -0.0, -np.inf, np.inf, np.nan, -3e38, 3e38, -1e20, 1e20], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phi32(x)
        np.testing.assert_array_equal(got, [0.5, 0.5, 0.0, 1.0, np.nan, 0.0, 1.0, 0.0, 1.0])

    def test_symmetric_within_two_ulp(self):
        x = np.concatenate([RNG.normal(size=2000) * 4, self.GRID]).astype(np.float32)
        total = phi32(x).astype(np.float64) + phi32(-x).astype(np.float64)
        assert np.abs(total - 1.0).max() <= 2 * np.spacing(np.float32(1.0))

    def test_non_decreasing_on_a_dense_grid(self):
        # steps of 2.7e-5 in x: the erf polynomial and the tail meet near |x| = sqrt 2 within about 4 ulp of
        # Phi, which a grid of adjacent float32 values there would see, and any step above 1e-6 in x does not
        x = np.linspace(-14.0, 14.0, 1 << 20, dtype=np.float32)
        assert np.all(np.diff(phi32(x)) >= 0.0)

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (2, 3, 4)])
    def test_output_is_float32_of_the_input_shape(self, shape):
        x = RNG.normal(size=shape) * 5
        got = phi32(x)
        assert got.dtype == np.float32 and got.shape == shape

    def test_float64_is_scipys_ndtr_bit_for_bit(self):
        from scipy.special import ndtr

        x = np.concatenate([np.random.default_rng(25).normal(size=5000) * 10, [-40.0, -38.5, -9.0, 8.5, 40.0]])
        np.testing.assert_array_equal(T.std_normal_cdf(Tensor(x)).data, ndtr(x))


def ulps_apart(a: float, b: float) -> int:
    """Distance in units in the last place between two non-negative finite floats."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


class TestSoftplus:
    @pytest.mark.parametrize("x", [-745.0, -40.0, -1e-3, 0.0, 1e-3, 40.0, 710.0, 1e5])
    def test_within_two_ulp_of_high_precision_oracle(self, x):
        want = float(mpmath.log1p(mpmath.exp(mpmath.mpf(x))))
        got = T.softplus(Tensor(np.array(x))).item()
        assert ulps_apart(got, want) <= 2, (got, want)

    def test_infinities_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T.softplus(Tensor(np.array([-np.inf, np.inf]))).data
        assert got[0] == 0.0 and got[1] == np.inf


class TestOneBufferForwards:
    """softplus and softmax compute in one buffer, with the bits of their whole-expression forms."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_and_softmax_keep_their_bits(self, dtype):
        x = np.concatenate([RNG.normal(size=200) * 30, [-np.inf, -745.0, -0.0, 0.0, 1e-30, 88.0, 710.0, np.inf]])
        x = x.astype(dtype)
        want = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        assert same_bits(T.softplus(Tensor(x)).data, want)
        logits = (RNG.normal(size=(4, 5, 6)) * 20).astype(dtype)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert same_bits(T.softmax(Tensor(logits), axis=1).data, e / e.sum(axis=1, keepdims=True))

    def test_softplus_prepares_its_derivative_only_for_a_tape(self, monkeypatch):
        # the codec runs softplus with no tape: it pays for the forward alone
        calls = []
        real = T._sigmoid_np
        monkeypatch.setattr(T, "_sigmoid_np", lambda x: calls.append(x.shape) or real(x))
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        T.softplus(x)
        with GradTape():
            T.softplus(Tensor(x.data))
        assert calls == []
        with GradTape():
            T.backward(T.reduce_sum(T.softplus(x)))
        assert calls == [(3, 4)]
        np.testing.assert_array_equal(x.grad, 0.5 * (np.tanh(0.5 * x.data) + 1.0))


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with GradTape():
            loss = T.reduce_sum(x * x)
            T.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_constant_receives_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        with GradTape():
            loss = T.reduce_sum(x * c)
            T.backward(loss)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape():
            out = x * 2.0
            with pytest.raises(ValueError, match="scalar"):
                T.backward(out)

    def test_backward_without_tape_rejected(self):
        with pytest.raises(RuntimeError, match="GradTape"):
            T.backward(Tensor(np.array(1.0)))

    def test_nested_tape_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with GradTape():
            with pytest.raises(RuntimeError, match="already active"):
                with GradTape():
                    pass
            T.backward(T.reduce_sum(x * x))
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)
        with GradTape():
            assert (x * x).requires_grad

    def test_tape_cleared_after_backward(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with GradTape() as tape:
            loss = T.reduce_sum(x * x)
            T.backward(loss)
            assert tape._records == []

    def test_tape_cleared_when_a_closure_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)

        def failing_bwd(g):
            raise FloatingPointError("closure failed")

        with GradTape() as tape:
            y = x * 2.0
            tape.record(y, failing_bwd)
            loss = T.reduce_sum(y * y)
            with pytest.raises(FloatingPointError, match="closure failed"):
                T.backward(loss)
            assert tape._records == []

    def test_tape_cleared_on_exit_without_backward(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError, match="forward failed"):
            with GradTape() as tape:
                T.reduce_sum(T.tanh(x * x))
                assert len(tape._records) == 3
                raise RuntimeError("forward failed")
        assert tape._records == []

    def test_backward_releases_each_record_after_its_closure(self):
        # 16 tanh ops on 2**17 float64 (1 MiB per array): holding the whole
        # tape and every gradient until the end peaks near 18 MiB above the
        # forward; releasing each record after its closure keeps the peak
        # to the few arrays in flight
        mib = 2**20
        x = Tensor(RNG.normal(size=2**17), requires_grad=True)
        tracemalloc.start()
        try:
            with GradTape():
                h = x
                for _ in range(16):
                    h = T.tanh(h)
                loss = T.reduce_sum(h)
                del h
                held, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                T.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert peak - held <= 4 * mib, f"backward peaked {(peak - held) / mib:.1f} MiB above the forward"

    @pytest.mark.parametrize("op", ["conv2d", "masked_conv2d"])
    def test_a_convolution_keeps_its_input_not_its_columns(self, op):
        # a 3x3 kernel's columns are nine times its input; backward gathers them again from the input
        x = Tensor(RNG.normal(size=(2, 8, 32, 32)), requires_grad=True)
        k, b = Tensor(RNG.normal(size=(8, 8, 3, 3)), requires_grad=True), Tensor(np.zeros(8), requires_grad=True)
        tracemalloc.start()
        try:
            with GradTape():
                base = tracemalloc.get_traced_memory()[0]
                out = getattr(T, op)(x, k, b)
                held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 2 * out.data.nbytes, f"{op} held {held / out.data.nbytes:.1f}x its output"

    def test_a_1x1_convolution_makes_its_input_gradient_once(self):
        # gs5's shape: batch 8, 32 px, 32 channels in float32, a 1 MiB input gradient; the product k2.T @ g is
        # written straight into it, where a product copied in would peak near twice that
        x = Tensor(RNG.normal(size=(8, 32, 32, 32)).astype(np.float32), requires_grad=True)
        k = Tensor(RNG.normal(size=(27, 32, 1, 1)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(27, np.float32), requires_grad=True)
        peaks = []
        record = GradTape.record

        def probed_record(tape, out, fn):
            def probed(g):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fn(g)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

            record(tape, out, probed)

        tracemalloc.start()
        try:
            with GradTape():
                GradTape.record = probed_record
                out = T.conv2d(x, k, b)
                GradTape.record = record
                T.backward(T.reduce_sum(out))
        finally:
            GradTape.record = record
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 1.5 * x.grad.nbytes, peaks

    # consumer of conv2d's output c, whether its backward keeps c, and dL/dc from the upstream g
    CONSUMERS = {
        "leaky_relu": (lambda x, c: T.leaky_relu(c, 0.2), False, lambda c, g: np.where(c > 0.0, g, g * 0.2)),
        "residual_add": (lambda x, c: x + c, False, lambda c, g: g),
        "softplus": (lambda x, c: T.softplus(c), False, lambda c, g: g * (0.5 * (np.tanh(0.5 * c) + 1.0))),
    }

    @pytest.mark.parametrize("consumer", CONSUMERS)
    def test_an_activation_no_backward_reads_is_freed_during_the_forward(self, consumer):
        # leaky_relu's backward reads a mask, add's only shapes and softplus's sigmoid(c), so conv2d's output
        # goes as soon as the caller drops it
        apply, read, upstream = self.CONSUMERS[consumer]
        x, k, b = RNG.normal(size=(2, 4, 6, 6)), RNG.normal(size=(4, 4, 3, 3)), RNG.normal(size=4)
        g = RNG.normal(size=(2, 4, 6, 6))
        xs, ks, bs = (Tensor(a.copy(), requires_grad=True) for a in (x, k, b))
        with GradTape():
            c = T.conv2d(xs, ks, bs)
            owner = c.data
            while owner.base is not None:
                owner = owner.base
            c_array = weakref.ref(owner)
            del owner
            out = apply(xs, c)
            del c
            assert (c_array() is not None) == read
            T.backward(T.reduce_sum(out * Tensor(g)))
        # the gradients are those of conv2d under dL/dc formed by hand, and the residual's x adds g once more
        c = T.conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        _, dx, dk, db = engine_grads(T.conv2d, x, k, b, upstream(c, g))
        np.testing.assert_array_equal(xs.grad, g + dx if consumer == "residual_add" else dx)
        np.testing.assert_array_equal(ks.grad, dk)
        np.testing.assert_array_equal(bs.grad, db)

    def test_reuse_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with GradTape():
            y = x * 2.0
            loss = T.reduce_sum(y * y) + T.reduce_sum(y)
            T.backward(loss)
        np.testing.assert_allclose(x.grad, 8 * x.data + 2.0, atol=1e-12)

    def test_first_gradient_is_owned_not_a_view(self):
        # x is used directly before it is reshaped, so the reshape's backward
        # runs first and hands x a view of r.grad; the direct use then adds
        # into x.grad, which must not write through into r.grad
        data = RNG.normal(size=(2, 3))
        x = Tensor(data.copy(), requires_grad=True)
        with GradTape():
            direct = T.reduce_sum(x * x)
            r = T.reshape(x, (3, 2))
            loss = direct + T.reduce_sum(r * r)
            T.backward(loss)
        np.testing.assert_array_equal(r.grad, 2.0 * data.reshape(3, 2))
        np.testing.assert_array_equal(x.grad, 4.0 * data)
        assert not np.shares_memory(x.grad, r.grad)

    def test_views_passed_to_grad_become_writable_copies(self):
        # reduce_sum's backward passes a read-only broadcast of its output
        # gradient; the later sum runs backward first, so x gets it first
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        with GradTape():
            T.backward(T.reduce_sum(x * 2.0) + T.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 3.0))
        assert x.grad.flags.writeable and x.grad.flags.c_contiguous

    def test_take_keeps_a_fresh_array_and_copies_anything_else(self):
        fresh = RNG.normal(size=(3, 4))
        slot = T._GradSlot(np.dtype(np.float64))
        slot.take(fresh)
        assert slot.grad is fresh
        slot.take(fresh[::-1].copy())  # later gradients add in place
        assert slot.grad is fresh
        views = {"slice": fresh[:, 1:], "broadcast": np.broadcast_to(fresh[:1], (3, 4)), "transpose": fresh.T,
                 "reshape": fresh.reshape(4, 3), "other_dtype": fresh.astype(np.float32), "scalar": fresh.sum()}
        for name, first in views.items():
            slot = T._GradSlot(np.dtype(np.float64))
            slot.take(first)
            assert not np.shares_memory(slot.grad, fresh), name
            assert slot.grad.flags.writeable and slot.grad.flags.c_contiguous, name
            np.testing.assert_array_equal(slot.grad, np.asarray(first, dtype=np.float64), err_msg=name)

    def test_broadcast_to_keeps_rank(self):
        with pytest.raises(ValueError, match=r"broadcast_to: \(4,\) to \(3, 4\) changes rank"):
            T.broadcast_to(Tensor(np.ones(4)), (3, 4))

    def test_narrow_and_broadcast_to_return_views(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        assert np.shares_memory(T.narrow(x, 1, 1, 2).data, x.data)
        b = T.broadcast_to(T.reshape(x, (3, 1, 4)), (3, 5, 4))
        assert np.shares_memory(b.data, x.data) and not b.data.flags.writeable


def _away_from_kinks(x, kinks, margin=1e-3):
    for k in kinks:
        x = np.where(np.abs(x - k) < margin, x + 2 * margin, x)
    return x


UNARY_CASES = [
    ("log", lambda x: T.log(x), lambda s: RNG.uniform(0.2, 3.0, size=s), ()),
    ("clamp", lambda x: T.clamp(x, -1.0), lambda s: RNG.normal(size=s) * 2, (-1.0,)),
    ("leaky_relu", lambda x: T.leaky_relu(x, 0.1), lambda s: RNG.normal(size=s), (0.0,)),
    ("softplus", lambda x: T.softplus(x), lambda s: RNG.normal(size=s) * 3, ()),
    ("tanh", lambda x: T.tanh(x), lambda s: RNG.normal(size=s), ()),
    ("sigmoid", lambda x: T.sigmoid(x), lambda s: RNG.normal(size=s), ()),
    ("softmax", lambda x: T.softmax(x, axis=1), lambda s: RNG.normal(size=s), ()),
    ("reduce_sum_axis", lambda x: T.reduce_sum(x, axis=1), lambda s: RNG.normal(size=s), ()),
    ("std_normal_cdf", lambda x: T.std_normal_cdf(x), lambda s: RNG.normal(size=s) * 2, ()),
    ("reshape", lambda x: T.reshape(x, (2, 6)), lambda s: RNG.normal(size=s), ()),
    ("permute", lambda x: T.permute(x, (2, 0, 1)), lambda s: RNG.normal(size=s), ()),
    ("narrow", lambda x: T.narrow(x, 1, 1, 2), lambda s: RNG.normal(size=s), ()),
    ("broadcast", lambda x: T.broadcast_to(T.reshape(x, (3, 1, 4)), (3, 5, 4)), lambda s: RNG.normal(size=s), ()),
]


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("name,fn,sampler,kinks", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
    def test_unary(self, name, fn, sampler, kinks):
        x = _away_from_kinks(sampler((3, 4)), kinks)
        if name == "permute":
            x = _away_from_kinks(sampler((3, 4, 2)), kinks)
        analytic, fd = grad_of(fn, x)
        assert rel_err(analytic[0], fd[0], floor=1e-6) < 1e-4

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    def test_binary(self, op):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(2, 3)) + np.where(RNG.normal(size=(2, 3)) > 0, 2.0, -2.0)
        analytic, fd = grad_of(lambda x, y: op(x, y), a, b)
        assert rel_err(analytic[0], fd[0], floor=1e-6) < 1e-4
        assert rel_err(analytic[1], fd[1], floor=1e-6) < 1e-4

    def test_concat(self):
        a = RNG.normal(size=(2, 2))
        b = RNG.normal(size=(2, 3))
        analytic, fd = grad_of(lambda x, y: T.concat([x, y], axis=1), a, b)
        assert rel_err(analytic[0], fd[0], floor=1e-6) < 1e-4
        assert rel_err(analytic[1], fd[1], floor=1e-6) < 1e-4

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])  # a side 2 * pad + 1 kernel, as test_matches_naive_loop
    def test_conv2d_grads(self, stride, pad):
        x = RNG.normal(size=(2, 2, 5, 5))
        k = RNG.normal(size=(3, 2, 2 * pad + 1, 2 * pad + 1))
        b = RNG.normal(size=3)
        analytic, fd = grad_of(lambda xx, kk, bb: T.conv2d(xx, kk, bb, stride=stride), x, k, b)
        for got, want in zip(analytic, fd):
            assert rel_err(got, want, floor=1e-6) < 1e-4

    @pytest.mark.parametrize("ks", [2, 4])
    def test_conv2d_transposed_grads(self, ks):
        x = RNG.normal(size=(2, 2, 4, 4))
        k = RNG.normal(size=(2, 3, ks, ks))
        b = RNG.normal(size=3)
        analytic, fd = grad_of(T.conv2d_transposed, x, k, b)
        for got, want in zip(analytic, fd):
            assert rel_err(got, want, floor=1e-6) < 1e-4

    def test_masked_conv2d_grads(self):
        x = RNG.normal(size=(1, 2, 5, 5))
        k = RNG.normal(size=(2, 2, 3, 3))
        b = RNG.normal(size=2)
        analytic, fd = grad_of(lambda xx, kk, bb: T.masked_conv2d(xx, kk, bias=bb), x, k, b)
        for got, want in zip(analytic, fd):
            assert rel_err(got, want, floor=1e-6) < 1e-4


def engine_grads(op, x, k, b, g, **kw):
    """Output and (dx, dk, db) of sum(op(x, k, b) * g) from the engine."""
    xs, ks, bs = (Tensor(a.copy(), requires_grad=True) for a in (x, k, b))
    with GradTape():
        out = op(xs, ks, bs, **kw)
        T.backward(T.reduce_sum(out * Tensor(g)))
    return out.data, xs.grad, ks.grad, bs.grad


def oracle_grad(oracle, x, k, i, g, stride, pad):
    """Gradient of <oracle(x, k), g> w.r.t. x (i=0) or k (i=1), one unit vector per entry.

    The bias-free oracle is linear in each argument, so entry e of the
    gradient is <oracle(unit e), g>.
    """
    args = [x, k]
    grad = np.zeros_like(args[i])
    for e in np.ndindex(grad.shape):
        unit = np.zeros_like(grad)
        unit[e] = 1.0
        args[i] = unit
        grad[e] = np.sum(oracle(*args, None, stride, pad) * g)
    return grad


class TestConvCoreExact:
    """The shared correlation core, checked to rounding error rather than to finite-difference accuracy."""

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])  # a side 2 * pad + 1 kernel
    def test_conv2d_grads_match_naive_loop(self, stride, pad):
        x, k, b = RNG.normal(size=(1, 2, 5, 5)), RNG.normal(size=(3, 2, 2 * pad + 1, 2 * pad + 1)), RNG.normal(size=3)
        g = RNG.normal(size=naive_conv2d(x, k, b, stride, pad).shape)
        _, dx, dk, _ = engine_grads(T.conv2d, x, k, b, g, stride=stride)
        assert rel_err(dx, oracle_grad(naive_conv2d, x, k, 0, g, stride, pad)) < 1e-12
        assert rel_err(dk, oracle_grad(naive_conv2d, x, k, 1, g, stride, pad)) < 1e-12

    @pytest.mark.parametrize("stride,pad,ks", [(2, 0, 2), (2, 1, 4), (2, 2, 6)])  # as test_matches_naive_scatter
    def test_conv2d_transposed_grads_match_naive_scatter(self, stride, pad, ks):
        x, k, b = RNG.normal(size=(2, 2, 3, 3)), RNG.normal(size=(2, 3, ks, ks)), RNG.normal(size=3)
        g = RNG.normal(size=naive_conv2d_transposed(x, k, b, stride, pad).shape)
        _, dx, dk, _ = engine_grads(T.conv2d_transposed, x, k, b, g)
        assert rel_err(dx, oracle_grad(naive_conv2d_transposed, x, k, 0, g, stride, pad)) < 1e-12
        assert rel_err(dk, oracle_grad(naive_conv2d_transposed, x, k, 1, g, stride, pad)) < 1e-12

    @pytest.mark.parametrize("ks", [3, 5])
    def test_masked_conv2d_is_conv2d_with_masked_kernel(self, ks):
        x, k, b = RNG.normal(size=(2, 3, 6, 7)), RNG.normal(size=(4, 3, ks, ks)), RNG.normal(size=4)
        mask = mask_a(ks)
        g = RNG.normal(size=(2, 4, 6, 7))
        out, dx, dk, db = engine_grads(T.masked_conv2d, x, k, b, g)
        ref_out, ref_dx, ref_dk, ref_db = engine_grads(T.conv2d, x, k * mask, b, g)
        # the forward sums c * (ks * ks // 2) products, conv2d c * ks * ks, so BLAS may round them differently;
        # the outputs are of order 1, so the floor of 1 bounds the error of the entries near 0 absolutely
        assert rel_err(out, ref_out, floor=1.0) < 1e-13
        assert rel_err(out, naive_conv2d(x, k * mask, b, 1, ks // 2), floor=1.0) < 1e-12
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(dk, ref_dk * mask)
        assert np.all(dk[:, :, mask == 0.0] == 0.0)
        np.testing.assert_array_equal(db, ref_db)

    # (op, kernel shape for 2 input and 1 output channels, kernel shape for 3 input channels)
    OPS = [(T.conv2d, (1, 2, 3, 3), (1, 3, 3, 3)), (T.conv2d_transposed, (2, 1, 2, 2), (3, 1, 2, 2)),
           (T.masked_conv2d, (1, 2, 3, 3), (1, 3, 3, 3))]

    @pytest.mark.parametrize("op,kshape,wrong_kshape", OPS, ids=[o[0].__name__ for o in OPS])
    def test_shared_checks_name_the_op(self, op, kshape, wrong_kshape):
        x, k = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros(kshape))
        op(x, k, Tensor(np.zeros(1)))  # the well-formed call passes
        bad_calls = [(Tensor(np.zeros((2, 4, 4))), k, None), (x, Tensor(np.zeros(wrong_kshape)), None),
                     (x, k, Tensor(np.zeros(2)))]
        for xx, kk, bb in bad_calls:
            with pytest.raises(ValueError, match=rf"^{op.__name__}: "):
                op(xx, kk, bb)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConvChunks:
    """Columns formed in sample chunks give the whole batch's outputs and gradients bit for bit."""

    # (op, x shape without the batch, kernel shape, stride); the transposed op takes stride 2 by construction
    CASES = {
        "conv2d": (T.conv2d, (4, 9, 7), (5, 4, 3, 3), 1),
        "conv2d_stride2": (T.conv2d, (4, 9, 7), (5, 4, 3, 3), 2),
        "conv2d_1x1": (T.conv2d, (4, 9, 7), (5, 4, 1, 1), 1),  # its input gradient is written in place
        "masked_conv2d": (T.masked_conv2d, (4, 7, 6), (5, 4, 5, 5), 1),
        "conv2d_transposed": (T.conv2d_transposed, (4, 5, 6), (4, 3, 4, 4), 2),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("per_chunk", [1, 2, None], ids=["chunk1", "chunk2", "default"])
    @pytest.mark.parametrize("case", CASES)
    def test_chunked_columns_equal_the_batched_reference(self, case, per_chunk, n, dtype, monkeypatch):
        op, x_shape, k_shape, stride = self.CASES[case]
        out_channels = k_shape[1] if op is T.conv2d_transposed else k_shape[0]
        x, k, b = (RNG.normal(size=shape).astype(dtype) for shape in ((n, *x_shape), k_shape, (out_channels,)))
        if op is T.conv2d_transposed:
            g = RNG.normal(size=(n, k_shape[1], 2 * x_shape[1], 2 * x_shape[2])).astype(dtype)
            want = batched_upsampler(x, k, b, g)
            sample_bytes = batched_im2col(g[:1], k_shape[2], 2, k_shape[2] // 2 - 1, k_shape[2] ** 2).nbytes
        else:
            taps = k_shape[2] ** 2 // 2 if op is T.masked_conv2d else k_shape[2] ** 2
            same_padded = [(side - 1) // stride + 1 for side in x_shape[1:]]  # an odd side k, padded by k // 2
            g = RNG.normal(size=(n, k_shape[0], *same_padded)).astype(dtype)
            want = batched_correlation(x, k, b, g, stride, taps)
            sample_bytes = batched_im2col(x[:1], k_shape[2], stride, k_shape[2] // 2, taps).nbytes
        if per_chunk is not None:
            monkeypatch.setattr(T, "_COLS_BLOCK_BYTES", per_chunk * sample_bytes)
            assert len(T._sample_chunks(n, sample_bytes)) == -(-n // per_chunk)
        kw = {} if op is not T.conv2d else {"stride": stride}
        got = engine_grads(op, x, k, b, g, **kw)
        for name, a, w in zip(("output", "dx", "dk", "db"), got, want):
            assert same_bits(a, w), f"{case} {name} differs from the batched reference"


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        k = RNG.normal(size=(4, 3, 3, 3))
        b = RNG.normal(size=4)
        a = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2)
        bb = T.conv2d(Tensor(x.copy()), Tensor(k.copy()), Tensor(b.copy()), stride=2)
        assert np.array_equal(a.data, bb.data)


# Each op on inputs of one dtype; ``leaf(*shape)`` makes a further input of that dtype that needs a gradient.
DTYPE_CASES = {
    "add": lambda x, leaf: T.add(x, leaf(*x.shape)),
    "sub_constant": lambda x, leaf: T.sub(np.float64(1.5), x),
    "mul_constant": lambda x, leaf: T.mul(x, 0.1),
    "div": lambda x, leaf: T.div(x, leaf(*x.shape)),
    "log": lambda x, leaf: T.log(x),
    "clamp": lambda x, leaf: T.clamp(x, 1.0),
    "leaky_relu": lambda x, leaf: T.leaky_relu(x - 1.0, 0.2),
    "softplus": lambda x, leaf: T.softplus(x),
    "tanh": lambda x, leaf: T.tanh(x),
    "sigmoid": lambda x, leaf: T.sigmoid(x),
    "softmax": lambda x, leaf: T.softmax(x, axis=1),
    "reduce_sum": lambda x, leaf: T.reduce_sum(x, axis=2),
    "std_normal_cdf": lambda x, leaf: T.std_normal_cdf(x),
    "reshape": lambda x, leaf: T.reshape(x, (2, -1)),
    "permute": lambda x, leaf: T.permute(x, (0, 2, 3, 1)),
    "broadcast_to": lambda x, leaf: T.broadcast_to(T.narrow(x, 1, 0, 1), x.shape),
    "narrow": lambda x, leaf: T.narrow(x, 1, 1, 2),
    "concat": lambda x, leaf: T.concat([x, leaf(*x.shape)], axis=1),
    "conv2d": lambda x, leaf: T.conv2d(x, leaf(3, 4, 3, 3), leaf(3), stride=2),
    "conv2d_1x1": lambda x, leaf: T.conv2d(x, leaf(3, 4, 1, 1), leaf(3)),
    "conv2d_transposed": lambda x, leaf: T.conv2d_transposed(x, leaf(4, 3, 4, 4), leaf(3)),
    "masked_conv2d": lambda x, leaf: T.masked_conv2d(x, leaf(3, 4, 5, 5), leaf(3)),
}


class TestDtype:
    """An op's output and gradients take the dtype of its inputs, and so do its constants."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", DTYPE_CASES)
    def test_outputs_and_grads_follow_the_input_dtype(self, op, dtype):
        leaves = []

        def leaf(*shape):
            leaves.append(Tensor(RNG.uniform(0.5, 2.0, size=shape).astype(dtype), requires_grad=True))
            return leaves[-1]

        x = leaf(2, 4, 6, 6)
        with GradTape():
            out = DTYPE_CASES[op](x, leaf)
            T.backward(T.reduce_sum(out))
        assert out.data.dtype == dtype
        assert [t.grad.dtype for t in leaves] == [dtype] * len(leaves)

    def test_float32_stays_float32_and_everything_else_becomes_float64(self):
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        for data in (np.ones(2, dtype=np.float16), np.arange(2), [1, 2], 0.5, np.ones(2, dtype=np.longdouble)):
            assert Tensor(data).data.dtype == np.float64
        x64 = np.ones(3)
        assert Tensor(x64).data is x64  # float64 data is not copied


class TestGradientBuffers:
    """A slot never aliases: every tensor's gradient is its own buffer, whichever op made it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", DTYPE_CASES)
    def test_no_two_gradients_share_a_buffer(self, op, dtype):
        leaves = []

        def leaf(*shape):
            leaves.append(Tensor(RNG.uniform(0.5, 2.0, size=shape).astype(dtype), requires_grad=True))
            return leaves[-1]

        x = leaf(2, 4, 6, 6)
        with GradTape():
            mid = T.leaky_relu(x, 0.2)  # an intermediate whose gradient the caller reads too
            out = DTYPE_CASES[op](mid, leaf)
            T.backward(T.reduce_sum(out * out) + T.reduce_sum(mid))
        grads = [t.grad for t in (*leaves, mid, out)]
        assert all(g is not None and g.flags.writeable for g in grads)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)
