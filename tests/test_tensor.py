"""Tensor engine: op semantics, naive-loop conv oracle, and gradient checks."""

import numpy as np
import pytest

import lhgm.tensor as T
from lhgm.tensor import GradTape, Tensor

from oracles import central_difference_grad, naive_conv2d, naive_conv2d_transposed, phi, rel_err

RNG = np.random.default_rng(20240811)


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
        out = T.conv2d(x, k, b, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_sums_to_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, Tensor(np.zeros(1)), stride=1, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_loop(self, stride, pad):
        x = RNG.normal(size=(1, 2, 5, 5))
        k = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=3)
        out = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=pad)
        ref = naive_conv2d(x, k, b, stride, pad)
        assert rel_err(out.data, ref) < 1e-12

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))


class TestConvTransposed:
    def test_identity(self):
        x = Tensor(RNG.normal(size=(1, 1, 4, 4)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = T.conv2d_transposed(x, k, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_block_replication_upsampling(self):
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        k = np.ones((1, 1, 2, 2))
        out = T.conv2d_transposed(Tensor(x), Tensor(k), stride=2, padding=0)
        expected = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
        np.testing.assert_array_equal(out.data, expected)

    @pytest.mark.parametrize("stride,pad,k", [(1, 0, 3), (2, 0, 2), (2, 1, 4), (2, 1, 3)])
    def test_matches_naive_scatter(self, stride, pad, k):
        x = RNG.normal(size=(2, 2, 3, 3))
        kern = RNG.normal(size=(2, 3, k, k))
        b = RNG.normal(size=3)
        out = T.conv2d_transposed(Tensor(x), Tensor(kern), Tensor(b), stride=stride, padding=pad)
        ref = naive_conv2d_transposed(x, kern, b, stride, pad)
        assert rel_err(out.data, ref) < 1e-12

    def test_down_up_restores_spatial_dims(self):
        x = Tensor(RNG.normal(size=(1, 4, 8, 8)))
        k_down = Tensor(RNG.normal(size=(6, 4, 3, 3)))
        k_up = Tensor(RNG.normal(size=(6, 4, 4, 4)))
        down = T.conv2d(x, k_down, stride=2, padding=1)
        up = T.conv2d_transposed(down, k_up, stride=2, padding=1)
        assert up.shape[2:] == x.shape[2:]


class TestMaskedConv:
    def test_mask_a_zero_pattern(self):
        m = T.mask_a(3, 3)
        expected = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=float)
        np.testing.assert_array_equal(m, expected)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.masked_conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    def test_causality_current_position_ignored(self):
        x = RNG.normal(size=(1, 2, 6, 6))
        k = Tensor(RNG.normal(size=(3, 2, 5, 5)))
        base = T.masked_conv2d(Tensor(x), k).data
        xp = x.copy()
        xp[0, :, 3, 4] += 10.0
        bumped = T.masked_conv2d(Tensor(xp), k).data
        np.testing.assert_array_equal(base[0, :, 3, 4], bumped[0, :, 3, 4])
        # nothing before (3,4) in raster order may move either
        np.testing.assert_array_equal(base[0, :, :3, :], bumped[0, :, :3, :])
        np.testing.assert_array_equal(base[0, :, 3, :4], bumped[0, :, 3, :4])

    def test_perturbation_reaches_raster_successors(self):
        x = RNG.normal(size=(1, 1, 6, 6))
        k = Tensor(RNG.normal(size=(1, 1, 3, 3)))
        base = T.masked_conv2d(Tensor(x), k).data
        xp = x.copy()
        xp[0, 0, 2, 2] += 1.0
        bumped = T.masked_conv2d(Tensor(xp), k).data
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

    def test_tape_cleared_after_backward(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with GradTape() as tape:
            loss = T.reduce_sum(x * x)
            T.backward(loss)
            assert tape._records == []

    def test_reuse_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with GradTape():
            y = x * 2.0
            loss = T.reduce_sum(y * y) + T.reduce_sum(y)
            T.backward(loss)
        np.testing.assert_allclose(x.grad, 8 * x.data + 2.0, atol=1e-12)


def _away_from_kinks(x, kinks, margin=1e-3):
    for k in kinks:
        x = np.where(np.abs(x - k) < margin, x + 2 * margin, x)
    return x


UNARY_CASES = [
    ("log", lambda x: T.log(x), lambda s: RNG.uniform(0.2, 3.0, size=s), ()),
    ("neg", lambda x: T.neg(x), lambda s: RNG.normal(size=s), ()),
    ("abs", lambda x: T.absolute(x), lambda s: RNG.normal(size=s), (0.0,)),
    ("clamp", lambda x: T.clamp(x, -1.0, 1.0), lambda s: RNG.normal(size=s) * 2, (-1.0, 1.0)),
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

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])
    def test_conv2d_grads(self, stride, pad):
        x = RNG.normal(size=(2, 2, 5, 5))
        k = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=3)
        analytic, fd = grad_of(lambda xx, kk, bb: T.conv2d(xx, kk, bb, stride=stride, padding=pad), x, k, b)
        for got, want in zip(analytic, fd):
            assert rel_err(got, want, floor=1e-6) < 1e-4

    @pytest.mark.parametrize("stride,pad,ks", [(1, 0, 3), (2, 1, 4)])
    def test_conv2d_transposed_grads(self, stride, pad, ks):
        x = RNG.normal(size=(2, 2, 4, 4))
        k = RNG.normal(size=(2, 3, ks, ks))
        b = RNG.normal(size=3)
        analytic, fd = grad_of(
            lambda xx, kk, bb: T.conv2d_transposed(xx, kk, bb, stride=stride, padding=pad), x, k, b
        )
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

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_conv2d_grads_match_naive_loop(self, stride, pad):
        x, k, b = RNG.normal(size=(1, 2, 5, 5)), RNG.normal(size=(3, 2, 3, 3)), RNG.normal(size=3)
        g = RNG.normal(size=naive_conv2d(x, k, b, stride, pad).shape)
        _, dx, dk, _ = engine_grads(T.conv2d, x, k, b, g, stride=stride, padding=pad)
        assert rel_err(dx, oracle_grad(naive_conv2d, x, k, 0, g, stride, pad)) < 1e-12
        assert rel_err(dk, oracle_grad(naive_conv2d, x, k, 1, g, stride, pad)) < 1e-12

    @pytest.mark.parametrize("stride,pad,ks", [(1, 0, 3), (2, 0, 2), (2, 1, 4), (2, 1, 3)])
    def test_conv2d_transposed_grads_match_naive_scatter(self, stride, pad, ks):
        x, k, b = RNG.normal(size=(2, 2, 3, 3)), RNG.normal(size=(2, 3, ks, ks)), RNG.normal(size=3)
        g = RNG.normal(size=naive_conv2d_transposed(x, k, b, stride, pad).shape)
        _, dx, dk, _ = engine_grads(T.conv2d_transposed, x, k, b, g, stride=stride, padding=pad)
        assert rel_err(dx, oracle_grad(naive_conv2d_transposed, x, k, 0, g, stride, pad)) < 1e-12
        assert rel_err(dk, oracle_grad(naive_conv2d_transposed, x, k, 1, g, stride, pad)) < 1e-12

    @pytest.mark.parametrize("ks", [3, 5])
    def test_masked_conv2d_is_conv2d_with_masked_kernel(self, ks):
        x, k, b = RNG.normal(size=(2, 3, 6, 7)), RNG.normal(size=(4, 3, ks, ks)), RNG.normal(size=4)
        mask = T.mask_a(ks, ks)
        g = RNG.normal(size=(2, 4, 6, 7))
        out, dx, dk, db = engine_grads(T.masked_conv2d, x, k, b, g)
        ref_out, ref_dx, ref_dk, ref_db = engine_grads(T.conv2d, x, k * mask, b, g, padding=ks // 2)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(dk, ref_dk * mask)
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


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        k = RNG.normal(size=(4, 3, 3, 3))
        b = RNG.normal(size=4)
        a = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2, padding=1)
        bb = T.conv2d(Tensor(x.copy()), Tensor(k.copy()), Tensor(b.copy()), stride=2, padding=1)
        assert np.array_equal(a.data, bb.data)
