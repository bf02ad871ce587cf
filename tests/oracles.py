"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive (nested loops, brute-force sums,
high-precision special functions) and shares no code with the package
under test, except ``op_chain_mixture_prob``: it composes the engine's
elementary ops, each checked on its own against finite differences, into
the likelihood that ``lhgm.distributions.mixture_prob`` computes as one op.
``batched_correlation`` and ``batched_upsampler`` are not naive: they form
the im2col columns of the whole batch at once, in the float operations and
order that the engine's sample chunks must reproduce bit for bit.
"""

import math

import mpmath
import numpy as np
from scipy.special import ndtr

mpmath.mp.dps = 50


def naive_conv2d(x, k, b, stride, pad):
    """Six-nested-loop cross-correlation reference."""
    n, c, h, w = x.shape
    o, kc, kh, kw = k.shape
    assert kc == c
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += k[oi, ci, u, v] * xp[ni, ci, i * stride + u, j * stride + v]
                    out[ni, oi, i, j] = acc + (b[oi] if b is not None else 0.0)
    return out


def mask_a(k):
    """Mask-A mask of a k x k kernel: zero at the center tap and every later raster tap."""
    m = np.ones((k, k))
    m.reshape(-1)[k * k // 2 :] = 0.0
    return m


def naive_conv2d_transposed(x, k, b, stride, pad):
    """Scatter-based transposed convolution reference. Kernel [ci, co, kh, kw]."""
    n, ci, h, w = x.shape
    kci, co, kh, kw = k.shape
    assert kci == ci
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (w - 1) * stride - 2 * pad + kw
    full = np.zeros((n, co, oh + 2 * pad, ow + 2 * pad))
    for ni in range(n):
        for c in range(ci):
            for i in range(h):
                for j in range(w):
                    for d in range(co):
                        for u in range(kh):
                            for v in range(kw):
                                full[ni, d, i * stride + u, j * stride + v] += k[c, d, u, v] * x[ni, c, i, j]
    out = full[:, :, pad : pad + oh, pad : pad + ow].copy()
    if b is not None:
        out += b.reshape(1, co, 1, 1)
    return out


def batched_im2col(x, k, stride, pad, taps):
    """[n, c * taps, oh * ow] columns of the whole batch: row c * taps + t holds raster tap t of channel c."""
    n, c, h, w = x.shape
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, taps, oh, ow), dtype=x.dtype)
    for t in range(taps):
        u, v = divmod(t, k)
        cols[:, :, t] = xp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride]
    return cols.reshape(n, c * taps, oh * ow)


def batched_col2im(cols, shape, k, stride, pad, oh, ow):
    """The adjoint of ``batched_im2col``: the taps added in raster order into a zero padded [n, c, h, w]."""
    n, c, h, w = shape
    taps = cols.shape[1] // c
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols5 = cols.reshape(n, c, taps, oh, ow)
    for t in range(taps):
        u, v = divmod(t, k)
        xp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride] += cols5[:, :, t]
    return xp[:, :, pad : pad + h, pad : pad + w].copy()


def batched_correlation(x, kernel, bias, g, stride, taps):
    """Output and (dx, dk, db) for upstream gradient ``g`` of a same-padded correlation, whole batch at once.

    Only the first ``taps`` raster taps of each kernel channel are read:
    k * k for conv2d, k * k // 2 for masked_conv2d (whose dk is 0.0 on the
    rest). dk sums the per-sample products g[i] @ cols[i].T over the batch
    axis; dx scatters k2.T @ g back through ``batched_col2im``.
    """
    n = x.shape[0]
    o, c, k, _ = kernel.shape
    k2 = kernel.reshape(o, c, k * k)[:, :, :taps].reshape(o, -1)
    cols = batched_im2col(x, k, stride, k // 2, taps)
    oh, ow = g.shape[2:]
    out = np.matmul(k2, cols) + bias.reshape(1, -1, 1)
    g2 = g.reshape(n, o, -1)
    dk = np.zeros(kernel.shape, dtype=x.dtype)
    dk.reshape(o, c, k * k)[:, :, :taps] = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, -1)
    dx = batched_col2im(np.matmul(k2.T, g2), x.shape, k, stride, k // 2, oh, ow)
    return out.reshape(n, o, oh, ow), dx, dk, g2.sum(axis=(0, 2))


def batched_upsampler(x, kernel, bias, g):
    """Output and (dx, dk, db) for upstream gradient ``g`` of the x2 transposed convolution, whole batch at once.

    Kernel [ci, co, k, k] with k even, stride 2 and padding k // 2 - 1: the
    output is col2im(k2.T @ x), and backward reads the columns of g.
    """
    n, ci, h, w = x.shape
    co, k = kernel.shape[1], kernel.shape[2]
    pad = k // 2 - 1
    k2, x2 = kernel.reshape(ci, co * k * k), x.reshape(n, ci, h * w)
    out = batched_col2im(np.matmul(k2.T, x2), (n, co, 2 * h, 2 * w), k, 2, pad, h, w) + bias.reshape(1, co, 1, 1)
    gcols = batched_im2col(g, k, 2, pad, k * k)
    dk = np.matmul(x2, gcols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
    return out, np.matmul(k2, gcols).reshape(x.shape), dk, g.sum(axis=(0, 2, 3))


def op_chain_mixture_prob(weights, means, scales, values, lo=None, hi=None):
    """Discretized mixture probability [N, C, H, W] composed of engine ops, one tape record per op.

    ``weights``, ``means`` and ``scales`` are [N, K, C, H, W] Tensors and
    ``values`` an [N, C, H, W] Tensor. Each edge e has t = (e - mu) / sigma,
    c = -1 above the mean and +1 elsewhere (0 on an edge folded at lo or
    hi), and signed tail g = Phi(t * c) * c; a bin is g(upper) - g(lower),
    plus 1 where c(lower) >= 0 and c(upper) <= 0, and the result is the
    weighted sum over K. Gradients come from the ops' own closures.
    """
    import lhgm.tensor as T
    from lhgm.tensor import Tensor

    n, k, c, h, w = weights.shape
    v = T.broadcast_to(T.reshape(values, (n, 1, c, h, w)), (n, k, c, h, w))
    per_element = values.data.reshape(n, 1, c, h, w)

    def signed_tail(edge, folded_at):
        t = (edge - means) / scales
        sign = np.where(t.data > 0.0, -1.0, 1.0).astype(t.data.dtype)
        if folded_at is not None:
            sign[np.broadcast_to(per_element == folded_at, sign.shape)] = 0.0
        return T.std_normal_cdf(t * Tensor(sign)) * Tensor(sign), sign

    g_upper, c_upper = signed_tail(v + 0.5, hi)
    g_lower, c_lower = signed_tail(v - 0.5, lo)
    straddle = Tensor(((c_lower >= 0.0) & (c_upper <= 0.0)).astype(c_lower.dtype))
    return T.reduce_sum(weights * (g_upper - g_lower + straddle), axis=1)


def whole_batch_mixture_prob_grads(w, mu, sigma, v, g, lo=None, hi=None):
    """dw, dmu, dsigma and dv of ``mixture_prob`` for the upstream gradient ``g`` [N, C, H, W], computed as whole
    [N, K, C, H, W] arrays in the order of the formulas in its docstring, with both edges' t kept from the forward.

    ``w``, ``mu`` and ``sigma`` are [N, K, C, H, W] arrays and ``v`` an [N, C, H, W] array of one dtype; an edge
    folded at ``lo`` or ``hi`` has f = 0.
    """
    n, _, c, h, wd = w.shape
    per_element = v.reshape(n, 1, c, h, wd)
    half = per_element.dtype.type(0.5)

    def edge(e, folded_at):
        t = (e - mu) / sigma
        sign = np.where(t > 0.0, t.dtype.type(-1.0), t.dtype.type(1.0))
        f = 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * t * t)
        if folded_at is not None:
            folded = np.broadcast_to(per_element == folded_at, t.shape)
            sign[folded] = 0.0
            f[folded] = 0.0
        return t, ndtr(t * sign) * sign, sign, f

    t_upper, g_upper, c_upper, f_upper = edge(per_element + half, hi)
    t_lower, g_lower, c_lower, f_lower = edge(per_element - half, lo)
    per = g_upper - g_lower + ((c_lower >= 0.0) & (c_upper <= 0.0)).astype(c_lower.dtype)
    g = g.reshape(n, 1, c, h, wd)
    g_over_sigma = g * w / sigma
    return (g * per, g_over_sigma * (f_lower - f_upper), g_over_sigma * (f_lower * t_lower - f_upper * t_upper),
            (g_over_sigma * (f_upper - f_lower)).sum(axis=1))


def central_difference_grad(f, x, h=1e-5):
    """Gradient of scalar-valued f at x via central differences, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-8):
    """Max relative error with an absolute floor for near-zero entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def phi(x):
    """Standard normal CDF at 50 decimal digits."""
    return float(mpmath.ncdf(mpmath.mpf(x)))


def gaussian_bin_prob(v, mu, sigma, lo=None, hi=None):
    """Discretized Gaussian probability of integer v with optional edge folding.

    Evaluated at 400 digits, so the difference of two CDF values near 1
    keeps full float64 precision for masses down to the subnormal range.
    """
    with mpmath.workdps(400):
        vm = mpmath.mpf(v)
        mu = mpmath.mpf(mu)
        sigma = mpmath.mpf(sigma)
        upper = mpmath.mpf(1) if (hi is not None and v == hi) else mpmath.ncdf((vm + mpmath.mpf("0.5") - mu) / sigma)
        lower = mpmath.mpf(0) if (lo is not None and v == lo) else mpmath.ncdf((vm - mpmath.mpf("0.5") - mu) / sigma)
        return float(upper - lower)


def one_shot_mixture_pmf(weights, means, scales, lo, hi):
    """Discretized Gaussian mixture table [elements, hi - lo + 1] in one shot.

    The whole [elements, K, A + 1] edge table is built at once. Edge e has
    t = (e - mu) / sigma and signed tail g = Phi(-|t|) at or below the mean,
    -Phi(-|t|) above it; the outer edges are -inf and +inf. A bin is
    g(upper) - g(lower), plus 1 where the lower edge is at or below the
    mean and the upper edge above it. These are the float64 expressions of
    the coding path in the same order, so a row-blocked implementation must
    match it bit for bit.
    """
    e = np.concatenate(([-np.inf], np.arange(lo, hi) + 0.5, [np.inf]))[None, None, :]
    t = (e - means[:, :, None]) / scales[:, :, None]
    q = ndtr(-np.abs(t))
    g = np.where(t > 0, -q, q)
    straddle = (t[:, :, :-1] <= 0) & (t[:, :, 1:] > 0)
    p = (g[:, :, 1:] - g[:, :, :-1]) + straddle.astype(np.float64)
    return np.sum(weights[:, :, None] * p, axis=1)


def blend_folded_prob(upper, lower, values, lo, hi):
    """Bin mass with the tails folded by masks, from the cumulatives at v + 1/2 and v - 1/2.

    Interior bins take upper - lower, the bin at lo takes upper and the bin
    at hi takes 1 - lower, blended in float64 as
    (upper - lower) * interior + upper * at_lo + (1 - lower) * at_hi.
    Unless lo == hi, all but one term of the blend are exact zeros, so it
    equals folding by edge cumulatives 0 and 1 bit for bit; with lo == hi
    the interior weight is -1 and the sum can round below 1.
    """
    at_lo = (values == lo).astype(np.float64)
    at_hi = (values == hi).astype(np.float64)
    return (upper - lower) * (1.0 - at_lo - at_hi) + upper * at_lo + (1.0 - lower) * at_hi


def int64_quantized_cdf(pmf, total=1 << 16):
    """Cumulative table of one pmf row, quantized symbol by symbol in Python ints, as int64.

    Each frequency is rint(p * total) floored at 1; the first largest bin
    absorbs the residual. If that would leave it below 1, every symbol
    takes floor(p * (total - n)) + 1 and the leftover units go one each to
    the largest fractional parts, ties to the lower index. The table is the
    int64 running sum of the frequencies from 0.
    """
    pmf = [float(p) for p in pmf]
    n = len(pmf)
    freqs = [max(int(np.rint(p * total)), 1) for p in pmf]
    top = freqs.index(max(freqs))
    if freqs[top] + total - sum(freqs) >= 1:
        freqs[top] += total - sum(freqs)
    else:
        scaled = [p * (total - n) for p in pmf]
        freqs = [math.floor(s) + 1 for s in scaled]
        order = sorted(range(n), key=lambda i: -(scaled[i] - math.floor(scaled[i])))
        for i in order[: total - sum(freqs)]:
            freqs[i] += 1
    return np.cumsum([0] + freqs, dtype=np.int64)


def adam_recursion(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled Adam on one scalar parameter starting at 0; returns values."""
    m = 0.0
    v = 0.0
    theta = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        out.append(theta)
    return out
