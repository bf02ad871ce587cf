"""Independent reference implementations used to derive expected test values.

Everything here is deliberately naive (nested loops, brute-force sums,
high-precision special functions) and shares no code with the package
under test.
"""

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
    """Discretized Gaussian probability of integer v with optional edge folding."""
    vm = mpmath.mpf(v)
    mu = mpmath.mpf(mu)
    sigma = mpmath.mpf(sigma)
    upper = mpmath.mpf(1) if (hi is not None and v == hi) else mpmath.ncdf((vm + mpmath.mpf("0.5") - mu) / sigma)
    lower = mpmath.mpf(0) if (lo is not None and v == lo) else mpmath.ncdf((vm - mpmath.mpf("0.5") - mu) / sigma)
    return float(upper - lower)


def one_shot_mixture_pmf(weights, means, scales, lo, hi):
    """Discretized Gaussian mixture table [elements, hi - lo + 1] in one shot.

    The whole [elements, K, A] component table is built at once, with the
    same float64 expressions in the same order as the coding path, so a
    row-blocked implementation must match it bit for bit.
    """
    v = np.arange(lo, hi + 1, dtype=np.float64)[None, None, :]
    mu = means[:, :, None]
    s = scales[:, :, None]
    d = np.abs(v - mu)
    p = ndtr((0.5 - d) / s) - ndtr((-0.5 - d) / s)
    p[:, :, 0] = ndtr(((lo + 0.5) - means) / scales)
    p[:, :, -1] = ndtr((means - (hi - 0.5)) / scales)
    return np.sum(weights[:, :, None] * p, axis=1)


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
