"""Discretized likelihood models for pixels and latents.

Every probability here is of an integer symbol v and equals the mass a
continuous density convolved with U(-1/2, 1/2) puts on it, i.e.
F(v+1/2) - F(v-1/2). At the edges of a finite alphabet the tail mass is
folded into the edge bins so each row sums to one, which is exactly what
the range coder needs.

Pixels and latents use K-component discretized Gaussian mixtures, with
one differentiable path for training (``mixture_prob``) and one table
path for coding (``mixture_pmf``) that agree bit for bit. A learnable
monotone-network prior models the hyper-latent channels that have no
conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import tensor as T
from .tensor import Tensor

SIGMA_MIN = 1e-6
LIKELIHOOD_FLOOR = 2.0**-64
_LN2 = float(np.log(2.0))

# Diagnostics: how many probabilities hit the likelihood floor inside
# rate_bits since the last reset. Early mixture training occasionally
# underflows on outliers; the floor keeps the loss finite.
_FLOOR_EVENTS = 0


def floored_count() -> int:
    return _FLOOR_EVENTS


def reset_floored() -> None:
    global _FLOOR_EVENTS
    _FLOOR_EVENTS = 0


@dataclass(frozen=True)
class Alphabet:
    """Inclusive integer symbol range with unit bins."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"alphabet lo {self.lo} > hi {self.hi}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def values(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1, dtype=np.float64)

    def check(self, v: np.ndarray) -> None:
        if np.any(v < self.lo) or np.any(v > self.hi):
            raise ValueError(f"value outside alphabet [{self.lo}, {self.hi}]")


PIXEL_ALPHABET = Alphabet(0, 255)


@dataclass
class MixtureParams:
    """Per-element K-component Gaussian mixture parameters.

    All three tensors are [N, K, C, H, W]; weights are softmax-normalized
    over the K axis and scales are softplus-reparameterized with a
    SIGMA_MIN floor, so the invariants hold by construction.
    """

    weights: Tensor
    means: Tensor
    scales: Tensor

    @property
    def K(self) -> int:
        return self.weights.shape[1]

    @property
    def plane_shape(self) -> tuple[int, ...]:
        n, _, c, h, w = self.weights.shape
        return (n, c, h, w)

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Numpy views reordered to [elements, K] in N,C,H,W raster order."""

        def rearrange(t: Tensor) -> np.ndarray:
            return np.ascontiguousarray(t.data.transpose(0, 2, 3, 4, 1)).reshape(-1, self.K)

        return rearrange(self.weights), rearrange(self.means), rearrange(self.scales)


def _fold_masks(values: np.ndarray, alphabet: Alphabet, shape) -> tuple[Tensor, Tensor, Tensor]:
    lo = np.broadcast_to((values == alphabet.lo).astype(np.float64), shape).copy()
    hi = np.broadcast_to((values == alphabet.hi).astype(np.float64), shape).copy()
    return Tensor(1.0 - lo - hi), Tensor(lo), Tensor(hi)


def mixture_prob(params: MixtureParams, values: Tensor, alphabet: Alphabet | None = None) -> Tensor:
    """Differentiable mixture probability of integer-valued ``values``.

    ``values`` is [N, C, H, W]; the result matches that shape. With an
    alphabet the edge bins receive the folded tail mass. During training
    ``values`` may be the noisy continuous latents, in which case no
    alphabet is passed and the plain CDF difference is evaluated.
    """
    n, k, c, h, w = params.weights.shape
    if alphabet is not None:
        alphabet.check(values.data)
    v = T.broadcast_to(T.reshape(values, (n, 1, c, h, w)), (n, k, c, h, w))
    d = T.absolute(v - params.means)
    upper = T.std_normal_cdf((0.5 - d) / params.scales)
    lower = T.std_normal_cdf((-0.5 - d) / params.scales)
    per_comp = upper - lower
    if alphabet is not None:
        interior, lo_m, hi_m = _fold_masks(
            values.data.reshape(n, 1, c, h, w), alphabet, (n, k, c, h, w)
        )
        lo_term = T.std_normal_cdf(((alphabet.lo + 0.5) - params.means) / params.scales)
        hi_term = T.std_normal_cdf((params.means - (alphabet.hi - 0.5)) / params.scales)
        per_comp = per_comp * interior + lo_term * lo_m + hi_term * hi_m
    return T.reduce_sum(params.weights * per_comp, axis=1)


def mixture_mean(params: MixtureParams) -> Tensor:
    """Weight-averaged mixture mean, the point estimate used by the L2 term."""
    return T.reduce_sum(params.weights * params.means, axis=1)


def mixture_pmf(weights: np.ndarray, means: np.ndarray, scales: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """PMF table [elements, alphabet.size] from flat [elements, K] arrays."""
    v = alphabet.values()[None, None, :]  # [1, 1, A]
    mu = means[:, :, None]
    s = scales[:, :, None]
    d = np.abs(v - mu)
    p = ndtr((0.5 - d) / s) - ndtr((-0.5 - d) / s)
    p[:, :, 0] = ndtr(((alphabet.lo + 0.5) - means) / scales)
    p[:, :, -1] = ndtr((means - (alphabet.hi - 0.5)) / scales)
    return np.sum(weights[:, :, None] * p, axis=1)


def _softplus_inv(y: float) -> float:
    return float(np.log(np.expm1(y)))


class FactorizedPrior:
    """Learnable per-channel cumulative built from monotone affine stages.

    Each channel owns a tiny monotone network 1 -> hidden -> ... -> 1
    (positive weights via softplus, tanh-gated residual terms), squashed
    by a sigmoid into a strictly increasing cumulative on (0, 1).
    """

    def __init__(self, channels: int, depth: int = 4, hidden: int = 3, init_scale: float = 10.0, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.channels = channels
        self.depth = depth
        dims = [1] + [hidden] * (depth - 1) + [1]
        scale = init_scale ** (1.0 / depth)
        self.matrices: list[Tensor] = []
        self.biases: list[Tensor] = []
        self.factors: list[Tensor | None] = []
        for i in range(depth):
            d_in, d_out = dims[i], dims[i + 1]
            w0 = _softplus_inv(1.0 / (scale * d_out))
            self.matrices.append(Tensor(np.full((channels, d_out, d_in), w0), requires_grad=True))
            self.biases.append(Tensor(rng.uniform(-0.5, 0.5, size=(channels, d_out, 1)), requires_grad=True))
            self.factors.append(
                Tensor(np.zeros((channels, d_out, 1)), requires_grad=True) if i < depth - 1 else None
            )

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i in range(self.depth):
            out[f"prior.w{i}"] = self.matrices[i]
            out[f"prior.b{i}"] = self.biases[i]
            if self.factors[i] is not None:
                out[f"prior.f{i}"] = self.factors[i]
        return out

    def logits(self, t: Tensor) -> Tensor:
        """Monotone pre-sigmoid response for ``t`` of shape [channels, M]."""
        c, m = t.shape
        h = T.reshape(t, (c, 1, m))
        for i in range(self.depth):
            w = self.matrices[i]
            _, d_out, d_in = w.shape
            sp = T.broadcast_to(T.reshape(T.softplus(w), (c, d_out, d_in, 1)), (c, d_out, d_in, m))
            hb = T.broadcast_to(T.reshape(h, (c, 1, d_in, m)), (c, d_out, d_in, m))
            a = T.reduce_sum(sp * hb, axis=2) + T.broadcast_to(self.biases[i], (c, d_out, m))
            f = self.factors[i]
            if f is not None:
                a = a + T.broadcast_to(T.tanh(f), (c, d_out, m)) * T.tanh(a)
            h = a
        return T.reshape(h, (c, m))

    def cumulative(self, t: Tensor) -> Tensor:
        return T.sigmoid(self.logits(t))

    def prob(self, values: Tensor, alphabet: Alphabet | None = None) -> Tensor:
        """Bin probability of integer-valued ``values`` [channels, M]."""
        if alphabet is not None:
            alphabet.check(values.data)
        upper = self.cumulative(values + 0.5)
        lower = self.cumulative(values - 0.5)
        p = upper - lower
        if alphabet is not None:
            interior, lo_m, hi_m = _fold_masks(values.data, alphabet, values.shape)
            p = p * interior + upper * lo_m + (1.0 - lower) * hi_m
        return p

    def pmf(self, alphabet: Alphabet) -> np.ndarray:
        """Per-channel PMF table [channels, alphabet.size]."""
        v = np.tile(alphabet.values(), (self.channels, 1))
        return self.prob(Tensor(v), alphabet).data


def rate_bits(params_or_prior, values: Tensor, alphabet: Alphabet | None = None) -> Tensor:
    """Total code length in bits: sum of -log2 p(v) over all elements.

    Differentiable through the parameters; probabilities are floored at
    2^-64 before the log (floor hits are counted, see floored_count).
    """
    global _FLOOR_EVENTS
    if isinstance(params_or_prior, MixtureParams):
        p = mixture_prob(params_or_prior, values, alphabet)
    elif isinstance(params_or_prior, FactorizedPrior):
        v = values
        if v.ndim == 4:
            n, c, h, w = v.shape
            v = T.reshape(T.permute(v, (1, 0, 2, 3)), (c, n * h * w))
        p = params_or_prior.prob(v, alphabet)
    else:
        raise TypeError(f"cannot compute rate from {type(params_or_prior).__name__}")
    _FLOOR_EVENTS += int(np.count_nonzero(p.data < LIKELIHOOD_FLOOR))
    return T.reduce_sum(T.log(T.clamp(p, lo=LIKELIHOOD_FLOOR))) * (-1.0 / _LN2)
