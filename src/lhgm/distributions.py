"""Discretized likelihood models for pixels and latents.

Every probability here is of an integer symbol v and equals the mass a
continuous density convolved with U(-1/2, 1/2) puts on it, i.e.
F(v+1/2) - F(v-1/2). At the edges of a finite alphabet the tail mass is
folded into the edge bins so each row sums to one, which is exactly what
the range coder needs.

Pixels and latents use K-component discretized Gaussian mixtures, with
one differentiable path for training (``mixture_prob``) and one table
path for coding (``mixture_pmf``) that agree bit for bit. ``mixture_prob``
is one recorded op: its forward is the table's expression in plain numpy,
and its gradient is analytic (see its docstring). A learnable
monotone-network prior models the hyper-latent channels that have no
conditioning.

Both mixture paths evaluate each bin edge e once per component. With
t = (e - mu) / sigma and q = Phi(-|t|), the signed tail of the edge is
g = q where t <= 0 and g = -q where t > 0, so Phi(t) = g + [t > 0]. A
bin between edges l and u then has mass g(u) - g(l) + [t(l) <= 0 < t(u)]:
the indicator is 1 only for the one bin that straddles the mean. Phi is
only ever evaluated on the lower tail, so a far-tail bin on either side
of the mean is the difference of two small tails and keeps its relative
precision down to the underflow of Phi near t = -38; Phi(t) itself near
1 would round every bin mass below about 1e-16 above the mean to 0. The
folded edge bins fall out of the same expression: the alphabet's outer
edges are -inf and +inf, whose signed tails are 0, so the bin at lo is
Phi(lo + 1/2) and the bin at hi is 1 - Phi(hi - 1/2), and a one-symbol
alphabet gets mass 1. Both paths fold at -inf and +inf and form their
signed tails in one kernel, ``_signed_tail``. An alphabet of A symbols
costs A + 1 edge evaluations per component, one Phi per edge.

Phi computes in the parameters' dtype, through ``lhgm.tensor``: a float32
training step's ``mixture_prob`` runs the engine's float32 kernel, whose
tail keeps its relative precision down to t = -13.2, where float32 leaves
its normal range, and loads no scipy. The table path, ``mixture_pmf``, is
always float64 and runs ``scipy.special.ndtr`` (``lhgm.tensor._ndtr64``,
which imports scipy at its first call), as does a float64 ``mixture_prob``.
Float64 stays on scipy so that the table bits do not depend on which SIMD
kernel numpy picks for the CPU: a numpy kernel would run numpy's ``exp``,
which numpy dispatches by CPU, where scipy's compiled ``ndtr`` calls the C
library's ``exp``.

Memory contract of the table path: ``mixture_pmf`` fills its preallocated
[elements, alphabet.size] result in fixed blocks of rows, on up to
``_PMF_MAX_WORKERS`` threads. The calling thread makes one block of
scratch per thread before any starts, so beyond the result itself the
build holds at most 4 blocks of O(block * K * alphabet.size) scratch,
however many elements and CPUs there are. Rows are independent, so
neither the block size nor the thread count changes a value.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import _INV_SQRT_2PI, Tensor

SIGMA_MIN = 1e-6
LIKELIHOOD_FLOOR = 2.0**-64
_LN2 = float(np.log(2.0))
# Rows per mixture_pmf block. On the 27648-row table of a 96x96 image,
# blocks of 16 to 128 rows ran equally fast (larger ones slower). At the
# pixel alphabet one block of scratch is about 0.9 MB, and a build holds at
# most _PMF_MAX_WORKERS of them, all made on the calling thread.
_PMF_BLOCK_ROWS = 64
# Most threads one mixture_pmf builds its table on. Scratch made inside a
# worker would stay in that thread's malloc arena after it is freed.
_PMF_MAX_WORKERS = 4
# The factorized prior's per-channel network, 1 -> 3 -> 3 -> 3 -> 1, and the
# scale of its initial slopes; the committed weight files fix depth and width.
_PRIOR_DEPTH = 4
_PRIOR_HIDDEN = 3
_PRIOR_INIT_SCALE = 10.0


@dataclass(frozen=True)
class Alphabet:
    """Inclusive integer symbol range with unit bins; ``check`` accepts only the integers in it."""

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
        if not np.all((v >= self.lo) & (v <= self.hi) & (np.floor(v) == v)):
            raise ValueError(f"value outside alphabet [{self.lo}, {self.hi}] of integer symbols")


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

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Numpy views reordered to [elements, K] in N,C,H,W raster order."""

        def rearrange(t: Tensor) -> np.ndarray:
            return np.ascontiguousarray(t.data.transpose(0, 2, 3, 4, 1)).reshape(-1, self.K)

        return rearrange(self.weights), rearrange(self.means), rearrange(self.scales)


def _edge_t(edge: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """t = (edge - mu) / sigma of each bin edge per component; forward and backward both compute t with it."""
    return (edge - mu) / sigma


def _signed_tail(t: np.ndarray, above: np.ndarray, phi) -> np.ndarray:
    """g = Phi(-|t|), negated where t > 0, of each edge's t (0 at -inf and +inf); ``above`` receives t > 0.

    ``t`` is overwritten with -|t|, and ``phi``, Phi, runs on it once and may
    return it. The table path passes scipy's float64 ``ndtr`` in place, as its
    workers are threads and the engine's ``std_normal_cdf`` is traced;
    ``mixture_prob`` passes ``std_normal_cdf`` on a constant, which records
    nothing and computes in t's dtype, so that the trace's
    ``tensor.fwd.std_normal_cdf`` span still times Phi in training.
    """
    np.greater(t, 0.0, out=above)
    np.abs(t, out=t)
    np.negative(t, out=t)
    g = phi(t)
    np.negative(g, out=g, where=above)
    return g


def _edge_density(t: np.ndarray, folded: np.ndarray | None) -> np.ndarray:
    """f, the derivative of a signed tail in t: phi(t), and 0 on folded edges."""
    f = np.multiply(t, -0.5)
    f *= t
    np.exp(f, out=f)
    f *= _INV_SQRT_2PI
    if folded is not None:
        f[np.broadcast_to(folded, f.shape)] = 0.0
    return f


def mixture_prob(params: MixtureParams, values: Tensor, alphabet: Alphabet | None = None) -> Tensor:
    """Differentiable mixture probability of integer-valued ``values``, one recorded op.

    ``values`` is [N, C, H, W]; the result matches that shape. With an
    alphabet the edge bins receive the folded tail mass. During training
    ``values`` may be the noisy continuous latents, in which case no
    alphabet is passed and the plain CDF difference is evaluated. The
    forward is the expression of the module docstring, in the order of the
    table path, so with an alphabet and float64 parameters every entry
    equals the ``mixture_pmf`` table entry bit for bit; float32 parameters
    give the same expression in float32.

    The gradient is analytic. With per = g(u) - g(l) + [straddle] the bin
    mass of a component, f = phi(t) at each edge, 0 on folded edges, and
    G the upstream gradient: dw = G * per,
    dmu = G * w * (f(l) - f(u)) / sigma, dsigma = G * w * (f(l) * t(l) -
    f(u) * t(u)) / sigma, and dv = sum over k of G * w * (f(u) - f(l)) / sigma.
    Backward keeps per, w, mu, sigma, the values and the folds, and the
    gradient slots of the inputs that need one (see ``lhgm.tensor``). It
    computes both edges' t again with the forward's expression, a chunk of
    samples at a time, and writes each gradient into its one array, so its
    scratch is about eight [chunk, K, C, H, W] arrays.
    """
    weights, means, scales = params.weights, params.means, params.scales
    n, _, c, h, w = weights.shape
    lo_fold = hi_fold = None
    per_element = values.data.reshape(n, 1, c, h, w)
    half = per_element.dtype.type(0.5)
    w_data, mu, sigma = weights.data, means.data, scales.data
    t = _edge_t(np.stack((per_element - half, per_element + half)), mu, sigma)  # [lower, upper], [2, N, K, C, H, W]
    if alphabet is not None:
        alphabet.check(values.data)
        lo_fold, hi_fold = per_element == alphabet.lo, per_element == alphabet.hi
        np.copyto(t[0], -np.inf, where=lo_fold)
        np.copyto(t[1], np.inf, where=hi_fold)
    above = np.empty(t.shape, dtype=bool)
    g = _signed_tail(t, above, lambda u: T.std_normal_cdf(Tensor(u)).data)
    per = g[1] - g[0] + (above[1] > above[0])
    del t, above, g  # before the weighted sum: backward keeps only per
    slots = tuple(map(T._slot_if_needed, (weights, means, scales, values)))

    def bwd(g):
        g = g.reshape(n, 1, c, h, w)
        dtype = np.result_type(g, w_data)
        dw, dmu, dsigma = (np.empty(w_data.shape, dtype) if slot else None for slot in slots[:3])
        dv = np.empty((n, c, h, w), dtype) if slots[3] else None
        for s in T._sample_chunks(n, 8 * w_data[0].nbytes):
            if dw is not None:
                np.multiply(g[s], per[s], out=dw[s])
            t_upper = _edge_t(per_element[s] + half, mu[s], sigma[s])
            t_lower = _edge_t(per_element[s] - half, mu[s], sigma[s])
            f_upper = _edge_density(t_upper, None if hi_fold is None else hi_fold[s])
            f_lower = _edge_density(t_lower, None if lo_fold is None else lo_fold[s])
            g_over_sigma = g[s] * w_data[s] / sigma[s]
            if dmu is not None:
                np.multiply(g_over_sigma, f_lower - f_upper, out=dmu[s])
            if dsigma is not None:
                t_lower *= f_lower
                t_upper *= f_upper
                np.multiply(g_over_sigma, t_lower - t_upper, out=dsigma[s])
            if dv is not None:
                np.sum(g_over_sigma * (f_upper - f_lower), axis=1, out=dv[s])
        for slot, d in zip(slots, (dw, dmu, dsigma, dv)):
            if slot:
                slot.take(d)

    return T._make_out((w_data * per).sum(axis=1), (weights, means, scales, values), bwd)


def mixture_mean(params: MixtureParams) -> Tensor:
    """Weight-averaged mixture mean, the point estimate used by the L2 term."""
    return T.reduce_sum(params.weights * params.means, axis=1)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def mixture_pmf(weights: np.ndarray, means: np.ndarray, scales: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """PMF table [elements, alphabet.size] from flat [elements, K] arrays, built in row blocks.

    Each block evaluates the alphabet.size + 1 bin edges once per
    component (see the module docstring). With W = min(usable CPUs,
    _PMF_MAX_WORKERS, blocks) above 1, worker j of W threads fills blocks
    j, j + W, ...; ufuncs release the GIL, and every thread runs the same
    float64 expressions in the same order, so the table does not depend on W.
    """
    if weights.ndim != 2 or not weights.shape == means.shape == scales.shape:
        raise ValueError(
            f"weights, means and scales must be 2-d [elements, K] of one shape, "
            f"got {weights.shape}, {means.shape} and {scales.shape}"
        )
    edges = np.concatenate(([-np.inf], np.arange(alphabet.lo, alphabet.hi) + 0.5, [np.inf]))
    elements, k = weights.shape
    out = np.empty((elements, alphabet.size))
    starts = range(0, elements, _PMF_BLOCK_ROWS)
    workers = max(1, min(_usable_cpus(), _PMF_MAX_WORKERS, len(starts)))
    block = min(elements, _PMF_BLOCK_ROWS)
    scratch = [
        (
            np.empty((block, k, alphabet.size + 1)),
            np.empty((block, k, alphabet.size + 1), dtype=bool),
            np.empty((block, k, alphabet.size)),
            np.empty((block, k, alphabet.size), dtype=bool),
        )
        for _ in range(workers)
    ]

    def fill(j: int) -> None:
        for start in starts[j::workers]:
            rows = slice(start, start + _PMF_BLOCK_ROWS)
            n = min(_PMF_BLOCK_ROWS, elements - start)
            t, above, p, straddle = (a[:n] for a in scratch[j])
            np.subtract(edges, means[rows, :, None], out=t)  # t = (e - mu) / sigma, [n, K, A + 1]
            t /= scales[rows, :, None]
            g = _signed_tail(t, above, lambda u: T._ndtr64(u, out=u))
            np.subtract(g[:, :, 1:], g[:, :, :-1], out=p)
            np.greater(above[:, :, 1:], above[:, :, :-1], out=straddle)
            p += straddle
            p *= weights[rows, :, None]
            np.sum(p, axis=1, out=out[rows])

    if workers == 1:
        fill(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(workers)))
    return out


def _softplus_inv(y: float) -> float:
    return float(np.log(np.expm1(y)))


class FactorizedPrior:
    """Learnable per-channel cumulative built from monotone affine stages.

    Each channel owns a tiny monotone network 1 -> hidden -> ... -> 1
    (positive weights via softplus, tanh-gated residual terms), squashed
    by a sigmoid into a strictly increasing cumulative on (0, 1).
    """

    def __init__(self, tensors: dict[str, Tensor]):
        """The prior over the entries of ``tensors`` that :meth:`param_shapes` names; others are ignored."""
        self.channels = tensors["prior.w0"].shape[0]
        self.tensors = {name: tensors[name] for name in self.param_shapes(self.channels)}

    @staticmethod
    def param_shapes(channels: int) -> dict[str, tuple[int, ...]]:
        """Name and shape of every tensor in file order: per stage i a slope matrix
        ``prior.w{i}``, a bias ``prior.b{i}`` and, below the top stage, a gate ``prior.f{i}``."""
        dims = [1] + [_PRIOR_HIDDEN] * (_PRIOR_DEPTH - 1) + [1]
        shapes: dict[str, tuple[int, ...]] = {}
        for i in range(_PRIOR_DEPTH):
            shapes[f"prior.w{i}"] = (channels, dims[i + 1], dims[i])
            shapes[f"prior.b{i}"] = (channels, dims[i + 1], 1)
            if i < _PRIOR_DEPTH - 1:
                shapes[f"prior.f{i}"] = (channels, dims[i + 1], 1)
        return shapes

    @classmethod
    def init(cls, channels: int, rng: np.random.Generator) -> "FactorizedPrior":
        """Fresh prior: equal slopes of total gain _PRIOR_INIT_SCALE, U(-1/2, 1/2) biases, closed gates."""
        scale = _PRIOR_INIT_SCALE ** (1.0 / _PRIOR_DEPTH)
        tensors = {}
        for name, shape in cls.param_shapes(channels).items():
            if name.startswith("prior.w"):
                data = np.full(shape, _softplus_inv(1.0 / (scale * shape[1])))
            elif name.startswith("prior.b"):
                data = rng.uniform(-0.5, 0.5, size=shape)
            else:
                data = np.zeros(shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(tensors)

    def cumulative(self, t: Tensor) -> Tensor:
        """Cumulative at ``t`` of shape [channels, M]: the sigmoid of each channel's monotone network."""
        c, m = t.shape
        h = T.reshape(t, (c, 1, m))
        for i in range(_PRIOR_DEPTH):
            w = self.tensors[f"prior.w{i}"]
            _, d_out, d_in = w.shape
            sp = T.broadcast_to(T.reshape(T.softplus(w), (c, d_out, d_in, 1)), (c, d_out, d_in, m))
            hb = T.broadcast_to(T.reshape(h, (c, 1, d_in, m)), (c, d_out, d_in, m))
            a = T.reduce_sum(sp * hb, axis=2) + T.broadcast_to(self.tensors[f"prior.b{i}"], (c, d_out, m))
            f = self.tensors.get(f"prior.f{i}")
            if f is not None:
                a = a + T.broadcast_to(T.tanh(f), (c, d_out, m)) * T.tanh(a)
            h = a
        return T.sigmoid(T.reshape(h, (c, m)))

    def prob(self, values: Tensor, alphabet: Alphabet | None = None) -> Tensor:
        """Bin probability of integer-valued ``values`` [channels, M].

        With an alphabet the tails fold as in the mixtures: the lower edge
        of lo is -inf (cumulative 0) and the upper edge of hi is +inf
        (cumulative 1).
        """
        if alphabet is not None:
            alphabet.check(values.data)
        upper = self.cumulative(values + 0.5)
        lower = self.cumulative(values - 0.5)
        if alphabet is not None:
            dtype = values.data.dtype
            at_hi = (values.data == alphabet.hi).astype(dtype)
            upper = upper * Tensor(1.0 - at_hi) + Tensor(at_hi)
            lower = lower * Tensor((values.data != alphabet.lo).astype(dtype))
        return upper - lower

    def pmf(self, alphabet: Alphabet) -> np.ndarray:
        """Per-channel PMF table [channels, alphabet.size]."""
        v = np.tile(alphabet.values(), (self.channels, 1))
        return self.prob(Tensor(v), alphabet).data


def rate_bits(
    params_or_prior, values: Tensor, alphabet: Alphabet | None = None, *, floor_hits: list[int] | None = None
) -> Tensor:
    """Total code length in bits: sum of -log2 p(v) over all [N, C, H, W] ``values``.

    Differentiable through the parameters; probabilities are floored at
    LIKELIHOOD_FLOOR before the log, since early mixture training can
    underflow on outliers. When ``floor_hits`` is given, the number of
    probabilities below the floor is appended to it.
    """
    if isinstance(params_or_prior, FactorizedPrior):
        n, c, h, w = values.shape
        p = params_or_prior.prob(T.reshape(T.permute(values, (1, 0, 2, 3)), (c, n * h * w)), alphabet)
    else:
        p = mixture_prob(params_or_prior, values, alphabet)
    if floor_hits is not None:
        floor_hits.append(int(np.count_nonzero(p.data < LIKELIHOOD_FLOOR)))
    return T.reduce_sum(T.log(T.clamp(p, lo=LIKELIHOOD_FLOOR))) * (-1.0 / _LN2)
