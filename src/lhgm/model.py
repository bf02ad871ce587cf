"""Two-scale hyperprior network with Gaussian-mixture parameter heads.

The analysis transform maps raw RGB (values 0..255) to latents y at 1/4
resolution; the hyper transform maps y to hyper-latents z at 1/16. The
synthesis side predicts a K-component mixture per sub-pixel, the hyper
synthesis (optionally fused with a causal masked-convolution context over
decoded latents) predicts a mixture per latent element, and z is modeled
by the learnable factorized prior.

The residual-learning internals of the transforms are a deliberately
small default: two stride-2 stages per scale, one residual connection
around each stride-1 convolution, 1x1 projection heads. Upsampling stages
use even 4-tap transposed-convolution kernels so strided down/up pairs
restore spatial dims exactly.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .distributions import SIGMA_MIN, FactorizedPrior, MixtureParams
from .tensor import Tensor

WEIGHTS_MAGIC = b"LHGW"
WEIGHTS_VERSION = 1

# Pixel-side scales get a fixed multiplicative span so a few raw units of
# head movement cover the decades between "constant patch" (~0.2) and
# "noise patch" (~70); raw head outputs start at sigma_x ~ 8, sigma_y ~ 1.
_SCALE_SPAN_X = 32.0
_SCALE_BIAS_X = float(np.log(np.expm1(8.0 / _SCALE_SPAN_X)))
_SCALE_BIAS_Y = float(np.log(np.expm1(1.0)))

_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


@dataclass
class ModelConfig:
    """Architecture hyperparameters; mixture_k=3 is the documented default."""

    hidden: int = 32
    hidden2: int = 64
    ctx_hidden: int = 32
    latent_channels: int = 32
    hyper_channels: int = 16
    mixture_k: int = 3
    context_model: bool = True
    lrelu_slope: float = 0.2

    def __post_init__(self):
        if self.mixture_k < 1:
            raise ValueError("mixture_k must be >= 1")

    @classmethod
    def tiny(cls, context_model: bool = True) -> "ModelConfig":
        """Desk-scale config that trains in minutes on 32x32 patches."""
        return cls(hidden=8, hidden2=16, ctx_hidden=8, latent_channels=8, hyper_channels=4,
                   mixture_k=3, context_model=context_model)

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed model config line: {raw!r}")
            key = key.strip()
            value = value.strip()
            if key not in types:
                raise ValueError(f"unknown model config key {key!r}")
            if types[key] == "bool":
                flag = _BOOLS.get(value.lower())
                if flag is None:
                    raise ValueError(f"bad bool in model config line: {raw!r}")
                kwargs[key] = flag
            elif types[key] == "int":
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)


@dataclass
class ForwardOutputs:
    """Quantized (or noise-proxied) latents plus the mixture parameter planes.

    Carries the factorized prior so the loss can rate z without reaching
    back into the weights object.
    """

    y_q: Tensor
    z_q: Tensor
    params_x: MixtureParams
    params_y: MixtureParams
    prior: FactorizedPrior


class ModelWeights:
    """All learnable tensors, keyed by layer name, plus the factorized prior."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor], prior: FactorizedPrior):
        self.config = config
        self.tensors = tensors
        self.prior = prior

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.tensors)

    def serialize(self) -> bytes:
        out = bytearray()
        out += WEIGHTS_MAGIC
        out += struct.pack("<B", WEIGHTS_VERSION)
        cfg = self.config.to_text().encode("utf-8")
        out += struct.pack("<I", len(cfg))
        out += cfg
        out += struct.pack("<I", len(self.tensors))
        for name, t in self.tensors.items():
            nb = name.encode("utf-8")
            out += struct.pack("<H", len(nb))
            out += nb
            out += struct.pack("<B", t.ndim)
            for d in t.shape:
                out += struct.pack("<I", d)
            out += t.data.astype("<f8").tobytes()
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "ModelWeights":
        """Inverse of :meth:`serialize`; a cut, padded or inconsistent blob raises ValueError."""
        if data[:4] != WEIGHTS_MAGIC:
            raise ValueError("not a weights file (bad magic)")
        pos = 4

        def take(size: int) -> bytes:
            nonlocal pos
            if pos + size > len(data):
                raise ValueError(f"weights file truncated: {len(data)} bytes, needs at least {pos + size}")
            pos += size
            return data[pos - size : pos]

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        (version,) = unpack("<B")
        if version != WEIGHTS_VERSION:
            raise ValueError(f"unsupported weights version {version}")
        (cfg_len,) = unpack("<I")
        config = ModelConfig.from_text(take(cfg_len).decode("utf-8"))
        (count,) = unpack("<I")
        weights = init_weights(config, seed=0)
        if count != len(weights.tensors):
            raise ValueError(f"weights file has {count} tensors, expected {len(weights.tensors)}")
        loaded = set()
        for _ in range(count):
            (name_len,) = unpack("<H")
            name = take(name_len).decode("utf-8")
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if name not in weights.tensors:
                raise ValueError(f"unexpected tensor {name!r} in weights file")
            if name in loaded:
                raise ValueError(f"tensor {name!r} appears twice in weights file")
            if weights.tensors[name].shape != tuple(shape):
                raise ValueError(f"tensor {name!r} has shape {tuple(shape)}, expected {weights.tensors[name].shape}")
            weights.tensors[name].data = arr.astype(np.float64).copy()
            loaded.add(name)
        if pos != len(data):
            raise ValueError(f"weights file has {len(data) - pos} trailing bytes")
        return weights

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.serialize())

    @classmethod
    def load(cls, path) -> "ModelWeights":
        with open(path, "rb") as f:
            return cls.deserialize(f.read())

    def digest8(self) -> bytes:
        return hashlib.sha256(self.serialize()).digest()[:8]


def _conv_param(rng, name, tensors, o, c, kh, kw):
    std = np.sqrt(2.0 / (c * kh * kw))
    tensors[f"{name}.w"] = Tensor(rng.normal(0.0, std, size=(o, c, kh, kw)), requires_grad=True)
    tensors[f"{name}.b"] = Tensor(np.zeros(o), requires_grad=True)


def _tconv_param(rng, name, tensors, ci, co, kh, kw):
    std = np.sqrt(2.0 / (ci * kh * kw))
    tensors[f"{name}.w"] = Tensor(rng.normal(0.0, std, size=(ci, co, kh, kw)), requires_grad=True)
    tensors[f"{name}.b"] = Tensor(np.zeros(co), requires_grad=True)


def init_weights(config: ModelConfig, seed) -> ModelWeights:
    """Fresh weights; ``seed`` is an int or a numpy SeedSequence."""
    rng = np.random.default_rng(seed)
    h1, h2 = config.hidden, config.hidden2
    cy, cz, k = config.latent_channels, config.hyper_channels, config.mixture_k
    t: dict[str, Tensor] = {}

    _conv_param(rng, "ga0", t, h1, 3, 3, 3)
    _conv_param(rng, "ga1", t, h1, h1, 3, 3)
    _conv_param(rng, "ga2", t, h2, h1, 3, 3)
    _conv_param(rng, "ga3", t, h2, h2, 3, 3)
    _conv_param(rng, "ga4", t, cy, h2, 1, 1)

    _conv_param(rng, "ha0", t, h1, cy, 3, 3)
    _conv_param(rng, "ha1", t, cz, h1, 3, 3)

    _tconv_param(rng, "hs0", t, cz, h1, 4, 4)
    _tconv_param(rng, "hs1", t, h1, h1, 4, 4)
    _conv_param(rng, "hh", t, 3 * k * cy, h1, 1, 1)
    t["hh.b"].data[2 * k * cy :] = _SCALE_BIAS_Y

    _conv_param(rng, "ctx", t, config.ctx_hidden, cy, 5, 5)
    _conv_param(rng, "fu0", t, h2, h1 + config.ctx_hidden, 1, 1)
    _conv_param(rng, "fu1", t, 3 * k * cy, h2, 1, 1)
    t["fu1.b"].data[2 * k * cy :] = _SCALE_BIAS_Y

    _conv_param(rng, "gs0", t, h2, cy, 1, 1)
    _conv_param(rng, "gs1", t, h2, h2, 3, 3)
    _tconv_param(rng, "gs2", t, h2, h1, 4, 4)
    _conv_param(rng, "gs3", t, h1, h1, 3, 3)
    _tconv_param(rng, "gs4", t, h1, h1, 4, 4)
    _conv_param(rng, "gs5", t, 3 * k * 3, h1, 1, 1)
    t["gs5.b"].data[2 * k * 3 :] = _SCALE_BIAS_X

    prior = FactorizedPrior(cz, rng=rng)
    t.update(prior.parameters())
    return ModelWeights(config, t, prior)


def _lrelu(x: Tensor, w: ModelWeights) -> Tensor:
    return T.leaky_relu(x, w.config.lrelu_slope)


def _conv(x, w, name, stride=1, padding=0):
    return T.conv2d(x, w[f"{name}.w"], w[f"{name}.b"], stride=stride, padding=padding)


def _tconv(x, w, name, stride=2, padding=1):
    return T.conv2d_transposed(x, w[f"{name}.w"], w[f"{name}.b"], stride=stride, padding=padding)


def split_mixture(raw: Tensor, k: int, c: int, pixel: bool) -> MixtureParams:
    """Split a 3*K*C-channel head output into normalized mixture parameters.

    Channel layout: [K*C weight logits | K*C means | K*C scale raws], each
    block ordered component-major. Pixel-side means are mapped from network
    units into [0, 255]-centered pixel units.
    """
    n, ch, h, w_ = raw.shape
    if ch != 3 * k * c:
        raise ValueError(f"head emitted {ch} channels, expected {3 * k * c}")
    kc = k * c
    logits = T.reshape(T.narrow(raw, 1, 0, kc), (n, k, c, h, w_))
    means = T.reshape(T.narrow(raw, 1, kc, kc), (n, k, c, h, w_))
    raw_s = T.reshape(T.narrow(raw, 1, 2 * kc, kc), (n, k, c, h, w_))
    scales = T.softplus(raw_s)
    if pixel:
        means = 127.5 + 127.5 * means
        scales = scales * _SCALE_SPAN_X
    return MixtureParams(
        weights=T.softmax(logits, axis=1),
        means=means,
        scales=scales + SIGMA_MIN,
    )


def _check_divisible(h: int, w: int, factor: int, where: str) -> None:
    if h % factor or w % factor:
        raise ValueError(f"{where}: spatial dims {h}x{w} not divisible by {factor} (codec pads inputs)")


def analysis(x: Tensor, w: ModelWeights) -> Tensor:
    """g_a: raw pixels [N,3,H,W] -> latents [N,Cy,H/4,W/4]. Needs H,W % 16 == 0."""
    n, c, h, wd = x.shape
    if c != 3:
        raise ValueError(f"analysis expects RGB input, got {c} channels")
    _check_divisible(h, wd, 16, "analysis")
    t = x * (1.0 / 127.5) - 1.0
    a = _lrelu(_conv(t, w, "ga0", stride=2, padding=1), w)
    a = _lrelu(a + _conv(a, w, "ga1", stride=1, padding=1), w)
    a = _lrelu(_conv(a, w, "ga2", stride=2, padding=1), w)
    a = _lrelu(a + _conv(a, w, "ga3", stride=1, padding=1), w)
    return _conv(a, w, "ga4")


def hyper_analysis(y: Tensor, w: ModelWeights) -> Tensor:
    """h_a: latents -> hyper-latents [N,Cz,H/16,W/16]."""
    _, _, h, wd = y.shape
    _check_divisible(h, wd, 4, "hyper_analysis")
    b = _lrelu(_conv(y, w, "ha0", stride=2, padding=1), w)
    return _conv(b, w, "ha1", stride=2, padding=1)


def hyper_trunk(z_q: Tensor, w: ModelWeights) -> Tensor:
    """h_s feature stack; spatially matches y after two 2x upsamplings."""
    f = _lrelu(_tconv(z_q, w, "hs0"), w)
    return _lrelu(_tconv(f, w, "hs1"), w)


def context_fuse(y_q: Tensor, hyper_feat: Tensor, w: ModelWeights) -> MixtureParams:
    """Fuse causal masked-conv features over decoded y with hyper features.

    One mask-A convolution feeds two 1x1 fusion convolutions, so parameters
    at raster position i depend only on y elements strictly before i (plus z).
    """
    cfg = w.config
    if not cfg.context_model:
        raise ValueError("context_fuse called but the context model is disabled")
    ctx = T.masked_conv2d(y_q, w["ctx.w"], bias=w["ctx.b"])
    f = _lrelu(_conv(T.concat([hyper_feat, ctx], axis=1), w, "fu0"), w)
    raw = _conv(f, w, "fu1")
    return split_mixture(raw, cfg.mixture_k, cfg.latent_channels, pixel=False)


def y_mixture_params(y_q: Tensor, hyper_feat: Tensor, w: ModelWeights, context: bool) -> MixtureParams:
    """Latent entropy parameters for either context flag, from shared features."""
    cfg = w.config
    if context:
        return context_fuse(y_q, hyper_feat, w)
    raw = _conv(hyper_feat, w, "hh")
    return split_mixture(raw, cfg.mixture_k, cfg.latent_channels, pixel=False)


def synthesis(y_q: Tensor, w: ModelWeights) -> MixtureParams:
    """g_s: decoded latents -> per-sub-pixel mixture parameters at H x W."""
    s = _lrelu(_conv(y_q, w, "gs0"), w)
    s = _lrelu(s + _conv(s, w, "gs1", stride=1, padding=1), w)
    s = _lrelu(_tconv(s, w, "gs2"), w)
    s = _lrelu(s + _conv(s, w, "gs3", stride=1, padding=1), w)
    s = _lrelu(_tconv(s, w, "gs4"), w)
    raw = _conv(s, w, "gs5")
    return split_mixture(raw, w.config.mixture_k, 3, pixel=True)


def quantize_train(v: Tensor, rng: np.random.Generator) -> Tensor:
    """Additive U(-1/2, 1/2) noise; the gradient passes through unchanged."""
    return v + Tensor(rng.uniform(-0.5, 0.5, size=v.shape))


def quantize_infer(v: Tensor) -> Tensor:
    """Deterministic rounding, ties away from zero (must match the coder)."""
    return Tensor(T.round_half_away(v.data))


def forward(x: Tensor, w: ModelWeights, mode: str, rng: np.random.Generator | None = None) -> ForwardOutputs:
    """Full pipeline. Noise draw order is fixed (y first, then z)."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    y = analysis(x, w)
    z = hyper_analysis(y, w)
    if mode == "train":
        if rng is None:
            raise ValueError("train mode requires an rng for the quantization noise")
        y_q = quantize_train(y, rng)
        z_q = quantize_train(z, rng)
    else:
        y_q = quantize_infer(y)
        z_q = quantize_infer(z)
    feat = hyper_trunk(z_q, w)
    params_y = y_mixture_params(y_q, feat, w, w.config.context_model)
    params_x = synthesis(y_q, w)
    return ForwardOutputs(y_q=y_q, z_q=z_q, params_x=params_x, params_y=params_y, prior=w.prior)
