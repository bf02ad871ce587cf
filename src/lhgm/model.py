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
from itertools import zip_longest

import numpy as np

from . import tensor as T
from .distributions import SIGMA_MIN, FactorizedPrior, MixtureParams, _softplus_inv
from .tensor import Tensor

WEIGHTS_MAGIC = b"LHGW"
WEIGHTS_VERSION = 1

# Pixel-side scales get a fixed multiplicative span so a few raw units of
# head movement cover the decades between "constant patch" (~0.2) and
# "noise patch" (~70); raw head outputs start at sigma_x ~ 8, sigma_y ~ 1.
_SCALE_SPAN_X = 32.0
_SCALE_BIAS_X = _softplus_inv(8.0 / _SCALE_SPAN_X)
_SCALE_BIAS_Y = _softplus_inv(1.0)


FIELD_TYPES = {"int": int, "float": float, "bool": bool}  # by the annotation of a config field


def check_fields(config, label: str, least: dict[str, int]) -> None:
    """The field rule of both configs: each field holds exactly its declared type (so an int field takes
    no bool), and each int or float field is finite and at least ``least[name]`` when ``least`` names it."""
    for f in fields(config):
        value, bound = getattr(config, f.name), least.get(f.name, -math.inf)
        if type(value) is not FIELD_TYPES[f.type]:
            raise ValueError(f"{label} {f.name} must be {f.type}, got {value!r}")
        if f.type != "bool" and not (abs(value) < math.inf and value >= bound):  # exact for an int of any size
            raise ValueError(f"{label} {f.name} must be finite and >= {bound}, got {value}")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; mixture_k=3 is the documented default. Field rule
    (:func:`check_fields`): exactly the declared types, every int >= 1, ``lrelu_slope`` any finite float."""

    hidden: int = 32
    hidden2: int = 64
    ctx_hidden: int = 32
    latent_channels: int = 32
    hyper_channels: int = 16
    mixture_k: int = 3
    context_model: bool = True
    lrelu_slope: float = 0.2

    def __post_init__(self):
        check_fields(self, "model config", {f.name: 1 for f in fields(self) if f.type == "int"})

    @classmethod
    def tiny(cls, context_model: bool = True) -> "ModelConfig":
        """Desk-scale config that trains in minutes on 32x32 patches."""
        return cls(hidden=8, hidden2=16, ctx_hidden=8, latent_channels=8, hyper_channels=4,
                   mixture_k=3, context_model=context_model)

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        """Inverse of :meth:`to_text`: parses each line by its field's type, then checks the round trip.

        An unknown or repeated key raises, and so does any text the config does not write back exactly
        (a missing key, a bad bool, reordered lines, ``hidden = 032``), naming the first line that differs."""
        types = {f.name: FIELD_TYPES[f.type] for f in fields(cls)}
        kwargs = {}
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            if key not in types or key in kwargs:
                raise ValueError(f"unknown or repeated model config key {key!r}")
            try:
                kwargs[key] = value == "True" if types[key] is bool else types[key](value)
            except ValueError:
                raise ValueError(f"model config {key} must be {types[key].__name__}, got {value!r}") from None
        config = cls(**kwargs)
        for got, want in zip_longest(text.splitlines(True), config.to_text().splitlines(True), fillvalue=""):
            if got != want:
                raise ValueError(f"model config text is not in to_text order and spelling: {got!r}, expected {want!r}")
        return config


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
    """All learnable tensors, keyed by layer name, and the factorized prior it builds from their ``prior.*`` ones."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors
        self.prior = FactorizedPrior(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

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
        """Inverse of :meth:`serialize`; a cut, padded, inconsistent or non-finite blob raises ValueError.

        The file holds the tensors of :func:`param_shapes` of the blob's
        config, in that order. Each tensor's name and shape must equal the
        expected pair before its values are read, and its values are copied
        once out of the blob. Besides the blob, a load therefore holds at
        most the arrays read so far, fewer bytes than the blob, whatever
        sizes the config text names. An accepted blob holds only finite
        values and is the :meth:`serialize` of the weights it loads to.
        """
        if data[:4] != WEIGHTS_MAGIC:
            raise ValueError("not a weights file (bad magic)")
        view = memoryview(data)
        pos = 4

        def take(size: int) -> memoryview:
            nonlocal pos
            if pos + size > len(view):
                raise ValueError(f"weights file truncated: {len(view)} bytes, needs at least {pos + size}")
            pos += size
            return view[pos - size : pos]

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        (version,) = unpack("<B")
        if version != WEIGHTS_VERSION:
            raise ValueError(f"unsupported weights version {version}")
        (cfg_len,) = unpack("<I")
        config = ModelConfig.from_text(str(take(cfg_len), "utf-8"))
        shapes = param_shapes(config)
        (count,) = unpack("<I")
        if count != len(shapes):
            raise ValueError(f"weights file has {count} tensors, expected {len(shapes)}")
        tensors: dict[str, Tensor] = {}
        for i, (want_name, want_shape) in enumerate(shapes.items()):
            (name_len,) = unpack("<H")
            name = str(take(name_len), "utf-8")
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            if (name, shape) != (want_name, want_shape):
                raise ValueError(f"weights file tensor {i} is {name!r} of shape {shape}, "
                                 f"expected {want_name!r} of shape {want_shape}")
            arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if not np.isfinite(arr).all():
                raise ValueError(f"weights file tensor {i} {name!r} holds a NaN or infinite value")
            tensors[name] = Tensor(arr.astype(np.float64), requires_grad=True)
        if pos != len(view):
            raise ValueError(f"weights file has {len(view) - pos} trailing bytes")
        return cls(config, tensors)

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.serialize())

    def digest8(self) -> bytes:
        return hashlib.sha256(self.serialize()).digest()[:8]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every learnable tensor, in the order of init and of the weights file.

    Each kernel is followed by its bias. A convolution kernel is
    [out, in, k, k] with odd k; a transposed convolution's is [in, out, 4, 4]
    (the even 4-tap upsamplers). The factorized prior's tensors come last.
    """
    h1, h2 = config.hidden, config.hidden2
    cy, cz, k = config.latent_channels, config.hyper_channels, config.mixture_k
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name, o, c, size):
        shapes[f"{name}.w"] = (o, c, size, size)
        shapes[f"{name}.b"] = (o,)

    def tconv(name, ci, co):
        shapes[f"{name}.w"] = (ci, co, 4, 4)
        shapes[f"{name}.b"] = (co,)

    conv("ga0", h1, 3, 3)
    conv("ga1", h1, h1, 3)
    conv("ga2", h2, h1, 3)
    conv("ga3", h2, h2, 3)
    conv("ga4", cy, h2, 1)

    conv("ha0", h1, cy, 3)
    conv("ha1", cz, h1, 3)

    tconv("hs0", cz, h1)
    tconv("hs1", h1, h1)
    conv("hh", 3 * k * cy, h1, 1)

    conv("ctx", config.ctx_hidden, cy, 5)
    conv("fu0", h2, h1 + config.ctx_hidden, 1)
    conv("fu1", 3 * k * cy, h2, 1)

    conv("gs0", h2, cy, 1)
    conv("gs1", h2, h2, 3)
    tconv("gs2", h2, h1)
    conv("gs3", h1, h1, 3)
    tconv("gs4", h1, h1)
    conv("gs5", 3 * k * 3, h1, 1)

    shapes.update(FactorizedPrior.param_shapes(cz))
    return shapes


def init_weights(config: ModelConfig, seed) -> ModelWeights:
    """Fresh weights; ``seed`` is an int or a numpy SeedSequence.

    Kernels are drawn He-normal over their fan-in, in :func:`param_shapes`
    order; biases start at 0 except the scale blocks of the three heads;
    the factorized prior draws last.
    """
    rng = np.random.default_rng(seed)
    t: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("prior."):
            continue
        if name.endswith(".w"):
            # an even side marks a transposed kernel (the x2 upsampler of lhgm.tensor), whose input channels lead
            fan_in = (shape[0] if shape[2] % 2 == 0 else shape[1]) * shape[2] * shape[3]
            data = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        else:
            data = np.zeros(shape)
        t[name] = Tensor(data, requires_grad=True)
    for head, scale_bias in (("hh", _SCALE_BIAS_Y), ("fu1", _SCALE_BIAS_Y), ("gs5", _SCALE_BIAS_X)):
        b = t[f"{head}.b"].data
        b[2 * b.size // 3 :] = scale_bias  # the scale block, last of a head's three (see split_mixture)

    t.update(FactorizedPrior.init(config.hyper_channels, rng).tensors)
    return ModelWeights(config, t)


def _lrelu(x: Tensor, w: ModelWeights) -> Tensor:
    return T.leaky_relu(x, w.config.lrelu_slope)


def _conv(x, w, name, stride=1):
    return T.conv2d(x, w[f"{name}.w"], w[f"{name}.b"], stride=stride)


def _tconv(x, w, name):
    return T.conv2d_transposed(x, w[f"{name}.w"], w[f"{name}.b"])


def split_mixture(raw: Tensor, k: int, c: int, pixel: bool) -> MixtureParams:
    """Split a 3*K*C-channel head output into normalized mixture parameters.

    Channel layout: [K*C weight logits | K*C means | K*C scale raws], each
    block ordered component-major. Pixel-side means are mapped from network
    units into [0, 255]-centered pixel units.
    """
    n, _, h, w_ = raw.shape
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


def analysis(x: Tensor, w: ModelWeights) -> Tensor:
    """g_a: raw pixels [N,3,H,W] -> latents [N,Cy,H/4,W/4]. Needs H,W % 16 == 0, so y's sides are multiples of 4."""
    h, wd = x.shape[2:]
    if h % 16 or wd % 16:
        raise ValueError(f"analysis: spatial dims {h}x{wd} not divisible by 16 (inputs are not padded)")
    t = x * (1.0 / 127.5) - 1.0
    a = _lrelu(_conv(t, w, "ga0", stride=2), w)
    a = _lrelu(a + _conv(a, w, "ga1"), w)
    a = _lrelu(_conv(a, w, "ga2", stride=2), w)
    a = _lrelu(a + _conv(a, w, "ga3"), w)
    return _conv(a, w, "ga4")


def hyper_analysis(y: Tensor, w: ModelWeights) -> Tensor:
    """h_a: latents from :func:`analysis` -> hyper-latents [N,Cz,H/16,W/16]."""
    b = _lrelu(_conv(y, w, "ha0", stride=2), w)
    return _conv(b, w, "ha1", stride=2)


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
    s = _lrelu(s + _conv(s, w, "gs1"), w)
    s = _lrelu(_tconv(s, w, "gs2"), w)
    s = _lrelu(s + _conv(s, w, "gs3"), w)
    s = _lrelu(_tconv(s, w, "gs4"), w)
    raw = _conv(s, w, "gs5")
    return split_mixture(raw, w.config.mixture_k, 3, pixel=True)


def quantize_train(v: Tensor, rng: np.random.Generator) -> Tensor:
    """Additive U(-1/2, 1/2) noise in ``v``'s dtype, drawn in float64; the gradient passes through unchanged."""
    return v + Tensor(rng.uniform(-0.5, 0.5, size=v.shape).astype(v.data.dtype, copy=False))


def quantize_infer(v: Tensor) -> Tensor:
    """Deterministic rounding, ties away from zero (2.5 -> 3, -2.5 -> -3); must match the coder."""
    return Tensor(np.copysign(np.floor(np.abs(v.data) + 0.5), v.data))


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
