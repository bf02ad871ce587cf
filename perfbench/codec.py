"""Compress and decompress one RGB image with the library's public functions.

The library has no file codec yet, so the benchmark builds one here in
the order the roadmap fixes for it:

1. z, one factorized-prior table per channel (``FactorizedPrior.pmf``);
2. y in raster order: with the context model, position by position through
   ``context_fuse`` on the partly decoded plane; without it, from the
   hyperprior alone;
3. x, every sub-pixel from the ``synthesis`` mixture.

Container: a fixed header (image size, the y and z alphabet bounds and the
three stream lengths) followed by the z, y and x range-coder streams. The
header is side information and counts toward the coded bits. Images must
be 8-bit RGB with sides that are multiples of 16; the benchmark's corpus
only makes such images, so nothing is padded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from lhgm import coder as C
from lhgm import distributions as D
from lhgm import model as M
from lhgm.errors import ContainerFormatError, UnsupportedImageError
from lhgm.tensor import Tensor

HEADER = struct.Struct("<HHhhhhIII")


class Header(NamedTuple):
    """The fields of HEADER: image size, alphabet bounds, stream byte lengths."""

    height: int
    width: int
    y_lo: int
    y_hi: int
    z_lo: int
    z_hi: int
    n_z: int
    n_y: int
    n_x: int

    @property
    def y_alphabet(self) -> D.Alphabet:
        return D.Alphabet(self.y_lo, self.y_hi)

    @property
    def z_alphabet(self) -> D.Alphabet:
        return D.Alphabet(self.z_lo, self.z_hi)

    def offsets(self) -> dict[str, int]:
        """Byte offset of each stream in the container."""
        return {"z": HEADER.size, "y": HEADER.size + self.n_z, "x": HEADER.size + self.n_z + self.n_y}


@dataclass
class Streams:
    """A parsed container; ``header`` is kept so its bits can be counted."""

    header: bytes
    z: bytes
    y: bytes
    x: bytes

    def to_bytes(self) -> bytes:
        return self.header + self.z + self.y + self.x


def _symbols(values: np.ndarray, lo: int) -> list[int]:
    return (values.reshape(-1) - lo).astype(np.int64).tolist()


def _mixture_cdfs(params: D.MixtureParams, alphabet: D.Alphabet) -> np.ndarray:
    return C.quantize_cdf_batch(D.mixture_pmf(*params.flat(), alphabet))


def _position_major(rows: np.ndarray, channels: int) -> np.ndarray:
    """Reorder rows from channel-major (C, H, W) to raster-major (H, W, C)."""
    return rows.reshape(channels, -1, rows.shape[-1]).transpose(1, 0, 2).reshape(rows.shape)


def _z_provider(weights: M.ModelWeights, alphabet: D.Alphabet, per_channel: int):
    """One factorized-prior table per z channel, shared by its positions."""
    return C.table_provider(np.repeat(C.quantize_cdf_batch(weights.prior.pmf(alphabet)), per_channel, axis=0))


def compress(image: np.ndarray, weights: M.ModelWeights) -> Streams:
    """uint8 [H, W, 3] image -> header plus z, y and x streams."""
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[2] != 3:
        raise UnsupportedImageError(f"expected uint8 [H, W, 3], got {image.dtype} {image.shape}")
    height, width, _ = image.shape
    x = Tensor(image.transpose(2, 0, 1)[None].astype(np.float64))
    y = M.analysis(x, weights)
    y_q = M.quantize_infer(y)
    z_q = M.quantize_infer(M.hyper_analysis(y, weights))
    y_lo, y_hi = int(y_q.data.min()), int(y_q.data.max())
    z_lo, z_hi = int(z_q.data.min()), int(z_q.data.max())

    z_stream = C.encode(_symbols(z_q.data, z_lo),
                        _z_provider(weights, D.Alphabet(z_lo, z_hi), z_q.shape[2] * z_q.shape[3]))

    feat = M.hyper_trunk(z_q, weights)
    context = weights.config.context_model
    y_cdfs = _mixture_cdfs(M.y_mixture_params(y_q, feat, weights, context), D.Alphabet(y_lo, y_hi))
    y_values = y_q.data[0]
    if context:
        y_cdfs = _position_major(y_cdfs, y_values.shape[0])
        y_values = y_values.transpose(1, 2, 0)
    y_stream = C.encode(_symbols(y_values, y_lo), C.table_provider(y_cdfs))

    x_cdfs = _mixture_cdfs(M.synthesis(y_q, weights), D.PIXEL_ALPHABET)
    x_stream = C.encode(_symbols(x.data, 0), C.table_provider(x_cdfs))

    header = HEADER.pack(height, width, y_lo, y_hi, z_lo, z_hi,
                         len(z_stream.payload), len(y_stream.payload), len(x_stream.payload))
    return Streams(header, z_stream.payload, y_stream.payload, x_stream.payload)


def read_header(data: bytes) -> Header:
    if len(data) < HEADER.size:
        raise ContainerFormatError("container shorter than its header")
    return Header(*HEADER.unpack_from(data))


def parse(data: bytes) -> tuple[Header, Streams]:
    """Split a container into its header fields and streams."""
    h = read_header(data)
    if not h.height or not h.width or h.height % 16 or h.width % 16:
        raise ContainerFormatError(f"image size {h.height}x{h.width} is not a positive multiple of 16")
    if h.y_lo > h.y_hi or h.z_lo > h.z_hi:
        raise ContainerFormatError("alphabet bounds out of order")
    if HEADER.size + h.n_z + h.n_y + h.n_x != len(data):
        raise ContainerFormatError("stream lengths do not match the container size")
    at = h.offsets()
    return h, Streams(data[: at["z"]], data[at["z"] : at["y"]], data[at["y"] : at["x"]], data[at["x"] :])


def _decode_y_with_context(stream: bytes, feat: Tensor, weights: M.ModelWeights,
                           shape: tuple[int, ...], alphabet: D.Alphabet) -> np.ndarray:
    """Decode y position by position; each position's tables come from the plane so far."""
    _, channels, rows, cols = shape
    plane = np.zeros(shape)
    tables = [None]

    def provider(i, prev):
        pos, ch = divmod(i, channels)
        if ch == 0:
            if pos:
                r, c = divmod(pos - 1, cols)
                plane[0, :, r, c] = np.asarray(prev[-channels:]) + alphabet.lo
            r, c = divmod(pos, cols)
            params = M.context_fuse(Tensor(plane), feat, weights)
            at = [t.data[0, :, :, r, c].T for t in (params.weights, params.means, params.scales)]
            tables[0] = C.quantize_cdf_batch(D.mixture_pmf(*at, alphabet))
        return tables[0][ch]

    symbols = C.decode(C.EncodedStream(stream, channels * rows * cols), provider, channels * rows * cols)
    return (np.asarray(symbols, dtype=np.float64) + alphabet.lo).reshape(rows, cols, channels).transpose(2, 0, 1)[None]


def decompress(data: bytes, weights: M.ModelWeights) -> np.ndarray:
    """Container -> uint8 [H, W, 3]; raises a CodecError on damaged input."""
    h, streams = parse(data)
    height, width = h.height, h.width
    cfg = weights.config
    z_shape = (1, cfg.hyper_channels, height // 16, width // 16)
    y_shape = (1, cfg.latent_channels, height // 4, width // 4)

    z_count = int(np.prod(z_shape))
    z_syms = C.decode(C.EncodedStream(streams.z, z_count),
                      _z_provider(weights, h.z_alphabet, z_shape[2] * z_shape[3]), z_count)
    z_q = Tensor((np.asarray(z_syms, dtype=np.float64) + h.z_lo).reshape(z_shape))

    feat = M.hyper_trunk(z_q, weights)
    y_alpha = h.y_alphabet
    if cfg.context_model:
        y_data = _decode_y_with_context(streams.y, feat, weights, y_shape, y_alpha)
    else:
        y_count = int(np.prod(y_shape))
        y_cdfs = _mixture_cdfs(M.y_mixture_params(Tensor(np.zeros(y_shape)), feat, weights, False), y_alpha)
        y_syms = C.decode(C.EncodedStream(streams.y, y_count), C.table_provider(y_cdfs), y_count)
        y_data = (np.asarray(y_syms, dtype=np.float64) + h.y_lo).reshape(y_shape)

    x_cdfs = _mixture_cdfs(M.synthesis(Tensor(y_data), weights), D.PIXEL_ALPHABET)
    x_count = 3 * height * width
    x_syms = C.decode(C.EncodedStream(streams.x, x_count), C.table_provider(x_cdfs), x_count)
    return np.asarray(x_syms, dtype=np.uint8).reshape(3, height, width).transpose(1, 2, 0)
