"""Integer range coder with exact reversibility and near-entropy output.

State is a 64-bit (low, range) pair with 16-bit symbol probabilities and
byte-wise renormalization, so per-symbol truncation waste is below
2^-40 bits. Carries propagate directly into the in-memory output buffer.

Stream byte format (frozen, version-independent of the container):

    [renormalization bytes, big-endian, most significant first]
    [8 flush bytes: the remaining 64 bits of `low`, big-endian]
    [4 bytes: CRC-32 of the symbol payload (symbols as little-endian
     uint32), big-endian]

A decoder therefore consumes exactly ``len(payload) - 4`` bytes while
decoding and verifies the trailing checksum; any mismatch, exhausted
buffer, or out-of-range cumulative value raises CorruptStreamError
instead of returning wrong symbols.

CDF tables are integer cumulative frequencies c[0..n] with c[0] = 0,
c[n] = 2^16, strictly increasing (every symbol has frequency >= 1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CorruptStreamError

PRECISION = 16
TOTAL = 1 << PRECISION
_MASK64 = (1 << 64) - 1
_TOP = 1 << 56
# Largest |row sum - 1| a pmf row may show before quantization rejects it.
SUM_TOLERANCE = 1e-5
# Rows per quantize_cdf_batch block. Rows are independent, so the result
# does not depend on it; on a 96x96 image's 27648 rows, 64 to 1024 ran
# equally fast and 512 rows keep the scratch near 2 MB.
_CDF_BLOCK_ROWS = 512

# A CDF provider maps (symbol index, previously coded symbols) to the
# cumulative table for that symbol. Decoding is pull-driven: the provider
# may depend on every earlier symbol, which is what the autoregressive
# context model requires.
CdfProvider = Callable[[int, Sequence[int]], np.ndarray]


@dataclass
class EncodedStream:
    payload: bytes
    count: int


def quantize_cdf(pmf: np.ndarray) -> np.ndarray:
    """Quantize one pmf to an exact-total-2^16 cumulative table."""
    return quantize_cdf_batch(np.asarray(pmf, dtype=np.float64)[None, :])[0]


def quantize_cdf_batch(pmfs: np.ndarray) -> np.ndarray:
    """Row-wise pmf quantization; returns int64 cumulatives [rows, n+1].

    Frequencies are rounded to a total of 2^16 with every symbol floored
    at frequency 1; the rounding residual is absorbed by the largest bin.
    Rows where that would push the largest bin below 1 fall back to a
    largest-remainder apportionment. Both paths are deterministic. Rows
    are quantized _CDF_BLOCK_ROWS at a time into the preallocated result,
    so scratch memory does not grow with the row count.
    """
    pmfs = np.asarray(pmfs, dtype=np.float64)
    if pmfs.ndim != 2:
        raise ValueError("expected 2-d array of pmf rows")
    n = pmfs.shape[1]
    if n < 2 or n > TOTAL:
        raise ValueError(f"pmf length must be in [2, {TOTAL}], got {n}")
    cdf = np.zeros((pmfs.shape[0], n + 1), dtype=np.int64)
    for start in range(0, pmfs.shape[0], _CDF_BLOCK_ROWS):
        rows = slice(start, start + _CDF_BLOCK_ROWS)
        np.cumsum(_frequencies(pmfs[rows]), axis=1, out=cdf[rows, 1:])
    return cdf


def _frequencies(pmfs: np.ndarray) -> np.ndarray:
    """Validated pmf rows -> int64 frequencies, each >= 1, summing to TOTAL per row."""
    n = pmfs.shape[1]
    if np.any(pmfs < -1e-12):
        raise ValueError("pmf entries must be non-negative")
    sums = pmfs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > SUM_TOLERANCE):
        raise ValueError(f"pmf rows must sum to 1 within {SUM_TOLERANCE}")

    freqs = np.rint(pmfs * TOTAL).astype(np.int64)
    np.maximum(freqs, 1, out=freqs)
    delta = TOTAL - freqs.sum(axis=1)
    jmax = np.argmax(freqs, axis=1)
    rows = np.arange(pmfs.shape[0])
    adjusted = freqs[rows, jmax] + delta
    ok = adjusted >= 1
    freqs[rows[ok], jmax[ok]] = adjusted[ok]

    for r in np.nonzero(~ok)[0]:
        scaled = pmfs[r] * (TOTAL - n)
        base = np.floor(scaled).astype(np.int64) + 1
        left = TOTAL - base.sum()
        order = np.argsort(-(scaled - np.floor(scaled)), kind="stable")
        base[order[:left]] += 1
        freqs[r] = base
    return freqs


class _RangeEncoder:
    def __init__(self):
        self.low = 0
        self.range = _MASK64
        self.buf = bytearray()

    def encode(self, cdf: np.ndarray, sym: int) -> None:
        r = self.range >> PRECISION
        c_lo = int(cdf[sym])
        c_hi = int(cdf[sym + 1])
        self.low += r * c_lo
        self.range = r * (c_hi - c_lo)
        if self.low > _MASK64:  # carry into already-emitted bytes
            self.low &= _MASK64
            i = len(self.buf) - 1
            while self.buf[i] == 0xFF:
                self.buf[i] = 0
                i -= 1
            self.buf[i] += 1
        while self.range < _TOP:
            self.buf.append((self.low >> 56) & 0xFF)
            self.low = (self.low << 8) & _MASK64
            self.range <<= 8

    def finish(self) -> bytes:
        for _ in range(8):
            self.buf.append((self.low >> 56) & 0xFF)
            self.low = (self.low << 8) & _MASK64
        return bytes(self.buf)


class _RangeDecoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.range = _MASK64
        self.code = 0
        for _ in range(8):
            self.code = (self.code << 8) | self._byte()

    def _byte(self) -> int:
        if self.pos >= len(self.data):
            raise CorruptStreamError("range coder ran past the end of the stream")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, cdf: np.ndarray) -> int:
        r = self.range >> PRECISION
        cum = self.code // r
        if cum >= TOTAL:
            raise CorruptStreamError("cumulative value outside coder precision")
        sym = int(np.searchsorted(cdf, cum, side="right")) - 1
        if sym < 0 or sym >= len(cdf) - 1:
            raise CorruptStreamError("decoded symbol outside alphabet")
        self.code -= r * int(cdf[sym])
        self.range = r * int(cdf[sym + 1] - cdf[sym])
        if self.code >= self.range:
            raise CorruptStreamError("code drifted outside the active interval")
        while self.range < _TOP:
            self.code = ((self.code << 8) | self._byte()) & _MASK64
            self.range <<= 8
        return sym


def _symbol_crc(symbols: Sequence[int]) -> int:
    return zlib.crc32(np.asarray(symbols, dtype="<u4").tobytes()) & 0xFFFFFFFF


def encode(symbols: Sequence[int], cdfs: CdfProvider) -> EncodedStream:
    """Encode symbols against per-symbol CDFs from the pull provider."""
    enc = _RangeEncoder()
    seen: list[int] = []
    for i, sym in enumerate(symbols):
        cdf = cdfs(i, seen)
        if not 0 <= sym < len(cdf) - 1:
            raise ValueError(f"symbol {sym} outside cdf alphabet of size {len(cdf) - 1}")
        if cdf[sym + 1] <= cdf[sym]:
            raise ValueError(f"symbol {sym} has zero frequency")
        enc.encode(cdf, sym)
        seen.append(int(sym))
    payload = enc.finish() + _symbol_crc(seen).to_bytes(4, "big")
    return EncodedStream(payload=payload, count=len(seen))


def decode(stream: EncodedStream, cdfs: CdfProvider, count: int) -> list[int]:
    """Decode ``count`` symbols; raises CorruptStreamError on any damage."""
    if len(stream.payload) < 12:
        raise CorruptStreamError("stream shorter than coder flush plus checksum")
    coder_bytes = stream.payload[:-4]
    dec = _RangeDecoder(coder_bytes)
    out: list[int] = []
    for i in range(count):
        out.append(dec.decode(cdfs(i, out)))
    if dec.pos != len(coder_bytes):
        raise CorruptStreamError(
            f"stream length mismatch: consumed {dec.pos} of {len(coder_bytes)} coder bytes"
        )
    stored = int.from_bytes(stream.payload[-4:], "big")
    if _symbol_crc(out) != stored:
        raise CorruptStreamError("symbol payload checksum mismatch")
    return out


def static_provider(cdf: np.ndarray) -> CdfProvider:
    """Provider that codes every symbol with the same table."""
    return lambda i, prev: cdf


def table_provider(tables: Sequence[np.ndarray]) -> CdfProvider:
    """Provider backed by a precomputed per-symbol list of tables."""
    return lambda i, prev: tables[i]
