"""Integer range coder with exact reversibility and near-entropy output.

State is a 64-bit interval (start ``low``, width ``span``) with 16-bit
symbol probabilities and byte-wise renormalization, so per-symbol
truncation waste is below 2^-40 bits. Carries propagate directly into the
in-memory output buffer.

Stream byte format (frozen, version-independent of the container). One
function writes it, ``encode``, and one reads it, ``decode``:

    [renormalization bytes, big-endian, most significant first]
    [8 flush bytes: the remaining 64 bits of `low`, big-endian]
    [4 bytes: CRC-32 of the symbol payload (symbols as little-endian
     uint32), big-endian]

``encode`` appends a renormalization byte whenever ``span`` falls below
2^56, then the 8 flush bytes and the checksum. ``decode`` rejects a stream
shorter than 12 bytes, fills its 64-bit code from the first 8 bytes and
reads one byte per renormalization shift, so after the last symbol it must
have consumed exactly ``len(payload) - 4`` bytes; then it checks the
trailing checksum. Any mismatch, exhausted buffer, or out-of-range
cumulative value raises CorruptStreamError instead of returning wrong
symbols.

CDF tables are integer cumulative frequencies c[0..n] with c[0] = 0,
c[n] = 2^16, strictly increasing (every symbol has frequency >= 1).
``quantize_cdf_batch`` builds them as uint32, 4 bytes per cumulative; the
coder reads any 1-D integer numpy row.
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
# cumulative table for that symbol: a 1-D integer numpy row, such as a row
# of quantize_cdf_batch's uint32 result. Decoding is pull-driven: the
# provider may depend on every earlier symbol, which is what the
# autoregressive context model requires.
CdfProvider = Callable[[int, Sequence[int]], np.ndarray]


@dataclass
class EncodedStream:
    payload: bytes
    count: int


def quantize_cdf_batch(pmfs: np.ndarray) -> np.ndarray:
    """Row-wise pmf quantization; returns uint32 cumulatives [rows, n+1].

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
    if n < 1 or n > TOTAL:
        raise ValueError(f"pmf length must be in [1, {TOTAL}], got {n}")
    cdf = np.zeros((pmfs.shape[0], n + 1), dtype=np.uint32)
    for start in range(0, pmfs.shape[0], _CDF_BLOCK_ROWS):
        rows = slice(start, start + _CDF_BLOCK_ROWS)
        np.cumsum(_frequencies(pmfs[rows]), axis=1, out=cdf[rows, 1:])
    return cdf


def _frequencies(pmfs: np.ndarray) -> np.ndarray:
    """Validated pmf rows -> int64 frequencies, each >= 1, summing to TOTAL per row."""
    n = pmfs.shape[1]
    if not np.isfinite(pmfs).all():
        raise ValueError("pmf entries must be finite")
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


def _symbol_crc(symbols: Sequence[int]) -> int:
    return zlib.crc32(np.asarray(symbols, dtype="<u4").tobytes()) & 0xFFFFFFFF


def encode(symbols: Sequence[int], cdfs: CdfProvider) -> EncodedStream:
    """Encode symbols against per-symbol CDFs from the pull provider; writes the whole stream."""
    low, span, buf = 0, _MASK64, bytearray()
    seen: list[int] = []
    for i, sym in enumerate(symbols):
        cdf = cdfs(i, seen)
        if not 0 <= sym < len(cdf) - 1:
            raise ValueError(f"symbol {sym} outside cdf alphabet of size {len(cdf) - 1}")
        c_lo, c_hi = int(cdf[sym]), int(cdf[sym + 1])
        if c_hi <= c_lo:
            raise ValueError(f"symbol {sym} has zero frequency")
        r = span >> PRECISION
        low += r * c_lo
        span = r * (c_hi - c_lo)
        if low > _MASK64:  # carry into already-emitted bytes
            low &= _MASK64
            j = len(buf) - 1
            while buf[j] == 0xFF:
                buf[j] = 0
                j -= 1
            buf[j] += 1
        while span < _TOP:
            buf.append(low >> 56)
            low = (low << 8) & _MASK64
            span <<= 8
        seen.append(int(sym))
    buf += low.to_bytes(8, "big") + _symbol_crc(seen).to_bytes(4, "big")
    return EncodedStream(payload=bytes(buf), count=len(seen))


def decode(stream: EncodedStream, cdfs: CdfProvider, count: int) -> list[int]:
    """Decode ``count`` symbols, reading the whole stream; raises CorruptStreamError on any damage."""
    data = stream.payload
    if len(data) < 12:
        raise CorruptStreamError("stream shorter than coder flush plus checksum")
    end = len(data) - 4  # the coder bytes end where the checksum starts
    code, span, pos = int.from_bytes(data[:8], "big"), _MASK64, 8
    out: list[int] = []
    for i in range(count):
        cdf = cdfs(i, out)
        r = span >> PRECISION
        cum = code // r
        if cum >= TOTAL:
            raise CorruptStreamError("cumulative value outside coder precision")
        sym = int(cdf.searchsorted(cum, "right")) - 1
        if sym < 0 or sym >= len(cdf) - 1:
            raise CorruptStreamError("decoded symbol outside alphabet")
        c_lo = int(cdf[sym])
        code -= r * c_lo
        span = r * (int(cdf[sym + 1]) - c_lo)
        if code >= span:
            raise CorruptStreamError("code drifted outside the active interval")
        while span < _TOP:
            if pos >= end:
                raise CorruptStreamError("range coder ran past the end of the stream")
            code = ((code << 8) | data[pos]) & _MASK64
            pos += 1
            span <<= 8
        out.append(sym)
    if pos != end:
        raise CorruptStreamError(f"stream length mismatch: consumed {pos} of {end} coder bytes")
    if _symbol_crc(out) != int.from_bytes(data[end:], "big"):
        raise CorruptStreamError("symbol payload checksum mismatch")
    return out


def table_provider(tables: Sequence[np.ndarray]) -> CdfProvider:
    """Provider backed by a precomputed per-symbol list of tables."""
    return lambda i, prev: tables[i]
