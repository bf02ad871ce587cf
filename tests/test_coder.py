"""Range coder: quantization, exact reversibility, and length bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lhgm.coder as C
from lhgm.coder import EncodedStream, decode, encode, quantize_cdf_batch, table_provider
from lhgm.errors import CorruptStreamError
from oracles import int64_quantized_cdf

RNG = np.random.default_rng(99)


def row_cdf(pmf):
    """Quantized cumulative table of one pmf row."""
    return quantize_cdf_batch(np.asarray(pmf, dtype=np.float64)[None])[0]


def one_table(cdf):
    """Provider that codes every symbol with the same table."""
    return lambda i, prev: cdf


def random_cdf(rng, n):
    pmf = rng.dirichlet(np.full(n, 0.5))
    return row_cdf(pmf)


def quantized_cross_entropy_bits(symbols, cdf_list):
    bits = 0.0
    for s, cdf in zip(symbols, cdf_list):
        freq = cdf[s + 1] - cdf[s]
        bits += -np.log2(freq / C.TOTAL)
    return bits


class TestQuantizeCdf:
    def test_even_split(self):
        np.testing.assert_array_equal(row_cdf(np.array([0.5, 0.5])), [0, 32768, 65536])

    def test_zero_symbol_floored(self):
        np.testing.assert_array_equal(row_cdf(np.array([1.0, 0.0])), [0, 65535, 65536])

    def test_total_and_monotonicity_random(self):
        for n in (2, 5, 256, 1000):
            cdf = random_cdf(RNG, n)
            assert cdf[0] == 0 and cdf[-1] == C.TOTAL
            assert (np.diff(cdf) >= 1).all()

    def test_uniform_wide_row_uses_fallback(self):
        # rint rounds 65536/1000 = 65.536 up for every bin; the residual is
        # too large for the argmax fixup, exercising largest-remainder
        cdf = row_cdf(np.full(1000, 1e-3))
        assert cdf[-1] == C.TOTAL
        assert (np.diff(cdf) >= 1).all()
        freqs = np.diff(cdf)
        assert freqs.max() - freqs.min() <= 1

    def test_cross_entropy_close_on_random_256(self):
        # expected code length under the pmf vs its entropy, per symbol
        for _ in range(10):
            pmf = RNG.dirichlet(np.full(256, 1.0))
            cdf = row_cdf(pmf)
            entropy = -(pmf * np.log2(pmf)).sum()
            expected_len = -(pmf * np.log2(np.diff(cdf) / C.TOTAL)).sum()
            assert abs(expected_len - entropy) < 0.01  # bits per symbol

    def test_length_bounds_rejected(self):
        np.testing.assert_array_equal(row_cdf(np.array([1.0])), [0, C.TOTAL])
        with pytest.raises(ValueError):
            quantize_cdf_batch(np.ones((1, 0)))
        with pytest.raises(ValueError):
            quantize_cdf_batch(np.full((1, C.TOTAL + 1), 1.0 / (C.TOTAL + 1)))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            row_cdf(np.array([0.5, 0.2]))

    def test_sum_tolerance_is_the_one_named(self):
        assert C.SUM_TOLERANCE == 1e-5
        np.testing.assert_array_equal(row_cdf(np.array([0.5, 0.5 + 5e-6]))[-1], C.TOTAL)
        with pytest.raises(ValueError, match="within 1e-05"):
            row_cdf(np.array([0.5, 0.5 + 5e-5]))

    def test_batch_matches_single(self):
        pmfs = RNG.dirichlet(np.full(17, 0.7), size=25)
        batch = quantize_cdf_batch(pmfs)
        for i in range(25):
            np.testing.assert_array_equal(batch[i], row_cdf(pmfs[i]))


B = C._CDF_BLOCK_ROWS


class TestBlockedQuantize:
    """quantize_cdf_batch works block by block; every row must equal that row quantized alone."""

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_rows_equal_per_row_quantization(self, rows):
        rng = np.random.default_rng(rows)
        pmfs = rng.dirichlet(np.full(1000, 0.3), size=rows)
        # a uniform 1000-bin row rounds to 66 per bin, 464 over the total:
        # too much for the largest bin, so it takes the largest-remainder path
        fallback = [r for r in (0, B - 1, B, 2 * B - 1, 2 * B, rows - 1) if 0 <= r < rows]
        pmfs[fallback] = 1e-3
        batch = quantize_cdf_batch(pmfs)
        assert batch.shape == (rows, 1001)
        for r in range(rows):
            np.testing.assert_array_equal(batch[r], row_cdf(pmfs[r]))
        for r in fallback:
            freqs = np.diff(batch[r])
            assert freqs.max() - freqs.min() <= 1

    def test_bad_row_in_a_later_block_rejected(self):
        pmfs = np.full((2 * B + 3, 4), 0.25)
        pmfs[B + 1, 0] = -0.1
        with pytest.raises(ValueError, match="non-negative"):
            quantize_cdf_batch(pmfs)

    @pytest.mark.parametrize("row", [[np.nan] * 4, [0.5, np.nan, 0.5, 0.0], [0.5, np.inf, 0.5, 0.0],
                                     [1.0, -np.inf, np.inf, 0.0]], ids=["all_nan", "nan", "inf", "both_infs"])
    def test_non_finite_row_rejected(self, row):
        with pytest.raises(ValueError, match="finite"):
            quantize_cdf_batch(np.array([row]))

    def test_non_finite_row_in_a_later_block_rejected(self):
        pmfs = np.full((2 * B + 3, 4), 0.25)
        pmfs[2 * B + 1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            quantize_cdf_batch(pmfs)


class TestTableContract:
    """quantize_cdf_batch returns uint32 tables; the coder reads any 1-D integer row."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_are_uint32_and_equal_the_int64_reference(self, data):
        n = data.draw(st.integers(1, 1200))
        rows = []
        for _ in range(data.draw(st.integers(1, 3))):
            if data.draw(st.booleans()):
                rows.append(np.full(n, 1.0 / n))  # wide uniform rows take the largest-remainder path
                continue
            weights = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
            rows.append(weights / weights.sum() if weights.sum() > 0 else np.full(n, 1.0 / n))
        cdf = quantize_cdf_batch(np.array(rows))
        assert cdf.dtype == np.uint32 and cdf.shape == (len(rows), n + 1)
        assert (cdf[:, 0] == 0).all() and (cdf[:, -1] == C.TOTAL).all()
        assert (cdf[:, 1:] > cdf[:, :-1]).all()
        for row, pmf in zip(cdf, rows):
            np.testing.assert_array_equal(row, int64_quantized_cdf(pmf))

    def test_one_unit_per_symbol_round_trips_both_ends(self):
        cdf = row_cdf(np.full(C.TOTAL, 1.0 / C.TOTAL))
        np.testing.assert_array_equal(cdf, np.arange(C.TOTAL + 1))
        symbols = [0, C.TOTAL - 1, C.TOTAL - 1, 0, 1, C.TOTAL - 2]
        stream = encode(symbols, one_table(cdf))
        assert decode(stream, one_table(cdf), len(symbols)) == symbols

    def test_int64_rows_code_the_same_stream(self):
        tables = [random_cdf(np.random.default_rng(i), 40) for i in range(5)]
        wide = [t.astype(np.int64) for t in tables]
        symbols = RNG.integers(0, 40, size=2000).tolist()
        stream = encode(symbols, lambda i, prev: tables[i % 5])
        assert encode(symbols, lambda i, prev: wide[i % 5]).payload == stream.payload
        assert decode(stream, lambda i, prev: wide[i % 5], len(symbols)) == symbols


class TestRoundTrip:
    def test_empty_sequence(self):
        cdf = row_cdf(np.array([0.5, 0.5]))
        stream = encode([], one_table(cdf))
        assert len(stream.payload) <= 32
        assert decode(stream, one_table(cdf), 0) == []

    def test_one_symbol_table_costs_no_bits(self):
        cdf = row_cdf(np.array([1.0]))
        stream = encode([0] * 50, one_table(cdf))
        assert len(stream.payload) == 12  # flush plus checksum, no renormalization byte
        assert decode(stream, one_table(cdf), 50) == [0] * 50

    def test_uniform_256_length_bound(self):
        cdf = row_cdf(np.full(256, 1.0 / 256.0))
        symbols = RNG.integers(0, 256, size=10_000).tolist()
        stream = encode(symbols, one_table(cdf))
        assert 10_000 <= len(stream.payload) <= 10_032
        assert decode(stream, one_table(cdf), 10_000) == symbols

    def test_high_probability_symbols_compress_hard(self):
        pmf = np.array([0.999, 0.0005, 0.0003, 0.0002])
        cdf = row_cdf(pmf)
        symbols = [0] * 10_000
        stream = encode(symbols, one_table(cdf))
        assert len(stream.payload) < 100
        assert decode(stream, one_table(cdf), 10_000) == symbols

    def test_adaptive_provider_round_trip(self):
        # CDF switches as a function of the previous symbol
        tables = [random_cdf(np.random.default_rng(i), 8) for i in range(8)]

        def provider(i, prev):
            return tables[prev[-1] if prev else 0]

        symbols = RNG.integers(0, 8, size=5000).tolist()
        stream = encode(symbols, provider)
        assert decode(stream, provider, 5000) == symbols

    def test_randomized_fuzz(self):
        total = 0
        for trial in range(60):
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(2, 300))
            count = int(rng.integers(0, 700))
            tables = [random_cdf(rng, n) for _ in range(4)]
            provider = lambda i, prev, t=tables: t[i % 4]
            symbols = rng.integers(0, n, size=count).tolist()
            stream = encode(symbols, provider)
            assert decode(stream, provider, count) == symbols
            total += count
        assert total > 15_000

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_round_trip(self, data):
        n = data.draw(st.integers(2, 40))
        weights = data.draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
        pmf = np.array(weights, dtype=float)
        pmf /= pmf.sum()
        cdf = row_cdf(pmf)
        symbols = data.draw(st.lists(st.integers(0, n - 1), max_size=200))
        stream = encode(symbols, one_table(cdf))
        assert decode(stream, one_table(cdf), len(symbols)) == symbols

    def test_overhead_bound_on_random_cdfs(self):
        rng = np.random.default_rng(5)
        tables = [random_cdf(rng, 64) for _ in range(16)]
        symbols = []
        cdf_list = []
        for i in range(10_000):
            cdf = tables[i % 16]
            freqs = np.diff(cdf)
            symbols.append(int(rng.choice(64, p=freqs / C.TOTAL)))
            cdf_list.append(cdf)
        stream = encode(symbols, table_provider(cdf_list))
        ce_bytes = quantized_cross_entropy_bits(symbols, cdf_list) / 8.0
        assert len(stream.payload) <= ce_bytes * 1.001 + 32


class TestIntegrity:
    def test_tampered_byte_detected(self):
        cdf = row_cdf(np.full(16, 1.0 / 16.0))
        symbols = RNG.integers(0, 16, size=500).tolist()
        stream = encode(symbols, one_table(cdf))
        for pos in range(0, len(stream.payload), 97):
            tampered = bytearray(stream.payload)
            tampered[pos] ^= 0x40
            with pytest.raises(CorruptStreamError):
                decode(EncodedStream(bytes(tampered), stream.count), one_table(cdf), 500)

    def test_truncated_stream_detected(self):
        cdf = row_cdf(np.full(16, 1.0 / 16.0))
        symbols = RNG.integers(0, 16, size=200).tolist()
        stream = encode(symbols, one_table(cdf))
        for cut in (0, 5, len(stream.payload) // 2, len(stream.payload) - 1):
            with pytest.raises(CorruptStreamError):
                decode(EncodedStream(stream.payload[:cut], stream.count), one_table(cdf), 200)

    def test_wrong_cdf_detected(self):
        cdf_a = row_cdf(np.array([0.7, 0.1, 0.1, 0.1]))
        cdf_b = row_cdf(np.array([0.1, 0.1, 0.1, 0.7]))
        symbols = RNG.integers(0, 4, size=300).tolist()
        stream = encode(symbols, one_table(cdf_a))
        with pytest.raises(CorruptStreamError):
            decode(stream, one_table(cdf_b), 300)

    def test_out_of_alphabet_symbol_rejected_at_encode(self):
        cdf = row_cdf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="outside"):
            encode([3], one_table(cdf))

    def test_zero_frequency_symbol_rejected_at_encode(self):
        with pytest.raises(ValueError, match="zero frequency"):
            encode([1], one_table(np.array([0, C.TOTAL, C.TOTAL])))

    @pytest.mark.parametrize(
        "payload,cdf,message",
        [(b"\xff" * 12, [0, C.TOTAL], "outside coder precision"),
         (b"\x00" * 12, [1, C.TOTAL], "decoded symbol outside alphabet")],
        ids=["code_above_precision", "first_cumulative_above_zero"],
    )
    def test_cumulative_without_a_symbol_rejected(self, payload, cdf, message):
        with pytest.raises(CorruptStreamError, match=message):
            decode(EncodedStream(payload, 1), one_table(np.array(cdf)), 1)


class TestGoldenStream:
    """Byte-exact stream freeze: guards cross-platform stability of the format."""

    def test_golden_bytes(self):
        cdf = row_cdf(np.array([0.125, 0.25, 0.5, 0.125]))
        symbols = [2, 2, 1, 0, 3, 2, 1, 2, 2, 0]
        stream = encode(symbols, one_table(cdf))
        assert stream.payload.hex() == GOLDEN_HEX
        assert decode(stream, one_table(cdf), len(symbols)) == symbols


# Frozen from the first verified build of the coder on this platform.
GOLDEN_HEX = "99e07ffffffe2fc00000fef86268"
