"""Framing, the on-air rate contract, envelope synthesis, and trace file
I/O."""

import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dbm_trace

from wptsec.channel import NoiseSpec, dbm_to_watts
from wptsec.errors import (
    BitRateTooHigh,
    InvertedLevels,
    PayloadTooLarge,
    TraceFormatError,
    TraceTooLong,
    UndersampledError,
)
from wptsec.monitor import decode_trace, recover_bits
from wptsec import waveform
from wptsec.protocol import MonitorConfig, PvkTable
from wptsec.cli import AHEAD_SAMPLES
from wptsec.waveform import (
    FRAME_HEADER_BITS,
    MAX_BIT_RATE_HZ,
    MIN_OVERSAMPLING,
    NOISE_BLOCK,
    POWER_FLOOR_W,
    PREAMBLE_BITS,
    SYNC_BYTE,
    EnvelopeTrace,
    Frame,
    build_frame,
    check_oversampling,
    frame_to_bits,
    read_trace,
    synthesize_envelope,
    trace_length,
    write_trace,
)

SILENT = NoiseSpec.silent()
NOT_FINITE = "trace samples must be finite (no NaN/Inf)"

# A valid 16x trace at 20 kHz; the rate under test is what makes a call bad.
GOOD_TRACE = synthesize_envelope(
    frame_to_bits(build_frame(b"\x5a", 20e3)), -40.0, -50.0, 20e3, 320e3, SILENT
)

# Every entry point that takes a bit rate, called with a bit rate and an
# oversampling factor k; where it also takes a sample rate, that is k x 20 kHz.
RATE_ENTRY_POINTS = {
    "decode_trace": lambda br, k: decode_trace(EnvelopeTrace(k * 20e3, GOOD_TRACE.watts), br),
    "recover_bits": lambda br, k: recover_bits(
        EnvelopeTrace(k * 20e3, GOOD_TRACE.watts), br, dbm_to_watts(-45.0)
    ),
    "synthesize_envelope": lambda br, k: synthesize_envelope(
        [1, 0, 1], -40.0, -50.0, br, k * 20e3, SILENT
    ),
    "MonitorConfig": lambda br, k: MonitorConfig(
        table=PvkTable(entries=[b"\x01"]), bit_rate_hz=br, oversampling=k
    ),
    "build_frame": lambda br, k: build_frame(b"\x01", br),
}
SAMPLED_ENTRY_POINTS = [e for e in RATE_ENTRY_POINTS if e != "build_frame"]


class TestFrame:
    def test_single_byte_structure(self):
        frame = build_frame(b"\xff", 20e3)
        bits = frame_to_bits(frame)
        assert bits.size == 16 + 8 + 8
        assert list(bits[-8:]) == [1] * 8

    def test_two_byte_code_at_20khz(self):
        frame = build_frame(b"\x12\x34", 20e3)
        assert frame.n_bits == 40
        assert frame.duration_s == pytest.approx(2.0e-3, rel=1e-12)

    def test_rate_ceiling(self):
        with pytest.raises(BitRateTooHigh):
            build_frame(b"\x01", 150e3)
        build_frame(b"\x01", MAX_BIT_RATE_HZ)  # the ceiling itself is legal

    def test_payload_bounds(self):
        with pytest.raises(PayloadTooLarge):
            build_frame(bytes(65), 20e3)
        with pytest.raises(ValueError):
            build_frame(b"", 20e3)
        build_frame(bytes(range(64)), 20e3)

    def test_preamble_and_sync_constants(self):
        assert PREAMBLE_BITS == (1, 0) * 8
        assert SYNC_BYTE == 0xD3


class TestOnAirContract:
    @pytest.mark.parametrize("bit_rate", [0.0, -20e3, math.nan])
    @pytest.mark.parametrize("entry", RATE_ENTRY_POINTS)
    def test_non_positive_or_nan_rate_rejected(self, entry, bit_rate):
        with pytest.raises(ValueError, match="bit rate must be > 0"):
            RATE_ENTRY_POINTS[entry](bit_rate, 16)

    @pytest.mark.parametrize("entry", RATE_ENTRY_POINTS)
    def test_rate_above_ceiling_rejected(self, entry):
        # the rate is checked before the sample rate
        with pytest.raises(BitRateTooHigh):
            RATE_ENTRY_POINTS[entry](150e3, 16)

    @pytest.mark.parametrize("entry", SAMPLED_ENTRY_POINTS)
    def test_below_8x_rejected(self, entry):
        with pytest.raises(UndersampledError):
            RATE_ENTRY_POINTS[entry](20e3, 7)

    def test_nan_sample_rate_rejected(self):
        with pytest.raises(ValueError, match="sample_rate_hz must be > 0"):
            EnvelopeTrace(math.nan, [1e-7])
        with pytest.raises(UndersampledError):
            synthesize_envelope([1, 0], -40.0, -50.0, 20e3, math.nan, SILENT)

    def test_infinite_sample_rate_rejected(self):
        # it passed, and inf samples per bit made numpy warn and render nothing
        with pytest.raises(ValueError, match="sample rate must be finite, got inf"):
            check_oversampling(math.inf, 20e3)
        with pytest.raises(ValueError, match="sample rate must be finite"):
            synthesize_envelope([1, 0], -40.0, -50.0, 20e3, math.inf, SILENT)
        # a trace took it, and write_trace then raised a stray OverflowError
        # spelling the rate as an int
        with pytest.raises(ValueError, match="sample_rate_hz must be > 0 and finite, got inf"):
            EnvelopeTrace(math.inf, np.array([1e-7]))

    def test_trace_past_the_sample_cap_rejected(self, monkeypatch):
        # it rendered every sample it was asked for, so a large enough
        # oversampling or bit count failed as MemoryError; the cap is
        # lowered here so that no test renders 2**26 samples
        monkeypatch.setattr(waveform, "MAX_TRACE_SAMPLES", 24 * 16)
        assert len(synthesize_envelope([1, 0] * 12, -40.0, -50.0, 20e3, 320e3, SILENT)) == 384
        with pytest.raises(TraceTooLong, match="25 bits at 16.0 samples per bit exceed"):
            synthesize_envelope([1, 0] * 12 + [1], -40.0, -50.0, 20e3, 320e3, SILENT)
        with pytest.raises(TraceTooLong):
            waveform.check_trace_samples(2, 10**400)

    def test_header_is_preamble_then_sync_and_read_only(self):
        assert list(FRAME_HEADER_BITS) == [*PREAMBLE_BITS, 1, 1, 0, 1, 0, 0, 1, 1]
        bits = frame_to_bits(build_frame(b"\x12\x34", 20e3))
        assert np.array_equal(bits[:24], FRAME_HEADER_BITS)
        with pytest.raises(ValueError):
            FRAME_HEADER_BITS[0] = 0
        bits[0] ^= 1  # a frame's bits are its own copy
        assert FRAME_HEADER_BITS[0] == 1

    def test_frame_has_no_header_knobs(self):
        assert [f.name for f in dataclasses.fields(Frame)] == ["payload", "bit_rate_hz"]


class TestFrameBits:
    def test_zero_payload_bits(self):
        bits = frame_to_bits(build_frame(b"\x00", 10e3))
        assert list(bits[-8:]) == [0] * 8

    def test_msb_first_payload(self):
        bits = frame_to_bits(build_frame(b"\xa5", 10e3))
        assert list(bits[24:32]) == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_length_rule(self):
        for n in (1, 2, 8, 64):
            assert frame_to_bits(build_frame(bytes(range(n % 256))[:n] or b"\x00", 10e3)).size == 24 + 8 * n

    def test_layout_order(self):
        frame = build_frame(b"\x5a", 10e3)
        bits = frame_to_bits(frame)
        assert tuple(bits[:16]) == PREAMBLE_BITS
        assert list(bits[16:24]) == [1, 1, 0, 1, 0, 0, 1, 1]  # 0xD3


class TestSynthesizeEnvelope:
    def test_all_ones_zero_noise_constant(self):
        trace = synthesize_envelope([1] * 10, -40.0, -60.0, 1e3, 16e3, SILENT)
        assert np.all(trace.samples == trace.samples[0])
        assert trace.samples[0] == pytest.approx(-40.0, abs=1e-9)

    def test_empty_bits_rejected(self):
        with pytest.raises(ValueError, match="bits must not be empty"):
            synthesize_envelope([], -40.0, -60.0, 1e3, 16e3, SILENT)

    def test_equal_levels_independent_of_bits(self):
        a = synthesize_envelope([1, 0, 1, 1, 0], -50.0, -50.0, 1e3, 16e3, SILENT)
        b = synthesize_envelope([0, 1, 0, 0, 1], -50.0, -50.0, 1e3, 16e3, SILENT)
        assert np.array_equal(a.samples, b.samples)

    def test_wired_square_period(self):
        # alternating bits at 100 kHz hold each level for 10 us
        bits = [1, 0] * 8
        sample_rate = 1.6e6
        trace = synthesize_envelope(bits, -17.9, -32.0, 100e3, sample_rate, SILENT)
        levels = trace.samples > (-17.9 - 32.0) / 2
        runs = np.diff(np.flatnonzero(np.diff(levels.astype(int)) != 0))
        assert np.all(runs == 16)  # 16 samples at 1.6 MHz = 10 us
        assert trace.samples.size == 16 * 16

    def test_deterministic_per_seed(self):
        noise = NoiseSpec(-80.0, rng_seed=424242)
        a = synthesize_envelope([1, 0, 1] * 5, -40.0, -55.0, 2e3, 32e3, noise)
        b = synthesize_envelope([1, 0, 1] * 5, -40.0, -55.0, 2e3, 32e3, noise)
        assert np.array_equal(a.samples, b.samples)
        other = synthesize_envelope(
            [1, 0, 1] * 5, -40.0, -55.0, 2e3, 32e3, NoiseSpec(-80.0, rng_seed=7)
        )
        assert not np.array_equal(a.samples, other.samples)

    def test_undersampled_rejected(self):
        with pytest.raises(UndersampledError):
            synthesize_envelope([1, 0], -40.0, -50.0, 10e3, 70e3, SILENT)

    def test_inverted_levels_rejected(self):
        with pytest.raises(InvertedLevels):
            synthesize_envelope([1, 0], -50.0, -40.0, 1e3, 16e3, SILENT)

    @pytest.mark.parametrize(
        "bits",
        [[1, 2, 0], [1, 0.5], [-1, 1], np.array([1, 255], dtype=np.uint8), [1.0, np.nan]],
        ids=["two", "half", "minus_one", "uint8_255", "nan"],
    )
    def test_bit_other_than_zero_or_one_rejected(self, bits):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            synthesize_envelope(bits, -40.0, -50.0, 1e3, 16e3, SILENT)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.int8, bool, np.float64])
    def test_zero_one_bits_of_any_dtype_render_alike(self, dtype):
        bits = [1, 0, 0, 1, 1, 0]
        noise = NoiseSpec(-60.0, rng_seed=4)
        want = synthesize_envelope(bits, -40.0, -50.0, 1e3, 16e3, noise).samples
        got = synthesize_envelope(np.array(bits, dtype=dtype), -40.0, -50.0, 1e3, 16e3, noise)
        assert np.array_equal(got.samples, want)

    def test_zero_noise_two_values(self):
        trace = synthesize_envelope([1, 0, 1, 1, 0, 0], -41.0, -54.0, 1e3, 16e3, SILENT)
        assert np.unique(trace.samples).size == 2

    def test_sample_count_rounding_rule(self):
        # non-integer samples-per-bit: total within one of n*sr/br
        for n_bits, rate, sr in ((7, 1e3, 8.3e3), (13, 3e3, 25e3), (40, 20e3, 320e3)):
            trace = synthesize_envelope([1, 0] * (n_bits // 2) + [1] * (n_bits % 2),
                                        -40.0, -50.0, rate, sr, SILENT)
            assert abs(trace.samples.size - math.ceil(n_bits * sr / rate)) <= 1

    def test_mean_power_monotone_in_ones_fraction(self):
        def mean_w(bits):
            t = synthesize_envelope(bits, -40.0, -55.0, 1e3, 8e3, SILENT)
            return np.mean(10 ** (t.samples / 10))

        means = [
            mean_w([1] * k + [0] * (8 - k)) for k in range(9)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_noise_mean_matches_configured_level(self):
        # mean added power tracks the configured floor (signal >= floor, so
        # the 1e-18 W clip never bites)
        noise = NoiseSpec(-60.0, rng_seed=3)
        trace = synthesize_envelope([0] * 400, -57.0, -57.0, 1e3, 64e3, noise)
        mean_w = np.mean(10 ** ((trace.samples - 30) / 10))
        expect = 10 ** ((-57.0 - 30) / 10) + 10 ** ((-60.0 - 30) / 10)
        assert mean_w == pytest.approx(expect, rel=0.02)


def synthesize_reference(bits, p_high_dbm, p_low_dbm, bit_rate_hz, sample_rate_hz, noise):
    """synthesize_envelope's watts in expression form, one new array per step."""
    bit_arr = np.asarray(bits, dtype=np.uint8)
    edges = np.rint(np.arange(bit_arr.size + 1) * (sample_rate_hz / bit_rate_hz))
    counts = np.diff(edges.astype(np.int64))
    levels_w = np.where(
        bit_arr == 1,
        10.0 ** ((p_high_dbm - 30.0) / 10.0),
        10.0 ** ((p_low_dbm - 30.0) / 10.0),
    )
    signal_w = np.repeat(levels_w, counts)
    floor_w = noise.mean_power_w
    if floor_w > 0.0:
        rng = noise.generator()
        signal_w = signal_w + floor_w + rng.normal(0.0, floor_w, signal_w.size)
    return np.maximum(signal_w, POWER_FLOOR_W)


class TestAsBits:
    @pytest.mark.parametrize("bad", [2, 255])
    def test_uint8_other_than_zero_or_one_rejected(self, bad):
        for i in (0, 7, 39):
            bits = np.zeros(40, dtype=np.uint8)
            bits[i] = bad
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                waveform.as_bits(bits)

    def test_empty_array_is_an_empty_uint8_array(self):
        for empty in (np.zeros(0, dtype=np.uint8), np.zeros(0), []):
            arr = waveform.as_bits(empty)
            assert arr.dtype == np.uint8 and arr.shape == (0,)

    def test_uint8_array_is_returned_as_it_is(self):
        bits = np.array([1, 0, 0, 1], dtype=np.uint8)
        assert waveform.as_bits(bits) is bits

    @pytest.mark.parametrize(
        "bits",
        [
            [True, False, False, True],
            np.array([1, 0, 0, 1], dtype=bool),
            [1, 0, 0, 1],
            np.array([1, 0, 0, 1], dtype=np.int64),
            [1.0, 0.0, 0.0, 1.0],
            np.array([1.0, 0.0, -0.0, 1.0]),
        ],
        ids=["bool_list", "bool_array", "int_list", "int_array", "float_list", "float_array"],
    )
    def test_zero_one_input_of_any_type_becomes_uint8(self, bits):
        arr = waveform.as_bits(bits)
        assert arr.dtype == np.uint8
        assert arr.tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize(
        "bits, shape",
        [
            (np.zeros((2, 40), dtype=np.uint8), "(2, 40)"),
            (np.zeros((40, 1), dtype=np.uint8), "(40, 1)"),
            (np.uint8(1), "()"),
            (np.zeros((0, 3), dtype=np.uint8), "(0, 3)"),
            ([[1, 0], [0, 1]], "(2, 2)"),
            (1, "()"),
        ],
        ids=["two_rows", "one_column", "zero_d_uint8", "empty_2d", "nested_list", "int"],
    )
    def test_not_one_dimensional_rejected_by_shape(self, bits, shape):
        # a (2, 40) array rendered as 1,280 samples, one bit after the other
        with pytest.raises(ValueError, match=re.escape(f"one-dimensional, got shape {shape}")):
            waveform.as_bits(bits)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            synthesize_envelope(bits, -40.0, -50.0, 1e3, 16e3, SILENT)


class TestSynthesizeReference:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
    @pytest.mark.parametrize("noise_dbm", [-math.inf, -80.0, -45.0])
    def test_in_place_equals_expression_form(self, noise_dbm, seed):
        # -45 dBm noise on -50/-60 dBm levels drives some samples under the
        # power floor, so the clip is exercised too
        noise = NoiseSpec(noise_dbm, rng_seed=seed)
        bits = np.random.default_rng(seed).integers(0, 2, 97)
        for bit_rate, sample_rate in ((20e3, 320e3), (3e3, 25e3)):
            args = (bits, -50.0, -60.0, bit_rate, sample_rate, noise)
            got = synthesize_envelope(*args).watts
            want = synthesize_reference(*args)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if noise_dbm == -45.0:
            assert np.any(got == POWER_FLOOR_W)

    @pytest.mark.parametrize("seed", [1, 7, 2**40 + 3])
    @pytest.mark.parametrize("noise_dbm", [-math.inf, -3200.0, -57.0])
    @pytest.mark.parametrize("sample_rate", [320e3, 1e6 / 3])
    def test_sweep_length_render_equals_normal_draw(self, noise_dbm, seed, sample_rate):
        # a sweep point's 10^5-sample probe at 16 and 16.67 samples per bit;
        # -3200 dBm is a floor of two subnormal steps, so many scaled draws
        # are zeros of either sign
        bits = np.random.default_rng(seed).integers(0, 2, 6250)
        args = (bits, -50.0, -60.0, 20e3, sample_rate, NoiseSpec(noise_dbm, rng_seed=seed))
        got = synthesize_envelope(*args).watts
        assert got.size >= 100_000
        assert got.tobytes() == synthesize_reference(*args).tobytes()

    @pytest.mark.parametrize("scale", [5e-324, 1e-12, 3.5, 1e300])
    def test_scaled_standard_normal_is_normal_but_for_the_sign_of_zero(self, scale):
        # normal(0.0, s) returns 0.0 + s * z for the same draws z
        for seed in (0, 1, 7):
            scaled = np.random.default_rng(seed).standard_normal(50_000)
            scaled *= scale
            want = np.random.default_rng(seed).normal(0.0, scale, 50_000)
            assert np.array_equal(scaled, want)
            differ = scaled.view(np.int64) != want.view(np.int64)
            assert (want[differ] == 0.0).all()
            assert differ.any() == (scale == 5e-324)


class TestBlockNoise:
    # 8 samples is the shortest trace: one bit at MIN_OVERSAMPLING
    @pytest.mark.parametrize(
        "n",
        [MIN_OVERSAMPLING, 640, NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1, 3 * NOISE_BLOCK + 5],
    )
    @pytest.mark.parametrize("noise_dbm", [-math.inf, -60.0])
    def test_render_equals_one_whole_draw(self, n, noise_dbm):
        # the blocks' draws are one standard_normal(n) draw, and each sample
        # is max((level + floor) + floor * z, POWER_FLOOR_W)
        n_bits = n // MIN_OVERSAMPLING
        for seed in range(50):
            bits = np.random.default_rng(seed).integers(0, 2, n_bits)
            noise = NoiseSpec(noise_dbm, rng_seed=seed)
            sample_rate = n / n_bits * 1e3
            got = synthesize_envelope(bits, -50.0, -60.0, 1e3, sample_rate, noise).watts
            edges = np.rint(np.arange(n_bits + 1) * (sample_rate / 1e3)).astype(np.int64)
            want = np.where(bits == 1, dbm_to_watts(-50.0), dbm_to_watts(-60.0))
            want = np.repeat(want, np.diff(edges))
            floor_w = noise.mean_power_w
            if floor_w > 0.0:
                want = (want + floor_w) + floor_w * noise.generator().standard_normal(n)
            assert got.size == n
            assert got.tobytes() == np.maximum(want, POWER_FLOOR_W).tobytes()

    def test_render_holds_one_trace_sized_array(self):
        # 2^17 samples: the trace and a block's draw, with no second
        # trace-sized array for the noise. A process's first standard_normal
        # draw allocates about 0.85 MB once, so one is made here first; it
        # is made straight from a generator, not by a render, so the bit
        # counts this trace's shape caches are still counted.
        np.random.default_rng(0).standard_normal(8)
        bits = np.tile(np.uint8([1, 0]), 2**12)  # at 16 samples per bit
        noise = NoiseSpec(-60.0, rng_seed=1)
        tracemalloc.start()
        try:
            trace = synthesize_envelope(bits, -50.0, -60.0, 20e3, 320e3, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.watts.size == 2**17
        assert peak <= 1.25 * trace.watts.nbytes, peak / trace.watts.nbytes


class TestNoiseHead:
    """A render handed the head of its noise, drawn before the call, scales
    it and draws the rest from the head's generator: its bytes are the
    blockwise render's."""

    @staticmethod
    def head(noise: NoiseSpec, size: int):
        rng = noise.generator()
        return rng.standard_normal(size), rng

    # below the cap, at it, above it by a block and a bit, and 3e5 samples
    @pytest.mark.parametrize(
        "n", [640, AHEAD_SAMPLES - 8, AHEAD_SAMPLES, AHEAD_SAMPLES + NOISE_BLOCK + 8, 300_000]
    )
    def test_a_head_gives_the_blockwise_bytes(self, n):
        n_bits = n // MIN_OVERSAMPLING
        for seed in range(3):
            bits = np.random.default_rng(seed).integers(0, 2, n_bits)
            noise = NoiseSpec(-60.0, rng_seed=seed)
            args = (bits, -50.0, -60.0, 1e3, MIN_OVERSAMPLING * 1e3, noise)
            want = synthesize_envelope(*args).watts
            assert trace_length(n_bits, 1e3, MIN_OVERSAMPLING * 1e3) == want.size == n
            # a whole trace's head, the sweep's, a shorter one and one sample
            for size in (n, min(n - n // 4, AHEAD_SAMPLES), n // 3, 1):
                got = synthesize_envelope(*args, ahead=self.head(noise, size)).watts
                assert got.tobytes() == want.tobytes()

    def test_an_overflowing_head_is_reported_as_without_one(self):
        # 3110 dBm: the head's scaled draws pass the float range, silently,
        # and the render's check names the overflow once
        loud = NoiseSpec(3110.0, rng_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(NOT_FINITE)):
                synthesize_envelope(
                    [1, 0], -50.0, -60.0, 1e3, 8e3, loud, ahead=self.head(loud, 12)
                )

    def test_a_head_longer_than_the_trace_is_refused(self):
        noise = NoiseSpec(-60.0, rng_seed=1)
        with pytest.raises(ValueError):
            synthesize_envelope([1, 0], -50.0, -60.0, 1e3, 8e3, noise, ahead=self.head(noise, 17))

    def test_a_head_adds_at_most_its_bytes_to_a_render_peak(self):
        # the head, allocated and filled before the render, is all a render
        # with one holds beyond a render without one
        np.random.default_rng(0).standard_normal(8)  # numpy's first draw allocates once
        bits = np.tile(np.uint8([1, 0]), AHEAD_SAMPLES // 32)  # at 16 samples per bit
        noise = NoiseSpec(-60.0, rng_seed=1)
        args = (bits, -50.0, -60.0, 20e3, 320e3, noise)
        synthesize_envelope(*args)  # caches the bit counts of this shape
        peaks = []
        for with_head in (False, True):
            tracemalloc.start()
            try:
                ahead = self.head(noise, AHEAD_SAMPLES) if with_head else None
                trace = synthesize_envelope(*args, ahead=ahead)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del ahead
        assert trace.watts.size == AHEAD_SAMPLES
        assert peaks[1] - peaks[0] <= AHEAD_SAMPLES * 8, peaks


class TestRenderChecks:
    # the render checks its own floored watts only for overflow, and its
    # meta as every trace's; each error has the message EnvelopeTrace
    # gives for the same fault. A 3110 dBm floor is 1e308 W; the render
    # calls are not wrapped in np.errstate, so the RuntimeWarning filter
    # of the suite fails any render that lets numpy warn of its overflow.
    LOUD = NoiseSpec(3110.0, rng_seed=1)

    def test_overflow_to_inf_rejected(self):
        # level + floor + floor * z passes the float range for z above 0.8
        with pytest.raises(ValueError, match=re.escape(NOT_FINITE)):
            synthesize_envelope([1, 0] * 8, -50.0, -60.0, 1e3, 16e3, self.LOUD)

    def test_overflow_to_nan_rejected(self):
        # 1e308 W levels too: level + floor is inf, and a draw below -1.8
        # scales to -inf, so that sample is inf - inf, NaN
        floor_w = self.LOUD.mean_power_w
        z = self.LOUD.generator().standard_normal(256)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan((dbm_to_watts(3110.0) + floor_w) + floor_w * z).any()
        with pytest.raises(ValueError, match=re.escape(NOT_FINITE)):
            synthesize_envelope([1, 0] * 8, 3110.0, 3110.0, 1e3, 16e3, self.LOUD)

    @pytest.mark.parametrize("n", [7, 640, NOISE_BLOCK + 3])
    def test_a_nan_anywhere_fails_the_overflow_check(self, n):
        # the check is one max-reduce, through whose SIMD loops a NaN must
        # propagate wherever it sits
        for i in sorted({0, 1, n // 2, n - 2, n - 1}):
            watts = np.full(n, 1e-6)
            watts[i] = np.nan
            assert not np.maximum.reduce(watts) < np.inf

    @pytest.mark.parametrize(
        "meta, message",
        [
            ("a\nb", "meta must not contain line breaks"),
            ("a\u2028b", "meta must not contain line breaks"),
            ("b\u00e4nk", "meta must be ASCII, as the trace file is"),
        ],
    )
    def test_meta_checked(self, meta, message):
        # a link's name is caller input, and the render's meta
        noise = NoiseSpec(-60.0, rng_seed=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            synthesize_envelope([1, 0] * 8, -50.0, -60.0, 1e3, 16e3, noise, meta=meta)
        # a render that overflows as well is named by its overflow
        with pytest.raises(ValueError, match=re.escape(NOT_FINITE)):
            synthesize_envelope([1, 0] * 8, -50.0, -60.0, 1e3, 16e3, self.LOUD, meta=meta)


class TestTrace:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EnvelopeTrace(1e3, np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            EnvelopeTrace(1e3, np.array([float("inf")]))

    def test_rejects_two_dimensional_samples(self):
        with pytest.raises(ValueError, match="samples must be one-dimensional"):
            EnvelopeTrace(1e3, np.zeros((2, 2)))

    def test_meta_no_newline(self):
        with pytest.raises(ValueError):
            EnvelopeTrace(1e3, np.array([1.0]), meta="a\nb")

    def test_meta_ascii_only(self):
        # the file is ASCII, so such a trace could not be written
        with pytest.raises(ValueError, match="meta must be ASCII"):
            EnvelopeTrace(1e3, np.array([1.0]), meta="b\u00e4nk")

    def test_watts_are_a_read_only_copy_and_samples_their_dbm_view(self):
        # a write to the caller's array, or to the trace's, cannot put a
        # power past the trace's checks
        watts = np.array([1e-7, 1e-8, POWER_FLOOR_W, 5e-324, sys.float_info.max])
        trace = EnvelopeTrace(1e3, watts)
        assert trace.watts.tobytes() == watts.tobytes() and len(trace) == 5
        assert not np.shares_memory(trace.watts, watts)
        with pytest.raises(ValueError, match="read-only"):
            trace.watts[0] = 0.0
        # computed on each read, with nothing held beside the watts
        assert trace.samples is not trace.samples
        assert trace.samples.tobytes() == (10.0 * np.log10(watts) + 30.0).tobytes()
        assert vars(trace).keys() == {"sample_rate_hz", "watts", "meta"}

    def test_rendered_trace_is_held_in_watts(self):
        noise = NoiseSpec(-60.0, rng_seed=2)
        trace = synthesize_envelope([1, 0, 0, 1], -40.0, -50.0, 1e3, 16e3, noise)
        assert vars(trace).keys() == {"sample_rate_hz", "watts", "meta"}
        assert trace.watts.dtype == np.float64 and len(trace) == trace.watts.size == 64
        assert not trace.watts.flags.writeable

    def test_dbm_trace_watts_are_the_power_expression(self):
        # the test helper's steps are channel.dbm_to_watts's expression, on
        # numpy's power kernel, and leave their input alone
        rng = np.random.default_rng(4)
        samples = np.concatenate([rng.normal(-60.0, 40.0, 5000), [-3200.0, 0.0, 30.0, 3000.0]])
        before = samples.copy()
        for dbm in (samples, samples[::3]):
            watts = dbm_trace(1e3, dbm).watts
            assert watts.tobytes() == (10.0 ** ((dbm - 30.0) / 10.0)).tobytes()
            assert not np.shares_memory(watts, samples)
        assert samples.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "watts, message",
        [
            ([1e-3, 0.0], "trace powers must be > 0 W"),
            ([-1e-3], "trace powers must be > 0 W"),
            ([-0.0], "trace powers must be > 0 W"),
            ([np.inf], NOT_FINITE),
            ([-np.inf], NOT_FINITE),
            ([np.nan], NOT_FINITE),
            # a trace with both faults is named by its finiteness
            ([0.0, np.nan], NOT_FINITE),
            ([-1e-3, -np.inf], NOT_FINITE),
        ],
    )
    def test_rejects_powers_without_a_finite_dbm_figure(self, watts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EnvelopeTrace(1e3, np.array(watts))

    @pytest.mark.parametrize(
        "rate, values, meta, message",
        [
            (0.0, [np.nan], "a\nb", "sample_rate_hz must be > 0 and finite"),
            (1e3, [[1.0]], "a\nb", "samples must be one-dimensional"),
            (1e3, [np.nan], "a\nb", NOT_FINITE),
            (1e3, [0.0], "a\nb", "trace powers must be > 0 W"),
            (1e3, [1.0], "a\nb", "meta must not contain line breaks"),
        ],
    )
    def test_checks_run_rate_then_samples_then_meta(self, rate, values, meta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EnvelopeTrace(rate, np.array(values), meta=meta)


def orjson_file(trace) -> bytes:
    """The trace file written one line per sample, each orjson's spelling."""
    header = f"sample_rate_hz={int(trace.sample_rate_hz)},unit=w,meta={trace.meta}\n"
    return header.encode("ascii") + b"".join(orjson.dumps(w) + b"\n" for w in trace.watts.tolist())


def powers(size, seed):
    """size powers, log-uniform from 1 pW to 10 mW."""
    return 10.0 ** np.random.default_rng(seed).uniform(-12.0, -2.0, size)


class TestTraceFile:
    def test_round_trip_bit_exact(self, tmp_path):
        trace = EnvelopeTrace(320000.0, powers(257, 11), meta="roundtrip, with commas=and equals")
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.sample_rate_hz == trace.sample_rate_hz
        assert back.meta == trace.meta
        assert back.watts.tobytes() == trace.watts.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        watts=st.lists(
            st.floats(min_value=5e-324, max_value=sys.float_info.max), min_size=0, max_size=50
        )
    )
    @example(watts=[POWER_FLOOR_W, 5e-324, sys.float_info.max])
    def test_write_then_read_keeps_every_bit(self, tmp_path_factory, watts):
        # from the least subnormal watt to the largest float
        path = tmp_path_factory.mktemp("trace") / "t.txt"
        trace = EnvelopeTrace(1000.0, np.array(watts, dtype=np.float64), meta="bits")
        write_trace(trace, path)
        back = read_trace(path)
        assert back.watts.tobytes() == trace.watts.tobytes()
        assert path.read_bytes() == orjson_file(trace)

    def test_read_back_render_decodes_as_rendered(self, tmp_path):
        # noisy keyed frames: the file holds the watts the row was measured
        # on, so each read-back trace decodes to the rendered trace's result,
        # its levels' last digits included
        path = tmp_path / "t.txt"
        for seed in range(40):
            code = np.random.default_rng(seed).bytes(2)
            bits = frame_to_bits(build_frame(code, 20e3))
            noise = NoiseSpec(-62.0, rng_seed=seed)
            trace = synthesize_envelope(bits, -50.0, -60.0, 20e3, 320e3, noise, meta="keyed")
            write_trace(trace, path)
            back = read_trace(path)
            assert back.watts.tobytes() == trace.watts.tobytes()
            assert decode_trace(back, 20e3) == decode_trace(trace, 20e3)

    def test_header_format(self, tmp_path):
        path = tmp_path / "t.txt"
        write_trace(EnvelopeTrace(16000.0, np.array([1e-7, 2.5e-5]), meta="demo"), path)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines == ["sample_rate_hz=16000,unit=w,meta=demo", "1e-7", "0.000025"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        for text in (
            "sample_rate=16000,unit=w,meta=x\n1e-7\n",
            "",
            "\n1e-7\n",
            "sample_rate_hz=16000,meta=x\n1e-7\n",
            "sample_rate_hz=16000,unit=w,meta=x\nnot-a-number\n",
        ):
            path.write_text(text, encoding="ascii")
            with pytest.raises(TraceFormatError):
                read_trace(path)

    @pytest.mark.parametrize("unit", ["dbm", "W", "mw", ""])
    def test_unit_other_than_watts_refused(self, tmp_path, unit):
        # nothing converts another unit: a dBm file of -40.0 is refused,
        # not read as -40 W
        path = tmp_path / "t.txt"
        path.write_text(f"sample_rate_hz=16000,unit={unit},meta=x\n-40.0\n", encoding="ascii")
        with pytest.raises(TraceFormatError, match=re.escape(f"trace unit {unit!r} is not 'w'")):
            read_trace(path)

    def test_sample_lines_accepted_and_rejected(self, tmp_path):
        def load(body):
            path = tmp_path / "t.txt"
            path.write_text("sample_rate_hz=16000,unit=w,meta=x\n" + body, encoding="ascii")
            return read_trace(path)

        assert load("\n1e-7\n\n 2.5e-5 \n\n").watts.tolist() == [1e-7, 2.5e-5]
        # float()'s spellings that orjson rejects or reads as an int
        assert load("1\n+2e-7\n1.\n.5\n01\n1_0\n").watts.tolist() == [1, 2e-7, 1, 0.5, 1, 10]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header_only = load("")
        assert header_only.watts.shape == (0,)
        bad_lines = ("# comment\n", "1e-7 2e-7\n", "1e-7,2e-7\n", "  \n", "x\n")
        # JSON that orjson reads as other than one float
        bad_lines += ("true\n", "null\n", "[1e-7]\n", '"1e-7"\n', "{}\n")
        for bad in bad_lines:
            with pytest.raises(TraceFormatError, match="bad sample line"):
                load("1e-7\n" + bad)

    @pytest.mark.parametrize(
        "line, value",
        [
            ("nan", "nan"),
            ("inf", "inf"),
            ("-Infinity", "-inf"),
            ("1e400", "inf"),
            ("-1e400", "-inf"),
        ],
    )
    def test_non_finite_sample_is_a_format_error(self, tmp_path, line, value):
        path = tmp_path / "t.txt"
        body = f"1e-7\n\n2e-7\n{line}\nnan\n"
        path.write_text("sample_rate_hz=16000,unit=w,meta=x\n" + body, encoding="ascii")
        want = re.escape(f"bad sample line: samples[2] is {value}, not finite")
        with pytest.raises(TraceFormatError, match=want):
            read_trace(path)

    @pytest.mark.parametrize(
        "line, value",
        [("0", "0.0"), ("0.0", "0.0"), ("-0.0", "-0.0"), ("-1e-9", "-1e-09"), ("1e-400", "0.0")],
    )
    def test_power_not_above_zero_is_a_format_error(self, tmp_path, line, value):
        path = tmp_path / "t.txt"
        body = f"1e-7\n\n2e-7\n{line}\n0\n"
        path.write_text("sample_rate_hz=16000,unit=w,meta=x\n" + body, encoding="ascii")
        want = re.escape(f"bad sample line: samples[2] is {value}, not > 0 W")
        with pytest.raises(TraceFormatError, match=want):
            read_trace(path)

    def test_every_accepted_meta_reads_back(self, tmp_path):
        # str.splitlines splits at \r, \x0b, \x0c and \x1c-\x1e as well as
        # at \n: a meta holding one was written, then read back as a bad
        # sample line
        path = tmp_path / "t.txt"
        for meta in [f"a{chr(code)}b" for code in range(128)] + ["ab\r", "\x0c", "a\r\nb"]:
            try:
                trace = EnvelopeTrace(1e3, np.array([1e-7]), meta=meta)
            except ValueError as exc:
                assert meta.splitlines() != [meta]
                assert str(exc) == "meta must not contain line breaks"
                continue
            write_trace(trace, path)
            assert read_trace(path).meta == meta

    def test_zero_rate_is_a_format_error(self, tmp_path):
        # the trace's own check raised a plain ValueError
        path = tmp_path / "t.txt"
        path.write_text("sample_rate_hz=0,unit=w,meta=x\n1e-7\n", encoding="ascii")
        with pytest.raises(TraceFormatError, match="bad trace header"):
            read_trace(path)

    def test_rate_past_the_float_range_is_a_format_error(self, tmp_path):
        # 400 digits raised OverflowError, which is no ValueError; 308 nines
        # are still a float
        path = tmp_path / "t.txt"
        for digits, ok in ((400, False), (308, True)):
            header = f"sample_rate_hz={'9' * digits},unit=w,meta=x\n"
            path.write_text(header + "1e-7\n", encoding="ascii")
            if ok:
                assert read_trace(path).sample_rate_hz == float("9" * digits)
            else:
                with pytest.raises(TraceFormatError, match="bad trace header"):
                    read_trace(path)

    def test_byte_that_is_not_ascii_is_a_format_error(self, tmp_path):
        # in the header or in the first block of lines it raised
        # UnicodeDecodeError; past the first block it is a bad sample line
        path = tmp_path / "t.txt"
        header = b"sample_rate_hz=16000,unit=w,meta=x\n"
        far = b"1e-7\n" * 20_000
        for text in (
            b"sample_rate_hz=16000,unit=w,meta=b\xc3\xa4nk\n1e-7\n",
            header + b"1e-7\n\xff\n",
            header + far + b"1e\x80-7\n",
        ):
            path.write_bytes(text)
            with pytest.raises(TraceFormatError):
                read_trace(path)

    def test_non_integral_rate_rejected(self, tmp_path):
        trace = EnvelopeTrace(16000.5, np.array([1e-7]))
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError):
            write_trace(trace, path)
        assert not path.exists()

    @pytest.mark.parametrize("n_samples", [0, 250_000])
    def test_write_equals_format(self, tmp_path, n_samples):
        # 250k samples span 245 chunks and end in a partial one; the
        # reference is the file written one line per sample
        trace = EnvelopeTrace(320000.0, powers(n_samples, 5), meta="chunks")
        path = tmp_path / "t.txt"
        write_trace(trace, path)
        assert path.read_bytes() == orjson_file(trace)

    def test_every_magnitude_reads_back_from_its_spelling(self, tmp_path):
        # orjson spells 1e16 and 5e-8 unlike repr (1e+16, 5e-08): the file's
        # spelling is orjson's at every magnitude, and float() reads it back
        decades = [
            m * 10.0**e for e in range(-323, 308) for m in (1.0, 1.2345678901234567, 9.87654321)
        ]
        decades += [np.nextafter(10.0**e, 0.0) for e in range(-300, 309)]
        watts = np.array(decades + [5e-324, sys.float_info.max, POWER_FLOOR_W])
        trace = EnvelopeTrace(320000.0, watts, meta="decades")
        path = tmp_path / "t.txt"
        write_trace(trace, path)
        assert path.read_bytes() == orjson_file(trace)
        lines = path.read_text(encoding="ascii").splitlines()[1:]
        assert np.array(list(map(float, lines))).tobytes() == watts.tobytes()
        assert read_trace(path).watts.tobytes() == watts.tobytes()

    def test_strided_samples_write(self, tmp_path):
        # a view that is not contiguous in memory writes as its copy does:
        # the trace holds a contiguous copy, as orjson needs
        watts = powers(5000, 6)
        trace = EnvelopeTrace(1000.0, watts[::2], meta="strided")
        assert trace.watts.flags.c_contiguous
        path = tmp_path / "t.txt"
        write_trace(trace, path)
        assert path.read_bytes() == orjson_file(trace)
        assert read_trace(path).watts.tobytes() == watts[::2].tobytes()

    def test_write_memory_does_not_grow_with_length(self, tmp_path):
        trace = EnvelopeTrace(320000.0, powers(250_000, 5), meta="chunks")
        tracemalloc.start()
        try:
            write_trace(trace, tmp_path / "t.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the whole text is 5.6 MB

    def test_read_memory_does_not_grow_with_length(self, tmp_path):
        watts = powers(250_000, 5)
        path = tmp_path / "t.txt"
        write_trace(EnvelopeTrace(320000.0, watts, meta="chunks"), path)
        tracemalloc.start()
        try:
            back = read_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the samples alone are 2 MB, the text 5.6 MB
        assert back.watts.tobytes() == watts.tobytes()

    def test_write_non_integral_rate_leaves_file_alone(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"keep me\n")
        with pytest.raises(ValueError, match="sample rate must be integral"):
            write_trace(EnvelopeTrace(16000.5, np.array([1e-7])), path)
        assert path.read_bytes() == b"keep me\n"

    def test_write_read_synthesized(self, tmp_path):
        noise = NoiseSpec(-75.0, rng_seed=99)
        trace = synthesize_envelope([1, 0, 1, 1], -40.0, -52.0, 1e3, 16e3, noise, meta="synth")
        path = tmp_path / "s.txt"
        write_trace(trace, path)
        again = tmp_path / "s2.txt"
        write_trace(read_trace(path), again)
        assert path.read_bytes() == again.read_bytes()
