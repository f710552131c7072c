"""Framing, the on-air rate contract, envelope synthesis, square CMD
generation, and trace file I/O."""

import dataclasses
import math

import numpy as np
import pytest

from wptsec.channel import NoiseSpec
from wptsec.errors import (
    BitRateTooHigh,
    InvertedLevels,
    PayloadTooLarge,
    TraceFormatError,
    UndersampledError,
)
from wptsec.monitor import decode_trace, recover_bits
from wptsec.protocol import MonitorConfig, PvkTable
from wptsec.waveform import (
    FRAME_HEADER_BITS,
    MAX_BIT_RATE_HZ,
    PREAMBLE_BITS,
    SYNC_BYTE,
    EnvelopeTrace,
    Frame,
    build_frame,
    format_trace,
    frame_to_bits,
    generate_square_cmd,
    parse_trace,
    read_trace,
    synthesize_envelope,
    write_trace,
)

SILENT = NoiseSpec.silent()

# A valid 16x trace at 20 kHz; the rate under test is what makes a call bad.
GOOD_TRACE = synthesize_envelope(
    frame_to_bits(build_frame(b"\x5a", 20e3)), -40.0, -50.0, 20e3, 320e3, SILENT
)

# Every entry point that takes a bit rate, called with a bit rate and an
# oversampling factor k; where it also takes a sample rate, that is k x 20 kHz.
RATE_ENTRY_POINTS = {
    "decode_trace": lambda br, k: decode_trace(EnvelopeTrace(k * 20e3, GOOD_TRACE.samples), br),
    "recover_bits": lambda br, k: recover_bits(
        EnvelopeTrace(k * 20e3, GOOD_TRACE.samples), br, -45.0
    ),
    "synthesize_envelope": lambda br, k: synthesize_envelope(
        [1, 0, 1], -40.0, -50.0, br, k * 20e3, SILENT
    ),
    "generate_square_cmd": lambda br, k: generate_square_cmd(br, 1e-3, k * 20e3),
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
            EnvelopeTrace(math.nan, [-40.0])
        with pytest.raises(UndersampledError):
            synthesize_envelope([1, 0], -40.0, -50.0, 20e3, math.nan, SILENT)

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


class TestSquareCmd:
    def test_ten_periods_at_1khz(self):
        cmd = generate_square_cmd(1e3, 10e-3, 16e3)
        assert cmd.size == 160
        rising = np.flatnonzero(np.diff(cmd.astype(int)) == 1)
        assert rising.size == 9  # 10 periods, first one starts at t=0
        assert cmd[0] == 1

    def test_ten_periods_at_10khz(self):
        cmd = generate_square_cmd(10e3, 1e-3, 160e3)
        assert cmd.size == 160
        assert np.flatnonzero(np.diff(cmd.astype(int)) == 1).size == 9

    def test_exact_duty_cycle(self):
        for freq, sr in ((1e3, 16e3), (10e3, 160e3), (100e3, 1.6e6)):
            cmd = generate_square_cmd(freq, 5 / freq, sr)
            assert cmd.mean() == 0.5

    def test_ceiling_and_undersampling(self):
        with pytest.raises(BitRateTooHigh):
            generate_square_cmd(150e3, 1e-3, 16e6)
        with pytest.raises(UndersampledError):
            generate_square_cmd(10e3, 1e-3, 50e3)


class TestTrace:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EnvelopeTrace(1e3, np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            EnvelopeTrace(1e3, np.array([float("inf")]))

    def test_meta_no_newline(self):
        with pytest.raises(ValueError):
            EnvelopeTrace(1e3, np.array([1.0]), meta="a\nb")


class TestTraceFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = rng.uniform(-90, -20, size=257)
        trace = EnvelopeTrace(320000.0, samples, meta="roundtrip, with commas=and equals")
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.sample_rate_hz == trace.sample_rate_hz
        assert back.meta == trace.meta
        assert np.array_equal(back.samples, trace.samples)

    def test_header_format(self):
        trace = EnvelopeTrace(16000.0, np.array([-40.0, -50.0]), meta="demo")
        text = format_trace(trace)
        lines = text.splitlines()
        assert lines[0] == "sample_rate_hz=16000,unit=dbm,meta=demo"
        assert lines[1] == "-40.0"
        assert len(lines) == 3

    def test_bad_header_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("sample_rate=16000,unit=dbm,meta=x\n-40.0\n")
        with pytest.raises(TraceFormatError):
            parse_trace("")
        with pytest.raises(TraceFormatError):
            parse_trace("sample_rate_hz=16000,unit=dbm,meta=x\nnot-a-number\n")

    def test_non_integral_rate_rejected(self):
        trace = EnvelopeTrace(16000.5, np.array([-40.0]))
        with pytest.raises(ValueError):
            format_trace(trace)

    def test_write_read_synthesized(self, tmp_path):
        noise = NoiseSpec(-75.0, rng_seed=99)
        trace = synthesize_envelope([1, 0, 1, 1], -40.0, -52.0, 1e3, 16e3, noise, meta="synth")
        path = tmp_path / "s.txt"
        write_trace(trace, path)
        again = tmp_path / "s2.txt"
        write_trace(read_trace(path), again)
        assert path.read_bytes() == again.read_bytes()
