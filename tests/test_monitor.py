"""Monitor-side demodulation and verification tests.

The loopback oracle is the synthesis chain itself run with known inputs:
whatever bytes went in must come back out bit-exact under the stated noise
margins.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wptsec.channel import NoiseSpec
from wptsec.errors import EmptyTrace, NoSync, UndersampledError
from wptsec.monitor import (
    ACCEPTED,
    DECODED,
    NO_SYNC,
    PAYLOAD_INVALID,
    REJECTED_NO_SIGNAL,
    REJECTED_REPLAY,
    REJECTED_UNKNOWN_KEY,
    WAKE_TIMEOUT,
    AuthDecision,
    DecodeResult,
    authenticate,
    decode_frame,
    decode_trace,
    estimate_threshold,
    measure_dynamic_range,
    recover_bits,
    verify,
)
from wptsec.protocol import PvkTable, generate_table
from wptsec.waveform import (
    MAX_PAYLOAD_BYTES,
    EnvelopeTrace,
    build_frame,
    frame_to_bits,
    synthesize_envelope,
)

SILENT = NoiseSpec.silent()


def two_level_trace(n_high, n_low, p_high=-40.0, p_low=-50.0, rate=16e3):
    samples = np.array([p_high] * n_high + [p_low] * n_low)
    return EnvelopeTrace(rate, samples)


def clean_frame_trace(payload, bit_rate=20e3, oversampling=16, p_high=-40.0, p_low=-50.0,
                      noise=SILENT):
    bits = frame_to_bits(build_frame(payload, bit_rate))
    return synthesize_envelope(bits, p_high, p_low, bit_rate, oversampling * bit_rate, noise)


class TestThreshold:
    def test_two_valued_trace(self):
        # hand-computed: midpoint of 1e-7 W and 1e-8 W is 5.5e-8 W
        trace = two_level_trace(12, 20)
        assert estimate_threshold(trace) == pytest.approx(-42.59637310505755, abs=1e-9)

    def test_constant_trace_degenerate(self):
        trace = EnvelopeTrace(16e3, np.full(64, -47.3))
        assert estimate_threshold(trace) == pytest.approx(-47.3, abs=1e-9)
        result = decode_trace(trace, 1e3)
        assert result.status == NO_SYNC

    def test_permutation_invariant(self):
        trace = two_level_trace(30, 34)
        rng = np.random.default_rng(8)
        shuffled = EnvelopeTrace(16e3, rng.permutation(trace.samples))
        assert estimate_threshold(shuffled) == estimate_threshold(trace)

    def test_permutation_invariant_noisy(self):
        noise = NoiseSpec(-65.0, rng_seed=5)
        trace = synthesize_envelope([1, 0] * 16, -40.0, -52.0, 1e3, 16e3, noise)
        rng = np.random.default_rng(9)
        shuffled = EnvelopeTrace(16e3, rng.permutation(trace.samples))
        assert estimate_threshold(shuffled) == pytest.approx(
            estimate_threshold(trace), abs=1e-9
        )

    def test_offset_shift(self):
        noise = NoiseSpec(-65.0, rng_seed=5)
        trace = synthesize_envelope([1, 0] * 16, -40.0, -52.0, 1e3, 16e3, noise)
        shifted = EnvelopeTrace(16e3, trace.samples + 7.25)
        assert estimate_threshold(shifted) == pytest.approx(
            estimate_threshold(trace) + 7.25, abs=1e-9
        )
        assert measure_dynamic_range(shifted) == pytest.approx(
            measure_dynamic_range(trace), abs=1e-9
        )

    def test_empty_trace(self):
        trace = EnvelopeTrace(16e3, np.array([]))
        with pytest.raises(EmptyTrace):
            estimate_threshold(trace)
        with pytest.raises(EmptyTrace):
            measure_dynamic_range(trace)


class TestDynamicRange:
    def test_reconstructs_levels(self):
        trace = clean_frame_trace(b"\x3c")
        assert measure_dynamic_range(trace) == pytest.approx(10.0, abs=1e-9)

    def test_constant_trace_zero(self):
        trace = EnvelopeTrace(16e3, np.full(32, -44.0))
        assert measure_dynamic_range(trace) == 0.0


class TestRecoverBits:
    def test_clean_loopback(self):
        payload = b"\x5a\xc3"
        trace = clean_frame_trace(payload)
        bits, sync_offset = recover_bits(trace, 20e3, estimate_threshold(trace))
        assert sync_offset == 0
        assert np.array_equal(bits, frame_to_bits(build_frame(payload, 20e3)))

    def test_padded_trace_same_payload(self):
        payload = b"\x5a\xc3"
        bit_rate, oversampling = 20e3, 16
        frame_bits = frame_to_bits(build_frame(payload, bit_rate))
        trace = clean_frame_trace(payload)
        pad = np.full(round(3.7 * oversampling), -50.0)
        padded = EnvelopeTrace(trace.sample_rate_hz, np.concatenate([pad, trace.samples]))
        bits, sync_offset = recover_bits(padded, bit_rate, estimate_threshold(padded))
        assert sync_offset > 0
        result = decode_frame(bits, sync_offset)
        assert result.status == DECODED
        assert result.payload == payload
        assert result.sync_offset == sync_offset
        assert bits.size >= frame_bits.size
        assert decode_trace(padded, bit_rate).sync_offset == sync_offset

    def test_pure_noise_no_sync(self):
        noise = NoiseSpec(-50.0, rng_seed=31)
        trace = synthesize_envelope([0] * 40, -60.0, -60.0, 20e3, 320e3, noise)
        with pytest.raises(NoSync):
            recover_bits(trace, 20e3, estimate_threshold(trace))

    def test_undersampled(self):
        trace = two_level_trace(16, 16, rate=100e3)
        with pytest.raises(UndersampledError):
            recover_bits(trace, 20e3, estimate_threshold(trace))


class TestDecodeFrame:
    def test_end_to_end_loopback(self):
        trace = clean_frame_trace(b"\x5a\xc3")
        result = decode_trace(trace, 20e3)
        assert result.status == DECODED
        assert result.payload == b"\x5a\xc3"
        assert result.bit_errors_in_preamble == 0
        assert result.measured_dr_db == pytest.approx(10.0, abs=1e-9)

    def test_corrupt_sync_byte(self):
        bits = frame_to_bits(build_frame(b"\x11", 10e3)).copy()
        bits[18] ^= 1  # flip one sync-byte bit
        result = decode_frame(bits)
        assert result.status == PAYLOAD_INVALID
        assert result.payload is None

    def test_truncated_after_sync(self):
        bits = frame_to_bits(build_frame(b"\x11", 10e3))[:29]  # 5 payload bits
        result = decode_frame(bits)
        assert result.status == PAYLOAD_INVALID

    def test_counts_preamble_errors(self):
        bits = frame_to_bits(build_frame(b"\x11", 10e3)).copy()
        bits[3] ^= 1
        result = decode_frame(bits)
        assert result.status == DECODED
        assert result.bit_errors_in_preamble == 1


class TestSinglePass:
    def test_decode_trace_clusters_once(self, clustering_calls):
        decoded = clean_frame_trace(b"\x5a\xc3")
        flat = EnvelopeTrace(16e3, np.full(64, -47.3))
        for trace, bit_rate, status in ((decoded, 20e3, DECODED), (flat, 1e3, NO_SYNC)):
            clustering_calls.clear()
            result = decode_trace(trace, bit_rate)
            assert len(clustering_calls) == 1
            assert result.status == status
            assert result.threshold_dbm == estimate_threshold(trace)
            assert result.measured_dr_db == measure_dynamic_range(trace)


def idle_frame_trace(payload, idle_samples, clock_offset, noise_seed):
    """Frame after idle_samples of the low level, its bit clock running
    clock_offset (a fraction) away from the 20 kHz the monitor expects."""
    bits = frame_to_bits(build_frame(payload, 20e3))
    noise = NoiseSpec(-60.0, noise_seed)
    trace = synthesize_envelope(bits, -30.0, -40.0, 20e3 * (1 + clock_offset), 320e3, noise)
    idle = np.full(idle_samples, -40.0)
    return EnvelopeTrace(320e3, np.concatenate([idle, trace.samples]))


PAYLOADS = st.binary(min_size=1, max_size=MAX_PAYLOAD_BYTES)
IDLE = st.integers(min_value=0, max_value=40 * 16)
SEEDS = st.integers(min_value=0, max_value=2**32)


class TestDecodeProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(payload=PAYLOADS, idle=IDLE, seed=SEEDS)
    def test_idle_before_frame(self, payload, idle, seed):
        result = decode_trace(idle_frame_trace(payload, idle, 0.0, seed), 20e3)
        assert result.status == DECODED
        assert result.payload == payload

    @pytest.mark.xfail(
        strict=True,
        reason="bits are read at nominal bit centres with no clock tracking: within 1% "
        "offset, payloads of 3+ bytes come back wrong yet marked decoded, and idle time "
        "before the frame can misplace the sync (payload_invalid)",
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(payload=bytes(range(64)), idle=0, clock_offset=0.01, seed=0)
    @given(payload=PAYLOADS, idle=IDLE, clock_offset=st.floats(-0.01, 0.01), seed=SEEDS)
    def test_clock_offset(self, payload, idle, clock_offset, seed):
        trace = idle_frame_trace(payload, idle, clock_offset, seed)
        result = decode_trace(trace, 20e3)
        assert result.status == DECODED
        assert result.payload == payload


class TestVerify:
    def _decoded(self, payload):
        return DecodeResult(
            status=DECODED,
            payload=payload,
            bit_errors_in_preamble=0,
            measured_dr_db=10.0,
            threshold_dbm=-45.0,
            sync_offset=0,
        )

    def test_accept_consumes_entry(self):
        table = PvkTable(entries=[b"\x01\x02", b"\x03\x04"])
        decision = verify(self._decoded(b"\x01\x02"), table)
        assert decision.verdict == ACCEPTED
        assert decision.matched_key_index == 0
        assert table.is_used(0)

    def test_replay_rejected(self):
        table = PvkTable(entries=[b"\x01\x02"])
        verify(self._decoded(b"\x01\x02"), table)
        second = verify(self._decoded(b"\x01\x02"), table)
        assert second.verdict == REJECTED_REPLAY
        assert second.matched_key_index == 0

    def test_unknown_key(self):
        table = generate_table(1000, 2, rng_seed=123)
        absent = next(
            bytes([a, b])
            for a in range(256)
            for b in range(256)
            if bytes([a, b]) not in set(table.entries)
        )
        decision = verify(self._decoded(absent), table)
        assert decision.verdict == REJECTED_UNKNOWN_KEY
        assert decision.matched_key_index is None

    def test_no_payload(self):
        result = DecodeResult(
            status=NO_SYNC,
            payload=None,
            bit_errors_in_preamble=0,
            measured_dr_db=0.0,
            threshold_dbm=float("nan"),
            sync_offset=None,
        )
        decision = verify(result, PvkTable(entries=[b"\x01"]))
        assert decision.verdict == REJECTED_NO_SIGNAL

    def test_one_time_discipline(self):
        table = PvkTable(entries=[b"\x07\x07"])
        verdicts = [verify(self._decoded(b"\x07\x07"), table).verdict for _ in range(5)]
        assert verdicts.count(ACCEPTED) == 1

    def test_one_time_discipline_random_sequence(self):
        rng = np.random.default_rng(44)
        table = generate_table(16, 1, rng_seed=6)
        accepts_per_entry = {i: 0 for i in range(16)}
        for _ in range(400):
            code = bytes([int(rng.integers(0, 256))])
            decision = verify(self._decoded(code), table)
            if decision.verdict == ACCEPTED:
                accepts_per_entry[decision.matched_key_index] += 1
        assert all(n <= 1 for n in accepts_per_entry.values())

    def test_decision_record_field_names(self):
        table = PvkTable(entries=[b"\x01\x02"])
        decision = verify(self._decoded(b"\x01\x02"), table)
        record = decision.record()
        assert list(record) == [
            "verdict",
            "matched_key_index",
            "measured_dr_db",
            "threshold_dbm",
            "status",
        ]
        assert record["verdict"] == ACCEPTED
        assert record["matched_key_index"] == 0
        assert record["status"] == DECODED


class TestLoopbackInvariant:
    def test_grid(self):
        rng = np.random.default_rng(2024)
        noise_floor = -60.0  # 20 dB under the -40 dBm low state
        for n_bytes in (1, 2, 8, 64):
            for rate in (1e3, 10e3, 20e3, 100e3):
                for _ in range(3):
                    payload = rng.integers(0, 256, n_bytes, dtype=np.uint8).tobytes()
                    trace = clean_frame_trace(
                        payload,
                        bit_rate=rate,
                        p_high=-30.0,
                        p_low=-40.0,
                        noise=NoiseSpec(noise_floor, int(rng.integers(0, 2**63))),
                    )
                    result = decode_trace(trace, rate)
                    assert result.status == DECODED
                    assert result.payload == payload

    def test_noise_robustness_10k_frames(self):
        # DR 10 dB, per-sample power SNR 20 dB: zero payload bit errors
        rng = np.random.default_rng(31337)
        bad = 0
        for i in range(10_000):
            payload = rng.integers(0, 256, 2, dtype=np.uint8).tobytes()
            trace = clean_frame_trace(
                payload, p_high=-30.0, p_low=-40.0, noise=NoiseSpec(-60.0, i)
            )
            result = decode_trace(trace, 20e3)
            if result.status != DECODED or result.payload != payload:
                bad += 1
        assert bad == 0

    def test_zero_dr_never_accepts(self):
        table = generate_table(300, 2, rng_seed=71)
        monitor_table = table.copy()
        accepts = 0
        for i in range(300):
            payload = table.entries[i]
            trace = clean_frame_trace(
                payload, p_high=-50.0, p_low=-50.0, noise=NoiseSpec(-60.0, 9000 + i)
            )
            decision = authenticate(trace, 20e3, monitor_table)
            accepts += decision.verdict == ACCEPTED
        assert accepts == 0


class TestResultInvariants:
    def test_payload_iff_decoded(self):
        with pytest.raises(ValueError):
            DecodeResult(DECODED, None, 0, 1.0, -40.0, 0)
        with pytest.raises(ValueError):
            DecodeResult(NO_SYNC, b"\x01", 0, 1.0, -40.0, None)
        with pytest.raises(ValueError):
            DecodeResult(DECODED, b"\x01", 0, -1.0, -40.0, 0)

    def test_levels_none_exactly_for_wake_timeout(self):
        DecodeResult(WAKE_TIMEOUT, None, 0, None, None, None)
        with pytest.raises(ValueError):
            DecodeResult(WAKE_TIMEOUT, None, 0, 0.0, None, None)
        with pytest.raises(ValueError):
            DecodeResult(WAKE_TIMEOUT, None, 0, None, -40.0, None)
        with pytest.raises(ValueError):
            DecodeResult(NO_SYNC, None, 0, None, None, None)

    def test_accept_needs_index(self):
        ok = DecodeResult(DECODED, b"\x01", 0, 1.0, -40.0, 0)
        with pytest.raises(ValueError):
            AuthDecision(ACCEPTED, None, ok)
