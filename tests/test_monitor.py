"""Monitor-side demodulation and verification tests.

The loopback oracle is the synthesis chain itself run with known inputs:
whatever bytes went in must come back out bit-exact under the stated noise
margins.
"""

import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dbm_trace
from wptsec import monitor
from wptsec.channel import NoiseSpec, dbm_to_watts, watts_to_dbm
from wptsec.errors import EmptyTrace, LevelOverflow, NoSync, UndersampledError
from wptsec.monitor import (
    SYNC_BLOCK,
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
    _bit_centers,
    decode_frame,
    decode_trace,
    measure_levels,
    recover_bits,
    verify,
)
from wptsec.protocol import PvkTable, generate_table
from wptsec.waveform import (
    FRAME_HEADER_BITS,
    MAX_PAYLOAD_BYTES,
    PREAMBLE_BITS,
    EnvelopeTrace,
    _bit_counts,
    build_frame,
    frame_to_bits,
    synthesize_envelope,
)

SILENT = NoiseSpec.silent()
# levels handed to decode_frame where a test has bits but no trace
LEVELS = dict(measured_dr_db=10.0, threshold_dbm=-45.0)


def two_level_trace(n_high, n_low, p_high=-40.0, p_low=-50.0, rate=16e3):
    samples = np.array([p_high] * n_high + [p_low] * n_low)
    return dbm_trace(rate, samples)


def clean_frame_trace(payload, bit_rate=20e3, oversampling=16, p_high=-40.0, p_low=-50.0,
                      noise=SILENT):
    bits = frame_to_bits(build_frame(payload, bit_rate))
    return synthesize_envelope(bits, p_high, p_low, bit_rate, oversampling * bit_rate, noise)


class TestThreshold:
    def test_two_valued_trace(self):
        # hand-computed: midpoint of 1e-7 W and 1e-8 W is 5.5e-8 W
        trace = two_level_trace(12, 20)
        assert measure_levels(trace)[0] == pytest.approx(5.5e-8, rel=1e-12)

    def test_constant_trace_degenerate(self):
        trace = dbm_trace(16e3, np.full(64, -47.3))
        assert measure_levels(trace)[0] == trace.watts[0]
        result = decode_trace(trace, 1e3)
        assert result.status == NO_SYNC

    def test_permutation_invariant(self):
        trace = two_level_trace(30, 34)
        rng = np.random.default_rng(8)
        shuffled = EnvelopeTrace(16e3, rng.permutation(trace.watts))
        assert measure_levels(shuffled)[0] == measure_levels(trace)[0]

    def test_permutation_invariant_noisy(self):
        noise = NoiseSpec(-65.0, rng_seed=5)
        trace = synthesize_envelope([1, 0] * 16, -40.0, -52.0, 1e3, 16e3, noise)
        rng = np.random.default_rng(9)
        shuffled = EnvelopeTrace(16e3, rng.permutation(trace.watts))
        assert measure_levels(shuffled)[0] == pytest.approx(
            measure_levels(trace)[0], rel=1e-10
        )

    def test_offset_shift(self):
        # +7.25 dB on every sample scales every power, and so the threshold
        noise = NoiseSpec(-65.0, rng_seed=5)
        trace = synthesize_envelope([1, 0] * 16, -40.0, -52.0, 1e3, 16e3, noise)
        shifted = dbm_trace(16e3, trace.samples + 7.25)
        assert measure_levels(shifted)[0] == pytest.approx(
            measure_levels(trace)[0] * 10.0**0.725, rel=1e-10
        )
        assert measure_levels(shifted)[1] == pytest.approx(
            measure_levels(trace)[1], abs=1e-9
        )

    def test_empty_trace(self):
        trace = EnvelopeTrace(16e3, np.array([]))
        with pytest.raises(EmptyTrace):
            measure_levels(trace)


class TestDynamicRange:
    def test_reconstructs_levels(self):
        trace = clean_frame_trace(b"\x3c")
        assert measure_levels(trace)[1] == pytest.approx(10.0, abs=1e-9)

    def test_constant_trace_zero(self):
        trace = dbm_trace(16e3, np.full(32, -44.0))
        assert measure_levels(trace)[1] == 0.0

    def test_level_ratio_past_the_float_range_is_an_infinite_range(self):
        # 1e-5 W over the least subnormal watt passes the float range
        bits = frame_to_bits(build_frame(b"\x5a\xc3", 1e3))
        trace = EnvelopeTrace(16e3, np.repeat(np.where(bits, 1e-5, 5e-324), 16))
        threshold, dr = measure_levels(trace)
        assert dr == math.inf and threshold == 0.5 * (1e-5 + 5e-324)
        result = decode_trace(trace, 1e3)
        assert (result.status, result.payload) == (DECODED, b"\x5a\xc3")
        assert result.measured_dr_db == math.inf


class TestLevelOverflow:
    """Levels past the float range in watts (a cluster's sum, the midpoint
    of the two means) raise LevelOverflow, and only those: every trace whose
    figures are finite keeps them."""

    def test_cluster_sums_past_the_float_range_raise(self):
        # 3090 dBm is 1e306 W: 10^4 such samples summed to inf, the high level
        # read nan and the next pass divided an empty cluster
        trace = two_level_trace(10_000, 10_000, p_high=3090.0, p_low=3000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LevelOverflow, match="sum past the float range"):
                measure_levels(trace)
            with pytest.raises(LevelOverflow):
                decode_trace(trace, 1e3)

    def test_sample_past_the_float_range_makes_no_trace(self):
        # 3200 dBm is past the float range in watts: no trace holds it, so
        # the clustering never sees it
        with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
            with pytest.raises(ValueError, match=re.escape("trace samples must be finite")):
                two_level_trace(8, 8, p_high=3200.0, p_low=-50.0)

    @pytest.mark.parametrize("n_high, n_low", [(2, 1), (3, 7), (500, 500), (1000, 1), (1, 1000)])
    def test_raises_exactly_where_the_oracle_overflows(self, n_high, n_low):
        # on a 0.001 dB grid across the level where the larger cluster's sum
        # passes the float range, a trace gives the oracle's figures with no
        # warning while they are finite, and LevelOverflow once they are not
        edge = watts_to_dbm(sys.float_info.max / max(n_high, n_low / 10))
        outcomes = set()
        for p_high in edge + np.linspace(-0.02, 0.02, 41):
            trace = two_level_trace(n_high, n_low, p_high=p_high, p_low=p_high - 10.0)
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = oracle_measure_levels(trace)
            finite = all(map(math.isfinite, want))
            outcomes.add(finite)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if finite:
                    assert repr(measure_levels(trace)) == repr(want)
                else:
                    with pytest.raises(LevelOverflow):
                        measure_levels(trace)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("p_dbm", [3090.0, 3110.0])
    def test_flat_trace_takes_no_sum(self, p_dbm):
        # 10^4 samples of 1e306 W would sum past the float range, but a flat
        # trace is not clustered; at 1e308 W the midpoint c + c overflowed
        # and the threshold read inf
        trace = dbm_trace(16e3, np.full(10_000, p_dbm))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert measure_levels(trace) == (trace.watts[0], 0.0) != (math.inf, 0.0)

    def test_midpoint_past_the_float_range_raises(self):
        # 1e308 W and 1.7e308 W are each finite, and so is either mean, but
        # their sum is not
        trace = dbm_trace(16e3, np.array([3110.0, 3112.3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LevelOverflow, match=r"^levels of 1e\+308 and .* W sum past"):
                measure_levels(trace)

    def test_midpoint_rounded_up_to_the_high_level(self):
        # 3 and 4 times the least subnormal watt: their midpoint, 3.5, rounds
        # to even, onto the high level, so every sample fell low and the high
        # mean divided an empty cluster. The clustering stops there instead
        lo, hi = (watts_to_dbm(k * 5e-324) for k in (3, 4))
        trace = two_level_trace(8, 8, p_high=hi, p_low=lo)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            threshold, dr = measure_levels(trace)
            assert decode_trace(trace, 1e3).status == NO_SYNC
        assert threshold == 4 * 5e-324
        assert dr == 10.0 * math.log10(4 / 3)


class TestRecoverBits:
    def test_clean_loopback(self):
        payload = b"\x5a\xc3"
        trace = clean_frame_trace(payload)
        bits, sync_offset = recover_bits(trace, 20e3, measure_levels(trace)[0])
        assert sync_offset == 0
        assert np.array_equal(bits, frame_to_bits(build_frame(payload, 20e3)))

    def test_padded_trace_same_payload(self):
        payload = b"\x5a\xc3"
        bit_rate, oversampling = 20e3, 16
        frame_bits = frame_to_bits(build_frame(payload, bit_rate))
        trace = clean_frame_trace(payload)
        pad = np.full(round(3.7 * oversampling), -50.0)
        padded = dbm_trace(trace.sample_rate_hz, np.concatenate([pad, trace.samples]))
        threshold_w, dr_db = measure_levels(padded)
        bits, sync_offset = recover_bits(padded, bit_rate, threshold_w)
        assert sync_offset > 0
        threshold_dbm = watts_to_dbm(threshold_w)
        result = decode_frame(bits, sync_offset, measured_dr_db=dr_db, threshold_dbm=threshold_dbm)
        assert result.status == DECODED
        assert result.payload == payload
        assert result.sync_offset == sync_offset
        assert bits.size >= frame_bits.size
        assert decode_trace(padded, bit_rate).sync_offset == sync_offset

    def test_pure_noise_no_sync(self):
        noise = NoiseSpec(-50.0, rng_seed=31)
        trace = synthesize_envelope([0] * 40, -60.0, -60.0, 20e3, 320e3, noise)
        with pytest.raises(NoSync):
            recover_bits(trace, 20e3, measure_levels(trace)[0])

    def test_undersampled(self):
        trace = two_level_trace(16, 16, rate=100e3)
        with pytest.raises(UndersampledError):
            recover_bits(trace, 20e3, measure_levels(trace)[0])

    @pytest.mark.parametrize("threshold_w", [math.nan, math.inf, -1e-9, -35.0])
    def test_threshold_that_is_no_power_in_watts_is_a_value_error(self, threshold_w):
        # the threshold is sliced in watts: a negative one, such as a dBm
        # figure passed by mistake, sliced every sample high
        trace = clean_frame_trace(b"\x5a")
        with pytest.raises(ValueError, match="is not a finite power >= 0 W"):
            recover_bits(trace, 20e3, threshold_w)

    def test_sample_equal_to_the_threshold_slices_low(self):
        # a low level equal to the threshold is not above it, from the least
        # subnormal watt to a tenth of the float range
        pool = 10.0 ** np.random.default_rng(8).uniform(-12.0, -3.0, 50)
        bits = frame_to_bits(build_frame(b"\x5a", 20e3))
        for threshold in pool.tolist() + [5e-324, 1e-310, sys.float_info.max / 10.0]:
            watts = np.repeat(np.where(bits, 10.0 * threshold, threshold), 16)
            trace = EnvelopeTrace(320e3, watts)
            got, sync_offset = recover_bits(trace, 20e3, threshold)
            assert sync_offset == 0 and np.array_equal(got, bits)

    def test_threshold_of_zero_watts_gives_no_sync(self):
        # every sample is above 0 W, so none alternates like the preamble
        trace = clean_frame_trace(b"\x5a")
        with pytest.raises(NoSync):
            recover_bits(trace, 20e3, 0.0)


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
        result = decode_frame(bits, 0, **LEVELS)
        assert result.status == PAYLOAD_INVALID
        assert result.payload is None

    def test_truncated_after_sync(self):
        bits = frame_to_bits(build_frame(b"\x11", 10e3))[:29]  # 5 payload bits
        result = decode_frame(bits, 0, **LEVELS)
        assert result.status == PAYLOAD_INVALID

    def test_counts_preamble_errors(self):
        bits = frame_to_bits(build_frame(b"\x11", 10e3)).copy()
        bits[3] ^= 1
        result = decode_frame(bits, 0, **LEVELS)
        assert result.status == DECODED
        assert result.bit_errors_in_preamble == 1

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_bit_other_than_zero_or_one_rejected(self, bad):
        bits = frame_to_bits(build_frame(b"\x11", 10e3)).tolist()
        bits[30] = bad
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            decode_frame(bits, 0, **LEVELS)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            decode_frame(np.array(bits), 0, **LEVELS)

    def test_offset_and_levels_are_required(self):
        # a result records only what was measured: no default stands in
        bits = frame_to_bits(build_frame(b"\x11", 10e3))
        with pytest.raises(TypeError):
            decode_frame(bits)
        with pytest.raises(TypeError):
            decode_frame(bits, 0)
        result = decode_frame(bits, 3, **LEVELS)
        assert result.sync_offset == 3
        assert (result.measured_dr_db, result.threshold_dbm) == (10.0, -45.0)

    @pytest.mark.parametrize(
        "shape, bits",
        [
            ("(2, 40)", np.zeros((2, 40), dtype=np.uint8)),
            ("()", np.uint8(1)),
            ("(40, 1)", frame_to_bits(build_frame(b"\x11\xa5", 10e3))[:, np.newaxis]),
        ],
        ids=["two_rows", "zero_d", "one_column"],
    )
    def test_bits_not_one_dimensional_rejected(self, shape, bits):
        # numpy's broadcast ValueError for (2, 40), an IndexError for 0-d,
        # and a payload_invalid with 128 preamble errors for (40, 1)
        with pytest.raises(ValueError, match=re.escape(f"one-dimensional, got shape {shape}")):
            decode_frame(bits, 0, **LEVELS)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool, np.float64])
    def test_zero_one_bits_of_any_dtype_decode(self, dtype):
        bits = frame_to_bits(build_frame(b"\x11\xa5", 10e3))
        result = decode_frame(bits.astype(dtype), 7, **LEVELS)
        assert result == decode_frame(bits, 7, **LEVELS)
        assert result.payload == b"\x11\xa5" and result.sync_offset == 7
        assert type(result.bit_errors_in_preamble) is int


class TestSinglePass:
    def test_decode_trace_clusters_once(self, clustering_calls):
        decoded = clean_frame_trace(b"\x5a\xc3")
        flat = dbm_trace(16e3, np.full(64, -47.3))
        for trace, bit_rate, status in ((decoded, 20e3, DECODED), (flat, 1e3, NO_SYNC)):
            clustering_calls.clear()
            result = decode_trace(trace, bit_rate)
            assert len(clustering_calls) == 1
            assert result.status == status
            threshold_w, dr_db = measure_levels(trace)
            assert (result.threshold_dbm, result.measured_dr_db) == (
                watts_to_dbm(threshold_w),
                dr_db,
            )

    def test_decode_trace_runs_each_public_stage_once(self, monkeypatch):
        # the stages decode_trace runs are the ones a tracer can wrap: the
        # threshold measure_levels gives in watts is the one recover_bits slices at
        calls = []

        def recorded(name):
            stage = getattr(monitor, name)

            def wrapper(*args):
                calls.append((name, args))
                return stage(*args)

            return wrapper

        for name in ("measure_levels", "recover_bits"):
            monkeypatch.setattr(monitor, name, recorded(name))
        decoded = clean_frame_trace(b"\x5a\xc3")
        flat = dbm_trace(16e3, np.full(64, -47.3))
        for trace, bit_rate, status in ((decoded, 20e3, DECODED), (flat, 1e3, NO_SYNC)):
            calls.clear()
            assert decode_trace(trace, bit_rate).status == status
            threshold_w = measure_levels(trace)[0]
            assert calls == [
                ("measure_levels", (trace,)),
                ("recover_bits", (trace, bit_rate, threshold_w)),
            ]

    def test_rendered_watts_are_read_not_written(self):
        # the clustering and the slicing work on the render's own array
        bits = frame_to_bits(build_frame(b"\x5a\xc3", 20e3))
        trace = synthesize_envelope(bits, -30.0, -40.0, 20e3, 320e3, NoiseSpec(-50.0, 3))
        watts = trace.watts
        before = watts.copy()
        assert decode_trace(trace, 20e3).payload == b"\x5a\xc3"
        measure_levels(trace)
        assert trace.watts is watts and watts.tobytes() == before.tobytes()


def idle_frame_trace(payload, idle_samples, clock_offset, noise_seed):
    """Frame after idle_samples of the low level, its bit clock running
    clock_offset (a fraction) away from the 20 kHz the monitor expects."""
    bits = frame_to_bits(build_frame(payload, 20e3))
    noise = NoiseSpec(-60.0, noise_seed)
    trace = synthesize_envelope(bits, -30.0, -40.0, 20e3 * (1 + clock_offset), 320e3, noise)
    idle = np.full(idle_samples, -40.0)
    return dbm_trace(320e3, np.concatenate([idle, trace.samples]))


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
            decision = verify(decode_trace(trace, 20e3), monitor_table)
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

    def test_nan_range_rejected(self):
        # nan < 0 is false, so a nan range from an overflowed mean got through
        with pytest.raises(ValueError, match="measured_dr_db must be >= 0"):
            DecodeResult(NO_SYNC, None, 0, math.nan, -40.0, None)
        assert DecodeResult(NO_SYNC, None, 0, math.inf, -40.0, None).measured_dr_db == math.inf

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

    def test_unknown_status_and_verdict_rejected(self):
        with pytest.raises(ValueError, match="unknown decode status: 'garbled'"):
            DecodeResult("garbled", None, 0, 1.0, -40.0, None)
        ok = DecodeResult(DECODED, b"\x01", 0, 1.0, -40.0, 0)
        with pytest.raises(ValueError, match="unknown verdict: 'maybe'"):
            AuthDecision("maybe", 0, ok)


# --- differential oracles --------------------------------------------------
#
# Reference forms of recover_bits, which scores the preamble one bit at a
# time over every offset, of measure_levels, through the min, max and mean
# wrappers, and of decode_frame, on numpy arrays. The library must agree
# with them bit for bit.


def oracle_measure_levels(trace, max_passes=100):
    """The 2-means loop that recomputes both means on every pass and stops
    when they no longer move."""
    if len(trace) == 0:
        raise EmptyTrace("cannot analyze an empty trace")
    lin = trace.watts
    c_lo = float(lin.min())
    c_hi = float(lin.max())
    if c_lo != c_hi:
        for _ in range(max_passes):
            low = lin <= 0.5 * (c_lo + c_hi)
            new_lo = float(lin[low].mean())
            new_hi = float(lin[~low].mean())
            if new_lo == c_lo and new_hi == c_hi:
                break
            c_lo, c_hi = new_lo, new_hi
    threshold_w = 0.5 * (c_lo + c_hi)
    return threshold_w, 0.0 if c_lo == c_hi else 10.0 * math.log10(c_hi / c_lo)


def oracle_recover_bits(trace, bit_rate_hz, threshold_w):
    if len(trace) == 0:
        raise EmptyTrace("cannot recover bits from an empty trace")
    sliced = (trace.watts > threshold_w).astype(np.uint8)

    def centers_of(n_bits):
        return np.rint((np.arange(n_bits) + 0.5) * spb).astype(np.int64)

    spb = trace.sample_rate_hz / bit_rate_hz
    centers = centers_of(len(PREAMBLE_BITS))
    n_offsets = sliced.size - int(centers[-1])
    if n_offsets <= 0:
        raise NoSync("trace shorter than one preamble")
    scores = np.zeros(n_offsets, dtype=np.int32)
    for center, want in zip(centers, PREAMBLE_BITS):
        scores += sliced[center : center + n_offsets] == want
    hits = np.nonzero(scores >= 15)[0]
    if hits.size == 0:
        raise NoSync("no offset reached 15/16 preamble match")
    first = int(hits[0])
    window_end = min(n_offsets, first + int(math.ceil(2 * spb)) + 1)
    sync_offset = first + int(np.argmax(scores[first:window_end]))
    n_bits = int((sliced.size - sync_offset) / spb) + 1
    idx = sync_offset + centers_of(n_bits)
    idx = idx[idx < sliced.size]
    return sliced[idx], sync_offset


def oracle_decode_frame(bits, sync_offset, *, measured_dr_db, threshold_dbm):
    """decode_frame on a numpy array of 0/1 bits: count_nonzero over the
    preamble's mismatches, packbits over the payload."""
    arr = np.asarray(bits, dtype=np.uint8)
    n_pre, n_head = len(PREAMBLE_BITS), FRAME_HEADER_BITS.size
    pre = arr[:n_pre]
    errors = int(np.count_nonzero(pre != FRAME_HEADER_BITS[: pre.size]))
    errors += n_pre - pre.size  # missing preamble bits count as errors

    n_bytes = (arr.size - n_head) // 8
    sync_ok = arr[n_pre:n_head].tobytes() == FRAME_HEADER_BITS[n_pre:].tobytes()
    payload = None
    if sync_ok and 0 < n_bytes <= MAX_PAYLOAD_BYTES:
        payload = np.packbits(arr[n_head : n_head + 8 * n_bytes]).tobytes()
    return DecodeResult(
        status=PAYLOAD_INVALID if payload is None else DECODED,
        payload=payload,
        bit_errors_in_preamble=errors,
        measured_dr_db=measured_dr_db,
        threshold_dbm=threshold_dbm,
        sync_offset=sync_offset,
    )


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (EmptyTrace, NoSync) as exc:
        return type(exc)


def assert_same_decode(trace, bit_rate_hz, threshold_w):
    got = outcome(recover_bits, trace, bit_rate_hz, threshold_w)
    want = outcome(oracle_recover_bits, trace, bit_rate_hz, threshold_w)
    if isinstance(want, type):
        assert got is want
    else:
        (bits, offset), (want_bits, want_offset) = got, want
        assert offset == want_offset
        assert bits.dtype == want_bits.dtype and np.array_equal(bits, want_bits)


@st.composite
def captures(draw):
    """A frame with idle samples before and after it, cut to at most 10^4
    samples, at 8x to 33x oversampling, integral or not."""
    bit_rate = 10e3
    oversampling = draw(
        st.one_of(st.integers(8, 33), st.floats(8.0, 33.0, allow_nan=False))
    )
    sample_rate = bit_rate * oversampling
    payload = draw(st.binary(min_size=1, max_size=16))
    noise = NoiseSpec(draw(st.sampled_from([-math.inf, -60.0, -42.0])), draw(SEEDS))
    frame = synthesize_envelope(
        frame_to_bits(build_frame(payload, bit_rate)), -30.0, -40.0, bit_rate, sample_rate, noise
    )
    idle_level = draw(st.sampled_from([-40.0, -30.0, -35.0]))
    before = np.full(draw(st.integers(0, 9000)), idle_level)
    after = np.full(draw(st.integers(0, 2000)), idle_level)
    samples = np.concatenate([before, frame.samples, after])
    samples = samples[: draw(st.integers(0, 10_000))]
    return dbm_trace(sample_rate, samples), bit_rate


class TestDifferentialDecode:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        capture=captures(),
        threshold=st.one_of(st.none(), st.floats(-45.0, -25.0).map(dbm_to_watts)),
    )
    def test_matches_loop_oracle(self, capture, threshold):
        trace, bit_rate = capture
        levels = outcome(measure_levels, trace)
        want_levels = outcome(oracle_measure_levels, trace)
        if isinstance(want_levels, type):
            assert levels is want_levels
            threshold = dbm_to_watts(-35.0) if threshold is None else threshold
        else:
            assert repr(levels) == repr(want_levels)
            threshold = levels[0] if threshold is None else threshold
        assert_same_decode(trace, bit_rate, threshold)

    @pytest.mark.parametrize("shift", range(-40, 80, 3))
    def test_first_hit_near_a_block_edge(self, shift):
        # the early 15/16 match lands two bit periods before the frame, so
        # across these shifts the first match and the best score fall in one
        # block, on either side of its edge, or both past it
        frame = clean_frame_trace(b"\x5a\xc3\x01", p_high=-30.0, p_low=-40.0)
        idle = np.full(SYNC_BLOCK + shift, -40.0)
        trace = dbm_trace(frame.sample_rate_hz, np.concatenate([idle, frame.samples]))
        assert_same_decode(trace, 20e3, measure_levels(trace)[0])
        assert decode_trace(trace, 20e3).payload == b"\x5a\xc3\x01"


@st.composite
def recovered_bits(draw):
    """0 to 600 bits as recover_bits hands them on: random bits, or the bits
    of a frame of a 1-64-byte payload followed by up to 64 random bits,
    whole, with 1 or 2 preamble bits flipped, with a broken sync byte, or
    cut off, mostly within its header."""
    def random_bits(n):
        return np.frombuffer(draw(st.binary(min_size=n, max_size=n)), np.uint8) & 1

    kind = draw(st.sampled_from(["random", "whole", "preamble", "sync", "cut"]))
    if kind == "random":
        return random_bits(draw(st.integers(0, 600)))
    payload = draw(st.binary(min_size=1, max_size=MAX_PAYLOAD_BYTES))
    frame = frame_to_bits(build_frame(payload, 10e3))
    bits = np.concatenate([frame, random_bits(draw(st.integers(0, 600 - frame.size)))])
    if kind == "preamble":
        flips = st.lists(st.integers(0, 15), min_size=1, max_size=2, unique=True)
        bits[draw(flips)] ^= 1
    elif kind == "sync":
        flips = st.lists(st.integers(16, 23), min_size=1, max_size=8, unique=True)
        bits[draw(flips)] ^= 1
    elif kind == "cut":
        bits = bits[: draw(st.one_of(st.integers(0, 24), st.integers(0, bits.size)))]
    return bits


class TestDifferentialFrame:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(bits=recovered_bits(), as_list=st.booleans(), offset=st.integers(0, 10_000))
    def test_matches_numpy_oracle(self, bits, as_list, offset):
        # every field as repr spells it, so an int of another type or a
        # payload of another length shows
        arg = bits.tolist() if as_list else bits
        got = decode_frame(arg, offset, **LEVELS)
        want = oracle_decode_frame(bits, offset, **LEVELS)
        fields = [f.name for f in dataclasses.fields(DecodeResult)]
        assert [repr(getattr(got, f)) for f in fields] == [repr(getattr(want, f)) for f in fields]
        assert type(got.bit_errors_in_preamble) is int

    def test_fixed_frames_of_each_kind(self):
        # a whole frame, 2 flipped preamble bits, a broken sync byte and two
        # cut headers, with their status and preamble errors written out
        frame = frame_to_bits(build_frame(b"\x11", 10e3))
        flipped = frame.copy()
        flipped[[1, 4]] ^= 1
        broken = frame.copy()
        broken[20] ^= 1
        for bits, status, errors in [
            (frame, DECODED, 0),
            (flipped, DECODED, 2),
            (broken, PAYLOAD_INVALID, 0),
            (frame[:10], PAYLOAD_INVALID, 6),
            (frame[:0], PAYLOAD_INVALID, 16),
        ]:
            got = decode_frame(bits, 0, **LEVELS)
            assert got == oracle_decode_frame(bits, 0, **LEVELS)
            assert (got.status, got.bit_errors_in_preamble) == (status, errors)


def skewed_trace(n=400, seed=0):
    """Uniform dBm levels over 90 dB: 2-means takes several passes to settle."""
    samples = np.sort(np.random.default_rng(seed).uniform(-90.0, 0.0, n))
    return dbm_trace(16e3, samples)


class TestLevelsOracle:
    """measure_levels stops at the first repeated partition; the oracle
    recomputes the means once more. Their figures must be repr-equal."""

    def assert_matches(self, trace):
        assert repr(measure_levels(trace)) == repr(oracle_measure_levels(trace))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_two_level_traces(self, seed):
        rng = np.random.default_rng(seed)
        n_high, n_low = rng.integers(1, 300, size=2)
        p_low = rng.uniform(-90.0, -20.0)
        trace = two_level_trace(n_high, n_low, p_low + rng.uniform(0.1, 40.0), p_low)
        trace = EnvelopeTrace(trace.sample_rate_hz, rng.permutation(trace.watts))
        self.assert_matches(trace)
        noisy = trace.samples + rng.normal(0.0, rng.uniform(0.01, 3.0), len(trace))
        self.assert_matches(dbm_trace(trace.sample_rate_hz, noisy))

    @pytest.mark.parametrize(
        "samples",
        [
            [-42.0] * 50,  # constant: c_lo == c_hi
            [-42.0],
            [-40.0, -50.0],
            [-50.0, -40.0],
            [-45.0, -45.0],
            [-40.0] * 99 + [-10.0],  # one level, one outlier above it
            [-40.0] * 99 + [-80.0],  # and below it
            [-40.0] * 50 + [-40.0 + 1e-12] + [-40.0] * 49,  # nearly constant
        ],
    )
    def test_degenerate_traces(self, samples):
        self.assert_matches(dbm_trace(16e3, np.array(samples)))

    def test_long_probe(self):
        # the alternating probe of a power sweep point: 10^5 noisy samples
        bits = np.tile([1, 0], 3125)
        noise = NoiseSpec(-60.0, 7)
        trace = synthesize_envelope(bits, -30.0, -45.0, 20e3, 320e3, noise)
        assert len(trace) == 10**5
        self.assert_matches(trace)

    @pytest.mark.parametrize("seed", range(5))
    def test_pass_cap(self, monkeypatch, seed):
        # the cap binds on these traces, and cutting the loop at any pass
        # gives the figures the oracle reaches in as many passes
        trace = skewed_trace(seed=seed)
        settled = oracle_measure_levels(trace)
        assert repr(measure_levels(trace)) == repr(settled)
        assert oracle_measure_levels(trace, 2) != settled
        for cap in range(1, 12):
            monkeypatch.setattr(monitor, "LEVEL_PASSES", cap)
            assert repr(measure_levels(trace)) == repr(oracle_measure_levels(trace, cap))


GEOMETRY_CACHES = (_bit_centers, _bit_counts)


class TestGeometryCaches:
    def test_bounded_after_300_lengths(self):
        for n in range(300):
            trace = clean_frame_trace(b"\x5a", oversampling=8 + n % 7)
            trace = EnvelopeTrace(trace.sample_rate_hz, trace.watts[: 200 + n])
            decode_trace(trace, 20e3)
            synthesize_envelope([1, 0] * (n + 1), -40.0, -50.0, 20e3, 160e3, SILENT)
        for cache in GEOMETRY_CACHES:
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_cached_arrays_read_only(self):
        for arr in (_bit_centers(16, 16.0), _bit_counts(40, 8.3)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


def test_recover_bits_memory_per_sample():
    # a 10^6-sample capture with the frame at its end: every block is scored
    frame = clean_frame_trace(b"\x5a\xc3", p_high=-30.0, p_low=-40.0)
    samples = np.full(10**6, -40.0)
    samples[-len(frame) :] = frame.samples
    trace = dbm_trace(frame.sample_rate_hz, samples)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bits, sync_offset = recover_bits(trace, 20e3, dbm_to_watts(-35.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decode_frame(bits, sync_offset, **LEVELS).payload == b"\x5a\xc3"
    assert peak < 20 * samples.size
