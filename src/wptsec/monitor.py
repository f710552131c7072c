"""Monitor-side receiver: threshold estimation, bit recovery, frame decode,
and key verification against the registered code table.

The slicing threshold comes from 2-means clustering of the sample
distribution in linear power, so the monitor needs no prior knowledge of the
absolute levels or the dynamic range. Bits are read by single samples at bit
centers, which is sufficient at the mandated 8x oversampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyTrace, NoSync
from .waveform import (
    FRAME_HEADER_BITS,
    MAX_PAYLOAD_BYTES,
    PREAMBLE_BITS,
    EnvelopeTrace,
    check_oversampling,
)

if TYPE_CHECKING:
    from .protocol import PvkTable

# 15/16 tolerates one slicing error during acquisition while keeping the
# false-sync probability on random noise below 2^-11 per offset.
PREAMBLE_MATCH_MIN = 15

DECODED = "decoded"
NO_SYNC = "no_sync"
PAYLOAD_INVALID = "payload_invalid"
# the node never woke, so no trace exists and no level was measured
WAKE_TIMEOUT = "wake_timeout"

ACCEPTED = "accepted"
REJECTED_UNKNOWN_KEY = "rejected_unknown_key"
REJECTED_REPLAY = "rejected_replay"
REJECTED_NO_SIGNAL = "rejected_no_signal"
_VERDICTS = (ACCEPTED, REJECTED_UNKNOWN_KEY, REJECTED_REPLAY, REJECTED_NO_SIGNAL)


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of demodulating one envelope trace."""

    status: str
    payload: bytes | None
    bit_errors_in_preamble: int
    measured_dr_db: float | None  # None exactly for wake_timeout, as is threshold_dbm
    threshold_dbm: float | None
    sync_offset: int | None  # first sample of the preamble; None without sync

    def __post_init__(self) -> None:
        if self.status not in (DECODED, NO_SYNC, PAYLOAD_INVALID, WAKE_TIMEOUT):
            raise ValueError(f"unknown decode status: {self.status!r}")
        if (self.payload is not None) != (self.status == DECODED):
            raise ValueError("payload must be present exactly when status is decoded")
        unmeasured = self.status == WAKE_TIMEOUT
        if (self.measured_dr_db is None, self.threshold_dbm is None) != (unmeasured, unmeasured):
            raise ValueError("levels must be None exactly when status is wake_timeout")
        if not unmeasured and self.measured_dr_db < 0:
            raise ValueError("measured_dr_db must be >= 0")


@dataclass(frozen=True)
class AuthDecision:
    """Verdict of checking a decode result against the key table."""

    verdict: str
    matched_key_index: int | None
    decode: DecodeResult

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict: {self.verdict!r}")
        if self.verdict == ACCEPTED and self.matched_key_index is None:
            raise ValueError("accepted decision requires matched_key_index")

    def record(self) -> dict:
        """Structured record for downstream consumers; field names are part
        of the interface and must not change."""
        return {
            "verdict": self.verdict,
            "matched_key_index": self.matched_key_index,
            "measured_dr_db": self.decode.measured_dr_db,
            "threshold_dbm": self.decode.threshold_dbm,
            "status": self.decode.status,
        }


def measure_levels(trace: EnvelopeTrace) -> tuple[float, float]:
    """(threshold_dbm, dr_db) from one 2-means clustering of the trace in
    linear watts, initialized at (min, max): the midpoint of the two cluster
    means, and their dB spacing (0 for a degenerate trace)."""
    if len(trace) == 0:
        raise EmptyTrace("cannot analyze an empty trace")
    lin = 10.0 ** ((trace.samples - 30.0) / 10.0)
    c_lo = float(lin.min())
    c_hi = float(lin.max())
    if c_lo != c_hi:
        for _ in range(100):
            low = lin <= 0.5 * (c_lo + c_hi)
            new_lo = float(lin[low].mean())
            new_hi = float(lin[~low].mean())
            if new_lo == c_lo and new_hi == c_hi:
                break
            c_lo, c_hi = new_lo, new_hi
    threshold_dbm = 10.0 * math.log10(0.5 * (c_lo + c_hi)) + 30.0
    return threshold_dbm, 0.0 if c_lo == c_hi else 10.0 * math.log10(c_hi / c_lo)


def estimate_threshold(trace: EnvelopeTrace) -> float:
    """Slicing threshold in dBm (see measure_levels)."""
    return measure_levels(trace)[0]


def measure_dynamic_range(trace: EnvelopeTrace) -> float:
    """dB spacing of the two cluster means (see measure_levels)."""
    return measure_levels(trace)[1]


def _bit_centers(n_bits: int, samples_per_bit: float) -> np.ndarray:
    return np.rint((np.arange(n_bits) + 0.5) * samples_per_bit).astype(np.int64)


def recover_bits(
    trace: EnvelopeTrace, bit_rate_hz: float, threshold_dbm: float
) -> tuple[np.ndarray, int]:
    """Slice the trace at threshold_dbm and acquire bit sync on the frame
    preamble.

    Returns (bits, sync_offset): bits sampled at bit centers starting at the
    first sample offset where at least 15 of the 16 preamble bits match, and
    that offset. Raises NoSync when no offset qualifies.
    """
    if len(trace) == 0:
        raise EmptyTrace("cannot recover bits from an empty trace")
    check_oversampling(trace.sample_rate_hz, bit_rate_hz)
    sliced = (trace.samples > threshold_dbm).astype(np.uint8)

    spb = trace.sample_rate_hz / bit_rate_hz
    centers = _bit_centers(len(PREAMBLE_BITS), spb)
    n_offsets = sliced.size - int(centers[-1])
    if n_offsets <= 0:
        raise NoSync("trace shorter than one preamble")

    scores = np.zeros(n_offsets, dtype=np.int32)
    for center, want in zip(centers, PREAMBLE_BITS):
        scores += sliced[center : center + n_offsets] == want
    hits = np.nonzero(scores >= PREAMBLE_MATCH_MIN)[0]
    if hits.size == 0:
        raise NoSync(
            f"no offset reached {PREAMBLE_MATCH_MIN}/{len(PREAMBLE_BITS)} preamble match"
        )
    # The alternating preamble matches itself 15/16 one period (2 bits) early
    # when preceded by steady padding, so refine the first crossing by a peak
    # search over the next two bit periods; earliest best score wins.
    first = int(hits[0])
    window_end = min(n_offsets, first + int(math.ceil(2 * spb)) + 1)
    sync_offset = first + int(np.argmax(scores[first:window_end]))

    n_bits = int((sliced.size - sync_offset) / spb) + 1
    idx = sync_offset + _bit_centers(n_bits, spb)
    idx = idx[idx < sliced.size]
    return sliced[idx], sync_offset


def decode_frame(
    bits,
    sync_offset: int = 0,
    *,
    measured_dr_db: float = 0.0,
    threshold_dbm: float = float("nan"),
) -> DecodeResult:
    """Strip framing from a recovered bit sequence.

    ``bits`` starts at the preamble (as returned by recover_bits);
    ``sync_offset`` is carried into the result for provenance. The payload
    is every whole byte after the sync byte; anything malformed downgrades
    the status to payload_invalid rather than raising.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n_pre, n_head = len(PREAMBLE_BITS), FRAME_HEADER_BITS.size
    pre = arr[:n_pre]
    errors = int(np.sum(pre != FRAME_HEADER_BITS[: pre.size]))
    errors += n_pre - pre.size  # missing preamble bits count as errors

    n_bytes = (arr.size - n_head) // 8
    sync_ok = np.array_equal(arr[n_pre:n_head], FRAME_HEADER_BITS[n_pre:])
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


def decode_trace(trace: EnvelopeTrace, bit_rate_hz: float) -> DecodeResult:
    """Full demodulation chain for one trace; sync failure becomes a
    no_sync result instead of an exception."""
    threshold, dr = measure_levels(trace)
    try:
        bits, sync_offset = recover_bits(trace, bit_rate_hz, threshold)
    except NoSync:
        return DecodeResult(
            status=NO_SYNC,
            payload=None,
            bit_errors_in_preamble=0,
            measured_dr_db=dr,
            threshold_dbm=threshold,
            sync_offset=None,
        )
    return decode_frame(bits, sync_offset, measured_dr_db=dr, threshold_dbm=threshold)


def verify(decode: DecodeResult, table: "PvkTable") -> AuthDecision:
    """Check a decoded payload against the key table, one-time-key style.

    An accepted key is consumed (marked used) so that replaying the same
    code, however it was captured, is rejected.
    """
    if decode.payload is None:
        return AuthDecision(verdict=REJECTED_NO_SIGNAL, matched_key_index=None, decode=decode)
    index = table.find(decode.payload)
    if index is None:
        return AuthDecision(verdict=REJECTED_UNKNOWN_KEY, matched_key_index=None, decode=decode)
    if table.is_used(index):
        return AuthDecision(verdict=REJECTED_REPLAY, matched_key_index=index, decode=decode)
    table.mark_used(index)
    return AuthDecision(verdict=ACCEPTED, matched_key_index=index, decode=decode)


def authenticate(trace: EnvelopeTrace, bit_rate_hz: float, table: "PvkTable") -> AuthDecision:
    """decode_trace followed by verify."""
    return verify(decode_trace(trace, bit_rate_hz), table)
