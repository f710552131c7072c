"""Monitor-side receiver: threshold estimation, bit recovery, frame decode,
and key verification against the registered code table.

The slicing threshold comes from 2-means clustering of the sample
distribution in linear power, so the monitor needs no prior knowledge of the
absolute levels or the dynamic range. Bits are read by single samples at bit
centers, which is sufficient at the mandated 8x oversampling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import watts_to_dbm
from .errors import EmptyTrace, LevelOverflow, NoSync
from .waveform import (
    FRAME_HEADER_BITS,
    MAX_PAYLOAD_BYTES,
    PREAMBLE_BITS,
    EnvelopeTrace,
    as_bits,
    check_oversampling,
)

if TYPE_CHECKING:
    from .protocol import PvkTable

# 15/16 tolerates one slicing error during acquisition while keeping the
# false-sync probability on random noise below 2^-11 per offset.
PREAMBLE_MATCH_MIN = 15
# 1 where the preamble bit is 0, one row per preamble bit: XOR with the
# sliced bits at the bit centres gives 1 for every bit that matches.
_PREAMBLE_MISMATCH = 1 - np.array(PREAMBLE_BITS, dtype=np.uint8)[:, np.newaxis]
_PREAMBLE_MISMATCH.flags.writeable = False
# The header's bits as bytes, one a bit: decode_frame compares a frame's
# first 16 with the preamble's and the 8 after them with the sync byte's.
_HEADER_BITS = FRAME_HEADER_BITS.tobytes()
_SYNC_BITS = _HEADER_BITS[len(PREAMBLE_BITS) :]
# 0/1 bytes to the digits int() reads in base 2
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")
# Offsets scored at a time in recover_bits, at 18 bytes of temporaries each.
SYNC_BLOCK = 1 << 13
# Cap on 2-means passes in measure_levels; traces settle in a handful.
LEVEL_PASSES = 100

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
        if not unmeasured and not self.measured_dr_db >= 0:
            raise ValueError(f"measured_dr_db must be >= 0, got {self.measured_dr_db}")


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


def _mean(x: np.ndarray, peak: float) -> float:
    """Mean of the cluster ``x``, no sample of which exceeds ``peak`` watts,
    or ``LevelOverflow`` when its sum passes the float range.

    While ``peak`` times one more than the count is finite, no sum of the
    cluster can overflow (the one extra sample covers the sum's rounding),
    so the sum is taken as it is. Only past that bound, at the edge of the
    float range, is it taken with overflow ignored and then checked."""
    # one temporary at a time: holding both clusters' copies at once makes
    # each 2-means step on a long trace fault in fresh pages
    # float(sum) / size is the quotient numpy's float64 / int gives
    if peak * (x.size + 1) < math.inf:
        return float(np.add.reduce(x)) / x.size
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(x))
    if total == math.inf:
        raise LevelOverflow(f"{x.size} samples of up to {peak} W sum past the float range")
    return total / x.size


def measure_levels(trace: EnvelopeTrace) -> tuple[float, float]:
    """(threshold_w, dr_db) from one 2-means clustering of ``trace.watts``,
    initialized at (min, max): the midpoint of the two cluster means, and
    their dB spacing (0 for a degenerate trace, inf for a 0 W low level
    under a positive high one). The watts are read, never written.

    The reductions are the kernels that ``min``, ``max`` and ``mean`` run,
    called without numpy's Python wrappers, so the figures are bit-identical
    to theirs. Iteration stops at the first repeated partition, since the
    same mask gives the same means: the clustering has converged, and at a
    midpoint that would put every sample in the low cluster.

    Levels past the float range raise ``LevelOverflow``: a sample past it in
    watts, a cluster sum past it (see ``_mean``), or a midpoint past it.
    Each of these would otherwise give NaN or inf figures.
    A flat trace takes no sum and keeps its level."""
    if len(trace) == 0:
        raise EmptyTrace("cannot analyze an empty trace")
    lin = trace.watts
    c_lo = float(np.minimum.reduce(lin))
    c_hi = peak = float(np.maximum.reduce(lin))
    if not peak < math.inf:
        raise LevelOverflow("a sample passes the float range in watts")
    if c_lo == c_hi:
        return c_hi, 0.0  # the midpoint of c with c is c
    prev = b""
    for _ in range(LEVEL_PASSES):
        mid = 0.5 * (c_lo + c_hi)
        if not mid < peak:  # rounded up to the peak, or overflowed
            break
        low = lin <= mid
        # a bytes compare costs less than np.array_equal on short traces
        mask = low.tobytes()
        if mask == prev:
            break
        prev = mask
        c_lo, c_hi = _mean(lin[low], mid), _mean(lin[~low], peak)
    mid = 0.5 * (c_lo + c_hi)
    if mid == math.inf:
        raise LevelOverflow(f"levels of {c_lo} and {c_hi} W sum past the float range")
    return mid, math.inf if c_lo == 0.0 else 10.0 * math.log10(c_hi / c_lo)


@functools.lru_cache(maxsize=16)
def _bit_centers(n_bits: int, samples_per_bit: float) -> np.ndarray:
    """Sample index of the centre of each of ``n_bits`` bits; read-only,
    since one array is shared by every trace of the same frame shape."""
    centers = np.rint((np.arange(n_bits) + 0.5) * samples_per_bit).astype(np.int64)
    centers.flags.writeable = False
    return centers


def _preamble_scores(sliced: np.ndarray, centers: np.ndarray, start: int, stop: int):
    """Preamble bits matched at each offset in [start, stop): the 16
    bit-centre rows are gathered in one step from a strided view whose row i
    is ``sliced[start + i : start + i + (stop - start)]``."""
    rows = np.ndarray(
        (int(centers[-1]) + 1, stop - start), np.uint8, sliced, start, (1, 1)
    )[centers]
    rows ^= _PREAMBLE_MISMATCH  # 1 where the sliced bit is the preamble's
    return np.add.reduce(rows, axis=0, dtype=np.uint8)


def recover_bits(
    trace: EnvelopeTrace, bit_rate_hz: float, threshold_w: float
) -> tuple[np.ndarray, int]:
    """Slice ``trace.watts`` at threshold_w (a sample equal to it slices
    low) and acquire bit sync on the frame preamble. A threshold_w that is
    NaN, inf or below 0 W, as a dBm figure mostly is, is a ``ValueError``.

    Returns (bits, sync_offset): bits sampled at bit centers starting at the
    first sample offset where at least 15 of the 16 preamble bits match, and
    that offset. Raises NoSync when no offset qualifies.

    Offsets are scored SYNC_BLOCK at a time, and scoring stops at the first
    block that holds a match, so the temporaries stay bounded whatever the
    trace length.
    """
    if not 0.0 <= threshold_w < math.inf:
        raise ValueError(f"threshold {threshold_w!r} W is not a finite power >= 0 W")
    if len(trace) == 0:
        raise EmptyTrace("cannot recover bits from an empty trace")
    check_oversampling(trace.sample_rate_hz, bit_rate_hz)
    sliced = np.greater(trace.watts, threshold_w).view(np.uint8)

    spb = trace.sample_rate_hz / bit_rate_hz
    centers = _bit_centers(len(PREAMBLE_BITS), spb)
    n_offsets = sliced.size - int(centers[-1])
    if n_offsets <= 0:
        raise NoSync("trace shorter than one preamble")

    # The alternating preamble matches itself 15/16 one period (2 bits) early
    # when preceded by steady padding, so refine the first crossing by a peak
    # search over the next two bit periods; earliest best score wins. Each
    # block also scores the window after its last offset.
    window = int(math.ceil(2 * spb)) + 1
    for start in range(0, n_offsets, SYNC_BLOCK):
        scores = _preamble_scores(
            sliced, centers, start, min(n_offsets, start + SYNC_BLOCK + window)
        )
        hits = scores[:SYNC_BLOCK] >= PREAMBLE_MATCH_MIN
        first = int(hits.argmax())
        if hits[first]:
            sync_offset = start + first + int(scores[first : first + window].argmax())
            break
    else:
        raise NoSync(
            f"no offset reached {PREAMBLE_MATCH_MIN}/{len(PREAMBLE_BITS)} preamble match"
        )

    rest = sliced[sync_offset:]
    centers = _bit_centers(int(rest.size / spb) + 1, spb)
    # at 8 or more samples per bit only the last centre can fall past the end
    return rest[centers[:-1] if centers[-1] >= rest.size else centers], sync_offset


def decode_frame(
    bits, sync_offset: int, *, measured_dr_db: float, threshold_dbm: float
) -> DecodeResult:
    """Strip framing from a recovered bit sequence.

    ``bits`` starts at the preamble (as returned by recover_bits). The
    result records ``sync_offset`` and the trace's measured levels as
    given; none has a default, so it never shows a value nobody measured.
    The payload is every whole byte after the sync byte; anything malformed
    downgrades the status to payload_invalid rather than raising. Bits that
    ``as_bits`` refuses, a value other than 0 or 1 or an array that is not
    one-dimensional, are not malformed framing but a bad argument:
    ``ValueError``.

    The bits are read once, as bytes of 0 and 1: preamble errors are the
    set bits of the XOR of the preamble's bytes and the header's read as
    integers, the sync byte is one bytes compare, and the payload is its
    bits read as a base-2 numeral.
    """
    raw = as_bits(bits).tobytes()
    n_pre, n_head = len(PREAMBLE_BITS), len(_HEADER_BITS)
    pre = raw[:n_pre]
    want = _HEADER_BITS[: len(pre)]
    errors = (int.from_bytes(pre, "big") ^ int.from_bytes(want, "big")).bit_count()
    errors += n_pre - len(pre)  # missing preamble bits count as errors

    n_bytes = (len(raw) - n_head) // 8
    payload = None
    if raw[n_pre:n_head] == _SYNC_BITS and 0 < n_bytes <= MAX_PAYLOAD_BYTES:
        digits = raw[n_head : n_head + 8 * n_bytes].translate(_BINARY_DIGITS)
        payload = int(digits, 2).to_bytes(n_bytes, "big")
    return DecodeResult(
        status=PAYLOAD_INVALID if payload is None else DECODED,
        payload=payload,
        bit_errors_in_preamble=errors,
        measured_dr_db=measured_dr_db,
        threshold_dbm=threshold_dbm,
        sync_offset=sync_offset,
    )


def decode_trace(trace: EnvelopeTrace, bit_rate_hz: float) -> DecodeResult:
    """Full demodulation chain for one trace: measure_levels, then
    recover_bits at its threshold in watts, which the result holds in dBm.
    Sync failure becomes a no_sync result instead of an exception."""
    threshold_w, dr = measure_levels(trace)
    threshold = watts_to_dbm(threshold_w)
    try:
        bits, sync_offset = recover_bits(trace, bit_rate_hz, threshold_w)
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
