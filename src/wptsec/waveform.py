"""Key-code framing and monitor-side envelope synthesis.

A key code goes on the air as NRZ OOK: CMD high selects the mismatched
(strongly reflecting) rectifier state, so a 1-bit shows up as the high power
level at the monitor. Frames carry a fixed 16-bit alternating preamble and a
sync byte ahead of the payload so the monitor can estimate its threshold and
bit clock without prior level knowledge. This module owns that on-air
contract: FRAME_HEADER_BITS and the two rate checks every layer calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import LinkScenario, NoiseSpec
from .errors import (
    BitRateTooHigh,
    InvertedLevels,
    PayloadTooLarge,
    TraceFormatError,
    UndersampledError,
)

# Switching above ~100 kHz distorts the reflected envelope, so the simulator
# enforces the ceiling rather than modeling the distortion.
MAX_BIT_RATE_HZ = 100_000.0
MIN_OVERSAMPLING = 8
MAX_PAYLOAD_BYTES = 64

PREAMBLE_BITS: tuple[int, ...] = (1, 0) * 8
SYNC_BYTE = 0xD3
# Preamble, then SYNC_BYTE MSB-first: the fixed 24 bits ahead of every payload.
FRAME_HEADER_BITS = np.concatenate(
    [np.array(PREAMBLE_BITS, dtype=np.uint8), np.unpackbits(np.uint8([SYNC_BYTE]))]
)
FRAME_HEADER_BITS.flags.writeable = False

# Floor applied after noise addition so dBm values stay finite.
POWER_FLOOR_W = 1e-18


# Both checks are written so that NaN fails them.
def check_bit_rate(bit_rate_hz: float) -> None:
    """Reject a modulation rate that is not positive or above the ceiling."""
    if not bit_rate_hz > 0:
        raise ValueError(f"bit rate must be > 0, got {bit_rate_hz}")
    if bit_rate_hz > MAX_BIT_RATE_HZ:
        raise BitRateTooHigh(
            f"bit rate {bit_rate_hz} Hz exceeds the {MAX_BIT_RATE_HZ:.0f} Hz ceiling"
        )


def check_oversampling(sample_rate_hz: float, bit_rate_hz: float) -> None:
    """check_bit_rate, then reject a sample rate below MIN_OVERSAMPLING per bit."""
    check_bit_rate(bit_rate_hz)
    if not sample_rate_hz >= MIN_OVERSAMPLING * bit_rate_hz:
        raise UndersampledError(
            f"sample rate {sample_rate_hz} Hz below {MIN_OVERSAMPLING}x bit rate "
            f"{bit_rate_hz} Hz"
        )


@dataclass(frozen=True)
class Frame:
    """On-air unit: preamble, sync byte, then payload bytes, all MSB-first."""

    payload: bytes
    bit_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", bytes(self.payload))
        if len(self.payload) == 0:
            raise ValueError("frame payload must not be empty")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise PayloadTooLarge(
                f"payload of {len(self.payload)} bytes exceeds {MAX_PAYLOAD_BYTES}"
            )
        check_bit_rate(self.bit_rate_hz)

    @property
    def n_bits(self) -> int:
        return FRAME_HEADER_BITS.size + 8 * len(self.payload)

    @property
    def duration_s(self) -> float:
        return self.n_bits / self.bit_rate_hz


def build_frame(payload_bytes: bytes, bit_rate_hz: float) -> Frame:
    """Wrap a key code in the standard preamble + sync framing."""
    return Frame(payload=bytes(payload_bytes), bit_rate_hz=bit_rate_hz)


def bytes_to_bits(data: bytes) -> np.ndarray:
    """MSB-first bit expansion."""
    return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))


def frame_to_bits(frame: Frame) -> np.ndarray:
    """On-air bit sequence: FRAME_HEADER_BITS, then the payload."""
    return np.concatenate([FRAME_HEADER_BITS, bytes_to_bits(frame.payload)])


@dataclass
class EnvelopeTrace:
    """Uniformly sampled received-power envelope in dBm."""

    sample_rate_hz: float
    samples: np.ndarray
    meta: str = ""

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("trace samples must be finite (no NaN/Inf)")
        if "\n" in self.meta:
            raise ValueError("meta must not contain newlines")

    def __len__(self) -> int:
        return int(self.samples.size)


def _bit_boundaries(n_bits: int, sample_rate_hz: float, bit_rate_hz: float) -> np.ndarray:
    # Per-bit rounding of the cumulative sample position keeps the total
    # sample count within one sample of n_bits * sample_rate / bit_rate.
    edges = np.rint(np.arange(n_bits + 1) * (sample_rate_hz / bit_rate_hz))
    return edges.astype(np.int64)


def synthesize_envelope(
    bits,
    p_high_dbm: float,
    p_low_dbm: float,
    bit_rate_hz: float,
    sample_rate_hz: float,
    noise: NoiseSpec,
    meta: str = "",
) -> EnvelopeTrace:
    """Render a bit sequence as the monitor-received power envelope.

    Each bit holds its state level for one bit period; seeded noise is added
    in the linear power domain (mean floor plus zero-mean Gaussian
    fluctuation) and the result converted back to dBm. Identical inputs and
    seed give bit-identical traces.
    """
    bit_arr = np.asarray(bits, dtype=np.uint8)
    if bit_arr.size == 0:
        raise ValueError("bits must not be empty")
    check_oversampling(sample_rate_hz, bit_rate_hz)
    if p_high_dbm < p_low_dbm:
        raise InvertedLevels(f"p_high {p_high_dbm} dBm below p_low {p_low_dbm} dBm")

    edges = _bit_boundaries(bit_arr.size, sample_rate_hz, bit_rate_hz)
    counts = np.diff(edges)
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
    total_w = np.maximum(signal_w, POWER_FLOOR_W)
    samples_dbm = 10.0 * np.log10(total_w) + 30.0
    return EnvelopeTrace(sample_rate_hz=sample_rate_hz, samples=samples_dbm, meta=meta)


def render_envelope(
    scenario: LinkScenario, bits, bit_rate_hz: float, sample_rate_hz: float
) -> EnvelopeTrace:
    """Envelope the monitor receives while the node backscatters ``bits`` over
    ``scenario``: its two state levels, its noise, and its name as meta."""
    return synthesize_envelope(
        bits,
        scenario.state_level_dbm(True),
        scenario.state_level_dbm(False),
        bit_rate_hz,
        sample_rate_hz,
        scenario.noise,
        meta=scenario.name,
    )


def generate_square_cmd(freq_hz: float, duration_s: float, sample_rate_hz: float) -> np.ndarray:
    """Per-sample 50% duty square CMD sequence, high at t=0.

    Duty cycle over whole periods is exactly 0.5 when sample_rate_hz is a
    multiple of 2*freq_hz (the usual oversampled case).
    """
    check_oversampling(sample_rate_hz, freq_hz)
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    n = int(round(duration_s * sample_rate_hz))
    half_periods = np.floor(np.arange(n) * (2.0 * freq_hz / sample_rate_hz)).astype(np.int64)
    return ((half_periods % 2) == 0).astype(np.uint8)


# --- trace file format -------------------------------------------------------
#
# Line 1: sample_rate_hz=<int>,unit=dbm,meta=<string>
# Then one sample per line. Floats are written with repr(), the shortest
# decimal string that round-trips the float64 exactly, so write-then-read is
# bit-exact.

_HEADER_RE = re.compile(r"^sample_rate_hz=(\d+),unit=dbm,meta=(.*)$")


def format_trace(trace: EnvelopeTrace) -> str:
    rate = trace.sample_rate_hz
    if rate != int(rate):
        raise ValueError(f"sample rate must be integral for the file format, got {rate}")
    lines = [f"sample_rate_hz={int(rate)},unit=dbm,meta={trace.meta}"]
    lines.extend(repr(float(s)) for s in trace.samples)
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> EnvelopeTrace:
    lines = text.splitlines()
    if not lines:
        raise TraceFormatError("empty trace file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise TraceFormatError(f"bad trace header: {lines[0]!r}")
    rate = float(int(m.group(1)))
    meta = m.group(2)
    try:
        samples = np.array([float(s) for s in lines[1:] if s], dtype=np.float64)
    except ValueError as exc:
        raise TraceFormatError(f"bad sample line: {exc}") from None
    return EnvelopeTrace(sample_rate_hz=rate, samples=samples, meta=meta)


def write_trace(trace: EnvelopeTrace, path) -> None:
    Path(path).write_text(format_trace(trace), encoding="ascii", newline="\n")


def read_trace(path) -> EnvelopeTrace:
    return parse_trace(Path(path).read_text(encoding="ascii"))
