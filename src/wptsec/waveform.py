"""Key-code framing and monitor-side envelope synthesis.

A key code goes on the air as NRZ OOK: CMD high selects the mismatched
(strongly reflecting) rectifier state, so a 1-bit shows up as the high power
level at the monitor. Frames carry a fixed 16-bit alternating preamble and a
sync byte ahead of the payload so the monitor can estimate its threshold and
bit clock without prior level knowledge. This module owns that on-air
contract: FRAME_HEADER_BITS, the two rate checks every layer calls, and
the cap on a trace's length.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .channel import LinkScenario, NoiseSpec, dbm_to_watts
from .errors import (
    BitRateTooHigh,
    InvertedLevels,
    PayloadTooLarge,
    TraceFormatError,
    TraceTooLong,
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
# The same 24 bits packed: 3 bytes, which frame_to_bits puts ahead of a payload.
_FRAME_HEADER_BYTES = np.packbits(FRAME_HEADER_BITS).tobytes()

# Cap on the samples of one rendered trace. A render holds one float64 array
# of its length and measuring it a few, 512 MiB each at the cap.
MAX_TRACE_SAMPLES = 2**26

# Floor applied after noise addition so every power is > 0 W.
POWER_FLOOR_W = 1e-18

# Noise samples drawn at a time, so a render holds one trace-sized array:
# 64 KiB temporaries, below glibc's 128 KiB mmap threshold; 13 passes per 1e5.
NOISE_BLOCK = 8192
# The noise head of a render that draws all of its noise itself.
_NO_HEAD = np.empty(0)
_NO_HEAD.flags.writeable = False


# Both checks are written so that NaN fails them.
def check_bit_rate(bit_rate_hz: float) -> None:
    """Reject a modulation rate that is not positive or above the ceiling."""
    if not bit_rate_hz > 0:
        raise ValueError(f"bit rate must be > 0, got {bit_rate_hz}")
    if bit_rate_hz > MAX_BIT_RATE_HZ:
        raise BitRateTooHigh(
            f"bit rate {bit_rate_hz} Hz exceeds the {MAX_BIT_RATE_HZ:.0f} Hz ceiling"
        )


def sample_rate(bit_rate_hz: float, oversampling: int) -> float:
    """The sample rate of ``oversampling`` samples per bit at ``bit_rate_hz``:
    the rate a monitor samples at and a probe is rendered at."""
    return oversampling * bit_rate_hz


def check_oversampling(sample_rate_hz: float, bit_rate_hz: float) -> None:
    """check_bit_rate, then reject a sample rate below MIN_OVERSAMPLING per bit
    or one that is not finite."""
    check_bit_rate(bit_rate_hz)
    if not sample_rate_hz >= MIN_OVERSAMPLING * bit_rate_hz:
        raise UndersampledError(
            f"sample rate {sample_rate_hz} Hz below {MIN_OVERSAMPLING}x bit rate "
            f"{bit_rate_hz} Hz"
        )
    if sample_rate_hz == np.inf:
        raise ValueError(f"sample rate must be finite, got {sample_rate_hz}")


def check_trace_samples(n_bits: int, samples_per_bit: float) -> None:
    """Reject a trace of n_bits at samples_per_bit that would hold more than
    MAX_TRACE_SAMPLES samples."""
    if not n_bits * samples_per_bit <= MAX_TRACE_SAMPLES:
        raise TraceTooLong(
            f"{n_bits} bits at {samples_per_bit} samples per bit exceed the "
            f"{MAX_TRACE_SAMPLES}-sample trace cap"
        )


def frame_bits(payload_len: int) -> int:
    """Bits on air in the frame of a payload_len-byte payload:
    FRAME_HEADER_BITS, then 8 a payload byte."""
    return FRAME_HEADER_BITS.size + 8 * payload_len


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
        return frame_bits(len(self.payload))

    @property
    def duration_s(self) -> float:
        return self.n_bits / self.bit_rate_hz


def build_frame(payload_bytes: bytes, bit_rate_hz: float) -> Frame:
    """Wrap a key code in the standard preamble + sync framing."""
    return Frame(payload=bytes(payload_bytes), bit_rate_hz=bit_rate_hz)


def frame_to_bits(frame: Frame) -> np.ndarray:
    """On-air bit sequence: FRAME_HEADER_BITS, then the payload, MSB-first."""
    return np.unpackbits(np.frombuffer(_FRAME_HEADER_BYTES + frame.payload, dtype=np.uint8))


_NOT_FINITE = "trace samples must be finite (no NaN/Inf)"


def _powers(values) -> np.ndarray:
    """Outside input as a new one-dimensional float64 array of powers in
    watts, each finite and > 0."""
    values = np.array(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if values.size:
        if not np.isfinite(values).all():
            raise ValueError(_NOT_FINITE)
        if not np.minimum.reduce(values) > 0.0:
            raise ValueError("trace powers must be > 0 W")
    return values


class EnvelopeTrace:
    """Uniformly sampled received-power envelope: ``watts``, a read-only
    contiguous float64 array of powers, each finite and > 0 W, which the
    trace owns. The meta is ASCII and holds no line break that
    ``str.splitlines`` would split at."""

    def __init__(self, sample_rate_hz: float, watts, meta: str = "") -> None:
        self._set(sample_rate_hz, watts, meta, _powers)

    @classmethod
    def _held(cls, rate: float, watts: np.ndarray, meta: str, check) -> "EnvelopeTrace":
        """A trace of ``watts``, a contiguous array no one else writes, as
        they are, judged by ``check`` alone."""
        trace = cls.__new__(cls)
        trace._set(rate, watts, meta, check)
        return trace

    def _set(self, sample_rate_hz: float, watts, meta: str, check) -> None:
        """What every trace is built through: the rate check, ``check`` on the
        powers, then the meta checks. Sets the rate, the watts ``check``
        returned, made read-only so that no write gets past the checks, and
        the meta."""
        if not 0 < sample_rate_hz < np.inf:  # write_trace spells it as an int
            raise ValueError(f"sample_rate_hz must be > 0 and finite, got {sample_rate_hz}")
        watts = check(watts)
        if meta.splitlines() not in ([], [meta]):  # read_trace splits lines there
            raise ValueError("meta must not contain line breaks")
        if not meta.isascii():
            raise ValueError("meta must be ASCII, as the trace file is")
        watts.flags.writeable = False
        self.sample_rate_hz, self.watts, self.meta = sample_rate_hz, watts, meta

    @property
    def samples(self) -> np.ndarray:
        """The envelope in dBm, computed on each read."""
        return np.log10(self.watts) * 10.0 + 30.0

    def __len__(self) -> int:
        return int(self.watts.size)


def as_bits(bits) -> np.ndarray:
    """``bits`` as a one-dimensional uint8 array. Any other shape is a
    ``ValueError`` that names it, and so is any value other than 0 and 1.
    Integer, bool and float input holding only 0s and 1s is accepted; a
    uint8 array is returned as it is, checked on its bytes: deleting every
    0 and 1 byte must leave none."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        ok = not arr.tobytes().translate(None, b"\0\1")
    else:
        ok = ((arr == 0) | (arr == 1)).all()
        if ok:
            arr = arr.astype(np.uint8)
    if not ok:
        raise ValueError("bits must be 0 or 1")
    return arr


@functools.lru_cache(maxsize=16)
def _bit_counts(n_bits: int, samples_per_bit: float) -> np.ndarray:
    """Samples in each of ``n_bits`` bits; read-only, since one array is
    shared by every envelope of the same frame shape."""
    # Per-bit rounding of the cumulative sample position keeps the total
    # sample count within one sample of n_bits * samples_per_bit.
    edges = np.rint(np.arange(n_bits + 1) * samples_per_bit).astype(np.int64)
    counts = np.diff(edges)
    counts.flags.writeable = False
    return counts


def trace_length(n_bits: int, bit_rate_hz: float, sample_rate_hz: float) -> int:
    """Samples in the render of ``n_bits`` bits: the sum of the per-bit
    counts the render repeats its levels by."""
    return int(_bit_counts(n_bits, sample_rate_hz / bit_rate_hz).sum())


def synthesize_envelope(
    bits,
    p_high_dbm: float,
    p_low_dbm: float,
    bit_rate_hz: float,
    sample_rate_hz: float,
    noise: NoiseSpec,
    meta: str = "",
    *,
    ahead: tuple[np.ndarray, np.random.Generator] | None = None,
) -> EnvelopeTrace:
    """Render a bit sequence as the monitor-received power envelope.

    Each bit holds its state level for one bit period; seeded noise is added
    in watts (mean floor plus zero-mean Gaussian fluctuation), and each
    sample is floored at POWER_FLOOR_W. The trace holds those watts; its
    dBm ``samples`` are computed only when read. Identical inputs and seed
    give bit-identical traces. A bit other than 0 or 1 is a ``ValueError``,
    and so is a sample past the float range, with no numpy warning.

    The fluctuation is one ``standard_normal(n)`` draw, taken NOISE_BLOCK
    samples at a time, and scaled. ``rng.normal(0.0, floor, n)`` would give
    ``0.0 + floor * z`` for the same z, which differs only in the sign of a
    zero, and adding it to a positive sample erases that sign.

    ``ahead`` is the noise head drawn before the call and the generator it
    was drawn from: the first ``standard_normal`` values of
    ``noise.generator()``, at most one a sample. The render scales the head
    in place and adds it to the first samples, then draws the rest from that
    generator, so the trace's bytes are those of a render without it.
    """
    bit_arr = as_bits(bits)
    if bit_arr.size == 0:
        raise ValueError("bits must not be empty")
    check_oversampling(sample_rate_hz, bit_rate_hz)
    samples_per_bit = sample_rate_hz / bit_rate_hz
    check_trace_samples(bit_arr.size, samples_per_bit)
    if p_high_dbm < p_low_dbm:
        raise InvertedLevels(f"p_high {p_high_dbm} dBm below p_low {p_low_dbm} dBm")

    counts = _bit_counts(bit_arr.size, samples_per_bit)
    # Each sample starts as its level plus the floor, summed once per level:
    # the same IEEE sum as adding the floor to every repeated sample.
    # ndarray.repeat returns a fresh array: every step below works in place
    # on it, in the order of max(signal + floor + noise, POWER_FLOOR_W).
    floor_w = noise.mean_power_w
    hi_w, lo_w = dbm_to_watts(p_high_dbm) + floor_w, dbm_to_watts(p_low_dbm) + floor_w
    samples = np.where(bit_arr, hi_w, lo_w).repeat(counts)
    if floor_w > 0.0:
        head, rng = ahead or (_NO_HEAD, noise.generator())
        # a sum past the float range is reported once, by the check below
        with np.errstate(over="ignore", invalid="ignore"):
            if head.size:
                samples[: head.size] += np.multiply(head, floor_w, out=head)
            for start in range(head.size, samples.size, NOISE_BLOCK):
                block = samples[start : start + NOISE_BLOCK]
                z = rng.standard_normal(block.size)
                z *= floor_w
                block += z
    np.maximum(samples, POWER_FLOOR_W, out=samples)
    return EnvelopeTrace._held(sample_rate_hz, samples, meta, _not_overflowed)


def _not_overflowed(watts: np.ndarray) -> np.ndarray:
    """A render's floored watts, > 0, unless a sum overflowed to inf or NaN."""
    if not np.maximum.reduce(watts) < np.inf:
        raise ValueError(_NOT_FINITE)
    return watts


def render_envelope(
    scenario: LinkScenario,
    bits,
    bit_rate_hz: float,
    sample_rate_hz: float,
    *,
    ahead: tuple[np.ndarray, np.random.Generator] | None = None,
) -> EnvelopeTrace:
    """Envelope the monitor receives while the node backscatters ``bits`` over
    ``scenario``: its two state levels, its noise (with the noise head
    ``ahead``, as synthesize_envelope takes it), and its name as meta."""
    return synthesize_envelope(
        bits,
        scenario.state_level_dbm(True),
        scenario.state_level_dbm(False),
        bit_rate_hz,
        sample_rate_hz,
        scenario.noise,
        meta=scenario.name,
        ahead=ahead,
    )


# --- trace file format -------------------------------------------------------
#
# Line 1: sample_rate_hz=<int>,unit=w,meta=<string>
# Then one power in watts per line, spelled as orjson spells the float64: the
# shortest decimal string that round-trips it (Ryu, integer arithmetic only),
# so the bytes do not depend on the CPU and write-then-read is bit-exact.

_HEADER_RE = re.compile(r"^sample_rate_hz=(\d+),unit=([^,]*),meta=(.*)$")
# Samples formatted at a time: write_trace holds one chunk's text, so its
# memory does not grow with the trace length.
TRACE_CHUNK_SAMPLES = 1024


def _sample_chunks(watts: np.ndarray):
    """The sample lines as ASCII bytes, TRACE_CHUNK_SAMPLES at a time, each
    chunk ending in a newline."""
    import orjson  # here, so that only trace files load it

    for start in range(0, watts.size, TRACE_CHUNK_SAMPLES):
        chunk = watts[start : start + TRACE_CHUNK_SAMPLES]  # contiguous, as orjson needs
        text = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)
        yield text[1:-1].replace(b",", b"\n") + b"\n"  # "[a,b,c]" -> "a\nb\nc\n"


def write_trace(trace: EnvelopeTrace, path) -> None:
    """Write the trace file one chunk at a time; a non-integral sample rate
    raises before the file is opened."""
    rate = trace.sample_rate_hz
    if rate != int(rate):
        raise ValueError(f"sample rate must be integral for the file format, got {rate}")
    header = f"sample_rate_hz={int(rate)},unit=w,meta={trace.meta}\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.writelines(_sample_chunks(trace.watts))


def _block_powers(text: str) -> list:
    """The samples of one block of whole lines: one ``orjson.loads`` of its
    lines as a JSON array, or else, where orjson rejects the block or reads
    a line as other than one float (an int, ``true``, a list), ``float()`` of
    each non-blank line, which raises the ValueError that names a bad one."""
    import orjson

    body = text.rstrip("\n")
    if "," not in body:  # else one line could hold two numbers
        try:
            values = orjson.loads("[" + body.replace("\n", ",") + "]")
            if set(map(type, values)) <= {float}:
                return values
        except orjson.JSONDecodeError:
            pass
    return list(map(float, filter(None, text.splitlines())))


def _file_powers(watts: np.ndarray) -> np.ndarray:
    """A trace file's samples, each finite and > 0 W; else a TraceFormatError
    that names the first bad sample."""
    if watts.size and not (np.minimum.reduce(watts) > 0.0 and np.maximum.reduce(watts) < np.inf):
        i = int(((watts > 0.0) & (watts < np.inf)).argmin())  # NaN fails both
        x = float(watts[i])
        what = "not > 0 W" if math.isfinite(x) else "not finite"
        raise TraceFormatError(f"bad sample line: samples[{i}] is {x!r}, {what}")
    return watts


def read_trace(path) -> EnvelopeTrace:
    """Read the trace file about 64 KB of whole lines at a time, split as
    str.splitlines splits them: the header, then one power per non-blank
    line, each block parsed as it comes so only the samples array is held.
    A byte that is not ASCII, a header without a sample rate > 0 that is
    finite as a float, a unit other than ``w``, or a line that is not one
    finite float > 0 is a TraceFormatError."""
    with open(path, encoding="ascii") as f:
        blocks = iter(lambda: f.read(1 << 16) + f.readline(), "")
        try:
            lines = next(blocks, "").splitlines()
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"trace file is not ASCII: {exc}") from None
        if not lines:
            raise TraceFormatError("empty trace file")
        m = _HEADER_RE.match(lines[0])
        rate = float(m.group(1)) if m else 0.0  # float(int(digits)), or inf past the range
        if not 0.0 < rate < np.inf:
            raise TraceFormatError(f"bad trace header: {lines[0]!r}")
        if m.group(2) != "w":
            raise TraceFormatError(f"trace unit {m.group(2)!r} is not 'w' (watts)")
        try:
            rest = chain(["\n".join(lines[1:])], blocks)
            watts = np.fromiter(chain.from_iterable(map(_block_powers, rest)), dtype=np.float64)
        except ValueError as exc:  # also a byte past the first block that is not ASCII
            raise TraceFormatError(f"bad sample line: {exc}") from None
    return EnvelopeTrace._held(rate, watts, m.group(3), _file_powers)
