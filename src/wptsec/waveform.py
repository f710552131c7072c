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

# Floor applied after noise addition so dBm values stay finite.
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


def _finite(values) -> np.ndarray:
    """Outside input as a one-dimensional float64 array of finite values."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if values.size and not np.isfinite(values).all():
        raise ValueError(_NOT_FINITE)
    return values


class EnvelopeTrace:
    """Uniformly sampled received-power envelope, held in the unit it was
    built in: watts from the render or ``from_watts``, else dBm. The other
    view, ``watts`` or ``samples`` (dBm), is computed on first read and
    kept. Either view is a finite float64 array; the meta is ASCII and
    holds no line break that ``str.splitlines`` would split at."""

    def __init__(self, sample_rate_hz: float, samples, meta: str = "") -> None:
        self._dbm, self._watts = self._checked(sample_rate_hz, samples, meta, _finite), None

    @classmethod
    def from_watts(cls, sample_rate_hz: float, watts, meta: str = "") -> "EnvelopeTrace":
        """A trace of powers in watts, each finite and > 0."""
        trace = cls._held(sample_rate_hz, watts, meta, _finite, in_watts=True)
        if trace._watts.size and not np.minimum.reduce(trace._watts) > 0.0:
            raise ValueError("trace powers must be > 0 W")
        return trace

    @classmethod
    def _held(cls, rate: float, values, meta: str, check, in_watts: bool) -> "EnvelopeTrace":
        """A trace held in watts, or else in dBm, its values judged by ``check``."""
        trace = cls.__new__(cls)
        values = trace._checked(rate, values, meta, check)
        trace._dbm, trace._watts = (None, values) if in_watts else (values, None)
        return trace

    def _checked(self, sample_rate_hz: float, values, meta: str, check) -> np.ndarray:
        """What every trace is built through: the rate check, ``check`` on the
        values, then the meta checks. Sets the rate and the meta, and returns
        the array ``check`` returned."""
        if not 0 < sample_rate_hz < np.inf:  # write_trace spells it as an int
            raise ValueError(f"sample_rate_hz must be > 0 and finite, got {sample_rate_hz}")
        values = check(values)
        if meta.splitlines() not in ([], [meta]):  # read_trace splits lines there
            raise ValueError("meta must not contain line breaks")
        if not meta.isascii():
            raise ValueError("meta must be ASCII, as the trace file is")
        self.sample_rate_hz, self.meta = sample_rate_hz, meta
        return values

    @property
    def samples(self) -> np.ndarray:
        """The envelope in dBm, as the trace file holds it."""
        if self._dbm is None:  # log10, *10, +30: the steps that give the files' bytes
            self._dbm = np.log10(self._watts) * 10.0 + 30.0
        return self._dbm

    @property
    def watts(self) -> np.ndarray:
        """The envelope in watts, as the monitor clusters and slices it:
        ``channel.dbm_to_watts`` of each dBm sample, on numpy's power kernel."""
        if self._watts is None:
            watts = np.subtract(self._dbm, 30.0, dtype=np.float64)
            watts /= 10.0
            self._watts = np.power(10.0, watts, out=watts)
        return self._watts

    def __len__(self) -> int:
        return int((self._dbm if self._watts is None else self._watts).size)


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
    return EnvelopeTrace._held(sample_rate_hz, samples, meta, _not_overflowed, in_watts=True)


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
# Line 1: sample_rate_hz=<int>,unit=dbm,meta=<string>
# Then one sample per line, its bytes exactly repr()'s: the shortest decimal
# string that round-trips the float64, so write-then-read is bit-exact.
# orjson's shortest round-trip formatter writes repr()'s bytes for every
# magnitude in [REPR_EXACT_MIN, REPR_EXACT_MAX) and for zero; outside it
# the two differ (orjson's 1e16 against repr's 1e+16, 5e-8 against 5e-08,
# 0.00001 against 1e-05), so a chunk holding such a value is written with
# repr().

_HEADER_RE = re.compile(r"^sample_rate_hz=(\d+),unit=dbm,meta=(.*)$")
# Samples formatted at a time: write_trace holds one chunk's text, so its
# memory does not grow with the trace length.
TRACE_CHUNK_SAMPLES = 1024
REPR_EXACT_MIN = 1e-4
REPR_EXACT_MAX = 1e16


def _sample_chunks(samples: np.ndarray):
    """The sample lines as ASCII bytes, TRACE_CHUNK_SAMPLES at a time, each
    chunk ending in a newline."""
    import orjson  # here, so that only writing a trace loads it

    for start in range(0, samples.size, TRACE_CHUNK_SAMPLES):
        # orjson takes only C-contiguous arrays, and a trace's finite float64
        # samples may be a strided view
        chunk = np.ascontiguousarray(samples[start : start + TRACE_CHUNK_SAMPLES])
        mag = np.abs(chunk)
        if ((mag >= REPR_EXACT_MIN) & (mag < REPR_EXACT_MAX) | (mag == 0.0)).all():
            # "[a,b,c]" -> "a\nb\nc\n"
            text = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)
            yield text[1:-1].replace(b",", b"\n") + b"\n"
        else:
            yield ("\n".join(map(repr, chunk.tolist())) + "\n").encode("ascii")


def write_trace(trace: EnvelopeTrace, path) -> None:
    """Write the trace file one chunk at a time; a non-integral sample rate
    raises before the file is opened."""
    rate = trace.sample_rate_hz
    if rate != int(rate):
        raise ValueError(f"sample rate must be integral for the file format, got {rate}")
    header = f"sample_rate_hz={int(rate)},unit=dbm,meta={trace.meta}\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.writelines(_sample_chunks(trace.samples))


def read_trace(path) -> EnvelopeTrace:
    """Read the trace file about 64 KB of whole lines at a time, split as
    str.splitlines splits them: the header, then one sample per non-blank
    line, converted as they come so only the samples array is held. A byte
    that is not ASCII, a header without a sample rate > 0 that is finite as a
    float, or a line that is not one finite float is a TraceFormatError."""
    with open(path, encoding="ascii") as f:
        blocks = iter(lambda: "".join(f.readlines(1 << 16)), "")
        lines = chain.from_iterable(map(str.splitlines, blocks))
        try:
            header = next(lines, None)
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"trace file is not ASCII: {exc}") from None
        if header is None:
            raise TraceFormatError("empty trace file")
        m = _HEADER_RE.match(header)
        rate = float(m.group(1)) if m else 0.0  # float(int(digits)), or inf past the range
        if not 0.0 < rate < np.inf:
            raise TraceFormatError(f"bad trace header: {header!r}")
        try:
            samples = np.fromiter(map(float, filter(None, lines)), dtype=np.float64)
        except ValueError as exc:  # also a byte past the first block that is not ASCII
            raise TraceFormatError(f"bad sample line: {exc}") from None
    def finite(x: np.ndarray) -> np.ndarray:  # the trace's one check of its samples
        if not np.isfinite(x).all():
            i = int(np.isfinite(x).argmin())  # named only once the check failed
            raise TraceFormatError(f"bad sample line: samples[{i}] is {float(x[i])!r}, not finite")
        return x
    return EnvelopeTrace._held(rate, samples, m.group(2), finite, in_watts=False)
