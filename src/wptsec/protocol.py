"""Session-level simulation: node energy state machine, key tables, the
communication-node session driver, and the eavesdrop-and-replay attacker.

The node spends nearly all of its time harvesting; once its storage crosses
the wake threshold it backscatters one key frame and returns to harvesting.
Both sides hold identical provisioned tables (same generator seed); the node
burns a key at emission, the monitor burns it at accept, so no return channel
is needed and a missed frame simply costs a key.
"""

from __future__ import annotations

import copy
import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .channel import LinkScenario, check_seed
from .errors import TableCapacityError, TableExhausted, TableTooLarge
from .monitor import (
    REJECTED_NO_SIGNAL,
    WAKE_TIMEOUT,
    AuthDecision,
    DecodeResult,
    decode_trace,
    verify,
)
from .waveform import (
    MAX_PAYLOAD_BYTES,
    EnvelopeTrace,
    Frame,
    build_frame,
    check_oversampling,
    frame_bits,
    frame_to_bits,
    render_envelope,
    sample_rate,
)

DEFAULT_STORAGE_CAPACITY_J = 100e-6
DEFAULT_WAKE_THRESHOLD_J = 10e-6
DEFAULT_TX_COST_J_PER_BIT = 1e-9
DEFAULT_DT_S = 100e-6
KEY_POLICIES = ("sequential", "random")
ATTACKER_KINDS = ("none", "replay")

# Cap on the keys of one table. A provisioned table keeps 21 bytes a key at
# 8-byte keys and 133 at 64-byte keys (the codes twice, in table order and
# sorted, 4 bytes of index and 1 of flags), and its first draw at a rank
# above 0 adds a rank tree of 4 more, which the sequential policy and the
# monitor's copy (1 byte a key of flags) never build. At the cap a table
# that has drawn at random keeps 0.06 GB at 3-byte keys to 0.58 GB at
# 64-byte keys. Provisioning peaks (tracemalloc) at 0.84x that at the cap
# of 8-byte keys (1.00x a fresh table), 1.00x at 4-byte keys, and 1.23x at
# 3-byte keys, where the sort holds 1.15 draws a key in 8-byte words.
MAX_TABLE_KEYS = 2**22


class _Codes(Sequence):
    """Read-only sequence of a table's codes, read in table order through a
    memoryview of a fixed-width bytes array: item i is the i-th code as
    bytes, trailing zero bytes included, and a negative index counts from
    the end. A view equals a view of the same codes and a list of them."""

    __slots__ = ("_blob", "_n", "key_len")

    def __init__(self, codes: np.ndarray) -> None:
        self._blob = memoryview(codes.view(np.uint8))
        self._n, self.key_len = codes.size, codes.dtype.itemsize

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> bytes:
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("key index out of range")
        start = index * self.key_len
        return self._blob[start : start + self.key_len].tobytes()

    def __iter__(self) -> Iterator[bytes]:
        blob, size = self._blob, self.key_len
        return (blob[i : i + size].tobytes() for i in range(0, len(blob), size))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Codes):
            return (self._n, self._blob) == (other._n, other._blob)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def _sort_codes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort of the codes in the rows of a 2-d uint8 array, one code a row:
    the int32 row order that sorts them, keeping the first occurrence of
    each code, and the codes it keeps as a fixed-width bytes array.

    Codes of 1-4 bytes are sorted as integers: each row becomes one uint64
    word, the code read as a big-endian number (the order of its bytes) in
    the high 32 bits and the row index in the low 32. No two words are
    equal, so any sort of them gives the one order a stable sort of the
    codes gives, and a word whose code equals the word before it is a
    later occurrence. Longer codes take a stable sort of bytes. ``rows``
    may be a view of a larger array, which is freed once the codes are
    read if the caller holds no other reference to it."""
    n, size = rows.shape
    if size > 4:
        codes = np.ascontiguousarray(rows).view(f"S{size}").ravel()
        del rows
        # narrowed at once, so that the int64 order (8 bytes a code) is never kept
        order = np.argsort(codes, kind="stable").astype(np.int32)
        keys = codes[order]
        del codes
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        if first.all():
            return order, keys
        order = order[first]  # one at a time, so that only one is ever held twice
        return order, keys[first]
    packed = np.zeros(n, dtype="<u8")
    for j in range(size):
        packed <<= 8
        packed |= rows[:, j]
    del rows
    packed <<= 32
    packed |= np.arange(n, dtype=np.uint32)
    packed.sort()
    # the halves as strided views, so that neither is copied whole; a mask
    # takes out the kept ones (compress would build an int64 index of them)
    index, code = packed.view("<u4").reshape(n, 2).T
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(code[1:], code[:-1], out=first[1:])
    order, keys = index[first].view("<i4"), code[first]
    del packed, index, code, first
    # a code's bytes are the low ones of its number written big-endian
    keys = keys.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 4 - size :]
    return order, np.ascontiguousarray(keys).view(f"S{size}").ravel()


class PvkTable:
    """Ordered table of one-time key codes of one length, with per-entry
    used flags.

    A table is built from its entries alone and starts with every entry
    unused. It holds no Python object per entry: ``entries`` is a read-only
    view of a fixed-width bytes array of the codes, and the flags are a
    private bytearray of 0/1 that ``mark_used`` alone writes and ``is_used``
    and ``n_unused`` read. The ``sequential`` policy's first unused entry is
    a scan of the flags from a hint that only moves forward, since no entry
    is ever unmarked. The first ``select_unused`` at a rank above 0 builds a
    Fenwick tree over the unused flags (P. M. Fenwick, Softw. Pract. Exper.
    24(3), 1994), an int32 array of 4 bytes a key, which finds the k-th
    unused entry in O(log n); from then on mark_used keeps it current, and
    until then marks only the flag. ``find`` binary-searches the codes
    sorted into a second array, beside their int32 table indices.
    """

    def __init__(self, entries: Sequence[bytes]) -> None:
        codes = list(map(bytes, entries))
        lengths = set(map(len, codes))
        if len(lengths) > 1:
            raise ValueError(f"key table entries must have one length, got {sorted(lengths)}")
        (size,) = lengths or {1}  # an empty table's array has 1-byte items
        if not 1 <= size <= MAX_PAYLOAD_BYTES:
            raise ValueError(f"key length {size} outside [1, {MAX_PAYLOAD_BYTES}] bytes")
        table_order = np.frombuffer(b"".join(codes), dtype=f"S{size}")
        at, keys = _sort_codes(table_order.view(np.uint8).reshape(-1, size))
        if keys.size != len(codes):
            raise ValueError("key table entries must be unique")
        self._start(table_order, keys, at)

    @classmethod
    def _provisioned(cls, codes: np.ndarray, keys: np.ndarray, at: np.ndarray) -> "PvkTable":
        """Table of distinct codes of one length around their sort, without
        validating or sorting them again."""
        table = cls.__new__(cls)
        table._start(codes, keys, at)
        return table

    def _start(self, codes: np.ndarray, keys: np.ndarray, at: np.ndarray) -> None:
        """``codes``: the entries in table order; ``keys``: the same codes in
        ascending order; ``at``: the int32 table index of each of ``keys``."""
        n = codes.size
        self._entries = _Codes(codes)
        self._keys, self._at = keys, at
        self._used = bytearray(n)
        self._tree: array | None = None  # built by the first draw at a rank above 0
        self._first = 0  # no entry before it is unused
        self._n_unused = n

    def __len__(self) -> int:
        return len(self._used)

    @property
    def entries(self) -> _Codes:
        return self._entries

    @property
    def key_len_bytes(self) -> int | None:
        """The one length of the table's codes; None for a table without
        codes."""
        return self._entries.key_len if self._used else None

    @property
    def n_unused(self) -> int:
        return self._n_unused

    def find(self, code: bytes) -> int | None:
        """Table index of ``code``, or None. A code of another length is
        never found, and is turned away before the search, which would
        otherwise cast the whole sorted array to its width. The sorted slot
        is confirmed against ``entries``, since a numpy bytes_ item drops
        trailing zero bytes."""
        code = bytes(code)
        keys = self._keys
        if len(code) != keys.dtype.itemsize:
            return None
        slot = keys.searchsorted(code)
        if slot == keys.size:
            return None
        index = self._at.item(slot)
        return index if self._entries[index] == code else None

    def is_used(self, index: int) -> bool:
        return bool(self._used[index])

    def mark_used(self, index: int) -> None:
        used = self._used
        n = len(used)
        if not 0 <= index < n:
            raise IndexError(f"key index {index} outside [0, {n})")
        if used[index]:
            return
        used[index] = 1
        self._n_unused -= 1
        tree = self._tree
        if tree is not None:
            i = index + 1
            while i <= n:
                tree[i] -= 1
                i += i & -i

    def select_unused(self, k: int) -> int:
        """Index of the k-th (0-based) unused entry in table order: rank 0
        by a scan of the flags from the first unused entry, which moves
        forward, and any other rank through the tree, built on first use."""
        if not 0 <= k < self._n_unused:
            raise IndexError(f"rank {k} outside [0, {self._n_unused})")
        if k == 0:
            self._first = self._used.find(0, self._first)
            return self._first
        tree, n, pos = self._tree, len(self._used), 0
        if tree is None:
            tree = self._build_tree()
        step = 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos

    def _build_tree(self) -> array:
        """The Fenwick tree of the unused flags, kept from now on: the
        1-based tree[i] counts the unused entries in (i - lowbit(i), i],
        filled level by level in place as if all were unused, with no
        temporary array, and then each used entry is taken out, one walk
        per level for all of them at once."""
        used, n = self._used, len(self._used)
        self._tree = array("i", [0]) * (n + 1)
        tree = np.frombuffer(self._tree, dtype=np.int32)
        step = 1
        while step <= n:
            tree[step :: 2 * step] = step
            step *= 2
        # each used entry's walk visits distinct nodes, so a level's
        # positions repeat only across entries: subtract.at counts each
        pos = np.flatnonzero(np.frombuffer(used, dtype=np.uint8)) + 1
        while pos.size:
            np.subtract.at(tree, pos, 1)
            pos += pos & -pos
            pos = pos[pos <= n]
        return self._tree

    def copy(self) -> "PvkTable":
        """Clone with a copy of the used flags, and of the tree if this table
        has built one. No method mutates the entries or their sort, so the
        clone shares them without validating again."""
        clone = copy.copy(self)
        clone._used = bytearray(self._used)
        if self._tree is not None:
            clone._tree = array("i", self._tree)
        return clone


def check_table_shape(n_keys: int, key_len_bytes: int) -> None:
    """Reject a table of n_keys distinct codes that key_len_bytes cannot
    hold, a key length no frame can carry, or more than MAX_TABLE_KEYS
    keys."""
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    if not 1 <= key_len_bytes <= MAX_PAYLOAD_BYTES:
        raise ValueError(f"key_len_bytes must be in [1, {MAX_PAYLOAD_BYTES}], got {key_len_bytes}")
    capacity = 256**key_len_bytes
    if n_keys > capacity:
        raise TableCapacityError(
            f"{n_keys} distinct keys of {key_len_bytes} bytes exceed the "
            f"{capacity}-code space"
        )
    if n_keys > MAX_TABLE_KEYS:
        raise TableTooLarge(f"{n_keys} keys exceed the {MAX_TABLE_KEYS}-key table cap")


def generate_table(n_keys: int, key_len_bytes: int, rng_seed: int) -> PvkTable:
    """Seeded table of distinct random codes.

    Both sides of the link run this with the same seed, an integer >= 0,
    to provision identical tables. Uniqueness comes from rejection sampling,
    so the key space must be able to hold n_keys distinct codes.

    Codes come from bulk uint32 draws, read as little-endian bytes with
    key_len_bytes cut from each ceil(key_len_bytes / 4) words. That is the
    stream a per-key ``integers(0, 256, size=key_len_bytes, dtype=uint8)``
    draws, so the table is the same as drawing one key at a time and keeping
    the first occurrence of each code. One sort of a prefix of that stream
    dedupes it, an integer sort for codes of up to 4 bytes, and it is the
    sort ``find`` searches.
    """
    check_table_shape(n_keys, key_len_bytes)
    check_seed(rng_seed)
    return PvkTable._provisioned(*_distinct_codes(n_keys, key_len_bytes, rng_seed))


def _distinct_codes(
    n_keys: int, key_len_bytes: int, rng_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """generate_table's codes in table order, the same codes sorted, and the
    int32 table index of each sorted code. One ``_sort_codes`` dedupes the
    prefix of the code stream expected to hold n_keys distinct codes, plus
    4 * isqrt(n_keys) + 64 draws; a prefix holding too few is drawn again
    from the seed, longer by twice the draws expected for the codes it
    lacked. Codes past the n_keys-th distinct one in draw order are dropped."""

    def expected_draws(have: int) -> int:
        # space * (H(space - have) - H(space - n_keys)) with H(m) ~ ln(m + 1/2)
        # + Euler's constant: finite at n_keys = space (the coupon collector)
        return math.ceil(-space * math.log1p((have - n_keys) / (space - have + 0.5)))

    space = 256**key_len_bytes
    prefix = expected_draws(0) + 4 * math.isqrt(n_keys) + 64
    while True:
        # no name here holds the drawn rows, so the sort frees them once read
        order, keys = _sort_codes(_drawn_rows(rng_seed, prefix, key_len_bytes))
        if keys.size >= n_keys:
            break
        prefix += 2 * expected_draws(keys.size)
    # a code's table index is the number of distinct codes drawn before it
    ranks = np.zeros(prefix, dtype=np.int32)
    ranks[order] = 1
    np.cumsum(ranks, out=ranks)
    at = ranks[order]
    del ranks, order
    at -= 1
    kept = at < n_keys
    at = at[kept]  # one at a time, so that only one is ever held twice
    keys = keys[kept]
    codes = np.empty(n_keys, dtype=keys.dtype)
    codes[at] = keys
    return codes, keys, at


def _drawn_rows(rng_seed: int, n_codes: int, key_len_bytes: int) -> np.ndarray:
    """The first n_codes codes of the seed's stream, one a row of a uint8
    view of the bulk uint32 draws: key_len_bytes cut from the little-endian
    bytes of each ceil(key_len_bytes / 4) words."""
    words = -(-key_len_bytes // 4)
    draw = np.random.default_rng(rng_seed).integers(
        0, 2**32, size=n_codes * words, dtype=np.uint32
    )
    rows = draw.astype("<u4", copy=False).view(np.uint8).reshape(n_codes, 4 * words)
    return rows[:, :key_len_bytes]


@dataclass
class NodeState:
    """Sensor-node energy ledger and key material."""

    table: PvkTable
    stored_energy_j: float = 0.0
    storage_capacity_j: float = DEFAULT_STORAGE_CAPACITY_J
    wake_threshold_j: float = DEFAULT_WAKE_THRESHOLD_J
    tx_cost_j_per_bit: float = DEFAULT_TX_COST_J_PER_BIT

    def __post_init__(self) -> None:
        if not (self.storage_capacity_j > 0 and self.wake_threshold_j > 0):
            raise ValueError("storage_capacity_j and wake_threshold_j must be > 0")
        if not 0 <= self.stored_energy_j <= self.storage_capacity_j:
            raise ValueError("stored_energy_j outside [0, storage_capacity_j]")
        if not self.tx_cost_j_per_bit >= 0:
            raise ValueError("tx_cost_j_per_bit must be >= 0")


@dataclass(frozen=True)
class Attacker:
    """Eavesdropper on the monitor-side envelope: "replay" re-presents the
    session's captured envelope for a second verification, "none" stays
    passive."""

    kind: str = "none"

    def __post_init__(self) -> None:
        if self.kind not in ATTACKER_KINDS:
            raise ValueError(f"unknown attacker kind: {self.kind!r}")


@dataclass(frozen=True)
class MonitorConfig:
    """Communication-node side of a session: its table copy and the
    network-scheduled modulation parameters."""

    table: PvkTable
    bit_rate_hz: float = 20e3
    oversampling: int = 16

    def __post_init__(self) -> None:
        check_oversampling(self.sample_rate_hz, self.bit_rate_hz)

    @property
    def sample_rate_hz(self) -> float:
        return sample_rate(self.bit_rate_hz, self.oversampling)


@dataclass(frozen=True)
class SessionEvent:
    """One timeline record; only the fields that apply are populated."""

    time_s: float
    event: str
    verdict: str | None = None
    measured_dr_db: float | None = None
    stored_energy_j: float | None = None

    @classmethod
    def verify(cls, time_s: float, decision: AuthDecision) -> "SessionEvent":
        return cls(time_s, "verify", decision.verdict, decision.decode.measured_dr_db)


@dataclass
class SessionLog:
    """Everything observable about one simulated session."""

    events: list[SessionEvent]
    decisions: list[AuthDecision]
    energy_trace: list[tuple[float, float]]
    total_harvested_j: float
    total_tx_cost_j: float
    backscatter_time_s: float
    duration_s: float
    emitted_key_index: int | None = None
    emitted_code: bytes | None = None
    trace: EnvelopeTrace | None = None

    def __post_init__(self) -> None:
        for seq, what in ((self.events, "event"), (self.energy_trace, "energy")):
            times = [e.time_s if what == "event" else e[0] for e in seq]
            for t0, t1 in zip(times, times[1:]):
                if t1 <= t0:
                    raise ValueError(f"{what} times must be strictly increasing")
        if not self.decisions:
            raise ValueError("a session must end with at least one decision")

    @property
    def final(self) -> AuthDecision:
        return self.decisions[-1]


# the one decision of every session whose node never woke: nothing was sent,
# so nothing was decoded or measured
_WAKE_TIMEOUT_DECISION = AuthDecision(
    REJECTED_NO_SIGNAL, None, DecodeResult(WAKE_TIMEOUT, None, 0, None, None, None)
)


def _charge(
    node: NodeState,
    scenario: LinkScenario,
    dt_s: float,
    max_time_s: float,
    bit_rate_hz: float,
    key_rng: np.random.Generator | None,
) -> tuple[float, float, list[tuple[float, float]], int | None, Frame | None]:
    """The charge phase, the only writer of node.stored_energy_j and of the
    (time, stored energy) ledger: bank harvest in whole dt_s chunks, each in
    closed form, until one wakes the node or max_time_s runs out; harvest
    past the storage is lost. At wake, emit the unused key at rank 0 (or one
    drawn from key_rng), debit its frame's cost and mark it used. Returns
    the last chunk's end time, the energy banked, the ledger, and the key
    index and frame (None if the node never woke)."""
    p_dc_w = scenario.harvested_dc_w()
    # a node that cannot reach its threshold, or whose harvest per step
    # underflows to 0 J, charges to max_time_s in one chunk
    never_wakes = not p_dc_w * dt_s > 0.0 or node.storage_capacity_j < node.wake_threshold_j
    energy = [(0.0, node.stored_energy_j)]
    t = harvested = 0.0
    while True:
        steps_left = math.floor((max_time_s - t) / dt_s + 1e-9)
        if steps_left <= 0:
            return t, harvested, energy, None, None
        if node.stored_energy_j >= node.wake_threshold_j:
            k = 1
        elif never_wakes:
            k = steps_left
        else:
            # a tiny harvest's quotient may be inf: clamp before ceil
            deficit = node.wake_threshold_j - node.stored_energy_j
            k = max(1, math.ceil(min(deficit / (p_dc_w * dt_s), steps_left)))
        banked = min(node.stored_energy_j + p_dc_w * (k * dt_s), node.storage_capacity_j)
        banked -= node.stored_energy_j
        node.stored_energy_j += banked
        harvested += banked
        t += k * dt_s
        if node.stored_energy_j >= node.wake_threshold_j:
            break
        energy.append((t, node.stored_energy_j))

    n_unused = node.table.n_unused
    if not n_unused:
        raise TableExhausted("no unused key left in the table")
    rank = 0 if key_rng is None else int(key_rng.integers(0, n_unused))
    key_index = node.table.select_unused(rank)
    frame = build_frame(node.table.entries[key_index], bit_rate_hz)
    tx_cost = node.tx_cost_j_per_bit * frame.n_bits
    if tx_cost > node.stored_energy_j:
        raise ValueError(f"frame cost {tx_cost} J exceeds stored energy {node.stored_energy_j} J")
    node.stored_energy_j -= tx_cost
    node.table.mark_used(key_index)
    # the waking chunk's and the frame end's entries hold the energy left after the frame
    energy.append((t, node.stored_energy_j))
    energy.append((t + frame.duration_s, node.stored_energy_j))
    return t, harvested, energy, key_index, frame


def _exchange(
    scenario: LinkScenario, frame: Frame, attacker: Attacker, monitor: MonitorConfig
) -> tuple[EnvelopeTrace, list[AuthDecision]]:
    """The exchange phase: render the combined backscatter + leakage + noise
    envelope the monitor captures, decode it once, and verify that decode
    against the live table once per presentation: the node's, then a replay
    attacker's of the same capture. Decoding is a pure function of the
    samples and the bit rate, so only the one-time-key check can differ."""
    trace = render_envelope(
        scenario, frame_to_bits(frame), monitor.bit_rate_hz, monitor.sample_rate_hz
    )
    decode = decode_trace(trace, monitor.bit_rate_hz)
    presentations = 2 if attacker.kind == "replay" else 1
    return trace, [verify(decode, monitor.table) for _ in range(presentations)]


def check_session_timing(dt_s: float, max_time_s: float) -> None:
    """Reject timing a session cannot count max_time_s / dt_s steps with; NaN
    fails every check."""
    if not 0 < dt_s < math.inf:
        raise ValueError(f"dt_s must be > 0 and finite, got {dt_s!r}")
    if not 0 <= max_time_s < math.inf:
        raise ValueError(f"max_time_s must be >= 0 and finite, got {max_time_s!r}")
    if not max_time_s / dt_s < math.inf:
        raise ValueError(f"max_time_s / dt_s must be finite, got {max_time_s!r} / {dt_s!r}")


def check_event_spacing(
    dt_s: float, max_time_s: float, bit_rate_hz: float, key_len_bytes: int
) -> None:
    """Reject timing whose steps are lost next to the session's latest event
    time, which is max_time_s, one frame of key_len_bytes at bit_rate_hz and
    four dt_s steps. A step of at least that time's float spacing moves
    every earlier time on, so the timeline stays strictly increasing."""
    frame_s = frame_bits(key_len_bytes) / bit_rate_hz
    latest = max_time_s + frame_s + 4 * dt_s
    for name, step in (("dt_s", dt_s), ("frame duration", frame_s)):
        if not step >= math.ulp(latest):
            raise ValueError(
                f"{name} of {step!r} s is lost next to the latest event time of {latest!r} s"
            )


def run_session(
    scenario: LinkScenario,
    node: NodeState,
    attacker: Attacker,
    monitor: MonitorConfig,
    *,
    dt_s: float = DEFAULT_DT_S,
    max_time_s: float = 30.0,
    key_policy: str = "sequential",
) -> SessionLog:
    """Simulate one charge/backscatter/verify exchange, in three phases.

    The source radiates CW for the whole session. ``_charge`` charges the
    node to its wake threshold and emits the next key frame; it is the only
    writer of the energy ledger. If the node woke, ``_exchange`` renders,
    decodes and verifies the monitor's capture of the frame, and a replay
    attacker's second presentation of it. The timeline is built from the
    wake time, the frame and the decisions. Timing that
    ``check_session_timing`` rejects, or that ``check_event_spacing`` rejects
    for the node's key length, is rejected before the ledger changes.
    """
    check_session_timing(dt_s, max_time_s)
    key_len = node.table.key_len_bytes
    if key_len is not None:
        check_event_spacing(dt_s, max_time_s, monitor.bit_rate_hz, key_len)
    if key_policy not in KEY_POLICIES:
        raise ValueError(f"unknown key policy: {key_policy!r}")
    key_rng = None
    if key_policy == "random":
        # the first spawned child of the noise seed (built here without its
        # parent) keeps the key draws independent of the noise stream, which
        # NoiseSpec.generator() seeds from the same rng_seed
        child = np.random.SeedSequence(scenario.noise.rng_seed, spawn_key=(0,))
        key_rng = np.random.default_rng(child)
    events = [SessionEvent(0.0, "session_start", stored_energy_j=node.stored_energy_j)]
    t, harvested, energy, key_index, frame = _charge(
        node, scenario, dt_s, max_time_s, monitor.bit_rate_hz, key_rng
    )

    if frame is None:
        trace, decisions = None, [_WAKE_TIMEOUT_DECISION]
        # bookkeeping events land one step apart so the timeline stays
        # strictly increasing even when max_time_s < dt_s
        events.append(SessionEvent(t + dt_s, WAKE_TIMEOUT, stored_energy_j=node.stored_energy_j))
        t_end = t + 2 * dt_s
    else:
        trace, decisions = _exchange(scenario, frame, attacker, monitor)
        t_emit = t + frame.duration_s
        t_verify = t_emit + dt_s
        events.append(SessionEvent(t, "node_wake"))
        events.append(SessionEvent(t_emit, "frame_emitted", stored_energy_j=node.stored_energy_j))
        events.append(SessionEvent.verify(t_verify, decisions[0]))
        for replay in decisions[1:]:
            events.append(SessionEvent(t_verify + dt_s, "replay_presented"))
            events.append(SessionEvent.verify(t_verify + 2 * dt_s, replay))
        t_end = events[-1].time_s + dt_s

    events.append(SessionEvent(t_end, "session_end", stored_energy_j=node.stored_energy_j))
    return SessionLog(
        events=events,
        decisions=decisions,
        energy_trace=energy,
        total_harvested_j=harvested,
        total_tx_cost_j=0.0 if frame is None else node.tx_cost_j_per_bit * frame.n_bits,
        backscatter_time_s=0.0 if frame is None else frame.duration_s,
        duration_s=t_end,
        emitted_key_index=key_index,
        emitted_code=None if frame is None else frame.payload,
        trace=trace,
    )


def fresh_session_scenario(scenario: LinkScenario, rng_seed: int) -> LinkScenario:
    """Scenario copy with a new noise seed, for independent repeated sessions.

    The copy shares the link's noise-free budget, so repeated sessions
    compute it once."""
    return scenario.with_noise_seed(rng_seed)
