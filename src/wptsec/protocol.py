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
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkScenario
from .errors import TableCapacityError, TableExhausted
from .monitor import (
    REJECTED_NO_SIGNAL,
    WAKE_TIMEOUT,
    AuthDecision,
    DecodeResult,
    authenticate,
    verify,
)
from .waveform import (
    MAX_PAYLOAD_BYTES,
    EnvelopeTrace,
    Frame,
    build_frame,
    check_oversampling,
    frame_to_bits,
    render_envelope,
)

DEFAULT_STORAGE_CAPACITY_J = 100e-6
DEFAULT_WAKE_THRESHOLD_J = 10e-6
DEFAULT_TX_COST_J_PER_BIT = 1e-9
DEFAULT_DT_S = 100e-6
KEY_POLICIES = ("sequential", "random")
ATTACKER_KINDS = ("none", "replay")


@dataclass
class PvkTable:
    """Ordered table of one-time key codes with per-entry used flags.

    A table is built from its entries alone and starts with every entry
    unused. A Fenwick tree over the unused flags (P. M. Fenwick, Softw.
    Pract. Exper. 24(3), 1994) finds the k-th unused entry in O(log n);
    mark_used is its only writer.
    """

    entries: list[bytes]
    used: list[bool] = field(init=False)

    def __post_init__(self) -> None:
        self.entries = list(map(bytes, self.entries))
        n = len(self.entries)
        for size in set(map(len, self.entries)):
            if not 1 <= size <= MAX_PAYLOAD_BYTES:
                raise ValueError(f"key length {size} outside [1, {MAX_PAYLOAD_BYTES}] bytes")
        self._index = dict(zip(self.entries, range(n)))
        if len(self._index) != n:
            raise ValueError("key table entries must be unique")
        self.used = [False] * n
        # the 1-based tree[i] counts the unused entries in (i - lowbit(i), i]
        i = np.arange(n + 1)
        self._tree = (i & -i).tolist()
        self._n_unused = n

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def n_unused(self) -> int:
        return self._n_unused

    def find(self, code: bytes) -> int | None:
        return self._index.get(bytes(code))

    def is_used(self, index: int) -> bool:
        return self.used[index]

    def mark_used(self, index: int) -> None:
        n = len(self.entries)
        if not 0 <= index < n:
            raise IndexError(f"key index {index} outside [0, {n})")
        if self.used[index]:
            return
        self.used[index] = True
        self._n_unused -= 1
        tree, i = self._tree, index + 1
        while i <= n:
            tree[i] -= 1
            i += i & -i

    def select_unused(self, k: int) -> int:
        """Index of the k-th (0-based) unused entry in table order."""
        if not 0 <= k < self._n_unused:
            raise IndexError(f"rank {k} outside [0, {self._n_unused})")
        tree, n, pos = self._tree, len(self.entries), 0
        step = 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos

    def copy(self) -> "PvkTable":
        """Clone with its own used flags. No method mutates the entries or
        their index, so the clone shares them without validating again."""
        clone = copy.copy(self)
        clone.used = list(self.used)
        clone._tree = list(self._tree)
        return clone


def generate_table(n_keys: int, key_len_bytes: int, rng_seed: int) -> PvkTable:
    """Seeded table of distinct random codes.

    Both sides of the link run this with the same seed to provision
    identical tables. Uniqueness comes from rejection sampling, so the key
    space must be able to hold n_keys distinct codes.

    Codes come from bulk uint32 draws, read as little-endian bytes with
    key_len_bytes cut from each ceil(key_len_bytes / 4) words. That is the
    stream a per-key ``integers(0, 256, size=key_len_bytes, dtype=uint8)``
    draws, so the table is the same as drawing one key at a time and keeping
    the first occurrence of each code.
    """
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
    rng = np.random.default_rng(rng_seed)
    words = -(-key_len_bytes // 4)
    codes: dict[bytes, None] = {}
    while len(codes) < n_keys:
        need = n_keys - len(codes)
        draw = rng.integers(0, 2**32, size=need * words, dtype=np.uint32)
        rows = draw.astype("<u4").view(np.uint8).reshape(need, 4 * words)
        flat = rows[:, :key_len_bytes].tobytes()
        for off in range(0, len(flat), key_len_bytes):
            codes.setdefault(flat[off : off + key_len_bytes])
    return PvkTable(entries=list(codes))


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


@dataclass
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
        return self.oversampling * self.bit_rate_hz


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

    def record(self) -> str:
        parts = [f"time_s={self.time_s!r}", f"event={self.event}"]
        if self.verdict is not None:
            parts.append(f"verdict={self.verdict}")
        if self.measured_dr_db is not None:
            parts.append(f"measured_dr_db={self.measured_dr_db!r}")
        if self.stored_energy_j is not None:
            parts.append(f"stored_energy_j={self.stored_energy_j!r}")
        return " ".join(parts)


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

    def format_records(self) -> list[str]:
        return [e.record() for e in self.events]


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
    """The charge phase, the only writer of node.stored_energy_j: bank harvest
    in whole dt_s chunks, each in closed form, until one wakes the node or
    max_time_s runs out; harvest past the storage is lost. At wake, emit the
    unused key at rank 0 (or one drawn from key_rng), debit its frame's cost
    and mark it used. Returns the last chunk's end time, the energy banked,
    the (time, stored energy) ledger, and the key index and frame (None if
    the node never woke)."""
    p_in_dbm = scenario.node_input_dbm()
    if math.isnan(p_in_dbm):
        raise ValueError("node input power must not be NaN")
    p_dc_w = scenario.harvested_dc_w()
    # a node that cannot reach its threshold charges to max_time_s in one chunk
    never_wakes = p_dc_w <= 0.0 or node.storage_capacity_j < node.wake_threshold_j
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
            deficit = node.wake_threshold_j - node.stored_energy_j
            k = min(max(1, math.ceil(deficit / (p_dc_w * dt_s))), steps_left)
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
    # the waking chunk's entry records the energy left after the frame
    energy.append((t, node.stored_energy_j))
    return t, harvested, energy, key_index, frame


def check_session_timing(dt_s: float, max_time_s: float) -> None:
    """Reject timing a session cannot count max_time_s / dt_s steps with; NaN
    fails every check."""
    if not 0 < dt_s < math.inf:
        raise ValueError(f"dt_s must be > 0 and finite, got {dt_s!r}")
    if not 0 <= max_time_s < math.inf:
        raise ValueError(f"max_time_s must be >= 0 and finite, got {max_time_s!r}")
    if not max_time_s / dt_s < math.inf:
        raise ValueError(f"max_time_s / dt_s must be finite, got {max_time_s!r} / {dt_s!r}")


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
    """Simulate one charge/backscatter/verify exchange.

    The source radiates CW for the whole session; the node charges until its
    wake threshold, emits the next key frame, and the monitor demodulates
    the combined backscatter + leakage + noise envelope and verifies the
    code. A replay attacker captures that envelope and re-presents it for a
    second verification: the capture's own decode is verified again against
    the live table, so the one-time-key check alone rejects it. The charge
    phase (``_charge``) is the energy ledger's only writer. Timing that
    ``check_session_timing`` rejects, and a NaN node input power, are
    rejected before the ledger changes.
    """
    check_session_timing(dt_s, max_time_s)
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

    decisions: list[AuthDecision] = []
    trace = None
    if frame is None:
        # bookkeeping events land one step apart so the timeline stays
        # strictly increasing even when max_time_s < dt_s
        events.append(SessionEvent(t + dt_s, WAKE_TIMEOUT, stored_energy_j=node.stored_energy_j))
        decisions.append(_WAKE_TIMEOUT_DECISION)
        t_end = t + 2 * dt_s
    else:
        events.append(SessionEvent(t, "node_wake"))
        t_emit = t + frame.duration_s
        events.append(SessionEvent(t_emit, "frame_emitted", stored_energy_j=node.stored_energy_j))
        energy.append((t_emit, node.stored_energy_j))

        trace = render_envelope(
            scenario, frame_to_bits(frame), monitor.bit_rate_hz, monitor.sample_rate_hz
        )

        decision = authenticate(trace, monitor.bit_rate_hz, monitor.table)
        decisions.append(decision)
        t_verify = t_emit + dt_s
        events.append(SessionEvent.verify(t_verify, decision))

        if attacker.kind == "replay":
            # the attacker re-presents the envelope it captured: this session's
            # trace. Decoding is a pure function of the samples and the bit
            # rate, so only the check against the live table can differ.
            replay = verify(decision.decode, monitor.table)
            decisions.append(replay)
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

    The copy shares the link's memoised noise-free budget, so repeated
    sessions compute it once. That memo is idempotent, so threads that run
    sessions on copies of one link may share it without a lock."""
    return scenario.with_noise_seed(rng_seed)
