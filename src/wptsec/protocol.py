"""Session-level simulation: node energy state machine, key tables, the
communication-node session driver, and the eavesdrop-and-replay attacker.

The node spends nearly all of its time harvesting; once its storage crosses
the wake threshold it backscatters one key frame and returns to harvesting.
Both sides hold identical provisioned tables (same generator seed); the node
burns a key at emission, the monitor burns it at accept, so no return channel
is needed and a missed frame simply costs a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import LinkScenario, RectifierModel, harvested_dc
from .errors import TableCapacityError, TableExhausted
from .monitor import (
    NO_SYNC,
    REJECTED_NO_SIGNAL,
    AuthDecision,
    DecodeResult,
    authenticate,
)
from .waveform import (
    MAX_PAYLOAD_BYTES,
    EnvelopeTrace,
    Frame,
    build_frame,
    frame_to_bits,
    render_envelope,
)

DEFAULT_STORAGE_CAPACITY_J = 100e-6
DEFAULT_WAKE_THRESHOLD_J = 10e-6
DEFAULT_TX_COST_J_PER_BIT = 1e-9
DEFAULT_DT_S = 100e-6


@dataclass
class PvkTable:
    """Ordered table of one-time key codes with per-entry used flags.

    The cursor always points at the first unused entry (or one past the end
    when exhausted); it is derived from the flags, not set by callers.
    """

    entries: list[bytes]
    used: list[bool] | None = None
    cursor: int = 0

    def __post_init__(self) -> None:
        self.entries = [bytes(e) for e in self.entries]
        for e in self.entries:
            if not 1 <= len(e) <= MAX_PAYLOAD_BYTES:
                raise ValueError(f"key length {len(e)} outside [1, {MAX_PAYLOAD_BYTES}] bytes")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("key table entries must be unique")
        if self.used is None:
            self.used = [False] * len(self.entries)
        if len(self.used) != len(self.entries):
            raise ValueError("used flags must match entries")
        self._index = {code: i for i, code in enumerate(self.entries)}
        self._advance_cursor(0)  # cursor is derived from the flags, never trusted

    def _advance_cursor(self, start: int) -> None:
        i = start
        while i < len(self.entries) and self.used[i]:
            i += 1
        self.cursor = i

    def __len__(self) -> int:
        return len(self.entries)

    def find(self, code: bytes) -> int | None:
        return self._index.get(bytes(code))

    def is_used(self, index: int) -> bool:
        return self.used[index]

    def mark_used(self, index: int) -> None:
        self.used[index] = True
        if index == self.cursor:
            self._advance_cursor(self.cursor)

    def peek_next(self) -> tuple[int, bytes]:
        if self.cursor >= len(self.entries):
            raise TableExhausted("no unused key left in the table")
        return self.cursor, self.entries[self.cursor]

    def unused_indices(self) -> list[int]:
        return [i for i, u in enumerate(self.used) if not u]

    def copy(self) -> "PvkTable":
        return PvkTable(entries=list(self.entries), used=list(self.used))


def generate_table(n_keys: int, key_len_bytes: int, rng_seed: int) -> PvkTable:
    """Seeded table of distinct random codes.

    Both sides of the link run this with the same seed to provision
    identical tables. Uniqueness comes from rejection sampling, so the key
    space must be able to hold n_keys distinct codes.
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
    seen: set[bytes] = set()
    codes: list[bytes] = []
    while len(codes) < n_keys:
        code = rng.integers(0, 256, size=key_len_bytes, dtype=np.uint8).tobytes()
        if code not in seen:
            seen.add(code)
            codes.append(code)
    return PvkTable(entries=codes)


@dataclass
class NodeState:
    """Sensor-node energy ledger and key material."""

    table: PvkTable
    stored_energy_j: float = 0.0
    storage_capacity_j: float = DEFAULT_STORAGE_CAPACITY_J
    wake_threshold_j: float = DEFAULT_WAKE_THRESHOLD_J
    tx_cost_j_per_bit: float = DEFAULT_TX_COST_J_PER_BIT

    def __post_init__(self) -> None:
        if self.storage_capacity_j <= 0 or self.wake_threshold_j <= 0:
            raise ValueError("storage_capacity_j and wake_threshold_j must be > 0")
        if not 0 <= self.stored_energy_j <= self.storage_capacity_j:
            raise ValueError("stored_energy_j outside [0, storage_capacity_j]")
        if self.tx_cost_j_per_bit < 0:
            raise ValueError("tx_cost_j_per_bit must be >= 0")


@dataclass(frozen=True)
class NodeStep:
    """What one node_step call did."""

    frame: Frame | None
    key_index: int | None
    harvested_j: float
    tx_cost_j: float
    backscatter_time_s: float


def node_step(
    state: NodeState,
    dt_s: float,
    p_in_dbm: float,
    rect: RectifierModel,
    *,
    bit_rate_hz: float = 20e3,
    key_policy: str = "sequential",
    key_rng: np.random.Generator | None = None,
) -> NodeStep:
    """Advance the node by dt_s of harvesting, emitting one key frame if the
    wake threshold is crossed.

    Harvest that would overflow the storage is lost; the returned
    harvested_j is the banked amount, so the energy ledger stays exact. The
    node marks its key used at emission (no acknowledgment channel exists).
    """
    if dt_s <= 0:
        raise ValueError(f"dt_s must be > 0, got {dt_s}")
    p_dc_w, _ = harvested_dc(p_in_dbm, rect)
    banked = min(state.stored_energy_j + p_dc_w * dt_s, state.storage_capacity_j)
    banked -= state.stored_energy_j
    state.stored_energy_j += banked

    frame = None
    key_index = None
    tx_cost = 0.0
    bs_time = 0.0
    if state.stored_energy_j >= state.wake_threshold_j:
        if key_policy == "sequential":
            key_index, code = state.table.peek_next()
        elif key_policy == "random":
            pool = state.table.unused_indices()
            if not pool:
                raise TableExhausted("no unused key left in the table")
            rng = key_rng if key_rng is not None else np.random.default_rng()
            key_index = int(pool[rng.integers(0, len(pool))])
            code = state.table.entries[key_index]
        else:
            raise ValueError(f"unknown key policy: {key_policy!r}")
        frame = build_frame(code, bit_rate_hz)
        tx_cost = state.tx_cost_j_per_bit * frame.n_bits
        if tx_cost > state.stored_energy_j:
            raise ValueError(
                f"frame cost {tx_cost} J exceeds stored energy {state.stored_energy_j} J"
            )
        state.stored_energy_j -= tx_cost
        state.table.mark_used(key_index)
        bs_time = frame.duration_s
    return NodeStep(
        frame=frame,
        key_index=key_index,
        harvested_j=banked,
        tx_cost_j=tx_cost,
        backscatter_time_s=bs_time,
    )


@dataclass
class Attacker:
    """Eavesdropper that can capture the monitor-side envelope and replay it."""

    kind: str = "none"
    recorded_trace: EnvelopeTrace | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "replay"):
            raise ValueError(f"unknown attacker kind: {self.kind!r}")

    def record(self, trace: EnvelopeTrace) -> None:
        if self.kind == "replay":
            self.recorded_trace = trace

    def replayed_trace(self) -> EnvelopeTrace:
        if self.recorded_trace is None:
            raise ValueError("replay attacker has not recorded a trace yet")
        return self.recorded_trace


@dataclass
class MonitorConfig:
    """Communication-node side of a session: its table copy and the
    network-scheduled modulation parameters."""

    table: PvkTable
    bit_rate_hz: float = 20e3
    oversampling: int = 16

    def __post_init__(self) -> None:
        if self.oversampling < 8:
            raise ValueError("oversampling must be >= 8")

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


def _no_signal_decision() -> AuthDecision:
    decode = DecodeResult(
        status=NO_SYNC,
        payload=None,
        bit_errors_in_preamble=0,
        measured_dr_db=0.0,
        threshold_dbm=float("nan"),
        sync_offset=None,
    )
    return AuthDecision(verdict=REJECTED_NO_SIGNAL, matched_key_index=None, decode=decode)


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
    second verification. Charging under constant input is advanced in
    dt-sized chunks computed in closed form, which keeps the energy ledger
    identical to per-step simulation.
    """
    if dt_s <= 0:
        raise ValueError("dt_s must be > 0")
    events: list[SessionEvent] = []
    energy: list[tuple[float, float]] = [(0.0, node.stored_energy_j)]
    decisions: list[AuthDecision] = []
    events.append(SessionEvent(0.0, "session_start", stored_energy_j=node.stored_energy_j))

    p_in = scenario.node_input_dbm()
    key_rng = None
    if key_policy == "random":
        # a spawned child keeps the key draws independent of the noise stream,
        # which NoiseSpec.generator() seeds from the same rng_seed
        (child,) = np.random.SeedSequence(scenario.noise.rng_seed).spawn(1)
        key_rng = np.random.default_rng(child)
    t = 0.0
    total_harvested = 0.0
    total_cost = 0.0
    bs_time = 0.0
    step: NodeStep | None = None

    while step is None or step.frame is None:
        steps_left = int(math.floor((max_time_s - t) / dt_s + 1e-9))
        if steps_left <= 0:
            # bookkeeping events land one step apart so the timeline stays
            # strictly increasing even when max_time_s < dt_s
            events.append(
                SessionEvent(t + dt_s, "wake_timeout", stored_energy_j=node.stored_energy_j)
            )
            decisions.append(_no_signal_decision())
            events.append(
                SessionEvent(t + 2 * dt_s, "session_end", stored_energy_j=node.stored_energy_j)
            )
            return SessionLog(
                events=events,
                decisions=decisions,
                energy_trace=energy,
                total_harvested_j=total_harvested,
                total_tx_cost_j=total_cost,
                backscatter_time_s=0.0,
                duration_s=t + 2 * dt_s,
            )
        p_dc_w, _ = harvested_dc(p_in, scenario.rect)
        if node.stored_energy_j >= node.wake_threshold_j or p_dc_w <= 0.0:
            k = 1 if node.stored_energy_j >= node.wake_threshold_j else steps_left
        else:
            deficit = node.wake_threshold_j - node.stored_energy_j
            k = max(1, int(math.ceil(deficit / (p_dc_w * dt_s))))
            k = min(k, steps_left)
        step = node_step(
            node,
            k * dt_s,
            p_in,
            scenario.rect,
            bit_rate_hz=monitor.bit_rate_hz,
            key_policy=key_policy,
            key_rng=key_rng,
        )
        t += k * dt_s
        total_harvested += step.harvested_j
        total_cost += step.tx_cost_j
        bs_time += step.backscatter_time_s
        energy.append((t, node.stored_energy_j))

    frame = step.frame
    events.append(SessionEvent(t, "node_wake"))
    t_emit = t + frame.duration_s
    events.append(SessionEvent(t_emit, "frame_emitted", stored_energy_j=node.stored_energy_j))
    energy.append((t_emit, node.stored_energy_j))

    trace = render_envelope(
        scenario, frame_to_bits(frame), monitor.bit_rate_hz, monitor.sample_rate_hz
    )
    attacker.record(trace)

    decision = authenticate(trace, monitor.bit_rate_hz, monitor.table)
    decisions.append(decision)
    t_verify = t_emit + dt_s
    events.append(
        SessionEvent(
            t_verify,
            "verify",
            verdict=decision.verdict,
            measured_dr_db=decision.decode.measured_dr_db,
        )
    )

    if attacker.kind == "replay":
        replay = authenticate(attacker.replayed_trace(), monitor.bit_rate_hz, monitor.table)
        decisions.append(replay)
        events.append(SessionEvent(t_verify + dt_s, "replay_presented"))
        events.append(
            SessionEvent(
                t_verify + 2 * dt_s,
                "verify",
                verdict=replay.verdict,
                measured_dr_db=replay.decode.measured_dr_db,
            )
        )

    t_end = events[-1].time_s + dt_s
    events.append(SessionEvent(t_end, "session_end", stored_energy_j=node.stored_energy_j))
    return SessionLog(
        events=events,
        decisions=decisions,
        energy_trace=energy,
        total_harvested_j=total_harvested,
        total_tx_cost_j=total_cost,
        backscatter_time_s=bs_time,
        duration_s=t_end,
        emitted_key_index=step.key_index,
        emitted_code=frame.payload,
        trace=trace,
    )


def fresh_session_scenario(scenario: LinkScenario, rng_seed: int) -> LinkScenario:
    """Scenario copy with a new noise seed, for independent repeated sessions."""
    return replace(scenario, noise=replace(scenario.noise, rng_seed=rng_seed))
