"""Key tables, node energy state machine, and session-level behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wptsec import monitor as monitor_module
from wptsec import protocol
from wptsec.channel import (
    AntennaSpec,
    LeakageModel,
    LinkGeometry,
    LinkScenario,
    NoiseSpec,
    RectifierModel,
)
from wptsec.errors import NearFieldError, TableCapacityError, TableExhausted
from wptsec.monitor import (
    ACCEPTED,
    DECODED,
    NO_SYNC,
    PAYLOAD_INVALID,
    REJECTED_NO_SIGNAL,
    REJECTED_REPLAY,
    REJECTED_UNKNOWN_KEY,
    WAKE_TIMEOUT,
    decode_trace,
    verify,
)
from wptsec.protocol import (
    Attacker,
    MonitorConfig,
    NodeState,
    PvkTable,
    fresh_session_scenario,
    generate_table,
    run_session,
)
from wptsec.waveform import render_envelope

# flat 20% efficiency makes hand energy math easy: -10 dBm in -> 20 uW DC
FLAT_RECT = RectifierModel(efficiency_curve=((-60.0, 0.2), (60.0, 0.2)))


def anechoic_scenario(seed=0, **overrides) -> LinkScenario:
    params = dict(
        name="anechoic",
        topology="radiated",
        p_tx_dbm=15.0,
        rect=RectifierModel(),
        leakage=LeakageModel.coupling(-57.0, 15.0),
        noise=NoiseSpec(-90.0, seed),
        src_tx=AntennaSpec(2.5),
        node_antenna=AntennaSpec(9.2),
        mon_rx=AntennaSpec(9.2),
        dl=LinkGeometry(3.4, 868e6),
        ul=LinkGeometry(3.4, 868e6),
    )
    params.update(overrides)
    return LinkScenario(**params)


def session_parts(n_keys=8, seed=0):
    table = generate_table(n_keys, 2, rng_seed=seed)
    node = NodeState(table=table)
    monitor = MonitorConfig(table=table.copy())
    return node, monitor


def charging_session(node, *, rect=FLAT_RECT, seed=0, dt_s=0.01, **kwargs):
    """run_session on a wired link that feeds -10 dBm straight into the
    rectifier: 20 uW DC under FLAT_RECT."""
    scenario = LinkScenario(
        name="wired", topology="wired", p_tx_dbm=-10.0, rect=rect, noise=NoiseSpec(-90.0, seed)
    )
    monitor = MonitorConfig(table=node.table.copy())
    return run_session(scenario, node, Attacker(), monitor, dt_s=dt_s, **kwargs)


def unused_indices(table: PvkTable) -> list[int]:
    """The reference scan that select_unused's Fenwick tree must agree with."""
    return [i for i, u in enumerate(table.used) if not u]


class TestPvkTable:
    def test_generate_deterministic(self):
        a = generate_table(50, 2, rng_seed=9)
        b = generate_table(50, 2, rng_seed=9)
        assert a.entries == b.entries
        c = generate_table(50, 2, rng_seed=10)
        assert a.entries != c.entries

    def test_thousand_distinct_two_byte_codes(self):
        table = generate_table(1000, 2, rng_seed=4)
        assert len(set(table.entries)) == 1000

    def test_capacity_error(self):
        with pytest.raises(TableCapacityError):
            generate_table(70_000, 2, rng_seed=0)

    def test_argument_bounds(self):
        with pytest.raises(ValueError):
            generate_table(0, 2, rng_seed=0)
        with pytest.raises(ValueError):
            generate_table(1, 0, rng_seed=0)
        with pytest.raises(ValueError):
            generate_table(1, 65, rng_seed=0)

    def test_cursor_policy(self):
        # a sequential node emits the first unused key, wherever that is
        table = PvkTable(entries=[b"\x01", b"\x02", b"\x03"])
        node = NodeState(table=table, stored_energy_j=50e-6)
        log = charging_session(node)
        assert (log.emitted_key_index, log.emitted_code) == (0, b"\x01")
        table.mark_used(2)  # out-of-order use leaves index 1 first
        log = charging_session(node)
        assert (log.emitted_key_index, log.emitted_code) == (1, b"\x02")
        assert table.n_unused == 0
        with pytest.raises(TableExhausted):
            charging_session(node)

    def test_entries_unique_and_sized(self):
        with pytest.raises(ValueError):
            PvkTable(entries=[b"\x01", b"\x01"])
        with pytest.raises(ValueError):
            PvkTable(entries=[b""])

    def test_copy_is_independent(self):
        table = PvkTable(entries=[b"\x01", b"\x02"])
        clone = table.copy()
        table.mark_used(0)
        assert not clone.is_used(0)
        assert clone.select_unused(0) == 0

    @given(
        st.lists(st.booleans(), min_size=1, max_size=70).flatmap(
            lambda used: st.tuples(
                st.just(used),
                st.lists(st.integers(0, len(used) - 1), max_size=2 * len(used)),
            )
        )
    )
    def test_select_matches_the_unused_pool(self, case):
        used, marks = case
        table = PvkTable(entries=[i.to_bytes(1, "big") for i in range(len(used))])
        for index in np.flatnonzero(used):
            table.mark_used(int(index))
        for index in [None, *marks, *marks[:3]]:  # the tail marks entries again
            if index is not None:
                table.mark_used(index)
            pool = unused_indices(table)
            assert table.n_unused == len(pool)
            assert [table.select_unused(k) for k in range(len(pool))] == pool
            if pool:
                assert table.select_unused(0) == pool[0]
            with pytest.raises(IndexError):
                table.select_unused(len(pool))
        clone = table.copy()
        if pool:
            table.mark_used(pool[0])
            assert clone.n_unused == len(pool) and clone.select_unused(0) == pool[0]

    def test_mark_used_rejects_out_of_range_indices(self):
        table = PvkTable(entries=[b"\x01", b"\x02"])
        for index in (-1, 2):
            with pytest.raises(IndexError):
                table.mark_used(index)
        assert unused_indices(table) == [0, 1]

    @pytest.mark.parametrize(
        "n_keys, key_len",
        [(250, 1), (300, 2), (300, 3), (300, 4), (300, 5), (300, 7), (300, 8), (300, 64)],
    )
    def test_bulk_draw_matches_per_key_draws(self, n_keys, key_len):
        # the per-key reference: one uint8 draw per key, first occurrence
        # kept; 250 of the 256 one-byte codes makes most draws duplicates
        for seed in range(3):
            rng = np.random.default_rng(seed)
            codes: list[bytes] = []
            while len(codes) < n_keys:
                code = rng.integers(0, 256, size=key_len, dtype=np.uint8).tobytes()
                if code not in codes:
                    codes.append(code)
            assert generate_table(n_keys, key_len, rng_seed=seed).entries == codes


class TestNodeStep:
    """The node's charge-and-emit step, as run_session drives it."""

    def test_zero_efficiency_never_wakes(self):
        rect = RectifierModel(efficiency_curve=((-60.0, 0.0), (60.0, 0.0)))
        node = NodeState(table=PvkTable(entries=[b"\x01\x02"]))
        log = charging_session(node, rect=rect, max_time_s=1.0)
        assert log.final.decode.status == WAKE_TIMEOUT and log.emitted_key_index is None
        assert node.stored_energy_j == log.total_harvested_j == 0.0
        assert log.energy_trace == [(0.0, 0.0), (1.0, 0.0)]

    def test_wakes_after_half_second(self):
        # 20 uW harvest vs 10 uJ threshold: E = P*t crosses at t = 0.5 s
        node = NodeState(table=PvkTable(entries=[b"\x01\x02"]))
        dt = 0.01
        log = charging_session(node, dt_s=dt)
        (t,) = [e.time_s for e in log.events if e.event == "node_wake"]
        assert t == pytest.approx(0.5, abs=dt + 1e-12)
        assert [e[0] for e in log.energy_trace[:2]] == [0.0, t]  # one closed-form chunk

    def test_frame_cost_debit(self):
        node = NodeState(
            table=PvkTable(entries=[b"\x01\x02"]),
            stored_energy_j=9.99e-6,
            tx_cost_j_per_bit=1e-9,
        )
        log = charging_session(node, dt_s=1.0)
        assert log.emitted_code == b"\x01\x02"
        assert log.total_tx_cost_j == node.tx_cost_j_per_bit * 40
        assert log.backscatter_time_s == pytest.approx(40 / 20e3, rel=1e-12)
        # the waking chunk's ledger entry is the energy left after the frame
        assert node.stored_energy_j == 9.99e-6 + log.total_harvested_j - log.total_tx_cost_j
        assert log.energy_trace[1] == (1.0, node.stored_energy_j)

    def test_capacity_clamp_and_ledger(self):
        node = NodeState(
            table=PvkTable(entries=[b"\x01\x02"]),
            stored_energy_j=99.9e-6,
            storage_capacity_j=100e-6,
            wake_threshold_j=150e-6,  # unreachable: clamped below threshold
        )
        log = charging_session(node, dt_s=100.0, max_time_s=100.0)
        assert node.stored_energy_j == 100e-6
        assert log.total_harvested_j == pytest.approx(0.1e-6, rel=1e-9)
        assert log.emitted_key_index is None
        assert log.energy_trace == [(0.0, 99.9e-6), (100.0, 100e-6)]

    def test_table_exhausted_at_wake(self):
        table = PvkTable(entries=[b"\x01\x02"])
        table.mark_used(0)
        node = NodeState(table=table, stored_energy_j=50e-6)
        with pytest.raises(TableExhausted):
            charging_session(node)
        # the waking chunk was banked before the table was found empty
        assert node.stored_energy_j == pytest.approx(50e-6 + 20e-6 * 0.01, rel=1e-12)

    def test_random_key_policy_draws_unused(self):
        table = generate_table(16, 2, rng_seed=3)
        node = NodeState(table=table, stored_energy_j=50e-6)
        log = charging_session(node, seed=5, key_policy="random")
        assert log.emitted_key_index is not None
        assert unused_indices(table) == [i for i in range(16) if i != log.emitted_key_index]

    def test_random_key_policy_keeps_the_pool_order(self):
        # the pick the policy made by indexing the list of unused entries,
        # with one draw per session from the noise seed's first child
        table = generate_table(500, 2, rng_seed=8)
        node = NodeState(table=table)
        pool = list(range(len(table)))
        emitted, expected = [], []
        for seed in range(len(table)):
            log = charging_session(node, seed=seed, dt_s=1.0, key_policy="random")
            emitted.append(log.emitted_key_index)
            (child,) = np.random.SeedSequence(seed).spawn(1)
            expected.append(pool.pop(np.random.default_rng(child).integers(0, len(pool))))
        assert emitted == expected
        with pytest.raises(TableExhausted):
            charging_session(node, dt_s=1.0, key_policy="random")

    def test_nan_input_power_rejected_before_the_ledger(self):
        # the chunk count used to fail first, on int(nan), naming no input
        for scenario in (
            anechoic_scenario(p_tx_dbm=math.nan),
            LinkScenario(name="wired", topology="wired", p_tx_dbm=math.nan),
        ):
            node, monitor = session_parts()
            node.stored_energy_j = 5e-6
            with pytest.raises(ValueError, match="node input power must not be NaN"):
                run_session(scenario, node, Attacker(), monitor)
            assert node.stored_energy_j == 5e-6
            assert not any(node.table.used) and not any(monitor.table.used)

    def test_unknown_key_policy_rejected_before_charging(self):
        # a node already above its threshold would emit in its first chunk
        node = NodeState(table=generate_table(4, 2, rng_seed=3), stored_energy_j=50e-6)
        with pytest.raises(ValueError, match="unknown key policy: 'bogus'"):
            charging_session(node, key_policy="bogus")
        assert node.stored_energy_j == 50e-6 and not any(node.table.used)

    def test_nan_dt_rejected(self):
        node = NodeState(table=generate_table(4, 2, rng_seed=3), stored_energy_j=50e-6)
        with pytest.raises(ValueError, match="dt_s must be > 0"):
            charging_session(node, dt_s=math.nan)
        assert node.stored_energy_j == 50e-6 and not any(node.table.used)

    @pytest.mark.parametrize("dt_s, max_time_s", [(1e-320, 30.0), (1e-4, 1e305)])
    def test_uncountable_steps_rejected(self, dt_s, max_time_s):
        # both are finite, but their step count overflowed to inf, and every
        # session failed on it as OverflowError
        node = NodeState(table=generate_table(4, 2, rng_seed=3), stored_energy_j=50e-6)
        with pytest.raises(ValueError, match="max_time_s / dt_s must be finite"):
            charging_session(node, dt_s=dt_s, max_time_s=max_time_s)
        assert node.stored_energy_j == 50e-6 and not any(node.table.used)


class TestRunSession:
    def test_legitimate_session_accepted(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=42), node, Attacker(), monitor)
        assert log.final.verdict == ACCEPTED
        assert log.final.decode.payload == log.emitted_code
        assert log.emitted_key_index == 0
        assert monitor.table.is_used(0) and node.table.is_used(0)

    def test_replay_attacker_rejected_second_time(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=43), node, Attacker(kind="replay"), monitor)
        assert [d.verdict for d in log.decisions] == [ACCEPTED, REJECTED_REPLAY]

    def test_disabled_modulation_no_signal(self):
        scenario = anechoic_scenario(
            seed=44, rect=RectifierModel(gamma_low_db=-20.0, gamma_high_db=-20.0)
        )
        node, monitor = session_parts()
        log = run_session(scenario, node, Attacker(), monitor)
        assert log.final.verdict == REJECTED_NO_SIGNAL

    def test_unknown_key_rejected(self):
        node, _ = session_parts(seed=1)
        foreign = MonitorConfig(table=generate_table(8, 2, rng_seed=2024))
        log = run_session(anechoic_scenario(seed=45), node, Attacker(), foreign)
        assert log.final.verdict == REJECTED_UNKNOWN_KEY

    def test_energy_conservation_exact(self):
        node, monitor = session_parts()
        scenario = anechoic_scenario(seed=46)
        for i in range(5):
            log = run_session(fresh_session_scenario(scenario, 100 + i), node, Attacker(), monitor)
            start = log.energy_trace[0][1]
            end = log.energy_trace[-1][1]
            assert abs(end - (start + log.total_harvested_j - log.total_tx_cost_j)) <= 1e-12

    def test_backscatter_occupancy_fraction(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=47), node, Attacker(), monitor)
        assert log.backscatter_time_s / log.duration_s < 1e-3

    def test_timeline_strictly_increasing(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=48), node, Attacker(kind="replay"), monitor)
        times = [e.time_s for e in log.events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_wake_timeout_when_unpowered(self):
        scenario = anechoic_scenario(
            seed=49, rect=RectifierModel(efficiency_curve=((-60.0, 0.0), (60.0, 0.0)))
        )
        node, monitor = session_parts()
        log = run_session(scenario, node, Attacker(), monitor, max_time_s=0.5)
        assert log.final.verdict == REJECTED_NO_SIGNAL
        assert any(e.event == "wake_timeout" for e in log.events)

    def test_replay_session_event_order(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=43), node, Attacker(kind="replay"), monitor)
        assert [e.event for e in log.events] == [
            "session_start",
            "node_wake",
            "frame_emitted",
            "verify",
            "replay_presented",
            "verify",
            "session_end",
        ]
        assert [e.verdict for e in log.events if e.event == "verify"] == [
            ACCEPTED,
            REJECTED_REPLAY,
        ]

    def test_timeout_session_event_order_and_record(self):
        scenario = anechoic_scenario(seed=49, p_tx_dbm=-15.0)
        node, monitor = session_parts()
        log = run_session(scenario, node, Attacker(kind="replay"), monitor, max_time_s=0.5)
        assert [e.event for e in log.events] == ["session_start", WAKE_TIMEOUT, "session_end"]
        assert log.duration_s == log.events[-1].time_s
        assert (log.emitted_key_index, log.emitted_code, log.trace) == (None, None, None)
        assert log.total_tx_cost_j == 0.0 and log.backscatter_time_s == 0.0
        assert log.total_harvested_j == node.stored_energy_j > 0.0
        # the node never woke, so no level was measured: the record says so
        assert [d.record() for d in log.decisions] == [
            {
                "verdict": REJECTED_NO_SIGNAL,
                "matched_key_index": None,
                "measured_dr_db": None,
                "threshold_dbm": None,
                "status": WAKE_TIMEOUT,
            }
        ]

    def test_replay_re_presents_the_session_trace(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=43), node, Attacker(kind="replay"), monitor)
        first, replay = log.decisions
        assert replay.decode == first.decode and first.decode.payload == log.emitted_code

    def test_unreachable_wake_threshold_costs_one_chunk(self):
        # storage tops out below the threshold, so the node can never wake
        node = NodeState(
            table=generate_table(4, 2, rng_seed=0),
            storage_capacity_j=100e-6,
            wake_threshold_j=100.0001e-6,
        )
        _, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=54), node, Attacker(), monitor)
        assert log.final.decode.status == WAKE_TIMEOUT
        assert len(log.energy_trace) <= 3
        assert node.stored_energy_j == log.total_harvested_j == 100e-6

    def test_nan_max_time_rejected(self):
        node, monitor = session_parts()
        with pytest.raises(ValueError, match="max_time_s must be >= 0"):
            run_session(anechoic_scenario(), node, Attacker(), monitor, max_time_s=math.nan)

    def test_zero_max_time_times_out_at_once(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(), node, Attacker(), monitor, max_time_s=0.0)
        assert [e.event for e in log.events] == ["session_start", WAKE_TIMEOUT, "session_end"]
        assert log.energy_trace == [(0.0, 0.0)]

    @pytest.mark.parametrize("efficiency", [0.0, 0.2])
    def test_unknown_key_policy_rejected_before_charging(self, efficiency):
        scenario = anechoic_scenario(
            rect=RectifierModel(efficiency_curve=((-60.0, efficiency), (60.0, efficiency)))
        )
        node, monitor = session_parts()
        with pytest.raises(ValueError, match="unknown key policy: 'bogus'"):
            run_session(scenario, node, Attacker(), monitor, key_policy="bogus")
        assert node.stored_energy_j == 0.0 and not any(node.table.used)

    def test_nan_dt_rejected(self):
        node, monitor = session_parts()
        with pytest.raises(ValueError, match="dt_s must be > 0"):
            run_session(anechoic_scenario(), node, Attacker(), monitor, dt_s=math.nan)

    @pytest.mark.parametrize("arg", ["dt_s", "max_time_s"])
    def test_infinite_timing_rejected_before_the_ledger(self, arg):
        # max_time_s = inf failed as OverflowError in the charge phase's step
        # count, dt_s = inf as "event times must be strictly increasing"
        node, monitor = session_parts()
        node.stored_energy_j = 5e-6
        with pytest.raises(ValueError, match=f"^{arg} must be .* finite"):
            run_session(anechoic_scenario(), node, Attacker(), monitor, **{arg: math.inf})
        assert node.stored_energy_j == 5e-6
        assert not any(node.table.used) and not any(monitor.table.used)

    def test_immediate_timeout_keeps_timeline_strict(self):
        node, monitor = session_parts()
        log = run_session(
            anechoic_scenario(seed=53), node, Attacker(), monitor, max_time_s=1e-6
        )
        assert log.final.verdict == REJECTED_NO_SIGNAL
        times = [e.time_s for e in log.events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_session_determinism(self):
        a_node, a_mon = session_parts()
        b_node, b_mon = session_parts()
        log_a = run_session(anechoic_scenario(seed=50), a_node, Attacker(), a_mon)
        log_b = run_session(anechoic_scenario(seed=50), b_node, Attacker(), b_mon)
        assert log_a.format_records() == log_b.format_records()
        assert np.array_equal(log_a.trace.samples, log_b.trace.samples)

    def test_random_key_policy_session(self):
        node, monitor = session_parts(n_keys=32)
        log = run_session(
            anechoic_scenario(seed=51), node, Attacker(), monitor, key_policy="random"
        )
        assert log.final.verdict == ACCEPTED

    def test_random_key_stream_independent_of_noise_stream(self):
        # the key draw must not replay the first draw of the noise generator
        same = 0
        for seed in range(20):
            node = NodeState(table=generate_table(1000, 2, rng_seed=3))
            monitor = MonitorConfig(table=node.table.copy())
            log = run_session(
                anechoic_scenario(seed=seed), node, Attacker(), monitor, key_policy="random"
            )
            same += log.emitted_key_index == np.random.default_rng(seed).integers(0, 1000)
        assert same <= 1

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63, 2**64 - 1])
    def test_random_key_stream_is_the_noise_seeds_first_child(self, seed):
        node = NodeState(table=generate_table(1000, 2, rng_seed=3))
        monitor = MonitorConfig(table=node.table.copy())
        log = run_session(
            anechoic_scenario(seed=seed), node, Attacker(), monitor, key_policy="random"
        )
        (child,) = np.random.SeedSequence(seed).spawn(1)
        assert log.emitted_key_index == np.random.default_rng(child).integers(0, 1000)

    def test_replay_decides_as_a_fresh_decode_of_the_capture(self, monkeypatch):
        # the replay is verified on the first decision's decode; it must
        # decide exactly as decoding the capture again would, against a copy
        # of the monitor table taken just before the replay
        tables_seen = []

        def spying_verify(decode, table):
            tables_seen.append(table.copy())
            return verify(decode, table)

        monkeypatch.setattr(monitor_module, "verify", spying_verify)
        monkeypatch.setattr(protocol, "verify", spying_verify)
        outcomes = set()
        for seed in range(120):
            rng = np.random.default_rng(seed)
            table = generate_table(64, 2, rng_seed=seed)
            node = NodeState(table=table)
            # the node's own table, another provisioning (unknown keys), or
            # one with every even index spent already, so that the first
            # presentation can itself be a replay
            monitor = MonitorConfig(
                table=generate_table(64, 2, rng_seed=seed + 1000)
                if seed % 3 == 1
                else table.copy()
            )
            if seed % 3 == 2:
                for i in range(0, 64, 2):
                    monitor.table.mark_used(i)
            scenario = anechoic_scenario(seed=seed, noise=NoiseSpec(rng.uniform(-90, -35), seed))
            log = run_session(
                scenario,
                node,
                Attacker(kind="replay"),
                monitor,
                key_policy=("sequential", "random")[seed % 2],
            )
            first, replay = log.decisions
            want = verify(decode_trace(log.trace, monitor.bit_rate_hz), tables_seen[-1])
            assert replay.verdict == want.verdict
            assert replay.matched_key_index == want.matched_key_index
            assert repr(dataclasses.astuple(replay.decode)) == repr(
                dataclasses.astuple(want.decode)
            )
            assert want.verdict != ACCEPTED
            outcomes.add((first.verdict, replay.verdict, first.decode.status))
            tables_seen.clear()
        assert outcomes >= {
            (ACCEPTED, REJECTED_REPLAY, DECODED),
            (REJECTED_REPLAY, REJECTED_REPLAY, DECODED),
            (REJECTED_UNKNOWN_KEY, REJECTED_UNKNOWN_KEY, DECODED),
            (REJECTED_NO_SIGNAL, REJECTED_NO_SIGNAL, NO_SYNC),
            (REJECTED_NO_SIGNAL, REJECTED_NO_SIGNAL, PAYLOAD_INVALID),
        }

    def test_record_field_names(self):
        node, monitor = session_parts()
        log = run_session(anechoic_scenario(seed=52), node, Attacker(), monitor)
        verify_lines = [r for r in log.format_records() if "event=verify" in r]
        assert verify_lines and all(
            "time_s=" in r and "verdict=" in r and "measured_dr_db=" in r for r in verify_lines
        )
        start = log.format_records()[0]
        assert start.startswith("time_s=0.0 event=session_start stored_energy_j=")


class TestFreshSessionScenario:
    def test_copy_differs_from_its_base_only_in_the_seed(self):
        base = anechoic_scenario(seed=7)
        fresh = fresh_session_scenario(base, 8)
        assert fresh.noise == NoiseSpec(base.noise.noise_power_dbm, 8)
        assert fresh != base
        assert dataclasses.replace(fresh, noise=base.noise) == base
        for f in dataclasses.fields(LinkScenario):
            if f.name != "noise":
                assert getattr(fresh, f.name) is getattr(base, f.name)
        assert vars(fresh)["_budget"] is vars(base)["_budget"]

    def test_near_field_uplink_fails_at_render_not_at_the_copy(self):
        # the uplink carries only the backscatter: charging never reads it
        base = anechoic_scenario(ul=LinkGeometry(0.1, 868e6))
        fresh = fresh_session_scenario(base, 1)
        for _ in range(2):
            with pytest.raises(NearFieldError):
                render_envelope(fresh, [1, 0], 20e3, 320e3)
        node = NodeState(
            table=generate_table(4, 2, rng_seed=0),
            storage_capacity_j=100e-6,
            wake_threshold_j=100.0001e-6,
        )
        _, monitor = session_parts()
        log = run_session(fresh_session_scenario(base, 2), node, Attacker(), monitor)
        assert log.final.decode.status == WAKE_TIMEOUT
        node, monitor = session_parts()
        with pytest.raises(NearFieldError):
            run_session(fresh_session_scenario(base, 3), node, Attacker(), monitor)

    def test_sessions_on_one_link_compute_its_budget_once(self, budget_calls):
        node, monitor = session_parts(n_keys=100)
        base = anechoic_scenario(seed=9)
        for i in range(100):
            log = run_session(fresh_session_scenario(base, 900 + i), node, Attacker(), monitor)
            assert log.final.verdict == ACCEPTED
        assert len(budget_calls["harvested_dc"]) == 1
        assert len(budget_calls["combine_noncoherent"]) == 2


class TestStateValidation:
    def test_node_state_bounds(self):
        table = PvkTable(entries=[b"\x01"])
        with pytest.raises(ValueError):
            NodeState(table=table, stored_energy_j=-1.0)
        with pytest.raises(ValueError):
            NodeState(table=table, stored_energy_j=2.0, storage_capacity_j=1.0)

    @pytest.mark.parametrize(
        "name", ["wake_threshold_j", "storage_capacity_j", "tx_cost_j_per_bit"]
    )
    def test_node_state_rejects_nan(self, name):
        with pytest.raises(ValueError, match="must be"):
            NodeState(table=PvkTable(entries=[b"\x01"]), **{name: math.nan})

    def test_attacker_contract(self):
        with pytest.raises(ValueError):
            Attacker(kind="mitm")

    def test_attacker_holds_only_its_kind(self):
        assert [f.name for f in dataclasses.fields(Attacker)] == ["kind"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            Attacker().kind = "replay"

    def test_monitor_config_oversampling(self):
        with pytest.raises(ValueError):
            MonitorConfig(table=PvkTable(entries=[b"\x01"]), oversampling=4)

    def test_table_cursor_is_derived_not_accepted(self):
        with pytest.raises(TypeError):
            PvkTable(entries=[b"\x01", b"\x02"], cursor=1)
        with pytest.raises(TypeError):
            PvkTable(entries=[b"\x01", b"\x02"], used=[True, False])
        assert PvkTable(entries=[b"\x01", b"\x02"]).used == [False, False]
