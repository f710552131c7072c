"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from wptsec.channel import (
    AntennaSpec,
    LeakageModel,
    LinkGeometry,
    NoiseSpec,
    RectifierModel,
    backscatter_received_power,
    combine_noncoherent,
    dynamic_range_db,
    friis_received_power,
    leakage_power,
)
from wptsec.cli import format_csv, main, run_experiment
from wptsec.config import build_monitor, build_node, build_scenario, load_config, load_preset
from wptsec.errors import BitRateTooHigh
from wptsec.monitor import ACCEPTED, REJECTED_REPLAY, REJECTED_UNKNOWN_KEY, authenticate
from wptsec.protocol import (
    Attacker,
    MonitorConfig,
    PvkTable,
    fresh_session_scenario,
    generate_table,
    run_session,
)
from wptsec.waveform import build_frame, frame_to_bits, synthesize_envelope

C = 299_792_458.0


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def anechoic_keyed_parts(n_keys: int, table_seed: int):
    cfg = load_preset("anechoic")
    scenario = build_scenario(cfg)
    table = generate_table(n_keys, 2, rng_seed=table_seed)
    node = build_node(cfg, table)
    monitor = build_monitor(cfg, table.copy())
    return scenario, node, monitor


def test_criterion_1_two_byte_retrieval():
    scenario, node, monitor = anechoic_keyed_parts(1000, table_seed=20260810)
    t0 = time.monotonic()
    accepted = 0
    bit_errors = 0
    for i in range(1000):
        log = run_session(
            fresh_session_scenario(scenario, 51_000 + i), node, Attacker(), monitor
        )
        accepted += log.final.verdict == ACCEPTED
        if log.final.decode.payload != log.emitted_code:
            bit_errors += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        "two-byte retrieval at 20 kHz",
        accepted == 1000 and bit_errors == 0 and elapsed < 10.0,
        f"{accepted}/1000 accepted, {bit_errors} payload errors, {elapsed:.2f} s",
    )


def test_criterion_2_dynamic_range_power_sweep():
    sweep_cfg = load_config(
        "setup=anechoic\n"
        "protocol.enabled=false\n"
        "sweep.param=channel.p_tx_dbm\n"
        "sweep.values=-15,-12,-9,-6,-3,0,3,6,9,12,15,18,21,24\n"
    )
    rows, summary = run_experiment(sweep_cfg)
    drs = [r["dr_db"] for r in rows]
    spread = max(drs) - min(drs)

    # monotone part: fixed backscatter levels, rising leakage floor
    scenario = build_scenario(load_preset("anechoic"))
    bs_hi = scenario.backscatter_dbm(True)
    bs_lo = scenario.backscatter_dbm(False)
    monotone = True
    last = None
    for floor in np.linspace(-90.0, -30.0, 31):
        dr = dynamic_range_db(
            combine_noncoherent([bs_hi, floor]), combine_noncoherent([bs_lo, floor])
        )
        if last is not None and dr > last + 1e-12:
            monotone = False
        last = dr
    report(
        2,
        "dynamic-range power sweep",
        spread <= 1.5 and monotone and summary.all_passed,
        f"spread {spread:.3f} dB over 14 points (limit 1.5), monotone vs leakage: {monotone}",
    )


def test_criterion_3_modulation_frequency_insensitivity():
    rows, _ = run_experiment(
        load_config(
            "setup=wired\nsweep.param=waveform.bit_rate_hz\nsweep.values=1000,10000,100000\n"
        )
    )
    drs = [r["dr_db"] for r in rows]
    spread = max(drs) - min(drs)
    rejected = False
    try:
        build_frame(b"\x01\x02", 150e3)
    except BitRateTooHigh:
        try:
            MonitorConfig(PvkTable([b"\x01"]), bit_rate_hz=150e3)
        except BitRateTooHigh:
            rejected = True
    report(
        3,
        "modulation-frequency insensitivity",
        spread <= 0.1 and rejected,
        f"DR spread {spread:.6f} dB over 1/10/100 kHz (limit 0.1), >100 kHz rejected: {rejected}",
    )


def test_criterion_4_leakage_calibration_identity():
    anechoic = leakage_power(15.0, LeakageModel.coupling(-57.0, 15.0))
    wired = leakage_power(-15.0, LeakageModel.circulator(20.0))
    report(
        4,
        "leakage calibration identity",
        anechoic == -57.0 and wired == -35.0,
        f"coupling at +15 dBm: {anechoic} dBm, circulator at -15 dBm: {wired} dBm",
    )


def test_criterion_5_channel_algebra_oracle():
    def friis_oracle(p, gt, gr, d, f):
        lam = C / f
        p_w = (
            10 ** ((p - 30) / 10)
            * 10 ** (gt / 10)
            * 10 ** (gr / 10)
            * (lam / (4 * math.pi * d)) ** 2
        )
        return 10 * math.log10(p_w) + 30

    rng = np.random.default_rng(868)
    worst_friis = 0.0
    for _ in range(100):
        p = float(rng.uniform(-30, 30))
        gt, gr = (float(g) for g in rng.uniform(-5, 15, 2))
        f = float(rng.uniform(400e6, 6e9))
        d = float(rng.uniform(1.0, 100.0))
        got = friis_received_power(p, AntennaSpec(gt), AntennaSpec(gr), LinkGeometry(d, f))
        worst_friis = max(worst_friis, abs(got - friis_oracle(p, gt, gr, d, f)))

    worst_gamma = 0.0
    for _ in range(100):
        rect = RectifierModel(
            gamma_low_db=float(rng.uniform(-30, -10)),
            gamma_high_db=float(rng.uniform(-9, 0)),
        )
        f = float(rng.uniform(400e6, 3e9))
        dl = LinkGeometry(float(rng.uniform(1, 20)), f)
        ul = LinkGeometry(float(rng.uniform(1, 20)), f)
        ants = [AntennaSpec(float(g)) for g in rng.uniform(-5, 12, 3)]
        hi = backscatter_received_power(10.0, ants[0], ants[1], ants[2], dl, ul, rect, True)
        lo = backscatter_received_power(10.0, ants[0], ants[1], ants[2], dl, ul, rect, False)
        worst_gamma = max(
            worst_gamma, abs((hi - lo) - (rect.gamma_high_db - rect.gamma_low_db))
        )
    report(
        5,
        "channel algebra oracle",
        worst_friis <= 1e-9 and worst_gamma <= 1e-9,
        f"max |friis - oracle| {worst_friis:.2e} dB, "
        f"max |state diff - gamma diff| {worst_gamma:.2e} dB (limit 1e-9)",
    )


def test_criterion_6_loopback_property_suite():
    from wptsec.monitor import decode_trace

    rng = np.random.default_rng(606)
    failures = 0
    total = 0
    for n_bytes in (1, 2, 8, 64):
        for rate in (1e3, 10e3, 20e3, 100e3):
            for _ in range(50):
                payload = rng.integers(0, 256, n_bytes, dtype=np.uint8).tobytes()
                # DR exactly 10 dB; noise floor 20 dB under the low state
                trace = synthesize_envelope(
                    frame_to_bits(build_frame(payload, rate)),
                    -30.0,
                    -40.0,
                    rate,
                    16 * rate,
                    NoiseSpec(-60.0, int(rng.integers(0, 2**63))),
                )
                result = decode_trace(trace, rate)
                total += 1
                if result.status != "decoded" or result.payload != payload:
                    failures += 1

    table = generate_table(1000, 2, rng_seed=66)
    monitor_table = table.copy()
    accepts = 0
    for i in range(1000):
        trace = synthesize_envelope(
            frame_to_bits(build_frame(table.entries[i], 20e3)),
            -50.0,
            -50.0,  # DR = 0: modulation disabled
            20e3,
            320e3,
            NoiseSpec(-60.0, 7_000_000 + i),
        )
        decision = authenticate(trace, 20e3, monitor_table)
        accepts += decision.verdict == ACCEPTED
    report(
        6,
        "loopback property suite",
        failures == 0 and accepts == 0,
        f"{failures}/{total} decode failures at DR 10 dB / SNR 20 dB; "
        f"{accepts}/1000 accepts at DR 0",
    )


def test_criterion_7_replay_defense():
    scenario = build_scenario(load_preset("anechoic"))
    p_hi = scenario.state_level_dbm(True)
    p_lo = scenario.state_level_dbm(False)
    table = generate_table(1000, 2, rng_seed=77)
    monitor_table = table.copy()
    replays_rejected = 0
    false_accepts = 0
    for i in range(1000):
        trace = synthesize_envelope(
            frame_to_bits(build_frame(table.entries[i], 20e3)),
            p_hi,
            p_lo,
            20e3,
            320e3,
            NoiseSpec(-90.0, 9_100_000 + i),
        )
        first = authenticate(trace, 20e3, monitor_table)
        second = authenticate(trace, 20e3, monitor_table)
        if first.verdict == ACCEPTED and second.verdict == REJECTED_REPLAY:
            replays_rejected += 1
        if second.verdict == ACCEPTED:
            false_accepts += 1

    # end-to-end variant through the session driver
    scenario2, node, monitor = anechoic_keyed_parts(4, table_seed=771)
    log = run_session(fresh_session_scenario(scenario2, 3), node, Attacker("replay"), monitor)
    e2e = [d.verdict for d in log.decisions] == [ACCEPTED, REJECTED_REPLAY]

    foreign = generate_table(200, 2, rng_seed=7777)
    known = set(monitor_table.entries)
    unknown_accepts = 0
    checked = 0
    for code in foreign.entries:
        if code in known:
            continue
        checked += 1
        trace = synthesize_envelope(
            frame_to_bits(build_frame(code, 20e3)),
            p_hi,
            p_lo,
            20e3,
            320e3,
            NoiseSpec(-90.0, 40_000 + checked),
        )
        decision = authenticate(trace, 20e3, monitor_table)
        if decision.verdict == ACCEPTED:
            unknown_accepts += 1
        elif decision.verdict != REJECTED_UNKNOWN_KEY:
            unknown_accepts += 1  # anything but unknown-key is a defect here
    report(
        7,
        "replay defense",
        replays_rejected == 1000 and false_accepts == 0 and e2e and unknown_accepts == 0,
        f"{replays_rejected}/1000 replays rejected, {false_accepts} false accepts, "
        f"session-level replay ok: {e2e}, {checked} unknown codes all rejected",
    )


def test_criterion_8_energy_ledger():
    scenario, node, monitor = anechoic_keyed_parts(30, table_seed=88)

    log = run_session(fresh_session_scenario(scenario, 1), node, Attacker(), monitor)
    fresh_fraction = log.backscatter_time_s / log.duration_s
    worst = _ledger_error(log)
    for i in range(2, 26):
        log = run_session(fresh_session_scenario(scenario, i), node, Attacker(), monitor)
        worst = max(worst, _ledger_error(log))
    report(
        8,
        "energy ledger",
        worst <= 1e-12 and fresh_fraction < 1e-3,
        f"worst conservation error {worst:.2e} J (limit 1e-12), "
        f"backscatter fraction {fresh_fraction:.2e} (limit 1e-3)",
    )


def _ledger_error(log) -> float:
    start = log.energy_trace[0][1]
    end = log.energy_trace[-1][1]
    return abs(end - (start + log.total_harvested_j - log.total_tx_cost_j))


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "setup=anechoic\nseed=424242\n"
        "protocol.enabled=false\n"
        "sweep.param=channel.p_tx_dbm\nsweep.values=-15,0,15,24\n"
    )
    outs = []
    traces = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.csv"
        trc = tmp_path / f"{tag}.trace"
        code = main(["run", str(cfg_path), "--out", str(out), "--trace-out", str(trc)])
        assert code == 0
        outs.append(out.read_bytes())
        traces.append(trc.read_bytes())
    # and the same through the library API
    rows_a, _ = run_experiment(load_config(cfg_path.read_text()))
    rows_b, _ = run_experiment(load_config(cfg_path.read_text()))
    report(
        9,
        "determinism",
        outs[0] == outs[1] and traces[0] == traces[1] and format_csv(rows_a) == format_csv(rows_b),
        f"CSV bytes equal: {outs[0] == outs[1]}, trace bytes equal: {traces[0] == traces[1]}",
    )
