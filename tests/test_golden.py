"""Golden output: digests over seeded keyed sessions, pinned from a known-good
build, so any change to one decoded bit, level or sync offset, or to one
entry of the energy ledger, fails here."""

import hashlib

import pytest

from wptsec.cli import main
from wptsec.config import build_monitor, build_node, build_scenario, build_tables, load_config
from wptsec.errors import TableExhausted
from wptsec.protocol import Attacker, fresh_session_scenario, run_session

# sha256 over the session lines of both runs below
GOLDEN_SHA256 = "dfc47c218c4c2cce472a92180257ad719c8e118edcb10c704598740838c630ab"

KEYED = (
    "setup = anechoic\nseed = 11\nprotocol.n_keys = 200\nprotocol.key_len_bytes = 2\n"
    "protocol.key_policy = sequential\nprotocol.attacker = none\n"
)
REPLAY = (
    "setup = anechoic\nseed = 12\nprotocol.n_keys = 2000\nprotocol.key_len_bytes = 4\n"
    "protocol.key_policy = random\nprotocol.attacker = replay\n"
)


def seeded_sessions(text: str, count: int, noise_seed: int, stored_energy_j: float = 0.0):
    """Run count sessions of one node, the i-th on noise seed noise_seed + i,
    and yield the node with each session's log (None where the node found
    its table empty)."""
    cfg = load_config(text)
    node_table, monitor_table = build_tables(cfg)
    node, monitor = build_node(cfg, node_table), build_monitor(cfg, monitor_table)
    node.stored_energy_j = stored_energy_j
    scenario = build_scenario(cfg)
    for i in range(count):
        try:
            log = run_session(
                fresh_session_scenario(scenario, noise_seed + i),
                node,
                Attacker(kind=cfg.attacker),
                monitor,
                dt_s=cfg.dt_s,
                max_time_s=cfg.max_time_s,
                key_policy=cfg.key_policy,
            )
        except TableExhausted:
            log = None
        yield node, log


def session_lines(text: str, sessions: int, noise_seed: int) -> list[str]:
    """One line per session: verdicts, emitted index, then per decision the
    payload hex, repr of DR and threshold, and the sync offset."""
    lines = []
    for _, log in seeded_sessions(text, sessions, noise_seed):
        fields = [",".join(d.verdict for d in log.decisions), str(log.emitted_key_index)]
        for d in log.decisions:
            dec = d.decode
            fields += [
                (dec.payload or b"").hex(),
                repr(dec.measured_dr_db),
                repr(dec.threshold_dbm),
                repr(dec.sync_offset),
            ]
        lines.append(" ".join(fields))
    return lines


def test_keyed_and_replay_sessions_match_golden_digest():
    lines = session_lines(KEYED, 200, 1000) + session_lines(REPLAY, 20, 5000)
    assert len(lines) == 220
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


# sha256 over the ledger lines of every shape below
LEDGER_SHA256 = "e210192ffea9f860d9e81a93ec2db0706ab4b03d347b9164a43c7c0d68e9bbb6"

# anechoic sessions (3.75 uW harvested against a 10 uJ threshold) whose
# charge phase takes a different branch: (config lines, starting energy in J)
LEDGER_SHAPES = {
    "sequential": ("protocol.n_keys = 6", 0.0),
    "random": ("protocol.key_policy = random", 0.0),
    "replay": ("protocol.attacker = replay", 0.0),
    "above_threshold": ("protocol.n_keys = 64", 50e-6),
    "zero_efficiency": ("channel.efficiency_curve = -60:0;60:0", 0.0),
    "capacity_below_threshold": ("protocol.storage_capacity_j = 9e-6", 0.0),
    "max_time_below_dt": ("protocol.max_time_s = 5e-5", 0.0),
    "overflow": ("protocol.storage_capacity_j = 10.5e-6\nprotocol.dt_s = 1.0", 0.0),
    "near_empty": ("protocol.tx_cost_j_per_bit = 2.4e-7", 0.0),
}


def ledger_lines(text: str, stored_energy_j: float, sessions: int) -> list[str]:
    """One line per session: each event's name, time and stored energy, the
    energy trace, the three totals and the duration, all as repr; a session
    that finds the table empty records the energy it banked first."""
    lines = []
    text = "setup = anechoic\nseed = 3\n" + text
    for node, log in seeded_sessions(text, sessions, 700, stored_energy_j):
        if log is None:
            lines.append(f"exhausted {node.stored_energy_j!r}")
            continue
        fields = [f"{e.event}@{e.time_s!r}:{e.stored_energy_j!r}" for e in log.events]
        fields += [f"{t!r}:{e!r}" for t, e in log.energy_trace]
        totals = (log.total_harvested_j, log.total_tx_cost_j, log.backscatter_time_s)
        fields += [repr(v) for v in (*totals, log.duration_s)]
        lines.append(" ".join(fields))
    return lines


def test_energy_ledger_matches_golden_digest():
    lines = []
    for name, (text, stored) in LEDGER_SHAPES.items():
        lines += [f"{name} {line}" for line in ledger_lines(text, stored, 8)]
    assert len(lines) == 8 * len(LEDGER_SHAPES)
    assert any(line.startswith("sequential exhausted") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LEDGER_SHA256


# sha256 of (CSV, --trace-out file) of `wptsec run --preset <name>`
PRESET_SHA256 = {
    "anechoic": (
        "44b155df6c22b9515b4c5a6197a069f11023f123b2bdeb75bfb704c5ec175319",
        "76ba22288e553df72b2aca69eb4cd749a1ab0dd7957a4a502aaefdcad7b5672a",
    ),
    "wired": (
        "00c305a46457e27b3b2cadf046baca845f466b242e0922b6410aca56ccc194de",
        "a9d465428c6e5f82193eb84ba1c156ded130596271aa4e692182977ede3b76cc",
    ),
}
PRESET_STDERR = {
    "anechoic": "check no_errors: pass (all rows completed)\n"
    "check verdict_accepted: pass (all sessions accepted)\n",
    "wired": "check no_errors: pass (all rows completed)\n",
}


@pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
def test_preset_outputs_match_golden_digests(preset, tmp_path, capsys):
    csv_path, trace_path = tmp_path / "out.csv", tmp_path / "out.trace"
    argv = ["run", "--preset", preset, "--out", str(csv_path), "--trace-out", str(trace_path)]
    assert main(argv) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, trace_path))
    assert digests == PRESET_SHA256[preset]
    assert capsys.readouterr().err == PRESET_STDERR[preset]
