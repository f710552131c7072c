"""Golden output: digests over seeded keyed sessions, pinned from a known-good
build, so any change to one decoded bit, level or sync offset, or to one
entry of the energy ledger, fails here."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wptsec
from wptsec.cli import main
from wptsec.config import build_monitor, build_node, build_scenario, build_tables, load_config
from wptsec.errors import TableExhausted
from wptsec.protocol import Attacker, fresh_session_scenario, run_session

# sha256 over the session lines of both runs below: the decode lines
# (verdicts, key index, payloads, sync offsets) and the level lines (the
# reprs of DR and threshold), which last digits of the clustering move
DECODE_SHA256 = "e41958c619dff62b64d52eb6a1a76963b1207e128d0e4dbb641ae68a2d5c4dc0"
LEVEL_SHA256 = "1fa7f3a914a5ea7a8fc868bd3fd95d6124a8ebc9501a7cad6ccd1daeb896c022"

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


def session_lines(text: str, sessions: int, noise_seed: int) -> tuple[list[str], list[str]]:
    """Two lines per session. A decode line: verdicts, emitted index, then
    per decision the payload hex and the sync offset. A level line: per
    decision the repr of DR and threshold."""
    decode_lines, level_lines = [], []
    for _, log in seeded_sessions(text, sessions, noise_seed):
        fields = [",".join(d.verdict for d in log.decisions), str(log.emitted_key_index)]
        levels = []
        for d in log.decisions:
            dec = d.decode
            fields += [(dec.payload or b"").hex(), repr(dec.sync_offset)]
            levels += [repr(dec.measured_dr_db), repr(dec.threshold_dbm)]
        decode_lines.append(" ".join(fields))
        level_lines.append(" ".join(levels))
    return decode_lines, level_lines


@functools.cache
def golden_session_digests() -> tuple[str, str]:
    """sha256 of the decode lines and of the level lines of both runs."""
    keyed, replay = session_lines(KEYED, 200, 1000), session_lines(REPLAY, 20, 5000)
    digests = []
    for lines in (keyed[0] + replay[0], keyed[1] + replay[1]):
        assert len(lines) == 220
        digests.append(hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return tuple(digests)


def test_keyed_and_replay_sessions_match_golden_digest():
    assert golden_session_digests() == (DECODE_SHA256, LEVEL_SHA256)


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
        "aeedd272a3d6445bf61342920d3d47059ec48af7613d428785f4d8a626212248",
    ),
    "wired": (
        "00c305a46457e27b3b2cadf046baca845f466b242e0922b6410aca56ccc194de",
        "f3a01c1350bee89a820ced4a917d1c55baf0f5580432516ebcdc0150875df4a1",
    ),
}
PRESET_STDERR = {
    "anechoic": "check no_errors: pass (all rows completed)\n"
    "check verdict_accepted: pass (all sessions accepted)\n",
    "wired": "check no_errors: pass (all rows completed)\n",
}


def preset_digests(preset: str, out_dir: Path) -> list[str]:
    """sha256 of the CSV and of the --trace-out file of
    `wptsec run --preset <preset>`."""
    csv_path, trace_path = out_dir / f"{preset}.csv", out_dir / f"{preset}.trace"
    argv = ["run", "--preset", preset, "--out", str(csv_path), "--trace-out", str(trace_path)]
    assert main(argv) == 0
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, trace_path)]


@pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
def test_preset_outputs_match_golden_digests(preset, tmp_path, capsys):
    assert tuple(preset_digests(preset, tmp_path)) == PRESET_SHA256[preset]
    assert capsys.readouterr().err == PRESET_STDERR[preset]


def active_dispatch_targets() -> list[str]:
    """The SIMD targets numpy dispatches to in this process."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


# numpy's AVX-512 dispatch targets, by numpy 2's names and numpy 1's; a
# name this numpy does not dispatch to is ignored with an ImportWarning
AVX512_TARGETS = (
    "X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512CD AVX512_KNL AVX512_KNM AVX512_SKX "
    "AVX512_CLX AVX512_CNL"
).split()

SIMD_RUN = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_golden as g
with tempfile.TemporaryDirectory() as out:
    presets = [g.preset_digests(p, Path(out)) for p in sorted(g.PRESET_SHA256)]
print(json.dumps([g.active_dispatch_targets(), g.golden_session_digests(), presets]))
"""


def test_outputs_do_not_depend_on_simd_dispatch(tmp_path):
    # the session lines and both presets' CSVs and trace files are the same
    # with numpy's AVX-512 kernels switched off: they are computed from the
    # render's watts (noise draw, adds, multiplies, maxima, compares,
    # cluster sums) and Python's scalar math, and a trace file spells those
    # watts with orjson's integer-only shortest formatter
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    src = str(Path(wptsec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SIMD_RUN, str(Path(__file__).parent)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    targets, sessions, presets = json.loads(run.stdout)
    assert not set(targets) & set(AVX512_TARGETS)
    assert tuple(sessions) == golden_session_digests()
    assert presets == [preset_digests(p, tmp_path) for p in sorted(PRESET_SHA256)]
