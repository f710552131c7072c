"""Experiment runner and command-line front end.

Each sweep point runs either a full keyed session (protocol enabled) or a
raw dynamic-range probe, and lands as one CSV row. Each row is computed
once: ``--trace-out`` writes the first row's own trace, the probe or
``SessionLog.trace`` that row was measured on, as soon as that row is
measured, and never renders it again. Built-in checks mirror the scenario's
expected behavior (DR spread bounds, accepted verdicts) and drive the exit
code: 0 all checks pass, 1 a check failed, 2 config/IO error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    PRESET_SUMMARIES,
    PRESETS,
    ScenarioConfig,
    build_point,
    build_tables,
    load_config,
    load_preset,
    validated,
)
from .errors import EmptyTrace, ParseError, ValidationError
from .monitor import measure_levels
from .protocol import Attacker, run_session
from .waveform import EnvelopeTrace, render_envelope, write_trace

CSV_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "dr_db",
    "threshold_dbm",
    "verdict",
    "ber",
    "stored_energy_j",
    "status",
    "seed",
)

# splitmix64 increment keeps per-point noise seeds distinct and reproducible
_SEED_STRIDE = 0x9E3779B97F4A7C15


def point_seed(base_seed: int, index: int) -> int:
    return (base_seed + _SEED_STRIDE * (index + 1)) % 2**64


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Summary:
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"check {c.name}: {'pass' if c.passed else 'FAIL'} ({c.detail})"
            for c in self.checks
        ]


def _payload_ber(expected: bytes | None, got: bytes | None) -> float | None:
    if expected is None or got is None:
        return None
    if len(got) != len(expected):
        return 1.0
    diff = np.bitwise_xor(
        np.frombuffer(expected, dtype=np.uint8), np.frombuffer(got, dtype=np.uint8)
    )
    return float(np.unpackbits(diff).sum() / (8 * len(expected)))


def _run_point(cfg: ScenarioConfig, seed: int) -> tuple[dict, EnvelopeTrace | None]:
    """The measured cells of one point's row, and the trace they were
    measured on: the alternating CMD probe when the protocol is off,
    otherwise the keyed session's own trace on freshly provisioned tables
    (None when the node never woke)."""
    tables = build_tables(cfg) if cfg.protocol_enabled else None
    scenario, monitor, node = build_point(cfg, seed, tables)
    if node is None:
        bits = np.zeros(cfg.probe_bits, dtype=np.uint8)
        bits[::2] = 1
        trace = render_envelope(scenario, bits, cfg.bit_rate_hz, monitor.sample_rate_hz)
        threshold_dbm, dr_db = measure_levels(trace)
        return dict(dr_db=dr_db, threshold_dbm=threshold_dbm, status="ok"), trace
    log = run_session(
        scenario,
        node,
        Attacker(kind=cfg.attacker),
        monitor,
        dt_s=cfg.dt_s,
        max_time_s=cfg.max_time_s,
        key_policy=cfg.key_policy,
    )
    final = log.final.record()
    cells = dict(
        dr_db=final["measured_dr_db"],
        threshold_dbm=final["threshold_dbm"],
        verdict=final["verdict"],
        ber=_payload_ber(log.emitted_code, log.final.decode.payload),
        stored_energy_j=log.events[-1].stored_energy_j,  # at session_end
        status=final["status"],
    )
    return cells, log.trace


def _points(cfg: ScenarioConfig):
    """(point config, sweep value, seed) of each row, in row order: one per
    sweep value in ascending order, or the config itself with value None.
    The value is the one the point runs with, so an int key's is an int."""
    if cfg.sweep_param is None:
        yield cfg, None, point_seed(cfg.seed, 0)
        return
    for i, value in enumerate(sorted(cfg.sweep_values)):
        point_cfg = cfg.with_override(cfg.sweep_param, value)
        yield point_cfg, point_cfg.scalar(cfg.sweep_param), point_seed(cfg.seed, i)


def run_experiment(cfg: ScenarioConfig, trace_out=None) -> tuple[list[dict], Summary]:
    """Execute the configured sweep (or single point) and evaluate the
    scenario's built-in checks.

    A failing sweep point becomes a row with an error status, never a crash;
    rows are ordered by sweep value. With ``trace_out``, the first row's own
    trace is written to that path as soon as the row is measured (see
    _write_first_trace); an ``OSError`` while writing it propagates.
    """
    rows, trace_failed = [], ()
    for point_cfg, value, seed in _points(cfg):
        row = dict.fromkeys(CSV_COLUMNS)
        row.update(sweep_param=cfg.sweep_param, sweep_value=value, seed=seed)
        try:
            cells, trace = _run_point(point_cfg, seed)
            row.update(cells)
        except Exception as exc:  # recorded, not raised: sweeps must finish
            row["status"] = f"error:{type(exc).__name__}"
            trace = exc
        if trace_out and not rows:
            trace_failed = _write_first_trace(trace, trace_out)
        rows.append(row)

    checks = [_check_no_errors(rows)]
    if cfg.sweep_param == "channel.p_tx_dbm":
        checks.append(_check_dr_spread(rows, 1.5, "dr_spread_le_1.5db"))
    if cfg.sweep_param == "waveform.bit_rate_hz":
        checks.append(_check_dr_spread(rows, 0.1, "dr_spread_le_0.1db"))
    if cfg.protocol_enabled:
        # with a replay attacker the session's last verdict is the replayed
        # presentation, so the built-in check asserts the defense held
        if cfg.attacker == "replay":
            checks.append(_check_verdicts(rows, "rejected_replay", "replay_rejected"))
        else:
            checks.append(_check_verdicts(rows, "accepted", "verdict_accepted"))
    return rows, Summary(checks=tuple(checks) + trace_failed)


def _write_first_trace(trace: EnvelopeTrace | Exception | None, path) -> tuple[Check, ...]:
    """Write the first row's trace to ``path``. ``trace`` is None when the
    node never woke and the exception when the point raised; then, or when
    the file format cannot hold the trace, nothing is written and the
    result is the failed ``trace_out`` check that says why."""
    if trace is None:
        trace = EmptyTrace("the node never woke, so it sent no frame")
    elif isinstance(trace, EnvelopeTrace):
        try:
            write_trace(trace, path)
            return ()
        except ValueError as exc:  # a non-integral sample rate
            trace = exc
    detail = f"not written: {type(trace).__name__}: {trace}"
    return (Check(name="trace_out", passed=False, detail=detail),)


def _check_no_errors(rows: list[dict]) -> Check:
    errors = [r["status"] for r in rows if str(r["status"]).startswith("error:")]
    return Check(
        name="no_errors",
        passed=not errors,
        detail="all rows completed" if not errors else f"{len(errors)} failed: {errors[:3]}",
    )


def _check_dr_spread(rows: list[dict], limit_db: float, name: str) -> Check:
    drs = [r["dr_db"] for r in rows if r["dr_db"] is not None]
    if not drs:
        return Check(name=name, passed=False, detail="no dynamic-range values")
    spread = max(drs) - min(drs)
    return Check(
        name=name,
        passed=spread <= limit_db,
        detail=f"spread {spread:.4f} dB over {len(drs)} points, limit {limit_db} dB",
    )


def _check_verdicts(rows: list[dict], want: str, name: str) -> Check:
    verdicts = [r["verdict"] for r in rows]
    ok = all(v == want for v in verdicts)
    return Check(
        name=name,
        passed=ok,
        detail=f"all sessions {want}" if ok else f"verdicts: {verdicts}",
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_cell(row[c]) for c in CSV_COLUMNS) for row in rows)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wptsec",
        description="Backscatter-keyed authentication simulator for wireless power links",
    )
    parser.add_argument("--list-presets", action="store_true", help="list presets and exit")
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", nargs="?", help="config file path")
    run_parser.add_argument("--preset", choices=sorted(PRESETS), help="run a preset instead")
    run_parser.add_argument("--out", help="CSV output path (default: stdout)")
    run_parser.add_argument("--trace-out", help="also write the first row's envelope trace")
    run_parser.add_argument("--seed", type=int, help="override the config seed (>= 0)")
    args = parser.parse_args(argv)

    if args.list_presets:
        for name in sorted(PRESETS):
            print(f"{name}: {PRESET_SUMMARIES[name]}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.config and args.preset:
            print("error: give either a config path or --preset, not both", file=sys.stderr)
            return 2
        if args.config:
            cfg = load_config(Path(args.config))
        elif args.preset:
            cfg = load_preset(args.preset)
        else:
            print("error: a config path or --preset is required", file=sys.stderr)
            return 2
        if args.seed is not None:
            cfg = validated(dataclasses.replace(cfg, seed=args.seed))
        rows, summary = run_experiment(cfg, args.trace_out)
        csv_text = format_csv(rows)
        if args.out:
            Path(args.out).write_text(csv_text, encoding="ascii", newline="\n")
        else:
            sys.stdout.write(csv_text)
    except (ParseError, ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line in summary.lines():
        print(line, file=sys.stderr)
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
