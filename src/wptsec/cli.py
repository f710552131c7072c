"""Experiment runner and command-line front end.

Each sweep point runs either a full keyed session (protocol enabled) or a
raw dynamic-range probe, and lands as one CSV row. Each row is computed
once: ``--trace-out`` writes the first row's own trace, the probe or
``SessionLog.trace`` that row was measured on, as soon as that row is
measured, and never renders it again. Built-in checks mirror the scenario's
expected behavior (DR spread bounds, accepted verdicts) and drive the exit
code: 0 all checks pass, 1 a check failed, 2 config/IO error.

A probe sweep of two or more points keeps one helper thread: while a point
renders and is measured, the helper draws the next point's noise head, the
first three quarters of its standard normals and at most ``AHEAD_SAMPLES``
(1 MiB), into an array this thread allocated. So a sweep holds two heads at
once, at most 2 MiB beyond a serial run. The helper runs only the
generator's ``standard_normal``, never a wptsec function; the render scales
the head, adds it and draws the rest of the noise from the same generator,
so every row and trace byte is that of a serial run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import LinkScenario, watts_to_dbm
from .config import (
    PRESET_SUMMARIES,
    PRESETS,
    ScenarioConfig,
    build_monitor,
    build_node,
    build_tables,
    load_config,
)
from .errors import EmptyTrace
from .monitor import measure_levels
from .protocol import Attacker, run_session
from .waveform import (
    NOISE_BLOCK,
    EnvelopeTrace,
    render_envelope,
    sample_rate,
    trace_length,
    write_trace,
)

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


# Cap on a probe point's noise head, the draws a helper thread makes for it
# while the point before it runs: 1 MiB, all that a render's peak grows by;
# a sweep holds two heads at once (see _noise_heads).
AHEAD_SAMPLES = 16 * NOISE_BLOCK


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
    diff = int.from_bytes(expected, "big") ^ int.from_bytes(got, "big")
    return diff.bit_count() / (8 * len(expected))


def _run_point(
    cfg: ScenarioConfig, link: LinkScenario, ahead=None
) -> tuple[dict, EnvelopeTrace | None]:
    """The measured cells of one point's row, run on ``link``, and the trace
    they were measured on: the alternating CMD probe, rendered with the
    noise head ``ahead`` when one was drawn (see render_envelope), when the
    protocol is off, otherwise the keyed session's own trace on freshly
    provisioned tables (None when the node never woke)."""
    if not cfg.protocol_enabled:
        bits = np.zeros(cfg.probe_bits, dtype=np.uint8)
        bits[::2] = 1
        rate_hz = sample_rate(cfg.bit_rate_hz, cfg.oversampling)
        trace = render_envelope(link, bits, cfg.bit_rate_hz, rate_hz, ahead=ahead)
        threshold_w, dr_db = measure_levels(trace)
        return dict(dr_db=dr_db, threshold_dbm=watts_to_dbm(threshold_w), status="ok"), trace
    node_table, monitor_table = build_tables(cfg)
    log = run_session(
        link,
        build_node(cfg, node_table),
        Attacker(kind=cfg.attacker),
        build_monitor(cfg, monitor_table),
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


def run_experiment(cfg: ScenarioConfig, trace_out=None) -> tuple[list[dict], Summary]:
    """Execute the configured sweep (or single point) and evaluate the
    scenario's built-in checks.

    Rows run the points ``cfg.points`` built, in ascending sweep value, so
    a config ``load_config`` refuses raises its ValidationError here; a
    point that fails at run time becomes an error row, never a crash. With
    ``trace_out``, the first row's own trace is written to that path as
    soon as the row is measured (see _write_first_trace); an ``OSError``
    while writing it propagates. A probe sweep draws each point's noise head
    one point ahead on a helper thread (see _noise_heads); a draw that
    raises is that point's error row.
    """
    rows, trace_failed = [], ()
    key = cfg.sweep_param
    points = sorted(cfg.points, key=lambda p: p[0].scalar(key)) if key else cfg.points
    seeds = [point_seed(cfg.seed, i) for i in range(len(points))]
    heads = _noise_heads(cfg, points, seeds)
    try:
        for i, (point_cfg, link) in enumerate(points):
            # not zipped with the points: zip would hold the last head while
            # the next is allocated
            head = next(heads)
            # the value the point runs with, so an int key's is an int
            value = point_cfg.scalar(key) if key else None
            row = dict.fromkeys(CSV_COLUMNS)
            row.update(sweep_param=key, sweep_value=value, seed=seeds[i])
            ahead = None
            try:
                ahead = head.result() if head else None
                cells, trace = _run_point(point_cfg, link.with_noise_seed(seeds[i]), ahead)
                row.update(cells)
            except Exception as exc:  # recorded, not raised: sweeps must finish
                row["status"] = f"error:{type(exc).__name__}"
                trace = exc
            if trace_out and not rows:
                trace_failed = _write_first_trace(trace, trace_out)
            del trace, ahead, head  # so none is held while the next point renders
            rows.append(row)
    finally:
        heads.close()  # joins the helper

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


def _noise_heads(cfg: ScenarioConfig, points, seeds):
    """Each point's noise head in turn: a future of what render_envelope
    takes as ``ahead``, or None. Only a probe sweep of two or more points
    has heads. There one helper thread draws point i + 1's head while point
    i renders and is measured, so two heads are held at once. Everything
    that reads a point's config or link, the head's allocation included,
    runs on the calling thread; the helper runs only ``_fill``."""
    if cfg.protocol_enabled or len(points) < 2:
        yield from [None] * len(points)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a probe sweep pays its import

    with ThreadPoolExecutor(1, thread_name_prefix="noise-ahead") as helper:
        queued = [_draw_head(helper, *points[0], seeds[0])]
        for point, seed in zip(points[1:], seeds[1:]):
            queued.append(_draw_head(helper, *point, seed))
            yield queued.pop(0)
        yield queued.pop()


def _draw_head(helper, cfg: ScenarioConfig, link: LinkScenario, seed: int):
    """Start drawing, on ``helper``, the noise head of the probe point that
    runs ``cfg`` on ``link`` with noise seed ``seed``: the first three
    quarters of its standard normals, at most AHEAD_SAMPLES. The calling
    thread draws the last quarter itself, which balances the two (per 10^5
    samples the draw is about 1.3 ms and the rest of a point 0.85 ms).
    None when the point draws no noise, or when building its head raised:
    then the point draws all of its noise itself, and raises what it raises
    there in its own row."""
    try:
        noise = link.with_noise_seed(seed).noise
        if noise.mean_power_w == 0.0:
            return None
        rate_hz = sample_rate(cfg.bit_rate_hz, cfg.oversampling)
        n = trace_length(cfg.probe_bits, cfg.bit_rate_hz, rate_hz)
        return helper.submit(_fill, np.empty(min(n - n // 4, AHEAD_SAMPLES)), noise.generator())
    except Exception:
        return None


def _fill(head: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.random.Generator]:
    """The helper's one task, a draw that cannot warn; its result is what
    render_envelope takes as ``ahead``."""
    rng.standard_normal(out=head)
    return head, rng


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
        if not (args.config or args.preset):
            print("error: a config path or --preset is required", file=sys.stderr)
            return 2
        source = Path(args.config) if args.config else f"setup={args.preset}"
        cfg = load_config(source, seed=args.seed)
        rows, summary = run_experiment(cfg, args.trace_out)
        csv_text = format_csv(rows)
        if args.out:
            Path(args.out).write_text(csv_text, encoding="ascii", newline="\n")
        else:
            sys.stdout.write(csv_text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line in summary.lines():
        print(line, file=sys.stderr)
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
