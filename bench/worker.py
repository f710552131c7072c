"""One benchmark batch in a fresh process.

Reads a job (JSON on stdin) that holds the generated config text and seeds,
sets the workload up, runs a fixed batch of operations through the public
wptsec API and prints one JSON result on stdout: set-up time, the wall time
of every operation, the calibration time before each group of operations,
semantic-gate failures, peak RSS, output digests and, for a traced batch,
the per-layer summary. Run by ``run.py``; not meant to
be started by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer


def calibrate(n_samples: int, reps: int, scan: int = 0) -> float:
    """Seconds to run a fixed numpy and Python kernel shaped like the
    workload: ``reps`` rounds of random trace samples, dB conversion and
    2-means steps, then one pass over a ``scan``-entry list of flags like a
    key table's.

    It runs just before each group of operations; the machine's speed at
    that moment is its reference time over this figure."""
    import numpy as np  # not at module level: set-up time includes numpy's import

    flags = [i % 2 == 0 for i in range(scan)]
    t0 = time.perf_counter()
    for i in range(reps):
        x = np.random.default_rng(i).normal(0.0, 1.0, n_samples)
        lin = 10.0 ** (x / 10.0)
        lo, hi = float(lin.min()), float(lin.max())
        for _ in range(8):
            low = lin <= 0.5 * (lo + hi)
            lo, hi = float(lin[low].mean()), float(lin[~low].mean())
    [i for i, used in enumerate(flags) if not used]
    return time.perf_counter() - t0


def _groups(job, calib_s: list[float]):
    """Yield the operation indices group by group, timing the calibration
    kernel into ``calib_s`` before each group."""
    cal = job["calibration"]
    for start in range(0, job["ops"], cal["group"]):
        calib_s.append(calibrate(cal["samples"], cal["reps"], cal["scan"]))
        yield range(start, min(start + cal["group"], job["ops"]))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _import_wptsec(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import wptsec
    import wptsec.cli

    if not Path(wptsec.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"wptsec imported from {wptsec.__file__}, not from {src}")
    return wptsec


def _run_sessions(wptsec, job, cfg, parts, tracer, calib_s):
    """Closed loop of keyed sessions, each with a fresh noise seed."""
    protocol = wptsec.protocol
    scenario, node, monitor = parts
    replay = job["workload"] == "replay_random_keys"

    times, failed, lines, seen = [], 0, [], set()
    clock = time.perf_counter
    for group in _groups(job, calib_s):
        for i in group:
            root = tracer.root("op", i) if tracer else contextlib.nullcontext()
            with root:
                t0 = clock()
                log = protocol.run_session(
                    protocol.fresh_session_scenario(scenario, job["noise_seed"] + i),
                    node,
                    protocol.Attacker(kind=cfg.attacker),
                    monitor,
                    dt_s=cfg.dt_s,
                    max_time_s=cfg.max_time_s,
                    key_policy=cfg.key_policy,
                )
                times.append(clock() - t0)
            verdicts = [d.verdict for d in log.decisions]
            if replay:
                ok = verdicts == ["accepted", "rejected_replay"]
                ok = ok and log.emitted_key_index not in seen
                seen.add(log.emitted_key_index)
            else:
                ok = all(v == "accepted" for v in verdicts)
                ok = ok and log.final.decode.payload == log.emitted_code
            failed += not ok
            decode = log.decisions[0].decode
            lines.append(
                f"{i} {','.join(verdicts)} {log.emitted_key_index} "
                f"{(decode.payload or b'').hex()} {decode.measured_dr_db!r} "
                f"{decode.threshold_dbm!r}"
            )
    digests = {"verdicts": _digest("\n".join(lines).encode())}
    return times, [1] * len(times), failed, digests


def _sweep_rows_ok(rc: int, csv_text: str, n_points: int) -> bool:
    """Exit code 0, one row per point, status ok and a finite dr_db on each."""
    lines = csv_text.splitlines()
    if rc != 0 or len(lines) != n_points + 1:
        return False
    header = lines[0].split(",")
    status, dr = header.index("status"), header.index("dr_db")
    for line in lines[1:]:
        cells = line.split(",")
        if cells[status] != "ok" or not cells[dr] or not math.isfinite(float(cells[dr])):
            return False
    return True


def _run_sweep_cli(wptsec, job, cfg, parts, tracer, calib_s):
    """Repeated in-process ``wptsec run <config> --out --trace-out`` calls."""
    out = Path(job["out_dir"])
    csv_path, trace_path = out / "sweep.csv", out / "trace.txt"
    argv = ["run", job["config_path"], "--out", str(csv_path), "--trace-out", str(trace_path)]
    n_points = len(cfg.sweep_values)

    times, failed, digests = [], 0, {}
    clock = time.perf_counter
    for group in _groups(job, calib_s):
        for i in group:
            root = tracer.root("op", i) if tracer else contextlib.nullcontext()
            with root, contextlib.redirect_stderr(io.StringIO()):
                t0 = clock()
                rc = wptsec.cli.main(argv)
                times.append(clock() - t0)
            csv_bytes = csv_path.read_bytes()
            failed += not _sweep_rows_ok(rc, csv_bytes.decode("ascii"), n_points)
            if i == 0:
                digests = {"csv": _digest(csv_bytes), "trace": _digest(trace_path.read_bytes())}
    return times, [n_points] * len(times), failed, digests


RUNNERS = {
    "keyed_sessions": _run_sessions,
    "replay_random_keys": _run_sessions,
    "dr_sweep_cli": _run_sweep_cli,
}


def main() -> None:
    job = json.load(sys.stdin)
    root = Path(job["root"])
    runner = RUNNERS[job["workload"]]

    t_setup = time.perf_counter()
    wptsec = _import_wptsec(root)
    tracer = Tracer() if job["trace"] else None
    setup_root = contextlib.nullcontext()
    if tracer:
        tracer.install()
        setup_root = tracer.root("setup", -1)
    config = wptsec.config
    with setup_root:
        cfg = config.load_config(job["config"])
        parts = None
        if cfg.protocol_enabled:
            node_table, monitor_table = config.build_tables(cfg)
            parts = (
                config.build_scenario(cfg),
                config.build_node(cfg, node_table),
                config.build_monitor(cfg, monitor_table),
            )
    setup_s = time.perf_counter() - t_setup
    cal = job["setup_calibration"]
    calibrate(cal["samples"], 1)  # keeps first-call costs out of the figures
    setup_calib_s = calibrate(cal["samples"], cal["reps"])
    calibrate(job["calibration"]["samples"], 1)

    calib_s: list[float] = []
    times, items, failed, digests = runner(wptsec, job, cfg, parts, tracer, calib_s)

    result = {
        "setup_s": setup_s,
        "setup_calib_s": setup_calib_s,
        "times": times,
        "items": items,
        "failed": failed,
        "calib_s": calib_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "trace": None,
    }
    if tracer:
        tracer.remove()
        result["trace"] = tracer.summarize()
        tracer.write_spans(Path(job["out_dir"]) / "spans.jsonl")
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
