"""wptsec benchmark: three workloads, end-to-end figures and per-layer self time.

Usage (from the repository root):

    python3 bench/run.py --workload keyed_sessions --seed 1 --seconds 30 --trace 0

Each run is a closed loop with a single client and no threads: it starts one
fresh worker process at a time (``worker.py``), each set up from scratch
and running a fixed batch of operations, until ``--seconds`` have passed.
Inputs come only from ``--seed``: this script turns it into config text and
noise seeds, and the worker hands only those to wptsec.

Workloads (why each was chosen):

* ``keyed_sessions`` -- anechoic preset, honest node, sequential 2-byte keys,
  a fresh noise seed per session (the criterion-1 shape); the table holds one
  key per session of the batch. Traces are 640 samples, so per-call overhead
  in ``monitor`` and ``waveform`` dominates and the table work is O(1).
* ``replay_random_keys`` -- anechoic preset, 100k-entry table of 4-byte keys,
  ``random`` key policy and a replay attacker. ``PvkTable.unused_indices``
  scans the whole table on every emission, ``verify`` writes beside its
  reads, the same trace is decoded twice, and set-up builds the big table.
* ``dr_sweep_cli`` -- in-process ``wptsec run <config> --out --trace-out``
  on an anechoic, protocol-free power sweep with a 10^5-sample probe per
  point. Per-sample numpy work dominates; no session, decode or table code
  runs. The only workload that exercises ``config``, ``cli`` and trace files.

End-to-end metrics (``--trace 0``; one operation is one ``run_session`` call
on the session workloads and one ``cli.main`` call on ``dr_sweep_cli``):

* ``items_per_s`` -- sessions per second of ``run_session`` time, or sweep
  points per second of ``cli.main`` time; median over batches.
* ``call_p50_ms`` -- median time of one operation.
* ``call_tail_ms`` -- the operations, in run order, are cut into blocks of
  ``TAIL_BLOCK``; in each, the highest percentile with at least ten samples
  beyond it; median over blocks.
* ``setup_s`` -- per fresh process: import wptsec, load the config text,
  provision the key tables; median over batches.
* ``peak_rss_mb`` -- peak resident memory of a worker; median over batches.

Timings are scaled to the speed of an idle machine. On a small shared
machine the same code ran anywhere from 1.8k to 3.6k sessions/s in
back-to-back 30-s runs, because neighbours slow the CPU for seconds at a
time. So a fixed calibration kernel shaped like the workload is timed
just before each small group of operations, and every operation time
is multiplied by the kernel's reference time over its measured time. Set-up
time is scaled the same way by a kernel timed right after set-up. The
unscaled figures are in the report line.

``--trace 1`` runs each batch twice, untraced and then traced with the same
inputs, and reports per-layer calls and self time per traced batch, the
derived counts and the tracing overhead (traced / untraced ``items_per_s``).
Traced and untraced output digests must agree.

The last stdout line is the JSON result; the line before it (``report ...``)
holds the environment stamp, sample counts, unscaled figures, output
digests (not gated) and the failed ratio (also given by ``failed`` over
``attempted``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170
TAIL_BLOCK = 100


def _keyed_config(seed: int, tiny: bool) -> tuple[str, int]:
    sessions = 40 if tiny else 2000
    text = (
        "setup = anechoic\n"
        f"seed = {seed}\n"
        f"protocol.n_keys = {sessions}\n"
        "protocol.key_len_bytes = 2\n"
        "protocol.key_policy = sequential\n"
        "protocol.attacker = none\n"
    )
    return text, sessions


def _replay_config(seed: int, tiny: bool) -> tuple[str, int]:
    # 4-byte keys: a 100k table does not fit the 65,536-code 2-byte space
    n_keys, sessions = (2000, 10) if tiny else (100_000, 150)
    text = (
        "setup = anechoic\n"
        f"seed = {seed}\n"
        f"protocol.n_keys = {n_keys}\n"
        "protocol.key_len_bytes = 4\n"
        "protocol.key_policy = random\n"
        "protocol.attacker = replay\n"
    )
    return text, sessions


def _sweep_config(seed: int, tiny: bool) -> tuple[str, int]:
    n_points, probe_bits, calls = (4, 64, 2) if tiny else (48, 6250, 6)
    rng = random.Random(seed)
    inner = {round(rng.uniform(-15.0, 24.0), 2) for _ in range(n_points - 2)}
    while len(inner) < n_points - 2:
        inner.add(round(rng.uniform(-15.0, 24.0), 2))
    values = ",".join(repr(v) for v in sorted({-15.0, 24.0} | inner))
    text = (
        "setup = anechoic\n"
        f"seed = {seed}\n"
        "protocol.enabled = false\n"
        f"waveform.probe_bits = {probe_bits}\n"
        "sweep.param = channel.p_tx_dbm\n"
        f"sweep.values = {values}\n"
    )
    return text, calls


# Calibration kernel (worker.calibrate) timed before each group of `group`
# operations: trace-shaped sample count, repetitions, table-shaped scan
# length (replay_random_keys spends most of its time scanning the table), and
# its time in seconds on an idle 2-core Xeon VM (Python 3.11, numpy 2.4), the
# speed all timings are scaled to. Set-up is scaled by the small-trace
# kernel, timed right after it.
SMALL_TRACES = {"samples": 640, "reps": 10, "scan": 0, "ref_s": 1.4e-3}
WORKLOADS = {
    "keyed_sessions": (_keyed_config, dict(SMALL_TRACES, group=20)),
    "replay_random_keys": (
        _replay_config,
        {"samples": 640, "reps": 10, "scan": 100_000, "ref_s": 4.8e-3, "group": 2},
    ),
    "dr_sweep_cli": (
        _sweep_config,
        {"samples": 100_000, "reps": 8, "scan": 0, "ref_s": 0.085, "group": 1},
    ),
}


def make_job(workload: str, seed: int, batch: int, tiny: bool, trace: bool) -> dict:
    """Inputs of one batch, derived only from the workload seed and the
    batch index."""
    rng = random.Random(f"{workload}:{seed}:{batch}")
    cfg_seed = rng.randrange(2**31)
    make_config, calibration = WORKLOADS[workload]
    text, ops = make_config(cfg_seed, tiny)
    out_dir = OUT_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.txt"
    config_path.write_text(text, encoding="ascii")
    return {
        "root": str(ROOT),
        "workload": workload,
        "config": text,
        "config_path": str(config_path),
        "noise_seed": rng.randrange(2**40),
        "ops": ops,
        "calibration": calibration,
        "setup_calibration": SMALL_TRACES,
        "trace": trace,
        "out_dir": str(out_dir),
    }


def run_worker(job: dict, timeout_s: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=json.dumps(job),
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        timeout=timeout_s,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def tail(samples: list[float]) -> tuple[float, float]:
    """Tail latency and its percentile.

    The calls, in run order, are split into blocks of about TAIL_BLOCK (one
    block when there are fewer); in each block the tail is the
    highest-percentile sample with at least ten samples beyond it (the
    maximum below eleven samples). The result is the median over blocks."""
    n, k = len(samples), max(1, len(samples) // TAIL_BLOCK)
    blocks = [sorted(samples[i * n // k : (i + 1) * n // k]) for i in range(k)]
    n = len(blocks[0])
    if n < 11:
        return statistics.median(b[-1] for b in blocks), 100.0
    return statistics.median(b[len(b) - 11] for b in blocks), 100.0 * (n - 10) / n


def speed(result: dict, calibration: dict) -> list[float]:
    """Machine speed before each operation's group, as the calibration
    kernel's reference time over its measured time (1.0 = idle machine)."""
    group, ref_s = calibration["group"], calibration["ref_s"]
    return [ref_s / result["calib_s"][i // group] for i in range(len(result["times"]))]


def scaled_times(result: dict, calibration: dict) -> list[float]:
    return [t * f for t, f in zip(result["times"], speed(result, calibration))]


def rate(result: dict, calibration: dict) -> float:
    return sum(result["items"]) / sum(scaled_times(result, calibration))


def end_to_end(results: list[dict], calibration: dict) -> tuple[dict, dict]:
    times = [t for r in results for t in scaled_times(r, calibration)]
    tail_s, tail_pct = tail(times)
    setups = [r["setup_s"] * SMALL_TRACES["ref_s"] / r["setup_calib_s"] for r in results]
    metrics = {
        "items_per_s": (statistics.median(rate(r, calibration) for r in results), "1/s"),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
    }
    raw_times = [t for r in results for t in r["times"]]
    samples = {
        "items_per_s": {
            "n_batches": len(results),
            "n_items": sum(sum(r["items"]) for r in results),
        },
        "call_p50_ms": {"n_calls": len(times)},
        "call_tail_ms": {
            "n_calls": len(times),
            "n_blocks": max(1, len(times) // TAIL_BLOCK),
            "percentile": tail_pct,
        },
        "setup_s": {"n_processes": len(results)},
        "peak_rss_mb": {"n_processes": len(results)},
        "unscaled": {
            "items_per_s": statistics.median(
                sum(r["items"]) / sum(r["times"]) for r in results
            ),
            "call_p50_ms": statistics.median(raw_times) * 1e3,
            "call_tail_ms": tail(raw_times)[0] * 1e3,
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "speed": statistics.median(f for r in results for f in speed(r, calibration)),
        },
    }
    return metrics, samples


def per_layer(plain: list[dict], traced: list[dict], calibration: dict) -> tuple[dict, dict]:
    metrics = {}
    for name, unit in traced[0]["trace"]["units"].items():
        values = [r["trace"]["metrics"][name] for r in traced]
        # counts are exact and equal across batches; median_low keeps them whole
        value = statistics.median_low(values) if unit == "count" else statistics.median(values)
        metrics[name] = (value, unit)
    overhead = statistics.median(rate(r, calibration) for r in traced) / statistics.median(
        rate(r, calibration) for r in plain
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    samples = {"n_traced_batches": len(traced), "ops_per_batch": len(traced[0]["times"])}
    return metrics, samples


def trace_consistent(plain: list[dict], traced: list[dict]) -> list[str]:
    """Problems that make a traced run untrustworthy: wrappers changed the
    output, or self times do not add up to the root spans."""
    problems = []
    for i, (p, t) in enumerate(zip(plain, traced)):
        if p["digests"] != t["digests"]:
            problems.append(f"batch {i}: traced digests differ from untraced")
        summary = t["trace"]
        if summary["min_self_ns"] < 0:
            problems.append(f"batch {i}: negative self time")
        if summary["total_self_ns"] != summary["root_ns"]:
            problems.append(f"batch {i}: self times do not sum to the root spans")
    return problems


def environment(results: list[dict]) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": results[0]["python"],
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wptsec" / "__init__.py").is_file():
        print(f"error: no wptsec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT_DIR / args.workload, ignore_errors=True)

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    deadline, limit = start + args.seconds, start + RUN_LIMIT_S
    try:
        modes = [(False, plain), (True, traced)] if args.trace else [(False, plain)]
        while not plain or time.monotonic() < deadline:
            batch = len(plain)
            for trace, results in modes:
                job = make_job(args.workload, args.seed, batch, args.tiny, trace)
                results.append(run_worker(job, limit - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    calibration = WORKLOADS[args.workload][1]
    if args.trace:
        metrics, samples = per_layer(plain, traced, calibration)
        problems = trace_consistent(plain, traced)
    else:
        metrics, samples = end_to_end(plain, calibration)
        problems = []
    results = plain + traced
    attempted = sum(len(r["times"]) for r in results)
    failed = sum(r["failed"] for r in results)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(results),
        "samples": samples,
        "failed_ratio": failed / attempted,
        "digests": plain[0]["digests"],
        "problems": problems,
    }
    if args.trace:
        report["absent"] = traced[0]["trace"]["absent"]
        report["traced_digests"] = traced[0]["digests"]
        report["self_check"] = {
            k: traced[0]["trace"][k] for k in ("min_self_ns", "total_self_ns", "root_ns")
        }
    print("report " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
