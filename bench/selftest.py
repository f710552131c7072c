"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced on two seeds and checks that:
every metric in BENCHMARK.json is printed with its unit; the semantic gates
pass on both seeds; the traced run's digests equal the untraced run's, so the
wrappers change no behaviour; self times are non-negative and sum to the root
spans; the traced keyed workload clusters three times per trace and the sweep
never decodes or verifies. It also checks that the tracer restores every
original, reports a missing name as absent, and that the benchmark fails
without printing a result when the wptsec sources are missing. Exits 1 on
any failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = (1, 2)


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv, "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_runs(spec: dict, failures: list[str]) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                where = f"{workload} seed={seed} trace={trace}"
                proc = run_bench(ROOT, workload, seed, trace)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(lines[-1])
                report = json.loads(lines[-2].removeprefix("report "))
                metrics = result["metrics"]
                units = {name: m["unit"] for name, m in metrics.items()}
                if units != expected[trace]:
                    failures.append(f"{where}: metrics or units differ from BENCHMARK.json")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    counts = f"{result['failed']}/{result['attempted']} failed"
                    failures.append(f"{where}: gates: {counts}, {report['problems']}")
                if trace:
                    check_traced(where, workload, report, metrics, failures)


def check_traced(
    where: str, workload: str, report: dict, metrics: dict, failures: list[str]
) -> None:
    if report["traced_digests"] != report["digests"]:
        failures.append(f"{where}: traced digests differ from untraced")
    self_check = report["self_check"]
    if self_check["min_self_ns"] < 0:
        failures.append(f"{where}: negative self time")
    if self_check["total_self_ns"] != self_check["root_ns"]:
        failures.append(f"{where}: self times do not sum to the root spans")
    if report["absent"]:
        failures.append(f"{where}: absent names {report['absent']}")
    if workload == "keyed_sessions" and metrics["monitor.clusterings_per_trace"]["value"] != 3.0:
        failures.append(f"{where}: clusterings_per_trace is not 3.0")
    if workload == "dr_sweep_cli":
        for name in ("monitor.recover_bits.calls", "monitor.verify.calls"):
            if metrics[name]["value"] != 0:
                failures.append(f"{where}: {name} is not 0")


def check_tracer_restores(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import wptsec.cli

    modules = [m for n, m in sys.modules.items() if n == "wptsec" or n.startswith("wptsec.")]
    classes = [wptsec.protocol.PvkTable, wptsec.channel.LinkScenario, wptsec.config.ScenarioConfig]
    owners = modules + classes
    before = [dict(vars(owner)) for owner in owners]

    targets = tracer.TARGETS
    tracer.TARGETS = targets + (("monitor", "wptsec.monitor", "no_such_function"),)
    try:
        t = tracer.Tracer()
        t.install()
        if not hasattr(wptsec.cli.run_session, "__wrapped__"):
            failures.append("tracer did not rebind wptsec.cli.run_session")
        if t.absent != ["monitor.no_such_function"]:
            failures.append(f"tracer absent list is {t.absent}")
        t.remove()
        metrics = t.summarize()["metrics"]
        if metrics.get("monitor.no_such_function.calls") != 0:
            failures.append("absent name is not reported with zero calls")
    finally:
        tracer.TARGETS = targets
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        changed = [k for k in old if new.get(k) is not old[k]]
        if changed:
            failures.append(f"tracer left {owner.__name__}.{changed} rebound")


def check_bare_directory(failures: list[str]) -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail, no result."""
    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "keyed_sessions", 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_runs(spec, failures)
    check_tracer_restores(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
