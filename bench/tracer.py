"""Timing wrappers around the public functions of each wptsec layer.

The tracer rebinds every wrapped name in each ``wptsec`` module that holds
it (for example ``wptsec.protocol.authenticate`` and
``wptsec.cli.run_session``) and restores the originals on ``remove``. Spans
stay in memory as ``[name, start_ns, end_ns, parent, session]`` (parent is
an index into the span list, -1 for a root) until the caller writes them
out. Self time is a span's duration minus the durations
of its direct child spans, so the self times of one tree sum exactly to its
root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (layer, module, public name); a dotted name is a method on a class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("monitor", "wptsec.monitor", "decode_trace"),
    ("monitor", "wptsec.monitor", "estimate_threshold"),
    ("monitor", "wptsec.monitor", "measure_dynamic_range"),
    ("monitor", "wptsec.monitor", "recover_bits"),
    ("monitor", "wptsec.monitor", "decode_frame"),
    ("monitor", "wptsec.monitor", "verify"),
    ("monitor", "wptsec.monitor", "authenticate"),
    ("waveform", "wptsec.waveform", "synthesize_envelope"),
    ("waveform", "wptsec.waveform", "build_frame"),
    ("waveform", "wptsec.waveform", "frame_to_bits"),
    ("waveform", "wptsec.waveform", "write_trace"),
    ("protocol", "wptsec.protocol", "run_session"),
    ("protocol", "wptsec.protocol", "node_step"),
    ("protocol", "wptsec.protocol", "generate_table"),
    ("protocol", "wptsec.protocol", "fresh_session_scenario"),
    ("protocol", "wptsec.protocol", "PvkTable.copy"),
    ("protocol", "wptsec.protocol", "PvkTable.unused_indices"),
    ("protocol", "wptsec.protocol", "PvkTable.find"),
    ("protocol", "wptsec.protocol", "PvkTable.mark_used"),
    ("channel", "wptsec.channel", "harvested_dc"),
    ("channel", "wptsec.channel", "LinkScenario.node_input_dbm"),
    ("channel", "wptsec.channel", "LinkScenario.state_level_dbm"),
    ("channel", "wptsec.channel", "combine_noncoherent"),
    ("config", "wptsec.config", "load_config"),
    ("config", "wptsec.config", "build_scenario"),
    ("config", "wptsec.config", "build_tables"),
    ("config", "wptsec.config", "ScenarioConfig.with_override"),
    ("cli", "wptsec.cli", "main"),
    ("cli", "wptsec.cli", "run_experiment"),
    ("cli", "wptsec.cli", "format_csv"),
    ("cli", "wptsec.cli", "emit_trace"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# Root spans opened by the benchmark itself around set-up and each operation.
ROOT_PREFIX = "bench."
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "session")


def span_name(layer: str, name: str) -> str:
    return f"{layer}.{name}"


def metric_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", "_per_trace")):
        return "ratio"
    return "count"


def _count_decoded(counters, args, result) -> None:
    counters["monitor.decoded"] += result.status == "decoded"


def _count_scanned(counters, args, result) -> None:
    counters["protocol.unused_indices.entries_scanned"] += len(args[0].used)


def _count_samples(counters, args, result) -> None:
    counters["waveform.samples"] += len(result.samples)


# Counts taken at the same boundaries as the spans, from arguments or results.
HOOKS = {
    "monitor.decode_trace": _count_decoded,
    "protocol.PvkTable.unused_indices": _count_scanned,
    "waveform.synthesize_envelope": _count_samples,
}


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-layer
    calls and self time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.session = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.session]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        modules = [m for n, m in sys.modules.items() if n == "wptsec" or n.startswith("wptsec.")]
        for layer, module_name, qualname in TARGETS:
            name = span_name(layer, qualname)
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def remove(self) -> None:
        """Put every original back where it was rebound."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def root(self, name: str, session: int):
        """Benchmark-owned root span around set-up or one operation."""
        rec = [ROOT_PREFIX + name, 0, 0, -1, session]
        self.session = session
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            self.session = -1

    def summarize(self) -> dict:
        """Calls and self seconds per wrapped name and per layer, the
        derived counts, and the self-time consistency figures."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        root_ns = 0
        total_self_ns = 0
        min_self_ns = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_ns[i]
            min_self_ns = min(min_self_ns, own)
            total_self_ns += own
            if parent < 0:
                root_ns += end - start
            calls[name] += 1
            self_ns[name] += own

        metrics: dict[str, float] = {}
        for layer, _, qualname in TARGETS:
            name = span_name(layer, qualname)
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                self_ns[span_name(layer, q)] / 1e9 for lyr, _, q in TARGETS if lyr == layer
            )
        decodes = calls["monitor.decode_trace"]
        clusterings = calls["monitor.estimate_threshold"] + calls["monitor.measure_dynamic_range"]
        metrics["monitor.clusterings_per_trace"] = clusterings / decodes if decodes else 0.0
        metrics["monitor.decoded_ratio"] = (
            self.counters["monitor.decoded"] / decodes if decodes else 0.0
        )
        for key in ("protocol.unused_indices.entries_scanned", "waveform.samples"):
            metrics[key] = self.counters[key]
        return {
            "metrics": metrics,
            "units": {name: metric_unit(name) for name in metrics},
            "absent": list(self.absent),
            "min_self_ns": min_self_ns,
            "total_self_ns": total_self_ns,
            "root_ns": root_ns,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
