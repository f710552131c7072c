"""Shared fixtures."""

import pytest

from wptsec import channel, cli, monitor


@pytest.fixture
def clustering_calls(monkeypatch):
    """Traces handed to the 2-means clustering, measure_levels, counted
    wherever it is bound: in the monitor, whose decode_trace runs it, and in
    the CLI, whose probe rows run it."""
    calls = []
    levels = monitor.measure_levels

    def counting(trace):
        calls.append(trace)
        return levels(trace)

    for module in (monitor, cli):
        monkeypatch.setattr(module, "measure_levels", counting)
    return calls


def _recorded(fn, calls):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


@pytest.fixture
def budget_calls(monkeypatch):
    """Argument tuples of every harvested_dc and combine_noncoherent call
    that the channel makes, by function name."""
    calls = {}
    for name in ("harvested_dc", "combine_noncoherent"):
        calls[name] = []
        monkeypatch.setattr(channel, name, _recorded(getattr(channel, name), calls[name]))
    return calls
