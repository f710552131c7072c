"""Shared fixtures."""

import pytest

from wptsec import channel, monitor


@pytest.fixture
def clustering_calls(monkeypatch):
    """Traces handed to the 2-means clustering, counted wherever it runs:
    measure_levels and decode_trace both cluster through monitor._levels."""
    calls = []
    levels = monitor._levels

    def counting(trace):
        calls.append(trace)
        return levels(trace)

    monkeypatch.setattr(monitor, "_levels", counting)
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
