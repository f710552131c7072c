"""Shared fixtures."""

import pytest

from wptsec import cli, monitor


@pytest.fixture
def clustering_calls(monkeypatch):
    """Traces handed to the 2-means clustering, counted wherever it runs."""
    calls = []
    measure_levels = monitor.measure_levels

    def counting(trace):
        calls.append(trace)
        return measure_levels(trace)

    monkeypatch.setattr(monitor, "measure_levels", counting)
    monkeypatch.setattr(cli, "measure_levels", counting)
    return calls
