"""Shared isolation for the telemetry tests: every test starts with
span recording off, no inherited REPRO_TELEMETRY_DIR, and an empty
host metrics registry."""

import os

import pytest

from repro.telemetry.hostmetrics import reset_host_metrics
from repro.telemetry.spans import ENV_DIR, ENV_SERVICE, reset


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    monkeypatch.delenv(ENV_DIR, raising=False)
    monkeypatch.delenv(ENV_SERVICE, raising=False)
    reset()
    reset_host_metrics()
    yield
    os.environ.pop(ENV_DIR, None)
    reset()
    reset_host_metrics()
