"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.juno import juno_r1


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running end-to-end test (full CLI or experiment runs)"
    )


@pytest.fixture(scope="session")
def platform():
    """The calibrated Juno R1 platform (immutable, shared)."""
    return juno_r1()


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
