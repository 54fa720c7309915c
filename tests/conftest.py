"""Shared fixtures for the NetScatter reproduction test suite."""

import os

import numpy as np
import pytest

from repro.core.config import NetScatterConfig
from repro.phy.chirp import ChirpParams


@pytest.fixture
def rng():
    """Deterministic generator; tests must not depend on global state."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def params():
    """The deployment chirp parameters (500 kHz, SF 9)."""
    return ChirpParams(bandwidth_hz=500e3, spreading_factor=9)


@pytest.fixture
def small_params():
    """A small symbol (SF 6) for tests where speed matters."""
    return ChirpParams(bandwidth_hz=125e3, spreading_factor=6)


@pytest.fixture
def config():
    """The deployment NetScatter configuration."""
    return NetScatterConfig()


@pytest.fixture
def small_config():
    """A small configuration for fast end-to-end tests."""
    return NetScatterConfig(
        bandwidth_hz=125e3, spreading_factor=6, skip=2,
        n_association_shifts=0,
    )


@pytest.fixture
def spawned_pools(monkeypatch):
    """Count the real process pools a module constructs.

    Call it with the module whose ``ProcessPoolExecutor`` name the code
    under test resolves; it returns the list every construction is
    appended to. A pool test that passes through the serial fallback
    proves nothing about the pool path, so the test is skipped on a
    1-CPU host, where ``resolve_pool_workers`` never spawns a pool.
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip("1-CPU host: resolve_pool_workers never spawns a pool")
    spawned = []

    def count(module):
        real = module.ProcessPoolExecutor

        class CountingPool(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(module, "ProcessPoolExecutor", CountingPool)
        return spawned

    return count
