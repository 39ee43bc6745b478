"""The sweep executor's two paths: the in-process loop and the pool.

Pins the contract every sweep call site relies on: results are
bit-identical whether a sweep ran in-process or on the local pool, and
a pool that breaks mid-sweep degrades to the in-process loop.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro import config
from repro.perf.backends import (MIN_ITEMS_PER_JOB, last_map_info,
                                 map_sweep, shutdown_pool)


def _square(x):
    return x * x


def _scaled(x, factor):
    return x * factor + 0.125


def _kill_if_worker(item):
    parent_pid, x = item
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


@pytest.fixture(autouse=True)
def _fresh_pools():
    config.reset()
    shutdown_pool()
    yield
    config.reset()
    shutdown_pool()


# ----------------------------------------------------------------------
# bit-identity across the two paths
# ----------------------------------------------------------------------

def test_results_bit_identical_across_backends():
    items = [(x * 0.1, 3.7) for x in range(6 * MIN_ITEMS_PER_JOB)]
    reference = map_sweep(_scaled, items, jobs=1, star=True)
    info = last_map_info()
    assert info.mode == "serial"
    assert info.reason == "serial requested (jobs=1)"
    got = map_sweep(_scaled, items, jobs=2, star=True,
                    oversubscribe=True)
    assert got == reference
    assert last_map_info().mode == "parallel"


def test_experiment_bit_identical_across_backends():
    # the acceptance bar, on a real artifact: same seed, one job
    # in-process and two on the local pool, byte-identical values
    from repro import api
    reference = api.run_experiment("figure-6.7", seed=7, jobs=1)
    result = api.run_experiment("figure-6.7", seed=7, jobs=2)
    assert result.values == reference.values


# ----------------------------------------------------------------------
# degradation and lifecycle
# ----------------------------------------------------------------------

def test_killed_worker_degrades_to_serial():
    # a worker SIGKILLed mid-task breaks the pool; the sweep must
    # still return correct results (serial fallback re-runs in the
    # parent, where the kill guard is a no-op) with the reason recorded
    items = [(os.getpid(), x) for x in range(4 * MIN_ITEMS_PER_JOB)]
    result = map_sweep(_kill_if_worker, items, jobs=2,
                       oversubscribe=True)
    assert result == [x * 2 for _pid, x in items]
    info = last_map_info()
    assert info.mode == "serial"
    assert "worker pool broke" in info.reason
    assert "died mid-task" in info.reason
    # the broken pool was reaped: the next sweep builds a fresh one
    # and fans out normally
    clean = map_sweep(_square, list(range(4 * MIN_ITEMS_PER_JOB)),
                      jobs=2, oversubscribe=True)
    assert clean == [x * x for x in range(4 * MIN_ITEMS_PER_JOB)]
    assert last_map_info().mode == "parallel"
