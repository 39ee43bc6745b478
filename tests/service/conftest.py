"""Shared fixtures for the ``repro serve`` suite.

Serve tests run against tiny synthetic experiments (registered with
the scoped :func:`~repro.experiments.registry.temporary_experiment`)
instead of real chapter-6 grids, so the suite exercises the result
store at millisecond cost.  Every test gets a clean config/obs slate
and a fresh memory-only process-wide store.
"""

from __future__ import annotations

import pytest

from repro import config, obs
from repro.experiments import Experiment
from repro.experiments.reporting import Table
from repro.perf.backends import map_sweep
from repro.perf.cache import configure_cache


@pytest.fixture(autouse=True)
def _clean_state():
    config.reset()
    obs.uninstall()
    configure_cache()
    yield
    config.reset()
    obs.uninstall()
    configure_cache()


def _inc(x):
    return x + 1


class ToyTracker:
    """Observable side effects of toy-experiment executions."""

    def __init__(self):
        self.runs: list[int | None] = []   # seed per execution


def make_toy(experiment_id: str = "toy-exp",
             tracker: ToyTracker | None = None,
             fail: bool = False) -> Experiment:
    """A synthetic table experiment: seed-dependent values and exactly
    one ``map_sweep`` item (so a traced execution emits exactly one
    ``pool.task`` span)."""
    def runner() -> Table:
        if fail:
            from repro.errors import ReproError
            raise ReproError("toy runner failed on purpose")
        seed = config.seed()
        if tracker is not None:
            tracker.runs.append(seed)
        (total,) = map_sweep(_inc, [seed if seed is not None else 0])
        return Table(experiment_id=experiment_id, title="toy",
                     headers=["metric", "value"],
                     rows=[["seed", seed], ["total", total]])
    return Experiment(experiment_id, "toy", "table", runner)
